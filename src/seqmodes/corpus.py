"""Pre-tokenized corpus ingestion and empirical conditional operators.

Counts (context, continuation) windows with stride 1 inside each document
(windows never cross document boundaries), applies the two-stage frequency
filter (contexts first, then continuations among retained contexts), and
builds Laplace-smoothed conditional operators that keep the counts sparse
(see :class:`~seqmodes.distribution.ConditionalOperator`). Two counting
policies are supported: "paper" divides by the raw context occurrence count,
which leaves columns sub-stochastic once continuations have been filtered;
"stochastic" divides by the retained-row sum so every column is exactly
normalized, which is what the decomposition machinery requires.

A window of w tokens t₁ … t_w is held as its base-|Σ| code
Σᵢ tᵢ·|Σ|^(w−i), first token most significant. Among windows of one length,
ascending codes are ascending token tuples, so a table sorted by code is
sorted exactly as its token tuples would be. Codes are int64: |Σ|^k and
|Σ|^l must each stay below 2^63, and larger alphabets raise
:class:`CorpusError` before anything is counted.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np
from scipy import sparse

from .distribution import ConditionalOperator
from .modes import ModeDecomposition

Sequence = tuple[int, ...]

TIE_RTOL = 1e-12  # loadings this close (relative to the largest) count as tied


class CorpusError(ValueError):
    pass


class TokenStream:
    """Documents of token ids over an alphabet of the given size.

    The documents lie back to back in one read-only int64 array ``tokens``,
    and ``lengths`` holds the token count of each. ``records`` gives one view
    of ``tokens`` per document. Two streams are equal when their alphabet
    sizes, tokens and lengths are.
    """

    def __init__(self, records, alphabet_size: int):
        records = tuple(records)
        lengths = np.fromiter(map(len, records), dtype=np.int64, count=len(records))
        tokens = np.fromiter(chain.from_iterable(records), dtype=np.int64,
                             count=int(lengths.sum()))
        self._set(tokens, lengths, alphabet_size)

    @classmethod
    def _from_flat(cls, tokens: np.ndarray, lengths: np.ndarray, alphabet_size: int):
        """The stream whose documents are int64 ``tokens`` cut into ``lengths``."""
        stream = cls.__new__(cls)
        stream._set(tokens, lengths, alphabet_size)
        return stream

    def _set(self, tokens: np.ndarray, lengths: np.ndarray, alphabet_size: int) -> None:
        if alphabet_size < 1:
            raise CorpusError("alphabet_size must be positive")
        if np.any(lengths < 1):
            raise CorpusError("documents must be non-empty")
        if tokens.size and (tokens.min() < 0 or int(tokens.max()) >= alphabet_size):
            bad = tokens[(tokens < 0) | (tokens >= alphabet_size)][0]
            raise CorpusError(f"token id {bad} outside alphabet of size {alphabet_size}")
        tokens.flags.writeable = lengths.flags.writeable = False
        self.tokens, self.lengths, self.alphabet_size = tokens, lengths, alphabet_size

    @property
    def records(self) -> list[np.ndarray]:
        """One view of ``tokens`` per document."""
        ends = np.cumsum(self.lengths).tolist()
        return [self.tokens[end - n : end] for end, n in zip(ends, self.lengths.tolist())]

    def __eq__(self, other):
        if not isinstance(other, TokenStream):
            return NotImplemented
        return (self.alphabet_size == other.alphabet_size
                and np.array_equal(self.lengths, other.lengths)
                and np.array_equal(self.tokens, other.tokens))


def _places(alphabet_size: int, width: int) -> np.ndarray:
    """Place values |Σ|^(w−1) … |Σ|^0 of a width-w window code."""
    if int(alphabet_size) ** int(width) >= 2**63:
        raise CorpusError(f"windows of {width} tokens over an alphabet of size {alphabet_size} "
                          f"do not fit 64-bit codes (|Σ|^{width} >= 2^63)")
    return np.array([alphabet_size**p for p in range(width - 1, -1, -1)], dtype=np.int64)


def _decode(codes: np.ndarray, width: int, alphabet_size: int) -> list[list[int]]:
    """Token ids of each code, first token first."""
    return (codes[:, None] // _places(alphabet_size, width) % alphabet_size).tolist()


def _labels(codes: np.ndarray, width: int, alphabet_size: int) -> np.ndarray:
    """Comma-joined token ids of each code, formatted once per distinct code."""
    distinct, inverse = np.unique(codes, return_inverse=True)
    names = np.array([",".join(map(str, ids)) for ids in _decode(distinct, width, alphabet_size)],
                     dtype=object)
    return names[inverse]


@dataclass
class CountTable:
    """Window counts for a (k, l) split, after frequency filtering.

    ``x_codes`` holds the code of each retained context in ascending order and
    ``x_counts`` its raw occurrence count: every position where k tokens fit,
    including those whose continuation would run past the document end (such
    windows are dropped, not padded). ``xy_codes`` is an (n, 2) array of
    (context code, continuation code) rows in ascending lexicographic order,
    which is token-tuple order, with ``xy_counts`` aligned to it. Every pair's
    context is among ``x_codes``. ``windows`` is the number of full windows
    before filtering; it is None for a table read from a file.
    """

    k: int
    l: int
    alphabet_size: int
    x_codes: np.ndarray
    x_counts: np.ndarray
    xy_codes: np.ndarray
    xy_counts: np.ndarray
    min_count: int = 1
    min_y_count: int = 1
    windows: int | None = None

    def __post_init__(self):
        self.x_codes, self.x_counts, self.xy_counts = (
            np.asarray(a, dtype=np.int64).reshape(-1)
            for a in (self.x_codes, self.x_counts, self.xy_counts))
        self.xy_codes = np.asarray(self.xy_codes, dtype=np.int64).reshape(-1, 2)
        x, y = self.xy_codes.T
        step = np.diff(x)
        if (self.x_codes.size != self.x_counts.size or x.size != self.xy_counts.size
                or np.any(self.x_counts < 1) or np.any(self.xy_counts < 1)
                or np.any(np.diff(self.x_codes) <= 0)
                or np.any((step < 0) | ((step == 0) & (np.diff(y) <= 0)))
                or not np.all(np.isin(x, self.x_codes))):
            raise CorpusError("a count table needs distinct ascending codes aligned with "
                              "positive counts, and every pair's context among x_codes")

    def total_windows(self) -> int:
        """Number of full (x, y) windows before filtering (the pair total if unknown)."""
        return self.windows if self.windows is not None else int(self.xy_counts.sum())


def _windows(stream: TokenStream, k: int, l: int):
    """Codes of the windows that start at each position of ``stream.tokens``.

    Returns the context code x and continuation code y at every position,
    the mask of positions where k tokens fit inside the document, and the
    mask of those where k + l tokens fit. Codes at unmasked positions are
    meaningless.
    """
    x_places, y_places = _places(stream.alphabet_size, k), _places(stream.alphabet_size, l)
    tokens, lengths = stream.tokens, stream.lengths
    room = np.repeat(np.cumsum(lengths), lengths) - np.arange(tokens.size)  # to document end
    padded = np.concatenate([tokens, np.zeros(k + l, dtype=np.int64)])
    window = np.lib.stride_tricks.sliding_window_view(padded, k + l)[: tokens.size]
    return window[:, :k] @ x_places, window[:, k:] @ y_places, room >= k, room >= k + l


def stream_ngram_counts(
    stream: TokenStream, k: int, l: int, min_count: int = 1, min_y_count: int = 1
) -> CountTable:
    """Count (length-k, length-l) windows and apply the two-stage filter.

    Contexts with fewer than ``min_count`` windows are dropped first; then
    continuations with fewer than ``min_y_count`` occurrences after a
    retained context are dropped.
    """
    if k < 1 or l < 1:
        raise CorpusError("k and l must be >= 1")
    if not stream.lengths.size:
        raise CorpusError("empty corpus")
    x, y, fits, full = _windows(stream, k, l)
    windows = int(np.count_nonzero(full))
    if not windows:
        raise CorpusError(f"no windows: every document is shorter than k + l = {k + l}")

    x_codes, x_inverse, x_counts = np.unique(x[fits], return_inverse=True, return_counts=True)
    x_rank = x_inverse[full[fits]]
    y_codes, y_rank = np.unique(y[full], return_inverse=True)
    kept_x = x_counts >= min_count
    live = kept_x[x_rank]
    kept_y = np.bincount(y_rank[live], minlength=y_codes.size) >= min_y_count
    live &= kept_y[y_rank]
    # Pairs are counted over ranks, whose ids stay below
    # (#contexts)·(#continuations) however large |Σ|^(k+l) is.
    ids, xy_counts = np.unique(x_rank[live] * y_codes.size + y_rank[live], return_counts=True)
    return CountTable(
        k, l, stream.alphabet_size, x_codes[kept_x], x_counts[kept_x],
        np.column_stack([x_codes[ids // y_codes.size], y_codes[ids % y_codes.size]]), xy_counts,
        min_count=min_count, min_y_count=min_y_count, windows=windows,
    )


def build_conditional_matrix(
    counts: CountTable, lambda_smooth: float = 0.0, policy: str = "stochastic"
) -> ConditionalOperator:
    """Smoothed conditional operator P(y|x) from a count table, kept sparse.

    P(y|x) = (count(x,y) + λ) / (count(x) + λ|Y|). Under ``stochastic``,
    count(x) is the retained-row sum so columns are exactly normalized;
    under ``paper``, count(x) is the raw occurrence count and columns may
    sum to less than one. The marginal is the renormalized raw context count
    either way. Contexts left without any retained continuation are dropped.

    The operator holds the count matrix R as a CSR array filled straight from
    the sorted pair codes, with d = count(x) + λ|Y| and λ; no dense array is
    allocated until ``matrix`` is read.
    """
    if lambda_smooth < 0:
        raise CorpusError("lambda_smooth must be >= 0")
    if policy not in ("paper", "stochastic"):
        raise CorpusError(f"unknown policy {policy!r}")
    if not counts.xy_counts.size:
        raise CorpusError("empty table: all counts were filtered away")

    # Pairs are sorted by context, so each used context's pairs are one run:
    # the runs' starts are the column pointers of R in compressed-column form.
    x_rank = np.searchsorted(counts.x_codes, counts.xy_codes[:, 0])
    starts = np.flatnonzero(np.diff(x_rank, prepend=-1))
    used = x_rank[starts]
    y_codes, row = np.unique(counts.xy_codes[:, 1], return_inverse=True)
    raw = sparse.csc_array((counts.xy_counts.astype(float), row, np.append(starts, row.size)),
                           shape=(y_codes.size, used.size)).tocsr()
    x_raw = counts.x_counts[used].astype(float)
    totals = np.add.reduceat(counts.xy_counts, starts).astype(float)
    denom_counts = totals if policy == "stochastic" else x_raw
    marginal = x_raw / x_raw.sum()
    size = counts.alphabet_size
    return ConditionalOperator(
        k=counts.k, l=counts.l, raw=raw, denom=denom_counts + lambda_smooth * y_codes.size,
        marginal=marginal, smoothing=lambda_smooth,
        x_labels=tuple(map(tuple, _decode(counts.x_codes[used], counts.k, size))),
        y_labels=tuple(map(tuple, _decode(y_codes, counts.l, size))),
        meta={"policy": policy, "lambda_smooth": lambda_smooth, "min_count": counts.min_count,
              "min_y_count": counts.min_y_count, "alphabet_size": size},
    )


def _encode(labels, width: int, alphabet_size: int) -> np.ndarray:
    """Codes of token tuples; -1 for a tuple with a token outside the alphabet."""
    ids = np.array(labels, dtype=np.int64).reshape(len(labels), width)
    inside = np.all((ids >= 0) & (ids < alphabet_size), axis=1)
    return np.where(inside, ids @ _places(alphabet_size, width), -1)


def extract_contextual_examples(
    stream: TokenStream, dec: ModeDecomposition, component: int, window: int = 50,
    loading_fraction: float = 0.1,
) -> list[tuple[tuple[int, ...], Sequence, Sequence, tuple[int, ...]]]:
    """Corpus occurrences illustrating one singular component.

    The continuation is the top-loaded entry of the component's left vector:
    among entries whose |u_α| lies within ``TIE_RTOL``·max|u_α| of the
    maximum, the lowest index, so exactly tied loadings do not turn on the
    last bits of one SVD path or another. Contexts are those whose
    right-vector loading magnitude is within ``loading_fraction`` of the
    maximum, relaxing in 10% bands up to 50% if nothing matches. Returns
    (before, x, y, after) context tuples; empty list when the pair never
    occurs even at the widest band.
    """
    if component < 0 or component >= dec.n_modes:
        raise CorpusError(f"component {component} out of range")
    if component >= dec.n_left:
        raise CorpusError(f"component {component} has no left vector: the continuation "
                          f"space has {dec.n_left} dimensions")
    if not 0 < loading_fraction <= 1:
        raise CorpusError("loading_fraction must be in (0, 1]")
    left, right = np.abs(dec.left_vectors[:, component]), dec.right_vectors[:, component]
    top_y = dec.y_labels[int(np.argmax(left >= (1.0 - TIE_RTOL) * left.max()))]
    max_mag = float(np.max(np.abs(right)))
    if max_mag == 0:
        return []
    k, l, size = dec.k, dec.l, stream.alphabet_size
    x, y, _, full = _windows(stream, k, l)
    at = np.flatnonzero(full)
    pair_x, y_match = x[at], y[at] == _encode([top_y], l, size)[0]
    x_codes = _encode(dec.x_labels, k, size)
    ends = np.cumsum(stream.lengths)
    starts, tokens = ends - stream.lengths, stream.tokens.tolist()

    band = loading_fraction
    while True:
        threshold = (1.0 - band) * max_mag
        chosen = x_codes[np.abs(right) >= threshold - 1e-15]
        hits = at[y_match & np.isin(pair_x, chosen)]
        doc = np.searchsorted(ends, hits, side="right")
        matches = []
        for i, start, end in zip(hits.tolist(), starts[doc].tolist(), ends[doc].tolist()):
            j = i + k + l
            matches.append((tuple(tokens[max(start, i - window) : i]), tuple(tokens[i : i + k]),
                            tuple(tokens[i + k : j]), tuple(tokens[j : min(end, j + window)])))
        if matches or band >= 0.5:
            return matches
        band = min(band + 0.1, 0.5)


# ---------------------------------------------------------------------------
# File formats: newline-delimited documents with an alphabet header, and a
# TSV of counts with comment-line metadata.
# ---------------------------------------------------------------------------

MAX_TOKEN = 10**18  # corpus token ids stay below this, so every id fits int64


def _read_text(path: Path) -> str:
    """The text of a UTF-8 file, with universal newlines."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _bad_token(line: str) -> str | None:
    """Why a document line is not whitespace-separated token ids; None if it is."""
    for word in re.split(r"[ \t\v\f]+", line):
        if not (word.isascii() and word.isdigit()):
            try:
                int(word)
            except ValueError as exc:
                return str(exc)
            return f"{word!r} is not ASCII decimal digits"
        if int(word) >= MAX_TOKEN:
            return f"{word} is not below 10^18"
    return None


def read_token_stream(path: str | Path) -> TokenStream:
    """Documents from a corpus file: an ``#alphabet <n>`` header, then one document a line.

    A token id is ASCII decimal digits with a value below 10^18, and tokens
    are separated by ASCII whitespace. Blank lines and other ``#`` lines are
    skipped.
    """
    path = Path(path)
    alphabet_size, lines, linenos = None, [], []
    for lineno, line in enumerate(_read_text(path).split("\n"), start=1):
        line = line.strip()
        if line.startswith("#alphabet"):
            try:
                (alphabet_size,) = map(int, line.split()[1:])
            except ValueError:
                raise CorpusError(f"{path}:{lineno}: malformed alphabet header") from None
        elif line and not line.startswith("#"):
            lines.append(line)
            linenos.append(lineno)
    if alphabet_size is None:
        raise CorpusError(f"{path}: missing '#alphabet <n>' header")
    if not lines:
        raise CorpusError("empty corpus")
    body = "\n".join(lines)
    tokens = None
    if not re.search(r"[^0-9 \t\n\v\f]", body):
        tokens = np.fromstring(body, dtype=np.int64, sep=" ")
    if tokens is None or tokens.max() >= MAX_TOKEN:  # MAX_TOKEN also catches ids past int64
        for lineno, line in zip(linenos, lines):
            why = _bad_token(line)
            if why:
                raise CorpusError(f"{path}:{lineno}: bad token id ({why})")
    chars = np.frombuffer(body.encode("ascii"), dtype=np.uint8)
    digit = chars > ord(" ")  # the body holds only digits and whitespace
    firsts = np.flatnonzero(digit & ~np.append(False, digit[:-1]))  # each token's first digit
    line_ends = np.append(np.flatnonzero(chars == ord("\n")), chars.size)
    lengths = np.diff(np.searchsorted(firsts, line_ends), prepend=0)
    return TokenStream._from_flat(tokens, lengths, alphabet_size)


def write_token_stream(stream: TokenStream, path: str | Path) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(f"#alphabet {stream.alphabet_size}\n")
        for doc in stream.records:
            fh.write(" ".join(map(str, doc.tolist())) + "\n")


def write_count_table(counts: CountTable, path: str | Path) -> None:
    k, l, size = counts.k, counts.l, counts.alphabet_size
    lines = [f"#k {k}", f"#l {l}", f"#min_count {counts.min_count}",
             f"#min_y_count {counts.min_y_count}", f"#alphabet {size}",
             "#columns x_ids\ty_ids\tcount"]
    lines += [f"{x}\t{y}\t{c}" for x, y, c in zip(_labels(counts.xy_codes[:, 0], k, size).tolist(),
                                                   _labels(counts.xy_codes[:, 1], l, size).tolist(),
                                                   counts.xy_counts.tolist())]
    lines += [f"#x_count {x}\t{c}" for x, c in zip(_labels(counts.x_codes, k, size).tolist(),
                                                   counts.x_counts.tolist())]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _row(*widths: int) -> str:
    """Regex of one count row: comma-joined ids per width, then the count."""
    number = "[0-9]{1,18}"  # at most 18 ASCII digits, so every number fits int64
    return "\t".join(",".join([number] * width) for width in widths + (1,))


def _row_codes(rows: list[str], widths: tuple[int, ...], alphabet_size: int):
    """Window codes (one array per width) and counts of validated count rows."""
    text = ",".join(rows).replace("\t", ",")
    parsed = np.fromstring(text, dtype=np.int64, sep=",").reshape(len(rows), sum(widths) + 1)
    outside = np.flatnonzero(np.any(parsed[:, :-1] >= alphabet_size, axis=1))
    if outside.size:
        raise CorpusError(f"token id outside alphabet of size {alphabet_size} "
                          f"in row {rows[outside[0]]!r}")
    bounds = np.cumsum((0,) + widths)
    codes = [parsed[:, a:b] @ _places(alphabet_size, b - a) for a, b in zip(bounds, bounds[1:])]
    return codes, parsed[:, -1]


def read_count_table(path: str | Path) -> CountTable:
    path = Path(path)
    # With a newline added at each end, every line follows a newline and ends
    # before one: each pattern below starts with a literal newline, which the
    # regex engine scans for quickly, and line n follows the n-th newline.
    lines = f"\n{_read_text(path)}\n"

    def error(at: int, what: str) -> CorpusError:
        lineno = lines.count("\n", 0, at) + 1
        return CorpusError(f"{path}:{lineno}: {what}")

    header = {"min_count": 1, "min_y_count": 1}
    for match in re.finditer(r"\n#(k|l|min_count|min_y_count|alphabet)(?:[ \t]([^\n]*))?(?=\n)",
                             lines):
        try:
            header[match[1]] = int(match[2])
        except (TypeError, ValueError):
            raise error(match.start(), f"malformed #{match[1]} header") from None
    missing = [f"#{key}" for key in ("k", "l", "alphabet") if key not in header]
    if missing:
        raise CorpusError(f"{path}: missing {', '.join(missing)} header")
    k, l, size = header["k"], header["l"], header["alphabet"]
    if min(k, l, size) < 1:
        raise CorpusError(f"{path}: k, l and the alphabet size must be >= 1")
    pair_rows = re.findall(rf"\n({_row(k, l)})(?=\n)", lines)
    x_rows = re.findall(rf"\n#x_count ({_row(k)})(?=\n)", lines)
    # Blank lines and comments pass; every other line must be a well-formed row.
    blank = len(re.findall(r"\n(?=\n)", lines))
    comment = lines.count("\n#") - lines.count("\n#x_count ")
    if len(pair_rows) + len(x_rows) + blank + comment != lines.count("\n") - 1:
        bad = re.search(rf"\n(?!\n|\Z|#(?!x_count )|(?:{_row(k, l)}|#x_count {_row(k)})\n)",
                        lines)
        raise error(bad.start(), "malformed count row")
    try:
        (pair_x, pair_y), xy_counts = _row_codes(pair_rows, (k, l), size)
        (x_codes,), x_counts = _row_codes(x_rows, (k,), size)
        if not x_rows:
            # tolerate tables written without per-context rows
            x_codes, inverse = np.unique(pair_x, return_inverse=True)
            x_counts = np.bincount(inverse, weights=xy_counts).astype(np.int64)
        step = np.diff(pair_x)  # a table as written is in order: sort only one that is not
        in_order = np.all((step > 0) | ((step == 0) & (np.diff(pair_y) > 0)))
        pairs = slice(None) if in_order else np.lexsort((pair_y, pair_x))
        contexts = np.argsort(x_codes)
        return CountTable(
            k, l, size, x_codes[contexts], x_counts[contexts],
            np.column_stack([pair_x, pair_y])[pairs], xy_counts[pairs],
            min_count=header["min_count"], min_y_count=header["min_y_count"],
        )
    except CorpusError as exc:
        raise CorpusError(f"{path}: {exc}") from None
