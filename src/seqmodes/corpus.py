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


@dataclass(frozen=True)
class TokenStream:
    """Documents of token ids over an alphabet of the given size."""

    records: tuple[tuple[int, ...], ...]
    alphabet_size: int

    def __post_init__(self):
        if self.alphabet_size < 1:
            raise CorpusError("alphabet_size must be positive")
        if not all(self.records):
            raise CorpusError("documents must be non-empty")
        bad = [tok for doc in self.records for tok in doc if not 0 <= tok < self.alphabet_size]
        if bad:
            raise CorpusError(f"token id {bad[0]} outside alphabet of size {self.alphabet_size}")


def _places(alphabet_size: int, width: int) -> np.ndarray:
    """Place values |Σ|^(w−1) … |Σ|^0 of a width-w window code."""
    if int(alphabet_size) ** int(width) >= 2**63:
        raise CorpusError(f"windows of {width} tokens over an alphabet of size {alphabet_size} "
                          f"do not fit 64-bit codes (|Σ|^{width} >= 2^63)")
    return np.array([alphabet_size**p for p in range(width - 1, -1, -1)], dtype=np.int64)


def _decode(codes: np.ndarray, width: int, alphabet_size: int) -> list[list[int]]:
    """Token ids of each code, first token first."""
    return (codes[:, None] // _places(alphabet_size, width) % alphabet_size).tolist()


def _labels(codes: np.ndarray, width: int, alphabet_size: int) -> list[str]:
    """Comma-joined token ids of each code, formatted once per distinct code."""
    distinct, inverse = np.unique(codes, return_inverse=True)
    names = [",".join(map(str, ids)) for ids in _decode(distinct, width, alphabet_size)]
    return [names[i] for i in inverse.tolist()]


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


def _windows(records, alphabet_size: int, k: int, l: int):
    """Codes of the windows that fit inside one document, in corpus order.

    Returns the context code at every position where k tokens fit and, at
    every position where k + l tokens fit, its context code, continuation
    code, document index and offset within that document.
    """
    x_places, y_places = _places(alphabet_size, k), _places(alphabet_size, l)
    lengths = np.fromiter(map(len, records), dtype=np.int64, count=len(records))
    flat = np.fromiter(chain.from_iterable(records), dtype=np.int64, count=int(lengths.sum()))
    doc = np.repeat(np.arange(len(records)), lengths)
    offset = np.arange(flat.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    room = lengths[doc] - offset  # tokens from each position to its document's end
    padded = np.concatenate([flat, np.zeros(k + l, dtype=np.int64)])
    window = np.lib.stride_tricks.sliding_window_view(padded, k + l)[: flat.size]
    x, y = window[:, :k] @ x_places, window[:, k:] @ y_places
    full = room >= k + l
    return x[room >= k], x[full], y[full], doc[full], offset[full]


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
    if not stream.records:
        raise CorpusError("empty corpus")
    x_all, pair_x, pair_y, _, _ = _windows(stream.records, stream.alphabet_size, k, l)
    if not pair_x.size:
        raise CorpusError(f"no windows: every document is shorter than k + l = {k + l}")

    x_codes, x_counts = np.unique(x_all, return_counts=True)
    y_codes, y_rank = np.unique(pair_y, return_inverse=True)
    x_rank = np.searchsorted(x_codes, pair_x)
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
        min_count=min_count, min_y_count=min_y_count, windows=int(pair_x.size),
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
    _, pair_x, pair_y, doc, offset = _windows(stream.records, size, k, l)
    x_codes = _encode(dec.x_labels, k, size)
    y_match = pair_y == _encode([top_y], l, size)[0]

    band = loading_fraction
    while True:
        threshold = (1.0 - band) * max_mag
        chosen = x_codes[np.abs(right) >= threshold - 1e-15]
        hits = np.flatnonzero(y_match & np.isin(pair_x, chosen))
        matches = []
        for d, i in zip(doc[hits].tolist(), offset[hits].tolist()):
            rec = stream.records[d]
            matches.append((rec[max(0, i - window) : i], rec[i : i + k],
                            rec[i + k : i + k + l], rec[i + k + l : i + k + l + window]))
        if matches or band >= 0.5:
            return matches
        band = min(band + 0.1, 0.5)


# ---------------------------------------------------------------------------
# File formats: newline-delimited documents with an alphabet header, and a
# TSV of counts with comment-line metadata.
# ---------------------------------------------------------------------------

def read_token_stream(path: str | Path) -> TokenStream:
    path = Path(path)
    alphabet_size, records = None, []
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if line.startswith("#alphabet"):
                try:
                    (alphabet_size,) = map(int, line.split()[1:])
                except ValueError:
                    raise CorpusError(f"{path}:{lineno}: malformed alphabet header") from None
            elif line and not line.startswith("#"):
                try:
                    records.append(tuple(map(int, line.split())))
                except ValueError as exc:
                    raise CorpusError(f"{path}:{lineno}: bad token id ({exc})") from None
    if alphabet_size is None:
        raise CorpusError(f"{path}: missing '#alphabet <n>' header")
    if not records:
        raise CorpusError("empty corpus")
    return TokenStream(records=tuple(records), alphabet_size=alphabet_size)


def write_token_stream(stream: TokenStream, path: str | Path) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(f"#alphabet {stream.alphabet_size}\n")
        for doc in stream.records:
            fh.write(" ".join(str(t) for t in doc) + "\n")


def write_count_table(counts: CountTable, path: str | Path) -> None:
    k, l, size = counts.k, counts.l, counts.alphabet_size
    lines = [f"#k {k}", f"#l {l}", f"#min_count {counts.min_count}",
             f"#min_y_count {counts.min_y_count}", f"#alphabet {size}",
             "#columns x_ids\ty_ids\tcount"]
    lines += [f"{x}\t{y}\t{c}" for x, y, c in zip(_labels(counts.xy_codes[:, 0], k, size),
                                                   _labels(counts.xy_codes[:, 1], l, size),
                                                   counts.xy_counts.tolist())]
    lines += [f"#x_count {x}\t{c}"
              for x, c in zip(_labels(counts.x_codes, k, size), counts.x_counts.tolist())]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _row(*widths: int) -> str:
    """Regex of one count row: comma-joined ids per width, then the count."""
    number = r"\d{1,18}"  # at most 18 digits, so every number fits int64
    return "\t".join(",".join([number] * width) for width in widths + (1,))


def _row_codes(rows: list[str], widths: tuple[int, ...], alphabet_size: int):
    """Window codes (one array per width) and counts of validated count rows."""
    text = ",".join(rows).replace("\t", ",")
    parsed = np.fromstring(text, dtype=np.int64, sep=",").reshape(len(rows), sum(widths) + 1)
    bounds = np.cumsum((0,) + widths)
    codes = [_encode(parsed[:, a:b], b - a, alphabet_size) for a, b in zip(bounds, bounds[1:])]
    outside = np.flatnonzero(np.any(np.array(codes) < 0, axis=0))
    if outside.size:
        raise CorpusError(f"token id outside alphabet of size {alphabet_size} "
                          f"in row {rows[outside[0]]!r}")
    return codes, parsed[:, -1]


def read_count_table(path: str | Path) -> CountTable:
    path = Path(path)
    text = path.read_text(encoding="utf-8")

    def error(at: int, what: str) -> CorpusError:
        lineno = text.count("\n", 0, at) + 1
        return CorpusError(f"{path}:{lineno}: {what}")

    header = {"min_count": 1, "min_y_count": 1}
    for match in re.finditer(r"^#(k|l|min_count|min_y_count|alphabet)(?:[ \t](.*))?$", text, re.M):
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
    pair_row, x_row = _row(k, l), "#x_count " + _row(k)
    # Blank lines and comments pass; every other line must be a well-formed row.
    bad = re.search(rf"^(?!$|#(?!x_count )|(?:{pair_row}|{x_row})$)", text, re.M)
    if bad:
        raise error(bad.start(), "malformed count row")
    x_rows = re.findall(rf"^#x_count ({_row(k)})$", text, re.M)
    try:
        (pair_x, pair_y), xy_counts = _row_codes(re.findall(rf"^{pair_row}$", text, re.M),
                                                 (k, l), size)
        (x_codes,), x_counts = _row_codes(x_rows, (k,), size)
        if not x_rows:
            # tolerate tables written without per-context rows
            x_codes, inverse = np.unique(pair_x, return_inverse=True)
            x_counts = np.bincount(inverse, weights=xy_counts).astype(np.int64)
        pairs, contexts = np.lexsort((pair_y, pair_x)), np.argsort(x_codes)
        return CountTable(
            k, l, size, x_codes[contexts], x_counts[contexts],
            np.column_stack([pair_x, pair_y])[pairs], xy_counts[pairs],
            min_count=header["min_count"], min_y_count=header["min_y_count"],
        )
    except CorpusError as exc:
        raise CorpusError(f"{path}: {exc}") from None
