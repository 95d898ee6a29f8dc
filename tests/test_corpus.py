import re
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from _fixtures import sample_bigram_corpus, write_token_stream
from seqmodes import corpus
from seqmodes.corpus import (
    CorpusError,
    CountTable,
    TokenStream,
    build_conditional_matrix,
    extract_contextual_examples,
    read_count_table,
    read_token_stream,
    stream_ngram_counts,
    write_count_table,
)
from seqmodes.distribution import (
    DistributionError,
    conditional_operator,
    random_doubly_stochastic_language,
)
from seqmodes.modes import ModeDecomposition, truncated_weighted_svd, weighted_svd


def make_stream(*docs, alphabet_size=None):
    if alphabet_size is None:
        alphabet_size = max(max(d) for d in docs) + 1
    return TokenStream(records=tuple(tuple(d) for d in docs), alphabet_size=alphabet_size)


def code(ids, size):
    """Base-``size`` code of a token tuple, first token most significant."""
    return sum(t * size ** (len(ids) - 1 - i) for i, t in enumerate(ids))


def ids_of(c, width, size):
    return tuple(c // size ** (width - 1 - i) % size for i in range(width))


def as_dicts(table):
    """(pair counts, context counts) of a table, keyed by token tuples."""
    size, k, l = table.alphabet_size, table.k, table.l
    xy = {(ids_of(x, k, size), ids_of(y, l, size)): c
          for (x, y), c in zip(table.xy_codes.tolist(), table.xy_counts.tolist())}
    xc = {ids_of(x, k, size): c for x, c in zip(table.x_codes.tolist(), table.x_counts.tolist())}
    return xy, xc


def from_dicts(pairs, x_counts=None, k=1, l=1, alphabet_size=4):
    """A table from token-tuple dicts; contexts default to their pair totals."""
    if x_counts is None:
        x_counts = Counter()
        for (x, _), c in pairs.items():
            x_counts[x] += c
    xy = sorted((code(x, alphabet_size), code(y, alphabet_size), c) for (x, y), c in pairs.items())
    xc = sorted((code(x, alphabet_size), c) for x, c in x_counts.items())
    return CountTable(
        k, l, alphabet_size,
        [x for x, _ in xc], [c for _, c in xc], [row[:2] for row in xy], [row[2] for row in xy],
    )


def oracle_counts_tsv(docs, size, k, l, min_count, min_y_count):
    """counts.tsv by counting token tuples in dicts, one window at a time."""
    xc, xy = Counter(), Counter()
    for doc in docs:
        for i in range(len(doc) - k + 1):
            x = tuple(doc[i : i + k])
            xc[x] += 1
            if i + k + l <= len(doc):
                xy[x, tuple(doc[i + k : i + k + l])] += 1
    kept_x = {x for x, c in xc.items() if c >= min_count}
    xy = {key: c for key, c in xy.items() if key[0] in kept_x}
    y_totals = Counter()
    for (_, y), c in xy.items():
        y_totals[y] += c
    xy = {key: c for key, c in xy.items() if y_totals[key[1]] >= min_y_count}

    def fmt(ids):
        return ",".join(map(str, ids))

    lines = [f"#k {k}", f"#l {l}", f"#min_count {min_count}", f"#min_y_count {min_y_count}",
             f"#alphabet {size}", "#columns x_ids\ty_ids\tcount"]
    lines += [f"{fmt(x)}\t{fmt(y)}\t{c}" for (x, y), c in sorted(xy.items())]
    lines += [f"#x_count {fmt(x)}\t{xc[x]}" for x in sorted(kept_x)]
    return "\n".join(lines) + "\n"


@st.composite
def corpora(draw):
    size = draw(st.integers(min_value=1, max_value=5))
    token = st.integers(min_value=0, max_value=size - 1)
    docs = draw(st.lists(st.lists(token, min_size=1, max_size=12), min_size=1, max_size=8))
    return size, docs


class TestStreamNgramCounts:
    def test_hand_enumeration(self):
        table = stream_ngram_counts(make_stream([0, 1, 0, 1]), 1, 1)
        xy, xc = as_dicts(table)
        assert xy == {((0,), (1,)): 2, ((1,), (0,)): 1}
        # occurrence counts include the final 1, which heads no full window
        assert xc == {(0,): 2, (1,): 2}
        assert table.total_windows() == 3

    def test_single_symbol_document(self):
        table = stream_ngram_counts(make_stream([0, 0, 0]), 1, 1)
        assert as_dicts(table)[0] == {((0,), (0,)): 2}

    def test_min_count_filter(self):
        table = stream_ngram_counts(make_stream([0, 1, 2, 0, 1, 2]), 2, 1, min_count=2)
        xy, xc = as_dicts(table)
        assert set(xc) == {(0, 1), (1, 2)}
        assert ((2, 0), (1,)) not in xy

    def test_window_total(self):
        docs = [[0, 1, 0], [1, 1, 1, 0], [0]]
        table = stream_ngram_counts(make_stream(*docs), 1, 1)
        expected = sum(max(0, len(d) - 1) for d in docs)
        assert table.total_windows() == expected

    def test_paper_denominator_counts_every_occurrence(self):
        table = stream_ngram_counts(make_stream([0, 1, 2, 0, 1, 2]), 2, 1)
        assert as_dicts(table)[1] == {(0, 1): 2, (1, 2): 2, (2, 0): 1}

    def test_windows_do_not_cross_documents(self):
        table = stream_ngram_counts(make_stream([0, 1], [1, 0]), 1, 1)
        assert as_dicts(table)[0] == {((0,), (1,)): 1, ((1,), (0,)): 1}

    def test_empty_stream_error(self):
        with pytest.raises(CorpusError, match="empty corpus"):
            stream_ngram_counts(TokenStream(records=(), alphabet_size=2), 1, 1)

    def test_no_windows_error(self):
        with pytest.raises(CorpusError, match="no windows"):
            stream_ngram_counts(make_stream([0, 1]), 2, 2)

    def test_y_filter_after_x_filter(self):
        # y totals are taken only over windows headed by a retained x
        docs = [[0, 1, 3], [0, 1, 3], [2, 3]]
        table = stream_ngram_counts(make_stream(*docs), 1, 1, min_count=2, min_y_count=2)
        xy, _ = as_dicts(table)
        assert ((2,), (3,)) not in xy  # x=(2,) dropped first
        ys = {y for (_, y) in xy}
        assert ys == {(1,), (3,)}
        # (3,) survives only through the two retained (1,)->(3,) windows
        assert xy[((1,), (3,))] == 2

    @settings(max_examples=150, deadline=None)
    @given(
        corpora(),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=4),
    )
    def test_matches_tuple_counting_oracle(self, corpus, k, l, min_count, min_y_count):
        size, docs = corpus
        stream = TokenStream(records=tuple(tuple(d) for d in docs), alphabet_size=size)
        windows = sum(max(0, len(d) - k - l + 1) for d in docs)
        if not windows:
            with pytest.raises(CorpusError, match="no windows"):
                stream_ngram_counts(stream, k, l, min_count, min_y_count)
            return
        table = stream_ngram_counts(stream, k, l, min_count, min_y_count)
        assert table.total_windows() == windows
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "counts.tsv"
            write_count_table(table, path)
            text = path.read_text(encoding="utf-8")
            assert text == oracle_counts_tsv(docs, size, k, l, min_count, min_y_count)
            write_count_table(read_count_table(path), path)
            assert path.read_text(encoding="utf-8") == text

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=2), min_size=2, max_size=10),
            min_size=1,
            max_size=6,
        ),
        st.integers(min_value=1, max_value=4),
    )
    def test_filter_monotone(self, docs, cutoff):
        stream = TokenStream(records=tuple(tuple(d) for d in docs), alphabet_size=3)
        lo = stream_ngram_counts(stream, 1, 1, min_count=cutoff)
        hi = stream_ngram_counts(stream, 1, 1, min_count=cutoff + 1)
        assert set(as_dicts(hi)[1]) <= set(as_dicts(lo)[1])

    @staticmethod
    def spy_on_tally(monkeypatch):
        """Record, for each tally, whether its code space took the bincount side."""
        sides, tally = [], corpus._tally

        def spy(codes, space):
            sides.append(space <= codes.size)
            return tally(codes, space)

        monkeypatch.setattr(corpus, "_tally", spy)
        return sides

    @pytest.mark.parametrize("k, l", [(1, 1), (2, 1), (1, 2)])
    def test_bincount_side_matches_tuple_counting_oracle(self, monkeypatch, tmp_path, k, l):
        stream = markov_stream(0, docs=20)  # |Σ|^w <= 400 < 3,960 windows
        sides = self.spy_on_tally(monkeypatch)
        table = stream_ngram_counts(stream, k, l, min_count=2, min_y_count=3)
        assert sides == [True, True]
        write_count_table(table, tmp_path / "counts.tsv")
        docs = [doc.tolist() for doc in stream.records]
        assert (tmp_path / "counts.tsv").read_text() == oracle_counts_tsv(docs, 20, k, l, 2, 3)

    def test_sort_side_on_a_large_alphabet(self, monkeypatch, tmp_path):
        rng = np.random.default_rng(5)
        docs = [rng.integers(0, 10**6, size=int(n)).tolist() for n in rng.integers(1, 40, 30)]
        docs += [docs[0][:5]] * 3  # repeats, so the filters keep something
        stream = make_stream(*docs, alphabet_size=10**6)
        sides = self.spy_on_tally(monkeypatch)
        table = stream_ngram_counts(stream, 1, 2, min_count=2, min_y_count=2)
        assert sides == [False, False] and table.xy_counts.size
        write_count_table(table, tmp_path / "counts.tsv")
        assert (tmp_path / "counts.tsv").read_text() == oracle_counts_tsv(docs, 10**6, 1, 2, 2, 2)

    @pytest.mark.parametrize("k, l", [(1, 1), (2, 2), (3, 1)])
    def test_both_sides_give_the_same_table(self, monkeypatch, k, l):
        stream = markov_stream(2, docs=30)
        tally, tables = corpus._tally, []
        for space_of in (lambda codes: 0, lambda codes: codes.size + 1):  # bincount, sort
            monkeypatch.setattr(corpus, "_tally",
                                lambda codes, space: tally(codes, space_of(codes)))
            tables.append(stream_ngram_counts(stream, k, l, min_count=3, min_y_count=4))
        for name in ("x_codes", "x_counts", "xy_codes", "xy_counts"):
            a, b = (getattr(table, name) for table in tables)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert tables[0].windows == tables[1].windows

    def test_alphabet_too_large_for_codes(self):
        # |Σ|^2 = 2^64 overflows int64 codes; nothing of that size is allocated
        stream = make_stream([0, 1, 2], alphabet_size=2**32)
        with pytest.raises(CorpusError, match="64-bit codes"):
            stream_ngram_counts(stream, 2, 1)
        table = stream_ngram_counts(stream, 1, 1)
        assert as_dicts(table)[0] == {((0,), (1,)): 1, ((1,), (2,)): 1}


class TestCountTable:
    def test_rejects_unsorted_codes(self):
        with pytest.raises(CorpusError, match="ascending"):
            CountTable(1, 1, 3, [0, 1], [1, 1], [[1, 0], [0, 1]], [1, 1])

    def test_rejects_pair_without_context_count(self):
        with pytest.raises(CorpusError, match="context"):
            CountTable(1, 1, 3, [0], [1], [[0, 1], [2, 0]], [1, 1])

    @pytest.mark.parametrize("x_codes, pair_x", [([1], [0, 1]), ([0, 2], [0, 1, 1, 2]),
                                                  ([0], [0, 0, 2]), ([], [1])],
                             ids=["below", "between", "above", "no_contexts"])
    def test_rejects_context_outside_x_codes(self, x_codes, pair_x):
        with pytest.raises(CorpusError, match="context"):
            CountTable(1, 1, 3, x_codes, [1] * len(x_codes), [[x, y] for y, x in enumerate(pair_x)],
                       [1] * len(pair_x))

    def test_total_windows_of_read_table_is_pair_total(self):
        table = from_dicts({((0,), (1,)): 2, ((1,), (0,)): 3})
        assert table.windows is None and table.total_windows() == 5


class TestBuildConditionalMatrix:
    table = staticmethod(from_dicts)

    def test_symmetric_counts(self):
        table = self.table({((0,), (1,)): 2, ((0,), (2,)): 2})
        op = build_conditional_matrix(table, 0.0, "stochastic")
        col = op.matrix[:, 0]
        np.testing.assert_allclose(sorted(col), [0.5, 0.5])

    def test_single_y_smoothed(self):
        table = self.table({((0,), (1,)): 3})
        op = build_conditional_matrix(table, 1e-5, "stochastic")
        np.testing.assert_allclose(op.matrix, [[1.0]])

    def test_smoothing_formula(self):
        table = self.table({((0,), (1,)): 1, ((0,), (2,)): 3})
        op = build_conditional_matrix(table, 1.0, "stochastic")
        yi = {y: i for i, y in enumerate(op.y_labels)}
        assert abs(op.matrix[yi[(1,)], 0] - 2.0 / 6.0) < 1e-15
        assert abs(op.matrix[yi[(2,)], 0] - 4.0 / 6.0) < 1e-15

    def test_stochastic_columns_sum_to_one(self):
        rng = np.random.default_rng(0)
        pairs = {}
        for x in range(3):
            for y in range(4):
                c = int(rng.integers(0, 5))
                if c:
                    pairs[((x,), (y,))] = c
        table = self.table(pairs)
        op = build_conditional_matrix(table, 1e-5, "stochastic")
        np.testing.assert_allclose(op.matrix.sum(axis=0), 1.0, atol=1e-12)

    def test_paper_policy_substochastic(self):
        # raw x occurrences exceed retained-row sums -> columns fall short of 1
        table = from_dicts({((0,), (1,)): 2}, x_counts={(0,): 5}, alphabet_size=2)
        op = build_conditional_matrix(table, 0.0, "paper")
        assert op.matrix[0, 0] == pytest.approx(2 / 5)
        assert op.meta["policy"] == "paper"

    def test_empty_table_error(self):
        table = from_dicts({})
        with pytest.raises(CorpusError, match="empty table"):
            build_conditional_matrix(table)

    def test_marginal_from_raw_counts(self):
        table = self.table({((0,), (1,)): 1, ((2,), (1,)): 3})
        op = build_conditional_matrix(table)
        np.testing.assert_allclose(op.marginal, [0.25, 0.75])


def markov_stream(seed: int, size: int = 20, docs: int = 100, length: int = 200) -> TokenStream:
    """Documents mixing a Zipf unigram 50/50 with a fixed four-successor table."""
    rng = np.random.default_rng(seed)
    successors = rng.integers(0, size, size=(size, 4))
    unigram = np.arange(1, size + 1, dtype=float) ** -1.1
    unigram /= unigram.sum()
    records = []
    for _ in range(docs):
        doc = [int(rng.choice(size, p=unigram))]
        for _ in range(length - 1):
            fresh = rng.random() < 0.5
            doc.append(int(rng.choice(size, p=unigram)) if fresh
                       else int(successors[doc[-1], rng.integers(4)]))
        records.append(tuple(doc))
    return TokenStream(records=tuple(records), alphabet_size=size)


def dense_reference(table: CountTable, lam: float, policy: str) -> np.ndarray:
    """P(y|x) = (count(x,y) + λ)/(count(x) + λ|Y|) on a dense array, cell by cell."""
    used, col = np.unique(np.searchsorted(table.x_codes, table.xy_codes[:, 0]),
                          return_inverse=True)
    y_codes, row = np.unique(table.xy_codes[:, 1], return_inverse=True)
    matrix = np.zeros((y_codes.size, used.size))
    matrix[row, col] = table.xy_counts
    denom = matrix.sum(axis=0) if policy == "stochastic" else table.x_counts[used].astype(float)
    matrix += lam
    matrix /= (denom + lam * y_codes.size)[None, :]
    return matrix


class TestCountsOperator:
    """The operator from counts: sparse R, column denominators d and λ."""

    @pytest.mark.parametrize("lam", [0.0, 1e-5, 1.0])
    @pytest.mark.parametrize("policy", ["stochastic", "paper"])
    def test_matrix_bitwise_equals_dense_reference(self, policy, lam):
        # min_y_count 3 drops continuations, so "paper" columns fall short of 1
        table = stream_ngram_counts(markov_stream(0, docs=20), 1, 1, min_count=2, min_y_count=3)
        op = build_conditional_matrix(table, lam, policy)
        expected = dense_reference(table, lam, policy)
        assert op.matrix.shape == expected.shape
        assert op.matrix.tobytes() == expected.tobytes()
        assert not op.matrix.flags.writeable

    def test_counts_stay_sparse_until_matrix_is_read(self):
        table = stream_ngram_counts(markov_stream(0, docs=20), 2, 1, min_count=2)
        op = build_conditional_matrix(table, 1e-5)
        assert isinstance(op.raw, sparse.csr_array) and op.raw.nnz == table.xy_counts.size
        assert op.smoothing == 1e-5 and "matrix" not in vars(op)
        assert op.matrix is op.matrix  # built once, then cached

    def test_matrix_over_budget_raises_before_allocating(self, monkeypatch):
        table = stream_ngram_counts(markov_stream(0, docs=20), 1, 1)
        op = build_conditional_matrix(table, 1e-5)
        monkeypatch.setattr("seqmodes.distribution.DENSE_CELLS", op.n_y * op.n_x - 1)
        with pytest.raises(DistributionError, match=rf"dense {op.n_y}×{op.n_x} .* GiB.*"
                                                    r"decompose --rank"):
            op.matrix
        assert "matrix" not in vars(op)

    @pytest.mark.parametrize("k, l", [(1, 1), (2, 2)])
    def test_truncated_svd_matches_dense_oracle(self, k, l):
        table = stream_ngram_counts(markov_stream(1), k, l, min_count=2, min_y_count=2)
        op = build_conditional_matrix(table, 1e-5)
        rank = 8
        assert rank < min(op.n_y, op.n_x) - 1  # leaves svds room to iterate
        dec = truncated_weighted_svd(op, rank=rank)
        b = op.matrix * np.sqrt(op.marginal)[None, :]
        np.testing.assert_allclose(b @ dec.right_vectors,
                                   dec.left_vectors * dec.singular_values[None, :],
                                   rtol=0, atol=1e-12)
        oracle = np.linalg.svd(b, compute_uv=False)[:rank]
        assert np.max(np.abs(dec.singular_values - oracle) / oracle) < 1e-12


class TestContextualExamples:
    def build(self, *docs, k=1, l=1, alphabet_size=None):
        stream = make_stream(*docs, alphabet_size=alphabet_size)
        table = stream_ngram_counts(stream, k, l)
        op = build_conditional_matrix(table, 0.0, "stochastic")
        return stream, weighted_svd(op)

    def test_deterministic_bigram(self):
        stream, dec = self.build([0, 1, 0, 1, 0, 1, 2, 2])
        examples = extract_contextual_examples(stream, dec, 0, window=2)
        assert examples
        for before, x, y, after in examples:
            assert x == (0,) and y == (1,)

    def test_no_occurrence_gives_empty(self):
        stream, dec = self.build([0, 1, 0, 1])
        other = make_stream([2, 2, 2], alphabet_size=3)
        assert extract_contextual_examples(other, dec, 0) == []

    def test_tied_loadings_both_present(self):
        # two contexts with exactly symmetric counts share the top loading
        stream, dec = self.build([0, 2, 1, 2, 0, 2, 1, 2, 0, 2, 1, 2, 3])
        examples = extract_contextual_examples(stream, dec, 0, window=1)
        xs = {x for _, x, _, _ in examples}
        assert (0,) in xs and (1,) in xs

    def test_tied_loadings_same_examples_on_both_paths(self):
        # the top component of a doubly stochastic operator is constant: its
        # three |u| entries tie, and the lowest-index continuation is taken
        lang = random_doubly_stochastic_language(7, 3)
        op = conditional_operator(lang, 1, 1)
        stream = sample_bigram_corpus(lang, n_docs=20, doc_len=30, seed=1)
        dense, part = weighted_svd(op), truncated_weighted_svd(op, rank=1)
        examples = extract_contextual_examples(stream, dense, 0, window=1)
        assert examples == extract_contextual_examples(stream, part, 0, window=1)
        assert {y for _, _, y, _ in examples} == {(0,)}

    def test_component_without_left_vector_raises(self):
        stream, dec = self.build([0, 1, 0], [2, 1], alphabet_size=3)
        assert (dec.n_modes, dec.n_left) == (3, 2)
        with pytest.raises(CorpusError, match="component 2 has no left vector"):
            extract_contextual_examples(stream, dec, 2)

    def test_window_size(self):
        stream, dec = self.build([0, 1, 0, 1, 0, 1])
        examples = extract_contextual_examples(stream, dec, 0, window=1)
        for before, x, y, after in examples:
            assert len(before) <= 1 and len(after) <= 1

    def test_band_relaxes_to_wider_threshold(self):
        # hand-built component: the max-loading context never occurs in the
        # corpus, but a 0.6-loading one does, reachable only at the 50% band
        dec = ModeDecomposition(
            k=1, l=1,
            singular_values=np.array([1.0]),
            left_vectors=np.array([[0.1], [0.99]]),
            right_vectors=np.array([[1.0], [0.6]]),
            marginal=np.array([0.5, 0.5]),
            n_plus=1,
            x_labels=((0,), (1,)),
            y_labels=((0,), (1,)),
        )
        stream = make_stream([1, 1, 1], alphabet_size=2)
        examples = extract_contextual_examples(stream, dec, 0, window=1,
                                               loading_fraction=0.1)
        assert examples
        assert all(x == (1,) for _, x, _, _ in examples)


    def test_labels_outside_alphabet_never_match(self):
        # in base 3, the context (0, 4) would share code 4 with (1, 1)
        dec = ModeDecomposition(
            k=2, l=1,
            singular_values=np.array([1.0]),
            left_vectors=np.array([[0.1], [0.99]]),
            right_vectors=np.array([[1.0], [0.3]]),
            marginal=np.array([0.5, 0.5]),
            n_plus=1,
            x_labels=((0, 4), (1, 1)),
            y_labels=((0,), (1,)),
        )
        stream = make_stream([1, 1, 1], alphabet_size=3)
        assert extract_contextual_examples(stream, dec, 0) == []


class TestRoundTrips:
    def test_token_stream_file(self, tmp_path):
        stream = make_stream([0, 1, 2], [2, 1], alphabet_size=5)
        path = tmp_path / "corpus.txt"
        write_token_stream(stream, path)
        again = read_token_stream(path)
        assert again == stream

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1 2\n")
        with pytest.raises(CorpusError, match="alphabet"):
            read_token_stream(path)

    def test_malformed_alphabet_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("#alphabet x\n0 1\n")
        with pytest.raises(CorpusError, match="bad.txt:1: malformed alphabet header"):
            read_token_stream(path)

    def test_bad_token_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("#alphabet 3\n0 1\nx y\n")
        with pytest.raises(CorpusError, match="bad.txt:3"):
            read_token_stream(path)

    def test_count_table_file(self, tmp_path):
        stream = make_stream([0, 1, 0, 1, 2, 0, 1])
        table = stream_ngram_counts(stream, 1, 1)
        path = tmp_path / "counts.tsv"
        write_count_table(table, path)
        again = read_count_table(path)
        assert as_dicts(again) == as_dicts(table)
        assert (again.k, again.l) == (1, 1)

    @pytest.mark.parametrize("row", ["0,1\t2\t3", "0\t1", "0\t1\t2\t3", "a\t1\t2",
                                     "0\t1\t-2", "0\t1\t" + "9" * 19, "#x_count 0,1\t2"])
    def test_malformed_count_row_names_line(self, tmp_path, row):
        path = tmp_path / "counts.tsv"
        path.write_text(f"#k 1\n#l 1\n#alphabet 3\n0\t1\t2\n{row}\n1\t0\t1\n")
        with pytest.raises(CorpusError, match="counts.tsv:5: malformed count row"):
            read_count_table(path)

    @pytest.mark.parametrize("header", ["k", "l", "alphabet"])
    def test_count_table_missing_header(self, tmp_path, header):
        lines = {"k": "#k 1", "l": "#l 1", "alphabet": "#alphabet 3"}
        del lines[header]
        path = tmp_path / "counts.tsv"
        path.write_text("\n".join(lines.values()) + "\n0\t1\t2\n")
        with pytest.raises(CorpusError, match=f"missing #{header} header"):
            read_count_table(path)

    def test_count_table_malformed_header(self, tmp_path):
        path = tmp_path / "counts.tsv"
        path.write_text("#k 1\n#l x\n#alphabet 3\n0\t1\t2\n")
        with pytest.raises(CorpusError, match="counts.tsv:2: malformed #l header"):
            read_count_table(path)

    def test_count_table_token_outside_alphabet(self, tmp_path):
        path = tmp_path / "counts.tsv"
        path.write_text("#k 1\n#l 1\n#alphabet 3\n0\t3\t2\n")
        with pytest.raises(CorpusError, match="outside alphabet of size 3"):
            read_count_table(path)

    def test_count_table_alphabet_too_large_for_codes(self, tmp_path):
        path = tmp_path / "counts.tsv"
        path.write_text(f"#k 2\n#l 1\n#alphabet {2**32}\n0,1\t2\t1\n")
        with pytest.raises(CorpusError, match="64-bit codes"):
            read_count_table(path)

    def test_count_table_rows_in_any_order(self, tmp_path):
        path = tmp_path / "counts.tsv"
        path.write_text("#k 1\n#l 1\n#alphabet 3\n2\t0\t1\n0\t2\t4\n0\t1\t3\n")
        table = read_count_table(path)
        assert as_dicts(table) == ({((0,), (1,)): 3, ((0,), (2,)): 4, ((2,), (0,)): 1},
                                   {(0,): 7, (2,): 1})

    def test_token_stream_separators_and_crlf(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_bytes(b"#alphabet 12\r\n# a comment\r\n 0  1\t2 \r\n\r\n11\x0b3\x0c07\r\n4")
        stream = read_token_stream(path)
        assert stream == make_stream([0, 1, 2], [11, 3, 7], [4], alphabet_size=12)
        assert [len(doc) for doc in stream.records] == [3, 3, 1]

    @pytest.mark.parametrize("k, l", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_count_table_write_read_write_identical(self, tmp_path, k, l):
        lang = random_doubly_stochastic_language(7, 3)
        stream = sample_bigram_corpus(lang, n_docs=20, doc_len=30, seed=1)
        table = stream_ngram_counts(stream, k, l, min_count=2, min_y_count=2)
        first, second = tmp_path / "a.tsv", tmp_path / "b.tsv"
        write_count_table(table, first)
        again = read_count_table(first)
        for name in ("x_codes", "x_counts", "xy_codes", "xy_counts"):
            assert np.array_equal(getattr(again, name), getattr(table, name)), name
        write_count_table(again, second)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("layout", ["lf", "crlf", "no_final_newline", "x_count_first"])
    @pytest.mark.parametrize("where", [0, 1, 3], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("kind", ["pair", "x_count"])
    def test_malformed_row_names_its_line(self, tmp_path, kind, where, layout):
        # ``where`` places the bad row among the three good rows of its kind
        pairs = ["0\t1\t2", "1\t2\t1", "2\t0\t4"]
        contexts = ["#x_count 0\t2", "#x_count 1\t1", "#x_count 2\t4"]
        bad = "0\t1" if kind == "pair" else "#x_count 0,1\t2"
        (pairs if kind == "pair" else contexts).insert(where, bad)
        body = contexts + pairs if layout == "x_count_first" else pairs + contexts
        lines = ["#k 1", "#l 1", "#alphabet 3", *body]
        newline = "\r\n" if layout == "crlf" else "\n"
        text = newline.join(lines) + ("" if layout == "no_final_newline" else newline)
        path = tmp_path / "counts.tsv"
        path.write_bytes(text.encode())
        lineno = lines.index(bad) + 1
        with pytest.raises(CorpusError, match=f"counts.tsv:{lineno}: malformed count row"):
            read_count_table(path)

    def test_rerun_identical_bytes(self, tmp_path):
        stream = make_stream([0, 1, 0, 2, 1, 0])
        table = stream_ngram_counts(stream, 1, 1)
        p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
        write_count_table(table, p1)
        write_count_table(table, p2)
        assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# Differential tests: the count-table writer and reader against the
# row-at-a-time code they replaced (f-strings per row, one regex pass per row
# kind), kept here as oracles.
# ---------------------------------------------------------------------------

def oracle_places(alphabet_size, width):
    if int(alphabet_size) ** int(width) >= 2**63:
        raise CorpusError(f"windows of {width} tokens over an alphabet of size {alphabet_size} "
                          f"do not fit 64-bit codes (|Σ|^{width} >= 2^63)")
    return np.array([alphabet_size**p for p in range(width - 1, -1, -1)], dtype=np.int64)


def oracle_labels(codes, width, alphabet_size):
    distinct, inverse = np.unique(codes, return_inverse=True)
    ids = (distinct[:, None] // oracle_places(alphabet_size, width) % alphabet_size).tolist()
    names = np.array([",".join(map(str, row)) for row in ids], dtype=object)
    return names[inverse]


def oracle_write_count_table(counts, path):
    k, l, size = counts.k, counts.l, counts.alphabet_size
    lines = [f"#k {k}", f"#l {l}", f"#min_count {counts.min_count}",
             f"#min_y_count {counts.min_y_count}", f"#alphabet {size}",
             "#columns x_ids\ty_ids\tcount"]
    lines += [f"{x}\t{y}\t{c}" for x, y, c in zip(
        oracle_labels(counts.xy_codes[:, 0], k, size).tolist(),
        oracle_labels(counts.xy_codes[:, 1], l, size).tolist(), counts.xy_counts.tolist())]
    lines += [f"#x_count {x}\t{c}" for x, c in zip(oracle_labels(counts.x_codes, k, size).tolist(),
                                                   counts.x_counts.tolist())]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def oracle_row(*widths):
    number = "[0-9]{1,18}"
    return "\t".join(",".join([number] * width) for width in widths + (1,))


def oracle_row_codes(rows, widths, alphabet_size):
    text = ",".join(rows).replace("\t", ",")
    parsed = np.fromstring(text, dtype=np.int64, sep=",").reshape(len(rows), sum(widths) + 1)
    outside = np.flatnonzero(np.any(parsed[:, :-1] >= alphabet_size, axis=1))
    if outside.size:
        raise CorpusError(f"token id outside alphabet of size {alphabet_size} "
                          f"in row {rows[outside[0]]!r}")
    bounds = np.cumsum((0,) + widths)
    codes = [parsed[:, a:b] @ oracle_places(alphabet_size, b - a)
             for a, b in zip(bounds, bounds[1:])]
    return codes, parsed[:, -1]


def oracle_read_count_table(path):
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    lines = f"\n{text}\n"

    def error(at, what):
        return CorpusError(f"{path}:{lines.count(chr(10), 0, at) + 1}: {what}")

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
    pair_rows = re.findall(rf"\n({oracle_row(k, l)})(?=\n)", lines)
    x_rows = re.findall(rf"\n#x_count ({oracle_row(k)})(?=\n)", lines)
    blank = len(re.findall(r"\n(?=\n)", lines))
    comment = lines.count("\n#") - lines.count("\n#x_count ")
    if len(pair_rows) + len(x_rows) + blank + comment != lines.count("\n") - 1:
        bad = re.search(rf"\n(?!\n|\Z|#(?!x_count )|(?:{oracle_row(k, l)}|"
                        rf"#x_count {oracle_row(k)})\n)", lines)
        raise error(bad.start(), "malformed count row")
    try:
        (pair_x, pair_y), xy_counts = oracle_row_codes(pair_rows, (k, l), size)
        (x_codes,), x_counts = oracle_row_codes(x_rows, (k,), size)
        if not x_rows:
            x_codes, inverse = np.unique(pair_x, return_inverse=True)
            x_counts = np.bincount(inverse, weights=xy_counts).astype(np.int64)
        pairs = np.lexsort((pair_y, pair_x))
        contexts = np.argsort(x_codes)
        return CountTable(
            k, l, size, x_codes[contexts], x_counts[contexts],
            np.column_stack([pair_x, pair_y])[pairs], xy_counts[pairs],
            min_count=header["min_count"], min_y_count=header["min_y_count"],
        )
    except CorpusError as exc:
        raise CorpusError(f"{path}: {exc}") from None


MUTANT_BYTES = [b",", b"\t", b"\n", b"#", b"x", b" ", b"7", b"\xff"]
SMALL_TABLES = {
    "plain": (b"#k 2\n#l 1\n#min_count 2\n#alphabet 12\n#columns x_ids\ty_ids\tcount\n"
              b"0,11\t3\t2\n0,11\t10\t7\n3,4\t5\t1\n#x_count 0,11\t13\n#x_count 3,4\t1\n"),
    "interleaved_crlf": (b"#k 2\r\n#l 1\r\n\r\n#alphabet 12\r\n# a comment\r\n3,4\t5\t1\r\n"
                         b"#x_count 3,4\t1\r\n\r\n0,11\t3\t2\r\n#x_count 0,11\t13\r\n#\r\n"
                         b"0,11\t10\t7\r\n#x_count\t9\r\n"),
}


def outcome(reader, path):
    """What a reader makes of a file: the table's fields, or the error it raises."""
    try:
        table = reader(path)
    except Exception as exc:  # the two readers must fail alike, whatever the failure
        return type(exc).__name__, str(exc)
    return (table.k, table.l, table.alphabet_size, table.min_count, table.min_y_count,
            table.windows, *((getattr(table, name).dtype.str, getattr(table, name).tolist())
                             for name in ("x_codes", "x_counts", "xy_codes", "xy_counts")))


def random_table(rng, k, l, size, pairs=True):
    """A valid table with random codes and counts that include 10^p and 10^18 − 1."""
    x_codes = np.unique(rng.integers(0, size**k, size=int(rng.integers(1, 40))))
    special = np.array([1, 9, 10, 100, 101, 1000, 10**17, 10**17 + 1, 10**18 - 1])

    def counts(n):
        drawn = rng.integers(1, 10 ** rng.integers(1, 19, size=n), dtype=np.int64)
        return np.where(rng.random(n) < 0.3, rng.choice(special, size=n), drawn)

    rows = []
    if pairs:
        for x in x_codes[rng.random(x_codes.size) < 0.7]:
            ys = np.unique(rng.integers(0, size**l, size=int(rng.integers(1, 6))))
            rows += [(x, y) for y in ys.tolist()]
    xy = np.array(rows, dtype=np.int64).reshape(-1, 2)
    return CountTable(k, l, size, x_codes, counts(x_codes.size), xy, counts(len(rows)),
                      min_count=int(rng.integers(1, 4)), min_y_count=int(rng.integers(1, 4)))


class TestCountTableBytes:
    @pytest.mark.parametrize("row_block", [corpus.ROW_BLOCK, 3])
    @pytest.mark.parametrize("size", [1, 7, 100, 10**6])
    @pytest.mark.parametrize("k, l", [(k, l) for k in (1, 2, 3) for l in (1, 2, 3)])
    def test_writer_matches_f_string_oracle(self, monkeypatch, tmp_path, k, l, size, row_block):
        monkeypatch.setattr(corpus, "ROW_BLOCK", row_block)
        rng = np.random.default_rng([k, l, size])
        for pairs in (True, True, False):
            table = random_table(rng, k, l, size, pairs)
            write_count_table(table, tmp_path / "new.tsv")
            oracle_write_count_table(table, tmp_path / "old.tsv")
            assert (tmp_path / "new.tsv").read_bytes() == (tmp_path / "old.tsv").read_bytes()
            assert outcome(read_count_table, tmp_path / "new.tsv") == outcome(
                oracle_read_count_table, tmp_path / "old.tsv")

    @pytest.mark.parametrize("base, row_block", [("plain", corpus.ROW_BLOCK),
                                                  ("interleaved_crlf", 2)])
    def test_reader_matches_regex_oracle_under_every_byte_mutation(self, monkeypatch, tmp_path,
                                                                   base, row_block):
        monkeypatch.setattr(corpus, "ROW_BLOCK", row_block)
        text = SMALL_TABLES[base]
        mutants = [text]
        for i in range(len(text)):
            mutants += [text[:i] + text[i + 1:], text[:i + 1] + text[i:]]
            mutants += [text[:i] + byte + text[i + 1:] for byte in MUTANT_BYTES]
        self.assert_same_outcomes(tmp_path, mutants)

    def test_reader_matches_regex_oracle_on_layouts(self, tmp_path):
        text = SMALL_TABLES["plain"]
        mutants = [SMALL_TABLES["interleaved_crlf"], text.replace(b"\n", b"\r"),
                   text.replace(b"\n", b"\r\n"), text[:-1], text.replace(b"\n", b"\r\n")[:-2],
                   text.replace(b"\t13\n", b"\t" + b"1" * 18 + b"\n"),
                   text.replace(b"\t13\n", b"\t" + b"1" * 19 + b"\n"),
                   text.replace(b"0,11\t", b"0" * 19 + b",11\t"),
                   text.replace(b"0,11\t", b"0" * 18 + b",11\t"),
                   text.replace(b"#columns", "# café  ".encode()),
                   text.replace(b"3,4\t5", "3,4\t٥".encode()),
                   text.replace(b"#alphabet 12", b"#alphabet 11"),
                   text.replace(b"#x_count 3,4\t1\n", b""),
                   b"".join(line for line in text.splitlines(True) if b"x_count" not in line),
                   b"".join(line for line in text.splitlines(True) if line[:1] == b"#"),
                   b"", b"\n", b"#k 1\n#l 1\n#alphabet 5\n"]
        self.assert_same_outcomes(tmp_path, mutants)

    @staticmethod
    def assert_same_outcomes(tmp_path, mutants):
        path = tmp_path / "counts.tsv"
        for mutant in mutants:
            path.write_bytes(mutant)
            assert outcome(read_count_table, path) == outcome(oracle_read_count_table, path), mutant
