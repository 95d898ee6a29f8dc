import numpy as np
import pytest
from scipy.sparse.linalg import LinearOperator, svds

from seqmodes.distribution import (
    Alphabet,
    Language,
    conditional_operator,
    fundamental_tensor,
    plant_absolute_bigram,
    plant_collective_bigram,
    random_doubly_stochastic_language,
    random_language,
)
from seqmodes.modes import (
    gram_mode_basis,
    hs_inner,
    hs_norm,
    mode_coefficients,
    reconstruct_matrix,
    truncated_weighted_svd,
    weighted_svd,
)


def dense_svd_oracle(op):
    """Textbook SVD of C·diag(sqrt(q)), kept independent of the module path."""
    b = np.asarray(op.matrix) @ np.diag(np.sqrt(op.marginal))
    return np.linalg.svd(b, compute_uv=False)


def uniform_pair_language():
    return Language(alphabet=Alphabet(2), K=2, joint=np.full((2, 2), 0.25))


class TestWeightedSvd:
    def test_independence_single_mode(self):
        op = conditional_operator(uniform_pair_language(), 1, 1)
        dec = weighted_svd(op)
        assert dec.n_plus == 1
        np.testing.assert_allclose(dec.singular_values[0], np.sqrt(0.5), atol=1e-12)

    def test_identity_conditional_weighted_values(self):
        joint = np.diag([0.75, 0.25])
        lang = Language(alphabet=Alphabet(2), K=2, joint=joint, positivity_relaxed=True)
        op = conditional_operator(lang, 1, 1)
        dec = weighted_svd(op)
        np.testing.assert_allclose(
            dec.singular_values, [np.sqrt(0.75), 0.5], atol=1e-12
        )
        np.testing.assert_allclose(dec.singular_values, dense_svd_oracle(op), atol=1e-12)

    def test_matches_oracle_on_random_languages(self):
        for seed in range(8):
            lang = random_language(seed, Alphabet(4), 2)
            op = conditional_operator(lang, 1, 1)
            dec = weighted_svd(op)
            np.testing.assert_allclose(
                dec.singular_values, dense_svd_oracle(op), atol=1e-10
            )

    def test_matches_oracle_sixteen_contexts(self):
        # widest desk-scale shape: 16 contexts against 4 continuations
        lang = random_language(3, Alphabet(4), 3)
        op = conditional_operator(lang, 2, 1)
        dec = weighted_svd(op)
        oracle = dense_svd_oracle(op)
        padded = np.zeros(dec.n_modes)
        padded[: oracle.size] = oracle
        np.testing.assert_allclose(dec.singular_values, padded, atol=1e-10)

    def test_orthonormal_bases(self):
        lang = random_language(5, Alphabet(3), 3)
        for k, l in [(1, 1), (2, 1), (1, 2)]:
            dec = weighted_svd(conditional_operator(lang, k, l))
            np.testing.assert_allclose(
                dec.right_vectors.T @ dec.right_vectors,
                np.eye(dec.n_modes),
                atol=1e-10,
            )
            np.testing.assert_allclose(
                dec.left_vectors.T @ dec.left_vectors,
                np.eye(dec.n_left),
                atol=1e-10,
            )

    def test_reconstruction(self):
        lang = random_language(6, Alphabet(3), 3)
        for k, l in [(1, 1), (2, 1), (1, 2)]:
            op = conditional_operator(lang, k, l)
            dec = weighted_svd(op)
            np.testing.assert_allclose(reconstruct_matrix(dec), op.matrix, atol=1e-10)

    def test_deterministic(self):
        lang = random_language(13, Alphabet(3), 2)
        op = conditional_operator(lang, 1, 1)
        a = weighted_svd(op)
        b = weighted_svd(op)
        np.testing.assert_array_equal(a.singular_values, b.singular_values)
        np.testing.assert_array_equal(a.left_vectors, b.left_vectors)
        np.testing.assert_array_equal(a.right_vectors, b.right_vectors)

    def test_sign_convention(self):
        # At (1, 2) the 16×4 operator has 12 completion columns past n_plus;
        # each is signed by its own largest entry, as paired columns are by u.
        for k, l in [(1, 1), (1, 2)]:
            lang = random_language(3, Alphabet(4), k + l)
            dec = weighted_svd(conditional_operator(lang, k, l))
            assert dec.n_left == 4**l and dec.n_plus == 4
            for j in range(dec.n_left):
                col = dec.left_vectors[:, j]
                assert col[int(np.argmax(np.abs(col)))] > 0
            np.testing.assert_allclose(dec.left_vectors.T @ dec.left_vectors,
                                       np.eye(dec.n_left), atol=1e-12)

    def test_absolute_bigram_triple(self):
        # s = sqrt(q(x)), u = y, v-tilde = indicator of x
        for seed in range(4):
            lang = plant_absolute_bigram(random_language(seed, Alphabet(3), 2), (1,), (2,))
            op = conditional_operator(lang, 1, 1)
            dec = weighted_svd(op)
            qx = op.marginal[op.x_labels.index((1,))]
            hits = np.where(np.abs(dec.singular_values - np.sqrt(qx)) < 1e-10)[0]
            assert hits.size >= 1
            found = False
            for alpha in hits:
                u = dec.left_vectors[:, alpha]
                v = dec.right_vectors[:, alpha]
                e_y = np.zeros(3)
                e_y[2] = 1.0
                e_x = np.zeros(len(op.x_labels))
                e_x[op.x_labels.index((1,))] = 1.0
                if np.allclose(u, e_y, atol=1e-8) and np.allclose(np.abs(v), e_x, atol=1e-8):
                    found = True
            assert found
            np.testing.assert_allclose(
                dec.singular_values, dense_svd_oracle(op), atol=1e-10
            )

    def test_collective_bigram_matches_oracle(self):
        # The oracle is authoritative here; the derived value sqrt(q(y)) is
        # recorded and checked, and the nominal constant sqrt(q(y))*sqrt(|S|)
        # differs whenever |S| > 1.
        lang = plant_collective_bigram(random_language(7, Alphabet(3), 2), [(0,), (1,)], (2,))
        op = conditional_operator(lang, 1, 1)
        dec = weighted_svd(op)
        oracle = dense_svd_oracle(op)
        np.testing.assert_allclose(dec.singular_values, oracle, atol=1e-10)
        q_y = float(fundamental_tensor(lang, 2).sum(axis=0)[2])
        derived = np.sqrt(q_y)
        assert np.min(np.abs(oracle - derived)) < 1e-10
        nominal = np.sqrt(q_y) * np.sqrt(2)
        assert np.min(np.abs(oracle - nominal)) > 1e-3


class TestPropensity:
    def test_weights(self):
        dec = weighted_svd(conditional_operator(uniform_pair_language(), 1, 1))
        weights = dec.singular_values**2
        assert abs(weights[0] - 0.5) < 1e-12
        # the kernel modes carry exactly zero weight, not a rounding residue
        assert np.all(weights[1:] == 0.0)

    def test_weight_sum_is_frobenius(self):
        lang = random_language(4, Alphabet(3), 2)
        op = conditional_operator(lang, 1, 1)
        dec = weighted_svd(op)
        total = np.sum(dec.singular_values**2)
        b = op.matrix * np.sqrt(op.marginal)[None, :]
        assert abs(total - np.sum(b * b)) < 1e-10

    def test_absolute_bigram_weight(self):
        lang = plant_absolute_bigram(random_language(5, Alphabet(3), 2), (1,), (0,))
        op = conditional_operator(lang, 1, 1)
        dec = weighted_svd(op)
        q_xy = float(fundamental_tensor(lang, 2)[1, 0])
        assert np.min(np.abs(dec.singular_values**2 - q_xy)) < 1e-10


class TestReconstructConditional:
    def test_deterministic_successor(self):
        joint = np.array([[0.0, 0.5], [0.5, 0.0]])
        lang = Language(alphabet=Alphabet(2), K=2, joint=joint)
        op = conditional_operator(lang, 1, 1)
        dec = weighted_svd(op)
        np.testing.assert_allclose(reconstruct_matrix(dec), op.matrix, atol=1e-10)

    def test_random_language(self):
        lang = random_language(11, Alphabet(4), 2)
        op = conditional_operator(lang, 1, 1)
        dec = weighted_svd(op)
        worst = np.max(np.abs(reconstruct_matrix(dec) - op.matrix))
        assert worst < 1e-10

    def test_truncated_differs(self):
        lang = random_language(11, Alphabet(4), 2)
        op = conditional_operator(lang, 1, 1)
        dec = weighted_svd(op)
        truncated = reconstruct_matrix(dec, chi=0)
        assert np.max(np.abs(truncated - op.matrix)) > 1e-6


class TestModeBasis:
    def test_gram_identity_random(self):
        lang = random_language(1, Alphabet(3), 2)
        dec = weighted_svd(conditional_operator(lang, 1, 1))
        gram = gram_mode_basis(dec)
        np.testing.assert_allclose(gram, np.eye(gram.shape[0]), atol=1e-10)

    def test_gram_identity_independence(self):
        dec = weighted_svd(conditional_operator(uniform_pair_language(), 1, 1))
        gram = gram_mode_basis(dec)
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-10)

    def test_gram_size(self):
        lang = random_language(2, Alphabet(2), 3)
        dec = weighted_svd(conditional_operator(lang, 2, 1))
        gram = gram_mode_basis(dec)
        assert gram.shape == (dec.n_modes * dec.n_left,) * 2

    def test_gram_matches_bruteforce(self):
        # brute-force oracle: double loop over contexts and continuations
        lang = random_language(9, Alphabet(2), 2)
        dec = weighted_svd(conditional_operator(lang, 1, 1))
        n, m = dec.n_modes, dec.n_left
        vhat = dec.right_vectors / np.sqrt(dec.marginal)[:, None]

        def e(a, b, x, y):  # e_{ab}(x)(y) = v̂*_a(x) u_b(y)
            return vhat[x, a] * dec.left_vectors[y, b]

        brute = np.zeros((n * m, n * m))
        for a in range(n):
            for b in range(m):
                for c in range(n):
                    for d in range(m):
                        val = sum(
                            dec.marginal[x]
                            * e(a, b, x, y)
                            * e(c, d, x, y)
                            for x in range(n)
                            for y in range(m)
                        )
                        brute[a * m + b, c * m + d] = val
        np.testing.assert_allclose(gram_mode_basis(dec), brute, atol=1e-10)

    def test_pairing_with_truth_gives_singular_value(self):
        # <C, e_{ab}> = delta_{ab} s_a
        lang = random_language(6, Alphabet(3), 2)
        op = conditional_operator(lang, 1, 1)
        dec = weighted_svd(op)
        np.testing.assert_allclose(mode_coefficients(dec, op.matrix), np.diag(dec.singular_values),
                                   atol=1e-10)

    def test_pairing_absolute_bigram_model_identity(self):
        # for the mode of an absolute bigram, <f_w, e_aa> = p(xy|w) q(x)^{-1/2}
        lang = plant_absolute_bigram(random_language(3, Alphabet(3), 2), (0,), (1,))
        op = conditional_operator(lang, 1, 1)
        dec = weighted_svd(op)
        qx = op.marginal[op.x_labels.index((0,))]
        alpha = int(np.argmin(np.abs(dec.singular_values - np.sqrt(qx))))
        rng = np.random.default_rng(0)
        p = rng.dirichlet(np.ones(3), size=len(op.x_labels)).T
        val = mode_coefficients(dec, p)[alpha, alpha]
        xi = op.x_labels.index((0,))
        p_xy = p[1, xi] * qx
        assert abs(val - p_xy / np.sqrt(qx)) < 1e-10

    def test_pairing_matches_bruteforce_double_sum(self):
        lang = random_language(15, Alphabet(3), 2)
        op = conditional_operator(lang, 1, 1)
        dec = weighted_svd(op)
        rng = np.random.default_rng(1)
        p = rng.dirichlet(np.ones(3), size=3).T
        vhat = dec.right_vectors / np.sqrt(dec.marginal)[:, None]
        coeffs = mode_coefficients(dec, p)
        for a, b in [(0, 0), (1, 2), (2, 1)]:
            brute = sum(
                p[y, x] * op.marginal[x] * vhat[x, a] * dec.left_vectors[y, b]
                for x in range(3)
                for y in range(3)
            )
            assert abs(coeffs[a, b] - brute) < 1e-12


class TestParseval:
    def test_norm_equals_coefficient_sum(self):
        lang = random_language(8, Alphabet(3), 2)
        dec = weighted_svd(conditional_operator(lang, 1, 1))
        rng = np.random.default_rng(4)
        for _ in range(20):
            f = rng.standard_normal((3, 3))
            coeffs = mode_coefficients(dec, f)
            lhs = hs_norm(f, dec.marginal) ** 2
            rhs = float(np.sum(coeffs**2))
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))

    def test_coefficients_roundtrip(self):
        lang = random_language(8, Alphabet(3), 2)
        dec = weighted_svd(conditional_operator(lang, 1, 1))
        rng = np.random.default_rng(5)
        f = rng.standard_normal((3, 3))
        # f = Σ_{ab} <f, e_{ab}> e_{ab}: the basis is complete
        weighted = dec.left_vectors @ mode_coefficients(dec, f).T @ dec.right_vectors.T
        back = weighted / np.sqrt(dec.marginal)[None, :]
        np.testing.assert_allclose(back, f, atol=1e-12)

    def test_inner_product_def(self):
        q = np.array([0.2, 0.8])
        f = np.array([[1.0, 2.0], [3.0, 4.0]])
        g = np.array([[5.0, 6.0], [7.0, 8.0]])
        expected = 0.2 * (1 * 5 + 3 * 7) + 0.8 * (2 * 6 + 4 * 8)
        assert abs(hs_inner(f, g, q) - expected) < 1e-12


class TestTruncatedPath:
    def test_matches_dense_top_modes(self):
        lang = random_language(17, Alphabet(4), 2)
        op = conditional_operator(lang, 1, 1)
        full = weighted_svd(op)
        part = truncated_weighted_svd(op, rank=2)
        np.testing.assert_allclose(
            part.singular_values, full.singular_values[: part.n_modes], atol=1e-9
        )

    @pytest.mark.parametrize("rank", [2, 3], ids=["svds", "dense_fallback"])
    def test_pairs_oriented_by_u(self, rank):
        # rank 2 of a 4×4 operator runs svds; rank 3 leaves it no room and
        # slices the dense decomposition
        op = conditional_operator(random_language(17, Alphabet(4), 2), 1, 1)
        part = truncated_weighted_svd(op, rank=rank)
        assert part.n_modes == rank and not part.complete
        b = op.matrix * np.sqrt(op.marginal)[None, :]
        np.testing.assert_allclose(b @ part.right_vectors,
                                   part.left_vectors * part.singular_values[None, :],
                                   atol=1e-12)
        top = np.argmax(np.abs(part.left_vectors), axis=0)
        assert np.all(part.left_vectors[top, np.arange(rank)] > 0)

    def test_kernel_values_exact_zero_on_svds_path(self):
        # rank 5 of 8: rank 6 < 8 − 1 runs svds, whose sixth value is a
        # rounding residue; the builder sets it to 0.0 as the dense path does
        lang = plant_collective_bigram(random_language(3, 8, 2), [(0,), (2,), (4,), (6,)], (1,))
        op = conditional_operator(lang, 1, 1)
        part, full = truncated_weighted_svd(op, rank=6), weighted_svd(op)
        assert part.n_modes == 6 and part.n_plus == full.n_plus == 5
        assert np.all(part.singular_values[part.n_plus:] == 0.0)
        np.testing.assert_allclose(part.singular_values, full.singular_values[:6], atol=1e-10)
        lead = slice(0, part.n_plus)
        np.testing.assert_allclose(part.left_vectors[:, lead], full.left_vectors[:, lead],
                                   atol=1e-10)
        np.testing.assert_allclose(part.right_vectors[:, lead], full.right_vectors[:, lead],
                                   atol=1e-10)

    def test_partial_reconstruction_matches_full_cutoff(self):
        op = conditional_operator(random_language(17, Alphabet(4), 2), 1, 1)
        part, full = truncated_weighted_svd(op, rank=2), weighted_svd(op)
        assert part.n_plus == 2 and full.complete
        np.testing.assert_allclose(reconstruct_matrix(part), reconstruct_matrix(full, chi=1),
                                   atol=1e-10)

    @pytest.mark.parametrize("seed", range(4))
    def test_language_operators_match_dense_products_bitwise(self, seed):
        # svds over products with a C-ordered dense conditional, built here by
        # the textbook formula; a language operator (d = 1, λ = 0) must give
        # the same bits
        langs = [(random_language(seed, Alphabet(4), k + l), k, l)
                 for k, l in [(1, 1), (2, 1), (2, 2), (1, 2)]]
        langs.append((random_doubly_stochastic_language(seed, 12), 1, 1))
        for lang, k, l in langs:
            op = conditional_operator(lang, k, l)
            joint = fundamental_tensor(lang, k + l).reshape(lang.size**k, lang.size**l)
            q = fundamental_tensor(lang, k).reshape(-1)
            mat, sqrt_q = np.ascontiguousarray((joint / q[:, None]).T), np.sqrt(q)
            assert op.matrix.tobytes() == mat.tobytes()
            linop = LinearOperator(mat.shape, matvec=lambda x: mat @ (sqrt_q * np.ravel(x)),
                                   rmatvec=lambda y: sqrt_q * (mat.T @ np.ravel(y)))
            n = min(mat.shape)
            rank = min(2, n - 2)
            u, s, vh = svds(linop, k=rank, v0=np.full(n, 1.0) / np.sqrt(n))
            order = np.argsort(-s)
            dec = truncated_weighted_svd(op, rank=rank)
            assert dec.singular_values.tobytes() == s[order].tobytes()
            assert np.abs(dec.left_vectors).tobytes() == np.abs(u[:, order]).tobytes()
            assert np.abs(dec.right_vectors).tobytes() == np.abs(vh.T[:, order]).tobytes()

    def test_deterministic(self):
        lang = random_language(18, Alphabet(4), 3)
        op = conditional_operator(lang, 2, 1)
        a = truncated_weighted_svd(op, rank=3)
        b = truncated_weighted_svd(op, rank=3)
        np.testing.assert_array_equal(a.singular_values, b.singular_values)
        np.testing.assert_array_equal(a.left_vectors, b.left_vectors)
