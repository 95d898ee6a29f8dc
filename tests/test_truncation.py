import numpy as np
import pytest
from scipy.linalg import null_space
from scipy.optimize import linprog, minimize

from _fixtures import k3_language_with_balanced_front, sample_bigram_corpus
from seqmodes.corpus import build_conditional_matrix, stream_ngram_counts
from seqmodes.distribution import (
    Alphabet,
    Language,
    conditional_operator,
    fundamental_tensor,
    plant_collective_bigram,
    random_doubly_stochastic_language,
    random_language,
)
from seqmodes.modes import (
    ModeDecomposition,
    hs_inner,
    hs_norm,
    mode_coefficients,
    reconstruct_matrix,
    truncated_weighted_svd,
    weighted_svd,
)
from seqmodes.truncation import (
    InfeasibleTruncationError,
    TruncationError,
    _column_sums_from_chi,
    kl_conditional,
    multi_length_truncation,
    project_leq_chi,
    subspace_distance,
    truncate,
    truncate_kl,
    truncate_normalized,
    validate_decomposition_chain,
)


def independence_language(p0=0.5):
    q = np.array([p0, 1 - p0])
    joint = np.outer(q, q)
    return Language(alphabet=Alphabet(2), K=2, joint=joint)


class TestProjection:
    def test_truth_projects_to_truncated_reconstruction(self):
        lang = random_language(0, Alphabet(3), 2)
        op = conditional_operator(lang, 1, 1)
        dec = weighted_svd(op)
        proj = project_leq_chi(dec, op.matrix, 0)
        u = dec.left_vectors[:, 0]
        vhat = dec.right_vectors[:, 0] / np.sqrt(dec.marginal)
        expected = dec.singular_values[0] * np.outer(u, vhat)
        np.testing.assert_allclose(proj, expected, atol=1e-12)

    def test_full_cutoff_keeps_retained_span(self):
        lang = random_language(1, Alphabet(3), 2)
        op = conditional_operator(lang, 1, 1)
        dec = weighted_svd(op)
        np.testing.assert_allclose(
            project_leq_chi(dec, op.matrix, dec.n_modes - 1), op.matrix, atol=1e-12
        )

    def test_idempotent_and_contractive(self):
        lang = random_language(2, Alphabet(3), 2)
        dec = weighted_svd(conditional_operator(lang, 1, 1))
        rng = np.random.default_rng(0)
        for _ in range(10):
            f = rng.standard_normal((3, 3))
            p1 = project_leq_chi(dec, f, 1)
            p2 = project_leq_chi(dec, p1, 1)
            np.testing.assert_allclose(p1, p2, atol=1e-10)
            assert hs_norm(p1, dec.marginal) <= hs_norm(f, dec.marginal) + 1e-12

    def test_self_adjoint(self):
        lang = random_language(3, Alphabet(3), 2)
        dec = weighted_svd(conditional_operator(lang, 1, 1))
        rng = np.random.default_rng(1)
        f = rng.standard_normal((3, 3))
        g = rng.standard_normal((3, 3))
        lhs = hs_inner(project_leq_chi(dec, f, 1), g, dec.marginal)
        rhs = hs_inner(f, project_leq_chi(dec, g, 1), dec.marginal)
        assert abs(lhs - rhs) < 1e-10


class TestTruncateNormalized:
    def test_full_cutoff_recovers_truth(self):
        lang = random_language(5, Alphabet(3), 2)
        op = conditional_operator(lang, 1, 1)
        dec = weighted_svd(op)
        eff = truncate_normalized(dec, dec.n_modes - 1)
        np.testing.assert_allclose(eff.conditional, op.matrix, atol=1e-10)

    def test_independence_top_mode_gives_marginal(self):
        lang = independence_language(0.3)
        op = conditional_operator(lang, 1, 1)
        dec = weighted_svd(op)
        eff = truncate_normalized(dec, 0)
        q_y = fundamental_tensor(lang, 1)
        for col in range(2):
            np.testing.assert_allclose(eff.conditional[:, col], q_y, atol=1e-10)

    def test_output_is_distribution(self):
        for seed in range(5):
            lang = random_language(seed, Alphabet(4), 2)
            dec = weighted_svd(conditional_operator(lang, 1, 1))
            eff = truncate_normalized(dec, 1)
            assert np.all(eff.conditional >= 0)
            np.testing.assert_allclose(eff.conditional.sum(axis=0), 1.0, atol=1e-10)

    @pytest.mark.parametrize("chi", [2, 3])
    def test_planted_zeros_finite(self, chi):
        # the reconstruction leaves ~1e-16 on the exact zeros; they are not support
        lang = planted_zero_language()
        op = conditional_operator(lang, 1, 1)
        eff = truncate_normalized(weighted_svd(op), chi)
        kl = eff.provenance["kl_divergence"]
        assert np.isfinite(kl)
        assert kl == pytest.approx(kl_conditional(op.matrix, eff.conditional, op.marginal),
                                   abs=1e-12)


class TestTruncateKl:
    def test_full_cutoff_recovers_truth(self):
        lang = random_language(4, Alphabet(3), 2)
        op = conditional_operator(lang, 1, 1)
        dec = weighted_svd(op)
        eff = truncate_kl(dec, dec.n_modes - 1)
        np.testing.assert_allclose(eff.conditional, op.matrix, atol=1e-10)
        assert eff.provenance["kl_divergence"] < 1e-10

    @pytest.mark.parametrize("chi", [4, 5, 6])
    def test_truth_in_span_is_its_own_answer(self, chi):
        # the planted collective bigram has rank 5 of 8, so from chi 4 on the
        # truth (with exact zeros) lies in the retained span: no Newton step,
        # and the answer full retention gives
        lang = plant_collective_bigram(random_language(3, 8, 2), [(0,), (2,), (4,), (6,)], (1,))
        dec = weighted_svd(conditional_operator(lang, 1, 1))
        eff = truncate_kl(dec, chi)
        full = truncate_kl(dec, dec.n_modes - 1)
        np.testing.assert_array_equal(eff.conditional, full.conditional)
        assert eff.provenance == {**full.provenance, "chi": chi}
        assert eff.provenance["kl_divergence"] == 0.0 and eff.provenance["iterations"] == 0

    def test_independence_top_mode(self):
        # with one retained mode the only feasible point is the continuation marginal
        lang = independence_language(0.35)
        op = conditional_operator(lang, 1, 1)
        dec = weighted_svd(op)
        eff = truncate_kl(dec, 0)
        q_y = fundamental_tensor(lang, 1)
        for col in range(2):
            np.testing.assert_allclose(eff.conditional[:, col], q_y, atol=1e-7)

    def test_generic_language_infeasible_midspectrum(self):
        lang = random_language(6, Alphabet(3), 2)
        dec = weighted_svd(conditional_operator(lang, 1, 1))
        with pytest.raises(InfeasibleTruncationError) as err:
            truncate_kl(dec, 0)
        assert "certified empty" in str(err.value)
        assert err.value.diagnostics["certificate"] == "column_sums"
        assert err.value.diagnostics["column_sum_residual"] > 1e-3

    def test_doubly_stochastic_feasible_all_cutoffs(self):
        lang = random_doubly_stochastic_language(0, 3)
        op = conditional_operator(lang, 1, 1)
        dec = weighted_svd(op)
        for chi in range(dec.n_modes):
            eff = truncate_kl(dec, chi)
            assert eff.provenance["feasible"]
            assert np.all(eff.conditional >= 0)
            np.testing.assert_allclose(eff.conditional.sum(axis=0), 1.0, atol=1e-10)
            assert eff.provenance["subspace_distance"] < 1e-8

    def test_kl_nonincreasing_in_chi(self):
        lang = random_doubly_stochastic_language(1, 4)
        dec = weighted_svd(conditional_operator(lang, 1, 1))
        kls = [truncate_kl(dec, chi).provenance["kl_divergence"] for chi in range(dec.n_modes)]
        for lo, hi in zip(kls[1:], kls[:-1]):
            assert lo <= hi + 1e-9

    def test_beats_normalized_when_normalized_feasible(self):
        # optimality comparison oracle: the KL minimizer cannot lose to any
        # feasible competitor
        for seed in range(6):
            lang = random_doubly_stochastic_language(seed, 3)
            op = conditional_operator(lang, 1, 1)
            dec = weighted_svd(op)
            chi = 1
            norm_eff = truncate_normalized(dec, chi)
            if subspace_distance(dec, norm_eff.conditional, chi) > 1e-9:
                continue
            kl_eff = truncate_kl(dec, chi)
            assert (
                kl_eff.provenance["kl_divergence"]
                <= norm_eff.provenance["kl_divergence"] + 1e-8
            )

    def test_output_in_subspace(self):
        lang = random_doubly_stochastic_language(2, 3)
        dec = weighted_svd(conditional_operator(lang, 1, 1))
        eff = truncate_kl(dec, 1)
        coeffs = mode_coefficients(dec, eff.conditional)
        disallowed = coeffs.copy()
        disallowed[:2, :2] = 0.0
        assert np.max(np.abs(disallowed)) < 1e-7


def planted_zero_language():
    """Doubly stochastic 5-symbol bigram whose conditional has two zeros per column."""
    shift = np.roll(np.eye(5), 1, axis=1)
    cond = 0.5 * np.eye(5) + 0.3 * shift + 0.2 * shift @ shift
    return Language(alphabet=Alphabet(5), K=2, joint=cond / 5)


def hand_decomposition(top_left):
    """3×3 decomposition: uniform marginal, constant top right vector, the given top left one.

    At chi = 0 its only unit-column-sum member is top_left / Σ top_left in every column.
    """
    def basis(first):
        q, _ = np.linalg.qr(np.column_stack([first, np.eye(3)[:, :2]]))
        return q * np.sign(q[:, 0] @ first)

    labels = ((0,), (1,), (2,))
    return ModeDecomposition(
        k=1, l=1, singular_values=np.array([1.0, 0.5, 0.25]),
        left_vectors=basis(np.asarray(top_left, dtype=float)), right_vectors=basis(np.ones(3)),
        marginal=np.full(3, 1 / 3), n_plus=3, x_labels=labels, y_labels=labels,
    )


def dec_11(lang):
    return weighted_svd(conditional_operator(lang, 1, 1))


class TestCertifiedSolve:
    def test_finite_where_support_was_lost(self):
        eff = truncate_kl(dec_11(random_doubly_stochastic_language(3, 12)), 6)
        assert np.isfinite(eff.provenance["kl_divergence"])
        assert np.all(eff.conditional > 0)
        assert eff.provenance["converged"]

    def test_feasible_cutoff_not_refused(self):
        eff = truncate_kl(dec_11(random_doubly_stochastic_language(2, 12)), 1)
        assert eff.provenance["feasible"]
        assert eff.provenance["subspace_distance"] < 1e-8

    @pytest.mark.parametrize("chi", [2, 3])
    def test_planted_zeros_finite(self, chi):
        eff = truncate_kl(dec_11(planted_zero_language()), chi)
        assert np.isfinite(eff.provenance["kl_divergence"])
        assert eff.provenance["converged"]
        assert eff.provenance["kkt_residual"] < 1e-6
        np.testing.assert_allclose(eff.conditional.sum(axis=0), 1.0, atol=1e-12)

    def test_phase_one_stops_at_first_positive_point(self):
        # 19 Newton steps here; 35 when phase I also converged the centre it was in
        eff = truncate_kl(dec_11(random_doubly_stochastic_language(3, 12)), 10)
        assert eff.provenance["iterations"] <= 24
        assert np.all(eff.conditional > 0)
        assert eff.provenance["converged"]

    def test_phase_one_certificate(self):
        with pytest.raises(InfeasibleTruncationError) as err:
            truncate_kl(hand_decomposition([2.0, -1.0, 0.0]), 0)
        assert "certified empty" in str(err.value)
        diagnostics = err.value.diagnostics
        assert diagnostics["certificate"] == "phase_one"
        assert diagnostics["margin"] <= diagnostics["margin_upper_bound"] < 0

    def test_truncate_validates_chi_and_solver(self):
        dec = dec_11(random_doubly_stochastic_language(0, 3))
        for chi, solver, message in [(3, "kl", "chi must be"), (-1, "normalized", "chi must be"),
                                     (1, "dykstra", "unknown solver"),
                                     (1, "projection_only", "use project_leq_chi")]:
            with pytest.raises(TruncationError, match=message):
                truncate(dec, chi, solver)
        assert truncate(dec, 1).provenance == truncate_kl(dec, 1).provenance

    def test_partial_decomposition_rejected(self):
        op = conditional_operator(random_doubly_stochastic_language(0, 4), 1, 1)
        part = truncated_weighted_svd(op, rank=2)
        for solver in ("kl", "normalized"):
            with pytest.raises(TruncationError, match="complete decomposition"):
                truncate(part, 1, solver)
        with pytest.raises(TruncationError, match="complete decomposition"):
            project_leq_chi(part, op.matrix, 1)

    def test_zero_margin_is_not_certified(self):
        with pytest.raises(InfeasibleTruncationError) as err:
            truncate_kl(hand_decomposition([1.0, 0.0, 0.0]), 0)
        assert "no strictly positive point" in str(err.value)
        diagnostics = err.value.diagnostics
        assert diagnostics["certificate"] is None
        assert diagnostics["margin"] <= 0 <= diagnostics["margin_upper_bound"] < 1e-9


def corpus_operator():
    stream = sample_bigram_corpus(random_language(1, Alphabet(5), 2), n_docs=40, doc_len=50,
                                  seed=2)
    return build_conditional_matrix(stream_ngram_counts(stream, 1, 1), lambda_smooth=1e-5)


@pytest.mark.parametrize("make_operator", [
    *(pytest.param(lambda s=s: conditional_operator(random_doubly_stochastic_language(s, 6), 1, 1),
                   id=f"doubly_stochastic_{s}") for s in range(4)),
    *(pytest.param(lambda s=s: conditional_operator(random_language(s, 5, 2), 1, 1),
                   id=f"random_{s}") for s in range(4)),
    pytest.param(corpus_operator, id="corpus"),
])
def test_first_accepted_chi_is_column_sums_from_chi(make_operator):
    # every refusal below the first accepted cutoff names that cutoff
    dec = weighted_svd(make_operator())
    first = _column_sums_from_chi(dec)
    for chi in range(first):
        with pytest.raises(InfeasibleTruncationError) as err:
            truncate_kl(dec, chi)
        assert err.value.diagnostics["certificate"] == "column_sums"
        assert err.value.diagnostics["column_sums_from_chi"] == first
    assert truncate_kl(dec, first).provenance["feasible"]


def span_basis(dec, chi):
    """Orthonormal basis (flattened F) of the retained span, from project_leq_chi alone."""
    units = np.eye(dec.n_left * dec.n_modes).reshape(-1, dec.n_left, dec.n_modes)
    images = np.stack([project_leq_chi(dec, e, chi).ravel() for e in units], axis=1)
    u, s, _ = np.linalg.svd(images)
    return u[:, : int(np.sum(s > 1e-9))]


def column_sum_map(dec, basis):
    return np.kron(np.ones((1, dec.n_left)), np.eye(dec.n_modes)) @ basis


class TestOracles:
    """Independent checks of the KL solve by scipy.optimize (tests only)."""

    def panel(self):
        for seed in range(3):
            for size in (3, 4):
                yield random_language(seed, Alphabet(size), 2)
        for seed in range(2):
            yield random_doubly_stochastic_language(seed, 4)
        yield planted_zero_language()

    def test_feasibility_matches_lp(self):
        for lang in self.panel():
            dec = dec_11(lang)
            for chi in range(dec.n_modes):
                basis = span_basis(dec, chi)
                lp = linprog(np.zeros(basis.shape[1]), A_ub=-basis, b_ub=np.zeros(len(basis)),
                             A_eq=column_sum_map(dec, basis), b_eq=np.ones(dec.n_modes),
                             bounds=(None, None), method="highs")
                assert lp.status in (0, 2)
                try:
                    truncate_kl(dec, chi)
                    refused = False
                except InfeasibleTruncationError:
                    refused = True
                assert refused == (lp.status == 2), (lang.size, chi)

    @pytest.mark.parametrize("seed, chi", [(0, 1), (1, 1), (2, 1), (2, 2), ("planted", 1)])
    def test_not_above_slsqp(self, seed, chi):
        dec = dec_11(planted_zero_language() if seed == "planted"
                     else random_doubly_stochastic_language(seed, 4))
        truth = reconstruct_matrix(dec)
        basis = span_basis(dec, chi)
        sums = column_sum_map(dec, basis)
        # F = base + M y spans the unit-column-sum members of the span.
        c_p = np.linalg.lstsq(sums, np.ones(dec.n_modes), rcond=None)[0]
        Z = null_space(sums)
        base, M = basis @ c_p, basis @ Z
        support = truth.ravel() > 1e-12
        w = (truth * dec.marginal[None, :]).ravel()[support]

        def objective(y):
            return -w @ np.log(np.maximum((base + M @ y)[support], 1e-300))

        def gradient(y):
            return -M[support].T @ (w / np.maximum((base + M @ y)[support], 1e-300))

        uniform = np.full(truth.size, 1.0 / truth.shape[0])  # feasible: doubly stochastic
        res = minimize(objective, Z.T @ (basis.T @ uniform - c_p), jac=gradient, method="SLSQP",
                       constraints=[{"type": "ineq", "fun": lambda y: base + M @ y,
                                     "jac": lambda y: M}],
                       options={"ftol": 1e-15, "maxiter": 1000})
        assert res.success
        theirs = kl_conditional(truth, (base + M @ res.x).reshape(truth.shape), dec.marginal)
        ours = truncate_kl(dec, chi).provenance["kl_divergence"]
        assert theirs >= ours - 1e-9


class TestKlHelper:
    def test_zero_on_equal(self):
        lang = random_language(0, Alphabet(3), 2)
        op = conditional_operator(lang, 1, 1)
        assert kl_conditional(op.matrix, op.matrix, op.marginal) == 0.0

    def test_inf_off_support(self):
        q = np.array([[1.0], [0.0]])
        p = np.array([[0.0], [1.0]])
        assert kl_conditional(q, p, np.array([1.0])) == float("inf")

    def test_matches_direct_sum(self):
        lang = random_language(1, Alphabet(2), 2)
        op = conditional_operator(lang, 1, 1)
        rng = np.random.default_rng(3)
        p = rng.dirichlet(np.ones(2), size=2).T
        direct = sum(
            op.marginal[x] * op.matrix[y, x] * (np.log(op.matrix[y, x]) - np.log(p[y, x]))
            for x in range(2)
            for y in range(2)
        )
        assert abs(kl_conditional(op.matrix, p, op.marginal) - direct) < 1e-12


class TestMultiLength:
    k3_language = staticmethod(k3_language_with_balanced_front)

    def test_full_cutoffs_recover_joint(self):
        lang = self.k3_language()
        comp = multi_length_truncation(lang, [(2, 1), (1, 1)], [-1, -1], solver="kl")
        np.testing.assert_allclose(comp.joint, lang.joint, atol=1e-10)

    def test_single_pair_matches_lifted_conditional(self):
        lang = random_doubly_stochastic_language(3, 3)
        op = conditional_operator(lang, 1, 1)
        dec = weighted_svd(op)
        eff = truncate_kl(dec, 1)
        comp = multi_length_truncation(lang, [(1, 1)], [1], solver="kl")
        lifted = (eff.conditional * fundamental_tensor(lang, 1)[None, :]).T
        np.testing.assert_allclose(comp.joint, lifted, atol=1e-9)

    def test_k3_composite_matches_hand_assembly(self):
        # brute-force product of conditionals, assembled independently
        lang = self.k3_language(seed=1)
        comp = multi_length_truncation(lang, [(2, 1), (1, 1)], [-1, 1], solver="kl")
        eff_11 = comp.levels[1]
        op_21 = conditional_operator(lang, 2, 1)
        q1 = fundamental_tensor(lang, 1)
        expected = np.empty((2, 2, 2))
        for x1 in range(2):
            for x2 in range(2):
                for x3 in range(2):
                    expected[x1, x2, x3] = (
                        op_21.matrix[x3, x1 * 2 + x2] * eff_11.conditional[x2, x1] * q1[x1]
                    )
        np.testing.assert_allclose(comp.joint, expected, atol=1e-9)

    def test_composite_base_marginal_unchanged(self):
        lang = self.k3_language(seed=2)
        comp = multi_length_truncation(lang, [(2, 1), (1, 1)], [-1, 0], solver="normalized")
        np.testing.assert_allclose(
            comp.joint.sum(axis=(1, 2)), fundamental_tensor(lang, 1), atol=1e-10
        )

    def test_chain_validation(self):
        with pytest.raises(TruncationError):
            validate_decomposition_chain([(2, 1), (2, 1)], 3)
        with pytest.raises(TruncationError):
            validate_decomposition_chain([(1, 1)], 3)
        with pytest.raises(TruncationError):
            multi_length_truncation(self.k3_language(), [(2, 1)], [0, 0])
