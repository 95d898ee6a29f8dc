import numpy as np
import pytest

import seqmodes.model as model_module
from seqmodes.distribution import (
    Alphabet,
    conditional_operator,
    fundamental_tensor,
    random_language,
)
from seqmodes.model import (
    CompositeModel,
    Dataset,
    EntropyRateBound,
    ModelError,
    SoftmaxModel,
    composite_model_for,
    empirical_loss,
    entropy_rate_bound,
    fit_model,
    grad_log_prob,
    grad_population_loss,
    insensitivity_report,
    lipschitz_estimates,
    log_prob,
    phi_map,
    population_loss,
    population_losses,
    row_norms,
    sample_dataset,
)


def central_diff_grad(f, w, h=1e-5):
    g = np.zeros_like(w)
    for i in range(w.size):
        e = np.zeros_like(w)
        e[i] = h
        g[i] = (f(w + e) - f(w - e)) / (2 * h)
    return g


def models_under_test():
    return [
        SoftmaxModel(k=1, l=1, alphabet_size=3),
        SoftmaxModel(k=1, l=1, alphabet_size=3, pinned=False),
        SoftmaxModel(k=2, l=1, alphabet_size=2),
        SoftmaxModel(k=1, l=1, alphabet_size=3, parametrization="low_rank", rank=2),
    ]


class TestSoftmaxBasics:
    def test_zero_weights_uniform(self):
        model = SoftmaxModel(k=1, l=2, alphabet_size=2)
        p = np.exp(model.log_conditional_matrix(np.zeros(model.dim)))
        np.testing.assert_allclose(p, 0.25)
        logp = model.log_conditional_matrix(np.zeros(model.dim))
        np.testing.assert_allclose(logp, -2 * np.log(2))

    def test_normalization(self):
        rng = np.random.default_rng(0)
        for model in models_under_test():
            for _ in range(5):
                w = rng.standard_normal(model.dim)
                p = np.exp(model.log_conditional_matrix(w))
                np.testing.assert_allclose(p.sum(axis=0), 1.0, atol=1e-12)
                assert np.all(p > 0)

    def test_dim_formula(self):
        assert SoftmaxModel(k=1, l=1, alphabet_size=2).dim == 2
        assert SoftmaxModel(k=2, l=1, alphabet_size=3).dim == 9 * 2
        assert SoftmaxModel(k=1, l=1, alphabet_size=3, pinned=False).dim == 9
        assert SoftmaxModel(k=1, l=1, alphabet_size=4, parametrization="low_rank", rank=2).dim == 16

    def test_nonfinite_weights_rejected(self):
        model = SoftmaxModel(k=1, l=1, alphabet_size=2)
        with pytest.raises(ModelError):
            model.log_conditional_matrix(np.array([np.nan, 0.0]))


class TestGradients:
    def test_pinned_gradient_at_zero(self):
        # d log p(y|x) / d z(x, y') = delta_{y,y'} - 1/|Y| at w = 0
        model = SoftmaxModel(k=1, l=1, alphabet_size=3)
        g = grad_log_prob(model, 1, 0, np.zeros(model.dim))
        table = g.reshape(3, 2)  # one row of free logits per context
        np.testing.assert_allclose(table[1], [1 - 1 / 3, -1 / 3], atol=1e-12)
        np.testing.assert_allclose(table[0], 0.0, atol=1e-12)
        np.testing.assert_allclose(table[2], 0.0, atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        for model in models_under_test():
            for _ in range(5):
                w = rng.standard_normal(model.dim) * 0.7
                x = int(rng.integers(model.n_x))
                y = int(rng.integers(model.n_y))
                analytic = grad_log_prob(model, x, y, w)
                numeric = central_diff_grad(lambda v: log_prob(model, x, y, v), w)
                scale = max(1.0, np.linalg.norm(analytic))
                assert np.linalg.norm(analytic - numeric) / scale < 1e-6

    def test_weighted_grad_linearity(self):
        model = SoftmaxModel(k=1, l=1, alphabet_size=3)
        rng = np.random.default_rng(2)
        w = rng.standard_normal(model.dim)
        c1 = rng.standard_normal((3, 3))
        c2 = rng.standard_normal((3, 3))
        lhs = model.weighted_grad(w, c1 + 2.0 * c2)
        rhs = model.weighted_grad(w, c1) + 2.0 * model.weighted_grad(w, c2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestPhiMap:
    def test_uniform_constant(self):
        model = SoftmaxModel(k=1, l=1, alphabet_size=2)
        phi = phi_map(model, np.zeros(model.dim))
        np.testing.assert_allclose(phi, -np.log(2))

    def test_pairing_matches_double_sum(self):
        lang = random_language(0, Alphabet(3), 2)
        op = conditional_operator(lang, 1, 1)
        model = SoftmaxModel(k=1, l=1, alphabet_size=3)
        rng = np.random.default_rng(3)
        w = rng.standard_normal(model.dim)
        q_joint = op.joint()
        qp_joint = q_joint[::-1].copy()  # any other distribution with same mass
        phi = phi_map(model, w)
        brute = sum(
            (q_joint[y, x] - qp_joint[y, x]) * phi[y, x]
            for x in range(3)
            for y in range(3)
        )
        direct = float(np.sum((q_joint - qp_joint) * phi))
        assert abs(brute - direct) < 1e-12


class TestInsensitivity:
    def setup_method(self):
        lang = random_language(5, Alphabet(2), 2)
        self.op = conditional_operator(lang, 1, 1)
        self.model = SoftmaxModel(k=1, l=1, alphabet_size=2)
        self.q = self.op.joint()
        other = self.q * np.array([[1.2, 0.8], [0.8, 1.2]])
        # keep the same context marginal
        other *= self.q.sum(axis=0) / other.sum(axis=0)
        self.qp = other

    def test_identical_distributions_zero(self):
        sample = [np.zeros(2), np.ones(2)]
        assert insensitivity_report(self.model, self.q, self.q, sample).A == 0.0
        assert insensitivity_report(self.model, self.q, self.q, sample).B == 0.0

    def test_single_point_equals_norm(self):
        w = np.array([0.3, -0.2])
        val = insensitivity_report(self.model, self.q, self.qp, [w]).A
        expected = np.linalg.norm(self.model.weighted_grad(w, self.q - self.qp))
        assert val == pytest.approx(expected)

    def test_matches_bruteforce_double_sum(self):
        w = np.array([0.1, 0.4])
        vec = sum(
            (self.q[y, x] - self.qp[y, x]) * grad_log_prob(self.model, x, y, w)
            for x in range(2)
            for y in range(2)
        )
        assert insensitivity_report(self.model, self.q, self.qp, [w]).A == pytest.approx(
            float(np.linalg.norm(vec))
        )

    def test_B_uniform_model_zero_when_masses_match(self):
        # constant log p factors out when both joints have the same column sums
        w = np.zeros(2)
        val = insensitivity_report(self.model, self.q, self.qp, [w]).B
        assert val < 1e-12

    def test_B_matches_bruteforce(self):
        w = np.array([0.5, -0.1])
        brute = abs(
            sum(
                (self.q[y, x] - self.qp[y, x]) * log_prob(self.model, x, y, w)
                for x in range(2)
                for y in range(2)
            )
        )
        assert insensitivity_report(self.model, self.q, self.qp, [w]).B == pytest.approx(brute)

    def test_monotone_in_sample(self):
        rng = np.random.default_rng(4)
        pts = [rng.standard_normal(2) for _ in range(8)]
        small = insensitivity_report(self.model, self.q, self.qp, pts[:3]).A
        large = insensitivity_report(self.model, self.q, self.qp, pts).A
        assert large >= small

    def test_report_carries_per_point(self):
        rep = insensitivity_report(self.model, self.q, self.qp, [np.zeros(2), np.ones(2)])
        assert rep.per_point_A.shape == (2,)
        assert rep.A == rep.per_point_A.max()
        assert rep.B == rep.per_point_B.max()

    def test_empty_sample_error(self):
        with pytest.raises(ModelError):
            insensitivity_report(self.model, self.q, self.qp, []).A


class TestLosses:
    def test_truth_model_gives_conditional_entropy(self):
        lang = random_language(6, Alphabet(2), 2)
        op = conditional_operator(lang, 1, 1)
        model = SoftmaxModel(k=1, l=1, alphabet_size=2)
        fit = fit_model(model, op.joint())
        joint = op.joint()
        entropy = -float(np.sum(joint * np.log(op.matrix)))
        assert population_loss(model, joint, fit.w) == pytest.approx(entropy, abs=1e-8)

    def test_empirical_equals_population_of_empirical(self):
        model = SoftmaxModel(k=1, l=1, alphabet_size=2)
        ds = Dataset(x_idx=np.array([0, 0, 1, 1]), y_idx=np.array([0, 1, 1, 1]), n_x=2, n_y=2)
        w = np.array([0.2, -0.3])
        assert empirical_loss(model, ds, w) == pytest.approx(
            population_loss(model, ds.empirical_joint(), w)
        )

    def test_gibbs_inequality_on_grid(self):
        lang = random_language(7, Alphabet(2), 2)
        op = conditional_operator(lang, 1, 1)
        joint = op.joint()
        model = SoftmaxModel(k=1, l=1, alphabet_size=2)
        floor = -float(np.sum(joint * np.log(op.matrix)))
        rng = np.random.default_rng(5)
        for _ in range(50):
            w = rng.standard_normal(model.dim) * 2
            assert population_loss(model, joint, w) >= floor - 1e-12

    def test_gradient_matches_finite_difference(self):
        lang = random_language(8, Alphabet(2), 2)
        joint = conditional_operator(lang, 1, 1).joint()
        model = SoftmaxModel(k=1, l=1, alphabet_size=2)
        w = np.array([0.4, 0.9])
        analytic = grad_population_loss(model, joint, w)
        numeric = central_diff_grad(lambda v: population_loss(model, joint, v), w)
        np.testing.assert_allclose(analytic, numeric, atol=1e-8)


class TestDataset:
    def test_empty(self):
        ds = sample_dataset(np.array([[0.5, 0.5]]), 0, seed=0)
        assert len(ds) == 0

    def test_deterministic(self):
        joint = np.array([[0.25, 0.25], [0.25, 0.25]])
        a = sample_dataset(joint, 100, seed=3)
        b = sample_dataset(joint, 100, seed=3)
        np.testing.assert_array_equal(a.x_idx, b.x_idx)
        np.testing.assert_array_equal(a.y_idx, b.y_idx)

    def test_frequencies_match_joint(self):
        lang = random_language(9, Alphabet(2), 2)
        joint = conditional_operator(lang, 1, 1).joint()
        n = 100000
        ds = sample_dataset(joint, n, seed=1)
        emp = ds.empirical_joint()
        sigma = np.sqrt(joint * (1 - joint) / n)
        assert np.all(np.abs(emp - joint) <= 3 * sigma + 1e-3)

    def test_minibatch_counts(self):
        ds = Dataset(x_idx=np.array([0, 1, 0]), y_idx=np.array([1, 0, 1]), n_x=2, n_y=2)
        sub = ds.subset_counts(np.array([0, 2]))
        np.testing.assert_array_equal(sub, [[0, 0], [2, 0]])
        stacked = ds.subset_counts(np.array([[0, 2], [1, 1]]))
        np.testing.assert_array_equal(stacked, [[[0, 0], [2, 0]], [[0, 2], [0, 0]]])

    def test_indices_out_of_range(self):
        with pytest.raises(ModelError):
            Dataset(x_idx=np.array([0, 2]), y_idx=np.array([1, 0]), n_x=2, n_y=2)
        with pytest.raises(ModelError):
            Dataset(x_idx=np.array([0, 1]), y_idx=np.array([-1, 0]), n_x=2, n_y=2)


class TestBatchedKernels:
    @pytest.mark.parametrize("model", [
        SoftmaxModel(k=1, l=1, alphabet_size=3),
        SoftmaxModel(k=1, l=2, alphabet_size=2, pinned=False),
        SoftmaxModel(k=2, l=1, alphabet_size=2, parametrization="low_rank", rank=2),
    ])
    def test_rows_match_single_calls_bitwise(self, model):
        rng = np.random.default_rng(5)
        W = rng.standard_normal((6, model.dim))
        coeffs = rng.random((6, model.n_y, model.n_x)) / 7.0
        joint = rng.random((model.n_y, model.n_x))
        joint[0, 0] = 0.0
        joint /= joint.sum()
        logp = model.log_conditionals(W)
        grads = model.weighted_grads(W, coeffs)
        shared = model.weighted_grads(W, joint)
        losses = population_losses(model, joint, W)
        for b, w in enumerate(W):
            np.testing.assert_array_equal(logp[b], model.log_conditional_matrix(w))
            np.testing.assert_array_equal(grads[b], model.weighted_grad(w, coeffs[b]))
            np.testing.assert_array_equal(shared[b], model.weighted_grad(w, joint))
            assert losses[b] == population_loss(model, joint, w)


class TestRowNorms:
    @pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 9, 31, 128, 129, 1000])
    def test_equals_lone_vector_norm(self, d):
        # each row gets the bits of np.linalg.norm on that row alone, whatever
        # the layout of the stack it comes in
        rng = np.random.default_rng(d)
        base = rng.standard_normal((12, 3 * d))
        stacks = {
            "contiguous": base[:, :d],
            "strided": base[::2, ::3],
            "fortran": np.asfortranarray(base[:, :d]),
            "wide_scale": base[:, :d] * 10.0 ** rng.integers(-150, 150, (12, 1)),
        }
        for name, vectors in stacks.items():
            expected = np.array([np.linalg.norm(v) for v in vectors])
            np.testing.assert_array_equal(row_norms(vectors), expected, err_msg=name)

    def test_no_rows(self):
        assert row_norms(np.empty((0, 3))).shape == (0,)


class TestFit:
    def test_realizable_full_table(self):
        lang = random_language(10, Alphabet(2), 2)
        op = conditional_operator(lang, 1, 1)
        model = SoftmaxModel(k=1, l=1, alphabet_size=2)
        fit = fit_model(model, op.joint())
        assert fit.converged
        fitted = np.exp(model.log_conditional_matrix(fit.w))
        kl = float(np.sum(op.joint() * (np.log(op.matrix) - np.log(fitted))))
        assert kl < 1e-8

    def test_zero_init_deterministic(self):
        lang = random_language(11, Alphabet(2), 2)
        joint = conditional_operator(lang, 1, 1).joint()
        model = SoftmaxModel(k=1, l=1, alphabet_size=2)
        a = fit_model(model, joint, init=np.zeros(model.dim))
        b = fit_model(model, joint, init=np.zeros(model.dim))
        np.testing.assert_array_equal(a.w, b.w)

    def test_low_rank_full_capacity_matches_full_table(self):
        lang = random_language(12, Alphabet(3), 2)
        joint = conditional_operator(lang, 1, 1).joint()
        full = fit_model(SoftmaxModel(k=1, l=1, alphabet_size=3), joint)
        low = fit_model(
            SoftmaxModel(k=1, l=1, alphabet_size=3, parametrization="low_rank", rank=3),
            joint,
        )
        assert abs(low.loss - full.loss) < 1e-6


class TestLipschitz:
    @pytest.mark.parametrize("kwargs, curvature_cap", [
        ({}, 0.25),  # pinned 2-outcome blocks: q(x) p (1-p) <= 1/4
        ({"pinned": False}, 0.5),  # unpinned: 2 q(x) p (1-p) <= 1/2
        ({"parametrization": "low_rank", "rank": 2}, None),
    ], ids=["pinned", "unpinned", "low_rank"])
    def test_full_table_hessian_bound(self, kwargs, curvature_cap):
        # dense Hessian oracle at small dimension
        lang = random_language(13, Alphabet(2), 2)
        joint = conditional_operator(lang, 1, 1).joint()
        ds = sample_dataset(joint, 2000, seed=7)
        model = SoftmaxModel(k=1, l=1, alphabet_size=2, **kwargs)
        rng = np.random.default_rng(8)
        pts = [rng.standard_normal(model.dim) * 0.5 for _ in range(3)]
        est = lipschitz_estimates(model, ds, pts)

        def dense_hessian(w):
            h = np.zeros((model.dim, model.dim))
            g0 = grad_population_loss(model, ds.empirical_joint(), w)
            eps = 1e-6
            for i in range(model.dim):
                e = np.zeros(model.dim)
                e[i] = eps
                h[:, i] = (grad_population_loss(model, ds.empirical_joint(), w + e) - g0) / eps
            return (h + h.T) / 2

        oracle = max(np.linalg.norm(dense_hessian(w), 2) for w in pts)
        assert est.M == pytest.approx(oracle, rel=1e-3)
        if curvature_cap is not None:
            assert est.M <= curvature_cap + 1e-6

    def test_stacked_equals_single_points(self, monkeypatch):
        lang = random_language(15, Alphabet(3), 2)
        op = conditional_operator(lang, 1, 1)
        q = op.joint()
        qp = q * np.random.default_rng(2).uniform(0.5, 1.5, q.shape)
        qp /= qp.sum()
        ds = sample_dataset(q, 1000, seed=3)
        for model in (SoftmaxModel(k=1, l=1, alphabet_size=3),
                      SoftmaxModel(k=1, l=1, alphabet_size=3, parametrization="low_rank",
                                   rank=2)):
            pts = np.random.default_rng(4).standard_normal((5, model.dim))
            rep = insensitivity_report(model, q, qp, pts)
            est = lipschitz_estimates(model, ds, pts)
            for i, w in enumerate(pts):
                one_rep = insensitivity_report(model, q, qp, [w])
                one_est = lipschitz_estimates(model, ds, [w])
                assert rep.per_point_A[i] == one_rep.A
                assert rep.per_point_B[i] == one_rep.B
                assert est.per_point_M[i] == one_est.M
                assert est.per_point_Q[i] == one_est.Q
            # eigvalsh batches of one row each give the same norms
            monkeypatch.setattr(model_module, "HESSIAN_BLOCK", 1)
            assert np.array_equal(lipschitz_estimates(model, ds, pts).per_point_M, est.per_point_M)
            monkeypatch.undo()

    def test_Q_is_max_gradient_norm(self):
        lang = random_language(14, Alphabet(2), 2)
        joint = conditional_operator(lang, 1, 1).joint()
        ds = sample_dataset(joint, 500, seed=9)
        model = SoftmaxModel(k=1, l=1, alphabet_size=2)
        pts = [np.zeros(2), np.array([1.0, -1.0])]
        est = lipschitz_estimates(model, ds, pts)
        joint = ds.empirical_joint()
        expected = max(np.linalg.norm(grad_population_loss(model, joint, w)) for w in pts)
        assert est.Q == pytest.approx(expected)


class TestEntropyRateBound:
    def test_reference_point(self):
        out = entropy_rate_bound(k=33, l=1, alphabet_size=65536, H=1.0, A=1.0)
        assert out.exponent == pytest.approx(0.0)
        assert out.threshold == pytest.approx(1.0)
        # k = 33 sits exactly on the strict boundary k > 2 + 31 l
        assert not out.context_dominates
        assert entropy_rate_bound(34, 1, 65536, 1.0, 1.0).context_dominates

    def test_zero_A(self):
        assert entropy_rate_bound(4, 1, 16, 1.0, 0.0).threshold == 0.0

    def test_linear_in_A(self):
        one = entropy_rate_bound(5, 2, 8, 2.0, 1.0).threshold
        two = entropy_rate_bound(5, 2, 8, 2.0, 2.0).threshold
        assert two == pytest.approx(2 * one)

    def test_monotone_in_k_and_l(self):
        base = entropy_rate_bound(6, 2, 8, 1.5, 1.0).threshold
        assert entropy_rate_bound(7, 2, 8, 1.5, 1.0).threshold > base
        assert entropy_rate_bound(6, 3, 8, 1.5, 1.0).threshold < base


class TestCompositeModel:
    def test_log_joint_matches_product(self):
        comp = composite_model_for(2, [(2, 1), (1, 1)], base_marginal=np.array([0.4, 0.6]))
        rng = np.random.default_rng(10)
        w = rng.standard_normal(comp.dim)
        parts = comp.split_weights(w)
        logp_21 = comp.levels[0].log_conditional_matrix(parts[0])
        logp_11 = comp.levels[1].log_conditional_matrix(parts[1])
        logp = comp.log_sequence_probabilities(w).reshape(2, 2, 2)
        for x1 in range(2):
            for x2 in range(2):
                for x3 in range(2):
                    expected = (
                        logp_21[x3, x1 * 2 + x2]
                        + logp_11[x2, x1]
                        + np.log([0.4, 0.6])[x1]
                    )
                    assert logp[x1, x2, x3] == pytest.approx(expected)

    def test_population_loss_additive(self):
        lang = random_language(15, Alphabet(2), 3)
        comp = composite_model_for(
            2, [(2, 1), (1, 1)], base_marginal=fundamental_tensor(lang, 1)
        )
        rng = np.random.default_rng(11)
        w = rng.standard_normal(comp.dim)
        parts = comp.split_weights(w)
        joint3 = lang.joint
        lvl0 = population_loss(
            comp.levels[0], conditional_operator(lang, 2, 1).joint(), parts[0]
        )
        lvl1 = population_loss(
            comp.levels[1], conditional_operator(lang, 1, 1).joint(), parts[1]
        )
        q1 = fundamental_tensor(lang, 1)
        base_term = -float(np.sum(q1 * np.log(q1)))
        assert comp.population_loss(joint3, w) == pytest.approx(
            lvl0 + lvl1 + base_term, abs=1e-10
        )
