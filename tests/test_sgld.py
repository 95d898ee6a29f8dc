from dataclasses import replace

import numpy as np
import pytest

from seqmodes._streams import BATCH_TAG, NOISE_TAG, StepStream, keyed_generator
from seqmodes.distribution import (
    Alphabet,
    conditional_operator,
    random_doubly_stochastic_language,
    random_language,
)
from seqmodes import sgld
from seqmodes.cli import _sgld_config_from
from seqmodes.model import SoftmaxModel, empirical_loss, fit_model, sample_dataset
from seqmodes.modes import weighted_svd
from seqmodes.sgld import (
    ChainDivergedError,
    QuadraticTarget,
    SGLDConfig,
    SGLDError,
    SoftmaxTarget,
    WindowViolationError,
    bound_f,
    bound_g,
    bound_mu,
    coupled_bound_trial,
    llc_estimate,
    estimator_difference_bound,
    run_chain,
    run_chains,
    run_coupled_chains,
    sgld_step,
    volume_scaling_fit,
)
from seqmodes.truncation import truncate_kl


class TestConfig:
    def test_validation(self):
        with pytest.raises(SGLDError):
            SGLDConfig(n=10, beta=1.0, gamma=1.0, m=20, T=10, epsilon=1e-3)
        with pytest.raises(SGLDError):
            SGLDConfig(n=10, beta=1.0, gamma=-1.0, m=5, T=10, epsilon=1e-3)
        with pytest.raises(SGLDError):
            SGLDConfig(n=10, beta=1.0, gamma=1.0, m=5, T=10, epsilon=-1e-3)

    def test_paper_preset(self):
        cfg = _sgld_config_from({"preset": "paper"}, 1000, seed=0)
        assert cfg.n_beta == pytest.approx(10.0)
        assert cfg.gamma == 300.0
        assert cfg.T == 100
        assert cfg.epsilon == 1e-4

    def test_window_check(self):
        cfg = SGLDConfig(n=1000, beta=0.01, gamma=300.0, m=1000, T=100, epsilon=1e-4)
        ok, _ = cfg.window_check(M=20.0)  # M n beta = 200 in (300 - 20000, 300)
        assert ok
        ok, text = cfg.window_check(M=40.0)  # 400 > 300
        assert not ok and "400" in text


class TestStepStream:
    def test_reused_stream_matches_fresh_draws(self):
        # high just above 2**31 rejects about half of all 32-bit words, so an
        # odd number of words (a leftover half-word) is near-certain per draw
        high = 2**31 + 1
        stream = StepStream(7, BATCH_TAG)
        for step in range(1, 40):
            fresh = keyed_generator(7, BATCH_TAG, step).integers(0, high, size=5)
            np.testing.assert_array_equal(stream.at(step).integers(0, high, size=5), fresh)

    def test_out_of_order_steps(self):
        stream = StepStream(3, NOISE_TAG)
        for step in (5, 2, 5, 0, 9):
            fresh = keyed_generator(3, NOISE_TAG, step).standard_normal(4)
            np.testing.assert_array_equal(stream.at(step).standard_normal(4), fresh)


class TestSgldStep:
    def test_fixed_point(self):
        w = np.array([1.0, -2.0])
        out = sgld_step(w, np.zeros(2), w, 1e-3, 10.0, 5.0, np.zeros(2))
        np.testing.assert_array_equal(out, w)

    def test_localization_contraction(self):
        # zero temperature: pure pull toward the center by (1 - eps*gamma/2)
        w = np.array([2.0])
        out = sgld_step(w, np.zeros(1), np.zeros(1), 0.01, 0.0, 30.0, np.zeros(1))
        assert out[0] == pytest.approx(2.0 * (1 - 0.01 * 30.0 / 2))

    def test_hand_arithmetic(self):
        # quadratic loss grad = w at w=1; eps=0.1, n beta=2, gamma=4, center 0, eta=0.05
        out = sgld_step(np.array([1.0]), np.array([1.0]), np.zeros(1), 0.1, 2.0, 4.0,
                        np.array([0.05]))
        expected = 1.0 + 0.05 * (-2.0 * 1.0 + 4.0 * (0.0 - 1.0)) + 0.05
        assert out[0] == pytest.approx(expected)


class TestRunChain:
    def quadratic(self, n=100):
        return QuadraticTarget(np.array([1.0]), n=n)

    def test_seed_determinism(self):
        target = self.quadratic()
        cfg = SGLDConfig(n=100, beta=0.1, gamma=10.0, m=100, T=200, epsilon=1e-3, seed=5)
        a = run_chain(target, np.zeros(1), cfg)
        b = run_chain(target, np.zeros(1), cfg)
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(a.losses, b.losses)

    def test_different_seeds_differ(self):
        target = self.quadratic()
        cfg = SGLDConfig(n=100, beta=0.1, gamma=10.0, m=100, T=50, epsilon=1e-3, seed=1)
        a = run_chain(target, np.zeros(1), cfg)
        b = run_chain(target, np.zeros(1), replace(cfg, seed=2))
        assert np.max(np.abs(a.states - b.states)) > 0

    def test_zero_temperature_collapses_to_center(self):
        # beta = 0 and large gamma: deterministic contraction modulo noise scale
        target = self.quadratic()
        cfg = SGLDConfig(n=100, beta=1e-12, gamma=1000.0, m=100, T=400,
                         epsilon=1e-3, seed=3)
        start = np.array([4.0])
        trace = run_chain(target, np.zeros(1), cfg, init=start)
        # contraction factor 0.5 per step; stationary scale sqrt(eps/(1-0.25))
        tail = np.abs(trace.states[100:, 0])
        assert tail.max() < 0.2

    def test_mean_loss_above_center_loss(self):
        target = self.quadratic(n=1000)
        cfg = SGLDConfig(n=1000, beta=1.0, gamma=10.0, m=1000, T=4000,
                         epsilon=1e-4, seed=7)
        trace = run_chain(target, np.zeros(1), cfg)
        assert trace.losses[2000:].mean() > target.loss(np.zeros(1))

    def test_norm_cap_flagged(self):
        target = self.quadratic()
        cfg = SGLDConfig(n=100, beta=0.1, gamma=1.0, m=100, T=100, epsilon=1e-2,
                         seed=0, weight_norm_cap=1e-6)
        trace = run_chain(target, np.zeros(1), cfg)
        assert trace.norm_cap_violations > 0

    def test_divergence_aborts(self):
        class Explosive:
            n = 10
            dim = 1

            def loss(self, W):
                return W[:, 0] ** 2

            def grad(self, W, idx):
                return -np.array([1e308]) * np.sign(W + 0.1)

        cfg = SGLDConfig(n=10, beta=1.0, gamma=1.0, m=10, T=10, epsilon=1.0)
        with np.errstate(over="ignore"):
            with pytest.raises(ChainDivergedError):
                run_chain(Explosive(), np.zeros(1), cfg)

    def test_relabeling_with_matched_schedule(self):
        # permuting the dataset and composing the minibatch indices with the
        # same permutation yields the identical chain
        lang = random_language(3, Alphabet(2), 2)
        joint = conditional_operator(lang, 1, 1).joint()
        model = SoftmaxModel(k=1, l=1, alphabet_size=2)
        ds = sample_dataset(joint, 200, seed=4)
        fit = fit_model(model, ds)
        cfg = SGLDConfig(n=200, beta=0.05, gamma=2.0, m=32, T=60, epsilon=1e-3, seed=9)
        trace = run_chain(SoftmaxTarget(model, ds), fit.w, cfg)

        perm = np.random.default_rng(0).permutation(200)
        from seqmodes.model import Dataset

        permuted = Dataset(x_idx=ds.x_idx[perm], y_idx=ds.y_idx[perm], n_x=2, n_y=2)
        inverse = np.argsort(perm)

        class Relabeled:
            n = 200
            dim = model.dim

            def loss(self, W):
                from seqmodes.model import empirical_loss

                return np.array([empirical_loss(model, permuted, w) for w in W])

            def grad(self, W, idx):
                subs = np.stack([permuted.subset_counts(inverse[i]) for i in idx])
                return -model.weighted_grads(W, subs / idx.shape[1])

        trace2 = run_chain(Relabeled(), fit.w, cfg)
        np.testing.assert_allclose(trace.states, trace2.states, atol=1e-14)

    def test_minibatch_indices_reproducible(self):
        target = self.quadratic()
        cfg = SGLDConfig(n=100, beta=0.1, gamma=10.0, m=10, T=20, epsilon=1e-3, seed=11)
        trace = run_chain(target, np.zeros(1), cfg)
        a = trace.minibatch_indices(3)
        b = trace.minibatch_indices(3)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (10,)


def naive_chain(model, dataset, w_star, cfg):
    """One chain, step by step, from fresh (seed, tag, t) generators and the single-w API."""
    w = w_star.copy()
    states = [w]
    for t in range(1, cfg.T):
        if cfg.m >= cfg.n:
            coeff = dataset.empirical_joint()
        else:
            idx = keyed_generator(cfg.seed, BATCH_TAG, t).integers(0, cfg.n, size=cfg.m)
            coeff = dataset.subset_counts(idx) / cfg.m
        grad = -model.weighted_grad(w, coeff)
        eta = keyed_generator(cfg.seed, NOISE_TAG, t).standard_normal(w.size) * np.sqrt(cfg.epsilon)
        w = w + 0.5 * cfg.epsilon * (-cfg.n_beta * grad + cfg.gamma * (w_star - w)) + eta
        states.append(w)
    losses = [empirical_loss(model, dataset, state) for state in states]
    return np.array(states), np.array(losses)


class TestRunChains:
    def setup(self, parametrization, n=300):
        lang = random_language(4, Alphabet(3), 2)
        joint = conditional_operator(lang, 1, 1).joint()
        model = SoftmaxModel(k=1, l=1, alphabet_size=3, parametrization=parametrization,
                             rank=2 if parametrization == "low_rank" else None)
        dataset = sample_dataset(joint, n, seed=1)
        w_star = 0.3 * np.random.default_rng(2).standard_normal(model.dim)
        return model, dataset, w_star

    @pytest.mark.parametrize("parametrization", ["full_table", "low_rank"])
    @pytest.mark.parametrize("m", [300, 32])
    @pytest.mark.parametrize("rows", [1, 3])
    def test_matches_naive_loop(self, parametrization, m, rows):
        model, dataset, w_star = self.setup(parametrization)
        configs = [SGLDConfig(n=300, beta=0.05, gamma=2.0 + c, m=m, T=40,
                              epsilon=1e-3 * (c + 1), seed=20 + c) for c in range(rows)]
        traces = run_chains([SoftmaxTarget(model, dataset)] * rows, w_star, configs)
        assert len(traces) == rows
        for trace, cfg in zip(traces, configs):
            states, losses = naive_chain(model, dataset, w_star, cfg)
            np.testing.assert_array_equal(trace.states, states)
            np.testing.assert_array_equal(trace.losses, losses)

    def test_loss_blocks_do_not_change_losses(self, monkeypatch):
        model, dataset, w_star = self.setup("full_table")
        configs = [SGLDConfig(n=300, beta=0.05, gamma=2.0, m=32, T=50, epsilon=1e-3,
                              seed=c) for c in range(3)]
        target = SoftmaxTarget(model, dataset)
        whole = run_chains([target] * 3, w_star, configs)
        monkeypatch.setattr(sgld, "LOSS_BLOCK", 7)
        blocked = run_chains([target] * 3, w_star, configs)
        for a, b in zip(whole, blocked):
            np.testing.assert_array_equal(a.losses, b.losses)

    def test_shared_seed_rows_reproduce_coupled_deltas(self):
        model, ds_a, w_star = self.setup("full_table")
        ds_b = sample_dataset(ds_a.empirical_joint(), 300, seed=9)
        cfg = SGLDConfig(n=300, beta=0.05, gamma=2.0, m=32, T=60, epsilon=1e-3, seed=4)
        row_a, row_b = run_chains([SoftmaxTarget(model, ds_a), SoftmaxTarget(model, ds_b)],
                                  w_star, [cfg, cfg])
        coupled = run_coupled_chains(SoftmaxTarget(model, ds_a), SoftmaxTarget(model, ds_b), w_star, cfg)
        deltas = np.array([np.linalg.norm(a - b) for a, b in zip(row_a.states, row_b.states)])
        np.testing.assert_array_equal(coupled.deltas, deltas)
        assert deltas[0] == 0.0 and deltas[1:].max() > 0
        for row, dataset in ((row_a, ds_a), (row_b, ds_b)):
            np.testing.assert_array_equal(row.states, naive_chain(model, dataset, w_star, cfg)[0])

    def test_divergence_names_row_step_and_last_state(self):
        class Unstable:
            n = 10
            dim = 1

            def loss(self, W):
                return W[:, 0] ** 2

            def grad(self, W, idx):
                return -1e3 * W

        stable = QuadraticTarget(np.array([1.0]), n=10)
        cfg = SGLDConfig(n=10, beta=1.0, gamma=1.0, m=10, T=400, epsilon=1.0)
        configs = [replace(cfg, seed=s) for s in (0, 1, 2)]
        with np.errstate(over="ignore"):
            with pytest.raises(ChainDivergedError) as many:
                run_chains([stable, Unstable(), stable], np.zeros(1), configs)
            with pytest.raises(ChainDivergedError) as alone:
                run_chains([Unstable()], np.zeros(1), configs[1:2])
        step = many.value.diagnostics["step"]
        assert many.value.diagnostics == {"step": step, "row": 1}
        assert alone.value.diagnostics == {"step": step, "row": 0} and step > 1
        assert f"chain 1 at step {step}" in str(many.value)
        np.testing.assert_array_equal(many.value.last_state, alone.value.last_state)
        assert np.all(np.isfinite(many.value.last_state))

    def test_norm_cap_count(self):
        model, dataset, w_star = self.setup("full_table")
        configs = [SGLDConfig(n=300, beta=0.05, gamma=2.0, m=32, T=80, epsilon=1e-3,
                              seed=c, weight_norm_cap=0.45) for c in range(3)]
        traces = run_chains([SoftmaxTarget(model, dataset)] * 3, w_star, configs)
        for trace, cfg in zip(traces, configs):
            states, _ = naive_chain(model, dataset, w_star, cfg)
            expected = sum(np.linalg.norm(w - w_star) > 0.45 for w in states[1:])
            assert 0 < trace.norm_cap_violations == expected < cfg.T - 1

    def test_lockstep_rows_must_share_length(self):
        target = QuadraticTarget(np.array([1.0]), n=10)
        short = SGLDConfig(n=10, beta=1.0, gamma=1.0, m=10, T=5, epsilon=1e-3)
        long = SGLDConfig(n=10, beta=1.0, gamma=1.0, m=10, T=6, epsilon=1e-3)
        with pytest.raises(SGLDError):
            run_chains([target, target], np.zeros(1), [short, long])
        with pytest.raises(SGLDError):
            run_chains([], np.zeros(1), [])


class TestLlcEstimate:
    def test_constant_trace_zero(self):
        target = QuadraticTarget(np.array([1.0]), n=100)
        cfg = SGLDConfig(n=100, beta=0.1, gamma=10.0, m=100, T=10, epsilon=1e-12, seed=0)
        trace = run_chain(target, np.zeros(1), cfg)
        est = llc_estimate(trace)
        assert abs(est.lambda_hat) < 1e-6

    def test_quadratic_matches_gaussian_expectation(self):
        # Gaussian integral oracle: posterior variance 1/(n beta + gamma), so
        # lambda = n beta / (2 (n beta + gamma)); discretization bias is O(eps)
        n, nbeta, gamma = 1000, 1000.0, 100.0
        target = QuadraticTarget(np.array([1.0]), n=n)
        closed_form = 0.5 * nbeta / (nbeta + gamma)
        cfg = SGLDConfig(n=n, beta=nbeta / n, gamma=gamma, m=n, T=100_000,
                         epsilon=2e-5, seed=0)
        trace = run_chain(target, np.zeros(1), cfg)
        est = llc_estimate(trace)
        assert abs(est.lambda_hat - closed_form) / closed_form < 0.15

    def test_burn_in_recorded(self):
        target = QuadraticTarget(np.array([1.0]), n=100)
        cfg = SGLDConfig(n=100, beta=0.1, gamma=10.0, m=100, T=100, epsilon=1e-4,
                         seed=1, burn_in=0.25)
        trace = run_chain(target, np.zeros(1), cfg)
        est = llc_estimate(trace)
        assert est.burn_in == 0.25
        assert est.kept_states == 75

    def test_reference_loss_is_recorded_by_the_engine(self):
        # a minibatch softmax chain and a quadratic chain, each started away
        # from w*: the trace carries L_n(w*) itself, and λ̂ reads the trace alone
        lang = random_language(4, Alphabet(3), 2)
        model = SoftmaxModel(k=1, l=1, alphabet_size=3)
        dataset = sample_dataset(conditional_operator(lang, 1, 1).joint(), 300, seed=1)
        softmax_center = fit_model(model, dataset).w
        chains = [
            (SoftmaxTarget(model, dataset), softmax_center,
             SGLDConfig(n=300, beta=0.05, gamma=2.0, m=32, T=60, epsilon=1e-3, seed=3)),
            (QuadraticTarget(np.array([1.0, 3.0]), n=100), np.array([0.2, -0.1]),
             SGLDConfig(n=100, beta=0.1, gamma=10.0, m=100, T=80, epsilon=1e-3, seed=4)),
        ]
        for target, w_star, cfg in chains:
            init = w_star + 0.05 * np.arange(1, w_star.size + 1)
            trace = run_chain(target, w_star, cfg, init=init)
            reference = target.loss(w_star[None])[0]
            np.testing.assert_array_equal(trace.states[0], init)
            assert trace.losses[0] != reference
            assert trace.reference_loss == reference
            kept = trace.losses[int(cfg.burn_in * cfg.T):]
            assert llc_estimate(trace).lambda_hat == cfg.n_beta * (kept.mean() - reference)


class TestCoupledChains:
    def test_identical_datasets_zero_divergence(self):
        lang = random_language(6, Alphabet(2), 2)
        joint = conditional_operator(lang, 1, 1).joint()
        model = SoftmaxModel(k=1, l=1, alphabet_size=2)
        ds = sample_dataset(joint, 500, seed=2)
        fit = fit_model(model, ds)
        cfg = SGLDConfig(n=500, beta=0.02, gamma=2.0, m=64, T=100, epsilon=1e-3, seed=3)
        coupled = run_coupled_chains(SoftmaxTarget(model, ds), SoftmaxTarget(model, ds), fit.w, cfg)
        np.testing.assert_array_equal(coupled.deltas, np.zeros(100))
        np.testing.assert_array_equal(coupled.trace_true.states, coupled.trace_truncated.states)

    def test_fresh_draws_small_but_nonzero(self):
        lang = random_language(6, Alphabet(2), 2)
        joint = conditional_operator(lang, 1, 1).joint()
        model = SoftmaxModel(k=1, l=1, alphabet_size=2)
        ds1 = sample_dataset(joint, 2000, seed=5)
        ds2 = sample_dataset(joint, 2000, seed=6)
        fit = fit_model(model, ds1)
        cfg = SGLDConfig(n=2000, beta=0.005, gamma=2.0, m=2000, T=200,
                         epsilon=1e-3, seed=8)
        coupled = run_coupled_chains(SoftmaxTarget(model, ds1), SoftmaxTarget(model, ds2), fit.w, cfg)
        assert coupled.deltas[0] == 0.0
        assert 0 < coupled.deltas[1:].max() < 0.5

    def test_mismatched_sizes_rejected(self):
        lang = random_language(6, Alphabet(2), 2)
        joint = conditional_operator(lang, 1, 1).joint()
        model = SoftmaxModel(k=1, l=1, alphabet_size=2)
        ds1 = sample_dataset(joint, 100, seed=0)
        ds2 = sample_dataset(joint, 101, seed=1)
        cfg = SGLDConfig(n=100, beta=0.1, gamma=1.0, m=10, T=10, epsilon=1e-3)
        with pytest.raises(SGLDError):
            run_coupled_chains(SoftmaxTarget(model, ds1), SoftmaxTarget(model, ds2), np.zeros(2),
                               cfg)


class TestBounds:
    def config(self, epsilon=1e-4):
        return SGLDConfig(n=1000, beta=0.01, gamma=300.0, m=1000, T=100,
                          epsilon=epsilon)

    def test_t1_zero(self):
        assert bound_g(1, A=1.0, xi=0.0, config=self.config(), M=20.0) == 0.0

    def test_frozen_arithmetic(self):
        # high-precision oracle for nbeta=10, gamma=300, eps=1e-4, M=20, A=1, t=100
        cfg = self.config()
        assert bound_mu(cfg, 20.0) == pytest.approx(0.995, abs=1e-12)
        g = bound_g(100, A=1.0, xi=0.0, config=cfg, M=20.0)
        assert g == pytest.approx(0.0391185490964092245, rel=1e-12)

    def test_geometric_limit(self):
        cfg = self.config()
        g_large = bound_g(200_000, A=1.0, xi=0.0, config=cfg, M=20.0)
        limit = 1.0 / (300.0 / 10.0 - 20.0)
        assert g_large == pytest.approx(limit, rel=1e-9)

    def test_monotone_in_t_and_A(self):
        cfg = self.config()
        series = bound_g(np.arange(1, cfg.T + 1), A=1.0, xi=0.0, config=cfg, M=20.0)
        assert np.all(np.diff(series) >= 0)
        assert bound_g(50, 2.0, 0.0, cfg, 20.0) > bound_g(50, 1.0, 0.0, cfg, 20.0)

    def test_mu_in_unit_interval_inside_window(self):
        cfg = self.config()
        for M in (0.5, 5.0, 29.9):
            assert 0.0 < bound_mu(cfg, M) < 1.0

    def test_window_violation_raises(self):
        cfg = self.config()
        with pytest.raises(WindowViolationError):
            bound_g(10, 1.0, 0.0, cfg, M=40.0)  # M n beta = 400 > gamma
        big_eps = SGLDConfig(n=1000, beta=0.01, gamma=300.0, m=1000, T=100,
                             epsilon=0.5)
        with pytest.raises(WindowViolationError):
            bound_mu(big_eps, M=1.0)  # 10 < 300 - 4

    def test_bound_f(self):
        assert bound_f(7, 0.01) == pytest.approx(0.07)

    def test_estimator_bound_values(self):
        cfg = self.config()
        assert estimator_difference_bound(0, 0, 0, 0, Q=5.0, M=20.0, config=cfg) == 0.0
        assert estimator_difference_bound(1.0, 0.01, 0.0, 0.0, 5.0, 20.0, cfg) == pytest.approx(5.2)
        one = estimator_difference_bound(1.0, 0.0, 0.0, 0.0, 1.0, 20.0, cfg)
        five = estimator_difference_bound(1.0, 0.0, 0.0, 0.0, 5.0, 20.0, cfg)
        assert five == pytest.approx(5 * one)


class TestVolumeScaling:
    def test_one_dim_quadratic(self):
        fit = volume_scaling_fit(lambda w: w[:, 0] ** 2, 1, 1.0,
                                 np.geomspace(1e-6, 1e-2, 17), n_samples=200_000, seed=0)
        assert abs(fit.lambda_hat - 0.5) < 0.05
        assert not fit.log_correction_used

    def test_two_dim_quadratic(self):
        fit = volume_scaling_fit(lambda w: w[:, 0] ** 2 + w[:, 1] ** 2, 2, 1.0,
                                 np.geomspace(1e-6, 1e-2, 17), n_samples=400_000, seed=1)
        assert abs(fit.lambda_hat - 1.0) < 0.1

    def test_log_correction_detected(self):
        fit = volume_scaling_fit(lambda w: (w[:, 0] * w[:, 1]) ** 2, 2, 1.0,
                                 np.geomspace(1e-6, 1e-2, 17), n_samples=2_000_000, seed=2)
        assert fit.log_correction_used
        assert abs(fit.lambda_hat - 0.5) < 0.05
        assert fit.m_hat > 1.2

    def test_bad_epsilon_grid(self):
        with pytest.raises(SGLDError):
            volume_scaling_fit(lambda w: w[:, 0] ** 2, 1, 1.0, np.array([0.5, 1.5]))


class TestCoupledTrial:
    def test_trial_structure(self):
        lang = random_doubly_stochastic_language(7, 3)
        op = conditional_operator(lang, 1, 1)
        eff = truncate_kl(weighted_svd(op), 1)
        model = SoftmaxModel(k=1, l=1, alphabet_size=3)
        cfg = SGLDConfig(n=4000, beta=10.0 / 4000, gamma=2.5, m=4000, T=120,
                         epsilon=1e-3)
        res = coupled_bound_trial(model, op.joint(), eff.joint(), cfg, seed=0)
        assert res.window_ok
        assert res.delta_bound_ok
        assert res.llc_bound_ok
        assert res.g_series.shape == (120,)
        assert res.deltas[0] == 0.0
        summary = res.to_summary()
        assert sorted(summary) == sorted([
            "seed", "A_hat", "B_hat", "M_hat", "Q_hat", "region_radius", "window_ok",
            "delta_bound_ok", "lambda_true", "lambda_truncated", "lambda_diff",
            "estimator_bound", "llc_bound_ok", "max_delta"])
        assert summary["seed"] == 0
