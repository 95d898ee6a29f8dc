"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import json
import time

import numpy as np
import pytest

from _fixtures import (
    k3_language_with_balanced_front,
    sample_bigram_corpus,
    write_token_stream,
)
from seqmodes.cli import main as cli_main
from seqmodes.distribution import (
    Alphabet,
    check_language,
    conditional_operator,
    fundamental_tensor,
    language_to_json,
    plant_absolute_bigram,
    plant_collective_bigram,
    random_doubly_stochastic_language,
    random_language,
)
from seqmodes.model import (
    SoftmaxModel,
    composite_model_for,
    fit_model,
    grad_log_prob,
    log_prob,
    sample_dataset,
)
from seqmodes.modes import (
    gram_mode_basis,
    hs_norm,
    mode_coefficients,
    reconstruct_matrix,
    weighted_svd,
)
from seqmodes.sgld import (
    QuadraticTarget,
    SGLDConfig,
    SoftmaxTarget,
    coupled_bound_trials,
    llc_estimate,
    run_chains,
    volume_scaling_fit,
)
from seqmodes.truncation import (
    multi_length_truncation,
    subspace_distance,
    truncate_kl,
    truncate_normalized,
)


def report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {number:2d}: {status} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def mode_fixtures():
    """20 random languages over |Σ| ∈ {2,3,4} and (k,l) ∈ {(1,1),(2,1),(1,2)}."""
    combos = []
    seed = 0
    while len(combos) < 20:
        for size in (2, 3, 4):
            for k, l in ((1, 1), (2, 1), (1, 2)):
                combos.append((seed, size, k, l))
                seed += 1
    fixtures = []
    for seed, size, k, l in combos[:20]:
        lang = random_language(seed, Alphabet(size), k + l)
        op = conditional_operator(lang, k, l)
        fixtures.append((lang, op, weighted_svd(op)))
    return fixtures


_t_fixtures = time.perf_counter()
FIXTURES = mode_fixtures()
FIXTURE_BUILD_SECONDS = time.perf_counter() - _t_fixtures


def test_criterion_01_mode_basis_orthonormality():
    t0 = time.perf_counter()
    worst = 0.0
    for _, _, dec in FIXTURES:
        gram = gram_mode_basis(dec)
        worst = max(worst, float(np.max(np.abs(gram - np.eye(gram.shape[0])))))
    elapsed = time.perf_counter() - t0 + FIXTURE_BUILD_SECONDS
    report(1, worst < 1e-10 and elapsed < 10.0,
           f"max Gram deviation {worst:.2e} over 20 fixtures in {elapsed:.2f}s")


def test_criterion_02_exact_reconstruction():
    worst = 0.0
    for _, op, dec in FIXTURES:
        worst = max(worst, float(np.max(np.abs(reconstruct_matrix(dec) - op.matrix))))
    report(2, worst < 1e-10, f"max |Σ_α q(y|x,α)q(α) − q(y|x)| = {worst:.2e}")


def test_criterion_03_absolute_bigram():
    worst_oracle = 0.0
    worst_planted = 0.0
    cases = [
        (random_language(0, Alphabet(3), 2), (1,), (2,)),
        (random_language(1, Alphabet(2), 2), (0,), (0,)),
        (random_language(2, Alphabet(2), 3), (0, 1), (1,)),
        (random_language(3, Alphabet(4), 2), (3,), (0,)),
    ]
    for lang, x, y in cases:
        planted = plant_absolute_bigram(lang, x, y)
        op = conditional_operator(planted, len(x), len(y))
        dec = weighted_svd(op)
        oracle = np.linalg.svd(op.matrix @ np.diag(np.sqrt(op.marginal)), compute_uv=False)
        padded = np.zeros_like(dec.singular_values)
        padded[: oracle.size] = oracle
        worst_oracle = max(worst_oracle, float(np.max(np.abs(dec.singular_values - padded))))
        q_x = float(op.marginal[op.x_labels.index(tuple(x))])
        worst_planted = max(worst_planted,
                          float(np.min(np.abs(dec.singular_values - np.sqrt(q_x)))))
    ok = worst_oracle < 1e-10 and worst_planted < 1e-10
    report(3, ok, f"spectrum vs oracle {worst_oracle:.2e}; "
                  f"|s − q(x)^1/2| at planted mode {worst_planted:.2e}")


def test_criterion_04_collective_bigram():
    records = []
    ok = True
    for seed, S, y, size in [(7, [(0,), (1,)], (2,), 3), (8, [(0,), (2,), (3,)], (1,), 4)]:
        lang = plant_collective_bigram(random_language(seed, Alphabet(size), 2), S, y)
        op = conditional_operator(lang, 1, 1)
        dec = weighted_svd(op)
        oracle = np.linalg.svd(op.matrix @ np.diag(np.sqrt(op.marginal)), compute_uv=False)
        padded = np.zeros_like(dec.singular_values)
        padded[: oracle.size] = oracle
        ok &= float(np.max(np.abs(dec.singular_values - padded))) < 1e-10
        q_y = float(fundamental_tensor(lang, 2).sum(axis=0)[y[0]])
        derived = np.sqrt(q_y)
        nominal = np.sqrt(q_y) * np.sqrt(len(S))
        ok &= float(np.min(np.abs(oracle - derived))) < 1e-10
        records.append(
            f"|S|={len(S)}: oracle block value {derived:.6f}, "
            f"nominal constant q(y)^(1/2)|S|^(1/2) = {nominal:.6f} "
            f"(discrepancy {abs(nominal - derived):.4f}, documented)"
        )
    report(4, ok, "; ".join(records))


def test_criterion_05_language_consistency():
    worst = 0.0
    for seed, size, K in [(0, 2, 2), (1, 3, 2), (2, 4, 2), (3, 2, 3), (4, 3, 3)]:
        lang = random_language(seed, Alphabet(size), K)
        family = [fundamental_tensor(lang, k) for k in range(1, K + 1)]
        worst = max(worst, check_language(family))
    lang = random_language(5, Alphabet(2), 2)
    family = [fundamental_tensor(lang, 1) + np.array([0.1, -0.1]), lang.joint]
    detected = check_language(family)
    ok = worst < 1e-12 and detected >= 0.099
    report(5, ok, f"generated-language deviation {worst:.2e}; "
                  f"injected 0.1 perturbation detected at {detected:.4f}")


def test_criterion_06_parseval():
    rng = np.random.default_rng(0)
    worst = 0.0
    for i in range(50):
        _, op, dec = FIXTURES[i % len(FIXTURES)]
        f = rng.standard_normal(op.matrix.shape)
        lhs = hs_norm(f, dec.marginal) ** 2
        rhs = float(np.sum(mode_coefficients(dec, f) ** 2))
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-300))
    report(6, worst < 1e-8, f"max relative Parseval defect {worst:.2e} over 50 draws")


def test_criterion_07_gradient_correctness():
    h = 1e-5
    worst = 0.0
    rng = np.random.default_rng(1)
    models = [
        SoftmaxModel(k=1, l=1, alphabet_size=3),
        SoftmaxModel(k=2, l=1, alphabet_size=2),
        SoftmaxModel(k=1, l=1, alphabet_size=3, parametrization="low_rank", rank=2),
        SoftmaxModel(k=1, l=2, alphabet_size=2, parametrization="low_rank", rank=3),
    ]
    evals = 0
    while evals < 100:
        model = models[evals % len(models)]
        w = rng.standard_normal(model.dim) * 0.8
        x = int(rng.integers(model.n_x))
        y = int(rng.integers(model.n_y))
        analytic = grad_log_prob(model, x, y, w)
        numeric = np.zeros_like(w)
        for i in range(w.size):
            e = np.zeros_like(w)
            e[i] = h
            numeric[i] = (log_prob(model, x, y, w + e) - log_prob(model, x, y, w - e)) / (2 * h)
        rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(analytic), 1.0)
        worst = max(worst, float(rel))
        evals += 1
    report(7, worst < 1e-6, f"max relative gradient error {worst:.2e} over 100 evals")


def test_criterion_08_regular_model_llc():
    t0 = time.perf_counter()
    lang = random_language(101, Alphabet(2), 2)
    op = conditional_operator(lang, 1, 1)
    model = SoftmaxModel(k=1, l=1, alphabet_size=2)
    assert model.dim == 2
    n = 10_000
    dataset = sample_dataset(op.joint(), n, seed=500)
    fit = fit_model(model, dataset)
    beta = 1.0 / np.log(n)
    configs = [SGLDConfig(n=n, beta=beta, gamma=1.0, m=2048, T=10_000,
                          epsilon=5e-4, seed=seed) for seed in range(8)]
    traces = run_chains([SoftmaxTarget(model, dataset)] * 8, fit.w, configs)
    lams = [llc_estimate(trace).lambda_hat for trace in traces]
    mean = float(np.mean(lams))
    elapsed = time.perf_counter() - t0
    ok = 0.75 <= mean <= 1.25 and elapsed < 300.0
    report(8, ok, f"mean λ̂ = {mean:.4f} over 8 chains (target d/2 = 1 ± 25%) "
                  f"in {elapsed:.1f}s")


def test_criterion_09_volume_oracle_agreement():
    n, nbeta, gamma = 1000, 1000.0, 100.0
    target = QuadraticTarget(np.array([1.0]), n=n)
    closed_form = 0.5 * nbeta / (nbeta + gamma)
    configs = [SGLDConfig(n=n, beta=nbeta / n, gamma=gamma, m=n, T=100_000,
                          epsilon=2e-5, seed=seed) for seed in range(8)]
    traces = run_chains([target] * 8, np.zeros(1), configs)
    lams = [llc_estimate(trace).lambda_hat for trace in traces]
    sgld_rel = abs(float(np.mean(lams)) - closed_form) / closed_form

    eps_grid = np.geomspace(1e-6, 1e-2, 17)
    fit1 = volume_scaling_fit(lambda w: w[:, 0] ** 2, 1, 1.0, eps_grid,
                              n_samples=1_000_000, seed=0)
    fit2 = volume_scaling_fit(lambda w: w[:, 0] ** 2 + w[:, 1] ** 2, 2, 1.0, eps_grid,
                              n_samples=1_000_000, seed=1)
    fit3 = volume_scaling_fit(lambda w: (w[:, 0] * w[:, 1]) ** 2, 2, 1.0, eps_grid,
                              n_samples=4_000_000, seed=2)
    errs = (abs(fit1.lambda_hat - 0.5) / 0.5, abs(fit2.lambda_hat - 1.0),
            abs(fit3.lambda_hat - 0.5) / 0.5)
    ok = sgld_rel < 0.05 and all(e < 0.10 for e in errs)
    report(9, ok,
           f"SGLD vs Gaussian closed form rel err {sgld_rel:.3%}; volume fits "
           f"λ = {fit1.lambda_hat:.3f}/{fit2.lambda_hat:.3f}/{fit3.lambda_hat:.3f} "
           f"(targets 0.5/1/0.5)")


@pytest.fixture(scope="module")
def coupled_experiment():
    t0 = time.perf_counter()
    lang = random_doubly_stochastic_language(7, 3)
    op = conditional_operator(lang, 1, 1)
    dec = weighted_svd(op)
    eff = truncate_kl(dec, 1)  # mid-spectrum cutoff: drop the smallest of 3 modes
    model = SoftmaxModel(k=1, l=1, alphabet_size=3)
    n = 20_000
    cfg = SGLDConfig(n=n, beta=10.0 / n, gamma=2.5, m=n, T=400, epsilon=1e-3)
    results = list(coupled_bound_trials(model, op.joint(), eff.joint(), cfg, range(100)))
    return results, time.perf_counter() - t0


def test_criterion_10_trajectory_bound(coupled_experiment):
    results, elapsed = coupled_experiment
    window = sum(r.window_ok for r in results)
    passes = sum(r.window_ok and r.delta_bound_ok for r in results)
    ok = passes >= 95 and elapsed < 600.0
    report(10, ok, f"Δ_t ≤ g(t, Â) in {passes}/100 runs "
                   f"(window held in {window}/100) in {elapsed:.1f}s")


def test_criterion_11_estimator_difference_bound(coupled_experiment):
    results, _ = coupled_experiment
    passes = sum(r.window_ok and r.llc_bound_ok for r in results)
    diffs = [r.lambda_diff for r in results]
    bounds = [r.estimator_bound for r in results if r.estimator_bound is not None]
    ok = passes >= 95
    report(11, ok, f"|λ̂ − λ̂^(χ)| within bound in {passes}/100 runs "
                   f"(median diff {np.median(diffs):.3f}, median bound {np.median(bounds):.3f})")


def test_criterion_12_truncation_optimality():
    ok = True
    details = []
    for seed, size in [(0, 3), (1, 3), (2, 4)]:
        lang = random_doubly_stochastic_language(seed, size)
        op = conditional_operator(lang, 1, 1)
        dec = weighted_svd(op)
        kls = []
        for chi in range(dec.n_modes):
            eff_kl = truncate_kl(dec, chi)
            kls.append(eff_kl.provenance["kl_divergence"])
            eff_norm = truncate_normalized(dec, chi)
            if subspace_distance(dec, eff_norm.conditional, chi) < 1e-9:
                ok &= (eff_kl.provenance["kl_divergence"]
                       <= eff_norm.provenance["kl_divergence"] + 1e-9)
        ok &= all(lo <= hi + 1e-9 for lo, hi in zip(kls[1:], kls[:-1]))
        full_kl = truncate_kl(dec, dec.n_modes - 1)
        full_norm = truncate_normalized(dec, dec.n_modes - 1)
        ok &= float(np.max(np.abs(full_kl.conditional - op.matrix))) < 1e-10
        ok &= float(np.max(np.abs(full_norm.conditional - op.matrix))) < 1e-10
        details.append(f"|Σ|={size} KL sweep {['%.4f' % v for v in kls]}")
    report(12, ok, "; ".join(details))


def test_criterion_13_composite_truncation():
    lang = k3_language_with_balanced_front(seed=1)
    pairs = [(2, 1), (1, 1)]
    full = multi_length_truncation(lang, pairs, [-1, -1], solver="kl")
    exact = float(np.max(np.abs(full.joint - lang.joint)))

    # the (1,1) level over a binary alphabet has two modes, so cutting at
    # index 0 is the genuine mid-spectrum truncation
    comp = multi_length_truncation(lang, pairs, [-1, 0], solver="kl")
    model = composite_model_for(2, pairs, base_marginal=fundamental_tensor(lang, 1))
    rng = np.random.default_rng(3)
    grid = [rng.standard_normal(model.dim) * 0.8 for _ in range(50)]

    def level_joints(joint, k_i, l_i):
        width = k_i + l_i
        marg = joint.reshape((lang.size,) * lang.K)
        marg = marg.sum(axis=tuple(range(width, lang.K)))
        return marg.reshape(lang.size**k_i, lang.size**l_i).T  # (n_y, n_x)

    gaps = np.zeros((len(grid), len(pairs)))
    totals = np.zeros(len(grid))
    for gi, w in enumerate(grid):
        parts = model.split_weights(w)
        for i, (k_i, l_i) in enumerate(pairs):
            q_marg = level_joints(lang.joint, k_i, l_i)
            c_marg = level_joints(comp.joint, k_i, l_i)
            logp = model.levels[i].log_conditional_matrix(parts[i])
            gaps[gi, i] = abs(float(np.sum((q_marg - c_marg) * logp)))
        totals[gi] = abs(model.population_loss(lang.joint, w)
                         - model.population_loss(comp.joint, w))
    epsilon_sum = float(gaps.max(axis=0).sum())
    bound_holds = bool(np.all(totals <= epsilon_sum + 1e-10))
    ok = exact < 1e-10 and bound_holds
    report(13, ok, f"full-cutoff reproduction {exact:.2e}; "
                   f"max |L − L^(χ̄)| = {totals.max():.4f} ≤ Σε_i = {epsilon_sum:.4f} "
                   f"on 50 random weights")


def test_criterion_14_pipeline_determinism(tmp_path):
    lang = random_doubly_stochastic_language(7, 3)
    stream = sample_bigram_corpus(lang, n_docs=40, doc_len=30, seed=2)
    corpus_path = tmp_path / "corpus.txt"
    write_token_stream(stream, corpus_path)
    lang_path = tmp_path / "language.json"
    lang_path.write_text(language_to_json(lang))

    def run(root):
        root.mkdir()
        argvs = [
            ["ingest", "--corpus", str(corpus_path), "--k", "1", "--l", "1",
             "--out", str(root / "counts"), "--seed", "11"],
            ["decompose", "--counts", str(root / "counts" / "counts.tsv"),
             "--lambda-smooth", "1e-5", "--out", str(root / "dec"), "--seed", "11"],
            ["truncate", "--language", str(lang_path), "--k", "1", "--l", "1",
             "--chi", "1", "--solver", "kl", "--out", str(root / "tr"), "--seed", "11"],
            ["llc", "--language", str(lang_path), "--k", "1", "--l", "1",
             "--n", "1500", "--chains", "2", "--T", "150", "--epsilon", "1e-3",
             "--gamma", "2.5", "--out", str(root / "llc"), "--seed", "11"],
            ["couple", "--language", str(lang_path), "--k", "1", "--l", "1",
             "--chi", "1", "--n", "1500", "--T", "100", "--epsilon", "1e-3",
             "--gamma", "2.5", "--out", str(root / "couple"), "--seed", "11"],
        ]
        artifacts = ["counts/counts.tsv", "dec/decomposition.json", "tr/effective.tsv",
                     "llc/llc_estimate.json", "llc/trace_chain0.csv",
                     "couple/coupled_report.json", "couple/coupled_trace.csv"]
        for argv in argvs:
            assert cli_main(argv) == 0
        return {a: (root / a).read_bytes() for a in artifacts}

    t0 = time.perf_counter()
    first = run(tmp_path / "run1")
    single_run = time.perf_counter() - t0
    second = run(tmp_path / "run2")
    identical = all(first[a] == second[a] for a in first)
    report(14, identical and single_run < 60.0,
           f"{len(first)} pipeline artifacts bit-identical across reruns "
           f"(one end-to-end run took {single_run:.1f}s)")
