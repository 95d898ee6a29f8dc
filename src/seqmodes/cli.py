"""Command-line front end: corpus → decomposition → truncation → experiments.

Every command reads one JSON config (flags override fields), writes its
outputs plus the fully resolved config into the output directory, and is
idempotent: identical config and inputs produce identical bytes. Exit codes:
0 success, 2 input error, 3 missing upstream artifact, 4 numerical failure
(with a diagnostics file).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import corpus as corpus_mod
from .distribution import (
    DistributionError,
    conditional_operator,
    language_from_json,
)
from .model import SoftmaxModel, fit_model, sample_dataset
from .modes import decomposition_summary, truncated_weighted_svd, weighted_svd
from .sgld import (
    ChainDivergedError,
    SGLDError,
    WindowViolationError,
    as_target,
    bound_g_series,
    bound_mu,
    constant_schedule,
    coupled_bound_trial,
    llc_estimate,
    estimator_difference_bound,
    run_chain,  # noqa: F401 -- kept in this namespace, where perfbench/tracing.py wraps it
    run_chains,
    run_coupled_chains,  # noqa: F401 -- likewise
)
from .truncation import (
    InfeasibleTruncationError,
    TruncationError,
    TruncationSpec,
    project_leq_chi,
    reconstruct_matrix,
    truncate,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_MISSING = 3
EXIT_NUMERICAL = 4


class ConfigError(ValueError):
    pass


def _fmt(value):
    if isinstance(value, float):
        return float(f"{value:.17g}")
    if isinstance(value, dict):
        return {k: _fmt(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_fmt(float(v)) for v in value.ravel()]
    if isinstance(value, (np.floating,)):
        return float(f"{float(value):.17g}")
    if isinstance(value, (np.integer,)):
        return int(value)
    return value


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(_fmt(payload), indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _load_config(args) -> dict:
    config: dict = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise FileNotFoundError(f"config file {path}")
        config = json.loads(path.read_text(encoding="utf-8"))
    overrides = {
        key: value
        for key, value in vars(args).items()
        if key not in ("config", "func", "command") and value is not None
    }
    config.update(overrides)
    return config


def _require(config: dict, key: str):
    if key not in config or config[key] is None:
        raise ConfigError(f"missing required config field {key!r}")
    return config[key]


def _outdir(config: dict) -> Path:
    out = Path(config.get("out", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _resolve_and_echo(config: dict, out: Path, command: str) -> dict:
    resolved = dict(config)
    resolved["command"] = command
    resolved.setdefault("seed", 0)
    resolved["out"] = str(out)
    write_json(out / "resolved_config.json", resolved)
    return resolved


def _load_operator(config: dict):
    """Operator from either a counts table or an exact language file."""
    if config.get("counts"):
        path = Path(config["counts"])
        if not path.exists():
            raise FileNotFoundError(f"counts table {path}")
        table = corpus_mod.read_count_table(path)
        return corpus_mod.build_conditional_matrix(
            table,
            lambda_smooth=float(config.get("lambda_smooth", 1e-5)),
            policy=config.get("policy", "stochastic"),
        )
    if config.get("language"):
        path = Path(config["language"])
        if not path.exists():
            raise FileNotFoundError(f"language file {path}")
        lang = language_from_json(path.read_text(encoding="utf-8"))
        return conditional_operator(lang, int(_require(config, "k")), int(_require(config, "l")))
    raise ConfigError("either 'counts' or 'language' must be provided")


def _label(tokens) -> str:
    return ",".join(str(t) for t in tokens)


def _full_table_size(op) -> int:
    """Alphabet size when the operator covers the full product space."""
    size = int(round(len(op.x_labels) ** (1.0 / op.k)))
    import itertools

    complete_x = tuple(itertools.product(range(size), repeat=op.k))
    complete_y = tuple(itertools.product(range(size), repeat=op.l))
    if op.x_labels != complete_x or op.y_labels != complete_y:
        raise ConfigError(
            "llc/couple experiments need an operator over the full product space; "
            "a frequency-filtered counts table drops contexts or continuations"
        )
    return size


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------

def cmd_ingest(args) -> int:
    config = _load_config(args)
    corpus_path = Path(_require(config, "corpus"))
    if not corpus_path.exists():
        raise FileNotFoundError(f"corpus file {corpus_path}")
    out = _outdir(config)
    _resolve_and_echo(config, out, "ingest")
    stream = corpus_mod.read_token_stream(corpus_path)
    table = corpus_mod.stream_ngram_counts(
        stream,
        k=int(_require(config, "k")),
        l=int(_require(config, "l")),
        min_count=int(config.get("min_count", 1)),
        min_y_count=int(config.get("min_y_count", 1)),
    )
    corpus_mod.write_count_table(table, out / "counts.tsv")
    write_json(out / "ingest_meta.json", {
        "documents": len(stream.records),
        "alphabet_size": stream.alphabet_size,
        "total_windows": table.total_windows(),
        "retained_contexts": len(table.x_counts),
        "retained_pairs": len(table.xy_counts),
    })
    print(f"wrote {out / 'counts.tsv'}")
    return EXIT_OK


def cmd_decompose(args) -> int:
    config = _load_config(args)
    out = _outdir(config)
    _resolve_and_echo(config, out, "decompose")
    op = _load_operator(config)
    rank = config.get("rank")
    if rank is not None and int(rank) < min(op.matrix.shape):
        dec = truncated_weighted_svd(op, rank=int(rank))
        requested = int(rank)
    else:
        dec = weighted_svd(op)
        requested = int(rank) if rank is not None else dec.n_modes
    payload = decomposition_summary(dec, top_components=int(config.get("top", 0)) or requested)
    n_available = len(payload["singular_values"])
    if requested > n_available:
        payload["singular_values"] += [0.0] * (requested - n_available)
        payload["rank_padded"] = True
    text_lines = []
    for comp in payload["components"]:
        terms = " + ".join(f"{v:.4g}*[{lab}]" for lab, v in comp["left_loadings"][:4])
        text_lines.append(
            f"component {comp['index']}: s = {comp['singular_value']:.6g}; u = {terms}"
        )
    write_json(out / "decomposition.json", payload)
    if config.get("dense"):
        write_json(out / "decomposition_dense.json", {
            "singular_values": [float(s) for s in dec.singular_values],
            "left_vectors": [[float(v) for v in row] for row in dec.left_vectors],
            "right_vectors": [[float(v) for v in row] for row in dec.right_vectors],
            "marginal": [float(v) for v in dec.marginal],
        })
    (out / "top_loadings.txt").write_text("\n".join(text_lines) + "\n", encoding="utf-8")
    print(f"wrote {out / 'decomposition.json'}")
    return EXIT_OK


def _write_effective(out: Path, eff, name="effective.tsv") -> None:
    lines = [f"#k {eff.k}", f"#l {eff.l}"]
    for key, value in sorted(eff.provenance.items()):
        lines.append(f"#{key} {value}")
    lines.append("#columns y_ids\tx_ids\tprobability")
    for xi, x in enumerate(eff.x_labels):
        for yi, y in enumerate(eff.y_labels):
            lines.append(f"{_label(y)}\t{_label(x)}\t{eff.conditional[yi, xi]:.17g}")
    (out / name).write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_truncate(args) -> int:
    config = _load_config(args)
    out = _outdir(config)
    _resolve_and_echo(config, out, "truncate")
    op = _load_operator(config)
    dec = weighted_svd(op)
    chi = int(_require(config, "chi"))
    solver = config.get("solver", "kl")
    if solver == "projection_only":
        raw = project_leq_chi(dec, reconstruct_matrix(dec), chi)
        lines = [f"#k {dec.k}", f"#l {dec.l}", f"#chi {chi}", "#solver projection_only",
                 "#normalized false", "#columns y_ids\tx_ids\tvalue"]
        for xi, x in enumerate(dec.x_labels):
            for yi, y in enumerate(dec.y_labels):
                lines.append(f"{_label(y)}\t{_label(x)}\t{raw[yi, xi]:.17g}")
        (out / "effective.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        write_json(out / "truncation_provenance.json",
                   {"chi": chi, "solver": solver, "normalized": False})
    else:
        spec = TruncationSpec(
            chi=chi, solver=solver,
            tolerance=float(config.get("tolerance", 1e-9)),
            max_iterations=int(config.get("max_iterations", 10000)),
        )
        eff = truncate(dec, spec)
        _write_effective(out, eff)
        write_json(out / "truncation_provenance.json", dict(eff.provenance))
    print(f"wrote {out / 'effective.tsv'}")
    return EXIT_OK


def _sgld_config_from(config: dict, n: int, seed: int):
    preset = config.get("preset")
    if preset == "paper":
        defaults = {"beta": 10.0 / n, "gamma": 300.0, "T": 100, "epsilon": 1e-4}
    elif preset is None:
        defaults = {"beta": 10.0 / n, "gamma": 2.5, "T": 400, "epsilon": 1e-3}
    else:
        raise ConfigError(f"unknown preset {preset!r}")
    return constant_schedule(
        n=n,
        beta=float(config.get("beta", defaults["beta"])),
        gamma=float(config.get("gamma", defaults["gamma"])),
        m=int(config.get("m", n)),
        T=int(config.get("T", defaults["T"])),
        epsilon=float(config.get("epsilon", defaults["epsilon"])),
        seed=seed,
        burn_in=float(config.get("burn_in", 0.5)),
        weight_norm_cap=config.get("weight_norm_cap"),
    )


def _model_from(config: dict, k: int, l: int, alphabet_size: int) -> SoftmaxModel:
    return SoftmaxModel(
        k=k, l=l, alphabet_size=alphabet_size,
        parametrization=config.get("parametrization", "full_table"),
        rank=config.get("model_rank"),
        pinned=bool(config.get("pinned", True)),
    )


def cmd_llc(args) -> int:
    config = _load_config(args)
    out = _outdir(config)
    resolved = _resolve_and_echo(config, out, "llc")
    op = _load_operator(config)
    model = _model_from(config, op.k, op.l, _full_table_size(op))
    n = int(config.get("n", 10000))
    seed = int(resolved["seed"])
    dataset = sample_dataset(op.joint(), n, seed=seed)
    fit = fit_model(model, dataset)
    chains = int(config.get("chains", 8))
    configs = [_sgld_config_from(config, n, seed=seed + c) for c in range(chains)]
    traces = run_chains([as_target(model, dataset)] * chains, fit.w, configs)
    estimates = [llc_estimate(trace, model, dataset, fit.w, cfg).lambda_hat
                 for trace, cfg in zip(traces, configs)]
    _write_trace_csv(out / "trace_chain0.csv", traces[0])
    write_json(out / "llc_estimate.json", {
        "lambda_hat_mean": float(np.mean(estimates)),
        "lambda_hat_per_chain": estimates,
        "model_dim": model.dim,
        "n": n,
        "chains": chains,
        "fit_converged": fit.converged,
        "fit_grad_norm": fit.grad_norm,
        "seed": seed,
    })
    print(f"wrote {out / 'llc_estimate.json'}")
    return EXIT_OK


def _write_trace_csv(path: Path, trace, deltas=None, g_series=None) -> None:
    dist = trace.distances_to_center()
    header = "t,epsilon,loss,distance_to_center"
    if deltas is not None:
        header += ",delta,g_bound"
    rows = [header]
    for t in range(trace.T):
        row = f"{t + 1},{trace.epsilons[t]:.17g},{trace.losses[t]:.17g},{dist[t]:.17g}"
        if deltas is not None:
            g = g_series[t] if g_series is not None else float("nan")
            row += f",{deltas[t]:.17g},{g:.17g}"
        rows.append(row)
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def cmd_couple(args) -> int:
    config = _load_config(args)
    out = _outdir(config)
    resolved = _resolve_and_echo(config, out, "couple")
    op = _load_operator(config)
    dec = weighted_svd(op)
    chi = int(_require(config, "chi"))
    spec = TruncationSpec(chi=chi, solver=config.get("solver", "kl"))
    eff = truncate(dec, spec)
    model = _model_from(config, op.k, op.l, _full_table_size(op))
    n = int(config.get("n", 20000))
    seeds = int(config.get("n_seeds", 1))
    base_seed = int(resolved["seed"])
    cfg = _sgld_config_from(config, n, seed=base_seed)
    results = [
        coupled_bound_trial(model, op.joint(), eff.joint(), cfg, seed=base_seed + s)
        for s in range(seeds)
    ]
    first = results[0]
    _write_trace_csv(out / "coupled_trace.csv", first.coupled.trace_true,
                     deltas=first.deltas, g_series=first.g_series)
    summary = {
        "n_seeds": seeds,
        "window_pass": sum(r.window_ok for r in results),
        "delta_bound_pass": sum(r.delta_bound_ok for r in results),
        "llc_bound_pass": sum(r.llc_bound_ok for r in results),
        "per_seed": [r.to_summary() for r in results],
        "chi": chi,
        "truncation_kl": eff.provenance.get("kl_divergence"),
        "hyperparameters": {
            "n": cfg.n, "beta": cfg.beta, "n_beta": cfg.n_beta, "gamma": cfg.gamma,
            "m": cfg.m, "T": cfg.T, "eps_min": cfg.eps_min, "eps_max": cfg.eps_max,
            "seed": base_seed,
        },
    }
    write_json(out / "coupled_report.json", summary)
    print(f"wrote {out / 'coupled_report.json'}")
    return EXIT_OK


def cmd_bounds(args) -> int:
    config = _load_config(args)
    out = _outdir(config)
    _resolve_and_echo(config, out, "bounds")
    n = int(config.get("n", 20000))
    cfg = _sgld_config_from(config, n, seed=int(config.get("seed", 0)))
    A = float(_require(config, "A"))
    B = float(_require(config, "B"))
    Q = float(_require(config, "Q"))
    M = float(_require(config, "M"))
    xi = float(config.get("xi", 0.0))
    kappa = float(config.get("kappa", 0.0))
    if Q > 10.0:
        print("note: Q exceeds the gradient-norm scale (10) reported for large runs")
    ok, text = cfg.window_check(M)
    if not ok:
        print(f"hyperparameter window violated: {text}")
        return EXIT_INPUT
    mu = bound_mu(cfg, M)
    g = bound_g_series(cfg, A, xi, M)
    main = estimator_difference_bound(A, B, xi, kappa, Q, M, cfg)
    rows = ["t,g"] + [f"{t + 1},{g[t]:.17g}" for t in range(cfg.T)]
    (out / "bound_table.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    write_json(out / "bounds.json", {
        "mu": mu,
        "g_final": float(g[-1]),
        "g_limit": float((cfg.eps_max / cfg.eps_min) * (A + xi) / (cfg.gamma / cfg.n_beta - M)),
        "estimator_difference_bound": main,
        "window": text,
        "A": A, "B": B, "Q": Q, "M": M, "xi": xi, "kappa": kappa,
    })
    print(f"wrote {out / 'bounds.json'}")
    return EXIT_OK


def cmd_examples(args) -> int:
    config = _load_config(args)
    out = _outdir(config)
    _resolve_and_echo(config, out, "examples")
    corpus_path = Path(_require(config, "corpus"))
    if not corpus_path.exists():
        raise FileNotFoundError(f"corpus file {corpus_path}")
    stream = corpus_mod.read_token_stream(corpus_path)
    op = _load_operator(config)
    dec = weighted_svd(op)
    component = int(config.get("component", 0))
    examples = corpus_mod.extract_contextual_examples(
        stream, dec, component,
        window=int(config.get("window", 50)),
        loading_fraction=float(config.get("loading_fraction", 0.1)),
    )
    lines = [f"component {component}: {len(examples)} example(s)"]
    for before, x, y, after in examples[: int(config.get("max_examples", 20))]:
        lines.append(
            f"... {' '.join(map(str, before))} [{_label(x)} | {_label(y)}] "
            f"{' '.join(map(str, after))} ..."
        )
    (out / "contextual_examples.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {out / 'contextual_examples.txt'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser and entry point.
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqmodes",
        description="modal decomposition, mode truncation, and LLC experiments "
                    "for finite sequence distributions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="master seed")
        p.add_argument("--out", help="output directory")

    p = sub.add_parser("ingest", help="count n-gram windows in a token corpus")
    common(p)
    p.add_argument("--corpus")
    p.add_argument("--k", type=int)
    p.add_argument("--l", type=int)
    p.add_argument("--min-count", dest="min_count", type=int)
    p.add_argument("--min-y-count", dest="min_y_count", type=int)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("decompose", help="weighted SVD of a conditional operator")
    common(p)
    p.add_argument("--counts")
    p.add_argument("--language")
    p.add_argument("--k", type=int)
    p.add_argument("--l", type=int)
    p.add_argument("--lambda-smooth", dest="lambda_smooth", type=float)
    p.add_argument("--policy", choices=["paper", "stochastic"])
    p.add_argument("--rank", type=int)
    p.add_argument("--top", type=int)
    p.add_argument("--dense", action="store_true", default=None)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("truncate", help="effective distribution from a mode cutoff")
    common(p)
    p.add_argument("--counts")
    p.add_argument("--language")
    p.add_argument("--k", type=int)
    p.add_argument("--l", type=int)
    p.add_argument("--lambda-smooth", dest="lambda_smooth", type=float)
    p.add_argument("--policy", choices=["paper", "stochastic"])
    p.add_argument("--chi", type=int)
    p.add_argument("--solver", choices=["projection_only", "normalized", "kl"])
    p.set_defaults(func=cmd_truncate)

    p = sub.add_parser("llc", help="SGLD-based learning-coefficient estimate")
    common(p)
    p.add_argument("--preset", choices=["paper"])
    p.add_argument("--language")
    p.add_argument("--counts")
    p.add_argument("--k", type=int)
    p.add_argument("--l", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--chains", type=int)
    p.add_argument("--beta", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--T", type=int)
    p.add_argument("--m", type=int)
    p.set_defaults(func=cmd_llc)

    p = sub.add_parser("couple", help="coupled chains against a truncated loss")
    common(p)
    p.add_argument("--preset", choices=["paper"])
    p.add_argument("--language")
    p.add_argument("--counts")
    p.add_argument("--k", type=int)
    p.add_argument("--l", type=int)
    p.add_argument("--chi", type=int)
    p.add_argument("--solver", choices=["normalized", "kl"])
    p.add_argument("--n", type=int)
    p.add_argument("--n-seeds", dest="n_seeds", type=int)
    p.add_argument("--beta", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--T", type=int)
    p.set_defaults(func=cmd_couple)

    p = sub.add_parser("bounds", help="evaluate the trajectory and estimator bounds")
    common(p)
    for name in ("A", "B", "Q", "M", "xi", "kappa", "beta", "gamma", "epsilon"):
        p.add_argument(f"--{name}", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--T", type=int)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("examples", help="contextual corpus examples for a component")
    common(p)
    p.add_argument("--corpus")
    p.add_argument("--counts")
    p.add_argument("--language")
    p.add_argument("--k", type=int)
    p.add_argument("--l", type=int)
    p.add_argument("--component", type=int)
    p.add_argument("--window", type=int)
    p.add_argument("--loading-fraction", dest="loading_fraction", type=float)
    p.set_defaults(func=cmd_examples)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"missing artifact: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except WindowViolationError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INPUT
    except (ConfigError, corpus_mod.CorpusError, DistributionError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (InfeasibleTruncationError, ChainDivergedError) as exc:
        out = Path(getattr(args, "out", None) or ".")
        out.mkdir(parents=True, exist_ok=True)
        diagnostics = getattr(exc, "diagnostics", {"step": getattr(exc, "step", None)})
        write_json(out / "numerical_failure.json",
                   {"error": str(exc), "diagnostics": diagnostics})
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (TruncationError, SGLDError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
