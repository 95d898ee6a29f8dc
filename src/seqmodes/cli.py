"""Command-line front end: corpus → decomposition → truncation → experiments.

Every command reads one JSON config, and its flags override the config's
fields. :func:`main` runs the protocol that all seven commands share:

1. resolve the config: fold in ``command``, the default ``seed`` (0) and the
   output directory ``out`` (default ``.``, from ``--out`` or the config);
2. create ``out`` and write the resolved config to ``resolved_config.json``;
3. call ``cmd_<name>(config, out)``, which only reads its inputs, computes
   and writes its artifacts, and returns the name of its headline artifact;
4. print ``wrote <out>/<artifact>``.

Identical config and inputs produce identical bytes. Exit codes: 0 success,
2 input error, 3 missing upstream artifact or config file, 4 numerical
failure. On exit 4, ``numerical_failure.json`` with the diagnostics is written
into the resolved output directory, wherever ``out`` was given.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import corpus as corpus_mod
from .distribution import DistributionError, conditional_operator, language_from_json
from .model import ModelError, SoftmaxModel, fit_model, sample_dataset
from .modes import ModeError, decomposition_summary, truncated_weighted_svd, weighted_svd
from .sgld import (
    ChainDivergedError,
    SGLDConfig,
    SGLDError,
    SoftmaxTarget,
    WindowViolationError,
    bound_g,
    bound_g_limit,
    bound_mu,
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
    project_leq_chi,
    reconstruct_matrix,
    truncate,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_MISSING = 3
EXIT_NUMERICAL = 4

_REQUIRED = object()


class ConfigError(ValueError):
    pass


def write_json(path: Path, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, default=lambda v: v.tolist())
    path.write_text(text + "\n", encoding="utf-8")


def write_lines(path: Path, lines) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _field(config: dict, key: str, kind, default=_REQUIRED):
    """``config[key]`` converted by ``kind``; ``default`` when absent or null.

    A float field must be finite.
    """
    value = config.get(key)
    if value is None:
        if default is _REQUIRED:
            raise ConfigError(f"missing required config field {key!r}")
        return default
    try:
        converted = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"config field {key!r} must be {kind.__name__}, got {value!r}") from None
    if kind is float and not math.isfinite(converted):
        raise ConfigError(f"config field {key!r} must be finite, got {value!r}")
    return converted


def _load_config(args) -> dict:
    """The config file's fields, overridden by the flags given, plus command, seed and out."""
    config: dict = {}
    if args.config:
        path = _regular_file(Path(args.config), "config file")
        try:
            config = json.loads(path.read_text(encoding="utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
        if not isinstance(config, dict):
            raise ConfigError(f"config file {path} must hold a JSON object, "
                              f"not {type(config).__name__}")
    config.update({key: value for key, value in vars(args).items()
                   if key not in ("config", "func", "command") and value is not None})
    config["command"] = args.command
    config.setdefault("seed", 0)
    config["out"] = str(Path(_field(config, "out", str, ".")))
    return config


def _regular_file(path: Path, what: str) -> Path:
    """``path``, if it names a regular file (a missing one is a missing artifact)."""
    if not path.exists():
        raise FileNotFoundError(f"{what} {path}")
    if not path.is_file():
        raise ConfigError(f"{what} {path} is not a regular file")
    return path


def _input_path(config: dict, key: str, what: str) -> Path:
    return _regular_file(Path(_field(config, key, str)), what)


def _load_operator(config: dict):
    """Operator from either a counts table or an exact language file."""
    if config.get("counts"):
        table = corpus_mod.read_count_table(_input_path(config, "counts", "counts table"))
        return corpus_mod.build_conditional_matrix(
            table,
            lambda_smooth=_field(config, "lambda_smooth", float, 1e-5),
            policy=config.get("policy", "stochastic"),
        )
    if config.get("language"):
        path = _input_path(config, "language", "language file")
        try:
            lang = language_from_json(path.read_text(encoding="utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"language file {path} is not valid JSON: {exc}") from None
        return conditional_operator(lang, _field(config, "k", int), _field(config, "l", int))
    raise ConfigError("either 'counts' or 'language' must be provided")


def _label(tokens) -> str:
    return ",".join(str(t) for t in tokens)


def _full_table_size(op) -> int:
    """Alphabet size when the operator covers the full product space.

    It does when its x and y labels are all k- and l-tuples in order, that
    is, when their codes run 0, 1, ..., |Σ|^k − 1 and 0, 1, ..., |Σ|^l − 1.
    """
    size = int(round(len(op.x_labels) ** (1.0 / op.k)))
    for labels, width in ((op.x_labels, op.k), (op.y_labels, op.l)):
        if len(labels) != size**width or not np.array_equal(
                corpus_mod._encode(labels, width, size), np.arange(size**width)):
            raise ConfigError(
                "llc/couple experiments need an operator over the full product space; "
                "a frequency-filtered counts table drops contexts or continuations"
            )
    return size


# ---------------------------------------------------------------------------
# Commands: each reads its inputs, writes its artifacts into ``out`` and
# returns the name of the headline artifact.
# ---------------------------------------------------------------------------

def cmd_ingest(config: dict, out: Path) -> str:
    stream = corpus_mod.read_token_stream(_input_path(config, "corpus", "corpus file"))
    table = corpus_mod.stream_ngram_counts(
        stream,
        k=_field(config, "k", int),
        l=_field(config, "l", int),
        min_count=_field(config, "min_count", int, 1),
        min_y_count=_field(config, "min_y_count", int, 1),
    )
    corpus_mod.write_count_table(table, out / "counts.tsv")
    write_json(out / "ingest_meta.json", {
        "documents": len(stream.lengths),
        "alphabet_size": stream.alphabet_size,
        "total_windows": table.total_windows(),
        "retained_contexts": len(table.x_counts),
        "retained_pairs": len(table.xy_counts),
    })
    return "counts.tsv"


def cmd_decompose(config: dict, out: Path) -> str:
    rank = _field(config, "rank", int, None)
    if rank is not None and rank < 1:
        raise ConfigError(f"rank must be at least 1, got {rank}")
    op = _load_operator(config)
    if rank is not None and rank < min(op.n_y, op.n_x):
        dec = truncated_weighted_svd(op, rank=rank)
    else:
        dec = weighted_svd(op)
    requested = dec.n_modes if rank is None else rank
    payload = decomposition_summary(dec, top_components=_field(config, "top", int, 0) or requested)
    padding = requested - len(payload["singular_values"])
    if padding > 0:
        payload["singular_values"] += [0.0] * padding
        payload["rank_padded"] = True
    write_json(out / "decomposition.json", payload)
    if config.get("dense"):
        write_json(out / "decomposition_dense.json", {
            "singular_values": dec.singular_values,
            "left_vectors": dec.left_vectors,
            "right_vectors": dec.right_vectors,
            "marginal": dec.marginal,
        })
    write_lines(out / "top_loadings.txt", [
        f"component {comp['index']}: s = {comp['singular_value']:.6g}; u = "
        + " + ".join(f"{v:.4g}*[{lab}]" for lab, v in comp["left_loadings"][:4])
        for comp in payload["components"]
    ])
    return "decomposition.json"


def cmd_truncate(config: dict, out: Path) -> str:
    dec = weighted_svd(_load_operator(config))
    chi = _field(config, "chi", int)
    solver = config.get("solver", "kl")
    if solver == "projection_only":
        provenance = {"chi": chi, "solver": solver, "normalized": False}
        header = [f"#chi {chi}", f"#solver {solver}", "#normalized false"]
        column, table = "value", project_leq_chi(dec, reconstruct_matrix(dec), chi)
    else:
        eff = truncate(dec, chi, solver)
        provenance = dict(eff.provenance)
        header = [f"#{key} {value}" for key, value in sorted(provenance.items())]
        column, table = "probability", eff.conditional
    write_lines(out / "effective.tsv", [
        f"#k {dec.k}", f"#l {dec.l}", *header, f"#columns y_ids\tx_ids\t{column}",
        *(f"{_label(y)}\t{_label(x)}\t{table[yi, xi]:.17g}"
          for xi, x in enumerate(dec.x_labels) for yi, y in enumerate(dec.y_labels)),
    ])
    write_json(out / "truncation_provenance.json", provenance)
    return "effective.tsv"


def _sample_size(config: dict, default: int) -> int:
    n = _field(config, "n", int, default)
    if n < 1:
        raise ConfigError(f"n must be at least 1, got {n}")
    return n


def _sgld_config_from(config: dict, n: int, seed: int):
    preset = config.get("preset")
    if preset == "paper":
        defaults = {"beta": 10.0 / n, "gamma": 300.0, "T": 100, "epsilon": 1e-4}
    elif preset is None:
        defaults = {"beta": 10.0 / n, "gamma": 2.5, "T": 400, "epsilon": 1e-3}
    else:
        raise ConfigError(f"unknown preset {preset!r}")
    return SGLDConfig(
        n=n,
        beta=_field(config, "beta", float, defaults["beta"]),
        gamma=_field(config, "gamma", float, defaults["gamma"]),
        m=_field(config, "m", int, n),
        T=_field(config, "T", int, defaults["T"]),
        epsilon=_field(config, "epsilon", float, defaults["epsilon"]),
        seed=seed,
        burn_in=_field(config, "burn_in", float, 0.5),
        weight_norm_cap=_field(config, "weight_norm_cap", float, None),
    )


def _model_from(config: dict, k: int, l: int, alphabet_size: int) -> SoftmaxModel:
    return SoftmaxModel(
        k=k, l=l, alphabet_size=alphabet_size,
        parametrization=config.get("parametrization", "full_table"),
        rank=_field(config, "model_rank", int, None),
        pinned=_field(config, "pinned", bool, True),
    )


def cmd_llc(config: dict, out: Path) -> str:
    op = _load_operator(config)
    model = _model_from(config, op.k, op.l, _full_table_size(op))
    n = _sample_size(config, 10000)
    seed = _field(config, "seed", int)
    dataset = sample_dataset(op.joint(), n, seed=seed)
    fit = fit_model(model, dataset)
    chains = _field(config, "chains", int, 8)
    configs = [_sgld_config_from(config, n, seed=seed + c) for c in range(chains)]
    traces = run_chains([SoftmaxTarget(model, dataset)] * chains, fit.w, configs)
    estimates = [llc_estimate(trace).lambda_hat for trace in traces]
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
    return "llc_estimate.json"


def _write_trace_csv(path: Path, trace, deltas=None, g_series=None) -> None:
    dist = trace.distances_to_center()
    epsilon = trace.config.epsilon
    header = "t,epsilon,loss,distance_to_center"
    if deltas is not None:
        header += ",delta,g_bound"
    rows = [header]
    for t in range(trace.T):
        row = f"{t + 1},{epsilon:.17g},{trace.losses[t]:.17g},{dist[t]:.17g}"
        if deltas is not None:
            g = g_series[t] if g_series is not None else float("nan")
            row += f",{deltas[t]:.17g},{g:.17g}"
        rows.append(row)
    write_lines(path, rows)


def cmd_couple(config: dict, out: Path) -> str:
    seeds = _field(config, "n_seeds", int, 1)
    if seeds < 1:
        raise ConfigError(f"n_seeds must be at least 1, got {seeds}")
    op = _load_operator(config)
    dec = weighted_svd(op)
    chi = _field(config, "chi", int)
    eff = truncate(dec, chi, config.get("solver", "kl"))
    model = _model_from(config, op.k, op.l, _full_table_size(op))
    n = _sample_size(config, 20000)
    base_seed = _field(config, "seed", int)
    cfg = _sgld_config_from(config, n, seed=base_seed)
    results = [
        coupled_bound_trial(model, op.joint(), eff.joint(), cfg, seed=base_seed + s)
        for s in range(seeds)
    ]
    first = results[0]
    _write_trace_csv(out / "coupled_trace.csv", first.coupled.trace_true,
                     deltas=first.deltas, g_series=first.g_series)
    write_json(out / "coupled_report.json", {
        "n_seeds": seeds,
        "window_pass": sum(r.window_ok for r in results),
        "delta_bound_pass": sum(r.delta_bound_ok for r in results),
        "llc_bound_pass": sum(r.llc_bound_ok for r in results),
        "per_seed": [r.to_summary() for r in results],
        "chi": chi,
        "truncation_kl": eff.provenance.get("kl_divergence"),
        "hyperparameters": {
            "n": cfg.n, "beta": cfg.beta, "n_beta": cfg.n_beta, "gamma": cfg.gamma,
            "m": cfg.m, "T": cfg.T, "eps_min": cfg.epsilon, "eps_max": cfg.epsilon,
            "seed": base_seed,
        },
    })
    return "coupled_report.json"


def cmd_bounds(config: dict, out: Path) -> str:
    n = _sample_size(config, 20000)
    cfg = _sgld_config_from(config, n, seed=_field(config, "seed", int))
    A, B, Q, M = (_field(config, name, float) for name in ("A", "B", "Q", "M"))
    xi = _field(config, "xi", float, 0.0)
    kappa = _field(config, "kappa", float, 0.0)
    if Q > 10.0:
        print("note: Q exceeds the gradient-norm scale (10) reported for large runs")
    mu = bound_mu(cfg, M)  # outside the hyperparameter window: WindowViolationError
    g = bound_g(np.arange(1, cfg.T + 1), A, xi, cfg, M)
    write_lines(out / "bound_table.csv", ["t,g", *(f"{t + 1},{g[t]:.17g}" for t in range(cfg.T))])
    write_json(out / "bounds.json", {
        "mu": mu,
        "g_final": g[-1],
        "g_limit": bound_g_limit(cfg, A, xi, M),
        "estimator_difference_bound": estimator_difference_bound(A, B, xi, kappa, Q, M, cfg),
        "window": cfg.window_check(M)[1],
        "A": A, "B": B, "Q": Q, "M": M, "xi": xi, "kappa": kappa,
    })
    return "bounds.json"


def cmd_examples(config: dict, out: Path) -> str:
    stream = corpus_mod.read_token_stream(_input_path(config, "corpus", "corpus file"))
    op = _load_operator(config)
    component = _field(config, "component", int, 0)
    # The leading component + 1 triples serve a positive mode; a kernel or
    # out-of-range component needs the full decomposition.
    dec = truncated_weighted_svd(op, rank=max(component, 0) + 1)
    if component >= dec.n_plus:
        dec = weighted_svd(op)
    examples = corpus_mod.extract_contextual_examples(
        stream, dec, component,
        window=_field(config, "window", int, 50),
        loading_fraction=_field(config, "loading_fraction", float, 0.1),
    )
    write_lines(out / "contextual_examples.txt", [
        f"component {component}: {len(examples)} example(s)",
        *(f"... {' '.join(map(str, before))} [{_label(x)} | {_label(y)}] "
          f"{' '.join(map(str, after))} ..."
          for before, x, y, after in examples[:_field(config, "max_examples", int, 20)]),
    ])
    return "contextual_examples.txt"


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

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="master seed")
        p.add_argument("--out", help="output directory")
        p.set_defaults(func=func)
        return p

    def add(p, kind, *names):  # "--min-count" sets config field "min_count"
        for name in names:
            p.add_argument(f"--{name}", type=kind)

    p = command("ingest", cmd_ingest, "count n-gram windows in a token corpus")
    add(p, str, "corpus")
    add(p, int, "k", "l", "min-count", "min-y-count")

    p = command("decompose", cmd_decompose, "weighted SVD of a conditional operator")
    add(p, str, "counts", "language")
    add(p, int, "k", "l", "rank", "top")
    add(p, float, "lambda-smooth")
    p.add_argument("--policy", choices=["paper", "stochastic"])
    p.add_argument("--dense", action="store_true", default=None)

    p = command("truncate", cmd_truncate, "effective distribution from a mode cutoff")
    add(p, str, "counts", "language")
    add(p, int, "k", "l", "chi")
    add(p, float, "lambda-smooth")
    p.add_argument("--policy", choices=["paper", "stochastic"])
    p.add_argument("--solver", choices=["projection_only", "normalized", "kl"])

    p = command("llc", cmd_llc, "SGLD-based learning-coefficient estimate")
    p.add_argument("--preset", choices=["paper"])
    add(p, str, "language", "counts")
    add(p, int, "k", "l", "n", "chains", "T", "m")
    add(p, float, "beta", "gamma", "epsilon")

    p = command("couple", cmd_couple, "coupled chains against a truncated loss")
    p.add_argument("--preset", choices=["paper"])
    add(p, str, "language", "counts")
    add(p, int, "k", "l", "chi", "n", "n-seeds", "T")
    p.add_argument("--solver", choices=["normalized", "kl"])
    add(p, float, "beta", "gamma", "epsilon")

    p = command("bounds", cmd_bounds, "evaluate the trajectory and estimator bounds")
    add(p, float, "A", "B", "Q", "M", "xi", "kappa", "beta", "gamma", "epsilon")
    add(p, int, "n", "T")

    p = command("examples", cmd_examples, "contextual corpus examples for a component")
    add(p, str, "corpus", "counts", "language")
    add(p, int, "k", "l", "component", "window")
    add(p, float, "loading-fraction")
    return parser


_parser = None  # built on the first main() call, then reused


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        config = _load_config(args)
        out = Path(config["out"])
        try:
            out.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError):
            raise ConfigError(f"out {out} is not a directory and cannot become one") from None
        write_json(out / "resolved_config.json", config)
        artifact = args.func(config, out)
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
        # only a command raises these, so ``out`` is resolved and exists
        write_json(out / "numerical_failure.json",
                   {"error": str(exc), "diagnostics": exc.diagnostics})
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (TruncationError, SGLDError, ModelError, ModeError, MemoryError) as exc:
        print(f"input error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_INPUT
    print(f"wrote {out / artifact}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
