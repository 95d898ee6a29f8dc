"""Spans around seqmodes' public functions, recorded from outside the package.

A :class:`Tracer` replaces a function at the module attribute its caller looks
up (``seqmodes.cli.run_chain``, ``seqmodes.corpus.stream_ngram_counts``, ...)
with a wrapper that records one span per call: name, layer, start, end, parent
span and job id. Spans stay in memory until the run ends. Counts are taken
from arguments and return values by small counter functions; each counter runs
inside its own ``bench.count`` span so that its cost shows up as tracing
overhead instead of inflating the caller's self time.

No per-step function is wrapped: per-step cost is a chain's self time divided
by its step count.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

LAYERS = ("corpus", "modes", "truncation", "model", "sgld", "distribution", "cli")


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    job: int | None
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans and named counts for one process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.job: int | None = None
        self._jobs = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, layer, time.perf_counter(), math.nan, parent, self.job))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int, error: BaseException | None = None) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        if error is not None:
            span.error = type(error).__name__
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span.name} closed out of order")

    def start_job(self) -> int:
        """Open the root span of a new job; later spans carry its job id."""
        self.job = self._jobs
        self._jobs += 1
        return self.open("job", "bench")

    def end_job(self, root: int) -> None:
        self.close(root)
        self.job = None

    def add(self, key: str, value: float) -> None:
        self.counts[key] += float(value)

    # -- wrapping ------------------------------------------------------------

    def wrap(self, module, attr: str, name: str, layer: str, counter=None) -> None:
        """Replace ``module.attr`` with a span-recording wrapper.

        ``counter(tracer, args, kwargs, result, error)`` runs after the span
        closes, inside a ``bench.count`` span.
        """
        original = getattr(module, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            index = tracer.open(name, layer)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                tracer.close(index, exc)
                if counter is not None:
                    tracer._count(counter, args, kwargs, None, exc)
                raise
            tracer.close(index)
            if counter is not None:
                tracer._count(counter, args, kwargs, result, None)
            return result

        wrapper.__wrapped__ = original
        self._patched.append((module, attr, original))
        setattr(module, attr, wrapper)

    def _count(self, counter, args, kwargs, result, error) -> None:
        index = self.open("bench.count", "bench")
        try:
            counter(self, args, kwargs, result, error)
        finally:
            self.close(index)

    def restore(self) -> None:
        """Put back every original function, newest patch first."""
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the time its direct children cover."""
        own = np.array([s.duration for s in self.spans])
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.duration
        return own

    def total(self, name: str) -> float:
        return float(sum(s.duration for s in self.spans if s.name == name))

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def layer_self_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            out[span.layer] += float(own)
        return dict(out)

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "layer": s.layer, "start": s.start, "end": s.end,
             "parent": s.parent, "job": s.job, "error": s.error}
            for s in self.spans
        ]


# ---------------------------------------------------------------------------
# Counters: read counts from arguments and return values.
# ---------------------------------------------------------------------------

def _count_tokens(tr, args, kwargs, stream, error):
    if stream is not None:
        tr.add("corpus.tokens", sum(len(doc) for doc in stream.records))


def _count_windows(tr, args, kwargs, table, error):
    if table is not None:
        tr.add("corpus.windows", table.total_windows())


def _count_operator(tr, args, kwargs, op, error):
    if op is not None:
        table = args[0] if args else kwargs["counts"]
        tr.add("corpus.operator_cells", op.matrix.size)
        tr.add("corpus.operator_nnz", len(table.xy_counts))


def _count_fit(tr, args, kwargs, fit, error):
    if fit is not None:
        tr.add("model.fit_iterations", fit.iterations)


def _count_lipschitz(tr, args, kwargs, lip, error):
    sample = args[2] if len(args) > 2 else kwargs["region_sample"]
    tr.add("model.lipschitz_points", len(sample))
    if lip is not None and not lip.power_iterations_converged:
        tr.add("model.lipschitz_unconverged", 1)


def _count_insensitivity(tr, args, kwargs, report, error):
    sample = args[3] if len(args) > 3 else kwargs["region_sample"]
    tr.add("model.insensitivity_points", len(sample))


def _count_kl(tr, args, kwargs, eff, error):
    from seqmodes.modes import reconstruct_matrix
    from seqmodes.truncation import InfeasibleTruncationError, kl_conditional

    if isinstance(error, InfeasibleTruncationError):
        # Every language the benchmark truncates is doubly stochastic, so the
        # uniform conditional is feasible at every cutoff: infeasible is false.
        tr.add("truncation.kl_false_infeasible", 1)
        return
    if eff is None:
        return
    kl = float(eff.provenance.get("kl_divergence", math.nan))
    tr.add("truncation.kl_iterations", eff.provenance.get("iterations", 0))
    if not math.isfinite(kl):
        tr.add("truncation.kl_nonfinite", 1)
        return
    dec = args[0] if args else kwargs["dec"]
    truth = reconstruct_matrix(dec)
    uniform = np.full_like(truth, 1.0 / truth.shape[0])
    if kl <= kl_conditional(truth, uniform, dec.marginal) + 1e-9:
        tr.add("truncation.kl_verified", 1)


def _count_chain(tr, args, kwargs, trace, error):
    if trace is not None:
        tr.add("sgld.chain_steps", trace.T)
        tr.add("sgld.norm_cap_violations", trace.norm_cap_violations)


def _count_coupled(tr, args, kwargs, coupled, error):
    if coupled is not None:
        tr.add("sgld.coupled_steps", coupled.trace_true.T)
        tr.add("sgld.norm_cap_violations", coupled.trace_true.norm_cap_violations
               + coupled.trace_truncated.norm_cap_violations)


def _count_trial(tr, args, kwargs, trial, error):
    if trial is not None:
        tr.add("sgld.bound_passes", (trial.window_ok and trial.delta_bound_ok)
               + (trial.window_ok and trial.llc_bound_ok))


def instrument(tracer: Tracer) -> None:
    """Wrap each public seqmodes function the CLI pipeline calls, where it is looked up."""
    import seqmodes.cli as cli
    import seqmodes.corpus as corpus
    import seqmodes.modes as modes
    import seqmodes.sgld as sgld
    import seqmodes.truncation as truncation

    w = tracer.wrap
    w(corpus, "read_token_stream", "corpus.read_token_stream", "corpus", _count_tokens)
    w(corpus, "stream_ngram_counts", "corpus.stream_ngram_counts", "corpus", _count_windows)
    w(corpus, "write_count_table", "corpus.write_count_table", "corpus")
    w(corpus, "read_count_table", "corpus.read_count_table", "corpus")
    w(corpus, "build_conditional_matrix", "corpus.build_conditional_matrix", "corpus",
      _count_operator)
    w(cli, "language_from_json", "distribution.language_from_json", "distribution")
    w(cli, "conditional_operator", "distribution.conditional_operator", "distribution")
    w(cli, "weighted_svd", "modes.weighted_svd", "modes")
    w(modes, "weighted_svd", "modes.weighted_svd", "modes")  # truncated path's fallback
    w(cli, "truncated_weighted_svd", "modes.truncated_weighted_svd", "modes")
    w(cli, "decomposition_summary", "modes.decomposition_summary", "modes")
    w(cli, "truncate", "truncation.truncate", "truncation")
    w(truncation, "truncate_kl", "truncation.truncate_kl", "truncation", _count_kl)
    for module in (cli, sgld):
        w(module, "sample_dataset", "model.sample_dataset", "model")
        w(module, "fit_model", "model.fit_model", "model", _count_fit)
        w(module, "run_coupled_chains", "sgld.run_coupled_chains", "sgld", _count_coupled)
        w(module, "llc_estimate", "sgld.llc_estimate", "sgld")
    w(sgld, "lipschitz_estimates", "model.lipschitz_estimates", "model", _count_lipschitz)
    w(sgld, "insensitivity_report", "model.insensitivity_report", "model", _count_insensitivity)
    w(cli, "run_chain", "sgld.run_chain", "sgld", _count_chain)
    w(cli, "coupled_bound_trial", "sgld.coupled_bound_trial", "sgld", _count_trial)
    w(cli, "main", "cli.main", "cli")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# (name, unit) of every per-layer metric, in the order they are printed.
PER_LAYER = (
    ("corpus.read_s", "s"), ("corpus.count_s", "s"), ("corpus.table_io_s", "s"),
    ("corpus.build_s", "s"), ("corpus.tokens", "count"), ("corpus.windows", "count"),
    ("corpus.count_ns_per_window", "ns"), ("corpus.operator_cells", "count"),
    ("corpus.operator_nnz", "count"), ("corpus.operator_fill", "1"),
    ("modes.svd_truncated_s", "s"), ("modes.svd_truncated_calls", "count"),
    ("modes.svd_dense_s", "s"), ("modes.svd_dense_calls", "count"), ("modes.summary_s", "s"),
    ("truncation.kl_s", "s"), ("truncation.kl_solves", "count"),
    ("truncation.kl_iterations", "count"), ("truncation.kl_nonfinite", "count"),
    ("truncation.kl_false_infeasible", "count"), ("truncation.kl_ok_ratio", "1"),
    ("model.sample_s", "s"), ("model.fit_s", "s"), ("model.fit_iterations", "count"),
    ("model.lipschitz_s", "s"), ("model.lipschitz_points", "count"),
    ("model.lipschitz_unconverged", "count"), ("model.insensitivity_s", "s"),
    ("model.insensitivity_points", "count"),
    ("sgld.chain_s", "s"), ("sgld.chain_steps", "count"), ("sgld.chain_step_us", "us"),
    ("sgld.coupled_s", "s"), ("sgld.coupled_steps", "count"), ("sgld.coupled_step_us", "us"),
    ("sgld.estimate_s", "s"), ("sgld.trial_s", "s"), ("sgld.trials", "count"),
    ("sgld.bound_pass_ratio", "1"), ("sgld.norm_cap_violations", "count"),
    ("distribution.operator_s", "s"),
    ("cli.self_s", "s"), ("cli.coupled_runs_per_trial", "1"),
    ("corpus.self_s", "s"), ("modes.self_s", "s"), ("truncation.self_s", "s"),
    ("model.self_s", "s"), ("sgld.self_s", "s"), ("distribution.self_s", "s"),
    ("bench.self_s", "s"), ("trace.overhead_s", "s"),
)


def per_layer_metrics(tracer: Tracer, passes: int, traced_wall_s: float,
                      untraced_wall_s: float) -> dict[str, float]:
    """Per-layer numbers for one job list: times and counts divided by ``passes``."""
    t, n, c = tracer.total, tracer.calls, tracer.counts
    own = tracer.self_times()
    self_by_name: dict[str, float] = defaultdict(float)
    for span, s in zip(tracer.spans, own):
        self_by_name[span.name] += float(s)
    layer_self = tracer.layer_self_times()

    count_s = t("corpus.stream_ngram_counts")
    kl_solves = n("truncation.truncate_kl")
    trials = n("sgld.coupled_bound_trial")
    raw = {
        "corpus.read_s": t("corpus.read_token_stream"),
        "corpus.count_s": count_s,
        "corpus.table_io_s": t("corpus.write_count_table") + t("corpus.read_count_table"),
        "corpus.build_s": t("corpus.build_conditional_matrix"),
        "corpus.tokens": c["corpus.tokens"],
        "corpus.windows": c["corpus.windows"],
        "corpus.operator_cells": c["corpus.operator_cells"],
        "corpus.operator_nnz": c["corpus.operator_nnz"],
        "modes.svd_truncated_s": t("modes.truncated_weighted_svd"),
        "modes.svd_truncated_calls": n("modes.truncated_weighted_svd"),
        "modes.svd_dense_s": t("modes.weighted_svd"),
        "modes.svd_dense_calls": n("modes.weighted_svd"),
        "modes.summary_s": t("modes.decomposition_summary"),
        "truncation.kl_s": t("truncation.truncate_kl"),
        "truncation.kl_solves": kl_solves,
        "truncation.kl_iterations": c["truncation.kl_iterations"],
        "truncation.kl_nonfinite": c["truncation.kl_nonfinite"],
        "truncation.kl_false_infeasible": c["truncation.kl_false_infeasible"],
        "model.sample_s": t("model.sample_dataset"),
        "model.fit_s": t("model.fit_model"),
        "model.fit_iterations": c["model.fit_iterations"],
        "model.lipschitz_s": t("model.lipschitz_estimates"),
        "model.lipschitz_points": c["model.lipschitz_points"],
        "model.lipschitz_unconverged": c["model.lipschitz_unconverged"],
        "model.insensitivity_s": t("model.insensitivity_report"),
        "model.insensitivity_points": c["model.insensitivity_points"],
        "sgld.chain_s": t("sgld.run_chain"),
        "sgld.chain_steps": c["sgld.chain_steps"],
        "sgld.coupled_s": t("sgld.run_coupled_chains"),
        "sgld.coupled_steps": c["sgld.coupled_steps"],
        "sgld.estimate_s": t("sgld.llc_estimate"),
        "sgld.trial_s": t("sgld.coupled_bound_trial"),
        "sgld.trials": trials,
        "sgld.norm_cap_violations": c["sgld.norm_cap_violations"],
        "distribution.operator_s": t("distribution.language_from_json")
        + t("distribution.conditional_operator"),
    }
    raw.update({f"{layer}.self_s": layer_self.get(layer, 0.0) for layer in LAYERS})
    raw["bench.self_s"] = layer_self.get("bench", 0.0)
    out = {key: value / passes for key, value in raw.items()}
    out.update({
        "corpus.count_ns_per_window": 1e9 * _ratio(count_s, c["corpus.windows"]),
        "corpus.operator_fill": _ratio(c["corpus.operator_nnz"], c["corpus.operator_cells"]),
        "truncation.kl_ok_ratio": _ratio(c["truncation.kl_verified"], kl_solves),
        "sgld.chain_step_us": 1e6 * _ratio(self_by_name["sgld.run_chain"],
                                           c["sgld.chain_steps"]),
        "sgld.coupled_step_us": 1e6 * _ratio(self_by_name["sgld.run_coupled_chains"],
                                             c["sgld.coupled_steps"]),
        "sgld.bound_pass_ratio": _ratio(c["sgld.bound_passes"], 2 * trials),
        "cli.coupled_runs_per_trial": _ratio(n("sgld.run_coupled_chains"), trials),
        "trace.overhead_s": traced_wall_s - untraced_wall_s,
    })
    return {name: out[name] for name, _ in PER_LAYER}
