"""SGLD sampling of the localized tempered posterior and LLC estimation.

The update is w += (ε/2)[−βn ∇L_m(w) + γ(w* − w)] + η with η drawn per
coordinate from N(0, ε), for one constant step size ε per chain
(:class:`SGLDConfig`; the CLI's ``--preset paper`` is its nβ = 10, γ = 300,
T = 100, ε = 1e-4 case). A chain runs on a target of one of two kinds, each
with a dataset size ``n``, a dimension ``dim`` and batched full-data losses
over a (B, dim) stack of states. One without a model (:class:`QuadraticTarget`)
gives its full-data gradient. A :class:`SoftmaxTarget` names the ``model``
whose one gradient kernel gives its gradient on its joints, holds its
full-data ``joint`` and samples minibatch joints: m uniform draws with
replacement enter the gradient only through their (n_y, n_x) count table,
Multinomial(m, N/n) for the dataset's count table N, which the sampler draws.

One engine, :func:`run_chains`, advances every chain: the rows of a (C, d)
state array move in lockstep, one step at a time, each localized at its own
centre w*. Row c draws its noise and its minibatch tables from counter-based
streams keyed by (seed_c, tag, block), one block per ``STEP_BLOCK`` steps, so
each row is reproducible on its own and two rows configured with the same
seed share their randomness by construction. Rows whose targets share a model
are one call, with one gradient call per step on the stack of their joints,
however many datasets they hold; a target without a model is a call of its
own. Each chunk of steps is reduced as it runs, to full-data losses, distances
to w*, gaps to the first row of the same seed and a sparse trail of states, so
the LLC estimate λ̂ = nβ·(mean L_n(w_t) − L_n(w*)) reads the trace alone and
no array grows with T·d. Coupled chains are two rows that share a seed and a
centre, each on its own dataset; :func:`coupled_bound_trials` runs the pairs
of many seeds in one engine call.

Also here: the trajectory-divergence bound g(t, A), one function over an
array of steps, with its hyperparameter window; the estimator-difference
bound (both for a constant step size, where the ε_max/ε_min factor of the
general statement is 1); the volume-scaling oracle for the learning
coefficient on analytic losses; and the per-seed coupled experiment used to
validate both bounds against measured insensitivity constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._streams import BATCH_TAG, NOISE_TAG, REGION_TAG, STEP_BLOCK, VOLUME_TAG, keyed_generator
from .model import (
    Dataset,
    SoftmaxModel,
    fit_model,
    grad_coefficients,
    insensitivity_report,
    joint_losses,
    joint_support,
    lipschitz_estimates,
    population_losses,
    row_norms,
    sample_dataset,
)


class SGLDError(ValueError):
    pass


class WindowViolationError(SGLDError):
    """The hyperparameters fall outside the window the bound derivation needs."""


class ChainDivergedError(SGLDError):
    """A chain reached a non-finite state.

    ``diagnostics`` holds the 1-based ``step`` that produced it and the
    ``row`` of the chain (from :func:`coupled_bound_trials`: its ``seed`` and
    ``chain``, "true" or "truncated"); ``last_state`` is that chain's last
    finite state.
    """

    def __init__(self, message: str, diagnostics: dict, last_state: np.ndarray):
        super().__init__(message)
        self.diagnostics = diagnostics
        self.last_state = last_state


@dataclass(frozen=True)
class SGLDConfig:
    """Hyperparameters for one chain with the constant step size ``epsilon``."""

    n: int
    beta: float
    gamma: float
    m: int
    T: int
    epsilon: float
    seed: int = 0
    weight_norm_cap: float | None = None
    burn_in: float = 0.5

    def __post_init__(self):
        if not self.epsilon > 0:
            raise SGLDError("the step size must be positive")
        if self.n <= 0 or self.beta <= 0 or self.gamma <= 0 or self.T <= 1:
            raise SGLDError("n, beta, gamma must be positive and T > 1")
        if not 1 <= self.m <= self.n:
            raise SGLDError("minibatch size must satisfy 1 <= m <= n")
        if not 0 <= self.burn_in < 1:
            raise SGLDError("burn_in fraction must be in [0, 1)")

    @property
    def n_beta(self) -> float:
        return self.n * self.beta

    def window_check(self, M: float) -> tuple[bool, str]:
        """Whether M·nβ ∈ (γ − 2/ε, γ)."""
        lo = self.gamma - 2.0 / self.epsilon
        hi = self.gamma
        value = M * self.n_beta
        ok = lo < value < hi
        text = f"M·n·β = {value:.6g} must lie in ({lo:.6g}, {hi:.6g})"
        return ok, text


# ---------------------------------------------------------------------------
# Sampling targets, each with a dataset size ``n``, a dimension ``dim`` and full-data losses
# ``loss(W)`` over a (B, dim) stack of states, of two kinds: one without a model gives its
# full-data gradient ``grad(W)``; one with a ``model`` holds its full-data ``joint`` and
# samples minibatch joints (``minibatches``; ``draw_entries`` numbers a draw), on which the
# model's gradient kernel and ``log_conditionals`` give its gradient and its loss.
# ---------------------------------------------------------------------------

class SoftmaxTarget:
    """Adapter of a conditional model plus dataset to the chain interface."""

    def __init__(self, model: SoftmaxModel, dataset: Dataset):
        if len(dataset) == 0:
            raise SGLDError("empty dataset")
        self.model = model
        self.n = len(dataset)
        self.dim = model.dim
        self.cells = dataset.counts.size
        self.joint = dataset.empirical_joint()
        self._counts = dataset.counts
        self._sorted_cells = None  # built by the first index draw

    def loss(self, W: np.ndarray) -> np.ndarray:
        """L_n(w_b) for each row of W."""
        return population_losses(self.model, self.joint, W)

    def minibatches(self, rngs, m: int, size: int) -> np.ndarray:
        """(size, len(rngs), n_y, n_x) minibatch joints, ``size`` from each generator.

        A joint is the count table of m uniform draws, over m, so both
        samplers draw from Multinomial(m, N/n) for the dataset's count table N:
        one binomial per cell, or m indices into N's cells laid out in cell
        order, counted, at one integer per minibatch point. The former wins
        while the table has at most about m/10 cells (the crossover measured
        at m = 256, 1024 and 4096).
        """
        if 10 * self.cells <= m:
            counts = np.stack([rng.multinomial(m, self.joint.ravel(), size=size)
                               for rng in rngs], axis=1)
        else:  # each joint counted in a block of its own
            if self._sorted_cells is None:
                # the dataset's flat cells in cell order: a function of the count table alone
                self._sorted_cells = np.repeat(np.arange(self.cells), self._counts.ravel())
            idx = np.stack([rng.integers(0, self.n, (size, m)) for rng in rngs], axis=1)
            blocks = np.arange(size * len(rngs)).reshape(size, len(rngs), 1)
            counts = np.bincount((self._sorted_cells[idx] + self.cells * blocks).ravel(),
                                 minlength=blocks.size * self.cells)
        return counts.reshape((size, len(rngs)) + self.joint.shape) / m

    def draw_entries(self, m: int) -> int:
        """Numbers one minibatch draw holds: its table, and m indices on the index sampler."""
        return self.cells if 10 * self.cells <= m else self.cells + m


class QuadraticTarget:
    """L(w) = ½ Σ h_i w_i², with exact gradients; n is nominal."""

    def __init__(self, curvature: np.ndarray, n: int):
        self.curvature = np.asarray(curvature, dtype=float)
        self.n = int(n)
        self.dim = self.curvature.shape[0]

    def loss(self, W: np.ndarray) -> np.ndarray:
        return 0.5 * np.sum(self.curvature * np.asarray(W) ** 2, axis=-1)

    def grad(self, W: np.ndarray) -> np.ndarray:
        return self.curvature * W


# ---------------------------------------------------------------------------
# Chains.
# ---------------------------------------------------------------------------

def sgld_step(
    w: np.ndarray,
    grad: np.ndarray,
    w_star: np.ndarray,
    epsilon: float,
    n_beta: float,
    gamma: float,
    noise: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """One update: w + (ε/2)[−βn·grad + γ(w* − w)] + noise, into ``out`` if given.

    Broadcasts, so per-row hyperparameters of shape (C, 1) update a (C, d)
    state array row by row. ``out`` (default: a new array) must not overlap w or grad.
    """
    out = np.multiply(grad, -n_beta, out=out)
    out += gamma * (w_star - w)
    out *= 0.5 * epsilon
    out += w
    return np.add(out, noise, out=out)


@dataclass(eq=False)
class ChainTrace:
    """A chain reduced as it ran, with its centre w* and L_n(w*) (``reference_loss``).

    Index 0 is the initial point; step t (1-based) produced index t from row
    (t − 1) % STEP_BLOCK of the draws keyed by (config.seed, tag,
    (t − 1) // STEP_BLOCK). ``losses`` and ``distances`` hold L_n(w_t) and
    ‖w_t − w*‖ at every index, ``deltas`` ‖w'_t − w_t‖ for the first row w'
    of the engine call with this seed (None on that row), and ``states``
    every max(1, T // 64)-th state from index 0.
    """

    losses: np.ndarray
    distances: np.ndarray
    states: np.ndarray
    deltas: np.ndarray | None
    config: SGLDConfig
    w_star: np.ndarray
    reference_loss: float
    norm_cap_violations: int = 0

    @property
    def T(self) -> int:
        return len(self.losses)


CHUNK_ENTRIES = 1 << 20  # numbers a chunk of steps holds: its noise, minibatch draws and states


def _per_row(values: list[float]):
    """One hyperparameter a row for :func:`sgld_step`: a (C, 1) column, or the
    shared value itself when all rows have it (the same bits, fewer operations)."""
    if all(value == values[0] for value in values):
        return values[0]
    return np.array(values)[:, None]


def run_chains(targets, w_star: np.ndarray, configs, init: np.ndarray | None = None
               ) -> list[ChainTrace]:
    """Advance one chain per (target, config) row in lockstep; one trace per row.

    ``w_star`` is one localization centre for every row or a (C, d) array of
    one a row; ``init`` likewise gives the start points (default: the
    centres). All rows share T, n and m. Row c takes its step-t noise and
    minibatch joint from row (t − 1) % STEP_BLOCK of the draws keyed by
    (seed_c, tag, (t − 1) // STEP_BLOCK); rows with equal seeds draw the noise
    once. A call is the rows of all targets that share a ``model``, or of one
    target without one: the former takes one ``grads_into`` call a step on the
    stack of its rows' joints, transposed and summed once a run at full batch
    and once a chunk otherwise, and one ``log_conditionals`` call for its
    losses, reduced over each target's support (found once a run); the latter,
    full-data ``grad`` and ``loss`` calls. Steps run in chunks whose noise,
    draws and states hold about ``CHUNK_ENTRIES`` numbers (draws made chunk by
    chunk give the bits of one draw); buffers are allocated once a call. Each
    chunk is reduced to the trace (see :class:`ChainTrace`) before the next
    runs; the norm-cap count skips the initial point.
    """
    targets, configs = list(targets), list(configs)
    if not targets or len(configs) != len(targets):
        raise SGLDError("run_chains needs one config per target and at least one row")
    T, n, m = configs[0].T, configs[0].n, configs[0].m
    for target, config in zip(targets, configs):
        if (config.T, config.n, config.m) != (T, n, m):
            raise SGLDError("chains run in lockstep must share T, n and m")
        if target.n != config.n:
            raise SGLDError(f"config.n = {config.n} does not match dataset size {target.n}")
    w_star = np.asarray(w_star, dtype=float)
    rows, d = len(targets), w_star.shape[-1]
    if w_star.shape not in ((d,), (rows, d)):
        raise SGLDError(f"w_star must be one centre or one a row, got shape {w_star.shape}")
    centers = np.array(np.broadcast_to(w_star, (rows, d)))  # contiguous: a step reads it
    w = np.array(np.broadcast_to(centers if init is None else init, (rows, d)), dtype=float)

    sqrt_eps = np.sqrt([[config.epsilon] for config in configs])
    eps, n_beta, gamma = (_per_row([getattr(config, name) for config in configs])
                          for name in ("epsilon", "n_beta", "gamma"))
    seeds, first_row, seed_of_row = np.unique([config.seed for config in configs],
                                              return_index=True, return_inverse=True)
    grouped: dict[int, dict] = {}  # one call per model and per target without one
    for c, target in enumerate(targets):
        parts = grouped.setdefault(id(getattr(target, "model", target)), {})
        parts.setdefault(id(target), (target, []))[1].append(c)
    calls = []  # (the model or None, the rows, a view when contiguous, and per target
    for parts in grouped.values():  # (target, its rows, their positions in the call, support)
        call_rows = sorted(c for _, members in parts.values() for c in members)
        lo, hi = call_rows[0], call_rows[-1] + 1
        own = slice(lo, hi) if hi - lo == len(call_rows) else np.array(call_rows)
        model = getattr(next(iter(parts.values()))[0], "model", None)
        calls.append((model, own, [(t, members, np.searchsorted(call_rows, members),
                                    None if model is None else joint_support(t.joint))
                                   for t, members in parts.values()]))
    width = (seeds.size + 2 * rows) * d  # a step's noise, its scaled rows and its states
    if m < n:  # a model's stacked draws, each target's draws, and their transposes and sums
        width += sum(len(members) * (3 * t.joint.size + t.draw_entries(m)) for model, _, parts
                     in calls if model is not None for t, members, _, _ in parts)
    chunk_steps = max(1, min(STEP_BLOCK, CHUNK_ENTRIES // width))

    stride = max(1, T // 64)
    partner = first_row[seed_of_row]  # each row's first row of its seed
    paired = np.flatnonzero(partner != np.arange(rows))  # the rows that record deltas
    caps = np.array([[np.inf if config.weight_norm_cap is None else config.weight_norm_cap]
                     for config in configs])
    capped = bool(np.any(caps < np.inf))  # without a cap no row can violate one
    losses, distances, deltas = np.empty((rows, T)), np.empty((rows, T)), np.empty((rows, T))
    trail = np.empty((rows, len(range(0, T, stride)), d))
    violations = np.zeros(rows, dtype=int)

    def row_losses(states: np.ndarray) -> np.ndarray:
        """L_n(w) of each row's target at its (rows, k, d) states, as (rows, k)."""
        k = states.shape[1]
        out = np.empty((rows, k))
        for model, own, parts in calls:
            if model is None:  # one target, with its own loss
                out[own] = parts[0][0].loss(states[own].reshape(-1, d)).reshape(-1, k)
                continue
            logp = model.log_conditionals(states[own].reshape(-1, d))
            logp = logp.reshape((-1, k) + logp.shape[1:])  # (rows of the call, k, n_y, n_x)
            for _, members, positions, support in parts:
                out[members] = joint_losses(support, logp[positions])
        return out

    def record(t0: int, chunk: np.ndarray) -> None:
        """Reduce the (rows, k, d) states of indices t0..t0 + k − 1."""
        k = chunk.shape[1]
        losses[:, t0:t0 + k] = row_losses(chunk)
        offsets = chunk - centers[:, None]
        distances[:, t0:t0 + k] = np.linalg.norm(offsets, axis=2)
        if t0 > 0 and capped:  # the norm cap skips the initial point
            norms = row_norms(offsets.reshape(-1, d)).reshape(rows, k)
            violations[:] += np.count_nonzero(norms > caps, axis=1)
        if paired.size:
            gaps = chunk[partner[paired]] - chunk[paired]
            deltas[paired, t0:t0 + k] = row_norms(gaps.reshape(-1, d)).reshape(-1, k)
        head = -(-t0 // stride) * stride  # the first trail index in the chunk
        trail[:, head // stride:(t0 + k + stride - 1) // stride] = chunk[:, head - t0::stride]

    grad, draws = np.empty((rows, d)), np.empty((seeds.size, chunk_steps, d))
    eta, chunk = np.empty((2, chunk_steps, rows, d))  # each step's scaled noise, and its states

    def gradient(model, own, parts):
        """A call's gradient: given a chunk's length k and a minibatch generator a row (None
        at full batch), the function of (w, j) writing its rows' −∇L_m at step j into ``grad``."""
        if model is None:  # one target, with full-data gradients
            target = parts[0][0]

            def full_data(w, j):
                grad[own] = -target.grad(w[own])
            return lambda k, batch: full_data
        scatter = not isinstance(own, slice)  # rows apart: a buffer
        out = np.empty((len(own), d)) if scatter else grad[own]
        # the call's (k, rows, n_y, n_x) joints: a chunk's draws, or the full-data ones once
        joints = np.empty((chunk_steps if m < n else 1, len(out)) + parts[0][0].joint.shape)
        if m == n:  # the same joints at every step
            for target, _, positions, _ in parts:
                joints[0, positions] = target.joint
            full = [np.broadcast_to(a, (chunk_steps,) + a.shape[1:])
                    for a in grad_coefficients(joints)]

        def for_chunk(k, batch):
            if batch is not None:
                for target, members, positions, _ in parts:
                    joints[:k, positions] = target.minibatches([batch[c] for c in members], m, k)
            c, sums = full if batch is None else grad_coefficients(joints[:k])

            def step(w, j):
                model.grads_into(w[own], c[j], sums[j], out)
                if scatter:
                    grad[own] = out
            return step
        return for_chunk

    gradients = [gradient(*call) for call in calls]
    # a non-finite state raises after its chunk: until then steps and reductions run quietly
    with np.errstate(over="ignore", invalid="ignore"):
        record(0, w[:, None])
        for start in range(1, T, STEP_BLOCK):
            block = (start - 1) // STEP_BLOCK
            noise = [keyed_generator(seed, NOISE_TAG, block) for seed in seeds]
            batch = ([keyed_generator(config.seed, BATCH_TAG, block) for config in configs]
                     if m < n else None)
            for t0 in range(start, min(start + STEP_BLOCK, T), chunk_steps):
                k = min(chunk_steps, start + STEP_BLOCK - t0, T - t0)
                for rng, out in zip(noise, draws):
                    rng.standard_normal(out=out[:k])
                np.multiply(draws[seed_of_row, :k], sqrt_eps[:, :, None],
                            out=eta[:k].swapaxes(0, 1))
                steps = [for_chunk(k, batch) for for_chunk in gradients]
                before = w
                for j in range(k):
                    for step in steps:
                        step(w, j)
                    # −∇L_m in ``grad`` takes −nβ: negation is exact, so the bits are −nβ·∇L_m
                    w = sgld_step(w, grad, centers, eps, -n_beta, gamma, eta[j], chunk[j])
                w = w.copy()  # the next chunk writes over ``chunk``; ``before`` must survive it
                states = chunk[:k].swapaxes(0, 1)  # (rows, k, d)
                finite = np.isfinite(states).all(axis=2)  # (rows, k)
                if not finite.all():  # the first non-finite step, and its first row
                    j = int(np.flatnonzero(~finite.all(axis=0))[0])
                    c, t = int(np.flatnonzero(~finite[:, j])[0]), t0 + j
                    last = states[c, j - 1] if j else before[c]
                    raise ChainDivergedError(f"non-finite state in chain {c} at step {t}",
                                             {"step": t, "row": c}, last.copy())
                record(t0, states)

    reference = row_losses(centers[:, None])[:, 0]
    return [ChainTrace(losses=losses[c], distances=distances[c], states=trail[c],
                       deltas=deltas[c] if partner[c] != c else None, config=config,
                       w_star=centers[c], reference_loss=float(reference[c]),
                       norm_cap_violations=int(violations[c]))
            for c, config in enumerate(configs)]


def run_chain(target, w_star: np.ndarray, config: SGLDConfig,
              init: np.ndarray | None = None) -> ChainTrace:
    """T-state chain started at ``init`` (default: the localization center)."""
    return run_chains([target], w_star, [config], init)[0]


@dataclass(frozen=True)
class LLCEstimate:
    lambda_hat: float
    mean_loss: float
    reference_loss: float
    n_beta: float
    burn_in: float
    kept_states: int


def llc_estimate(trace: ChainTrace) -> LLCEstimate:
    """λ̂ = nβ·[mean_t L_n(w_t) − L_n(w*)], averaging after the config's burn-in cut."""
    config = trace.config
    kept = trace.losses[int(config.burn_in * trace.T):]
    if kept.size == 0:
        raise SGLDError("burn-in removed the whole trace")
    mean_loss = float(kept.mean())
    return LLCEstimate(
        lambda_hat=float(config.n_beta * (mean_loss - trace.reference_loss)),
        mean_loss=mean_loss,
        reference_loss=trace.reference_loss,
        n_beta=config.n_beta,
        burn_in=config.burn_in,
        kept_states=int(kept.size),
    )


@dataclass(eq=False)
class CoupledChains:
    trace_true: ChainTrace
    trace_truncated: ChainTrace

    @property
    def deltas(self) -> np.ndarray:  # ‖w_t − w̃_t‖ for t = 1..T (index 0 is the shared start)
        return self.trace_truncated.deltas


def run_coupled_chains(target_true, target_truncated, w_star: np.ndarray,
                       config: SGLDConfig, init: np.ndarray | None = None) -> CoupledChains:
    """Two chains with identical noise and minibatch schedules.

    The first follows gradients of ``target_true``, the second of
    ``target_truncated``; both are localized at the same w* and start at the
    same point. They are two rows of one :func:`run_chains` call that share
    the config, hence the seed (and so both targets must have its n).
    """
    return CoupledChains(*run_chains([target_true, target_truncated], w_star,
                                     [config, config], init))


# ---------------------------------------------------------------------------
# The trajectory and estimator bounds.
# ---------------------------------------------------------------------------

def _require_window(config: SGLDConfig, M: float) -> None:
    ok, text = config.window_check(M)
    if not ok:
        raise WindowViolationError(f"hyperparameter window violated: {text}")


def bound_mu(config: SGLDConfig, M: float) -> float:
    """μ = 1 + (ε/2)(M·nβ − γ); lies in (0, 1) inside the window."""
    _require_window(config, M)
    mu = 1.0 + 0.5 * config.epsilon * (M * config.n_beta - config.gamma)
    return float(mu)


def bound_g_limit(config: SGLDConfig, A: float, xi: float, M: float) -> float:
    """(A + ξ)/(γ/nβ − M), the limit of g(t, A) as t → ∞."""
    _require_window(config, M)
    return (A + xi) / (config.gamma / config.n_beta - M)


def bound_g(t, A: float, xi: float, config: SGLDConfig, M: float):
    """Trajectory divergence bound g(t, A) = limit·(1 − μ^{t−1}), so g(1) = 0.

    ``t`` is an array of 1-based steps, or one step, which is evaluated as a
    one-element array and returned as a float.
    """
    steps = np.atleast_1d(t)
    if steps.min() < 1:
        raise SGLDError("t is 1-based")
    g = bound_g_limit(config, A, xi, M) * (1.0 - bound_mu(config, M) ** (steps - 1))
    return g if np.ndim(t) else float(g[0])


def estimator_difference_bound(A: float, B: float, xi: float, kappa: float,
                       Q: float, M: float, config: SGLDConfig) -> float:
    """Bound on |λ̂ − λ̂ after truncation| for insensitivity constants (A, B)."""
    _require_window(config, M)
    first = config.n_beta * Q * (A + xi) / (config.gamma / config.n_beta - M)
    second = 2.0 * config.n_beta * (B + kappa)
    return float(first + second)


# ---------------------------------------------------------------------------
# Volume-scaling oracle for the learning coefficient.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VolumeScalingFit:
    lambda_hat: float
    m_hat: float
    log_correction_used: bool
    condition_number: float
    levels: np.ndarray
    volumes: np.ndarray
    usable: np.ndarray


def volume_scaling_fit(
    loss_fn,
    dim: int,
    radius: float,
    levels: np.ndarray,
    n_samples: int = 2_000_000,
    seed: int = 0,
    min_count: int = 20,
) -> VolumeScalingFit:
    """Estimate (λ, m) from V(ε) ∝ ε^λ (−log ε)^{m−1} near a minimum at 0.

    ``levels`` is the grid of loss levels ε. V(ε) is estimated by uniform
    sampling of the radius-``radius`` ball, and log V is regressed on log ε
    with precision weights ~ sqrt(count). The log(−log ε) correction
    regressor is nearly collinear with log ε on practical ranges, so it is
    kept only when it explains the residuals far better (factor 4 in weighted
    RSS); otherwise m = 1 is reported. The design condition number records
    how distinguishable the two were.
    """
    levels = np.asarray(levels, dtype=float)
    if np.any(levels >= 1.0) or np.any(levels <= 0.0):
        raise SGLDError("loss levels must lie in (0, 1) for the log-log fit")
    rng = keyed_generator(seed, VOLUME_TAG)
    chunk = 250_000
    counts = np.zeros(levels.size, dtype=np.int64)
    remaining = int(n_samples)
    while remaining > 0:
        size = min(chunk, remaining)
        values = loss_fn(_ball_sample(rng, np.zeros(dim), radius, size))
        counts += (values[None, :] < levels[:, None]).sum(axis=1)
        remaining -= size
    ball_volume = (np.pi ** (dim / 2) / math.gamma(dim / 2 + 1)) * radius**dim
    volumes = counts / float(n_samples) * ball_volume
    usable = counts >= min_count
    if usable.sum() < 4:
        raise SGLDError("degenerate fit: fewer than 4 loss levels are usable")
    x1 = np.log(levels[usable])
    x2 = np.log(-np.log(levels[usable]))
    weights = np.sqrt(counts[usable].astype(float))
    y = np.log(volumes[usable])
    plain = np.column_stack([x1, np.ones(x1.size)])
    full = np.column_stack([x1, x2, np.ones(x1.size)])
    coef_plain, *_ = np.linalg.lstsq(plain * weights[:, None], y * weights, rcond=None)
    coef_full, *_ = np.linalg.lstsq(full * weights[:, None], y * weights, rcond=None)
    rss_plain = float(np.sum((weights * (plain @ coef_plain - y)) ** 2))
    rss_full = float(np.sum((weights * (full @ coef_full - y)) ** 2))
    use_correction = rss_full < 0.25 * rss_plain
    return VolumeScalingFit(
        lambda_hat=float(coef_full[0] if use_correction else coef_plain[0]),
        m_hat=float(coef_full[1] + 1.0) if use_correction else 1.0,
        log_correction_used=bool(use_correction),
        condition_number=float(np.linalg.cond(full)),
        levels=levels,
        volumes=volumes,
        usable=usable,
    )


# ---------------------------------------------------------------------------
# Coupled-chain experiment with measured constants.
# ---------------------------------------------------------------------------

@dataclass
class CoupledTrialResult:
    seed: int
    A_hat: float
    B_hat: float
    M_hat: float
    Q_hat: float
    region_radius: float
    window_ok: bool
    window_text: str
    coupled: CoupledChains
    g_series: np.ndarray | None
    delta_bound_ok: bool
    lambda_true: float
    lambda_truncated: float
    lambda_diff: float
    estimator_bound: float | None
    llc_bound_ok: bool

    @property
    def deltas(self) -> np.ndarray:
        return self.coupled.deltas

    def to_summary(self) -> dict:
        return {
            "seed": self.seed,
            "A_hat": self.A_hat,
            "B_hat": self.B_hat,
            "M_hat": self.M_hat,
            "Q_hat": self.Q_hat,
            "region_radius": self.region_radius,
            "window_ok": self.window_ok,
            "delta_bound_ok": self.delta_bound_ok,
            "lambda_true": self.lambda_true,
            "lambda_truncated": self.lambda_truncated,
            "lambda_diff": self.lambda_diff,
            "estimator_bound": self.estimator_bound,
            "llc_bound_ok": self.llc_bound_ok,
            "max_delta": float(self.deltas.max()),
        }


def _ball_sample(rng: np.random.Generator, center: np.ndarray, radius: float, count: int):
    d = center.size
    direction = rng.standard_normal((count, d))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    radii = radius * rng.random(count) ** (1.0 / d)
    return center[None, :] + direction * radii[:, None]


REGION_POINTS = 160  # ball points in a coupled trial's evaluation set
REGION_SCALE = 1.5  # ball radius over the larger chain excursion


def coupled_bound_trials(
    model: SoftmaxModel,
    joint_true: np.ndarray,
    joint_truncated: np.ndarray,
    config: SGLDConfig,
    seeds,
):
    """Seeded coupled runs with measured constants: yields one result per seed, in order.

    Seed s draws its true and truncated datasets, fits w* on the true one and
    couples a chain on each, both localized at w* and seeded by s (``config``
    with burn-in 0). One :func:`run_chains` call advances every seed's pair,
    then each seed's constants pass runs on its own traces (see
    :func:`coupled_bound_trial`).

    If a chain diverges, no result is yielded: :class:`ChainDivergedError`
    reports the earliest non-finite step over all seeds (the earlier seed in
    ``seeds`` on a tie), its ``seed`` and its ``chain``, "true" or "truncated".
    """
    seeds = [int(seed) for seed in seeds]
    targets, centers, configs = [], [], []
    for seed in seeds:
        dataset_true = sample_dataset(joint_true, config.n, seed=seed)
        dataset_trunc = sample_dataset(joint_truncated, config.n, seed=seed + 1_000_003)
        targets += [SoftmaxTarget(model, dataset_true), SoftmaxTarget(model, dataset_trunc)]
        centers += [fit_model(model, dataset_true).w] * 2
        configs += [replace(config, seed=seed, burn_in=0.0)] * 2
    try:
        traces = run_chains(targets, np.array(centers), configs)
    except ChainDivergedError as exc:
        step, row = exc.diagnostics["step"], exc.diagnostics["row"]
        seed, chain = seeds[row // 2], ("true", "truncated")[row % 2]
        raise ChainDivergedError(
            f"non-finite state in the {chain} chain of seed {seed} at step {step}",
            {"step": step, "seed": seed, "chain": chain}, exc.last_state) from None
    for i, seed in enumerate(seeds):
        yield _measured_trial(model, targets[2 * i].joint, targets[2 * i + 1].joint,
                              CoupledChains(*traces[2 * i:2 * i + 2]), seed)


def coupled_bound_trial(
    model: SoftmaxModel,
    joint_true: np.ndarray,
    joint_truncated: np.ndarray,
    config: SGLDConfig,
    seed: int,
) -> CoupledTrialResult:
    """One seeded coupled run with constants measured on the visited region.

    The one-seed case of :func:`coupled_bound_trials`. The evaluation set is
    w*, a seeded ball sample of ``REGION_POINTS`` points around w* (radius
    ``REGION_SCALE`` × the larger chain excursion) and both chains' own
    states at a stride of T // 64, which operationalizes the supremum over a
    region known to contain the trajectories. A, B, M and Q are all maxima
    over that one set; M and Q are exact at each point. Bounds are only
    asserted when the hyperparameter window holds for the measured M̂.
    """
    return next(coupled_bound_trials(model, joint_true, joint_truncated, config, [seed]))


def _measured_trial(model: SoftmaxModel, q_true: np.ndarray, q_truncated: np.ndarray,
                    coupled: CoupledChains, seed: int) -> CoupledTrialResult:
    """The constants pass of :func:`coupled_bound_trial` on a seed's coupled chains,
    whose datasets have the empirical joints ``q_true`` and ``q_truncated``."""
    run_config = coupled.trace_true.config
    w_star = coupled.trace_true.w_star
    excursion = max(coupled.trace_true.distances.max(),
                    coupled.trace_truncated.distances.max(), 1e-6)
    radius = REGION_SCALE * float(excursion)
    rng = keyed_generator(seed, REGION_TAG)
    ball = _ball_sample(rng, w_star, radius, REGION_POINTS)
    points = np.vstack([w_star[None, :], ball, coupled.trace_true.states,
                        coupled.trace_truncated.states])

    report = insensitivity_report(model, q_true, q_truncated, points)
    lip = lipschitz_estimates(model, q_true, points)

    window_ok, window_text = run_config.window_check(lip.M)
    g_series, delta_ok, est_bound, llc_ok = None, False, None, False
    est_true = llc_estimate(coupled.trace_true)
    est_trunc = llc_estimate(coupled.trace_truncated)
    diff = abs(est_true.lambda_hat - est_trunc.lambda_hat)
    if window_ok:
        g_series = bound_g(np.arange(1, run_config.T + 1), report.A, 0.0, run_config, lip.M)
        delta_ok = bool(np.all(coupled.deltas <= g_series + 1e-12))
        est_bound = estimator_difference_bound(report.A, report.B, 0.0, 0.0, lip.Q, lip.M, run_config)
        llc_ok = bool(diff <= est_bound)
    return CoupledTrialResult(
        seed=seed,
        A_hat=report.A,
        B_hat=report.B,
        M_hat=lip.M,
        Q_hat=lip.Q,
        region_radius=radius,
        window_ok=window_ok,
        window_text=window_text,
        coupled=coupled,
        g_series=g_series,
        delta_bound_ok=delta_ok,
        lambda_true=est_true.lambda_hat,
        lambda_truncated=est_trunc.lambda_hat,
        lambda_diff=diff,
        estimator_bound=est_bound,
        llc_bound_ok=llc_ok,
    )
