"""SGLD sampling of the localized tempered posterior and LLC estimation.

The update is w += (ε/2)[−βn ∇L_m(w) + γ(w* − w)] + η with η drawn per
coordinate from N(0, ε), for one constant step size ε per chain
(:class:`SGLDConfig`; the CLI's ``--preset paper`` is its nβ = 10, γ = 300,
T = 100, ε = 1e-4 case). A chain runs on a target: anything with a dataset
size ``n``, a dimension ``dim``, batched full-data losses and gradients over a
(B, dim) stack of states, and a sampler of minibatch joints
(:class:`SoftmaxTarget`, :class:`QuadraticTarget`). A minibatch of m uniform
draws with replacement enters the gradient only through its (n_y, n_x) count
table, which is Multinomial(m, N/n) for the dataset's count table N, so the
sampler draws that table directly. A target may also name the ``model`` its
gradient reads, with its full-data coefficients in ``joint``: a
:class:`SoftmaxTarget`'s gradient on given coefficients reads its model alone.

One engine, :func:`run_chains`, advances every chain: the rows of a (C, d)
state array move in lockstep, one step at a time, each localized at its own
centre w*. Row c draws its noise and its minibatch tables from counter-based
streams keyed by (seed_c, tag, block), one block per ``STEP_BLOCK`` steps, so
each row is reproducible on its own and two rows configured with the same
seed share their randomness by construction. Rows whose targets share a model
take one gradient call per step, on the stack of their rows' joints, however
many datasets they hold. Coupled chains are two rows that share a seed and a
centre, each following the loss of its own dataset; :func:`coupled_bound_trials`
runs the pairs of many seeds as the rows of one engine call. Full-data losses,
and the reference loss L_n(w*), are evaluated after the loop, so the LLC
estimate λ̂ = nβ·(mean L_n(w_t) − L_n(w*)) reads the trace alone.

Also here: the trajectory-divergence bound g(t, A), one function over an
array of steps, with its hyperparameter window; the estimator-difference
bound (both for a constant step size, where the ε_max/ε_min factor of the
general statement is 1); the volume-scaling oracle for the learning
coefficient on analytic losses; and the per-seed coupled experiment used to
validate both bounds against measured insensitivity constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from ._streams import BATCH_TAG, NOISE_TAG, REGION_TAG, STEP_BLOCK, VOLUME_TAG, keyed_generator
from .model import (
    Dataset,
    SoftmaxModel,
    fit_model,
    insensitivity_report,
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
# Sampling targets: anything with a dataset size, a dimension, batched
# full-data losses and gradients over a (B, dim) stack of states, and a
# sampler of minibatch joints with ``cells`` entries each; optionally the
# ``model`` whose gradient on given coefficients is the target's, with the
# full-data coefficients in ``joint``.
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

    def grad(self, W: np.ndarray, coeff: np.ndarray | None) -> np.ndarray:
        """∇L_m(w_b) for each row of W on the joint coeff[b] (all data if None).

        Given coefficients, this reads the model alone.
        """
        return -self.model.weighted_grads(W, self.joint if coeff is None else coeff)

    def minibatches(self, rngs, m: int, size: int) -> np.ndarray:
        """(size, len(rngs), n_y, n_x) minibatch joints, ``size`` from each generator.

        A joint is the count table of m uniform draws, over m. Both samplers
        are exact and read only the count table, so a permuted dataset draws
        the same joints. Multinomial(m, N/n) costs about one binomial per cell
        and the index draw one integer per minibatch point; the former wins
        while the table has at most about m/10 cells (the crossover measured
        at m = 256, 1024 and 4096).
        """
        if 10 * self.cells <= m:
            counts = np.stack([rng.multinomial(m, self.joint.ravel(), size=size)
                               for rng in rngs], axis=1)
        else:  # each joint counted in a block of its own
            if self._sorted_cells is None:
                # the dataset's flat cells in cell order: a function of the count table alone
                self._sorted_cells = np.repeat(np.arange(self.cells),
                                               self._counts.ravel().astype(np.int64))
            idx = np.stack([rng.integers(0, self.n, (size, m)) for rng in rngs], axis=1)
            blocks = np.arange(size * len(rngs)).reshape(size, len(rngs), 1)
            counts = np.bincount((self._sorted_cells[idx] + self.cells * blocks).ravel(),
                                 minlength=blocks.size * self.cells)
        return counts.reshape((size, len(rngs)) + self.joint.shape) / m


class QuadraticTarget:
    """L(w) = ½ Σ h_i w_i², with exact gradients; n is nominal."""

    def __init__(self, curvature: np.ndarray, n: int):
        self.curvature = np.asarray(curvature, dtype=float)
        self.n = int(n)
        self.dim = self.curvature.shape[0]
        self.cells = 0

    def loss(self, W: np.ndarray) -> np.ndarray:
        return 0.5 * np.sum(self.curvature * np.asarray(W) ** 2, axis=-1)

    def grad(self, W: np.ndarray, coeff) -> np.ndarray:
        return self.curvature * W

    def minibatches(self, rngs, m: int, size: int) -> None:
        """Exact gradients: nothing to draw."""
        return None


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
) -> np.ndarray:
    """One update: w + (ε/2)[−βn·grad + γ(w* − w)] + noise.

    Broadcasts, so per-row hyperparameters of shape (C, 1) update a (C, d)
    state array row by row.
    """
    return w + 0.5 * epsilon * (-n_beta * grad + gamma * (w_star - w)) + noise


@dataclass(eq=False)
class ChainTrace:
    """States w_1..w_T with recorded full-data losses, the chain's centre w* and L_n(w*).

    The first state is the initial point; step t (1-based) produced state t
    from row (t − 1) % STEP_BLOCK of the noise and minibatch draws keyed by
    (config.seed, tag, (t − 1) // STEP_BLOCK), so the whole trace is
    reproducible from (config, dataset, centre, initial point).
    """

    states: np.ndarray
    losses: np.ndarray
    config: SGLDConfig
    w_star: np.ndarray
    reference_loss: float
    norm_cap_violations: int = 0

    @property
    def T(self) -> int:
        return self.states.shape[0]

    def distances_to_center(self) -> np.ndarray:
        return np.linalg.norm(self.states - self.w_star[None, :], axis=1)


LOSS_BLOCK = 1024  # states per batched loss evaluation after the loop
DRAW_ENTRIES = 1 << 16  # numbers a chunk holds: d a row, m + cells a minibatch stream
STATE_ENTRIES = 1 << 22  # chain-state numbers one coupled engine call holds: 2·T·d a seed


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
    once, rows with equal seeds and targets the minibatches. A block is drawn
    in sequential chunks of about ``DRAW_ENTRIES`` numbers, which give the
    same bits as one draw. Each step evaluates one batched gradient per
    distinct target, except that rows whose targets share a ``model`` take one
    call on the (rows, n_y, n_x) stack of their full-data or minibatch joints.
    Full-data losses are evaluated per distinct target after the loop, in
    blocks of at most ``LOSS_BLOCK`` states, and L_n(w*) at each row's centre.
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
    centers = np.broadcast_to(w_star, (rows, d))
    states = np.empty((rows, T, d))
    states[:, 0] = centers if init is None else np.asarray(init, dtype=float)

    sqrt_eps = np.sqrt([[config.epsilon] for config in configs])
    eps, n_beta, gamma = (_per_row([getattr(config, name) for config in configs])
                          for name in ("epsilon", "n_beta", "gamma"))
    seeds, seed_of_row = np.unique([config.seed for config in configs], return_inverse=True)
    by_target: dict[int, tuple[object, list[int]]] = {}
    for c, target in enumerate(targets):
        by_target.setdefault(id(target), (target, []))[1].append(c)
    # per distinct target: (target, its rows, the seeds it draws minibatches
    # for, each row's among them); one seed a row in row order takes a view
    streams = []
    for target, members in by_target.values():
        batch_seeds, pick = np.unique(seeds[seed_of_row[members]], return_inverse=True)
        if np.array_equal(pick, np.arange(len(members))):
            pick = slice(None)
        streams.append((target, members, batch_seeds if m < n else [], pick))
    # per gradient call: (a target, its rows, the streams it stacks with the
    # positions of their rows in it, the full-data stack); None stacks mean one
    # target, whose coefficients are its own; contiguous rows take a view
    by_model: dict[int, list[int]] = {}
    for i, (target, _, _, _) in enumerate(streams):
        by_model.setdefault(id(getattr(target, "model", target)), []).append(i)
    calls = []
    for shared in by_model.values():
        members = sorted(c for i in shared for c in streams[i][1])
        parts = [(i, np.searchsorted(members, streams[i][1])) for i in shared]
        full = np.stack([targets[c].joint for c in members]) if len(shared) > 1 else None
        contiguous = members[-1] + 1 - members[0] == len(members)
        own = slice(members[0], members[-1] + 1) if contiguous else np.array(members)
        calls.append((streams[shared[0]][0], own, parts, full))
    width = rows * d + sum(len(bs) * (m + target.cells) for target, _, bs, _ in streams if len(bs))
    if m < n:
        width += sum(full.size for _, _, _, full in calls if full is not None)
    chunk_steps = max(1, min(STEP_BLOCK, DRAW_ENTRIES // width))

    w = states[:, 0].copy()
    grad = np.empty((rows, d))
    draws, eta = np.empty((seeds.size, chunk_steps, d)), np.empty((rows, chunk_steps, d))
    for start in range(1, T, STEP_BLOCK):
        block = (start - 1) // STEP_BLOCK
        noise = [keyed_generator(seed, NOISE_TAG, block) for seed in seeds]
        batch = [[keyed_generator(seed, BATCH_TAG, block) for seed in bs]
                 for _, _, bs, _ in streams]
        for t0 in range(start, min(start + STEP_BLOCK, T), chunk_steps):
            k = min(chunk_steps, start + STEP_BLOCK - t0, T - t0)
            for rng, out in zip(noise, draws):
                rng.standard_normal(out=out[:k])
            np.multiply(draws[seed_of_row, :k], sqrt_eps[:, :, None], out=eta[:, :k])
            drawn = []  # per stream: (k, its rows, n_y, n_x) joints, or None
            for (target, _, _, pick), rngs in zip(streams, batch):
                joints = target.minibatches(rngs, m, k) if rngs else None
                drawn.append(None if joints is None else joints[:, pick])
            coeffs = []  # per call: its step-by-step coefficients, or None for its own
            for _, _, parts, full in calls:
                if full is None:
                    coeffs.append(drawn[parts[0][0]])
                elif m == n:
                    coeffs.append(np.broadcast_to(full, (k,) + full.shape))
                else:
                    stack = np.empty((k,) + full.shape)
                    for i, positions in parts:
                        stack[:, positions] = drawn[i]
                    coeffs.append(stack)
            # a non-finite state raises after the chunk, so the steps past it run quietly
            with np.errstate(over="ignore", invalid="ignore"):
                for j in range(k):
                    for (target, own, _, _), coeff in zip(calls, coeffs):
                        grad[own] = target.grad(w[own], None if coeff is None else coeff[j])
                    w = sgld_step(w, grad, w_star, eps, n_beta, gamma, eta[:, j])
                    states[:, t0 + j] = w
            finite = np.isfinite(states[:, t0:t0 + k]).all(axis=2)  # (rows, k)
            if not finite.all():  # the first non-finite step, and its first row
                j = int(np.flatnonzero(~finite.all(axis=0))[0])
                c, t = int(np.flatnonzero(~finite[:, j])[0]), t0 + j
                raise ChainDivergedError(f"non-finite state in chain {c} at step {t}",
                                         {"step": t, "row": c}, states[c, t - 1].copy())

    losses = np.empty((rows, T))
    reference = np.empty(rows)
    for target, members, _, _ in streams:
        count = len(members)
        block = max(1, LOSS_BLOCK // count)
        for t0 in range(0, T, block):
            chunk = states[members, t0:t0 + block]
            losses[members, t0:t0 + block] = target.loss(chunk.reshape(-1, d)).reshape(count, -1)
        reference[members] = target.loss(centers[members])
    traces = []
    for c, config in enumerate(configs):
        violations = 0
        if config.weight_norm_cap is not None:
            violations = int(np.count_nonzero(
                row_norms(states[c, 1:] - centers[c]) > config.weight_norm_cap))
        traces.append(ChainTrace(states=states[c], losses=losses[c], config=config,
                                 w_star=centers[c], reference_loss=float(reference[c]),
                                 norm_cap_violations=violations))
    return traces


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
    # ‖w_t − w̃_t‖ for t = 1..T (index 0 is the shared start)
    deltas: np.ndarray = field(init=False)

    def __post_init__(self):
        self.deltas = row_norms(self.trace_true.states - self.trace_truncated.states)


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
    with burn-in 0). Consecutive seeds form groups whose states, 2·T·d numbers
    a seed, fit in ``STATE_ENTRIES`` (at least one seed a group); one
    :func:`run_chains` call advances every pair of a group, and each seed's
    constants pass then runs on its own traces (see
    :func:`coupled_bound_trial`). A group's results are yielded before the
    next group runs, so a consumer that keeps only summaries holds the states
    of at most two groups at a time, whatever the number of seeds.

    If a chain diverges, no further result is yielded, but every group's
    chains still run: :class:`ChainDivergedError` reports the earliest
    non-finite step over all seeds (the earlier seed in ``seeds`` on a tie),
    its ``seed`` and its ``chain``, "true" or "truncated".
    """
    seeds = [int(seed) for seed in seeds]
    group_size = max(1, STATE_ENTRIES // (2 * config.T * model.dim))
    failure = None  # (step, position in seeds, row in its pair, last finite state)
    for start in range(0, len(seeds), group_size):
        group = seeds[start:start + group_size]
        targets, centers, configs = [], [], []
        for seed in group:
            dataset_true = sample_dataset(joint_true, config.n, seed=seed)
            dataset_trunc = sample_dataset(joint_truncated, config.n, seed=seed + 1_000_003)
            targets += [SoftmaxTarget(model, dataset_true), SoftmaxTarget(model, dataset_trunc)]
            centers += [fit_model(model, dataset_true).w] * 2
            configs += [replace(config, seed=seed, burn_in=0.0)] * 2
        try:
            traces = run_chains(targets, np.array(centers), configs)
        except ChainDivergedError as exc:
            row = exc.diagnostics["row"]
            found = (exc.diagnostics["step"], start + row // 2, row % 2, exc.last_state)
            failure = found if failure is None or found[:2] < failure[:2] else failure
            continue
        if failure is None:
            for i, seed in enumerate(group):
                yield _measured_trial(model, targets[2 * i].joint, targets[2 * i + 1].joint,
                                      CoupledChains(*traces[2 * i:2 * i + 2]), seed)
        del traces  # before the next group's states exist
    if failure is not None:
        step, position, row, last_state = failure
        seed, chain = seeds[position], ("true", "truncated")[row]
        raise ChainDivergedError(
            f"non-finite state in the {chain} chain of seed {seed} at step {step}",
            {"step": step, "seed": seed, "chain": chain}, last_state)


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
    excursion = max(
        coupled.trace_true.distances_to_center().max(),
        coupled.trace_truncated.distances_to_center().max(),
        1e-6,
    )
    radius = REGION_SCALE * float(excursion)
    rng = keyed_generator(seed, REGION_TAG)
    ball = _ball_sample(rng, w_star, radius, REGION_POINTS)
    stride = max(1, run_config.T // 64)
    trail = np.vstack([
        coupled.trace_true.states[::stride],
        coupled.trace_truncated.states[::stride],
    ])
    points = np.vstack([w_star[None, :], ball, trail])

    report = insensitivity_report(model, q_true, q_truncated, points)
    lip = lipschitz_estimates(model, q_true, points)

    window_ok, window_text = run_config.window_check(lip.M)
    g_series = None
    delta_ok = False
    est_bound = None
    llc_ok = False
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
