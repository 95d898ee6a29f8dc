"""SGLD sampling of the localized tempered posterior and LLC estimation.

The update is w += (ε_t/2)[−βn ∇L_m(w) + γ(w* − w)] + η_t with η_t drawn per
coordinate from N(0, ε_t). One engine, :func:`run_chains`, advances every
chain: the rows of a (C, d) state array move in lockstep, one step at a time.
Row c draws its noise and its minibatch indices from counter-based streams
keyed by (seed_c, tag, step), so each row is reproducible on its own and two
rows configured with the same seed share their randomness by construction.
Coupled chains are exactly that: two rows that share a seed, each following
the loss of its own dataset. Full-data losses are evaluated after the loop.

Also here: the trajectory-divergence bound g(t, A) with its hyperparameter
window, the estimator-difference bound, the volume-scaling oracle for the
learning coefficient on analytic losses, and the per-seed coupled experiment
used to validate both bounds against measured insensitivity constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._streams import BATCH_TAG, NOISE_TAG, REGION_TAG, VOLUME_TAG, StepStream, keyed_generator
from .model import (
    Dataset,
    SoftmaxModel,
    fit_model,
    insensitivity_report,
    lipschitz_estimates,
    population_losses,
    sample_dataset,
)


class SGLDError(ValueError):
    pass


class WindowViolationError(SGLDError):
    """The hyperparameters fall outside the window the bound derivation needs."""


class ChainDivergedError(SGLDError):
    def __init__(self, message: str, step: int, last_state: np.ndarray, row: int = 0):
        super().__init__(message)
        self.step = step
        self.last_state = last_state
        self.row = row


@dataclass(frozen=True, eq=False)
class SGLDConfig:
    """Hyperparameters for one chain; epsilons has one entry per recorded state."""

    n: int
    beta: float
    gamma: float
    m: int
    T: int
    epsilons: np.ndarray
    seed: int = 0
    weight_norm_cap: float | None = None
    burn_in: float = 0.5

    def __post_init__(self):
        eps = np.asarray(self.epsilons, dtype=float)
        if eps.shape != (self.T,):
            raise SGLDError(f"epsilons must have shape ({self.T},)")
        if np.any(eps <= 0):
            raise SGLDError("step sizes must be positive")
        if self.n <= 0 or self.beta <= 0 or self.gamma <= 0 or self.T <= 1:
            raise SGLDError("n, beta, gamma must be positive and T > 1")
        if not 1 <= self.m <= self.n:
            raise SGLDError("minibatch size must satisfy 1 <= m <= n")
        if not 0 <= self.burn_in < 1:
            raise SGLDError("burn_in fraction must be in [0, 1)")
        eps = eps.copy()
        eps.setflags(write=False)
        object.__setattr__(self, "epsilons", eps)

    @property
    def n_beta(self) -> float:
        return self.n * self.beta

    @property
    def eps_min(self) -> float:
        return float(self.epsilons.min())

    @property
    def eps_max(self) -> float:
        return float(self.epsilons.max())

    def with_seed(self, seed: int) -> "SGLDConfig":
        return replace(self, seed=int(seed))

    def window_check(self, M: float) -> tuple[bool, str]:
        """Whether M·nβ ∈ (γ − 2/ε_max, γ)."""
        lo = self.gamma - 2.0 / self.eps_max
        hi = self.gamma
        value = M * self.n_beta
        ok = lo < value < hi
        text = f"M·n·β = {value:.6g} must lie in ({lo:.6g}, {hi:.6g})"
        return ok, text


def constant_schedule(
    n: int, beta: float, gamma: float, m: int, T: int, epsilon: float, seed: int = 0,
    weight_norm_cap: float | None = None, burn_in: float = 0.5,
) -> SGLDConfig:
    return SGLDConfig(
        n=n, beta=beta, gamma=gamma, m=m, T=T,
        epsilons=np.full(T, float(epsilon)), seed=seed,
        weight_norm_cap=weight_norm_cap, burn_in=burn_in,
    )


def geometric_schedule(
    n: int, beta: float, gamma: float, m: int, T: int,
    eps_max: float, eps_min: float, seed: int = 0, burn_in: float = 0.5,
) -> SGLDConfig:
    eps = np.geomspace(eps_max, eps_min, T)
    return SGLDConfig(n=n, beta=beta, gamma=gamma, m=m, T=T, epsilons=eps,
                      seed=seed, burn_in=burn_in)


def paper_preset(n: int, epsilon: float = 1e-4, m: int | None = None, seed: int = 0) -> SGLDConfig:
    """nβ = 10, γ = 300, T = 100, constant ε ∈ {1e-4, 1e-5}."""
    if epsilon not in (1e-4, 1e-5):
        raise SGLDError("preset step size is 1e-4 or 1e-5")
    return constant_schedule(
        n=n, beta=10.0 / n, gamma=300.0, m=n if m is None else m, T=100,
        epsilon=epsilon, seed=seed,
    )


# ---------------------------------------------------------------------------
# Sampling targets: anything with a dataset size, a dimension, and batched
# full-data losses and minibatch gradients over a (B, dim) stack of states.
# ---------------------------------------------------------------------------

class SoftmaxTarget:
    """Adapter of a conditional model plus dataset to the chain interface."""

    def __init__(self, model: SoftmaxModel, dataset: Dataset):
        if len(dataset) == 0:
            raise SGLDError("empty dataset")
        self.model = model
        self.dataset = dataset
        self.n = len(dataset)
        self.dim = model.dim
        self._joint = dataset.empirical_joint()

    def loss(self, W: np.ndarray) -> np.ndarray:
        """L_n(w_b) for each row of W."""
        return population_losses(self.model, self._joint, W)

    def grad(self, W: np.ndarray, idx: np.ndarray | None) -> np.ndarray:
        """∇L_m(w_b) for each row of W on the minibatch idx[b] (all data if None)."""
        if idx is None:
            coeff = self._joint
        else:
            coeff = self.dataset.subset_counts(idx) / idx.shape[1]
        return -self.model.weighted_grads(W, coeff)


class QuadraticTarget:
    """L(w) = ½ Σ h_i w_i², with exact gradients; n is nominal."""

    def __init__(self, curvature: np.ndarray, n: int):
        self.curvature = np.asarray(curvature, dtype=float)
        self.n = int(n)
        self.dim = self.curvature.shape[0]

    def loss(self, W: np.ndarray) -> np.ndarray:
        return 0.5 * np.sum(self.curvature * np.asarray(W) ** 2, axis=-1)

    def grad(self, W: np.ndarray, idx) -> np.ndarray:
        return self.curvature * W


def as_target(model, dataset=None):
    if isinstance(model, SoftmaxModel):
        if dataset is None:
            raise SGLDError("a dataset is required with a conditional model")
        return SoftmaxTarget(model, dataset)
    for attr in ("loss", "grad", "dim", "n"):
        if not hasattr(model, attr):
            raise SGLDError(f"target lacks required attribute {attr!r}")
    return model


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
    """States w_1..w_T with recorded full-data losses.

    The first state is the initial point; step t (1-based) produced state t
    from noise and minibatch streams keyed by (config.seed, t), so the whole
    trace is reproducible from (config, dataset, initial point).
    """

    states: np.ndarray
    losses: np.ndarray
    epsilons: np.ndarray
    config: SGLDConfig
    w_star: np.ndarray
    norm_cap_violations: int = 0
    aborted: bool = False

    @property
    def T(self) -> int:
        return self.states.shape[0]

    @property
    def noise_stream_id(self) -> tuple[int, int]:
        return (self.config.seed, NOISE_TAG)

    def distances_to_center(self) -> np.ndarray:
        return np.linalg.norm(self.states - self.w_star[None, :], axis=1)

    def minibatch_indices(self, t: int) -> np.ndarray | None:
        """Regenerate the minibatch index draw used by step t (1-based)."""
        if self.config.m >= self.config.n:
            return None
        rng = keyed_generator(self.config.seed, BATCH_TAG, t)
        return rng.integers(0, self.config.n, size=self.config.m)


LOSS_BLOCK = 1024  # states per batched loss evaluation after the loop


def _norms(vectors: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, each through the 1-d ``np.linalg.norm``.

    The 1-d norm reduces through BLAS ``dot``, whose rounding an axis-wise
    norm does not reproduce; coupled deltas and norm-cap counts use it so
    that they equal a per-step 1-d norm bit for bit.
    """
    return np.array([np.linalg.norm(v) for v in vectors])


def run_chains(targets, w_star: np.ndarray, configs, init: np.ndarray | None = None
               ) -> list[ChainTrace]:
    """Advance one chain per (target, config) row in lockstep; one trace per row.

    All rows share the localization center w*, the start point ``init``
    (default w*) and T, n and m. Row c takes its step-t noise and minibatch
    indices from the (seed_c, tag, t) streams; rows with equal seeds draw them
    once and share them. Each step evaluates one batched gradient per distinct
    target; full-data losses are evaluated after the loop in blocks of at most
    ``LOSS_BLOCK`` states.
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
    rows, d = len(targets), w_star.size
    states = np.empty((rows, T, d))
    states[:, 0] = w_star if init is None else np.asarray(init, dtype=float)

    eps = np.array([config.epsilons for config in configs])  # (C, T)
    sqrt_eps = np.sqrt(eps)
    n_beta = np.array([[config.n_beta] for config in configs])
    gamma = np.array([[config.gamma] for config in configs])
    seeds, seed_of_row = np.unique([config.seed for config in configs], return_inverse=True)
    noise = [StepStream(seed, NOISE_TAG) for seed in seeds]
    batch = [StepStream(seed, BATCH_TAG) for seed in seeds]
    draws = np.empty((seeds.size, d))
    idx = None if m >= n else np.empty((seeds.size, m), dtype=np.int64)
    by_target: dict[int, tuple[object, list[int]]] = {}
    for c, target in enumerate(targets):
        by_target.setdefault(id(target), (target, []))[1].append(c)
    # (target, its rows, row count); a target that owns every row takes a view
    groups = [(target, slice(None) if len(members) == rows else np.array(members), len(members))
              for target, members in by_target.values()]

    w = states[:, 0].copy()
    grad = np.empty((rows, d))
    for t in range(1, T):
        for u in range(seeds.size):
            noise[u].at(t).standard_normal(out=draws[u])
            if idx is not None:
                idx[u] = batch[u].at(t).integers(0, n, size=m)
        row_idx = None if idx is None else idx[seed_of_row]
        for target, members, _ in groups:
            grad[members] = target.grad(w[members], None if row_idx is None else row_idx[members])
        eta = draws[seed_of_row] * sqrt_eps[:, t, None]
        w = sgld_step(w, grad, w_star, eps[:, t, None], n_beta, gamma, eta)
        if not np.isfinite(w).all():
            c = int(np.flatnonzero(~np.isfinite(w).all(axis=1))[0])
            raise ChainDivergedError(f"non-finite state in chain {c} at step {t}",
                                     t, states[c, t - 1].copy(), row=c)
        states[:, t] = w

    losses = np.empty((rows, T))
    for target, members, count in groups:
        block = max(1, LOSS_BLOCK // count)
        for t0 in range(0, T, block):
            chunk = states[members, t0:t0 + block]
            losses[members, t0:t0 + block] = target.loss(chunk.reshape(-1, d)).reshape(count, -1)
    traces = []
    for c, config in enumerate(configs):
        violations = 0
        if config.weight_norm_cap is not None:
            violations = int(np.count_nonzero(
                _norms(states[c, 1:] - w_star) > config.weight_norm_cap))
        traces.append(ChainTrace(
            states=states[c], losses=losses[c], epsilons=np.asarray(config.epsilons).copy(),
            config=config, w_star=w_star, norm_cap_violations=violations,
        ))
    return traces


def run_chain(model, dataset, w_star: np.ndarray, config: SGLDConfig,
              init: np.ndarray | None = None) -> ChainTrace:
    """T-state chain started at ``init`` (default: the localization center)."""
    return run_chains([as_target(model, dataset)], w_star, [config], init)[0]


@dataclass(frozen=True)
class LLCEstimate:
    lambda_hat: float
    mean_loss: float
    reference_loss: float
    n_beta: float
    burn_in: float
    kept_states: int


def llc_estimate(trace: ChainTrace, model, dataset, w_star: np.ndarray,
                 config: SGLDConfig | None = None) -> LLCEstimate:
    """λ̂ = nβ·[mean_t L_n(w_t) − L_n(w*)], averaging after the burn-in cut."""
    config = config or trace.config
    target = as_target(model, dataset)
    start = int(config.burn_in * trace.T)
    kept = trace.losses[start:]
    if kept.size == 0:
        raise SGLDError("burn-in removed the whole trace")
    ref = float(target.loss(np.asarray(w_star, dtype=float)[None, :])[0])
    mean_loss = float(kept.mean())
    return LLCEstimate(
        lambda_hat=float(config.n_beta * (mean_loss - ref)),
        mean_loss=mean_loss,
        reference_loss=ref,
        n_beta=config.n_beta,
        burn_in=config.burn_in,
        kept_states=int(kept.size),
    )


@dataclass(eq=False)
class CoupledChains:
    trace_true: ChainTrace
    trace_truncated: ChainTrace
    deltas: np.ndarray  # ‖w_t − w̃_t‖ for t = 1..T (index 0 is the shared start)


def run_coupled_chains(model, dataset_true: Dataset, dataset_truncated: Dataset,
                       w_star: np.ndarray, config: SGLDConfig,
                       init: np.ndarray | None = None) -> CoupledChains:
    """Two chains with identical noise and minibatch schedules.

    The first follows gradients of the loss on ``dataset_true``, the second on
    ``dataset_truncated``; both are localized at the same w* and start at the
    same point. They are two rows of one :func:`run_chains` call that share
    the config, hence the seed.
    """
    target_a = as_target(model, dataset_true)
    target_b = as_target(model, dataset_truncated)
    if target_a.n != target_b.n:
        raise SGLDError("coupled datasets must have matched sizes")
    trace_a, trace_b = run_chains([target_a, target_b], w_star, [config, config], init)
    return CoupledChains(trace_true=trace_a, trace_truncated=trace_b,
                         deltas=_norms(trace_a.states - trace_b.states))


# ---------------------------------------------------------------------------
# The trajectory and estimator bounds.
# ---------------------------------------------------------------------------

def _require_window(config: SGLDConfig, M: float) -> None:
    ok, text = config.window_check(M)
    if not ok:
        raise WindowViolationError(f"hyperparameter window violated: {text}")


def bound_mu(config: SGLDConfig, M: float) -> float:
    """μ = 1 + (ε_min/2)(M·nβ − γ); lies in (0, 1) inside the window."""
    _require_window(config, M)
    mu = 1.0 + 0.5 * config.eps_min * (M * config.n_beta - config.gamma)
    return float(mu)


def bound_g(t: int, A: float, xi: float, config: SGLDConfig, M: float) -> float:
    """Trajectory divergence bound at step t (1-based; g(1) = 0)."""
    if t < 1:
        raise SGLDError("t is 1-based")
    mu = bound_mu(config, M)
    lead = (config.eps_max / config.eps_min) * (A + xi) / (config.gamma / config.n_beta - M)
    return float(lead * (1.0 - mu ** (t - 1)))


def bound_g_series(config: SGLDConfig, A: float, xi: float, M: float) -> np.ndarray:
    mu = bound_mu(config, M)
    lead = (config.eps_max / config.eps_min) * (A + xi) / (config.gamma / config.n_beta - M)
    t = np.arange(1, config.T + 1)
    return lead * (1.0 - mu ** (t - 1))


def bound_f(t: int, delta: float) -> float:
    return float(t * delta)


def estimator_difference_bound(A: float, B: float, xi: float, kappa: float,
                       Q: float, M: float, config: SGLDConfig) -> float:
    """Bound on |λ̂ − λ̂ after truncation| for insensitivity constants (A, B)."""
    _require_window(config, M)
    first = (config.eps_max / config.eps_min) * config.n_beta * Q * (A + xi) / (
        config.gamma / config.n_beta - M
    )
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
    epsilons: np.ndarray
    volumes: np.ndarray
    usable: np.ndarray


def volume_scaling_fit(
    loss_fn,
    dim: int,
    radius: float,
    epsilons: np.ndarray,
    n_samples: int = 2_000_000,
    seed: int = 0,
    min_count: int = 20,
) -> VolumeScalingFit:
    """Estimate (λ, m) from V(ε) ∝ ε^λ (−log ε)^{m−1} near a minimum at 0.

    V(ε) is estimated by uniform sampling of the radius-``radius`` ball, and
    log V is regressed on log ε with precision weights ~ sqrt(count). The
    log(−log ε) correction regressor is nearly collinear with log ε on
    practical ranges, so it is kept only when it explains the residuals far
    better (factor 4 in weighted RSS); otherwise m = 1 is reported. The
    design condition number records how distinguishable the two were.
    """
    epsilons = np.asarray(epsilons, dtype=float)
    if np.any(epsilons >= 1.0) or np.any(epsilons <= 0.0):
        raise SGLDError("epsilon grid must lie in (0, 1) for the log-log fit")
    rng = keyed_generator(seed, VOLUME_TAG)
    chunk = 250_000
    counts = np.zeros(epsilons.size, dtype=np.int64)
    remaining = int(n_samples)
    while remaining > 0:
        size = min(chunk, remaining)
        direction = rng.standard_normal((size, dim))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        radii = radius * rng.random(size) ** (1.0 / dim)
        points = direction * radii[:, None]
        values = loss_fn(points)
        counts += (values[None, :] < epsilons[:, None]).sum(axis=1)
        remaining -= size
    ball_volume = (np.pi ** (dim / 2) / math.gamma(dim / 2 + 1)) * radius**dim
    volumes = counts / float(n_samples) * ball_volume
    usable = counts >= min_count
    if usable.sum() < 4:
        raise SGLDError("degenerate fit: fewer than 4 epsilon levels are usable")
    x1 = np.log(epsilons[usable])
    x2 = np.log(-np.log(epsilons[usable]))
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
        epsilons=epsilons,
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


def coupled_bound_trial(
    model: SoftmaxModel,
    joint_true: np.ndarray,
    joint_truncated: np.ndarray,
    config: SGLDConfig,
    seed: int,
    n_region: int = 160,
    n_hessian: int = 24,
    region_scale: float = 1.5,
    refit_center_on_truncated: bool = False,
) -> CoupledTrialResult:
    """One seeded coupled run with constants measured on the visited region.

    The evaluation set for the insensitivity and Lipschitz constants is a
    seeded ball sample around w* (radius = region_scale × the larger chain
    excursion) together with both chains' own states, which operationalizes
    the supremum over a region known to contain the trajectories. Bounds are
    only asserted when the hyperparameter window holds for the measured M̂.
    """
    dataset_true = sample_dataset(joint_true, config.n, seed=seed)
    dataset_trunc = sample_dataset(joint_truncated, config.n, seed=seed + 1_000_003)
    fit = fit_model(model, dataset_true if not refit_center_on_truncated else dataset_trunc)
    w_star = fit.w
    run_config = config.with_seed(seed)
    coupled = run_coupled_chains(model, dataset_true, dataset_trunc, w_star, run_config)

    excursion = max(
        coupled.trace_true.distances_to_center().max(),
        coupled.trace_truncated.distances_to_center().max(),
        1e-6,
    )
    radius = region_scale * float(excursion)
    rng = keyed_generator(seed, REGION_TAG)
    ball = _ball_sample(rng, w_star, radius, n_region)
    stride = max(1, config.T // 64)
    trail = np.vstack([
        coupled.trace_true.states[::stride],
        coupled.trace_truncated.states[::stride],
    ])
    points = np.vstack([w_star[None, :], ball, trail])

    emp_true = dataset_true.empirical_joint()
    emp_trunc = dataset_trunc.empirical_joint()
    report = insensitivity_report(
        model, emp_true, emp_trunc, list(points),
        description=f"ball({n_region}) + trajectories, radius {radius:.4g}",
    )
    hess_points = [points[i] for i in range(0, len(points), max(1, len(points) // n_hessian))]
    lip = lipschitz_estimates(model, dataset_true, hess_points)

    window_ok, window_text = run_config.window_check(lip.M)
    g_series = None
    delta_ok = False
    est_bound = None
    llc_ok = False
    est_true = llc_estimate(coupled.trace_true, model, dataset_true, w_star,
                            replace(run_config, burn_in=0.0))
    est_trunc = llc_estimate(coupled.trace_truncated, model, dataset_trunc, w_star,
                             replace(run_config, burn_in=0.0))
    diff = abs(est_true.lambda_hat - est_trunc.lambda_hat)
    if window_ok:
        g_series = bound_g_series(run_config, report.A, 0.0, lip.M)
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
