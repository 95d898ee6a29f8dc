"""Small parametric conditional sequence models with analytic gradients.

Softmax models over (context, continuation) pairs in two parametrizations:
a full logit table (one pinned logit per context for identifiability, so the
model is regular) and a low-rank factorization of the logit matrix. Gradients
are hand-derived; a finite-difference oracle in the tests checks them.

The same module carries the function-space view of a model (its matrix of
log-probabilities), the insensitivity constants of a model to the difference
between two distributions, population and empirical losses, dataset sampling,
full-batch fitting, empirical Lipschitz estimates, and the entropy-rate
threshold calculator.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from ._streams import DATA_TAG, keyed_generator

JOINT_ATOL = 1e-12


class ModelError(ValueError):
    pass


@dataclass(frozen=True)
class SoftmaxModel:
    """p(y|x, w) = softmax(logits(x, w))[y] over y ∈ Σ^l for each x ∈ Σ^k."""

    k: int
    l: int
    alphabet_size: int
    parametrization: str = "full_table"  # or "low_rank"
    rank: int | None = None
    pinned: bool = True  # full_table only: last logit per context fixed at 0

    def __post_init__(self):
        if self.parametrization not in ("full_table", "low_rank"):
            raise ModelError(f"unknown parametrization {self.parametrization!r}")
        if self.parametrization == "low_rank":
            if self.rank is None or self.rank < 1:
                raise ModelError("low_rank requires a positive rank")

    @property
    def n_x(self) -> int:
        return self.alphabet_size**self.k

    @property
    def n_y(self) -> int:
        return self.alphabet_size**self.l

    @property
    def dim(self) -> int:
        if self.parametrization == "full_table":
            per_x = self.n_y - 1 if self.pinned else self.n_y
            return self.n_x * per_x
        return self.rank * (self.n_x + self.n_y)

    # -- logits and probabilities ------------------------------------------
    #
    # The kernels below work on a (B, dim) stack of weights and do not check
    # them; the single-w methods are their B = 1 case and check their input.
    # Each row is reduced in the memory layout a lone row has, so a row of a
    # stack gives the same bits as the same weights passed alone.

    def _check_weights(self, w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        if w.shape != (self.dim,):
            raise ModelError(f"weights must have shape ({self.dim},), got {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ModelError("weights must be finite")
        return w

    def _logits(self, W: np.ndarray) -> np.ndarray:
        """Logit stack Z[b, x, y]."""
        count = W.shape[0]
        if self.parametrization == "full_table":
            if self.pinned:
                z = np.zeros((count, self.n_x, self.n_y))
                z[:, :, :-1] = W.reshape(count, self.n_x, self.n_y - 1)
                return z
            return W.reshape(count, self.n_x, self.n_y)
        a, b = self._factors(W)
        return b @ a.transpose(0, 2, 1)

    def _factors(self, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        r, count = self.rank, W.shape[0]
        a = W[:, : self.n_y * r].reshape(count, self.n_y, r)
        b = W[:, self.n_y * r :].reshape(count, self.n_x, r)
        return a, b

    def log_conditionals(self, W: np.ndarray) -> np.ndarray:
        """log p(y|x, w_b) for each row of a (B, dim) stack, as (B, n_y, n_x)."""
        z = self._logits(W)
        z = z - z.max(axis=2, keepdims=True)
        logz = np.log(np.exp(z).sum(axis=2, keepdims=True))
        return (z - logz).transpose(0, 2, 1)

    def weighted_grads(self, W: np.ndarray, coeff: np.ndarray) -> np.ndarray:
        """Σ_{x,y} c_b(x,y) ∇_w log p(y|x,w_b) for each row of a (B, dim) stack.

        ``coeff`` is one matrix c[y,x] shared by every row or a (B, n_y, n_x)
        stack of them.
        """
        p = np.exp(self.log_conditionals(W)).transpose(0, 2, 1)  # (B, n_x, n_y)
        c = np.swapaxes(np.asarray(coeff, dtype=float), -1, -2)  # (..., n_x, n_y)
        m = c - p * c.sum(axis=-1, keepdims=True)
        count = W.shape[0]
        if self.parametrization == "full_table":
            if self.pinned:
                return m[:, :, :-1].reshape(count, -1)
            return m.reshape(count, -1)
        a, b = self._factors(W)
        da = m.transpose(0, 2, 1) @ b  # (B, n_y, r)
        db = m @ a  # (B, n_x, r)
        return np.concatenate([da.reshape(count, -1), db.reshape(count, -1)], axis=1)

    def log_conditional_matrix(self, w: np.ndarray) -> np.ndarray:
        """log p(y|x, w) as an (n_y, n_x) array."""
        return self.log_conditionals(self._check_weights(w)[None])[0]

    def conditional_matrix(self, w: np.ndarray) -> np.ndarray:
        """p(y|x, w) as an (n_y, n_x) array; columns sum to 1."""
        return np.exp(self.log_conditional_matrix(w))

    def weighted_grad(self, w: np.ndarray, coeff: np.ndarray) -> np.ndarray:
        """Σ_{x,y} c(x,y) ∇_w log p(y|x,w) for a coefficient matrix c[y,x]."""
        return self.weighted_grads(self._check_weights(w)[None], coeff)[0]


def log_prob(model: SoftmaxModel, x: int, y: int, w: np.ndarray) -> float:
    """log p(y|x, w) for flat context index x and continuation index y."""
    return float(model.log_conditional_matrix(w)[y, x])


def grad_log_prob(model: SoftmaxModel, x: int, y: int, w: np.ndarray) -> np.ndarray:
    coeff = np.zeros((model.n_y, model.n_x))
    coeff[y, x] = 1.0
    return model.weighted_grad(w, coeff)


def phi_map(model: SoftmaxModel, w: np.ndarray) -> np.ndarray:
    """Log-probability map as an element of the weighted function space."""
    return model.log_conditional_matrix(w)


# ---------------------------------------------------------------------------
# Insensitivity constants.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InsensitivityReport:
    A: float
    B: float
    evaluation_points: str
    per_point_A: np.ndarray
    per_point_B: np.ndarray


def _check_joint_pair(q_joint: np.ndarray, qp_joint: np.ndarray, model: SoftmaxModel):
    q_joint = np.asarray(q_joint, dtype=float)
    qp_joint = np.asarray(qp_joint, dtype=float)
    shape = (model.n_y, model.n_x)
    if q_joint.shape != shape or qp_joint.shape != shape:
        raise ModelError(f"joints must have shape {shape}")
    return q_joint, qp_joint


def insensitivity_A(
    model: SoftmaxModel, q_joint: np.ndarray, qp_joint: np.ndarray, region_sample
) -> float:
    """max over the sample of ‖Σ_{x,y} (q(x,y) − q'(x,y)) ∇_w log p(y|x,w)‖₂."""
    q_joint, qp_joint = _check_joint_pair(q_joint, qp_joint, model)
    sample = list(region_sample)
    if not sample:
        raise ModelError("empty evaluation sample")
    diff = q_joint - qp_joint
    return max(float(np.linalg.norm(model.weighted_grad(w, diff))) for w in sample)


def insensitivity_B(
    model: SoftmaxModel, q_joint: np.ndarray, qp_joint: np.ndarray, region_sample
) -> float:
    """max over the sample of |Σ_{x,y} (q(x,y) − q'(x,y)) log p(y|x,w)|."""
    q_joint, qp_joint = _check_joint_pair(q_joint, qp_joint, model)
    sample = list(region_sample)
    if not sample:
        raise ModelError("empty evaluation sample")
    diff = q_joint - qp_joint
    return max(
        abs(float(np.sum(diff * model.log_conditional_matrix(w)))) for w in sample
    )


def insensitivity_report(
    model: SoftmaxModel,
    q_joint: np.ndarray,
    qp_joint: np.ndarray,
    region_sample,
    description: str = "",
) -> InsensitivityReport:
    q_joint, qp_joint = _check_joint_pair(q_joint, qp_joint, model)
    sample = list(region_sample)
    if not sample:
        raise ModelError("empty evaluation sample")
    diff = q_joint - qp_joint
    per_a = np.array(
        [float(np.linalg.norm(model.weighted_grad(w, diff))) for w in sample]
    )
    per_b = np.array(
        [abs(float(np.sum(diff * model.log_conditional_matrix(w)))) for w in sample]
    )
    return InsensitivityReport(
        A=float(per_a.max()),
        B=float(per_b.max()),
        evaluation_points=description or f"{len(sample)} sampled points",
        per_point_A=per_a,
        per_point_B=per_b,
    )


# ---------------------------------------------------------------------------
# Losses and datasets.
# ---------------------------------------------------------------------------

def population_losses(model: SoftmaxModel, joint: np.ndarray, W: np.ndarray) -> np.ndarray:
    """L(w_b) = −Σ_{x,y} q(x,y) log p(y|x,w_b) for each row of a (B, dim) stack."""
    joint = np.asarray(joint, dtype=float)
    support = joint > 0
    logp = np.ascontiguousarray(model.log_conditionals(W)[:, support])  # (B, |support|)
    losses = -np.sum(joint[support] * logp, axis=1)
    losses[~np.all(np.isfinite(logp), axis=1)] = np.inf
    return losses


def population_loss(model: SoftmaxModel, joint: np.ndarray, w: np.ndarray) -> float:
    """L(w) = −Σ_{x,y} q(x,y) log p(y|x,w) for a joint q[y,x]."""
    return float(population_losses(model, joint, model._check_weights(w)[None])[0])


def grad_population_loss(model: SoftmaxModel, joint: np.ndarray, w: np.ndarray) -> np.ndarray:
    return -model.weighted_grad(w, np.asarray(joint, dtype=float))


@dataclass(frozen=True, eq=False)
class Dataset:
    """(x, y) pairs as flat index arrays, with a cached count matrix.

    ``cells`` holds each pair's flat cell index y·n_x + x into the row-major
    (n_y, n_x) count matrix, so counting subsets is one ``np.bincount``.
    """

    x_idx: np.ndarray
    y_idx: np.ndarray
    n_x: int
    n_y: int
    cells: np.ndarray = field(init=False)
    counts: np.ndarray = field(init=False)

    def __post_init__(self):
        x = np.asarray(self.x_idx, dtype=np.int64)
        y = np.asarray(self.y_idx, dtype=np.int64)
        if x.shape != y.shape or x.ndim != 1:
            raise ModelError("x_idx and y_idx must be 1-d arrays of equal length")
        if x.size and (x.min() < 0 or x.max() >= self.n_x or y.min() < 0 or y.max() >= self.n_y):
            raise ModelError("x_idx and y_idx must index into (n_x, n_y)")
        object.__setattr__(self, "x_idx", x)
        object.__setattr__(self, "y_idx", y)
        object.__setattr__(self, "cells", y * self.n_x + x)
        object.__setattr__(self, "counts", self.subset_counts(slice(None)))

    def __len__(self) -> int:
        return self.x_idx.shape[0]

    def empirical_joint(self) -> np.ndarray:
        if len(self) == 0:
            raise ModelError("empty dataset")
        return self.counts / len(self)

    def subset_counts(self, indices) -> np.ndarray:
        """Count matrix of the pairs at ``indices``; (B, m) indices give B of them."""
        cells = self.cells[indices]
        if cells.ndim == 2:  # offset each row into a block of its own
            cells = cells + self.n_y * self.n_x * np.arange(cells.shape[0])[:, None]
        shape = cells.shape[:-1] + (self.n_y, self.n_x)
        counts = np.bincount(cells.ravel(), minlength=math.prod(shape))
        return counts.reshape(shape).astype(float)


def empirical_loss(model: SoftmaxModel, dataset: Dataset, w: np.ndarray) -> float:
    """L_n(w) = −(1/n) Σ_i log p(y_i|x_i, w)."""
    if len(dataset) == 0:
        raise ModelError("empty dataset")
    return population_loss(model, dataset.empirical_joint(), w)


def grad_empirical_loss(model: SoftmaxModel, dataset: Dataset, w: np.ndarray) -> np.ndarray:
    if len(dataset) == 0:
        raise ModelError("empty dataset")
    return -model.weighted_grad(w, dataset.empirical_joint())


def sample_dataset(joint: np.ndarray, n: int, seed: int) -> Dataset:
    """n i.i.d. draws from a joint q[y,x]; deterministic per seed."""
    joint = np.asarray(joint, dtype=float)
    n_y, n_x = joint.shape
    flat = joint.ravel()
    flat = flat / flat.sum()
    rng = keyed_generator(seed, DATA_TAG)
    cells = rng.choice(flat.size, size=int(n), p=flat) if n else np.empty(0, dtype=np.int64)
    y_idx, x_idx = np.unravel_index(cells.astype(np.int64), (n_y, n_x))
    return Dataset(x_idx=x_idx, y_idx=y_idx, n_x=n_x, n_y=n_y)


# ---------------------------------------------------------------------------
# Fitting.
# ---------------------------------------------------------------------------

@dataclass
class FitResult:
    w: np.ndarray
    converged: bool
    grad_norm: float
    iterations: int
    loss: float


def _smart_init(model: SoftmaxModel, joint: np.ndarray) -> np.ndarray:
    cond = joint / np.maximum(joint.sum(axis=0, keepdims=True), 1e-300)
    logits = np.log(np.maximum(cond.T, 1e-12))  # (n_x, n_y)
    if model.parametrization == "full_table":
        if model.pinned:
            pinned_col = logits[:, -1:]
            return (logits[:, :-1] - pinned_col).reshape(-1)
        return logits.reshape(-1)
    u, s, vh = np.linalg.svd(logits, full_matrices=False)
    r = model.rank
    b = u[:, :r] * np.sqrt(s[:r])[None, :]
    a = (vh[:r].T) * np.sqrt(s[:r])[None, :]
    pad_a = np.zeros((model.n_y, r))
    pad_b = np.zeros((model.n_x, r))
    pad_a[:, : a.shape[1]] = a
    pad_b[:, : b.shape[1]] = b
    return np.concatenate([pad_a.reshape(-1), pad_b.reshape(-1)])


def fit_model(
    model: SoftmaxModel,
    data: Dataset | np.ndarray,
    grad_tol: float = 1e-10,
    max_iterations: int = 10000,
    init: np.ndarray | None = None,
) -> FitResult:
    """Full-batch gradient descent with backtracking to a stationary point.

    ``data`` is a Dataset or a joint array q[y,x]. Initialization is the
    log-frequency table (exact optimum for fully-observed full tables), so
    descent usually terminates immediately.
    """
    joint = data.empirical_joint() if isinstance(data, Dataset) else np.asarray(data, dtype=float)
    w = _smart_init(model, joint) if init is None else np.asarray(init, dtype=float).copy()
    loss = population_loss(model, joint, w)
    step = 1.0
    iterations = 0
    grad_norm = float("inf")
    for iterations in range(1, max_iterations + 1):
        grad = grad_population_loss(model, joint, w)
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm < grad_tol:
            return FitResult(w=w, converged=True, grad_norm=grad_norm,
                             iterations=iterations - 1, loss=loss)
        while step > 1e-18:
            cand = w - step * grad
            cand_loss = population_loss(model, joint, cand)
            if cand_loss <= loss - 1e-4 * step * grad_norm**2:
                break
            step *= 0.5
        if step <= 1e-18:
            break
        w, loss = cand, cand_loss
        step = min(step * 2.0, 64.0)
    grad_norm = float(np.linalg.norm(grad_population_loss(model, joint, w)))
    return FitResult(
        w=w, converged=grad_norm < grad_tol, grad_norm=grad_norm,
        iterations=iterations, loss=loss,
    )


# ---------------------------------------------------------------------------
# Empirical Lipschitz estimates.
# ---------------------------------------------------------------------------

@dataclass
class LipschitzEstimates:
    """Empirical estimates, not certified bounds: maxima over the sample."""

    M: float
    Q: float
    per_point_M: np.ndarray
    per_point_Q: np.ndarray
    power_iterations_converged: bool


def _hessian_spectral_norm(
    grad_fn, w: np.ndarray, dim: int, fd_step: float = 1e-5,
    max_iterations: int = 100, tol: float = 1e-9,
) -> tuple[float, bool]:
    """Power iteration on central-difference Hessian-vector products."""
    v = np.ones(dim) + 1e-3 * np.arange(dim)  # fixed, never orthogonal by accident
    v /= np.linalg.norm(v)
    value = 0.0
    for _ in range(max_iterations):
        hv = (grad_fn(w + fd_step * v) - grad_fn(w - fd_step * v)) / (2 * fd_step)
        new_value = float(np.linalg.norm(hv))
        if new_value == 0.0:
            return 0.0, True
        v = hv / new_value
        if abs(new_value - value) <= tol * max(new_value, 1.0):
            return new_value, True
        value = new_value
    return value, False


def lipschitz_estimates(
    model: SoftmaxModel, dataset: Dataset, region_sample, fd_step: float = 1e-5
) -> LipschitzEstimates:
    """M = max sampled Hessian spectral norm of L_n; Q = max sampled ‖∇L_n‖."""
    sample = list(region_sample)
    if not sample:
        raise ModelError("empty evaluation sample")
    joint = dataset.empirical_joint()

    def grad_fn(w):
        return -model.weighted_grad(w, joint)

    per_m = np.empty(len(sample))
    per_q = np.empty(len(sample))
    all_converged = True
    for i, w in enumerate(sample):
        per_q[i] = float(np.linalg.norm(grad_fn(w)))
        per_m[i], ok = _hessian_spectral_norm(grad_fn, np.asarray(w, float), model.dim, fd_step)
        all_converged = all_converged and ok
    return LipschitzEstimates(
        M=float(per_m.max()),
        Q=float(per_q.max()),
        per_point_M=per_m,
        per_point_Q=per_q,
        power_iterations_converged=all_converged,
    )


# ---------------------------------------------------------------------------
# Entropy-rate threshold.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EntropyRateBound:
    threshold: float
    exponent: float
    context_dominates: bool  # k > 2 + 31 l


def entropy_rate_bound(
    k: int, l: int, alphabet_size: int, H: float, A: float
) -> EntropyRateBound:
    """Threshold 2^{((k+l)/2)·H − l·log2|Σ| − 1}·A with the k > 2 + 31l flag."""
    if H <= 0:
        raise ModelError("entropy rate H must be positive")
    exponent = 0.5 * (k + l) * H - l * np.log2(alphabet_size) - 1.0
    return EntropyRateBound(
        threshold=float(2.0**exponent * A),
        exponent=float(exponent),
        context_dominates=bool(k > 2 + 31 * l),
    )


# ---------------------------------------------------------------------------
# Serialization: weights as a flat array with a shape header; datasets as a
# TSV of token-id index pairs.
# ---------------------------------------------------------------------------

def save_weights(model: SoftmaxModel, w: np.ndarray, path) -> None:
    from pathlib import Path

    payload = {
        "parametrization": model.parametrization,
        "k": model.k,
        "l": model.l,
        "alphabet_size": model.alphabet_size,
        "rank": model.rank,
        "pinned": model.pinned,
        "weights": [float(v) for v in np.asarray(w, dtype=float)],
    }
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def load_weights(path) -> tuple[SoftmaxModel, np.ndarray]:
    from pathlib import Path

    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    model = SoftmaxModel(
        k=int(payload["k"]),
        l=int(payload["l"]),
        alphabet_size=int(payload["alphabet_size"]),
        parametrization=payload["parametrization"],
        rank=payload.get("rank"),
        pinned=bool(payload.get("pinned", True)),
    )
    w = np.asarray(payload["weights"], dtype=float)
    if w.shape != (model.dim,):
        raise ModelError(f"stored weights have wrong length {w.shape}")
    return model, w


def write_dataset_tsv(dataset: Dataset, path) -> None:
    from pathlib import Path

    lines = [f"#n_x {dataset.n_x}", f"#n_y {dataset.n_y}"]
    for x, y in zip(dataset.x_idx, dataset.y_idx):
        lines.append(f"{int(x)}\t{int(y)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_dataset_tsv(path) -> Dataset:
    from pathlib import Path

    n_x = n_y = None
    xs, ys = [], []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line:
            continue
        if line.startswith("#n_x"):
            n_x = int(line.split()[1])
        elif line.startswith("#n_y"):
            n_y = int(line.split()[1])
        elif not line.startswith("#"):
            x, y = line.split("\t")
            xs.append(int(x))
            ys.append(int(y))
    if n_x is None or n_y is None:
        raise ModelError("dataset file missing shape header")
    return Dataset(x_idx=np.asarray(xs), y_idx=np.asarray(ys), n_x=n_x, n_y=n_y)


# ---------------------------------------------------------------------------
# Composite models over a chain of (k, l) splits.
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CompositeModel:
    """Per-level conditional models chained over a decomposition of K.

    The joint model probability of a full sequence is the product of the
    level conditionals times a fixed base marginal (not modelled).
    """

    levels: tuple[SoftmaxModel, ...]
    pairs: tuple[tuple[int, int], ...]
    base_log_marginal: np.ndarray  # over Σ^{k_m}, flat row-major
    alphabet_size: int

    @property
    def K(self) -> int:
        return self.pairs[0][0] + self.pairs[0][1]

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(m.dim for m in self.levels)

    @property
    def dim(self) -> int:
        return sum(self.dims)

    def split_weights(self, w: np.ndarray) -> list[np.ndarray]:
        w = np.asarray(w, dtype=float)
        if w.shape != (self.dim,):
            raise ModelError(f"weights must have shape ({self.dim},)")
        out = []
        offset = 0
        for d in self.dims:
            out.append(w[offset : offset + d])
            offset += d
        return out

    def log_sequence_probabilities(self, w: np.ndarray) -> np.ndarray:
        """log p(x_1..x_K | w) as a flat array over Σ^K (row-major)."""
        parts = self.split_weights(w)
        size = self.alphabet_size
        log_joint = self.base_log_marginal.copy()
        for level, weights in zip(reversed(self.levels), reversed(parts)):
            logp = level.log_conditional_matrix(weights)  # (n_y, n_x)
            log_joint = (logp + log_joint[None, :]).T.reshape(-1)
        return log_joint

    def population_loss(self, joint_K: np.ndarray, w: np.ndarray) -> float:
        """−Σ_x q(x) log p(x|w) over full sequences."""
        q = np.asarray(joint_K, dtype=float).reshape(-1)
        logp = self.log_sequence_probabilities(w)
        support = q > 0
        return float(-np.sum(q[support] * logp[support]))


def composite_model_for(
    lang_alphabet_size: int,
    pairs: list[tuple[int, int]],
    base_marginal: np.ndarray,
    pinned: bool = True,
) -> CompositeModel:
    levels = tuple(
        SoftmaxModel(k=k, l=l, alphabet_size=lang_alphabet_size, pinned=pinned)
        for k, l in pairs
    )
    base = np.asarray(base_marginal, dtype=float).reshape(-1)
    return CompositeModel(
        levels=levels,
        pairs=tuple(tuple(p) for p in pairs),
        base_log_marginal=np.log(np.maximum(base, 1e-300)),
        alphabet_size=lang_alphabet_size,
    )
