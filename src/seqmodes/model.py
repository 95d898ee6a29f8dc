"""Small parametric conditional sequence models with analytic gradients.

Softmax models over (context, continuation) pairs in two parametrizations:
a full logit table (one pinned logit per context for identifiability, so the
model is regular) and a low-rank factorization of the logit matrix. Gradients
and Hessians are hand-derived; finite-difference oracles in the tests check
them.

The same module carries the function-space view of a model (its matrix of
log-probabilities), the insensitivity constants of a model to the difference
between two distributions, population and empirical losses, dataset sampling,
full-batch fitting, the exact Hessian-norm and gradient-norm constants M and
Q, the entropy-rate threshold calculator, and composite models chained over a
decomposition of K. Constants over a set of points are evaluated on the
(P, dim) stack of them at once. Models, weights and datasets live in memory
only: nothing here reads or writes files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._streams import DATA_TAG, keyed_generator

FIT_GRAD_TOL = 1e-10  # gradient norm at which fit_model stops
FIT_MAX_ITERATIONS = 10_000


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
    per_point_A: np.ndarray
    per_point_B: np.ndarray


def row_norms(vectors: np.ndarray) -> np.ndarray:
    """Norm of each row through the 1-d ``np.linalg.norm`` (BLAS ``dot``), whose
    rounding an axis-wise norm does not reproduce: a row gets a lone vector's bits."""
    return np.array([np.linalg.norm(v) for v in vectors])


def _region_stack(model: SoftmaxModel, region_sample) -> np.ndarray:
    """Evaluation points as a checked (P, dim) stack."""
    W = np.asarray(region_sample, dtype=float)
    if W.ndim != 2 or W.shape[0] == 0 or W.shape[1] != model.dim:
        raise ModelError(f"evaluation sample must be a nonempty (P, {model.dim}) stack, "
                         f"got shape {W.shape}")
    if not np.all(np.isfinite(W)):
        raise ModelError("weights must be finite")
    return W


def insensitivity_report(
    model: SoftmaxModel,
    q_joint: np.ndarray,
    qp_joint: np.ndarray,
    region_sample,
) -> InsensitivityReport:
    """Insensitivity constants over the points of ``region_sample``, evaluated as one stack.

    A = max ‖Σ_{x,y} (q(x,y) − q'(x,y)) ∇_w log p(y|x,w)‖₂ and
    B = max |Σ_{x,y} (q(x,y) − q'(x,y)) log p(y|x,w)|.
    """
    shape = (model.n_y, model.n_x)
    if np.shape(q_joint) != shape or np.shape(qp_joint) != shape:
        raise ModelError(f"joints must have shape {shape}")
    diff = np.asarray(q_joint, dtype=float) - np.asarray(qp_joint, dtype=float)
    W = _region_stack(model, region_sample)
    per_a = row_norms(model.weighted_grads(W, diff))
    per_b = np.abs((diff * model.log_conditionals(W)).reshape(len(W), -1).sum(axis=1))
    return InsensitivityReport(A=float(per_a.max()), B=float(per_b.max()),
                               per_point_A=per_a, per_point_B=per_b)


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
    for iterations in range(1, FIT_MAX_ITERATIONS + 1):
        grad = grad_population_loss(model, joint, w)
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm < FIT_GRAD_TOL:
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
        w=w, converged=grad_norm < FIT_GRAD_TOL, grad_norm=grad_norm,
        iterations=iterations, loss=loss,
    )


# ---------------------------------------------------------------------------
# Lipschitz constants.
# ---------------------------------------------------------------------------

HESSIAN_BLOCK = 1 << 22  # Hessian entries per batched eigvalsh call


def _context_hessians(p: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """K_x = q̂(x)(diag p_x − p_x p_xᵀ) for a (..., n_x, n_y) stack of p(·|x)."""
    return mass[:, None, None] * p[..., :, None] * (np.eye(p.shape[-1]) - p[..., None, :])


def _low_rank_hessian(model: SoftmaxModel, w: np.ndarray, p: np.ndarray,
                      mass: np.ndarray, joint: np.ndarray) -> np.ndarray:
    """Dense ∇²L at one low-rank point: Jᵀ K J plus the bilinear term of Z = B Aᵀ."""
    n_x, n_y, r = model.n_x, model.n_y, model.rank
    a, b = (f[0] for f in model._factors(w[None]))
    K = _context_hessians(p, mass)  # (n_x, n_y, n_y)
    grad_z = mass[:, None] * p - joint.T  # G[x,y] = ∂L/∂Z[x,y]
    h_aa = np.einsum("xr,xyz,xs->yrzs", b, K, b).reshape(n_y * r, n_y * r)
    h_bb = np.eye(n_x)[:, None, :, None] * np.einsum("yr,xyz,zs->xrs", a, K, a)[:, :, None]
    h_ab = np.einsum("xr,xyz,zs->yrxs", b, K, a)
    h_ab += np.einsum("rs,xy->yrxs", np.eye(r), grad_z)  # ∂²L/∂A[y,r]∂B[x,s] = δ_rs G[x,y]
    h_ab = h_ab.reshape(n_y * r, n_x * r)
    return np.block([[h_aa, h_ab], [h_ab.T, h_bb.reshape(n_x * r, n_x * r)]])


def hessian_norms(model: SoftmaxModel, joint: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Exact ‖∇²L(w_b)‖₂ of L(w) = −Σ_{x,y} q(x,y) log p(y|x,w) for each row of W.

    In the logits z_x it is block-diagonal, K_x = q̂(x)(diag p_x − p_x p_xᵀ), and
    a full table's weights are its logits (pinned: less each block's last row
    and column); a low-rank Hessian is built densely per point. The norm is the
    largest |eigenvalue| from batched ``eigvalsh`` calls of ≤ ``HESSIAN_BLOCK`` entries.
    """
    joint = np.asarray(joint, dtype=float)
    mass = joint.sum(axis=0)  # q̂(x)
    low_rank = model.parametrization == "low_rank"
    free = model.n_y - 1 if model.pinned else model.n_y  # unpinned logits per context
    rows = max(1, HESSIAN_BLOCK // (model.dim**2 if low_rank else model.n_x * model.n_y**2))
    norms = []
    for start in range(0, W.shape[0], rows):
        block = W[start:start + rows]
        p = np.exp(model.log_conditionals(block)).transpose(0, 2, 1)  # (rows, n_x, n_y)
        if low_rank:
            H = np.stack([_low_rank_hessian(model, w, pw, mass, joint) for w, pw in zip(block, p)])
        else:
            H = _context_hessians(p, mass)[..., :free, :free]
        norms.append(np.abs(np.linalg.eigvalsh(H)).reshape(len(block), -1).max(axis=1))
    return np.concatenate(norms)


@dataclass
class LipschitzEstimates:
    """Exact constants at each sampled point; their maxima are empirical, not certified."""

    M: float
    Q: float
    per_point_M: np.ndarray
    per_point_Q: np.ndarray

    @property
    def power_iterations_converged(self) -> bool:
        """Always True, since M is exact; perfbench/tracing.py reads it."""
        return True


def lipschitz_estimates(
    model: SoftmaxModel, dataset: Dataset, region_sample
) -> LipschitzEstimates:
    """M = max Hessian spectral norm of L_n over the sample; Q = max ‖∇L_n‖."""
    W = _region_stack(model, region_sample)
    joint = dataset.empirical_joint()
    per_m = hessian_norms(model, joint, W)
    per_q = row_norms(model.weighted_grads(W, joint))
    return LipschitzEstimates(M=float(per_m.max()), Q=float(per_q.max()),
                              per_point_M=per_m, per_point_Q=per_q)


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
