"""Weighted singular value decomposition of conditional operators.

The conditional operator C (columns q(·|x), column weights q(x)) is decomposed
as a map from the inner-product space with weights q(x)^{-1} to the plain
dot-product space on continuations. Computationally this is the ordinary SVD
of C·diag(q^{1/2}): right singular vectors are stored in these "D-coordinates"
ṽ_α (unit in the dot product), and the original-coordinate evaluations are
recovered via v̂*_α(x) = ṽ_α(x)·q(x)^{-1/2}. The dense path returns every
triple; the iterative path returns the leading ones in the same type, with
the same sign convention, and reaches the operator only through products
with its factored form (sparse counts for a corpus operator), never through
the dense matrix.

Also here: mode propensities, the orthonormal basis e_{αβ}(x)(y) =
v̂*_α(x)·u_β(y) of the weighted function space, pairings of parametric models
against that basis, and a grouped Tucker decomposition for higher-order joint
tensors.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.sparse.linalg import LinearOperator, svds

from .distribution import ConditionalOperator

RANK_TOL = 1e-12  # relative to the top singular value: positive modes vs numerical kernel
TOP_LOADINGS = 8  # (label, value) pairs per vector in decomposition_summary


class ModeError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class ModeDecomposition:
    """Singular triples of a conditional operator under the weighted pairing.

    ``singular_values`` has one entry per right-basis vector (descending,
    padded with exact zeros past the rank). ``right_vectors`` columns are the
    ṽ_α in D-coordinates; ``left_vectors`` columns are the u_β, the first
    ``n_plus`` of which are paired with positive singular values and the rest
    complete them to an orthonormal basis of the continuation space
    (deterministic Gram-Schmidt over the standard basis). Sign convention:
    the largest-magnitude entry of u_α (of ṽ_α for zero modes and completion
    vectors) is positive. A partial decomposition (from
    :func:`truncated_weighted_svd`) holds only the leading triples.
    """

    k: int
    l: int
    singular_values: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray
    marginal: np.ndarray
    rank_tol: float
    n_plus: int
    x_labels: tuple[tuple[int, ...], ...]
    y_labels: tuple[tuple[int, ...], ...]

    @property
    def n_modes(self) -> int:
        """|Λ| = dimension of the context space."""
        return self.right_vectors.shape[1]

    @property
    def n_left(self) -> int:
        """|Λ⁺⁺| = dimension of the continuation space."""
        return self.left_vectors.shape[1]

    @property
    def complete(self) -> bool:
        """Whether both bases are full rather than the leading columns only."""
        return self.n_modes == len(self.marginal) and self.n_left == len(self.y_labels)

    def x_index(self, x) -> int:
        if isinstance(x, (int, np.integer)):
            return int(x)
        return self.x_labels.index(tuple(x))

    def y_index(self, y) -> int:
        if isinstance(y, (int, np.integer)):
            return int(y)
        return self.y_labels.index(tuple(y))

    def vhat_matrix(self) -> np.ndarray:
        """v̂*_α(x) for all (x, α): right vectors mapped out of D-coordinates."""
        return self.right_vectors / np.sqrt(self.marginal)[:, None]


def _orient(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flip paired columns of u and v together so the largest-|u| entry is positive.

    Flipping ṽ_α with u_α keeps C ṽ_α = s_α u_α.
    """
    top = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
    sign = np.where(top < 0, -1.0, 1.0)
    return u * sign, v * sign


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip columns so the largest-magnitude entry of each is positive."""
    return _orient(vectors, vectors)[0]


def _complete_orthonormal(partial: np.ndarray, dim: int) -> np.ndarray:
    """Extend orthonormal columns to a full basis of R^dim.

    Residuals of the standard basis vectors, taken in index order, are
    orthonormalized (twice, for stability); near-dependent candidates
    (residual norm at most 1e-8) are skipped. Deterministic by construction.
    """
    cols = [partial[:, j] for j in range(partial.shape[1])]
    for j in range(dim):
        if len(cols) == dim:
            break
        e = np.zeros(dim)
        e[j] = 1.0
        r = e
        for _ in range(2):
            for c in cols:
                r = r - np.dot(c, r) * c
        norm = np.linalg.norm(r)
        if norm > 1e-8:
            cols.append(r / norm)
    if len(cols) != dim:
        raise ModeError("failed to complete orthonormal basis")
    return np.column_stack(cols)


def weighted_svd(op: ConditionalOperator) -> ModeDecomposition:
    """Full mode decomposition of a conditional operator.

    Singular values at most ``RANK_TOL`` times the top one count as the
    numerical kernel.
    """
    matrix = op.matrix
    q = op.marginal
    if not np.all(np.isfinite(matrix)):
        raise ModeError("operator matrix has non-finite entries")
    if np.any(q <= 0):
        raise ModeError("operator marginal must be strictly positive")
    n_y, n_x = matrix.shape
    b = matrix * np.sqrt(q)[None, :]
    u, s, vh = np.linalg.svd(b, full_matrices=True)
    n_sv = s.shape[0]
    s_full = np.zeros(n_x)
    s_full[:n_sv] = s
    vt = vh.T  # columns are the ṽ_α
    s_max = s_full[0] if n_sv else 0.0
    n_plus = int(np.sum(s_full > RANK_TOL * s_max)) if s_max > 0 else 0
    s_full[n_plus:] = 0.0  # kernel modes carry exact zeros

    u_plus, v_plus = _orient(u[:, :n_plus], vt[:, :n_plus])
    v_cols = np.column_stack([v_plus, _fix_signs(vt[:, n_plus:])])  # zero modes by their own ṽ

    # Descending s with deterministic tie-breaking: lexicographically smallest
    # index of the largest-magnitude entry (of u for positive modes, ṽ otherwise).
    tie = np.concatenate([np.argmax(np.abs(u_plus), axis=0),
                          np.argmax(np.abs(v_cols[:, n_plus:]), axis=0)])
    order = np.lexsort((np.arange(n_x), tie, -s_full))
    # LAPACK already sorts descending; the lexsort only reorders exact ties,
    # and those never cross the Λ⁺/Λ⁰ boundary.
    s_full = s_full[order]
    v_cols = v_cols[:, order]
    plus_order = [int(j) for j in order if j < n_plus]
    u_plus = u_plus[:, plus_order] if n_plus else np.zeros((n_y, 0))

    left = _complete_orthonormal(u_plus, n_y)
    if n_plus < n_y:
        left = np.column_stack([left[:, :n_plus], _fix_signs(left[:, n_plus:])])
    return ModeDecomposition(
        k=op.k,
        l=op.l,
        singular_values=s_full,
        left_vectors=left,
        right_vectors=v_cols,
        marginal=q.copy(),
        rank_tol=RANK_TOL,
        n_plus=n_plus,
        x_labels=op.x_labels,
        y_labels=op.y_labels,
    )


def truncated_weighted_svd(op: ConditionalOperator, rank: int = 100) -> ModeDecomposition:
    """Top-``rank`` triples of the weighted operator via iterative sparse SVD.

    The result holds only the leading columns (see
    :attr:`ModeDecomposition.complete`). svds sees C·diag(√q) only through
    products over the operator's own form, R·diag(s)·x + λ·(sᵀx)·1 with
    s = √q/d, so its cost follows the nonzeros of R and no dense matrix is
    built. Deterministic: the starting vector is fixed. Falls back to the
    dense path when the requested rank does not leave svds room to iterate.
    """
    n_y, n_x = op.n_y, op.n_x
    r = min(rank, n_x, n_y)
    if r >= min(n_x, n_y) - 1 or min(n_x, n_y) <= 2:
        dec = weighted_svd(op)
        r = min(rank, dec.n_plus) if dec.n_plus else min(rank, dec.n_modes)
        return replace(dec, singular_values=dec.singular_values[:r], n_plus=min(r, dec.n_plus),
                       left_vectors=dec.left_vectors[:, :r], right_vectors=dec.right_vectors[:, :r])
    raw, raw_t, lam = op.raw, op.raw.T, op.smoothing
    scale = np.sqrt(op.marginal) / op.denom

    def mv(x):
        x = scale * np.asarray(x).ravel()
        return raw @ x + lam * x.sum()

    def rmv(y):
        y = np.asarray(y).ravel()
        return scale * (raw_t @ y + lam * y.sum())

    linop = LinearOperator((n_y, n_x), matvec=mv, rmatvec=rmv)
    v0 = np.full(min(n_x, n_y), 1.0) / np.sqrt(min(n_x, n_y))
    u, s, vh = svds(linop, k=r, v0=v0)
    order = np.argsort(-s)
    s = s[order]
    u, vt = _orient(u[:, order], vh.T[:, order])
    return ModeDecomposition(
        k=op.k, l=op.l,
        singular_values=s, left_vectors=u, right_vectors=vt,
        marginal=op.marginal.copy(),
        rank_tol=RANK_TOL,
        n_plus=int(np.sum(s > RANK_TOL * s[0])),
        x_labels=op.x_labels, y_labels=op.y_labels,
    )


# ---------------------------------------------------------------------------
# Function-space helpers. Elements of the weighted function space are stored
# as (n_y, n_x) arrays F with F[y, x] = f(x)(y).
# ---------------------------------------------------------------------------

def hs_inner(f: np.ndarray, g: np.ndarray, marginal: np.ndarray) -> float:
    """⟨f, g⟩ = Σ_x q(x) Σ_y f(x)(y) g(x)(y)."""
    return float(np.sum((f * g) @ marginal))


def hs_norm(f: np.ndarray, marginal: np.ndarray) -> float:
    return float(np.sqrt(max(hs_inner(f, f, marginal), 0.0)))


def mode_coefficients(dec: ModeDecomposition, f: np.ndarray) -> np.ndarray:
    """Coefficients ⟨f, e_{αβ}⟩ as an (n_modes, n_left) array indexed [α, β]."""
    weighted = f * np.sqrt(dec.marginal)[None, :]
    return dec.right_vectors.T @ weighted.T @ dec.left_vectors


def coefficients_to_function(dec: ModeDecomposition, coeffs: np.ndarray) -> np.ndarray:
    """Inverse of :func:`mode_coefficients`."""
    weighted = dec.left_vectors @ coeffs.T @ dec.right_vectors.T
    return weighted / np.sqrt(dec.marginal)[None, :]


def reconstruct_matrix(dec: ModeDecomposition, chi: int | None = None) -> np.ndarray:
    """Σ_{α ≤ chi} s_α u_α v̂*_α as a conditional-matrix-shaped array.

    ``chi`` is an inclusive index into the mode order; None means all modes.
    """
    top = dec.n_plus if chi is None else min(chi + 1, dec.n_plus)
    if top == 0:
        return np.zeros((dec.n_left, dec.n_modes))
    u = dec.left_vectors[:, :top]
    s = dec.singular_values[:top]
    vhat = dec.vhat_matrix()[:, :top]
    return (u * s[None, :]) @ vhat.T


def propensity(dec: ModeDecomposition, alpha: int, x, y) -> float:
    """s_α^{-1} v̂*_α(x) u_α(y) for positive modes; 0 on the kernel by convention."""
    if alpha < 0 or alpha >= dec.n_modes:
        raise ModeError(f"mode index {alpha} out of range")
    if alpha >= dec.n_plus:
        return 0.0
    xi = dec.x_index(x)
    yi = dec.y_index(y)
    vhat = dec.right_vectors[xi, alpha] / np.sqrt(dec.marginal[xi])
    return float(dec.left_vectors[yi, alpha] * vhat / dec.singular_values[alpha])


def mode_weight(dec: ModeDecomposition, alpha: int) -> float:
    """q(α) = s_α²."""
    if alpha < 0 or alpha >= dec.n_modes:
        raise ModeError(f"mode index {alpha} out of range")
    return float(dec.singular_values[alpha] ** 2)


def reconstruct_conditional(dec: ModeDecomposition, x, y) -> float:
    """Σ_α q(y|x, α) q(α) = Σ_α s_α v̂*_α(x) u_α(y); equals q(y|x) at full rank."""
    xi = dec.x_index(x)
    yi = dec.y_index(y)
    top = dec.n_plus
    vhat = dec.right_vectors[xi, :top] / np.sqrt(dec.marginal[xi])
    return float(np.sum(dec.singular_values[:top] * vhat * dec.left_vectors[yi, :top]))


def mode_basis_eval(dec: ModeDecomposition, alpha: int, beta: int, x, y) -> float:
    """e_{αβ}(x)(y) = v̂*_α(x) u_β(y)."""
    if alpha < 0 or alpha >= dec.n_modes:
        raise ModeError(f"alpha index {alpha} out of range")
    if beta < 0 or beta >= dec.n_left:
        raise ModeError(f"beta index {beta} out of range")
    xi = dec.x_index(x)
    yi = dec.y_index(y)
    vhat = dec.right_vectors[xi, alpha] / np.sqrt(dec.marginal[xi])
    return float(vhat * dec.left_vectors[yi, beta])


def gram_mode_basis(dec: ModeDecomposition) -> np.ndarray:
    """Pairings ⟨e_{αβ}, e_{γδ}⟩, computed by the weighted sum over contexts.

    Rows/columns are indexed by (α, β) pairs in row-major order; the result
    has shape (n_modes·n_left,)². Orthonormality of the basis means this is
    the identity.
    """
    vhat = dec.vhat_matrix()
    right_gram = np.einsum("x,xa,xc->ac", dec.marginal, vhat, vhat)
    left_gram = dec.left_vectors.T @ dec.left_vectors
    return np.kron(right_gram, left_gram)


def pair_model_with_mode(model_conditional, dec: ModeDecomposition, alpha: int, beta: int) -> float:
    """Σ_{x,y} p(y|x) q(x) e_{αβ}(x)(y) for a model conditional p.

    ``model_conditional`` is either an (n_y, n_x) array of p(y|x) or a
    callable mapping an x label to a distribution vector over continuations.
    """
    if callable(model_conditional):
        cols = [np.asarray(model_conditional(lab), dtype=float) for lab in dec.x_labels]
        p = np.column_stack(cols)
    else:
        p = np.asarray(model_conditional, dtype=float)
    vhat_alpha = dec.right_vectors[:, alpha] / np.sqrt(dec.marginal)
    u_beta = dec.left_vectors[:, beta]
    per_x = u_beta @ p  # Σ_y p(y|x) u_β(y)
    return float(np.sum(dec.marginal * vhat_alpha * per_x))


def decomposition_summary(dec: ModeDecomposition, top_components: int = 0) -> dict:
    """JSON-ready summary: singular values plus top loadings per component.

    Loadings are (label, value) pairs ordered by magnitude, mirroring the
    usual coefficient-times-token presentation of empirical components.
    """
    n = dec.n_modes
    limit = min(n, top_components) if top_components > 0 else n

    def loadings(vec, labels):
        order = np.argsort(-np.abs(vec))[:TOP_LOADINGS]
        return [[",".join(map(str, labels[i])), float(vec[i])] for i in order]

    components = []
    for alpha in range(limit):
        left = loadings(dec.left_vectors[:, alpha], dec.y_labels) if alpha < dec.n_left else []
        components.append({
            "index": alpha,
            "singular_value": float(dec.singular_values[alpha]),
            "left_loadings": left,
            "right_loadings": loadings(dec.right_vectors[:, alpha], dec.x_labels),
        })
    return {
        "k": dec.k,
        "l": dec.l,
        "singular_values": [float(s) for s in dec.singular_values],
        "components": components,
    }


# ---------------------------------------------------------------------------
# Grouped Tucker decomposition of higher-order joint tensors.
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TuckerDecomposition:
    core: np.ndarray
    factors: tuple[np.ndarray, ...]
    partition: tuple[tuple[int, ...], ...]
    group_singular_values: tuple[np.ndarray, ...]
    original_shape: tuple[int, ...]


def _validate_partition(partition, ndim: int) -> tuple[tuple[int, ...], ...]:
    groups = tuple(tuple(int(i) for i in group) for group in partition)
    seen = [i for group in groups for i in group]
    if sorted(seen) != list(range(1, ndim + 1)):
        raise ModeError(
            f"partition {partition} must consist of disjoint groups covering 1..{ndim}"
        )
    if any(len(g) == 0 for g in groups):
        raise ModeError("partition groups must be non-empty")
    return groups


def tucker_decompose(tensor: np.ndarray, partition) -> TuckerDecomposition:
    """Tucker decomposition of an order-k tensor with respect to an index grouping.

    Each group's factor basis consists of the left singular vectors of the
    unfolding with that group's (merged) indices as rows, under the plain dot
    product; the core is the tensor contracted against all factor bases, so
    the full-rank reconstruction is exact.
    """
    tensor = np.asarray(tensor, dtype=float)
    groups = _validate_partition(partition, tensor.ndim)
    perm = [i - 1 for group in groups for i in group]
    permuted = np.transpose(tensor, perm)
    group_dims = []
    pos = 0
    for group in groups:
        dim = 1
        for _ in group:
            dim *= tensor.shape[pos]
            pos += 1
        group_dims.append(dim)
    grouped = permuted.reshape(group_dims)

    factors = []
    sing = []
    core = grouped
    for j in range(len(groups)):
        unfold = np.moveaxis(grouped, j, 0).reshape(group_dims[j], -1)
        u, s, _ = np.linalg.svd(unfold, full_matrices=True)
        u = _fix_signs(u)
        factors.append(u)
        sing.append(s)
        core = np.tensordot(core, u, axes=([0], [0]))
        # tensordot cycles the contracted axis to the end; after r passes the
        # axes are back in group order.
    return TuckerDecomposition(
        core=core,
        factors=tuple(factors),
        partition=groups,
        group_singular_values=tuple(sing),
        original_shape=tensor.shape,
    )


def tucker_reconstruct(dec: TuckerDecomposition) -> np.ndarray:
    """Contract the core against the factor bases and undo the grouping."""
    out = dec.core
    for factor in dec.factors:
        out = np.tensordot(out, factor.T, axes=([0], [0]))
    perm = [i - 1 for group in dec.partition for i in group]
    shape = [dec.original_shape[i] for i in perm]
    out = out.reshape(shape)
    inverse = np.argsort(perm)
    return np.transpose(out, inverse)
