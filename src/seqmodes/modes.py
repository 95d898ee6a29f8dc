"""Weighted singular value decomposition of conditional operators.

The conditional operator C (columns q(·|x), column weights q(x)) is decomposed
as a map from the inner-product space with weights q(x)^{-1} to the plain
dot-product space on continuations. Computationally this is the ordinary SVD
of C·diag(q^{1/2}): right singular vectors are stored in these "D-coordinates"
ṽ_α (unit in the dot product), and the original-coordinate evaluations are
recovered via v̂*_α(x) = ṽ_α(x)·q(x)^{-1/2}. The dense path returns every
triple; the iterative path returns the leading ones in the same type, and
reaches the operator only through products with its factored form (sparse
counts for a corpus operator), never through the dense matrix. One builder
turns either path's SVD factors into the decomposition, so both share the
kernel zeros, the sign convention and the tie order.

Also here: the orthonormal basis e_{αβ}(x)(y) = v̂*_α(x)·u_β(y) of the
weighted function space (its Gram matrix and the coefficients of a function in
it), low-rank reconstruction of the conditional matrix, and a JSON summary of
a decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

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
    complete them to an orthonormal basis of the continuation space (the
    SVD's own left vectors past the rank). Sign convention: the
    largest-magnitude entry of u_α is positive for paired columns, and every
    other column (zero modes, completion vectors) is signed by its own
    largest entry. A partial decomposition (from
    :func:`truncated_weighted_svd`) holds only the leading triples, built by
    the same rules.
    """

    k: int
    l: int
    singular_values: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray
    marginal: np.ndarray
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

    def vhat_matrix(self) -> np.ndarray:
        """v̂*_α(x) for all (x, α): right vectors mapped out of D-coordinates."""
        return self.right_vectors / np.sqrt(self.marginal)[:, None]


def _orient(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flip paired columns of u and v together so the largest-|u| entry is positive.

    Flipping ṽ_α with u_α keeps C ṽ_α = s_α u_α. ``_orient(x, x)[0]`` signs
    the columns of x alone.
    """
    top = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
    sign = np.where(top < 0, -1.0, 1.0)
    return u * sign, v * sign


def _decomposition(op: ConditionalOperator, u: np.ndarray, s: np.ndarray,
                   vt: np.ndarray) -> ModeDecomposition:
    """The decomposition from SVD factors of C·diag(√q), with s descending.

    ``vt`` columns are the ṽ_α; ``s`` is padded with zeros to one value per
    column. Values at most ``RANK_TOL`` times the top one are the numerical
    kernel and become exact zeros. The first ``n_plus`` columns of u and ṽ
    are paired; every other column is signed by its own largest entry, and
    u's columns past ``n_plus`` complete the continuation basis.
    """
    n_modes = vt.shape[1]
    s_full = np.zeros(n_modes)
    s_full[:len(s)] = s
    s_max = s_full[0] if n_modes else 0.0
    n_plus = int(np.sum(s_full > RANK_TOL * s_max)) if s_max > 0 else 0
    s_full[n_plus:] = 0.0
    u_plus, v_plus = _orient(u[:, :n_plus], vt[:, :n_plus])
    v_cols = np.column_stack([v_plus, _orient(vt[:, n_plus:], vt[:, n_plus:])[0]])

    # Descending s with deterministic tie-breaking: lexicographically smallest
    # index of the largest-magnitude entry (of u for positive modes, ṽ otherwise).
    # The input is already descending, so this only reorders exact ties, and
    # those never cross the Λ⁺/Λ⁰ boundary.
    tie = np.concatenate([np.argmax(np.abs(u_plus), axis=0),
                          np.argmax(np.abs(v_cols[:, n_plus:]), axis=0)])
    order = np.lexsort((np.arange(n_modes), tie, -s_full))
    left = np.column_stack([u_plus[:, order[:n_plus]], _orient(u[:, n_plus:], u[:, n_plus:])[0]])
    return ModeDecomposition(
        k=op.k, l=op.l,
        singular_values=s_full[order], left_vectors=left, right_vectors=v_cols[:, order],
        marginal=op.marginal.copy(), n_plus=n_plus,
        x_labels=op.x_labels, y_labels=op.y_labels,
    )


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
    u, s, vh = np.linalg.svd(matrix * np.sqrt(q)[None, :], full_matrices=True)
    return _decomposition(op, u, s, vh.T)


def truncated_weighted_svd(op: ConditionalOperator, rank: int = 100) -> ModeDecomposition:
    """Top-``rank`` triples of the weighted operator via iterative sparse SVD.

    The result holds only the leading columns (see
    :attr:`ModeDecomposition.complete`). svds sees C·diag(√q) only through
    products over the operator's own form, R·diag(s)·x + λ·(sᵀx)·1 with
    s = √q/d, so its cost follows the nonzeros of R and no dense matrix is
    built. Deterministic: the starting vector is fixed. Falls back to the
    dense path when the requested rank does not leave svds room to iterate.
    Either path holds the first min(rank, n_x) modes, kernel modes included.
    """
    n_y, n_x = op.n_y, op.n_x
    r = min(rank, n_x)
    if r >= min(n_x, n_y) - 1 or min(n_x, n_y) <= 2:
        dec = weighted_svd(op)
        return replace(dec, singular_values=dec.singular_values[:r], n_plus=min(r, dec.n_plus),
                       left_vectors=dec.left_vectors[:, :r], right_vectors=dec.right_vectors[:, :r])
    from scipy.sparse.linalg import LinearOperator, svds

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
    return _decomposition(op, u[:, order], s[order], vh.T[:, order])


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

