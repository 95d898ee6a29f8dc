"""Effective distributions by mode truncation.

Keeping only the modes up to a cutoff index defines a subspace of the weighted
function space. Three routes from the subspace back to an actual conditional
distribution are provided: the raw orthogonal projection (generally signed and
unnormalized), the clip-and-normalize surrogate, and the KL-closest member of
the subspace that is also a genuine conditional distribution. The latter is
one convex solve in reduced coordinates: a closed-form check of the column
sums from the retained right vectors alone, a phase-I barrier solve for a
strictly positive start, and damped Newton on the cross-entropy (Boyd &
Vandenberghe, *Convex Optimization*, ch. 10–11). Whether the feasible set is
empty is decided by a certificate, because for most operators it is empty
unless the cutoff retains the direction of the square-root marginal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .distribution import Language, conditional_operator, fundamental_tensor
from .modes import ModeDecomposition, hs_norm, reconstruct_matrix, weighted_svd


class TruncationError(ValueError):
    pass


class InfeasibleTruncationError(TruncationError):
    """No strictly positive conditional lies in the retained span at this cutoff.

    ``diagnostics["certificate"]`` says why: ``"column_sums"`` (no member has
    unit column sums; see ``column_sum_residual``, and ``column_sums_from_chi``
    for the smallest cutoff whose span has them), ``"phase_one"`` (every
    such member has an entry below ``margin_upper_bound`` < 0), or ``None``
    (the largest minimum entry is zero within tolerance: the set is not
    certified empty, but it has no strictly positive point).
    """

    def __init__(self, message: str, diagnostics: dict):
        super().__init__(message)
        self.diagnostics = diagnostics


@dataclass(frozen=True, eq=False)
class EffectiveDistribution:
    """A truncated conditional distribution with its construction record."""

    k: int
    l: int
    conditional: np.ndarray
    marginal: np.ndarray
    x_labels: tuple[tuple[int, ...], ...]
    y_labels: tuple[tuple[int, ...], ...]
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        cond = np.asarray(self.conditional, dtype=float)
        if np.any(cond < 0):
            raise TruncationError("effective conditional has negative entries")
        defect = np.max(np.abs(cond.sum(axis=0) - 1.0))
        if defect > 1e-10:
            raise TruncationError(f"effective conditional columns sum defect {defect:.3e}")
        cond = cond.copy()
        cond.setflags(write=False)
        object.__setattr__(self, "conditional", cond)

    def joint(self) -> np.ndarray:
        return self.conditional * self.marginal[None, :]


def _span(dec: ModeDecomposition, chi: int) -> tuple[np.ndarray, np.ndarray]:
    """(U_b, V̂_a): the retained span is {U_b G V̂_aᵀ}, and f projects to G = U_bᵀ(f·q)V̂_a."""
    vhat = dec.right_vectors[:, :chi + 1] / np.sqrt(dec.marginal)[:, None]
    return dec.left_vectors[:, :min(chi, dec.n_plus - 1) + 1], vhat


def _check_chi(dec: ModeDecomposition, chi: int) -> None:
    # Truncation needs the full basis: chi ≥ n_modes − 1 means full retention.
    if not dec.complete:
        raise TruncationError(
            f"truncation needs a complete decomposition; this one holds {dec.n_modes} "
            f"of {len(dec.marginal)} modes"
        )
    if not 0 <= chi < dec.n_modes:
        raise TruncationError(f"chi must be in [0, {dec.n_modes}), got {chi}")


def project_leq_chi(dec: ModeDecomposition, f: np.ndarray, chi: int) -> np.ndarray:
    """Orthogonal projection of f onto the span of the retained basis elements.

    Retained indices: α ≤ chi over all modes, β ≤ chi over positive modes.
    """
    _check_chi(dec, chi)
    left, vhat = _span(dec, chi)
    return left @ (left.T @ (f * dec.marginal[None, :]) @ vhat) @ vhat.T


def subspace_distance(dec: ModeDecomposition, f: np.ndarray, chi: int) -> float:
    return hs_norm(f - project_leq_chi(dec, f, chi), dec.marginal)


def kl_conditional(
    q_cond: np.ndarray, p_cond: np.ndarray, marginal: np.ndarray
) -> float:
    """D(q‖p) = Σ_x q(x) Σ_y q(y|x) log(q(y|x)/p(y|x)); +inf if p misses support.

    The support of q is its entries above ``_ZERO_TOL``: reconstruction
    rounding on an exact zero is not support.
    """
    support = q_cond > _ZERO_TOL
    if np.any(p_cond[support] <= 0):
        return float("inf")
    ratio = np.zeros_like(q_cond)
    ratio[support] = q_cond[support] * (np.log(q_cond[support]) - np.log(p_cond[support]))
    return float(ratio.sum(axis=0) @ marginal)


def truncate_normalized(dec: ModeDecomposition, chi: int) -> EffectiveDistribution:
    """Clip the truncated reconstruction at zero and renormalize per column."""
    _check_chi(dec, chi)
    raw = reconstruct_matrix(dec, chi=chi)
    clipped = np.maximum(raw, 0.0)
    sums = clipped.sum(axis=0)
    bad = np.nonzero(sums <= 0)[0]
    if bad.size:
        raise TruncationError(
            f"column for context {dec.x_labels[bad[0]]} clipped to all zeros"
        )
    cond = clipped / sums[None, :]
    truth = reconstruct_matrix(dec)
    return EffectiveDistribution(
        k=dec.k,
        l=dec.l,
        conditional=cond,
        marginal=dec.marginal.copy(),
        x_labels=dec.x_labels,
        y_labels=dec.y_labels,
        provenance={
            "chi": chi,
            "solver": "normalized",
            "kl_divergence": kl_conditional(truth, cond, dec.marginal),
            "subspace_distance": subspace_distance(dec, cond, chi),
            "clipped_mass": float(np.sum(raw[raw < 0])),
        },
    )


# Fixed numerical constants of the KL solve.
_SUM_TOL = 1e-10  # largest column-sum residual a feasible span may leave
_ZERO_TOL = 1e-12  # truth entries at or below this are zeros (SVD rounding)
_NEWTON_TOL = 1e-14  # half the squared Newton decrement that ends a centring
_GAP_TOL = 1e-12  # barrier gap bound m/t that ends a continuation
_GROWTH = 10.0  # factor on t between centrings
_MAX_NEWTON = 100  # Newton steps one centring may take


def _centre(A, b, c, w, u):
    """Damped Newton for min c·u − Σ w log(b + A u) from a point with b + A u > 0.

    Returns the minimiser, its slacks r = b + A u, the Newton steps taken and
    the final Newton decrement √(gᵀH⁻¹g), which is the gradient's size in the
    Hessian's dual norm. The slacks are carried along the steps rather than
    recomputed, so entries near zero keep their relative accuracy.
    """
    steps, decrement = 0, 0.0
    r = b + A @ u
    while A.shape[1]:
        grad = c - A.T @ (w / r)
        du = np.linalg.solve((A.T * (w / r**2)) @ A, -grad)
        decrement = float(np.sqrt(max(-grad @ du, 0.0)))
        if decrement**2 / 2 <= _NEWTON_TOL or steps == _MAX_NEWTON:
            break
        dr = A @ du
        shrink = dr < 0
        alpha = min(1.0, 0.99 * np.min(-r[shrink] / dr[shrink])) if shrink.any() else 1.0
        value, slope = c @ u - w @ np.log(r), 0.25 * decrement**2
        while c @ (u + alpha * du) - w @ np.log(r + alpha * dr) > value - alpha * slope:
            alpha *= 0.5
            if alpha < 1e-12:  # no descent left above rounding
                return u, r, steps, decrement
        u, r = u + alpha * du, r + alpha * dr
        steps += 1
    return u, r, steps, decrement


def _phase_one(A: np.ndarray, F: np.ndarray, chi: int) -> tuple[np.ndarray, int]:
    """A strictly positive F + A z and the Newton steps spent finding it.

    Maximises s subject to F + A z ≥ s by barrier continuation. At the centre
    for barrier weight 1/t the largest achievable s is at most s + m/t, so a
    negative bound at a converged centre certifies that no F + A z is
    nonnegative.
    """
    m = F.size
    A1 = np.hstack([A, -np.ones((m, 1))])
    c = np.append(np.zeros(A.shape[1]), -1.0)
    u = np.append(np.zeros(A.shape[1]), F.min() - 1.0)
    steps, t = 0, float(m)
    while True:
        u, slack, taken, decrement = _centre(A1, F, c, np.full(m, 1.0 / t), u)
        steps += taken
        margin, bound = float(u[-1]), float(u[-1] + m / t)
        if margin > 0:
            return slack + margin, steps
        diagnostics = {"certificate": "phase_one", "chi": chi, "margin": margin,
                       "margin_upper_bound": bound, "iterations": steps}
        if bound < 0 and decrement**2 / 2 <= _NEWTON_TOL:
            raise InfeasibleTruncationError(
                f"the feasible set for chi={chi} is certified empty: every member of the "
                f"retained span with unit column sums has an entry below {bound:.3e}",
                diagnostics=diagnostics,
            )
        if m / t < _GAP_TOL:
            raise InfeasibleTruncationError(
                f"the feasible set for chi={chi} has no strictly positive point: "
                f"the largest minimum entry lies in [{margin:.3e}, {bound:.3e}]",
                diagnostics={**diagnostics, "certificate": None},
            )
        t *= _GROWTH


def _column_sums_from_chi(dec: ModeDecomposition) -> int:
    """Smallest chi with V̂_a c_a = 1 (c = V̂ᵀq), by one cumulative sum; n_modes − 1 has it."""
    vhat = dec.vhat_matrix()
    partial = np.cumsum(vhat * (dec.marginal @ vhat), axis=1)
    reached = np.max(np.abs(partial - 1.0), axis=0)[:-1] <= _SUM_TOL
    return int(np.argmax(np.append(reached, True)))


def _newton_kl(dec: ModeDecomposition, chi: int):
    """Below full retention: (truth, conditional, Newton steps, KKT residual, converged),
    or None when the truth itself lies in the retained span.

    F = U_b G V̂_aᵀ has column sums V̂_a Gᵀs, s = U_bᵀ1. The v̂ are q-orthonormal,
    so these are all 1 only if Gᵀs = c = V̂_aᵀq and V̂_a c = 1, which is checked
    before any n_y·n_x array exists. The solutions are G₀ + N H with
    G₀ = s cᵀ/‖s‖² and N an orthonormal basis of s's complement.
    """
    left, vhat = _span(dec, chi)
    s, c = left.sum(axis=0), dec.marginal @ vhat
    residual = float(np.max(np.abs(vhat @ c - 1.0))) if s.any() else 1.0
    if residual > _SUM_TOL:
        raise InfeasibleTruncationError(
            f"the feasible set for chi={chi} is certified empty: no member of the "
            f"retained span has unit column sums (residual {residual:.3e})",
            diagnostics={"certificate": "column_sums", "chi": chi,
                         "column_sum_residual": residual,
                         "column_sums_from_chi": _column_sums_from_chi(dec)},
        )
    N = np.linalg.qr(s[:, None], mode="complete")[0][:, 1:]
    A = np.kron(left @ N, vhat)  # vec(U_b N H V̂_aᵀ) = A vec H, H[β′, α]

    # Start from the member of the affine set nearest the truth.
    truth = reconstruct_matrix(dec)
    joint = truth * dec.marginal[None, :]
    G = np.outer(s, c) / (s @ s) + N @ (N.T @ (left.T @ joint @ vhat))
    F = (left @ G @ vhat.T).ravel()
    if np.max(np.abs(F - truth.ravel())) <= _SUM_TOL:
        return None
    iterations = 0
    if F.min() <= 0:
        F, iterations = _phase_one(A, F, chi)

    # Phase II, re-based at the current F before each centring so that
    # entries near zero keep their relative accuracy.
    support = (truth > _ZERO_TOL).ravel()
    weight = np.where(support, joint.ravel(), 0.0)
    zeros = int(np.sum(~support))
    t, decrement, gap = float(max(zeros, 1)), 0.0, 0.0
    while A.shape[1]:  # with no free direction F is the only feasible point
        origin = np.zeros(A.shape[1])
        _, F, taken, decrement = _centre(A, F, origin, weight + ~support / t, origin)
        iterations += taken
        gap = zeros / t
        if gap < _GAP_TOL:
            break
        t *= _GROWTH
    converged = decrement**2 / 2 <= _NEWTON_TOL
    return truth, F.reshape(truth.shape), iterations, max(decrement, gap), converged


def truncate_kl(dec: ModeDecomposition, chi: int) -> EffectiveDistribution:
    """KL-closest conditional distribution whose representative lies in the subspace.

    Phase I (:func:`_phase_one`) finds a strictly positive start or certifies
    the feasible set empty; phase II is damped Newton on the cross-entropy
    −Σ q(x) truth(y|x) log F(y|x), with a log barrier under continuation on
    the truth's zeros. Raises :class:`InfeasibleTruncationError` with the
    certificate in its diagnostics. ``kkt_residual`` in the provenance is the
    larger of the final Newton decrement and the barrier's duality-gap bound.
    """
    chi = int(chi)
    _check_chi(dec, chi)
    solved = _newton_kl(dec, chi) if chi < dec.n_modes - 1 else None
    if solved is None:
        # Every mode retained, or the nearest member of the affine set is the
        # truth within _SUM_TOL: the truth itself is the unique minimizer.
        clipped = np.clip(reconstruct_matrix(dec), 0.0, None)
        cond, iterations, kkt, converged = clipped / clipped.sum(axis=0), 0, 0.0, True
        kl, distance = 0.0, 0.0
    else:
        truth, cond, iterations, kkt, converged = solved
        kl, distance = kl_conditional(truth, cond, dec.marginal), subspace_distance(dec, cond, chi)
    return EffectiveDistribution(
        k=dec.k, l=dec.l, conditional=cond, marginal=dec.marginal.copy(),
        x_labels=dec.x_labels, y_labels=dec.y_labels,
        provenance={
            "chi": chi, "solver": "kl", "kl_divergence": kl, "iterations": iterations,
            "subspace_distance": distance, "feasible": True, "converged": converged,
            "kkt_residual": kkt,
        },
    )


def truncate(dec: ModeDecomposition, chi: int, solver: str = "kl") -> EffectiveDistribution:
    """Effective distribution at cutoff ``chi`` by the ``"kl"`` or ``"normalized"`` route."""
    chi = int(chi)
    _check_chi(dec, chi)
    if solver == "normalized":
        return truncate_normalized(dec, chi)
    if solver == "kl":
        return truncate_kl(dec, chi)
    if solver == "projection_only":
        raise TruncationError("projection_only does not yield a distribution; use project_leq_chi")
    raise TruncationError(f"unknown solver {solver!r}")


# ---------------------------------------------------------------------------
# Composite truncation across a chain of (k, l) splits.
# ---------------------------------------------------------------------------

def validate_decomposition_chain(pairs: list[tuple[int, int]], K: int) -> None:
    if not pairs:
        raise TruncationError("empty decomposition chain")
    k1, l1 = pairs[0]
    if k1 + l1 != K:
        raise TruncationError(f"first pair must satisfy k+l = {K}, got {pairs[0]}")
    for (k_prev, _), (k_next, l_next) in zip(pairs, pairs[1:]):
        if k_next + l_next != k_prev:
            raise TruncationError(
                f"chain broken: need k_i = k_(i+1) + l_(i+1), got {k_prev} vs {(k_next, l_next)}"
            )
    if any(k < 1 or l < 1 for k, l in pairs):
        raise TruncationError("all k_i, l_i must be positive")


@dataclass(frozen=True, eq=False)
class CompositeTruncation:
    K: int
    pairs: tuple[tuple[int, int], ...]
    chis: tuple[int, ...]
    joint: np.ndarray
    levels: tuple[EffectiveDistribution, ...]


def multi_length_truncation(
    lang: Language,
    pairs: list[tuple[int, int]],
    chis: list[int],
    solver: str = "kl",
) -> CompositeTruncation:
    """Composite distribution Π_i q^(χ_i)(·|·) · q(base) over Σ^K.

    ``chis[i]`` cuts the (k_i, l_i) operator; a cutoff of n_modes-1 (or -1 as
    shorthand) keeps everything at that level exactly. The result holds the
    composite joint and each level's effective distribution.
    """
    K = lang.K
    validate_decomposition_chain(pairs, K)
    if len(chis) != len(pairs):
        raise TruncationError("need one cutoff per pair")
    size = lang.size
    levels = []
    for (k_i, l_i), chi in zip(pairs, chis):
        op = conditional_operator(lang, k_i, l_i)
        dec = weighted_svd(op)
        chi_eff = dec.n_modes - 1 if chi in (-1, dec.n_modes - 1) else int(chi)
        levels.append(truncate(dec, chi_eff, solver))

    k_base = pairs[-1][0]
    joint_flat = fundamental_tensor(lang, k_base).reshape(-1)
    for eff in reversed(levels):
        # extend over the next block: J(x, y) = q'(y|x) J(x)
        joint_flat = (eff.conditional * joint_flat[None, :]).T.reshape(-1)
    return CompositeTruncation(
        K=K,
        pairs=tuple(tuple(p) for p in pairs),
        chis=tuple(int(c) for c in chis),
        joint=joint_flat.reshape((size,) * K),
        levels=tuple(levels),
    )
