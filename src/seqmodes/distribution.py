"""Exact finite sequence distributions.

A language is stored as the single top-level joint distribution over length-K
token strings; every shorter joint is obtained by marginalization, so the
consistency condition between lengths holds by construction. This module also
provides the column-stochastic conditional operator between a length-k context
and its length-l continuation, synthetic generators used as fixtures, and the
planted bigram constructions used to verify exact mode structure.
"""

from __future__ import annotations

import itertools
import json
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from ._streams import LANGUAGE_TAG, keyed_generator

if TYPE_CHECKING:
    from scipy import sparse

JOINT_ATOL = 1e-12
DENSE_CELLS = 1 << 27  # cells a dense conditional matrix may hold (1 GiB of float64)


class DistributionError(ValueError):
    pass


class ZeroProbabilityError(DistributionError):
    """A context with zero probability was used where positive mass is required."""


@dataclass(frozen=True)
class Alphabet:
    """Finite token alphabet; token ids are 0..size-1."""

    size: int

    def __post_init__(self):
        if self.size < 1:
            raise DistributionError(f"alphabet size must be >= 1, got {self.size}")


def _sequence_labels(size: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All length-k sequences in row-major (lexicographic) order."""
    return tuple(itertools.product(range(size), repeat=k))


@dataclass(frozen=True, eq=False)
class Language:
    """A consistent family of joint distributions, stored as the joint over Σ^K.

    ``positivity_relaxed`` marks languages (e.g. planted bigrams) that contain
    exact zeros; consumers restrict to the positive-probability domain instead
    of failing.
    """

    alphabet: Alphabet
    K: int
    joint: np.ndarray
    positivity_relaxed: bool = False

    def __post_init__(self):
        joint = np.asarray(self.joint, dtype=float)
        expected = (self.alphabet.size,) * self.K
        if joint.shape != expected:
            raise DistributionError(
                f"joint shape {joint.shape} does not match Σ^{self.K} = {expected}"
            )
        if not np.all(np.isfinite(joint)):
            raise DistributionError("joint probabilities must be finite")
        if np.any(joint < 0):
            raise DistributionError("joint probabilities must be non-negative")
        total = float(joint.sum())
        if abs(total - 1.0) > JOINT_ATOL:
            raise DistributionError(f"joint must sum to 1 within {JOINT_ATOL}, got {total!r}")
        joint = joint.copy()
        joint.setflags(write=False)
        object.__setattr__(self, "joint", joint)
        if not self.positivity_relaxed:
            for axis in range(self.K):
                unigram = _marginal_to_axis(joint, axis)
                if np.any(unigram <= 0):
                    raise DistributionError(
                        "unigram marginals must be strictly positive; "
                        "use positivity_relaxed=True for planted constructions"
                    )

    @property
    def size(self) -> int:
        return self.alphabet.size


def _marginal_to_axis(joint: np.ndarray, axis: int) -> np.ndarray:
    axes = tuple(a for a in range(joint.ndim) if a != axis)
    return joint.sum(axis=axes)


def fundamental_tensor(lang: Language, k: int) -> np.ndarray:
    """Order-k tensor of joint probabilities of length-k strings."""
    if not 1 <= k <= lang.K:
        raise DistributionError(f"k must be in 1..{lang.K}, got {k}")
    return marginalize(lang.joint, 0, lang.K - k)


def marginalize(tensor: np.ndarray, i: int, j: int) -> np.ndarray:
    """Sum out the first i and last j positions of an order-K tensor."""
    tensor = np.asarray(tensor)
    K = tensor.ndim
    if i < 0 or j < 0 or i + j >= K:
        raise DistributionError(f"need i >= 0, j >= 0, i + j < {K}; got i={i}, j={j}")
    axes = tuple(range(i)) + tuple(range(K - j, K))
    if not axes:
        return tensor.copy()
    return tensor.sum(axis=axes)


def check_language(family: list[np.ndarray]) -> float:
    """Maximum deviation of the family from the marginal-consistency condition.

    ``family[k-1]`` must be the order-k joint. For every k and every split
    i + j = K - k, the (i, j)-marginal of the top joint is compared entrywise
    against the stored order-k joint.
    """
    if not family:
        raise DistributionError("empty family")
    K = len(family)
    size = family[0].shape[0] if family[0].ndim else 0
    for k, tensor in enumerate(family, start=1):
        t = np.asarray(tensor)
        if t.ndim != k or any(s != size for s in t.shape):
            raise DistributionError(
                f"family[{k - 1}] has shape {t.shape}; expected ({size},) * {k}"
            )
    top = np.asarray(family[K - 1])
    worst = 0.0
    for k in range(1, K + 1):
        for i in range(K - k + 1):
            j = K - k - i
            dev = np.max(np.abs(marginalize(top, i, j) - family[k - 1]))
            worst = max(worst, float(dev))
    return worst


def _frozen(values) -> np.ndarray:
    """Read-only, C-ordered float copy."""
    values = np.array(values, dtype=float, order="C")
    values.setflags(write=False)
    return values


def _is_sparse(a) -> bool:
    """True for a scipy sparse array, which can exist only once scipy.sparse is loaded."""
    sparse = sys.modules.get("scipy.sparse")
    return sparse is not None and sparse.issparse(a)


@dataclass(frozen=True, eq=False)
class ConditionalOperator:
    """Matrix of q(y|x): rows indexed by y ∈ Σ^l, columns by x ∈ Σ^k.

    The entries are held in one form, P = R·diag(1/d) + λ·1·(1/d)ᵀ, that is
    P[y, x] = (R[y, x] + λ) / d[x]. For an operator built from a count table,
    R (``raw``) is the raw count matrix as a ``scipy.sparse.csr_array``, d
    (``denom``) the smoothed column denominators and λ (``smoothing``) the
    Laplace constant; for an exact language, R is the dense conditional, with
    d = 1 and λ = 0. ``matrix`` is the dense P, built on first use (within
    ``DENSE_CELLS``) and cached; products with P need only R, d and λ.

    ``marginal`` holds q(x) for the retained columns. Columns are stochastic
    except under the corpus module's raw-occurrence ("paper") counting
    policy, which is recorded in ``meta``.
    """

    k: int
    l: int
    raw: np.ndarray | sparse.csr_array
    denom: np.ndarray
    marginal: np.ndarray
    x_labels: tuple[tuple[int, ...], ...]
    y_labels: tuple[tuple[int, ...], ...]
    smoothing: float = 0.0
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if _is_sparse(self.raw):
            from scipy import sparse
            raw = sparse.csr_array(self.raw, dtype=float)
        else:
            raw = _frozen(self.raw)
        denom, marginal = _frozen(self.denom), _frozen(self.marginal)
        if raw.shape != (self.n_y, self.n_x):
            raise DistributionError("matrix shape does not match labels")
        if denom.shape != (self.n_x,) or np.any(denom <= 0):
            raise DistributionError("column denominators must be positive, one per x label")
        if marginal.shape != (self.n_x,):
            raise DistributionError("marginal shape does not match x labels")
        if np.any(marginal <= 0):
            raise ZeroProbabilityError("operator marginal must be strictly positive")
        if abs(marginal.sum() - 1.0) > JOINT_ATOL:
            raise DistributionError("operator marginal must sum to 1")
        object.__setattr__(self, "raw", raw)
        object.__setattr__(self, "denom", denom)
        object.__setattr__(self, "marginal", marginal)

    @property
    def n_x(self) -> int:
        return len(self.x_labels)

    @property
    def n_y(self) -> int:
        return len(self.y_labels)

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense, read-only P = (R + λ)/d; refused above ``DENSE_CELLS`` cells."""
        cells = self.n_y * self.n_x
        if cells > DENSE_CELLS:
            raise DistributionError(
                f"a dense {self.n_y}×{self.n_x} operator would need "
                f"{cells * 8 / 2**30:.3g} GiB, above the budget of {DENSE_CELLS} cells; "
                "`decompose --rank` finds the leading modes without it")
        dense = self.raw.toarray() if _is_sparse(self.raw) else np.array(self.raw)
        dense += self.smoothing
        dense /= self.denom[None, :]
        dense.setflags(write=False)
        return dense

    def joint(self) -> np.ndarray:
        """Joint q(x, y) = q(y|x) q(x) as a (n_y, n_x) array."""
        return self.matrix * self.marginal[None, :]


def conditional_operator(lang: Language, k: int, l: int) -> ConditionalOperator:
    """Column-stochastic operator sending x ∈ Σ^k to its conditional over Σ^l.

    Zero-probability contexts are dropped for positivity-relaxed languages
    (restricting the domain) and are an error otherwise.
    """
    if k < 1 or l < 1 or k + l > lang.K:
        raise DistributionError(f"need k, l >= 1 with k + l <= {lang.K}; got ({k}, {l})")
    size = lang.size
    joint_kl = fundamental_tensor(lang, k + l).reshape(size**k, size**l)
    q_x = fundamental_tensor(lang, k).reshape(size**k)
    x_labels = _sequence_labels(size, k)
    y_labels = _sequence_labels(size, l)
    positive = q_x > 0
    if not positive.all():
        if not lang.positivity_relaxed:
            bad = x_labels[int(np.argmin(positive))]
            raise ZeroProbabilityError(f"context {bad} has zero probability")
        joint_kl = joint_kl[positive]
        q_x = q_x[positive]
        x_labels = tuple(lab for lab, keep in zip(x_labels, positive) if keep)
    return ConditionalOperator(
        k=k, l=l, raw=(joint_kl / q_x[:, None]).T, denom=np.ones(q_x.size), marginal=q_x,
        x_labels=x_labels, y_labels=y_labels,
    )


def _stationary_vector(transition: np.ndarray) -> np.ndarray:
    """Stationary distribution of a column-stochastic matrix, polished to ~1e-15."""
    n = transition.shape[0]
    system = transition - np.eye(n)
    system[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    pi = np.linalg.solve(system, rhs)
    pi = np.maximum(pi, 1e-300)
    pi /= pi.sum()
    for _ in range(200):
        nxt = transition @ pi
        nxt /= nxt.sum()
        if np.max(np.abs(nxt - pi)) < 1e-16:
            pi = nxt
            break
        pi = nxt
    return pi


def random_language(
    seed: int, alphabet: Alphabet | int, K: int, concentration: float = 1.0
) -> Language:
    """Strictly positive stationary joint over Σ^K.

    Next-token conditionals for every length-(K-1) context are drawn from a
    symmetric Dirichlet (positivity and entropy control via concentration);
    the context marginal is the stationary distribution of the induced
    context chain, so every length-k window of the joint has the same
    marginal and the consistency condition holds for all splits.
    """
    if isinstance(alphabet, int):
        alphabet = Alphabet(alphabet)
    if alphabet.size < 2:
        raise DistributionError("random languages require alphabet size >= 2")
    if concentration <= 0:
        raise DistributionError("concentration must be positive")
    rng = keyed_generator(seed, LANGUAGE_TAG)
    size = alphabet.size
    if K == 1:
        joint = rng.dirichlet(np.full(size, concentration))
        joint = np.maximum(joint, 1e-300)
        joint /= joint.sum()
        return Language(alphabet=alphabet, K=1, joint=joint)
    n_ctx = size ** (K - 1)
    cond = rng.dirichlet(np.full(size, concentration), size=n_ctx)  # rows P(y|ctx)
    # Context chain: (x_1..x_{K-1}) -> (x_2..x_{K-1}, y). Row-major context
    # indices shift as c -> (c mod size^{K-2})*size + y.
    transition = np.zeros((n_ctx, n_ctx))
    tail = size ** (K - 2)
    for c in range(n_ctx):
        base = (c % tail) * size
        for y in range(size):
            transition[base + y, c] += cond[c, y]
    pi = _stationary_vector(transition)
    joint = (pi[:, None] * cond).reshape((size,) * K)
    joint = np.maximum(joint, 1e-300)
    joint /= joint.sum()
    return Language(alphabet=alphabet, K=K, joint=joint)


def random_doubly_stochastic_language(
    seed: int, size: int, concentration: float = 1.0
) -> Language:
    """Bigram language (K=2) with uniform marginals on both positions.

    The conditional q(y|x) is then doubly stochastic, which makes the uniform
    conditional expressible in the span of the top mode; these are the
    fixtures on which mode truncation stays feasible at every cutoff.
    """
    if size < 2:
        raise DistributionError("need size >= 2")
    rng = keyed_generator(seed, LANGUAGE_TAG)
    m = rng.gamma(concentration, size=(size, size)) + 1e-12
    for _ in range(10_000):
        m /= m.sum(axis=1, keepdims=True)
        m /= m.sum(axis=0, keepdims=True)
        row_err = np.max(np.abs(m.sum(axis=1) - 1.0))
        col_err = np.max(np.abs(m.sum(axis=0) - 1.0))
        if max(row_err, col_err) < 1e-15:
            break
    joint = m / m.sum()
    return Language(alphabet=Alphabet(size), K=2, joint=joint)


def _as_index(x: tuple[int, ...] | int, size: int, k: int) -> tuple[int, ...]:
    if isinstance(x, int):
        x = (x,)
    x = tuple(int(t) for t in x)
    if len(x) != k or any(t < 0 or t >= size for t in x):
        raise DistributionError(f"{x} is not a valid length-{k} sequence over {size} tokens")
    return x


def plant_absolute_bigram(
    lang: Language, x: tuple[int, ...] | int, y: tuple[int, ...] | int
) -> Language:
    """Force y to be the only continuation of x and x the only precursor of y.

    Requires len(x) + len(y) = K. Zeros are planted exactly, so the result is
    positivity-relaxed.
    """
    x = _as_index(x, lang.size, len(x) if not isinstance(x, int) else 1)
    k = len(x)
    l = lang.K - k
    y = _as_index(y, lang.size, l)
    joint = np.array(lang.joint)
    # q(xz) = 0 for z != y
    xy_slice = joint[x]
    keep = xy_slice[y]
    joint[x] = 0.0
    joint[x + y] = keep
    # q(ty) = 0 for t != x
    full = joint.reshape(lang.size**k, lang.size**l)
    y_flat = int(np.ravel_multi_index(y, (lang.size,) * l))
    x_flat = int(np.ravel_multi_index(x, (lang.size,) * k))
    column = full[:, y_flat].copy()
    full[:, y_flat] = 0.0
    full[x_flat, y_flat] = column[x_flat]
    total = full.sum()
    if total <= 0:
        raise DistributionError("planting would zero out the whole distribution")
    return Language(
        alphabet=lang.alphabet,
        K=lang.K,
        joint=(full / total).reshape(lang.joint.shape),
        positivity_relaxed=True,
    )


def plant_collective_bigram(
    lang: Language, S: list[tuple[int, ...]], y: tuple[int, ...]
) -> Language:
    """Make y the deterministic continuation of every s ∈ S and of nothing else.

    Per-column renormalization preserves every context marginal q(t) exactly,
    so q(y) = Σ_{s∈S} q(s) afterwards.
    """
    if not S:
        raise DistributionError("S must be non-empty")
    k = len(S[0])
    l = lang.K - k
    y = _as_index(y, lang.size, l)
    S = [_as_index(s, lang.size, k) for s in S]
    size = lang.size
    full = np.array(lang.joint).reshape(size**k, size**l)
    y_flat = int(np.ravel_multi_index(y, (size,) * l))
    s_flat = {int(np.ravel_multi_index(s, (size,) * k)) for s in S}
    for xf in range(size**k):
        mass = full[xf].sum()
        if xf in s_flat:
            full[xf] = 0.0
            full[xf, y_flat] = mass
        else:
            removed = full[xf, y_flat]
            rest = mass - removed
            if mass > 0 and rest <= 0:
                raise DistributionError(
                    f"context {np.unravel_index(xf, (size,) * k)} has all its mass "
                    f"on {tuple(y)}; requiring q(y|t)=0 there is infeasible"
                )
            full[xf, y_flat] = 0.0
            if rest > 0:
                full[xf] *= mass / rest
    total = full.sum()
    if total <= 0:
        raise DistributionError("planting would zero out the whole distribution")
    return Language(
        alphabet=lang.alphabet,
        K=lang.K,
        joint=(full / total).reshape(lang.joint.shape),
        positivity_relaxed=True,
    )


def language_to_json(lang: Language) -> str:
    payload = {
        "alphabet_size": lang.size,
        "K": lang.K,
        "positivity_relaxed": lang.positivity_relaxed,
        "probabilities": [float(v) for v in lang.joint.ravel()],
    }
    return json.dumps(payload)


MAX_LANGUAGE_ORDER = 64  # numpy's limit on array dimensions


def language_from_json(text: str) -> Language:
    """Inverse of :func:`language_to_json`; a payload of another shape is a DistributionError.

    ``alphabet_size`` and ``K`` must be integers >= 1 (``K`` at most numpy's
    64 array dimensions), ``probabilities`` a list of size^K numbers and
    ``positivity_relaxed`` (default false) a boolean.
    """
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise DistributionError(f"a language must be a JSON object, not {type(payload).__name__}")
    size, K = payload.get("alphabet_size"), payload.get("K")
    for name, value in (("alphabet_size", size), ("K", K)):
        if type(value) is not int or value < 1:
            raise DistributionError(f"language field {name!r} must be an integer >= 1, "
                                    f"got {value!r}")
    if K > MAX_LANGUAGE_ORDER:
        raise DistributionError(f"language field 'K' must be at most {MAX_LANGUAGE_ORDER}, got {K}")
    probabilities = payload.get("probabilities")
    if (not isinstance(probabilities, list) or len(probabilities) != size**K
            or not all(type(v) in (int, float) for v in probabilities)):
        raise DistributionError(f"language field 'probabilities' must be a list of "
                                f"{size}^{K} numbers")
    relaxed = payload.get("positivity_relaxed", False)
    if type(relaxed) is not bool:
        raise DistributionError(f"language field 'positivity_relaxed' must be true or false, "
                                f"got {relaxed!r}")
    return Language(
        alphabet=Alphabet(size),
        K=K,
        joint=np.asarray(probabilities, dtype=float).reshape((size,) * K),
        positivity_relaxed=relaxed,
    )
