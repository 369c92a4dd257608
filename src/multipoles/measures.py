"""Core quantities: least-variant combination, linear dependence and gain,
self-canceling forms, negative-clique predicates.

All operations take either a CorrelationMatrix or a plain ndarray and a
subset of variable indices. The subset's principal submatrix must be finite
and symmetric (within 1e-9); anything else raises ValueError. Subsets are
handled in sorted order; weight vectors line up with the sorted members.

Every measure is row 0 of the stack kernels the sampler and the miner use:
``_canonical`` (smallest eigenpair, self-canceling signs, weights, rho_s)
and ``_study_stack`` (that plus deletion eigenvalues and gain).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np
from numpy.typing import NDArray

from . import linalg

FLIP_EPS = 1e-10


@dataclass(frozen=True, order=True)
class SignedSet:
    """Variable indices with a ±1 sign each; lowest member always signed +1.

    The canonical orientation makes a sign pattern and its global negation
    compare equal, which is what makes deduplication of mirror solutions a
    plain equality test.
    """

    members: tuple[int, ...]
    signs: tuple[int, ...]

    def __post_init__(self):
        members = tuple(int(m) for m in self.members)
        signs = tuple(int(s) for s in self.signs)
        if len(members) < 2:
            raise ValueError("signed set needs at least 2 members")
        if len(signs) != len(members):
            raise ValueError(f"{len(signs)} signs for {len(members)} members")
        if any(b <= a for a, b in zip(members, members[1:])):
            raise ValueError("members must be strictly increasing")
        if any(s not in (-1, 1) for s in signs):
            raise ValueError("signs must be +1 or -1")
        if signs[0] != 1:
            raise ValueError("canonical orientation requires sign +1 on the lowest member")
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "signs", signs)

    @classmethod
    def canonical(cls, members: Sequence[int], signs: Sequence[int]) -> "SignedSet":
        """Sort by member index and negate globally if needed."""
        pairs = sorted(zip((int(m) for m in members), (int(s) for s in signs)))
        ms = tuple(m for m, _ in pairs)
        ss = tuple(s for _, s in pairs)
        if ss and ss[0] == -1:
            ss = tuple(-s for s in ss)
        return cls(members=ms, signs=ss)

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class CanonicalForm:
    """Self-canceling form of a subset: signs, adjusted max correlation, weights."""

    signed: SignedSet
    rho_s: float
    weights: tuple[float, ...]


@dataclass(frozen=True)
class MultipoleRecord:
    """One mined multipole: members+signs, dependence, gain, weights, maximality."""

    signed: SignedSet
    sigma: float
    gain: float
    weights: tuple[float, ...]
    maximal: bool

    @property
    def members(self) -> tuple[int, ...]:
        return self.signed.members

    @property
    def size(self) -> int:
        return self.signed.size


def _entries(A) -> NDArray[np.float64]:
    M = getattr(A, "entries", A)
    return np.asarray(M, dtype=np.float64)


def _checked_members(subset, n: int, min_size: int) -> tuple[int, ...]:
    """Sorted member indices: at least min_size of them, distinct, each in [0, n)."""
    idx = tuple(sorted(int(i) for i in subset))
    if len(idx) < min_size:
        raise ValueError(f"subset needs at least {min_size} members, got {len(idx)}")
    if len(set(idx)) != len(idx):
        raise ValueError("duplicate members in subset")
    if idx[0] < 0 or idx[-1] >= n:
        raise ValueError(f"member index out of range for {n} variables")
    return idx


def _checked_subset(A, subset, min_size: int) -> tuple[NDArray[np.float64], tuple[int, ...]]:
    """Validated principal submatrix of the subset, and its sorted members."""
    M = _entries(A)
    idx = _checked_members(subset, M.shape[0], min_size)
    ix = np.asarray(idx, dtype=np.intp)
    return linalg._as_square(M[np.ix_(ix, ix)]), idx


def lvnlc(A, subset) -> tuple[float, NDArray[np.float64]]:
    """Least-variant normalized linear combination of a subset.

    Returns (variance, weights): the smallest eigenvalue of the principal
    correlation submatrix and its unit eigenvector in canonical orientation.
    """
    sub, _ = _checked_subset(A, subset, 2)
    form = _canonical(sub[None])
    return float(form.values[0, 0]), form.vectors[0]


def linear_dependence(A, subset) -> float:
    """1 minus the LVNLC variance, clamped to [0, 1]."""
    var, _ = lvnlc(A, subset)
    return float(_sigma_of(var))


def linear_gain(A, subset) -> float:
    """Dependence of the subset minus the best dependence after deleting one member.

    Equals min_j mu_j - lambda where mu_j is the smallest eigenvalue with
    member j removed; nonnegative up to eigensolver tolerance.
    """
    sub, _ = _checked_subset(A, subset, 3)
    return float(_study_stack(sub[None]).gain[0])


def self_canceling_form(A, subset) -> CanonicalForm:
    """Flip members with negative LVNLC weight so the combination becomes a sum.

    Flips exactly the members whose canonical weight is below -1e-10; the
    sign-adjusted submatrix keeps the original eigenvalues. rho_s is its
    largest off-diagonal entry and the returned weights (weight times applied
    sign) are all above -1e-10.
    """
    sub, idx = _checked_subset(A, subset, 2)
    form = _canonical(sub[None])
    signed = SignedSet.canonical(idx, form.signs[0].tolist())
    return CanonicalForm(signed=signed, rho_s=float(form.rho_s[0]), weights=tuple(float(x) for x in form.weights[0]))


def is_negative_clique(A, signed: SignedSet, rho: float) -> bool:
    """True iff every sign-adjusted pairwise correlation is at most rho."""
    sub, _ = _checked_subset(A, signed.members, 2)
    s = np.asarray(signed.signs, dtype=np.float64)
    adj = sub * np.outer(s, s)
    return bool(np.all(adj[~np.eye(signed.size, dtype=bool)] <= rho))


def negative_equivalent_witness(A, subset, rho: float) -> Optional[SignedSet]:
    """Canonical sign assignment making all adjusted correlations <= rho, if any.

    The first witness in binary counting order, member i's flip being bit i-1:
    member 0 is +1, then each unsigned member, highest index first, is +1, and
    signs propagate along the pairs that allow only equal (c <= rho) or only
    opposite (-c <= rho) signs. A pair that allows neither means no witness.
    """
    sub, idx = _checked_subset(A, subset, 2)
    k = len(idx)
    same, flip = sub <= rho, -sub <= rho
    off = ~np.eye(k, dtype=bool)
    if not np.all(same | flip | ~off):
        return None
    forced = off & (same != flip)
    signs = [0] * k
    for start in (0, *range(k - 1, 0, -1)):
        if signs[start]:
            continue
        signs[start] = 1
        todo = [start]
        while todo:
            i = todo.pop()
            for j in np.nonzero(forced[i])[0].tolist():
                want = signs[i] if same[i, j] else -signs[i]
                if not signs[j]:
                    signs[j] = want
                    todo.append(j)
                elif signs[j] != want:
                    return None
    return SignedSet(members=idx, signs=tuple(signs))


class _Form(NamedTuple):
    """Smallest eigenpair and self-canceling form of each matrix in a (B, k, k) stack."""

    values: NDArray[np.float64]  # (B, k) ascending eigenvalues
    vectors: NDArray[np.float64]  # (B, k) canonically oriented smallest eigenvectors
    signs: NDArray[np.float64]  # (B, k) -1.0 where the vector is below -FLIP_EPS, else 1.0
    weights: NDArray[np.float64]  # (B, k) vectors * signs
    rho_s: NDArray[np.float64]  # (B,) largest sign-adjusted off-diagonal entry


def _canonical(mats: NDArray[np.float64]) -> _Form:
    """Self-canceling form of every matrix in the stack, from one eigen-solve."""
    mats = np.asarray(mats, dtype=np.float64)
    k = mats.shape[1]
    values, vecs = linalg.eigh_many(mats, vectors=True)
    vectors = vecs[:, :, 0]
    signs = np.where(vectors < -FLIP_EPS, -1.0, 1.0)
    adj = mats * signs[:, :, None] * signs[:, None, :]
    rho_s = adj[:, ~np.eye(k, dtype=bool)].max(axis=1)
    return _Form(values=values, vectors=vectors, signs=signs, weights=vectors * signs, rho_s=rho_s)


class StackStudy(NamedTuple):
    """Batched per-matrix quantities for a (B, k, k) correlation stack."""

    lambda_min: NDArray[np.float64]
    deletion_min: NDArray[np.float64]
    gain: NDArray[np.float64]
    rho_s: NDArray[np.float64]


def _sigma_of(lam):
    """Linear dependence 1 - lambda_min, clamped to [0, 1]; elementwise."""
    return np.clip(1.0 - lam, 0.0, 1.0)


def _deletion_min_eigvals(mats: NDArray[np.float64]) -> NDArray[np.float64]:
    """Smallest eigenvalue of every single-member deletion; shape (B, k)."""
    B, k, _ = mats.shape
    out = np.empty((B, k), dtype=np.float64)
    keep = np.arange(k)
    for j in range(k):
        sel = keep[keep != j]
        sub = mats[:, sel[:, None], sel[None, :]]
        out[:, j] = linalg.eigh_many(sub, vectors=False)[0][:, 0]
    return out


def _study_stack(mats: NDArray[np.float64]) -> StackStudy:
    """Smallest eigenvalue, deletion eigenvalues, gain (min_j mu_j - lambda) and
    adjusted max correlation for a stack of correlation submatrices of a
    common size k >= 3."""
    mats = np.asarray(mats, dtype=np.float64)
    form = _canonical(mats)
    lam = form.values[:, 0]
    deletion = _deletion_min_eigvals(mats)
    return StackStudy(lambda_min=lam, deletion_min=deletion, gain=deletion.min(axis=1) - lam, rho_s=form.rho_s)
