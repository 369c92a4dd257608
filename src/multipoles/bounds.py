"""Eigengap bounds for correlation submatrices and their numeric validation.

For a k-variable correlation matrix A with smallest eigenvalue lambda, let
mu_j be the smallest eigenvalue after deleting variable j and C_j the j-th
column without its diagonal entry. The implemented chain is

    delta_lambda_j = mu_j - lambda <= ||C_j||_2 <= ||C_j||_1

per column, plus two aggregate bounds on the gain min_j delta_lambda_j:

    gain <= sqrt(sum of all squared off-diagonals / k)
    gain <= min_j sqrt((sum_i A_ij^2 - 1) / (k-1))

and the size cap gain <= 1/(k-1), which is an empirical observation (all
equicorrelated matrices with r = -1/(k-1) attain it) and is therefore
reported as a violation but never raised as an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from . import measures


@dataclass(frozen=True)
class ColumnBound:
    """Per-column pieces of the bound chain."""

    column: int
    c_norm2: float
    c_norm1: float
    delta_lambda: float


@dataclass(frozen=True)
class BoundReport:
    """All bound quantities for one correlation matrix."""

    columns: tuple[ColumnBound, ...]
    gain: float
    corollary1_bound: float
    corollary2_bound: float
    size_cap_bound: float


@dataclass(frozen=True)
class BoundViolation:
    """One failed inequality, by kind and column (column -1 for aggregates)."""

    kind: str
    column: int
    lhs: float
    rhs: float

    def __str__(self) -> str:
        where = f" column {self.column}" if self.column >= 0 else ""
        return f"{self.kind}{where}: {self.lhs:.12g} > {self.rhs:.12g}"


def bound_report(A) -> BoundReport:
    """Compute every bound quantity by direct eigen-decomposition."""
    M = measures._entries(A)
    k = M.shape[0]
    if k < 3:
        raise ValueError(f"bound report needs k >= 3, got {k}")
    lam, mus, gain = measures._gain_parts(M[None, :, :])
    off = M - np.eye(k)
    norm2 = np.sqrt((off * off).sum(axis=0))
    norm1 = np.abs(off).sum(axis=0)
    deltas = mus[0] - lam[0]
    cols = tuple(
        ColumnBound(column=j, c_norm2=float(norm2[j]), c_norm1=float(norm1[j]), delta_lambda=float(deltas[j]))
        for j in range(k)
    )
    corollary1 = math.sqrt(float((off * off).sum()) / k)
    corollary2 = float(np.sqrt((off * off).sum(axis=0) / (k - 1)).min())
    return BoundReport(
        columns=cols,
        gain=float(gain[0]),
        corollary1_bound=corollary1,
        corollary2_bound=corollary2,
        size_cap_bound=1.0 / (k - 1),
    )


def check_bounds(A, tol: float = 1e-9) -> list[BoundViolation]:
    """Evaluate the bound chain and return every inequality that fails.

    Kinds: theorem1_norm2, theorem1_norm1 (per column), corollary1,
    corollary2, size_cap (aggregate). The first four are proved and a
    violation indicates a numerical defect; size_cap is empirical.
    """
    rep = bound_report(A)
    out: list[BoundViolation] = []
    for cb in rep.columns:
        if cb.delta_lambda > cb.c_norm2 + tol:
            out.append(BoundViolation("theorem1_norm2", cb.column, cb.delta_lambda, cb.c_norm2))
        if cb.c_norm2 > cb.c_norm1 + tol:
            out.append(BoundViolation("theorem1_norm1", cb.column, cb.c_norm2, cb.c_norm1))
    if rep.gain > rep.corollary1_bound + tol:
        out.append(BoundViolation("corollary1", -1, rep.gain, rep.corollary1_bound))
    if rep.gain > rep.corollary2_bound + tol:
        out.append(BoundViolation("corollary2", -1, rep.gain, rep.corollary2_bound))
    if rep.gain > rep.size_cap_bound + tol:
        out.append(BoundViolation("size_cap", -1, rep.gain, rep.size_cap_bound))
    return out


def max_size_for_gain(delta: float) -> int:
    """Largest set size worth examining when requiring gain >= delta.

    floor((1+delta)/delta), nudged because the quotient can land a hair
    under an integer in floating point (e.g. 1.2/0.2).
    """
    if not (0.0 < delta <= 1.0):
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    return int(math.floor((1.0 + delta) / delta + 1e-9))


def stack_report_rows(mats: NDArray[np.float64], tol: float = 1e-9):
    """Bound rows for a stack of same-size correlation matrices.

    Returns (gain, rho_s, corollary1, corollary2, size_cap, violated) arrays,
    where violated flags any failed proved inequality. Vectorized so the
    random-matrix validator can process large samples.
    """
    mats = np.asarray(mats, dtype=np.float64)
    B, k, _ = mats.shape
    if k < 3:
        raise ValueError(f"bound rows need k >= 3, got {k}")
    study = measures._study_stack(mats)
    off = mats - np.eye(k)[None, :, :]
    sq = (off * off).sum(axis=1)
    norm2 = np.sqrt(sq)
    norm1 = np.abs(off).sum(axis=1)
    deltas = study.deletion_min - study.lambda_min[:, None]
    corollary1 = np.sqrt(sq.sum(axis=1) / k)
    corollary2 = np.sqrt(sq / (k - 1)).min(axis=1)
    violated = (
        (deltas > norm2 + tol).any(axis=1)
        | (norm2 > norm1 + tol).any(axis=1)
        | (study.gain > corollary1 + tol)
        | (study.gain > corollary2 + tol)
    )
    cap = np.full(B, 1.0 / (k - 1))
    return study.gain, study.rho_s, corollary1, corollary2, cap, violated
