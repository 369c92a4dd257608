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
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from . import linalg, measures

_TOL = 1e-9  # slack before an inequality counts as violated


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


class _Parts(NamedTuple):
    """Bound quantities of a (B, k, k) stack; per-column arrays are (B, k)."""

    gain: NDArray[np.float64]
    rho_s: NDArray[np.float64]
    norm2: NDArray[np.float64]
    norm1: NDArray[np.float64]
    deltas: NDArray[np.float64]
    corollary1: NDArray[np.float64]
    corollary2: NDArray[np.float64]
    size_cap: NDArray[np.float64]


def _bound_parts(mats: NDArray[np.float64]) -> _Parts:
    """Every bound quantity of a stack of same-size correlation matrices, k >= 3."""
    B, k, _ = mats.shape
    if k < 3:
        raise ValueError(f"bounds need k >= 3, got {k}")
    study = measures._study_stack(mats)
    off = mats - np.eye(k)[None, :, :]
    sq = (off * off).sum(axis=1)
    return _Parts(
        gain=study.gain,
        rho_s=study.rho_s,
        norm2=np.sqrt(sq),
        norm1=np.abs(off).sum(axis=1),
        deltas=study.deletion_min - study.lambda_min[:, None],
        corollary1=np.sqrt(sq.sum(axis=1) / k),
        corollary2=np.sqrt(sq / (k - 1)).min(axis=1),
        size_cap=np.full(B, 1.0 / (k - 1)),
    )


def _inequalities(p: _Parts):
    """(kind, lhs, rhs) of each bound, failed where lhs > rhs + _TOL; sides are (B, k) per column or (B, 1)."""
    gain = p.gain[:, None]
    return (
        ("theorem1_norm2", p.deltas, p.norm2),
        ("theorem1_norm1", p.norm2, p.norm1),
        ("corollary1", gain, p.corollary1[:, None]),
        ("corollary2", gain, p.corollary2[:, None]),
        ("size_cap", gain, p.size_cap[:, None]),
    )


def bound_report(A) -> BoundReport:
    """Every bound quantity of one matrix: row 0 of the stack_report_rows kernel.

    The matrix must be finite and symmetric (within 1e-9); anything else
    raises ValueError.
    """
    M = linalg._as_square(A)
    p = _bound_parts(M[None, :, :])
    cols = tuple(
        ColumnBound(column=j, c_norm2=float(p.norm2[0, j]), c_norm1=float(p.norm1[0, j]), delta_lambda=float(p.deltas[0, j]))
        for j in range(M.shape[0])
    )
    return BoundReport(
        columns=cols,
        gain=float(p.gain[0]),
        corollary1_bound=float(p.corollary1[0]),
        corollary2_bound=float(p.corollary2[0]),
        size_cap_bound=float(p.size_cap[0]),
    )


def check_bounds(A) -> list[BoundViolation]:
    """Evaluate the bound chain and return every inequality that fails.

    Kinds, in this order: theorem1_norm2, theorem1_norm1 (per column),
    corollary1, corollary2, size_cap (aggregate). The first four are proved
    and a violation indicates a numerical defect; size_cap is empirical.
    """
    p = _bound_parts(linalg._as_square(A)[None, :, :])
    return [
        BoundViolation(kind, -1 if lhs.shape[1] == 1 else int(j), float(lhs[0, j]), float(rhs[0, j]))
        for kind, lhs, rhs in _inequalities(p)
        for j in np.flatnonzero(lhs[0] > rhs[0] + _TOL)
    ]


def max_size_for_gain(delta: float) -> int:
    """Largest set size worth examining when requiring gain >= delta.

    floor((1+delta)/delta), nudged because the quotient can land a hair
    under an integer in floating point (e.g. 1.2/0.2).
    """
    if not (0.0 < delta <= 1.0):
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    return int(math.floor((1.0 + delta) / delta + 1e-9))


def stack_report_rows(mats: NDArray[np.float64]):
    """Bound rows for a stack of same-size correlation matrices.

    Returns (gain, rho_s, corollary1, corollary2, size_cap, violated) arrays,
    where violated flags any failed proved inequality. Vectorized so the
    random-matrix validator can process large samples.
    """
    p = _bound_parts(np.asarray(mats, dtype=np.float64))
    violated = np.any([(lhs > rhs + _TOL).any(axis=1) for _, lhs, rhs in _inequalities(p)[:4]], axis=0)
    return p.gain, p.rho_s, p.corollary1, p.corollary2, p.size_cap, violated
