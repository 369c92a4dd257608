"""Dense symmetric kernels for small matrices: smallest eigenpair and Cholesky.

The eigensolver is a cyclic Jacobi sweep with a fixed row-major rotation
order. Matrices here are correlation submatrices, rarely beyond a dozen
variables, where Jacobi is accurate to machine precision and, crucially,
bit-reproducible: identical input bits give identical output bits whatever
the batch, which deterministic result files rely on.

``eigh_many`` finds the smallest eigenvalue, and optionally its
eigenvector, of every matrix in a stack of same-sized matrices in one
vectorized pass: the measures read nothing else of the spectrum. It is the
only eigensolver, for sizes 2 to MAX_DIM = 64; scalar measures solve a
stack of one through it, so there is a single code path to trust. It
rotates a copy with the matrix index last, so each rotation is a few
whole-row operations on contiguous slices, and once per sweep writes out
the matrices that converged and compacts the rest.
``_cholesky_stack``, of any size, is the one PSD certificate.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

MAX_DIM = 64

# Sign convention for eigenvectors: the first component with absolute value
# above this threshold is made positive.
ORIENT_EPS = 1e-10

_SWEEP_LIMIT = 100
_OFF_TOL = 1e-13  # off-diagonal Frobenius norm at convergence
_SYM_TOL = 1e-9  # largest |A - A^T| entry _as_square accepts


def _as_square(A) -> NDArray[np.float64]:
    """Validate and symmetrize the input; accepts anything with ``.entries``."""
    M = np.asarray(getattr(A, "entries", A), dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix contains non-finite entries")
    asym = float(np.max(np.abs(M - M.T), initial=0.0))
    if asym > _SYM_TOL:
        raise ValueError(f"matrix is not symmetric: max |A - A^T| = {asym:.3e}")
    return (M + M.T) / 2.0


def eigh_many(
    mats: NDArray[np.float64], vectors: bool = True
) -> tuple[NDArray[np.float64], NDArray[np.float64] | None]:
    """Smallest eigenpair of each matrix in a symmetric stack, by Jacobi in one vectorized pass.

    Parameters
    ----------
    mats : (n, k, k) array
        Stack of symmetric matrices, 2 <= k <= 64; any other k raises
        ValueError. Symmetry is trusted, not checked; callers validate (see
        ``_as_square``). The input is never written.
    vectors : bool
        When false, skip eigenvector accumulation (1.25 to 1.9 times as
        fast at k = 3..12, 1.4 in the median, on stacks of 3,000). The
        eigenvectors build up in k identity rows below each matrix, turned
        by the same column rotations.

    Returns
    -------
    values : (n,) array
        Each matrix's smallest eigenvalue: the first smallest diagonal entry
        of its converged copy.
    vectors : (n, k) array or None
        Row i is the unit eigenvector of ``values[i]``, canonically oriented.

    The working copy is a ``(rows, k, m)`` array with the matrix index last
    (rows is k, or 2k with the eigenvectors below), so every rotation
    updates contiguous rows ``[p]``, ``[q]`` and columns ``[:, p]``,
    ``[:, q]`` of all m live matrices at once. Rotations run in row-major
    upper-triangle order; a matrix whose pivot is an exact zero (either
    sign) sits that rotation out. Before each sweep, the matrices whose
    off-diagonal Frobenius norm is <= 1e-13 are written out and the rest
    compacted to the front of the buffer; after 100 sweeps all are written
    out. So each matrix sees exactly the rotation sequence it would see
    alone: results do not depend on what else shares the stack. 2x2
    matrices are solved in closed form, so e.g. a correlation pair has
    smallest eigenvalue exactly 1 - |c| on every code path.
    """
    A = np.asarray(mats, dtype=np.float64)
    if A.ndim != 3 or A.shape[1] != A.shape[2]:
        raise ValueError(f"expected an (n, k, k) stack, got shape {A.shape}")
    n, k = A.shape[0], A.shape[1]
    if not 2 <= k <= MAX_DIM:
        raise ValueError(f"matrix dimension {k} is outside [2, {MAX_DIM}]")
    if k == 2:
        return _eigh2(A, vectors)
    work = np.empty((2 * k if vectors else k, k, n))
    work[:k] = A.transpose(1, 2, 0)
    if vectors:
        work[k:] = np.eye(k)[:, :, None]
    values = np.empty(n)
    V = np.empty((n, k)) if vectors else None

    L, live = work, np.arange(n)
    iu, ju = np.triu_indices(k, 1)
    diag = np.arange(k)
    squares = np.empty((n, iu.size))
    # off-diagonal Frobenius norm counts both triangles
    half_tol = 0.5 * _OFF_TOL * _OFF_TOL
    for sweep in range(_SWEEP_LIMIT + 1):
        # the sum of squares runs over a contiguous row per matrix, as it
        # would for that matrix alone; filled pair by pair, not via a copy
        upper = squares[: live.size]
        for j in range(iu.size):
            upper[:, j] = L[iu[j], ju[j]]
        going = (np.einsum("nm,nm->n", upper, upper) > half_tol) & (sweep < _SWEEP_LIMIT)
        if not going.all():
            # write out each matrix's first smallest diagonal entry (equal
            # minima, 0.0 and -0.0 too, go to the lowest index) and its
            # vector column; then compact row by row: no temporary as large
            # as the stack
            done = np.flatnonzero(~going)
            first = np.argmin(L[diag, diag][:, done], axis=0)
            values[live[done]] = L[first, first, done]
            if vectors:
                V[live[done]] = L[k:, first, done].T
            keep = np.flatnonzero(going)
            for r in range(len(work)):
                work[r, :, : keep.size] = L[r][:, keep]
            L, live = work[:, :, : keep.size], live[keep]
        if live.size == 0:
            break
        _sweep(L, k)
    return values, None if V is None else _orient(V)


def _sweep(L: NDArray[np.float64], k: int) -> None:
    """One cyclic Jacobi sweep, in place, over a (rows, k, m) stack whose first
    k rows hold the matrices."""
    # tau * tau overflows to inf for a pivot below about 1e-154 times the
    # diagonal gap, which makes t exactly 0: the rotation's limit, not an error
    with np.errstate(over="ignore"):
        for p in range(k - 1):
            for q in range(p + 1, k):
                nonzero = L[p, q] != 0.0
                # basic slices while every live pivot is nonzero, else the live
                # matrices with one
                sel = slice(None) if nonzero.all() else np.flatnonzero(nonzero)
                a_pq = L[p, q][sel]
                if a_pq.size == 0:
                    continue
                tau = (L[q, q][sel] - L[p, p][sel]) / (2.0 * a_pq)
                t = np.where(tau >= 0.0, 1.0, -1.0) / (np.abs(tau) + np.sqrt(tau * tau + 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rp, rq = L[p][:, sel], L[q][:, sel]
                L[p][:, sel], L[q][:, sel] = c * rp - s * rq, s * rp + c * rq
                cp, cq = L[:, p][:, sel], L[:, q][:, sel]
                L[:, p][:, sel], L[:, q][:, sel] = c * cp - s * cq, s * cp + c * cq
                L[p, q][sel] = 0.0
                L[q, p][sel] = 0.0


def _orient(V: NDArray[np.float64]) -> NDArray[np.float64]:
    """Flip each (n, k) eigenvector row so its first component above ORIENT_EPS in magnitude is positive."""
    lead = V[np.arange(len(V)), np.argmax(np.abs(V) > ORIENT_EPS, axis=1)]
    return V * np.where(lead < 0.0, -1.0, 1.0)[:, None]


def _eigh2(A: NDArray[np.float64], vectors: bool) -> tuple[NDArray[np.float64], NDArray[np.float64] | None]:
    """Closed-form smallest eigenpair of a 2x2 symmetric stack."""
    a = A[:, 0, 0]
    b = A[:, 0, 1]
    d = A[:, 1, 1]
    lam0 = (a + d) / 2.0 - np.hypot((a - d) / 2.0, b)
    if not vectors:
        return lam0, None
    # null directions of (A - lam0 I) from either row; take the better-conditioned
    u1 = np.stack([b, lam0 - a], axis=1)
    u2 = np.stack([lam0 - d, b], axis=1)
    n1 = (u1 * u1).sum(axis=1)
    n2 = (u2 * u2).sum(axis=1)
    v0 = np.where((n1 >= n2)[:, None], u1, u2)
    norm = np.sqrt((v0 * v0).sum(axis=1))
    diagonal = norm == 0.0  # b = 0 and a = d: any basis works, keep axes
    safe = np.where(diagonal, 1.0, norm)
    v0 = np.where(diagonal[:, None], np.array([1.0, 0.0]), v0 / safe[:, None])
    return lam0, _orient(v0)


def _cholesky_stack(M: NDArray[np.float64], shift: float | NDArray[np.float64] = 0.0) -> tuple[NDArray[np.float64], NDArray[np.intp], NDArray[np.float64]]:
    """Cholesky factors of a symmetric (B, k, k) stack plus shift * I (shift a
    scalar or one per matrix), the index of each matrix's first pivot at or
    below 1e-12 (-1 if none) and that pivot (NaN if none). A failed matrix's
    columns from that pivot on are zero. Each matrix takes the BLAS calls it
    would take alone: its bits do not depend on the stack.

    Rounding (Higham, Accuracy and Stability of Numerical Algorithms, ch. 10)
    is about 2k(k+1) eps (eps = 2^-53) for a correlation matrix, at most
    1e-12 at k = 64. So if M - c * I factors, the smallest eigenvalue of M is
    above c up to that rounding; if not, it is below c + 1e-12 up to it."""
    B, k = M.shape[:2]
    L = np.zeros_like(M)
    index, failed = np.full(B, -1, dtype=np.intp), np.full(B, np.nan)
    for j in range(k):
        row = L[:, j, :j, None]
        pivot = M[:, j, j] + shift - (row.transpose(0, 2, 1) @ row)[:, 0, 0]
        fails = (index < 0) & (pivot <= 1e-12)
        index[fails], failed[fails] = j, pivot[fails]
        ok = index < 0
        d = np.sqrt(np.where(ok, pivot, 1.0))
        L[:, j, j] = np.where(ok, d, 0.0)
        col = (M[:, j + 1 :, j] - (L[:, j + 1 :, :j] @ row)[:, :, 0]) / d[:, None]
        L[:, j + 1 :, j] = np.where(ok[:, None], col, 0.0)
    return L, index, failed

