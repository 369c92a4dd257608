"""Dense symmetric kernels for small matrices: eigen-decomposition and Cholesky.

The eigensolver is a cyclic Jacobi sweep with a fixed row-major rotation
order. Matrices here are correlation submatrices, rarely beyond a dozen
variables, where Jacobi is accurate to machine precision and, crucially,
bit-reproducible: identical input bits give identical output bits whatever
the batch, which deterministic result files rely on.

``eigh_many`` diagonalizes a whole stack of same-sized matrices in one
vectorized pass and is the only eigensolver, capped at MAX_DIM = 64;
scalar measures solve a stack of one through it, so there is a single code
path to trust. ``_cholesky_stack``, of any size, is the one PSD certificate.
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


class NotPositiveDefiniteError(ValueError):
    """Raised by :func:`cholesky` when a pivot is not positive.

    ``pivot_index`` is the zero-based row whose pivot failed, ``pivot`` the
    offending value.
    """

    def __init__(self, pivot_index: int, pivot: float):
        super().__init__(
            f"matrix is not positive definite: pivot {pivot_index} is {pivot:.6e} (<= 1e-12)"
        )
        self.pivot_index = pivot_index
        self.pivot = pivot


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
    """Jacobi-diagonalize a stack of symmetric matrices in one vectorized pass.

    Parameters
    ----------
    mats : (n, k, k) array
        Stack of symmetric matrices, k <= 64. Symmetry is trusted, not checked;
        callers validate (see ``_as_square``).
    vectors : bool
        When false, skip eigenvector accumulation (about twice as fast). The
        eigenvectors build up in k identity rows below each matrix, turned by
        the same column rotations.

    Returns
    -------
    values : (n, k) array, each row ascending
    vectors : (n, k, k) array or None
        Column ``[:, :, i]`` pairs with ``values[:, i]``, canonically oriented.

    Rotations run in row-major upper-triangle order until a matrix's
    off-diagonal Frobenius norm is <= 1e-13 (or 100 sweeps). A matrix that
    converges drops out of later sweeps, so each matrix sees exactly the
    rotation sequence it would see alone: results do not depend on what else
    shares the stack. 2x2 matrices are solved in closed form, so e.g. a
    correlation pair has eigenvalues exactly 1 -+ |c| on every code path.
    """
    A = np.asarray(mats, dtype=np.float64)
    if A.ndim != 3 or A.shape[1] != A.shape[2]:
        raise ValueError(f"expected an (n, k, k) stack, got shape {A.shape}")
    n, k = A.shape[0], A.shape[1]
    if k > MAX_DIM:
        raise ValueError(f"matrix dimension {k} exceeds the {MAX_DIM} cap")
    if k == 2 and n > 0:
        return _eigh2(A, vectors)
    A = np.concatenate((A, np.broadcast_to(np.eye(k), (n, k, k))), axis=1) if vectors else np.array(A)

    if k >= 2 and n > 0:
        iu, ju = np.triu_indices(k, 1)
        # off-diagonal Frobenius norm counts both triangles
        half_tol = 0.5 * _OFF_TOL * _OFF_TOL
        for _ in range(_SWEEP_LIMIT):
            upper = A[:, iu, ju]
            live = np.nonzero(np.einsum("nm,nm->n", upper, upper) > half_tol)[0]
            if live.size == 0:
                break
            for p in range(k - 1):
                for q in range(p + 1, k):
                    apq = A[live, p, q]
                    act = live[apq != 0.0]
                    if act.size == 0:
                        continue
                    a_pq = A[act, p, q]
                    tau = (A[act, q, q] - A[act, p, p]) / (2.0 * a_pq)
                    t = np.where(tau >= 0.0, 1.0, -1.0) / (np.abs(tau) + np.sqrt(tau * tau + 1.0))
                    c = (1.0 / np.sqrt(t * t + 1.0))[:, None]
                    s = (t[:, None]) * c
                    rp = A[act, p, :]
                    rq = A[act, q, :]
                    A[act, p, :] = c * rp - s * rq
                    A[act, q, :] = s * rp + c * rq
                    cp = A[act, :, p]
                    cq = A[act, :, q]
                    A[act, :, p] = c * cp - s * cq
                    A[act, :, q] = s * cp + c * cq
                    A[act, p, q] = 0.0
                    A[act, q, p] = 0.0

    diag = np.arange(k)
    values = A[:, diag, diag]
    order = np.argsort(values, axis=1, kind="stable")
    values = np.take_along_axis(values, order, axis=1)
    if not vectors:
        return values, None
    return values, _orient(np.take_along_axis(A[:, k:, :], order[:, None, :], axis=2))


def _orient(V: NDArray[np.float64]) -> NDArray[np.float64]:
    """Flip each eigenvector column so its first component above ORIENT_EPS in magnitude is positive."""
    first = np.argmax(np.abs(V) > ORIENT_EPS, axis=1)  # (n, k) row index per column
    lead = np.take_along_axis(V, first[:, None, :], axis=1)[:, 0, :]
    return V * np.where(lead < 0.0, -1.0, 1.0)[:, None, :]


def _eigh2(A: NDArray[np.float64], vectors: bool) -> tuple[NDArray[np.float64], NDArray[np.float64] | None]:
    """Closed-form eigen-decomposition of a 2x2 symmetric stack."""
    a = A[:, 0, 0]
    b = A[:, 0, 1]
    d = A[:, 1, 1]
    mid = (a + d) / 2.0
    rad = np.hypot((a - d) / 2.0, b)
    values = np.stack([mid - rad, mid + rad], axis=1)
    if not vectors:
        return values, None
    lam0 = values[:, 0]
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
    V = np.empty_like(A)
    V[:, :, 0] = v0
    V[:, 0, 1] = -v0[:, 1]
    V[:, 1, 1] = v0[:, 0]
    return values, _orient(V)


def _cholesky_stack(M: NDArray[np.float64], shift: float = 0.0) -> tuple[NDArray[np.float64], NDArray[np.intp], NDArray[np.float64]]:
    """Cholesky factors of a symmetric (B, k, k) stack plus shift * I, the index
    of each matrix's first pivot at or below 1e-12 (-1 if none) and that pivot
    (NaN if none). A failed matrix's columns from that pivot on are zero. Each
    matrix takes the BLAS calls it would take alone: its bits do not depend on
    the stack."""
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


def cholesky(A) -> NDArray[np.float64]:
    """Lower-triangular L with A = L L^T, for strictly positive definite A;
    raises :class:`NotPositiveDefiniteError` at the first pivot <= 1e-12."""
    L, index, pivot = _cholesky_stack(_as_square(A)[None])
    if index[0] >= 0:
        raise NotPositiveDefiniteError(int(index[0]), float(pivot[0]))
    return L[0]
