"""Eigensolver and Cholesky tests, cross-checked against numpy.linalg."""

import warnings

import numpy as np
import pytest

from multipoles import linalg
from multipoles.linalg import NotPositiveDefiniteError, cholesky, eigh_many
from multipoles.measures import lvnlc


def random_symmetric(rng, n, k):
    a = rng.normal(size=(n, k, k))
    return (a + a.transpose(0, 2, 1)) / 2.0


def random_correlation(rng, n, k):
    g = rng.normal(size=(n, k, k + 2))
    cov = g @ g.transpose(0, 2, 1)
    d = np.sqrt(np.diagonal(cov, axis1=1, axis2=2))
    return cov / (d[:, :, None] * d[:, None, :])


def test_values_match_numpy_random_stack():
    rng = np.random.default_rng(11)
    for k in (2, 3, 4, 5, 8, 13):
        mats = random_symmetric(rng, 40, k)
        vals, _ = eigh_many(mats)
        ref = np.linalg.eigvalsh(mats)
        assert np.max(np.abs(vals - ref)) < 1e-9


def test_vectors_reconstruct_and_are_orthonormal():
    rng = np.random.default_rng(12)
    mats = random_symmetric(rng, 30, 6)
    vals, vecs = eigh_many(mats, vectors=True)
    for a, w, v in zip(mats, vals, vecs):
        assert np.max(np.abs(a - (v * w) @ v.T)) < 1e-9
        assert np.max(np.abs(v.T @ v - np.eye(6))) < 1e-9


def test_values_sorted_ascending():
    rng = np.random.default_rng(13)
    vals, _ = eigh_many(random_symmetric(rng, 25, 7))
    assert np.all(np.diff(vals, axis=1) >= 0)


def test_two_by_two_closed_form_matches_numpy():
    rng = np.random.default_rng(14)
    mats = random_symmetric(rng, 500, 2)
    # include degenerate shapes the rotation path never exercises
    extra = np.array(
        [
            [[1.0, 0.0], [0.0, 1.0]],
            [[2.0, 0.0], [0.0, -3.0]],
            [[1.0, -1.0], [-1.0, 1.0]],
            [[5.0, 1e-18], [1e-18, 5.0]],
        ]
    )
    mats = np.concatenate([mats, extra])
    vals, vecs = eigh_many(mats, vectors=True)
    ref = np.linalg.eigvalsh(mats)
    assert np.max(np.abs(vals - ref)) < 1e-12
    for a, w, v in zip(mats, vals, vecs):
        assert np.max(np.abs(a - (v * w) @ v.T)) < 1e-12
        assert np.max(np.abs(v.T @ v - np.eye(2))) < 1e-12


def test_correlation_pair_eigenvalues_exact():
    # a 2x2 correlation matrix has eigenvalues exactly 1 -+ |c|
    for c in (-1.0, -0.73, -0.2, 0.0, 0.31, 0.999):
        a = np.array([[1.0, c], [c, 1.0]])
        vals, vecs = eigh_many(a[None], vectors=True)
        assert vals[0, 0] == 1.0 - abs(c)
        assert vals[0, 1] == 1.0 + abs(c)
        assert np.max(np.abs(vecs[0].T @ vecs[0] - np.eye(2))) < 1e-12


def test_equicorrelated_triple_spectrum():
    r = -0.4
    a = np.full((3, 3), r)
    np.fill_diagonal(a, 1.0)
    vals, _ = eigh_many(a[None])
    assert np.allclose(vals[0], [1.0 + 2 * r, 1.0 - r, 1.0 - r], atol=1e-12)


def test_eigen_symmetric_and_min_eigenpair():
    rng = np.random.default_rng(15)
    a = random_symmetric(rng, 1, 5)[0]
    vals, vecs = eigh_many(a[None], vectors=True)
    ref_vals, _ = np.linalg.eigh(a)
    assert np.allclose(vals[0], ref_vals, atol=1e-9)
    for w, v in zip(vals[0], vecs[0].T):
        assert np.allclose(a @ v, w * v, atol=1e-8)
    lam, vec = lvnlc(a, range(5))
    assert abs(lam - ref_vals[0]) < 1e-9
    assert np.allclose(a @ vec, lam * vec, atol=1e-8)


def test_identity_spectrum():
    vals, _ = eigh_many(np.eye(3)[None])
    assert np.array_equal(vals[0], [1.0, 1.0, 1.0])


def test_min_eigenpair_anticorrelated_pair():
    a = np.array([[1.0, -1.0], [-1.0, 1.0]])
    vals, vecs = eigh_many(a[None], vectors=True)
    assert abs(vals[0, 0]) < 1e-12
    assert np.allclose(vecs[0, :, 0], [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12)


def test_min_eigenpair_identity():
    assert lvnlc(np.eye(4), range(4))[0] == 1.0


def test_eigenvector_orientation_is_canonical():
    # first component of nontrivial magnitude is positive
    rng = np.random.default_rng(16)
    _, vecs = eigh_many(random_symmetric(rng, 40, 4), vectors=True)
    for v in vecs:
        for col in v.T:
            lead = col[np.abs(col) > 1e-10][0]
            assert lead > 0


def test_batch_composition_does_not_affect_results():
    # convergence masking is per matrix: the same matrix solved alone or
    # alongside unrelated ones must give bit-identical output
    rng = np.random.default_rng(17)
    mats = random_correlation(rng, 12, 5)
    alone_vals = []
    alone_vecs = []
    for m in mats:
        w, v = eigh_many(m[None], vectors=True)
        alone_vals.append(w[0])
        alone_vecs.append(v[0])
    batch_vals, batch_vecs = eigh_many(mats, vectors=True)
    assert np.array_equal(np.array(alone_vals), batch_vals)
    assert np.array_equal(np.array(alone_vecs), batch_vecs)


def test_sign_diagonal_conjugation_preserves_spectrum():
    rng = np.random.default_rng(18)
    mats = random_correlation(rng, 20, 6)
    signs = rng.choice([-1.0, 1.0], size=(20, 6))
    flipped = mats * signs[:, :, None] * signs[:, None, :]
    vals, _ = eigh_many(mats)
    vals_f, _ = eigh_many(flipped)
    assert np.max(np.abs(vals - vals_f)) < 1e-9


def test_interlacing_under_deletion():
    rng = np.random.default_rng(19)
    mats = random_correlation(rng, 15, 6)
    vals, _ = eigh_many(mats)
    for a, w in zip(mats, vals):
        keep = [0, 1, 2, 3, 4]
        sub = a[np.ix_(keep, keep)]
        wsub, _ = eigh_many(sub[None])
        assert wsub[0, 0] >= w[0] - 1e-9


def test_trace_preserved():
    rng = np.random.default_rng(20)
    mats = random_symmetric(rng, 30, 5)
    vals, _ = eigh_many(mats)
    assert np.allclose(vals.sum(axis=1), np.trace(mats, axis1=1, axis2=2), atol=1e-9)


def jacobi_with_separate_vectors(mats, vectors):
    """The Jacobi loop with the eigenvectors in their own (n, k, k) array V,
    rotated column by column after the matrix: the layout eigh_many had
    before it stacked them below the matrix."""
    A = np.array(mats, dtype=np.float64)
    n, k = A.shape[0], A.shape[1]
    if k == 2:
        return linalg._eigh2(A, vectors)
    V = np.tile(np.eye(k), (n, 1, 1)) if vectors else None
    if k >= 2:
        iu, ju = np.triu_indices(k, 1)
        half_tol = 0.5 * linalg._OFF_TOL * linalg._OFF_TOL
        for _ in range(linalg._SWEEP_LIMIT):
            upper = A[:, iu, ju]
            live = np.nonzero(np.einsum("nm,nm->n", upper, upper) > half_tol)[0]
            if live.size == 0:
                break
            for p in range(k - 1):
                for q in range(p + 1, k):
                    act = live[A[live, p, q] != 0.0]
                    if act.size == 0:
                        continue
                    a_pq = A[act, p, q]
                    tau = (A[act, q, q] - A[act, p, p]) / (2.0 * a_pq)
                    t = np.where(tau >= 0.0, 1.0, -1.0) / (np.abs(tau) + np.sqrt(tau * tau + 1.0))
                    c = (1.0 / np.sqrt(t * t + 1.0))[:, None]
                    s = (t[:, None]) * c
                    rp, rq = A[act, p, :], A[act, q, :]
                    A[act, p, :], A[act, q, :] = c * rp - s * rq, s * rp + c * rq
                    cp, cq = A[act, :, p], A[act, :, q]
                    A[act, :, p], A[act, :, q] = c * cp - s * cq, s * cp + c * cq
                    A[act, p, q] = A[act, q, p] = 0.0
                    if V is not None:
                        vp, vq = V[act, :, p], V[act, :, q]
                        V[act, :, p], V[act, :, q] = c * vp - s * vq, s * vp + c * vq
    diag = np.arange(k)
    order = np.argsort(A[:, diag, diag], axis=1, kind="stable")
    values = np.take_along_axis(A[:, diag, diag], order, axis=1)
    if V is not None:
        V = linalg._orient(np.take_along_axis(V, order[:, None, :], axis=2))
    return values, V


@pytest.mark.parametrize("k", range(1, 13))
def test_stacked_vectors_match_a_separate_vector_array_bit_for_bit(k):
    # rounded entries, rows and columns of exact zeros (zero pivots are
    # skipped) and already diagonal matrices that converge before any sweep
    rng = np.random.default_rng(30 + k)
    mats = np.concatenate([
        random_symmetric(rng, 12, k),
        np.round(random_symmetric(rng, 12, k), 1),
        random_correlation(rng, 6, k),
        np.tile(np.diag(rng.normal(size=k)), (4, 1, 1)),
    ])
    mats[12:18, 0, :] = mats[12:18, :, 0] = 0.0
    mats[24:27, k // 2, :] = mats[24:27, :, k // 2] = 0.0
    mats = rng.permutation(mats)
    for vectors in (True, False):
        vals, vecs = eigh_many(mats, vectors)
        ref_vals, ref_vecs = jacobi_with_separate_vectors(mats, vectors)
        assert vals.tobytes() == ref_vals.tobytes()
        assert (vecs is None and ref_vecs is None) or vecs.tobytes() == ref_vecs.tobytes()


def test_eigh_many_rejects_bad_shapes():
    with pytest.raises(ValueError):
        eigh_many(np.zeros((3, 4)))
    with pytest.raises(ValueError):
        eigh_many(np.zeros((2, 3, 4)))
    with pytest.raises(ValueError):
        eigh_many(np.zeros((1, 65, 65)))


def test_eigh_many_empty_stack():
    vals, vecs = eigh_many(np.zeros((0, 4, 4)), vectors=True)
    assert vals.shape == (0, 4)
    assert vecs.shape == (0, 4, 4)


def test_cholesky_matches_numpy():
    rng = np.random.default_rng(21)
    a = random_correlation(rng, 1, 5)[0]
    ell = cholesky(a)
    assert np.max(np.abs(ell @ ell.T - a)) < 1e-10
    assert np.allclose(ell, np.tril(ell))


def test_cholesky_has_no_size_cap():
    # only eigh_many is capped at 64; the PSD certificate takes any size
    rng = np.random.default_rng(22)
    g = rng.normal(size=(100, 300))
    a = g @ g.T / 300.0
    ell = cholesky(a)
    assert ell.shape == (100, 100)
    assert np.max(np.abs(ell @ ell.T - a)) < 1e-10
    assert np.array_equal(ell, np.tril(ell))


def test_cholesky_two_by_two_closed_form():
    a = np.array([[1.0, 0.5], [0.5, 1.0]])
    ell = cholesky(a)
    assert np.allclose(ell, [[1.0, 0.0], [0.5, np.sqrt(0.75)]], atol=1e-12)


def test_cholesky_identity():
    assert np.array_equal(cholesky(np.eye(3)), np.eye(3))


def test_cholesky_rejects_singular_equicorrelated():
    a = np.full((3, 3), -0.5)
    np.fill_diagonal(a, 1.0)  # lambda_min = 1 + 2r = 0
    with pytest.raises(NotPositiveDefiniteError):
        cholesky(a)


def test_cholesky_rejects_indefinite():
    a = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(NotPositiveDefiniteError) as exc:
        cholesky(a)
    assert exc.value.pivot_index == 1


def test_cholesky_rejects_singular():
    a = np.ones((3, 3))
    with pytest.raises(NotPositiveDefiniteError):
        cholesky(a)


def one_matrix_cholesky(a):
    """The one-matrix Cholesky loop that the stacked factorization must reproduce bit for bit."""
    m = (a + a.T) / 2.0
    k = m.shape[0]
    ell = np.zeros_like(m)
    for j in range(k):
        pivot = m[j, j] - float(np.dot(ell[j, :j], ell[j, :j]))
        if pivot <= 1e-12:
            return None
        ell[j, j] = np.sqrt(pivot)
        if j + 1 < k:
            ell[j + 1 :, j] = (m[j + 1 :, j] - ell[j + 1 :, :j] @ ell[j, :j]) / ell[j, j]
    return ell


@pytest.mark.parametrize("k", [*range(2, 13), 64, 100])
def test_cholesky_bits_match_the_one_matrix_loop(k):
    rng = np.random.default_rng(1000 + k)
    for _ in range(20 if k < 64 else 3):
        a = np.corrcoef(rng.normal(size=(k, 2 * k + 3)))
        assert cholesky(a).tobytes() == one_matrix_cholesky(a).tobytes()


@pytest.mark.parametrize("k", [3, 7, 20])
def test_cholesky_stack_does_not_depend_on_the_stack(k):
    rng = np.random.default_rng(30 + k)
    mats = random_correlation(rng, 200, k)
    mats = (mats + mats.transpose(0, 2, 1)) / 2.0
    mats[::3] *= -1.0  # every third fails at pivot 0
    ell, index, pivot = linalg._cholesky_stack(mats)
    for i, m in enumerate(mats):
        alone = linalg._cholesky_stack(m[None])
        assert ell[i].tobytes() == alone[0][0].tobytes()
        assert index[i] == alone[1][0] and np.array_equal(pivot[i], alone[2][0], equal_nan=True)
    assert np.all(index[::3] == 0) and np.all(index[1::3] == -1)


def test_cholesky_stack_reports_each_failure_without_warnings():
    good = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]])
    eq = np.full((3, 3), -0.5)
    np.fill_diagonal(eq, 1.0)  # pivot 2 is 0 up to rounding
    indefinite = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])  # pivot 1 is -3
    huge = np.full((70, 70), -0.5)
    np.fill_diagonal(huge, 1.0)
    mats = np.stack([good, eq, indefinite, -good])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ell, index, pivot = linalg._cholesky_stack(mats)
        big = linalg._cholesky_stack(huge[None])
    assert index.tolist() == [-1, 2, 1, 0]
    assert np.isnan(pivot[0]) and abs(pivot[1]) < 1e-15 and pivot[2] == -3.0 and pivot[3] == -1.0
    assert ell[0].tobytes() == cholesky(good).tobytes()
    # a failed matrix keeps its columns before the failing pivot and zeros from it on
    assert ell[1][:2, :2].tobytes() == cholesky(eq[:2, :2]).tobytes()
    assert not ell[1][:, 2:].any() and not ell[2][:, 1:].any() and not ell[3].any()
    assert ell[2][:, 0].tolist() == [1.0, 2.0, 0.0]
    assert big[1][0] == 2 and np.all(np.isfinite(big[0]))


def test_is_psd():
    # PSD within 1e-10 is a smallest eigenvalue >= -1e-10; the sampler's Cholesky test agrees with it
    # except within about 1e-12 of the boundary
    a = np.full((3, 3), -0.9)
    np.fill_diagonal(a, 1.0)
    b = np.full((3, 3), -0.5)
    np.fill_diagonal(b, 1.0)
    vals, _ = eigh_many(np.stack([np.eye(3), np.ones((3, 3)), a, b]))
    lam = vals[:, 0]
    assert lam[0] == 1.0
    assert lam[1] >= -1e-10  # rank one, eigenvalues {0, 0, 3}
    assert lam[2] == pytest.approx(-0.8)
    assert lam[3] >= -1e-10  # lambda_min = 0
