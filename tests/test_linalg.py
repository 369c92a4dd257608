"""Eigensolver and Cholesky tests, cross-checked against numpy.linalg."""

import tracemalloc
import warnings

import numpy as np
import pytest

from multipoles import linalg
from multipoles.linalg import eigh_many
from multipoles.measures import lvnlc


def random_symmetric(rng, n, k):
    a = rng.normal(size=(n, k, k))
    return (a + a.transpose(0, 2, 1)) / 2.0


def random_correlation(rng, n, k):
    g = rng.normal(size=(n, k, k + 2))
    cov = g @ g.transpose(0, 2, 1)
    d = np.sqrt(np.diagonal(cov, axis1=1, axis2=2))
    return cov / (d[:, :, None] * d[:, None, :])


def mixed_convergence(rng, n, k):
    """Diagonal matrices plus symmetric noise scaled from 1e-15 to 1: some
    start converged and the rest converge over different numbers of sweeps,
    so the live set shrinks more than once."""
    scales = np.logspace(-15, 0, n)[rng.permutation(n)]
    diag = rng.normal(size=(n, k))[:, :, None] * np.eye(k)
    return diag + scales[:, None, None] * random_symmetric(rng, n, k)


def block_diagonal(rng, n, k):
    """Two random symmetric blocks: the pivots between them stay exact zeros."""
    mats = random_symmetric(rng, n, k)
    mats[:, : k // 2, k // 2 :] = mats[:, k // 2 :, : k // 2] = 0.0
    return mats


def assert_smallest_pairs(mats, vals, vecs, tol):
    """vals is numpy's smallest eigenvalue of each matrix, and each row of vecs
    a unit vector v with |A v - lambda v| below tol."""
    assert np.max(np.abs(vals - np.linalg.eigvalsh(mats)[:, 0])) < tol
    assert np.max(np.abs(np.einsum("nij,nj->ni", mats, vecs) - vals[:, None] * vecs)) < tol
    assert np.max(np.abs(np.linalg.norm(vecs, axis=1) - 1.0)) < tol


def test_values_match_numpy_random_stack():
    rng = np.random.default_rng(11)
    for k in (2, 3, 4, 5, 8, 13):
        mats = random_symmetric(rng, 40, k)
        vals, _ = eigh_many(mats)
        assert vals.shape == (40,)
        assert np.max(np.abs(vals - np.linalg.eigvalsh(mats)[:, 0])) < 1e-9


def test_vectors_reconstruct_and_are_orthonormal():
    rng = np.random.default_rng(12)
    mats = random_symmetric(rng, 30, 6)
    vals, vecs = eigh_many(mats, vectors=True)
    assert vecs.shape == (30, 6)
    assert_smallest_pairs(mats, vals, vecs, 1e-9)


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
    assert_smallest_pairs(mats, vals, vecs, 1e-12)


def test_correlation_pair_eigenvalues_exact():
    # a 2x2 correlation matrix has eigenvalues exactly 1 -+ |c|
    for c in (-1.0, -0.73, -0.2, 0.0, 0.31, 0.999):
        a = np.array([[1.0, c], [c, 1.0]])
        vals, vecs = eigh_many(a[None], vectors=True)
        assert vals[0] == 1.0 - abs(c)
        assert abs(np.linalg.norm(vecs[0]) - 1.0) < 1e-12


def test_equicorrelated_triple_spectrum():
    r = -0.4
    a = np.full((3, 3), r)
    np.fill_diagonal(a, 1.0)
    vals, _ = eigh_many(a[None])
    assert abs(vals[0] - (1.0 + 2 * r)) < 1e-12


def test_eigen_symmetric_and_min_eigenpair():
    rng = np.random.default_rng(15)
    a = random_symmetric(rng, 1, 5)[0]
    vals, vecs = eigh_many(a[None], vectors=True)
    ref_vals = np.linalg.eigvalsh(a)
    assert_smallest_pairs(a[None], vals, vecs, 1e-8)
    lam, vec = lvnlc(a, range(5))
    assert abs(lam - ref_vals[0]) < 1e-9
    assert np.allclose(a @ vec, lam * vec, atol=1e-8)


def test_identity_spectrum():
    vals, _ = eigh_many(np.eye(3)[None])
    assert vals.tolist() == [1.0]


def test_min_eigenpair_anticorrelated_pair():
    a = np.array([[1.0, -1.0], [-1.0, 1.0]])
    vals, vecs = eigh_many(a[None], vectors=True)
    assert abs(vals[0]) < 1e-12
    assert np.allclose(vecs[0], [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12)


def test_min_eigenpair_identity():
    assert lvnlc(np.eye(4), range(4))[0] == 1.0


def test_eigenvector_orientation_is_canonical():
    # first component of nontrivial magnitude is positive
    rng = np.random.default_rng(16)
    _, vecs = eigh_many(random_symmetric(rng, 40, 4), vectors=True)
    for v in vecs:
        assert v[np.abs(v) > 1e-10][0] > 0


def test_batch_composition_does_not_affect_results():
    # convergence masking is per matrix: the same matrix solved alone or
    # alongside unrelated ones must give bit-identical output
    rng = np.random.default_rng(17)
    mats = np.concatenate([random_correlation(rng, 12, 5), mixed_convergence(rng, 12, 5), block_diagonal(rng, 4, 5)])
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
        assert wsub[0] >= w - 1e-9


def jacobi_with_separate_vectors(mats, vectors):
    """The Jacobi loop with the eigenvectors in their own (n, k, k) array V,
    rotated column by column after the matrix, then the whole spectrum
    sorted stably and every column oriented: the layout and write-out
    eigh_many had before it stacked them below the matrix and kept only the
    smallest pair. Returns that pair, column 0 of the sort."""
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
        V = linalg._orient(np.take_along_axis(V, order[:, None, :], axis=2)[:, :, 0])
    return values[:, 0], V


def assert_matches_the_reference(mats):
    for vectors in (True, False):
        vals, vecs = eigh_many(mats, vectors)
        with np.errstate(over="ignore"):  # tau * tau overflows on decoupled blocks
            ref_vals, ref_vecs = jacobi_with_separate_vectors(mats, vectors)
        assert vals.tobytes() == ref_vals.tobytes()
        assert (vecs is None and ref_vecs is None) or vecs.tobytes() == ref_vecs.tobytes()


@pytest.mark.parametrize("k", range(2, 13))
def test_stacked_vectors_match_a_separate_vector_array_bit_for_bit(k):
    # rounded entries, rows and columns of exact zeros, pivots and rows of -0.0
    # (zero pivots are skipped), block-diagonal matrices whose decoupled pairs give
    # zero pivots in only part of the stack, and a mix of already diagonal and
    # slowly converging matrices, so the live set shrinks over several sweeps
    rng = np.random.default_rng(30 + k)
    mats = np.concatenate([
        random_symmetric(rng, 12, k),
        np.round(random_symmetric(rng, 12, k), 1),
        random_correlation(rng, 6, k),
        np.tile(np.diag(rng.normal(size=k)), (4, 1, 1)),
        random_symmetric(rng, 6, k),
        block_diagonal(rng, 6, k),
        mixed_convergence(rng, 24, k),
    ])
    mats[12:18, 0, :] = mats[12:18, :, 0] = 0.0
    mats[24:27, k // 2, :] = mats[24:27, :, k // 2] = 0.0
    mats[34:40, 0, 1:] = mats[34:40, 1:, 0] = -0.0
    mats[37:40, k - 1, : k - 1] = mats[37:40, : k - 1, k - 1] = -0.0
    # a rotation with c=1, s=0 would flip the sign of this zero diagonal
    mats[46:52, k // 2, :] = mats[46:52, :, k // 2] = -0.0
    stacks = [rng.permutation(mats)]
    if k == 8:
        stacks.append(np.concatenate([random_symmetric(rng, 1000, k), random_correlation(rng, 1000, k)]))
    for stack in stacks:
        assert_matches_the_reference(stack)


def test_matrices_left_at_the_sweep_cap_match_the_reference_bit_for_bit(monkeypatch):
    # with the cap at two sweeps most random matrices are written out unconverged
    monkeypatch.setattr(linalg, "_SWEEP_LIMIT", 2)
    rng = np.random.default_rng(40)
    assert_matches_the_reference(np.concatenate([random_symmetric(rng, 20, 6), mixed_convergence(rng, 20, 6)]))


@pytest.mark.parametrize("k", [2, 3, 4, 7, 12])
def test_ties_pick_the_full_sorts_first_column_bit_for_bit(k):
    # identity matrices (every diagonal entry ties), equicorrelated r = 0.3
    # (lambda_min = 0.7 with multiplicity k - 1) and diagonals whose two
    # smallest entries are 0.0 and -0.0, in either order
    equi = np.full((k, k), 0.3)
    np.fill_diagonal(equi, 1.0)
    zeros = np.tile(np.eye(k), (4, 1, 1))
    zeros[0, [0, 1], [0, 1]] = 0.0, -0.0
    zeros[1, [0, 1], [0, 1]] = -0.0, 0.0
    zeros[2, [1, k - 1], [1, k - 1]] = -0.0, 0.0
    zeros[3, [1, k - 1], [1, k - 1]] = 0.0, -0.0
    assert_matches_the_reference(np.concatenate([np.tile(np.eye(k), (3, 1, 1)), np.tile(equi, (3, 1, 1)), zeros]))
    if k > 2:  # the closed form computes 0.0 - 0.0 = 0.0 for either zero
        assert np.signbit(eigh_many(zeros)[0]).tolist() == [False, True, True, False]


@pytest.mark.parametrize("k", range(2, 9))
def test_eigh_many_never_writes_its_input(k):
    # a stack of one made from a 2-d matrix, as the significance null passes it,
    # and a stack of five
    rng = np.random.default_rng(50 + k)
    for n in (1, 5):
        mats = random_correlation(rng, 1, k)[0][None] if n == 1 else random_symmetric(rng, n, k)
        before = mats.tobytes()
        for vectors in (True, False):
            eigh_many(mats, vectors)
            assert mats.tobytes() == before


def test_eigh_many_rejects_bad_shapes():
    with pytest.raises(ValueError):
        eigh_many(np.zeros((3, 4)))
    with pytest.raises(ValueError):
        eigh_many(np.zeros((2, 3, 4)))
    # sizes outside [2, 64] raise before any work: nothing the size of the stack is allocated
    for k, n in ((0, 100_000), (1, 100_000), (65, 30)):
        mats = np.zeros((n, k, k))
        for vectors in (True, False):
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match=f"matrix dimension {k} is outside \\[2, 64\\]"):
                    eigh_many(mats, vectors)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 64 * 1024


def test_eigh_many_empty_stack():
    for k in (2, 12):
        for vectors in (True, False):
            vals, vecs = eigh_many(np.zeros((0, k, k)), vectors)
            assert vals.shape == (0,)
            assert vecs.shape == (0, k) if vectors else vecs is None


def test_cholesky_matches_numpy():
    rng = np.random.default_rng(21)
    a = random_correlation(rng, 1, 5)[0]
    ell = linalg._cholesky_stack(linalg._as_square(a)[None])[0][0]
    assert np.max(np.abs(ell @ ell.T - a)) < 1e-10
    assert np.allclose(ell, np.tril(ell))


def test_cholesky_has_no_size_cap():
    # only eigh_many is capped at 64; the PSD certificate takes any size
    rng = np.random.default_rng(22)
    g = rng.normal(size=(100, 300))
    a = g @ g.T / 300.0
    ell = linalg._cholesky_stack(linalg._as_square(a)[None])[0][0]
    assert ell.shape == (100, 100)
    assert np.max(np.abs(ell @ ell.T - a)) < 1e-10
    assert np.array_equal(ell, np.tril(ell))


def test_cholesky_two_by_two_closed_form():
    a = np.array([[1.0, 0.5], [0.5, 1.0]])
    ell = linalg._cholesky_stack(a[None])[0][0]
    assert np.allclose(ell, [[1.0, 0.0], [0.5, np.sqrt(0.75)]], atol=1e-12)


def test_cholesky_identity():
    assert np.array_equal(linalg._cholesky_stack(np.eye(3)[None])[0][0], np.eye(3))


def test_cholesky_rejects_singular_equicorrelated():
    a = np.full((3, 3), -0.5)
    np.fill_diagonal(a, 1.0)  # lambda_min = 1 + 2r = 0
    assert linalg._cholesky_stack(a[None])[1][0] >= 0


def test_cholesky_rejects_indefinite():
    a = np.array([[1.0, 2.0], [2.0, 1.0]])
    index = linalg._cholesky_stack(a[None])[1]
    assert index[0] == 1


def test_cholesky_rejects_singular():
    a = np.ones((3, 3))
    assert linalg._cholesky_stack(a[None])[1][0] >= 0


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
        assert linalg._cholesky_stack(linalg._as_square(a)[None])[0][0].tobytes() == one_matrix_cholesky(a).tobytes()


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
    assert ell[0].tobytes() == one_matrix_cholesky(good).tobytes()
    # a failed matrix keeps its columns before the failing pivot and zeros from it on
    assert ell[1][:2, :2].tobytes() == one_matrix_cholesky(eq[:2, :2]).tobytes()
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
    lam, _ = eigh_many(np.stack([np.eye(3), np.ones((3, 3)), a, b]))
    assert lam[0] == 1.0
    assert lam[1] >= -1e-10  # rank one, eigenvalues {0, 0, 3}
    assert lam[2] == pytest.approx(-0.8)
    assert lam[3] >= -1e-10  # lambda_min = 0


def certificate_cases(k):
    """Seeded correlation matrices of size k, then three near-singular ones:
    equicorrelated at r = -1/(k-1) (smallest eigenvalue 0), block-diagonal
    with such a block, and exactly diagonal."""
    rng = np.random.default_rng(500 + k)
    mats = random_correlation(rng, 4, k)
    singular = np.full((k, k), -1.0 / (k - 1))
    np.fill_diagonal(singular, 1.0)
    blocks = np.eye(k)
    h = k // 2
    blocks[:h, :h] = random_correlation(rng, 1, h)[0]
    blocks[h:, h:] = singular[: k - h, : k - h] if k - h > 2 else np.array([[1.0, -1.0], [-1.0, 1.0]])
    mats = np.concatenate([mats, np.stack([singular, blocks, np.eye(k)])])
    mats = (mats + mats.transpose(0, 2, 1)) / 2.0
    mats[:, np.arange(k), np.arange(k)] = 1.0
    return mats


@pytest.mark.parametrize("k", [*range(3, 13), 64])
def test_shifted_cholesky_certifies_each_side_of_the_smallest_eigenvalue(k):
    # The lattice's sigma screen: if M - c*I factors, Jacobi's smallest
    # eigenvalue is above c - 1e-12; if it does not, below c + 1e-12. The
    # differences are exact near the tie, where c + 1e-12 itself would round.
    # 1e-10 away from the eigenvalue the factorization always decides.
    outcomes = set()
    mats = certificate_cases(k)
    for m, lam in zip(mats, eigh_many(mats, vectors=False)[0]):
        for offset in (1e-13, 1e-12, 1e-10, 1e-9):
            for c in (lam - offset, lam + offset):
                factors = linalg._cholesky_stack(m[None], -c)[1][0] < 0
                if factors:
                    assert c - lam < 1e-12
                else:
                    assert lam - c < 1e-12
                if offset >= 1e-10:
                    assert factors == (c < lam)
                outcomes.add(factors)
    assert outcomes == {True, False}
