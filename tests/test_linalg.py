"""Eigensolver and Cholesky tests, cross-checked against numpy.linalg."""

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


def test_is_psd():
    # PSD within 1e-10 is a smallest eigenvalue >= -1e-10, as the sampler tests it
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
