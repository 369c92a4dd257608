"""Tests for dependence measures, canonical forms, and clique predicates."""

import itertools

import numpy as np
import pytest

from multipoles import measures
from multipoles.bounds import bound_report, check_bounds
from multipoles.measures import (
    CanonicalForm,
    MultipoleRecord,
    SignedSet,
    is_negative_clique,
    linear_dependence,
    linear_gain,
    lvnlc,
    negative_equivalent_witness,
    self_canceling_form,
)


def equicorrelated(k, r):
    a = np.full((k, k), r)
    np.fill_diagonal(a, 1.0)
    return a


def triple(r12, r13, r23):
    return np.array([[1.0, r12, r13], [r12, 1.0, r23], [r13, r23, 1.0]])


def random_correlation(rng, n, k):
    g = rng.normal(size=(n, k, k + 3))
    cov = g @ g.transpose(0, 2, 1)
    d = np.sqrt(np.diagonal(cov, axis1=1, axis2=2))
    return cov / (d[:, :, None] * d[:, None, :])


# ---------------------------------------------------------------- SignedSet


def test_signed_set_canonical_sorts_and_orients():
    s = SignedSet.canonical([5, 2, 9], [1, -1, 1])
    assert s.members == (2, 5, 9)
    assert s.signs == (1, -1, -1)  # global flip so the lowest member is +1
    assert s.size == 3
    # mirror assignment canonicalizes to the same set
    assert SignedSet.canonical([5, 2, 9], [-1, 1, -1]) == s


def test_signed_set_validation():
    with pytest.raises(ValueError):
        SignedSet(members=(1, 1, 2), signs=(1, 1, 1))
    with pytest.raises(ValueError):
        SignedSet(members=(3,), signs=(1,))
    with pytest.raises(ValueError):
        SignedSet(members=(1, 2), signs=(1, 2))
    with pytest.raises(ValueError):
        SignedSet(members=(1, 2), signs=(-1, 1))  # first sign must be +1


# ---------------------------------------------------------------- lvnlc


def test_lvnlc_anticorrelated_pair():
    var, w = lvnlc(triple(-1.0, 0.0, 0.0), [0, 1])
    assert abs(var) < 1e-12
    assert np.allclose(w, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12)


def test_lvnlc_orthogonal_subset():
    var, _ = lvnlc(np.eye(4), [0, 2, 3])
    assert var == 1.0


def test_lvnlc_equicorrelated_half():
    var, w = lvnlc(equicorrelated(3, -0.5), [0, 1, 2])
    assert abs(var) < 1e-12
    assert np.allclose(w, np.ones(3) / np.sqrt(3), atol=1e-9)


def test_lvnlc_rejects_small_subsets():
    with pytest.raises(ValueError):
        lvnlc(np.eye(3), [0])


# ---------------------------------------------------------------- dependence


def test_dependence_anchors():
    assert abs(linear_dependence(triple(-1.0, 0.0, 0.0), [0, 1]) - 1.0) < 1e-12
    assert linear_dependence(np.eye(3), [0, 1, 2]) == 0.0
    assert abs(linear_dependence(equicorrelated(3, -0.4), [0, 1, 2]) - 0.8) < 1e-9


def test_dependence_is_clamped():
    # tiny negative eigenvalues from roundoff must not leak out as sigma > 1
    rng = np.random.default_rng(30)
    for a in random_correlation(rng, 50, 4):
        s = linear_dependence(a, [0, 1, 2, 3])
        assert 0.0 <= s <= 1.0


# ---------------------------------------------------------------- gain


def test_gain_traffic_triple():
    # pairwise dependences 0.67, 0.42, 0.26; the triple reaches 0.92, so
    # adding the third variable buys 0.25 of dependence
    a = triple(-0.67, -0.42, -0.26)
    sigma = linear_dependence(a, [0, 1, 2])
    gain = linear_gain(a, [0, 1, 2])
    assert round(sigma, 2) == 0.92
    assert round(gain, 2) == 0.25
    assert abs(gain - (sigma - 0.67)) < 1e-12


def test_gain_equicorrelated_half():
    assert abs(linear_gain(equicorrelated(3, -0.5), [0, 1, 2]) - 0.5) < 1e-9


def test_gain_orthogonal_triple():
    assert abs(linear_gain(np.eye(3), [0, 1, 2])) < 1e-12


def test_gain_rejects_pairs():
    with pytest.raises(ValueError):
        linear_gain(np.eye(3), [0, 1])


def test_gain_eigengap_identity():
    rng = np.random.default_rng(31)
    for a in random_correlation(rng, 30, 5):
        sub = list(range(5))
        lam = np.linalg.eigvalsh(a)[0]
        mus = []
        for j in sub:
            keep = [i for i in sub if i != j]
            mus.append(np.linalg.eigvalsh(a[np.ix_(keep, keep)])[0])
        assert abs(linear_gain(a, sub) - (min(mus) - lam)) < 1e-9


# ---------------------------------------------------------------- canonical form


def test_self_canceling_flips_negative_weight_member():
    a = triple(-0.10, 0.70, 0.60)  # LVNLC ~ (0.54, 0.48, -0.69)
    cf = self_canceling_form(a, [0, 1, 2])
    assert isinstance(cf, CanonicalForm)
    assert cf.signed.signs == (1, 1, -1)
    assert all(w >= -1e-10 for w in cf.weights)
    assert abs(cf.rho_s - (-0.10)) < 1e-12
    assert abs(np.linalg.norm(cf.weights) - 1.0) < 1e-9


def test_self_canceling_all_positive_weights():
    a = equicorrelated(3, -0.5)
    cf = self_canceling_form(a, [0, 1, 2])
    assert cf.signed.signs == (1, 1, 1)
    assert abs(cf.rho_s - (-0.5)) < 1e-12


def test_self_canceling_is_orientation_stable():
    # conjugating the matrix by a sign flip of member 0 negates the stored
    # eigenvector orientation; the canonical form must track it consistently
    a = triple(-0.10, 0.70, 0.60)
    d = np.diag([-1.0, 1.0, 1.0])
    cf0 = self_canceling_form(a, [0, 1, 2])
    cf1 = self_canceling_form(d @ a @ d, [0, 1, 2])
    assert cf0.rho_s == pytest.approx(cf1.rho_s, abs=1e-12)
    assert np.allclose(cf0.weights, cf1.weights, atol=1e-9)
    adj0 = np.multiply.outer(cf0.signed.signs, cf0.signed.signs) * a
    adj1 = np.multiply.outer(cf1.signed.signs, cf1.signed.signs) * (d @ a @ d)
    assert np.allclose(adj0, adj1, atol=1e-12)


def test_self_canceling_preserves_spectrum():
    rng = np.random.default_rng(32)
    for a in random_correlation(rng, 20, 4):
        cf = self_canceling_form(a, [0, 1, 2, 3])
        adj = np.multiply.outer(cf.signed.signs, cf.signed.signs) * a
        assert np.allclose(
            np.linalg.eigvalsh(adj), np.linalg.eigvalsh(a), atol=1e-10
        )


# ---------------------------------------------------------------- predicates


def test_is_negative_clique_examples():
    allneg = equicorrelated(3, -0.3)
    assert is_negative_clique(allneg, SignedSet(members=(0, 1, 2), signs=(1, 1, 1)), 0.0)
    mixed = triple(-0.6, 0.5, 0.4)
    assert not is_negative_clique(mixed, SignedSet(members=(0, 1, 2), signs=(1, 1, 1)), 0.0)
    # flipping member 2 adjusts (r01, r02, r12) to (-0.6, -0.5, -0.4)
    assert is_negative_clique(mixed, SignedSet(members=(0, 1, 2), signs=(1, 1, -1)), 0.0)


def test_is_negative_clique_threshold_is_inclusive():
    a = equicorrelated(3, -0.3)
    s = SignedSet(members=(0, 1, 2), signs=(1, 1, 1))
    assert is_negative_clique(a, s, -0.3)
    assert not is_negative_clique(a, s, -0.31)


def test_witness_examples():
    w = negative_equivalent_witness(triple(-0.6, 0.5, 0.4), [0, 1, 2], 0.0)
    assert w is not None and w.signs == (1, 1, -1)

    assert negative_equivalent_witness(equicorrelated(3, 0.5), [0, 1, 2], 0.0) is None

    w = negative_equivalent_witness(equicorrelated(3, -0.4), [0, 1, 2], 0.0)
    assert w is not None and w.signs == (1, 1, 1)


def test_witness_has_no_size_cap():
    # c_ij = -r s_i s_j forces every pair, so the one witness is s up to its sign
    k, r = 40, 0.02
    s = np.random.default_rng(38).choice([-1, 1], size=k)
    a = (1.0 + r) * np.eye(k) - r * np.outer(s, s)
    w = negative_equivalent_witness(a, list(range(k)), 0.0)
    assert w is not None and w.signs == tuple(int(x) for x in s * s[0])
    a[0, 1] = a[1, 0] = -a[0, 1]  # now the triangle 0, 1, 2 is inconsistent
    assert negative_equivalent_witness(a, list(range(k)), 0.0) is None


def first_witness_in_counting_order(a, rho):
    """The exhaustive search: sign patterns in binary counting order, member i's flip as bit i-1."""
    k = a.shape[0]
    for code in range(1 << (k - 1)):
        signs = [1] + [-1 if code >> (i - 1) & 1 else 1 for i in range(1, k)]
        if all(signs[i] * signs[j] * a[i, j] <= rho for i, j in itertools.combinations(range(k), 2)):
            return tuple(signs)
    return None


def test_witness_is_the_first_in_counting_order():
    rng = np.random.default_rng(39)
    found = 0
    for k in range(2, 9):
        for t, a in enumerate(random_correlation(rng, 40, k)):
            if t % 2:
                a = np.round(a, 1)  # ties with rho
                np.fill_diagonal(a, 1.0)
            for rho in (-1.0, -0.05, 0.0, 0.1, 0.3, 1.0):
                w = negative_equivalent_witness(a, list(range(k)), rho)
                want = first_witness_in_counting_order(a, rho)
                assert (w and w.signs) == want
                found += want is not None
    assert found > 500


def test_witness_agrees_with_predicate():
    rng = np.random.default_rng(33)
    for a in random_correlation(rng, 60, 4):
        w = negative_equivalent_witness(a, [0, 1, 2, 3], 0.0)
        if w is not None:
            assert is_negative_clique(a, w, 0.0)


# ---------------------------------------------------------------- properties


def test_lemma1_dependence_range():
    rng = np.random.default_rng(34)
    for k in (3, 4, 5):
        for a in random_correlation(rng, 100, k):
            assert 0.0 <= linear_dependence(a, list(range(k))) <= 1.0


def test_lemma2_subset_monotonicity():
    rng = np.random.default_rng(35)
    for a in random_correlation(rng, 40, 6):
        full = list(range(6))
        s_full = linear_dependence(a, full)
        for size in (2, 3, 4, 5):
            sub = sorted(rng.choice(6, size=size, replace=False).tolist())
            assert linear_dependence(a, sub) <= s_full + 1e-9


def test_sign_invariance_of_measures():
    rng = np.random.default_rng(36)
    for a in random_correlation(rng, 25, 4):
        signs = rng.choice([-1.0, 1.0], size=4)
        flipped = a * np.outer(signs, signs)
        sub = [0, 1, 2, 3]
        assert abs(
            linear_dependence(a, sub) - linear_dependence(flipped, sub)
        ) < 1e-10
        assert abs(linear_gain(a, sub) - linear_gain(flipped, sub)) < 1e-10


def partition_split_exists(a, rho):
    """Check directly whether members split into two groups with all
    within-group correlations <= rho and all cross correlations >= -rho."""
    k = a.shape[0]
    idx = list(range(k))
    for r in range(0, k + 1):
        for part1 in itertools.combinations(idx, r):
            part2 = [i for i in idx if i not in part1]
            ok = True
            for i, j in itertools.combinations(part1, 2):
                ok = ok and a[i, j] <= rho
            for i, j in itertools.combinations(part2, 2):
                ok = ok and a[i, j] <= rho
            for i in part1:
                for j in part2:
                    ok = ok and a[i, j] >= -rho
            if ok:
                return True
    return False


def test_witness_matches_partition_characterization():
    rng = np.random.default_rng(37)
    for k in (4, 5, 6):
        for a in random_correlation(rng, 60, k):
            for rho in (0.0, -0.05, 0.1):
                w = negative_equivalent_witness(a, list(range(k)), rho)
                assert (w is not None) == partition_split_exists(a, rho)


# ---------------------------------------------------------------- malformed input


def _nan_matrix():
    a = equicorrelated(3, -0.3)
    a[1, 2] = a[2, 1] = np.nan
    return a


def _asymmetric_matrix():
    a = np.eye(3)
    a[0, 1] = 0.5
    return a


@pytest.mark.parametrize("matrix", [_nan_matrix, _asymmetric_matrix], ids=["nan", "asymmetric"])
@pytest.mark.parametrize(
    "call",
    [
        lambda a: linear_gain(a, [0, 1, 2]),
        lambda a: check_bounds(a),
        lambda a: bound_report(a),
        lambda a: negative_equivalent_witness(a, [0, 1, 2], 0.0),
        lambda a: is_negative_clique(a, SignedSet(members=(0, 1, 2), signs=(1, 1, 1)), 0.0),
    ],
    ids=["linear_gain", "check_bounds", "bound_report", "witness", "is_negative_clique"],
)
def test_malformed_matrix_raises(call, matrix):
    # like lvnlc, every measure and bound rejects a non-finite or asymmetric
    # matrix instead of answering from it
    with pytest.raises(ValueError):
        call(matrix())


# ---------------------------------------------------------------- record


def test_multipole_record_reports_members():
    rec = MultipoleRecord(
        signed=SignedSet(members=(2, 5, 7), signs=(1, -1, 1)),
        sigma=0.8,
        gain=0.2,
        weights=(0.6, 0.6, 0.52),
    )
    assert rec.members == (2, 5, 7)
    assert rec.size == 3
