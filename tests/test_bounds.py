"""Tests for the gain bounds: the per-column norm chain, the two aggregate
bounds, and the size cap on achievable gain."""

import numpy as np
import pytest

from multipoles import bounds, measures, stats
from multipoles.bounds import (
    BoundReport,
    bound_report,
    check_bounds,
    max_size_for_gain,
    stack_report_rows,
)


def equicorrelated(k, r):
    a = np.full((k, k), r)
    np.fill_diagonal(a, 1.0)
    return a


def random_correlation(rng, n, k):
    g = rng.normal(size=(n, k, k + 3))
    cov = g @ g.transpose(0, 2, 1)
    d = np.sqrt(np.diagonal(cov, axis1=1, axis2=2))
    return cov / (d[:, :, None] * d[:, None, :])


def test_report_equicorrelated_half():
    rep = bound_report(equicorrelated(3, -0.5))
    assert isinstance(rep, BoundReport)
    for col in rep.columns:
        assert col.delta_lambda == pytest.approx(0.5, abs=1e-9)
        assert col.c_norm2 == pytest.approx(np.sqrt(0.5), abs=1e-12)
        assert col.c_norm1 == pytest.approx(1.0, abs=1e-12)
        assert col.delta_lambda <= col.c_norm2 <= col.c_norm1
    assert rep.gain == pytest.approx(0.5, abs=1e-9)
    assert rep.corollary1_bound == pytest.approx(np.sqrt(0.5), abs=1e-12)
    # tight at the extremal equicorrelated matrix
    assert rep.corollary2_bound == pytest.approx(0.5, abs=1e-12)
    assert rep.size_cap_bound == pytest.approx(0.5, abs=1e-12)


def test_report_rejects_small_matrices():
    with pytest.raises(ValueError):
        bound_report(np.eye(2))


def test_gain_matches_measures():
    rng = np.random.default_rng(40)
    for a in random_correlation(rng, 40, 5):
        rep = bound_report(a)
        assert abs(rep.gain - measures.linear_gain(a, range(5))) < 1e-10
        assert rep.gain == pytest.approx(
            min(c.delta_lambda for c in rep.columns), abs=1e-12
        )


def test_interlacing_deltas_nonnegative():
    rng = np.random.default_rng(41)
    for a in random_correlation(rng, 40, 4):
        for col in bound_report(a).columns:
            assert col.delta_lambda >= -1e-10


def test_check_bounds_identity():
    assert check_bounds(np.eye(4)) == []


def test_check_bounds_equicorrelated_half():
    assert check_bounds(equicorrelated(3, -0.5)) == []


def test_no_violations_on_random_matrices():
    # every inequality check_bounds tests, size_cap included, on one stack per
    # k, symmetrized as check_bounds symmetrizes each matrix
    rng = np.random.default_rng(42)
    for k in (3, 4, 5, 6):
        mats = random_correlation(rng, 200, k)
        parts = bounds._bound_parts((mats + mats.transpose(0, 2, 1)) / 2.0)
        for kind, lhs, rhs in bounds._inequalities(parts):
            assert not (lhs > rhs + bounds._TOL).any(), kind


def test_corollary2_equality_at_extremal_equicorrelation():
    for k in (3, 4, 5, 6):
        rep = bound_report(equicorrelated(k, -1.0 / (k - 1)))
        assert abs(rep.gain - rep.corollary2_bound) < 1e-9
        assert abs(rep.gain - 1.0 / (k - 1)) < 1e-9


def test_max_size_for_gain():
    assert max_size_for_gain(0.15) == 7
    assert max_size_for_gain(0.2) == 6
    assert max_size_for_gain(0.5) == 3
    assert max_size_for_gain(1.0) == 2
    with pytest.raises(ValueError):
        max_size_for_gain(0.0)
    with pytest.raises(ValueError):
        max_size_for_gain(1.5)


def test_stack_report_rows():
    rng = np.random.default_rng(43)
    mats = random_correlation(rng, 25, 4)
    gain, rho_s, c1, c2, cap, violated = stack_report_rows(mats)
    assert gain.shape == (25,)
    assert not violated.any()
    assert np.all(cap == 1.0 / 3.0)
    for i, a in enumerate(mats):
        rep = bound_report(a)
        assert abs(gain[i] - rep.gain) < 1e-10
        assert abs(c1[i] - rep.corollary1_bound) < 1e-10
        assert abs(c2[i] - rep.corollary2_bound) < 1e-10
        cf = measures.self_canceling_form(a, range(4))
        assert abs(rho_s[i] - cf.rho_s) < 1e-10


def test_violation_formatting():
    v = bounds.BoundViolation(kind="corollary1", column=-1, lhs=0.5, rhs=0.4)
    text = str(v)
    assert "corollary1" in text


def test_scalar_reports_are_row_zero_of_the_stack():
    # bound_report and the scalar measures are row 0 of the stack kernels,
    # so each field equals its stack_report_rows / _study_stack row bit for bit
    rng = np.random.default_rng(43)
    for k in (3, 4, 5, 6):
        mats = random_correlation(rng, 25, k)
        gain, rho_s, c1, c2, cap, _ = stack_report_rows(mats)
        reports = [bound_report(a) for a in mats]
        assert [r.gain for r in reports] == gain.tolist()
        assert [r.corollary1_bound for r in reports] == c1.tolist()
        assert [r.corollary2_bound for r in reports] == c2.tolist()
        assert [r.size_cap_bound for r in reports] == cap.tolist()
        parts = bounds._bound_parts(mats)
        assert [[c.c_norm2 for c in r.columns] for r in reports] == parts.norm2.tolist()
        assert [[c.c_norm1 for c in r.columns] for r in reports] == parts.norm1.tolist()
        assert [[c.delta_lambda for c in r.columns] for r in reports] == parts.deltas.tolist()

        study = measures._study_stack(mats)
        form = measures._canonical(mats)
        assert [measures.linear_gain(a, range(k)) for a in mats] == study.gain.tolist() == gain.tolist()
        for t, a in enumerate(mats):
            var, w = measures.lvnlc(a, range(k))
            assert var == study.lambda_min[t]
            assert w.tolist() == form.vectors[t].tolist()
            cf = measures.self_canceling_form(a, range(k))
            assert cf.rho_s == rho_s[t] == study.rho_s[t]
            assert cf.weights == tuple(form.weights[t])


def test_check_bounds_agrees_with_stack_report_rows(monkeypatch):
    # with a negative tolerance near-equalities count as violations, so both
    # verdicts occur; a matrix is flagged iff check_bounds lists a proved kind
    monkeypatch.setattr(bounds, "_TOL", -0.05)
    proved = {"theorem1_norm2", "theorem1_norm1", "corollary1", "corollary2"}
    flagged = []
    for k in (3, 4, 5, 6):
        mats = stats._accepted_stack(k, 100, seed=44 + k)
        gain, _, c1, c2, cap, violated = stack_report_rows(mats)
        flagged.append(int(violated.sum()))
        for t, a in enumerate(mats):
            found = check_bounds(a)
            assert any(v.kind in proved for v in found) == violated[t]
            for v in found:
                rhs = {"corollary1": c1[t], "corollary2": c2[t], "size_cap": cap[t]}.get(v.kind)
                assert v.column == -1 if rhs is not None else 0 <= v.column < k
                assert v.lhs > v.rhs - 0.05
                if rhs is not None:
                    assert (v.lhs, v.rhs) == (gain[t], rhs)
    assert flagged[0] > 0 and sum(flagged) < 400
