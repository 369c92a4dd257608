"""Data ingestion, standardization, and correlation-matrix tests."""

import numpy as np
import pytest

from multipoles import graph, linalg, miner
from multipoles.dataset import (
    CorrelationMatrix,
    TimeSeriesDataset,
    correlation_matrix,
    load_csv,
    save_csv,
    standardize,
)


def make_dataset(values, names=None):
    values = np.asarray(values, dtype=np.float64)
    if names is None:
        names = [f"v{i}" for i in range(values.shape[1])]
    return TimeSeriesDataset(names=tuple(names), values=values)


# ---------------------------------------------------------------- types


def test_dataset_validation():
    with pytest.raises(ValueError, match="at least 3 rows"):
        make_dataset(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="at least 2 columns"):
        make_dataset(np.zeros((5, 1)))
    with pytest.raises(ValueError, match="duplicate"):
        make_dataset(np.zeros((5, 2)), names=["a", "a"])
    with pytest.raises(ValueError, match="row 2, column 1"):
        make_dataset([[0.0, 1.0], [np.nan, 1.0], [0.0, 1.0]])


def test_dataset_values_are_read_only():
    d = make_dataset(np.zeros((4, 2)))
    with pytest.raises(ValueError):
        d.values[0, 0] = 1.0


def test_standardized_flag_is_checked():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="standardized flag"):
        TimeSeriesDataset(
            names=("a", "b"), values=rng.normal(size=(10, 2)), standardized=True
        )


def test_correlation_matrix_validation():
    with pytest.raises(ValueError, match="square"):
        CorrelationMatrix(entries=np.zeros((2, 3)))
    bad_diag = np.array([[1.0, 0.2], [0.2, 0.999]])
    with pytest.raises(ValueError, match="diagonal"):
        CorrelationMatrix(entries=bad_diag)
    ulp_off = np.array([[1.0 - 2**-53, 0.2], [0.2, 1.0 + 2**-52]])
    assert np.array_equal(np.diag(CorrelationMatrix(entries=ulp_off).entries), [1.0, 1.0])
    assert ulp_off[0, 0] != 1.0  # the caller's matrix is not modified
    asym = np.array([[1.0, 0.2], [0.3, 1.0]])
    with pytest.raises(ValueError, match="symmetric"):
        CorrelationMatrix(entries=asym)
    big = np.array([[1.0, 1.5], [1.5, 1.0]])
    with pytest.raises(ValueError, match=r"\[-1, 1\]"):
        CorrelationMatrix(entries=big)
    indef = np.full((3, 3), -0.9)
    np.fill_diagonal(indef, 1.0)
    with pytest.raises(ValueError, match="PSD"):
        CorrelationMatrix(entries=indef)


def indefinite_equicorrelated(n):
    a = np.full((n, n), -0.5)
    np.fill_diagonal(a, 1.0)  # lambda_min = 1 - (n - 1) / 2
    return a


def with_lambda_min(n, lam, seed):
    """A unit-diagonal n x n matrix whose smallest eigenvalue is lam (to about 1e-15)."""
    c = np.corrcoef(np.random.default_rng(seed).normal(size=(10 * n, n)), rowvar=False)
    c = (c + c.T) / 2.0
    np.fill_diagonal(c, 1.0)
    shift = (np.linalg.eigvalsh(c)[0] - lam) / (1.0 - lam)
    a = (c - shift * np.eye(n)) / (1.0 - shift)
    np.fill_diagonal(a, 1.0)
    return a


@pytest.mark.parametrize("n", [8, 70])
def test_psd_is_checked_at_every_size(n):
    # lambda_min = -2.5 at n=8 and -33.5 at n=70, above the eigensolver's 64 cap
    a = indefinite_equicorrelated(n)
    with pytest.raises(ValueError, match="PSD"):
        CorrelationMatrix(entries=a)
    with pytest.raises(ValueError, match="PSD"):
        miner.mine(a, miner.MinerConfig())
    with pytest.raises(ValueError, match="PSD"):
        graph.build_graph(a, 0.0)


def test_rank_deficient_corrcoef_is_accepted_as_symmetrized():
    # T < N: 100 columns of rank 60, smallest eigenvalue 0 up to rounding
    m = np.corrcoef(np.random.default_rng(3).normal(size=(60, 100)), rowvar=False)
    want = (m + m.T) / 2.0
    np.fill_diagonal(want, 1.0)
    got = CorrelationMatrix(entries=m).entries
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [6, 40])
@pytest.mark.parametrize("lam, ok", [(-2e-9, False), (-5e-10, True)])
def test_psd_boundary_is_minus_1e_9(n, lam, ok):
    a = with_lambda_min(n, lam, seed=n)
    assert np.linalg.eigvalsh(a)[0] == pytest.approx(lam, abs=1e-13)
    if ok:
        assert CorrelationMatrix(entries=a).entries.tobytes() == a.tobytes()
    else:
        with pytest.raises(ValueError, match="PSD"):
            CorrelationMatrix(entries=a)


@pytest.mark.parametrize("asym, ok", [(1e-10, True), (1e-8, False)])
def test_symmetry_tolerance_is_1e_9(asym, ok):
    a = with_lambda_min(5, 0.2, seed=9)
    a[0, 1] += asym
    if ok:
        want = (a + a.T) / 2.0
        assert CorrelationMatrix(entries=a).entries.tobytes() == want.tobytes()
    else:
        with pytest.raises(ValueError, match="symmetric"):
            CorrelationMatrix(entries=a)


def test_correlation_matrix_skips_the_eigen_check(monkeypatch):
    # a Gram matrix of standardized data is PSD by construction: neither an
    # eigensolve nor the Cholesky certificate runs
    calls = []
    monkeypatch.setattr(linalg, "eigh_many", lambda *args, **kwargs: calls.append(args))
    monkeypatch.setattr(linalg, "cholesky", lambda *args, **kwargs: calls.append(args))
    raw = np.random.default_rng(5).normal(size=(50, 6))
    A = correlation_matrix(standardize(make_dataset(raw)))
    assert calls == []
    assert A.dim == 6 and np.all(np.diag(A.entries) == 1.0)
    assert not A.entries.flags.writeable


# ---------------------------------------------------------------- csv


def test_load_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    d = make_dataset(rng.normal(size=(100, 3)), names=["x", "y", "z"])
    p = tmp_path / "d.csv"
    save_csv(d, p)
    back = load_csv(p)
    assert back.names == ("x", "y", "z")
    assert back.T == 100 and back.N == 3
    assert np.array_equal(back.values, d.values)
    assert not back.standardized


def test_load_csv_skips_a_byte_order_mark(tmp_path):
    # as Excel's "CSV UTF-8" writes it
    p = tmp_path / "bom.csv"
    p.write_bytes("\ufeffa,b,c\n1,2,3\n4,5,7\n7,8,8\n".encode("utf-8"))
    assert load_csv(p).names == ("a", "b", "c")


def test_save_csv_quotes_names_that_need_it(tmp_path):
    rng = np.random.default_rng(2)
    d = make_dataset(rng.normal(size=(5, 3)), names=["a,b", "c", 'd"q'])
    p = tmp_path / "quoted.csv"
    save_csv(d, p)
    back = load_csv(p)
    assert back.names == d.names
    assert np.array_equal(back.values, d.values)


def test_save_csv_header_of_plain_names_is_unquoted(tmp_path):
    p = tmp_path / "plain.csv"
    save_csv(make_dataset(np.eye(3), names=["v0000", "v0001", "v0002"]), p)
    assert p.read_text().splitlines()[0] == "v0000,v0001,v0002"


def test_load_csv_reports_nan_position(tmp_path):
    p = tmp_path / "bad.csv"
    for cell in ("NaN", "inf", "-inf", "1e999", "abc"):
        rows = ["a,b,c"] + ["1,2,3"] * 10
        rows[5] = f"1,{cell},3"  # data row 5, column 2
        rows[7] = "1,2"  # a later short row is reported after it
        p.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValueError, match="non-finite value at row 5, column 2"):
            load_csv(p)


def test_load_csv_rejects_duplicate_header(tmp_path):
    p = tmp_path / "dup.csv"
    p.write_text("a,b,a\n1,2,3\n4,5,6\n7,8,9\n")
    with pytest.raises(ValueError, match="duplicate"):
        load_csv(p)


def test_load_csv_rejects_ragged_rows(tmp_path):
    p = tmp_path / "ragged.csv"
    p.write_text("a,b\n1,2\n3\n5,6\n")
    with pytest.raises(ValueError, match="row 2"):
        load_csv(p)


def test_load_csv_rejects_header_only(tmp_path):
    p = tmp_path / "header.csv"
    p.write_text("a,b,c\n")
    with pytest.raises(ValueError, match="at least 3 rows, got 0"):
        load_csv(p)


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_csv(tmp_path / "absent.csv")


# ---------------------------------------------------------------- standardize


def test_standardize_basic_column():
    d = make_dataset(np.array([[1.0, 0.0], [2.0, 3.0], [3.0, 1.0], [4.0, 2.0]]))
    s = standardize(d)
    assert s.standardized
    assert np.max(np.abs(s.values.mean(axis=0))) < 1e-12
    assert np.max(np.abs(s.values.var(axis=0, ddof=1) - 1.0)) < 1e-12
    col = (np.array([1.0, 2.0, 3.0, 4.0]) - 2.5) / np.sqrt(5.0 / 3.0)
    assert np.allclose(s.values[:, 0], col, atol=1e-12)


def test_standardize_rejects_constant_column():
    d = make_dataset(
        np.column_stack([np.full(4, 5.0), np.arange(4.0)]), names=["flat", "ramp"]
    )
    with pytest.raises(ValueError, match="flat"):
        standardize(d)


def test_detrend_removes_linear_trend():
    rng = np.random.default_rng(2)
    T = 200
    t = np.arange(T, dtype=np.float64)
    noisy_trend = 2.0 * t + rng.normal(size=T)
    d = make_dataset(np.column_stack([noisy_trend, rng.normal(size=T)]))
    s = standardize(d, detrend=True)
    tc = t - t.mean()
    corr = (s.values[:, 0] @ tc) / (np.linalg.norm(s.values[:, 0]) * np.linalg.norm(tc))
    assert abs(corr) < 1e-9


def test_detrend_rejects_pure_trend():
    # a noiseless line is constant after trend removal
    t = np.arange(50, dtype=np.float64)
    d = make_dataset(np.column_stack([3.0 * t + 1.0, np.sin(t)]))
    with pytest.raises(ValueError, match="near-constant"):
        standardize(d, detrend=True)


# ---------------------------------------------------------------- correlation


def test_correlation_requires_standardized():
    d = make_dataset(np.random.default_rng(3).normal(size=(20, 3)))
    with pytest.raises(ValueError, match="standardized"):
        correlation_matrix(d)


def test_perfectly_correlated_and_anticorrelated():
    rng = np.random.default_rng(4)
    x = rng.normal(size=50)
    d = make_dataset(np.column_stack([x, -x, x]))
    A = correlation_matrix(standardize(d))
    assert abs(A.entries[0, 1] + 1.0) < 1e-12
    assert abs(A.entries[0, 2] - 1.0) < 1e-12
    assert np.array_equal(np.diag(A.entries), np.ones(3))


def test_white_noise_correlations_are_small():
    rng = np.random.default_rng(5)
    d = make_dataset(rng.normal(size=(10_000, 4)))
    A = correlation_matrix(standardize(d)).entries
    off = A[~np.eye(4, dtype=bool)]
    assert np.max(np.abs(off)) < 0.05


def test_matches_numpy_corrcoef():
    rng = np.random.default_rng(6)
    d = make_dataset(rng.normal(size=(300, 5)))
    A = correlation_matrix(standardize(d)).entries
    assert np.max(np.abs(A - np.corrcoef(d.values, rowvar=False))) < 1e-12


def test_affine_invariance():
    rng = np.random.default_rng(7)
    raw = rng.normal(size=(150, 4))
    scales = np.array([3.0, 0.25, 10.0, 1.7])
    shifts = np.array([-5.0, 2.0, 0.0, 100.0])
    A0 = correlation_matrix(standardize(make_dataset(raw))).entries
    A1 = correlation_matrix(standardize(make_dataset(raw * scales + shifts))).entries
    assert np.max(np.abs(A0 - A1)) < 1e-9


def test_column_sign_flip_flips_correlation_row():
    rng = np.random.default_rng(8)
    raw = rng.normal(size=(150, 4))
    flipped = raw.copy()
    flipped[:, 2] = -flipped[:, 2]
    A0 = correlation_matrix(standardize(make_dataset(raw))).entries
    A1 = correlation_matrix(standardize(make_dataset(flipped))).entries
    expected = A0.copy()
    expected[2, :] *= -1
    expected[:, 2] *= -1
    np.fill_diagonal(expected, 1.0)
    assert np.max(np.abs(A1 - expected)) < 1e-9
