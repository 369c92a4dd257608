"""Time-series ingestion, validation, standardization, and correlation matrices."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from . import linalg


@dataclass(frozen=True)
class TimeSeriesDataset:
    """A named T x N observation matrix; the mining input.

    Rows are timestamps, columns are variables. ``standardized`` promises
    zero mean and unit sample variance per column (checked on construction).
    """

    names: tuple[str, ...]
    values: NDArray[np.float64]
    standardized: bool = False

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 2:
            raise ValueError(f"values must be a 2-d matrix, got ndim={vals.ndim}")
        T, N = vals.shape
        if T < 3:
            raise ValueError(f"need at least 3 rows, got {T}")
        if N < 2:
            raise ValueError(f"need at least 2 columns, got {N}")
        names = tuple(str(n) for n in self.names)
        if len(names) != N:
            raise ValueError(f"{len(names)} names for {N} columns")
        if len(set(names)) != N:
            raise ValueError("duplicate variable names")
        if not np.all(np.isfinite(vals)):
            bad = np.argwhere(~np.isfinite(vals))[0]
            raise ValueError(f"non-finite value at row {bad[0] + 1}, column {bad[1] + 1}")
        if self.standardized:
            mu = vals.mean(axis=0)
            var = vals.var(axis=0, ddof=1)
            if np.max(np.abs(mu)) > 1e-9 or np.max(np.abs(var - 1.0)) > 1e-9:
                raise ValueError("standardized flag set but columns are not zero-mean unit-variance")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "names", names)

    @property
    def T(self) -> int:
        return self.values.shape[0]

    @property
    def N(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class CorrelationMatrix:
    """Symmetric unit-diagonal matrix with entries in [-1, 1], PSD within 1e-9.

    Every matrix given as entries is validated by linalg._as_square (square,
    finite, symmetric within 1e-9) and stored as (M + M.T) / 2 with a unit
    diagonal (one within 1e-12 of 1, as np.corrcoef leaves it, passes). PSD
    is certified at every size by a Cholesky factorization of M + 1e-9 * I,
    which fails where the smallest eigenvalue of M is below -1e-9, up to
    about 1e-12 of rounding. correlation_matrix builds its Gram matrices of
    standardized data, PSD by construction, unchecked.
    """

    entries: NDArray[np.float64]

    def __post_init__(self):
        M = linalg._as_square(self.entries)
        if M.shape[0] < 2:
            raise ValueError("correlation matrix needs dimension >= 2")
        if np.max(np.abs(M)) > 1.0 + 1e-12:
            raise ValueError("correlation entries must lie in [-1, 1]")
        if np.max(np.abs(np.diag(M) - 1.0), initial=0.0) > 1e-12:
            raise ValueError("diagonal entries must lie within 1e-12 of 1")
        np.fill_diagonal(M, 1.0)
        try:
            linalg.cholesky(M + 1e-9 * np.eye(M.shape[0]))
        except linalg.NotPositiveDefiniteError as e:
            raise ValueError(f"matrix is not PSD within 1e-9: pivot {e.pivot_index} of M + 1e-9*I is {e.pivot:.3e}") from None
        M.flags.writeable = False
        object.__setattr__(self, "entries", M)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def _resolve_matrix(data) -> CorrelationMatrix:
    """The validated correlation matrix of mining input, the one entry point for it.

    A dataset is correlated (it must be standardized), a CorrelationMatrix is
    used as it is, and anything else is validated as a CorrelationMatrix, so a
    raw matrix with NaN, asymmetry or a non-unit diagonal raises ValueError.
    """
    if isinstance(data, TimeSeriesDataset):
        return correlation_matrix(data)
    if isinstance(data, CorrelationMatrix):
        return data
    return CorrelationMatrix(entries=data)


def load_csv(path) -> TimeSeriesDataset:
    """Read a UTF-8 comma-separated file, byte-order mark or not: header of unique names, numeric rows.

    Errors name the offending location; data rows and columns are reported
    1-based, not counting the header.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        names = [h.strip() for h in header]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"{path}: duplicate column names {dupes}")
        width = len(names)
        rows: list[list[float]] = []
        for r, row in enumerate(reader, start=1):
            if len(row) != width:
                raise ValueError(f"{path}: row {r} has {len(row)} cells, expected {width}")
            parsed = []
            for c, cell in enumerate(row, start=1):
                try:
                    x = float(cell)
                except ValueError:
                    x = math.nan
                if not math.isfinite(x):
                    raise ValueError(f"{path}: non-finite value at row {r}, column {c}")
                parsed.append(x)
            rows.append(parsed)
    return TimeSeriesDataset(names=tuple(names), values=np.asarray(rows, dtype=np.float64).reshape(len(rows), width))


def save_csv(d: TimeSeriesDataset, path) -> None:
    """Write a dataset back out in the load_csv format, full float precision, names quoted as needed."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(d.names)
        for row in d.values:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def standardize(d: TimeSeriesDataset, detrend: bool = False) -> TimeSeriesDataset:
    """Return a copy with zero-mean, unit-sample-variance columns.

    With ``detrend`` a least-squares linear trend is subtracted first. A
    column whose (residual) variance is at or below 1e-12 cannot be scaled
    and raises, naming the column so the caller can drop it and retry.
    """
    X = np.array(d.values, dtype=np.float64)
    T = X.shape[0]
    if detrend:
        t = np.arange(T, dtype=np.float64)
        t = t - t.mean()
        denom = float(np.dot(t, t))
        slope = (t @ X) / denom
        X = X - X.mean(axis=0) - np.outer(t, slope)
    mu = X.mean(axis=0)
    X = X - mu
    var = (X * X).sum(axis=0) / (T - 1)
    bad = np.nonzero(var <= 1e-12)[0]
    if bad.size:
        raise ValueError(f"near-constant column {d.names[bad[0]]!r}: variance {var[bad[0]]:.3e}")
    X = X / np.sqrt(var)
    return TimeSeriesDataset(names=d.names, values=X, standardized=True)


def correlation_matrix(d: TimeSeriesDataset) -> CorrelationMatrix:
    """Pearson correlation matrix of a standardized dataset, 1/(T-1) normalized."""
    if not d.standardized:
        raise ValueError("dataset must be standardized first")
    X = d.values
    C = (X.T @ X) / (d.T - 1)
    C = (C + C.T) / 2.0
    np.clip(C, -1.0, 1.0, out=C)
    np.fill_diagonal(C, 1.0)
    C.flags.writeable = False
    A = object.__new__(CorrelationMatrix)  # PSD by construction: bypass the checks of __post_init__
    object.__setattr__(A, "entries", C)
    return A
