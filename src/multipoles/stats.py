"""Random-matrix sampling, synthetic data with planted structure, and
permutation-style significance testing.

Every sampler draws through numpy Generator streams in fixed-size internal
batches, so output is a deterministic function of the seed and a shorter
run is a prefix of a longer one.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from . import dataset, linalg, measures

_DRAW_BATCH = 8192
_PSD_TOL = 1e-10
_PLANT_LAMBDA_FLOOR = 1e-4
_PLANT_STALL_BATCHES = 64  # consecutive empty proposal batches before giving up


def _accepted_stack(k: int, count: int, seed) -> NDArray[np.float64]:
    """`count` correlation matrices with uniform [-1,1] off-diagonals, in
    draw order, each kept iff M + 1e-10 I has a Cholesky factorization with
    every pivot above 1e-12.

    This agrees with lambda_min >= -1e-10 except within about 1e-12 of it.
    """
    if not (2 <= k <= 8):
        raise ValueError(f"k must lie in [2, 8], got {k}")
    if count < 0:
        raise ValueError("count must be >= 0")
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(k, 1)
    chunks = [np.empty((0, k, k))]
    have = 0
    while have < count:
        draws = rng.uniform(-1.0, 1.0, size=(_DRAW_BATCH, iu.size))
        mats = np.broadcast_to(np.eye(k), (_DRAW_BATCH, k, k)).copy()
        mats[:, iu, ju] = draws
        mats[:, ju, iu] = draws
        chunks.append(mats[linalg._cholesky_stack(mats, _PSD_TOL)[1] < 0])
        have += len(chunks[-1])
    return np.concatenate(chunks, axis=0)[:count]


def sample_planted_matrices(
    k: int,
    count: int,
    seed,
    dependence_min: float = 0.75,
    gain_min: float = 0.15,
    rho_max: float = -0.2,
) -> list[dataset.CorrelationMatrix]:
    """Correlation matrices suitable as planted ground truth.

    Proposes near-equicorrelated matrices close to the extremal geometry
    r = -1/(k-1) (shrunk toward zero by a small uniform factor, then
    entrywise jittered) and keeps those with dependence >= dependence_min,
    gain >= gain_min, every self-canceling correlation <= rho_max, and
    smallest eigenvalue >= 1e-4. The margins matter: a planted set
    is recoverable from data of finite length only if sampling noise cannot
    push its dependence or gain under the mining thresholds, nor any
    pairwise correlation across the graph-construction threshold. Plain
    uniform PSD sampling conditioned on dependence and gain alone produces
    mostly matrices with near-zero pairwise correlations, which no graph at
    moderately negative rho can recover.

    Thresholds that 64 consecutive batches of 512 proposals all miss raise
    ValueError: they are out of reach (at the defaults, k = 6, 7 and 8 are).
    """
    if k < 3:
        raise ValueError(f"planted matrices need k >= 3, got {k}")
    if count < 0:
        raise ValueError("count must be >= 0")
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(k, 1)
    u_hi = 0.32 / (k - 1)
    jit = 0.1 / (k - 1)
    out: list[dataset.CorrelationMatrix] = []
    batch = 512
    stalled = 0
    while len(out) < count:
        u = rng.uniform(0.02, u_hi, size=batch)
        base = -(1.0 - u) / (k - 1)
        jitter = rng.uniform(-jit, jit, size=(batch, iu.size))
        mats = np.broadcast_to(np.eye(k), (batch, k, k)).copy()
        vals = base[:, None] + jitter
        mats[:, iu, ju] = vals
        mats[:, ju, iu] = vals
        study = measures._study_stack(mats)
        ok = (
            (study.lambda_min >= _PLANT_LAMBDA_FLOOR)
            & (1.0 - study.lambda_min >= dependence_min)
            & (study.gain >= gain_min)
            & (study.rho_s <= rho_max)
        )
        stalled = 0 if ok.any() else stalled + 1
        if stalled == _PLANT_STALL_BATCHES:
            raise ValueError(
                f"no k={k} planted matrix with dependence >= {dependence_min}, gain >= {gain_min} "
                f"and rho_s <= {rho_max} in {_PLANT_STALL_BATCHES * batch} consecutive proposals"
            )
        out += [dataset.CorrelationMatrix(entries=m) for m in mats[ok][: count - len(out)]]
    return out


def synth_dataset(planted, noise_count: int, T: int, seed):
    """Gaussian dataset realizing the planted correlation blocks.

    Each planted matrix of size k contributes k columns drawn as white noise
    mixed through its Cholesky factor; noise_count independent columns are
    appended; the column order is then shuffled. Returns the unstandardized
    dataset and the planted member index lists in shuffled coordinates.
    """
    mats = [measures._entries(p) for p in planted]
    if noise_count < 0:
        raise ValueError("noise_count must be >= 0")
    max_k = max((m.shape[0] for m in mats), default=0)
    if T < max(3, 50 * max_k):
        raise ValueError(f"T={T} too short: need at least {max(3, 50 * max_k)}")
    for i, m in enumerate(mats):
        try:  # certifies lambda_min > 1e-6, up to about 1e-12 of rounding
            linalg.cholesky(m - 1e-6 * np.eye(m.shape[0]))
        except linalg.NotPositiveDefiniteError as e:
            raise ValueError(f"planted matrix {i} is not strictly positive definite (lambda_min <= 1e-6): pivot {e.pivot_index} of m - 1e-6*I is {e.pivot:.3e}") from None
    rng = np.random.default_rng(seed)
    blocks = []
    for m in mats:
        L = linalg.cholesky(m)
        X = rng.standard_normal((T, m.shape[0]))
        blocks.append(X @ L.T)
    if noise_count:
        blocks.append(rng.standard_normal((T, noise_count)))
    values = np.concatenate(blocks, axis=1) if blocks else np.empty((T, 0))
    N = values.shape[1]
    if N < 2:
        raise ValueError("need at least 2 columns in total")
    perm = rng.permutation(N)
    values = values[:, perm]
    inverse = np.argsort(perm)
    ends = np.cumsum([m.shape[0] for m in mats], dtype=np.intp)
    truth = [sorted(inverse[end - m.shape[0] : end].tolist()) for m, end in zip(mats, ends)]
    width = max(4, len(str(N - 1)))
    names = tuple(f"v{i:0{width}d}" for i in range(N))
    return dataset.TimeSeriesDataset(names=names, values=values), truth


def _check_pool(pool, k: int | None = None):
    if not pool:
        raise ValueError("pool of datasets must be nonempty")
    T = pool[0].T
    for i, d in enumerate(pool):
        if not d.standardized:
            raise ValueError(f"pool dataset {i} is not standardized")
        if d.T != T:
            raise ValueError(f"pool dataset {i} has T={d.T}, expected {T}")
    if k is not None and len(pool) < k:
        raise ValueError(f"pool of {len(pool)} datasets cannot supply {k} distinct windows")
    return T


def _check_context(d: dataset.TimeSeriesDataset, pool, repeats: int) -> int:
    """The pool's T, after checking that d has it and that repeats is >= 100."""
    if repeats < 100:
        raise ValueError(f"repeats must be >= 100, got {repeats}")
    T = _check_pool(pool)
    if d.T != T:
        raise ValueError(f"context dataset has T={d.T}, pool has T={T}")
    return T


def significance_sigma(candidate_sigma: float, k: int, pool, samples: int, seed) -> float:
    """Upper-tail add-one p-value of a dependence value against a random null.

    The null is the linear dependence of `samples` random k-sets, members
    drawn from k distinct pool datasets, variable uniform within each.
    p = (1 + #{null sigma >= candidate}) / (samples + 1); small p means the
    candidate's dependence is rarely matched by chance.
    """
    if k < 2:
        raise ValueError(f"set size must be >= 2, got {k}")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    T = _check_pool(pool, k)
    rng = np.random.default_rng(seed)
    P = len(pool)
    count_ge = 0
    chunk = 2048
    buf = np.empty((chunk, T, k))
    done = 0
    while done < samples:
        n = min(chunk, samples - done)
        for t in range(n):
            windows = rng.choice(P, size=k, replace=False)
            for j, w in enumerate(windows):
                col = int(rng.integers(0, pool[w].N))
                buf[t, :, j] = pool[w].values[:, col]
        X = buf[:n]
        C = np.einsum("bti,btj->bij", X, X) / (T - 1)
        np.clip(C, -1.0, 1.0, out=C)
        C[:, np.arange(k), np.arange(k)] = 1.0
        lam = linalg.eigh_many(C, vectors=False)[0][:, 0]
        count_ge += int((measures._sigma_of(lam) >= candidate_sigma).sum())
        done += n
    return (1 + count_ge) / (samples + 1)


def _members_sigma(d: dataset.TimeSeriesDataset, members: tuple[int, ...]):
    """(columns, correlation matrix, linear dependence) of the members of a
    standardized dataset; the matrix is clipped to [-1, 1] with a unit diagonal."""
    if not d.standardized:
        raise ValueError("dataset must be standardized")
    X = d.values[:, members]
    C = (X.T @ X) / (d.T - 1)
    np.clip(C, -1.0, 1.0, out=C)
    np.fill_diagonal(C, 1.0)
    lam = linalg.eigh_many(C[None], vectors=False)[0][0, 0]
    return X, C, float(measures._sigma_of(lam))


def member_contribution(d: dataset.TimeSeriesDataset, multipole, member: int, pool, repeats: int, seed) -> float:
    """p-value for one member: does replacing it with a random pool series
    reach the original set's dependence as often as not?

    p = (1 + #{replaced-set sigma >= original sigma}) / (repeats + 1). A
    small p says the member is essential, not exchangeable with noise.
    """
    T = _check_context(d, pool, repeats)
    members = measures._checked_members(multipole, d.N, 3)
    if member not in members:
        raise ValueError(f"member {member} is not in the set {members}")
    k = len(members)
    pos = members.index(member)
    X, C0, sigma0 = _members_sigma(d, members)

    rng = np.random.default_rng(seed)
    P = len(pool)
    fixed = np.delete(X, pos, axis=1)
    repl = np.empty((T, repeats))
    for t in range(repeats):
        w = int(rng.integers(0, P))
        col = int(rng.integers(0, pool[w].N))
        repl[:, t] = pool[w].values[:, col]
    cross = (fixed.T @ repl) / (T - 1)
    np.clip(cross, -1.0, 1.0, out=cross)
    mats = np.broadcast_to(C0, (repeats, k, k)).copy()
    other = [i for i in range(k) if i != pos]
    mats[:, other, pos] = cross.T
    mats[:, pos, other] = cross.T
    lam = linalg.eigh_many(mats, vectors=False)[0][:, 0]
    sigmas = measures._sigma_of(lam)
    count_ge = int((sigmas >= sigma0).sum())
    return (1 + count_ge) / (repeats + 1)


def _pvalues(d: dataset.TimeSeriesDataset, members, pool, samples: int, repeats: int, seed):
    """Lazily: the set's sigma on d, significance_sigma's p-value (seeded by
    child 0 of seed.spawn(1 + k)), then each member's member_contribution
    p-value (child 1 + i) in sorted member order, all checked before the
    first. A caller that stops early skips the remaining draws."""
    _check_context(d, pool, repeats)
    members = measures._checked_members(members, d.N, 3)
    subs = seed.spawn(1 + len(members))
    _, _, sigma = _members_sigma(d, members)
    yield sigma
    yield significance_sigma(sigma, len(members), pool, samples, subs[0])
    for i, m in enumerate(members):
        yield member_contribution(d, members, m, pool, repeats, subs[1 + i])


def reproducibility(
    multipole,
    datasets: Sequence[dataset.TimeSeriesDataset],
    alpha: float,
    pool,
    seed,
    samples: int = 10_000,
    repeats: int = 1_000,
) -> int:
    """Number of datasets where the set and all its members are significant.

    A dataset counts iff every p-value of _pvalues on it (significance_sigma's,
    then each member's member_contribution) is <= alpha; its seed is that
    dataset's child of seed, and its tests stop at the first p above alpha.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    root = np.random.SeedSequence(seed) if not isinstance(seed, np.random.SeedSequence) else seed
    count = 0
    for d, child in zip(datasets, root.spawn(len(datasets))):
        ps = _pvalues(d, multipole, pool, samples, repeats, child)
        next(ps)  # the set's sigma
        count += all(p <= alpha for p in ps)
    return count
