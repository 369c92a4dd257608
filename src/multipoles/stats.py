"""Random-matrix sampling, synthetic data with planted structure, and
permutation-style significance testing.

Both matrix samplers draw through one loop, _draw_stack, and differ only in
their proposal and keep test: uniform PSD matrices (_accepted_stack, k in
_UNIFORM_SIZES) and planted near-equicorrelated ones
(sample_planted_matrices, k in _PLANT_SIZES, the only sizes its fixed
thresholds admit). Batches have a fixed size, so output is a deterministic
function of the seed and a shorter run is a prefix of a longer one.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from . import dataset, linalg, measures

_DRAW_BATCH = 8192  # uniform draws per batch
_PLANT_BATCH = 512  # planted proposals per batch
_PSD_TOL = 1e-10
_UNIFORM_SIZES = range(2, 9)  # uniform draws; the largest keeps none: see _accepted_stack
# A planted block is kept iff lambda_min, dependence, gain and rho_s clear these.
_PLANT_LAMBDA_FLOOR = 1e-4
_PLANT_DEPENDENCE_MIN = 0.75
_PLANT_GAIN_MIN = 0.15
_PLANT_RHO_MAX = -0.2
_PLANT_SIZES = range(3, 6)  # no k >= 6 block meets them: see sample_planted_matrices
_GIVE_UP_BATCHES = 64  # a sampler whose first this many batches keep nothing raises


def _draw_stack(k: int, count: int, seed, batch: int, propose, keep, give_up: str) -> NDArray[np.float64]:
    """The first `count` matrices, in draw order, that keep(stack) marks in
    unit-diagonal stacks of `batch` k x k matrices whose row-major upper
    triangles are propose(rng, (batch, k(k-1)/2)). Raises ValueError(give_up)
    when the first _GIVE_UP_BATCHES batches keep nothing."""
    if count < 0:
        raise ValueError("count must be >= 0")
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(k, 1)
    chunks = [np.empty((0, k, k))]
    have = 0
    while have < count:
        if have == 0 and len(chunks) > _GIVE_UP_BATCHES:  # chunks[0] is the empty seed
            raise ValueError(give_up)
        upper = propose(rng, (batch, iu.size))
        mats = np.broadcast_to(np.eye(k), (batch, k, k)).copy()
        mats[:, iu, ju] = upper
        mats[:, ju, iu] = upper
        chunks.append(mats[keep(mats)])
        have += len(chunks[-1])
    return np.concatenate(chunks, axis=0)[:count]


def _accepted_stack(k: int, count: int, seed) -> NDArray[np.float64]:
    """`count` correlation matrices with uniform [-1,1] off-diagonals, in
    draw order, kept iff M + 1e-10 I has a Cholesky factorization with every
    pivot above 1e-12 (iff lambda_min >= -1e-10, up to about 1e-12). k lies
    in _UNIFORM_SIZES, and its largest raises ValueError: the first 64
    batches of 8192 keep none.
    """
    if k not in _UNIFORM_SIZES:
        raise ValueError(f"k must lie in [{_UNIFORM_SIZES[0]}, {_UNIFORM_SIZES[-1]}], got {k}")
    return _draw_stack(
        k, count, seed, _DRAW_BATCH,
        lambda rng, shape: rng.uniform(-1.0, 1.0, size=shape),
        lambda mats: linalg._cholesky_stack(mats, _PSD_TOL)[1] < 0,
        f"none of the first {_GIVE_UP_BATCHES * _DRAW_BATCH} k={k} draws is PSD within 1e-10",
    )


def sample_planted_matrices(k: int, count: int, seed) -> list[dataset.CorrelationMatrix]:
    """Correlation matrices suitable as planted ground truth.

    Proposes near-equicorrelated matrices close to the extremal geometry
    r = -1/(k-1) (shrunk toward zero by a small uniform factor, then
    entrywise jittered) and keeps those with dependence >= 0.75, gain >=
    0.15, every self-canceling correlation <= -0.2, and smallest eigenvalue
    >= 1e-4. The margins matter: a planted set is recoverable from finite
    data only if sampling noise cannot push its dependence or gain under the
    mining thresholds, nor any pairwise correlation across the
    graph-construction threshold. Uniform PSD draws conditioned on
    dependence and gain alone are mostly near-zero pairwise correlations,
    which no graph at moderately negative rho can recover.

    k lies in [3, 5]; any other k raises ValueError before the first
    proposal. No k >= 6 block can be kept: with S the sign flips, S M S has
    a unit diagonal and 1'(S M S)1 >= k lambda_min, so rho_s, its largest
    off-diagonal, is at least its mean off-diagonal, which is at least
    -(1 - lambda_min)/(k - 1) >= -0.9999/(k - 1) > -0.2 for k >= 6 (by
    2e-5 at k = 6, far above the eigensolver's rounding of about 1e-14).
    """
    if k not in _PLANT_SIZES:
        raise ValueError(f"planted matrices need k in [{_PLANT_SIZES[0]}, {_PLANT_SIZES[-1]}], got {k}")
    jit = 0.1 / (k - 1)

    def propose(rng, shape):
        u = rng.uniform(0.02, 0.32 / (k - 1), size=shape[0])
        return (-(1.0 - u) / (k - 1))[:, None] + rng.uniform(-jit, jit, size=shape)

    def keep(mats):
        study = measures._study_stack(mats)
        return (
            (study.lambda_min >= _PLANT_LAMBDA_FLOOR)
            & (1.0 - study.lambda_min >= _PLANT_DEPENDENCE_MIN)
            & (study.gain >= _PLANT_GAIN_MIN)
            & (study.rho_s <= _PLANT_RHO_MAX)
        )

    return [dataset.CorrelationMatrix(entries=m) for m in _draw_stack(
        k, count, seed, _PLANT_BATCH, propose, keep,
        f"no k={k} planted matrix in {_GIVE_UP_BATCHES * _PLANT_BATCH} consecutive proposals",
    )]


def synth_dataset(planted, noise_count: int, T: int, seed):
    """Gaussian dataset realizing the planted correlation blocks.

    Each planted matrix of size k contributes k columns drawn as white noise
    mixed through its Cholesky factor; noise_count independent columns are
    appended; the column order is then shuffled. Returns the unstandardized
    dataset and the planted member index lists in shuffled coordinates.
    """
    mats = [linalg._as_square(p) for p in planted]
    if noise_count < 0:
        raise ValueError("noise_count must be >= 0")
    max_k = max((m.shape[0] for m in mats), default=0)
    if T < max(3, 50 * max_k):
        raise ValueError(f"T={T} too short: need at least {max(3, 50 * max_k)}")
    for i, m in enumerate(mats):
        # certifies lambda_min > 1e-6, up to about 1e-12 of rounding
        _, index, pivot = linalg._cholesky_stack(m[None], -1e-6)
        if index[0] >= 0:
            raise ValueError(f"planted matrix {i} is not strictly positive definite (lambda_min <= 1e-6): pivot {index[0]} of m - 1e-6*I is {pivot[0]:.3e}")
    rng = np.random.default_rng(seed)
    blocks = []
    for m in mats:
        L = linalg._cholesky_stack(m[None])[0][0]
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


def _check_context(d: dataset.TimeSeriesDataset, pool, repeats: int) -> None:
    """Checks that d has the pool's T and that repeats is >= 100."""
    if repeats < 100:
        raise ValueError(f"repeats must be >= 100, got {repeats}")
    T = _check_pool(pool)
    if d.T != T:
        raise ValueError(f"context dataset has T={d.T}, pool has T={T}")


def _pool_columns(pool, windows: NDArray[np.intp], rng) -> NDArray[np.float64]:
    """C-ordered (n, T, k) stack, [s, :, j] a uniform column of pool[windows[s, j]],
    one rng.integers call per window; slot by slot, so a gather copies ~n/P columns."""
    out = np.empty((windows.shape[0], pool[0].T, windows.shape[1]))
    for w, d in enumerate(pool):
        s, j = np.nonzero(windows == w)
        cols = rng.integers(0, d.N, size=s.size)
        for i in range(out.shape[2]):
            out[s[j == i], :, i] = d.values.T[cols[j == i]]
    return out


def significance_sigma(candidate_sigma: float, k: int, pool, samples: int, seed) -> float:
    """Upper-tail add-one p-value of a dependence value in [0, 1] against the
    linear dependence of `samples` random k-sets: k distinct pool windows
    uniformly at random, then one column uniformly at random in each (one
    rng.random call ranks the windows of a chunk of 2048 sets, then
    _pool_columns). p = (1 + #{null sigma >= candidate}) / (samples + 1);
    small p means the candidate's dependence is rarely matched by chance."""
    if not 0.0 <= candidate_sigma <= 1.0:  # also False for NaN
        raise ValueError(f"candidate_sigma must be a finite number in [0, 1], got {candidate_sigma}")
    if k < 2:
        raise ValueError(f"set size must be >= 2, got {k}")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    _check_pool(pool, k)
    rng = np.random.default_rng(seed)
    count_ge = 0
    for done in range(0, samples, 2048):
        windows = np.argsort(rng.random((min(2048, samples - done), len(pool))), axis=1)[:, :k]
        lam = linalg.eigh_many(dataset._correlations(_pool_columns(pool, windows, rng)), vectors=False)[0]
        count_ge += int((measures._sigma_of(lam) >= candidate_sigma).sum())
    return (1 + count_ge) / (samples + 1)


def _members_sigma(d: dataset.TimeSeriesDataset, members: tuple[int, ...]):
    """(columns, correlation matrix, linear dependence) of the members of a
    standardized dataset, the matrix by dataset._correlations."""
    if not d.standardized:
        raise ValueError("dataset must be standardized")
    X = d.values[:, members]
    C = dataset._correlations(X)
    lam = linalg.eigh_many(C[None], vectors=False)[0][0]
    return X, C, float(measures._sigma_of(lam))


def member_contribution(d: dataset.TimeSeriesDataset, multipole, member: int, pool, repeats: int, seed) -> float:
    """p-value for one member: does replacing it with a random pool series
    reach the original set's dependence as often as not?

    Each of `repeats` replacements is one pool window uniformly at random
    (one rng.integers call draws them all), then one column uniformly at
    random in it (_pool_columns).
    p = (1 + #{replaced-set sigma >= original sigma}) / (repeats + 1). A
    small p says the member is essential, not exchangeable with noise.
    """
    _check_context(d, pool, repeats)
    members = measures._checked_members(multipole, d.N, 3)
    if member not in members:
        raise ValueError(f"member {member} is not in the set {members}")
    k = len(members)
    pos = members.index(member)
    X, C0, sigma0 = _members_sigma(d, members)

    rng = np.random.default_rng(seed)
    repl = _pool_columns(pool, rng.integers(0, len(pool), size=(repeats, 1)), rng)[:, :, 0].T
    cross = dataset._correlations(np.delete(X, pos, axis=1), repl)
    mats = np.broadcast_to(C0, (repeats, k, k)).copy()
    other = [i for i in range(k) if i != pos]
    mats[:, other, pos] = cross.T
    mats[:, pos, other] = cross.T
    lam = linalg.eigh_many(mats, vectors=False)[0]
    count_ge = int((measures._sigma_of(lam) >= sigma0).sum())
    return (1 + count_ge) / (repeats + 1)


def _pvalues(d: dataset.TimeSeriesDataset, members, pool, samples: int, repeats: int, seed):
    """Lazily: the set's sigma on d, significance_sigma's p-value (k distinct
    windows, one uniform column each; seeded by child 0 of seed.spawn(1 + k)),
    then each member's member_contribution p-value (one uniform window, one
    uniform column; child 1 + i) in sorted member order, all checked before
    the first. A caller that stops early skips the remaining draws."""
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
