"""Tests for matrix sampling, synthetic data generation, and significance."""

import re

import numpy as np
import pytest

from multipoles import bounds, dataset, linalg, measures, stats
from multipoles.cli import main
from multipoles.stats import (
    member_contribution,
    reproducibility,
    sample_planted_matrices,
    significance_sigma,
    synth_dataset,
)


def equicorrelated(k, r):
    a = np.full((k, k), r)
    np.fill_diagonal(a, 1.0)
    return a


def noise_pool(n_windows, N, T, seed):
    root = np.random.SeedSequence(seed)
    return [
        dataset.standardize(synth_dataset([], N, T, ss)[0])
        for ss in root.spawn(n_windows)
    ]


# ---------------------------------------------------------------- sampler


def test_sampler_is_deterministic():
    a = stats._accepted_stack(3, 20, seed=80)
    b = stats._accepted_stack(3, 20, seed=80)
    assert a.shape == (20, 3, 3)
    assert np.array_equal(a, b)


def planted_stack(k, count, seed):
    """sample_planted_matrices' entries as one (count, k, k) stack."""
    return np.array([m.entries for m in sample_planted_matrices(k, count, seed)]).reshape(-1, k, k)


@pytest.mark.parametrize("sample, k", [
    pytest.param(stats._accepted_stack, 2, id="2"),
    pytest.param(stats._accepted_stack, 5, id="5"),
    pytest.param(planted_stack, 3, id="planted-3"),
])
def test_sampler_count_zero_is_an_empty_stack(sample, k):
    a = sample(k, 0, seed=80)
    assert a.shape == (0, k, k)
    assert a.dtype == np.float64


@pytest.mark.parametrize("sample, k, short, long", [
    pytest.param(stats._accepted_stack, 4, 5, 50, id="uniform"),
    pytest.param(planted_stack, 4, 3, 12, id="planted"),
])
def test_sampler_prefix_stability(sample, k, short, long):
    # the first matrices do not depend on how many are requested
    a = sample(k, short, seed=81)
    b = sample(k, long, seed=81)
    assert a.tobytes() == b[:short].tobytes()


def test_sampler_output_is_valid():
    for e in stats._accepted_stack(5, 30, seed=82):
        assert np.array_equal(e, e.T)
        assert np.array_equal(np.diag(e), np.ones(5))
        off = e[~np.eye(5, dtype=bool)]
        assert np.all(np.abs(off) <= 1.0)
        assert np.linalg.eigvalsh(e)[0] >= -1e-10


def test_sampler_accepts_every_pair():
    # any single correlation value gives a PSD 2x2 matrix
    assert len(stats._accepted_stack(2, 200, seed=83)) == 200


def test_sampler_rejects_indefinite_draws():
    # the acceptance criterion is PSD within 1e-10: all -0.9 fails it
    # (lambda_min = -0.8), all -0.5 sits exactly on the boundary
    lam = linalg.eigh_many(np.stack([equicorrelated(3, -0.9), equicorrelated(3, -0.5)]), vectors=False)[0]
    assert lam[0] < -1e-10 <= lam[1]
    # and every emitted matrix satisfies it
    lam = linalg.eigh_many(stats._accepted_stack(3, 50, seed=84), vectors=False)[0]
    assert np.all(lam >= -1e-10)


class ScriptedDraws(np.random.Generator):
    """A generator whose uniform draws repeat the given rows of off-diagonals."""

    def __init__(self, rows):
        super().__init__(np.random.PCG64(0))
        self.rows = np.asarray(rows, dtype=np.float64)

    def uniform(self, low, high, size):
        return np.resize(self.rows, size)


def shifted_singular(k, lam, seed):
    """A correlation matrix with smallest eigenvalue lam: (1 - lam) C + lam I for a singular C."""
    x = np.random.default_rng(seed).normal(size=(k, k - 1))
    c = np.corrcoef(x)
    m = (1.0 - lam) * (c + c.T) / 2.0
    np.fill_diagonal(m, 1.0)
    return m


@pytest.mark.parametrize("k", [3, 5, 8])
def test_sampler_psd_boundary_is_minus_1e_10(k):
    # draws are kept iff lambda_min >= -1e-10, away from a band of about 1e-12
    mats = [shifted_singular(k, lam, seed=k) for lam in (-2e-10, -5e-11, 0.3, -1e-3)]
    lam = linalg.eigh_many(np.stack(mats), vectors=False)[0]
    assert lam == pytest.approx([-2e-10, -5e-11, 0.3, -1e-3], rel=1e-3)
    iu = np.triu_indices(k, 1)
    kept = stats._accepted_stack(k, 2, ScriptedDraws([m[iu] for m in mats]))
    assert kept.tobytes() == np.stack([mats[1], mats[2]]).tobytes()


def test_sampler_keeps_the_singular_equicorrelated_triple():
    # all -0.5 has lambda_min = 0 exactly; all -0.5 - 1e-9 has lambda_min = -2e-9
    kept = stats._accepted_stack(3, 1, ScriptedDraws([[-0.5 - 1e-9] * 3, [-0.5] * 3]))
    assert kept.tobytes() == equicorrelated(3, -0.5)[None].tobytes()


def test_sampler_range_check():
    with pytest.raises(ValueError):
        stats._accepted_stack(1, 5, seed=84)
    with pytest.raises(ValueError):
        stats._accepted_stack(9, 5, seed=84)


def unscreened_stack(k, count, seed):
    """The sampler with every draw Jacobi-solved, and the number of draw batches it took."""
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(k, 1)
    chunks, have = [], 0
    while have < count:
        draws = rng.uniform(-1.0, 1.0, size=(stats._DRAW_BATCH, iu.size))
        mats = np.broadcast_to(np.eye(k), (stats._DRAW_BATCH, k, k)).copy()
        mats[:, iu, ju] = draws
        mats[:, ju, iu] = draws
        lam = linalg.eigh_many(mats, vectors=False)[0]
        chunks.append(mats[lam >= -1e-10])
        have += len(chunks[-1])
    return np.concatenate(chunks)[:count], len(chunks)


@pytest.mark.parametrize("k, count", [(2, 20000), (3, 12000), (4, 3000), (5, 400), (6, 14)])
def test_sampler_screen_keeps_the_unscreened_stack(k, count):
    # the Cholesky certificate keeps the same bytes as a Jacobi solve of every draw
    for seed in (1, 7, 12345):
        want, batches = unscreened_stack(k, count, seed)
        assert batches >= 2
        assert stats._accepted_stack(k, count, seed).tobytes() == want.tobytes()


# ---------------------------------------------------------------- scatter


def scatter(k, count, seed):
    """The gain and rho_s columns `multipole sample` writes."""
    gain, rho_s, *_ = bounds.stack_report_rows(stats._accepted_stack(k, count, seed))
    return gain, rho_s


def test_scatter_respects_gain_cap():
    for k in (3, 4):
        gain, rho_s = scatter(k, 2000, seed=85)
        assert gain.shape == rho_s.shape == (2000,)
        assert np.all(gain <= 1.0 / (k - 1) + 1e-9)
        assert np.all((-1.0 <= rho_s) & (rho_s <= 1.0))


def test_scatter_matches_direct_evaluation():
    mats = stats._accepted_stack(3, 50, seed=86)
    for m, g, r in zip(mats, *scatter(3, 50, seed=86)):
        assert g == pytest.approx(
            measures.linear_gain(m, [0, 1, 2]), abs=1e-10
        )
        cf = measures.self_canceling_form(m, [0, 1, 2])
        assert r == pytest.approx(cf.rho_s, abs=1e-10)


def test_scatter_csv(tmp_path):
    p = tmp_path / "scatter.csv"
    assert main(["sample", "--k", "3", "--count", "10", "--seed", "87", "--out", str(p)]) == 0
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "k,gain,rho_s"
    assert len(lines) == 11


# ---------------------------------------------------------------- generator


def test_synth_identity_block():
    root = np.random.SeedSequence(88)
    d, truth = synth_dataset([np.eye(3)], 5, 10_000, root)
    s = dataset.standardize(d)
    A = dataset.correlation_matrix(s).entries
    idx = truth[0]
    sub = A[np.ix_(idx, idx)]
    off = sub[~np.eye(3, dtype=bool)]
    assert np.max(np.abs(off)) < 0.05


def test_synth_equicorrelated_block():
    root = np.random.SeedSequence(89)
    d, truth = synth_dataset([equicorrelated(3, -0.45)], 5, 10_000, root)
    s = dataset.standardize(d)
    A = dataset.correlation_matrix(s).entries
    idx = truth[0]
    sub = A[np.ix_(idx, idx)]
    off = sub[~np.eye(3, dtype=bool)]
    assert np.max(np.abs(off - (-0.45))) < 0.05


def test_synth_shuffles_and_reports_truth():
    root = np.random.SeedSequence(90)
    mats = [equicorrelated(3, -0.45), equicorrelated(4, -0.3)]
    d, truth = synth_dataset(mats, 13, 500, root)
    assert d.N == 3 + 4 + 13
    assert len(truth) == 2
    assert sorted(len(t) for t in truth) == [3, 4]
    flat = [i for t in truth for i in t]
    assert len(set(flat)) == 7


def test_synth_rejects_singular_planted():
    with pytest.raises(Exception):
        synth_dataset([equicorrelated(3, -0.5)], 5, 500, np.random.SeedSequence(91))


@pytest.mark.parametrize("lam, ok", [(0.0, False), (5e-7, False), (2e-6, True)])
def test_synth_planted_margin_is_1e_6(lam, ok):
    # equicorrelated k=3 has lambda_min = 1 + 2r; its last pivot carries the sign
    mat = equicorrelated(3, (lam - 1.0) / 2.0)
    if ok:
        d, truth = synth_dataset([mat], 5, 500, np.random.SeedSequence(93))
        assert d.N == 8 and len(truth[0]) == 3
    else:
        with pytest.raises(ValueError) as exc:
            synth_dataset([mat], 5, 500, np.random.SeedSequence(93))
        pivot = {0.0: "-3.000e-06", 5e-7: "-1.500e-06"}[lam]
        assert str(exc.value) == (
            "planted matrix 0 is not strictly positive definite (lambda_min <= 1e-6): "
            f"pivot 2 of m - 1e-6*I is {pivot}"
        )


@pytest.mark.parametrize("shape", [(2, 3), (3, 1), (3,), ()])
def test_synth_rejects_a_non_square_planted_block(shape):
    # a (3, 1) column must not be broadcast against the identity into a 3 x 3 block
    with pytest.raises(ValueError, match=re.escape(f"expected a square matrix, got shape {shape}")):
        synth_dataset([np.full(shape, 0.5)], 5, 500, np.random.SeedSequence(93))


def test_synth_rejects_short_series():
    with pytest.raises(ValueError):
        synth_dataset([np.eye(4)], 5, 100, np.random.SeedSequence(92))


def test_planted_matrices_meet_mining_filters():
    for k in (3, 4, 5):
        mats = sample_planted_matrices(k, 8, np.random.SeedSequence(93))
        assert len(mats) == 8
        for m in mats:
            sub = list(range(k))
            assert measures.linear_dependence(m, sub) >= 0.75
            assert measures.linear_gain(m, sub) >= 0.15
            cf = measures.self_canceling_form(m, sub)
            assert cf.rho_s <= -0.2
            assert np.linalg.eigvalsh(m.entries)[0] > 1e-6


def planted_loop(k, count, seed):
    """The planted sampler at the default thresholds as its own loop, cut per
    batch, and the number of proposal batches it took."""
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(k, 1)
    u_hi = 0.32 / (k - 1)
    jit = 0.1 / (k - 1)
    out, batches = [], 0
    while len(out) < count:
        batches += 1
        u = rng.uniform(0.02, u_hi, size=512)
        base = -(1.0 - u) / (k - 1)
        jitter = rng.uniform(-jit, jit, size=(512, iu.size))
        mats = np.broadcast_to(np.eye(k), (512, k, k)).copy()
        vals = base[:, None] + jitter
        mats[:, iu, ju] = vals
        mats[:, ju, iu] = vals
        study = measures._study_stack(mats)
        ok = (
            (study.lambda_min >= 1e-4)
            & (1.0 - study.lambda_min >= 0.75)
            & (study.gain >= 0.15)
            & (study.rho_s <= -0.2)
        )
        out += [dataset.CorrelationMatrix(entries=m) for m in mats[ok][: count - len(out)]]
    return out, batches


@pytest.mark.parametrize("k", [3, 4, 5])
def test_planted_sampler_matches_its_own_loop_bit_for_bit(k):
    for seed in (1, 7, 12345):
        want, batches = planted_loop(k, 600, np.random.SeedSequence(seed))
        got = sample_planted_matrices(k, 600, np.random.SeedSequence(seed))
        assert batches >= 2
        assert [m.entries.tobytes() for m in got] == [m.entries.tobytes() for m in want]


@pytest.mark.parametrize("k", [3, 4, 5, 6, 7, 8])
def test_rho_s_bound_is_attained_by_an_equicorrelated_matrix(k):
    # rho_s >= -(1 - lambda_min)/(k-1), with equality at r < 0: why no k >= 6 block can be planted
    for r in (-0.9 / (k - 1), -0.5 / (k - 1), -0.01):
        study = measures._study_stack(equicorrelated(k, r)[None])
        assert abs(study.rho_s[0] + (1.0 - study.lambda_min[0]) / (k - 1)) <= 1e-12


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_rho_s_bound_holds_on_uniform_and_planted_draws(k):
    stacks = [stats._accepted_stack(k, 200, np.random.SeedSequence(90 + k))]
    if k <= 5:
        stacks.append(planted_stack(k, 50, np.random.SeedSequence(90 + k)))
    for mats in stacks:
        study = measures._study_stack(mats)
        assert np.all(study.rho_s >= -(1.0 - study.lambda_min) / (k - 1) - 1e-12)


@pytest.mark.parametrize("k", [2, 6, 8])
def test_planted_matrices_outside_3_to_5_raise_before_any_proposal(monkeypatch, k):
    calls = []
    study = measures._study_stack
    monkeypatch.setattr(measures, "_study_stack", lambda mats: calls.append(len(mats)) or study(mats))
    with pytest.raises(ValueError, match=re.escape(f"planted matrices need k in [3, 5], got {k}")):
        sample_planted_matrices(k, 1, np.random.SeedSequence(94))
    assert calls == []


def test_sampler_gives_up_where_its_first_batches_keep_nothing():
    # uniform draws are almost never PSD at k=8: 64 empty batches raise
    with pytest.raises(ValueError, match="none of the first 524288 k=8 draws"):
        stats._accepted_stack(8, 1, 3)


# ---------------------------------------------------------------- significance


def test_significance_extreme_candidate():
    pool = noise_pool(4, 10, 200, seed=95)
    p = significance_sigma(0.9999, 3, pool, 999, np.random.SeedSequence(96))
    assert p == pytest.approx(1 / 1000)
    p = significance_sigma(0.0, 3, pool, 999, np.random.SeedSequence(96))
    assert p == 1.0


def test_significance_monotone_in_sigma():
    pool = noise_pool(4, 10, 200, seed=97)
    seed = np.random.SeedSequence(98)
    ps = [
        significance_sigma(s, 3, pool, 2000, np.random.SeedSequence(98))
        for s in (0.2, 0.5, 0.8)
    ]
    assert ps[0] >= ps[1] >= ps[2]


def test_significance_planted_multipole():
    pool = noise_pool(5, 15, 400, seed=99)
    d, truth = synth_dataset(
        [equicorrelated(3, -0.45)], 12, 400, np.random.SeedSequence(100)
    )
    s = dataset.standardize(d)
    sigma = measures.linear_dependence(dataset.correlation_matrix(s), truth[0])
    p = significance_sigma(sigma, 3, pool, 10_000, np.random.SeedSequence(101))
    assert p < 0.01


def test_null_matrices_are_the_members_matrices_bit_for_bit(monkeypatch):
    # every matrix of the set-level null is _members_sigma's matrix of the
    # drawn columns: the same formula as the dependence it is compared with
    pool = noise_pool(5, 12, 400, seed=110)
    solve = linalg.eigh_many
    seen = []
    monkeypatch.setattr(linalg, "eigh_many", lambda C, **kw: seen.append(C.copy()) or solve(C, **kw))
    k, samples = 4, 300
    significance_sigma(0.5, k, pool, samples, np.random.SeedSequence(111))
    monkeypatch.undo()
    mats = np.concatenate(seen)
    assert mats.shape == (samples, k, k)
    # re-draw the columns: rank the windows of the one chunk, then one
    # integers call per window for its slots in row-major order
    rng = np.random.default_rng(np.random.SeedSequence(111))
    windows = np.argsort(rng.random((samples, len(pool))), axis=1)[:, :k]
    cols = np.empty_like(windows)
    for w, d in enumerate(pool):
        hit = windows == w
        cols[hit] = rng.integers(0, d.N, size=int(hit.sum()))
    for C, ws, cs in zip(mats, windows, cols):
        X = np.column_stack([pool[w].values[:, c] for w, c in zip(ws, cs)])
        d = dataset.TimeSeriesDataset(names=tuple("abcd"), values=X, standardized=True)
        assert C.tobytes() == stats._members_sigma(d, tuple(range(k)))[1].tobytes()


def _drawn_columns(monkeypatch, run, pool):
    # (window, column) of every slot of every stack _pool_columns returns
    # during run(), each column found by its values in the pool
    where = {d.values[:, c].tobytes(): (w, c) for w, d in enumerate(pool) for c in range(d.N)}
    stacks = []
    draw = stats._pool_columns
    monkeypatch.setattr(stats, "_pool_columns", lambda *args: stacks.append(draw(*args)) or stacks[-1])
    run()
    monkeypatch.undo()
    return np.array([
        [where[stack[s, :, j].tobytes()] for j in range(stack.shape[2])]
        for stack in stacks for s in range(stack.shape[0])
    ])


def test_both_nulls_draw_windows_then_columns_uniformly(monkeypatch):
    # pool windows of different widths: k distinct windows per null set, one
    # window per member replacement, a uniform column within each; every
    # window's share of picks within 5 binomial standard deviations of its
    # probability, every column of every window drawn
    T, widths = 40, (4, 7, 11)
    pool = [
        dataset.standardize(synth_dataset([], N, T, ss)[0])
        for N, ss in zip(widths, np.random.SeedSequence(140).spawn(len(widths)))
    ]
    P, k, n = len(pool), 2, 3000
    sets = _drawn_columns(
        monkeypatch, lambda: significance_sigma(0.5, k, pool, n, np.random.SeedSequence(141)), pool
    )
    repl = _drawn_columns(
        monkeypatch, lambda: member_contribution(pool[2], [0, 1, 2], 0, pool, n, np.random.SeedSequence(142)), pool
    )
    assert sets.shape == (n, k, 2) and repl.shape == (n, 1, 2)
    assert all(len(set(row)) == k for row in sets[:, :, 0].tolist())
    for picks, share in ((sets, k / P), (repl, 1 / P)):
        for w, N in enumerate(widths):
            hits = picks[:, :, 0] == w
            assert abs(hits.sum() / n - share) <= 5 * np.sqrt(share * (1 - share) / n)
            assert sorted(set(picks[:, :, 1][hits].tolist())) == list(range(N))


class _CountingRng:
    def __init__(self, rng, calls):
        self._rng, self._calls = rng, calls

    def __getattr__(self, name):
        attr = getattr(self._rng, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            self._calls.append(name)
            return attr(*args, **kwargs)

        return counted


@pytest.mark.parametrize("count", [100, 2048, 5000])
def test_draw_calls_do_not_grow_with_the_sample_count(monkeypatch, count):
    # one random call per chunk of 2048 null sets plus one integers call per
    # pool window; one integers call for the replacement windows plus one
    # per pool window
    pool = noise_pool(5, 8, 60, seed=143)
    P = len(pool)
    calls = []
    make = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: _CountingRng(make(seed), calls))
    significance_sigma(0.5, 3, pool, count, np.random.SeedSequence(144))
    assert len(calls) <= -(-count // 2048) * (1 + P)
    calls.clear()
    member_contribution(pool[0], [0, 1, 2], 1, pool, count, np.random.SeedSequence(145))
    assert len(calls) <= 1 + P


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.1, 1.5])
def test_significance_rejects_an_undefined_candidate(bad):
    pool = noise_pool(3, 6, 60, seed=146)
    with pytest.raises(ValueError, match="candidate_sigma"):
        significance_sigma(bad, 3, pool, 10, np.random.SeedSequence(147))
    assert significance_sigma(0.0, 3, pool, 10, np.random.SeedSequence(147)) == 1.0
    assert 0.0 < significance_sigma(1.0, 3, pool, 10, np.random.SeedSequence(147)) <= 1.0


def test_significance_pool_too_small():
    pool = noise_pool(2, 10, 200, seed=102)
    with pytest.raises(ValueError):
        significance_sigma(0.5, 3, pool, 1000, np.random.SeedSequence(103))


def test_member_contribution_planted():
    pool = noise_pool(5, 15, 400, seed=104)
    d, truth = synth_dataset(
        [equicorrelated(3, -0.45)], 12, 400, np.random.SeedSequence(105)
    )
    s = dataset.standardize(d)
    for m in truth[0]:
        p = member_contribution(s, truth[0], m, pool, 1000, np.random.SeedSequence(106))
        assert p < 0.01


def test_member_contribution_padding_variable_not_significant():
    # a variable orthogonal to the rest contributes nothing; replacing it
    # leaves sigma statistically exchangeable
    pool = noise_pool(5, 15, 400, seed=107)
    d, truth = synth_dataset(
        [equicorrelated(3, -0.45)], 12, 400, np.random.SeedSequence(108)
    )
    s = dataset.standardize(d)
    padded = sorted(truth[0] + [next(i for i in range(s.N) if i not in truth[0])])
    pad = next(i for i in padded if i not in truth[0])
    p = member_contribution(s, padded, pad, pool, 1000, np.random.SeedSequence(109))
    assert p > 0.05


def test_member_contribution_repeats_floor():
    pool = noise_pool(3, 10, 200, seed=110)
    d, truth = synth_dataset(
        [equicorrelated(3, -0.45)], 7, 200, np.random.SeedSequence(111)
    )
    s = dataset.standardize(d)
    with pytest.raises(ValueError):
        member_contribution(s, truth[0], truth[0][0], pool, 50, np.random.SeedSequence(112))


def test_reproducibility_negative_control():
    pool = noise_pool(9, 12, 250, seed=113)
    count = reproducibility(
        [0, 1, 2], pool, 0.01, pool, np.random.SeedSequence(114),
        samples=2000, repeats=200,
    )
    assert count == 0


def test_reproducibility_positive_control():
    mat = equicorrelated(3, -0.45)
    pool = noise_pool(6, 12, 250, seed=115)
    windows = []
    for ss in np.random.SeedSequence(116).spawn(5):
        d, truth = synth_dataset([mat], 9, 250, ss)
        order = truth[0] + [j for j in range(d.N) if j not in truth[0]]
        vals = d.values[:, order]
        windows.append(
            dataset.standardize(
                dataset.TimeSeriesDataset(names=d.names, values=vals)
            )
        )
    count = reproducibility(
        [0, 1, 2], windows, 0.01, pool, np.random.SeedSequence(117),
        samples=2000, repeats=200,
    )
    assert count == 5


def test_reproducibility_determinism():
    pool = noise_pool(3, 10, 200, seed=118)
    args = ([0, 1, 2], pool, 0.05, pool)
    a = reproducibility(*args, np.random.SeedSequence(119), samples=1500, repeats=150)
    b = reproducibility(*args, np.random.SeedSequence(119), samples=1500, repeats=150)
    assert a == b


def test_reproducibility_checks_every_window_length():
    # a window whose set p-value misses alpha is checked against the pool too,
    # not counted 0
    pool = noise_pool(3, 10, 250, seed=126)
    windows = noise_pool(3, 10, 300, seed=127)
    with pytest.raises(ValueError, match="T=300, pool has T=250"):
        reproducibility([0, 1, 2], windows, 0.01, pool, 128, samples=200, repeats=100)


def test_repeats_are_checked_before_any_draw(monkeypatch):
    pool = noise_pool(3, 10, 200, seed=129)
    calls = []
    monkeypatch.setattr(stats, "significance_sigma", lambda *args: calls.append(args) or 1.0)
    with pytest.raises(ValueError, match="repeats must be >= 100"):
        reproducibility([0, 1, 2], pool, 0.5, pool, 130, samples=50, repeats=99)
    with pytest.raises(ValueError, match="repeats must be >= 100"):
        next(stats._pvalues(pool[0], [0, 1, 2], pool, 50, 99, np.random.SeedSequence(131)))
    assert calls == []


@pytest.mark.parametrize("members", [[-1, 0, 1], [0, 0, 1], [0, 1], [0, 1, 10]])
def test_significance_rejects_bad_members(members):
    # unchecked, a negative index wraps to the last columns and a repeated
    # member is tested twice, giving wrong p-values and counts
    pool = noise_pool(4, 10, 200, seed=120)
    with pytest.raises(ValueError):
        member_contribution(pool[0], members, members[1], pool, 100, np.random.SeedSequence(3))
    with pytest.raises(ValueError):
        reproducibility(members, pool, 0.5, pool, 3, samples=50, repeats=100)


def test_reproducibility_stops_at_the_first_p_above_alpha(monkeypatch):
    pool = noise_pool(3, 10, 200, seed=121)
    script = iter([
        0.5,                     # window 0: the set misses alpha, no member is tested
        0.01, 0.01, 0.5,         # window 1: member 1 misses alpha, member 2 is not tested
        0.01, 0.01, 0.01, 0.01,  # window 2 counts
    ])
    calls = []

    def fake_sigma(*args):
        calls.append("set")
        return next(script)

    def fake_member(d, members, member, *args):
        calls.append(member)
        return next(script)

    monkeypatch.setattr(stats, "significance_sigma", fake_sigma)
    monkeypatch.setattr(stats, "member_contribution", fake_member)
    assert reproducibility([2, 0, 1], pool, 0.05, pool, 122, samples=50, repeats=100) == 1
    assert calls == ["set", "set", 0, 1, "set", 0, 1, 2]
    assert next(script, None) is None


def test_pvalues_order_and_seeds():
    # sigma from the member columns, then significance_sigma on child 0 and
    # each member's member_contribution on child 1 + i
    pool = noise_pool(4, 10, 200, seed=123)
    d, truth = synth_dataset([equicorrelated(3, -0.45)], 7, 200, np.random.SeedSequence(124))
    s = dataset.standardize(d)
    got = list(stats._pvalues(s, truth[0][::-1], pool, 300, 100, np.random.SeedSequence(125)))
    subs = np.random.SeedSequence(125).spawn(4)
    sigma = stats._members_sigma(s, tuple(truth[0]))[2]
    assert sigma == pytest.approx(measures.linear_dependence(dataset.correlation_matrix(s), truth[0]), abs=1e-12)
    want = [sigma, significance_sigma(sigma, 3, pool, 300, subs[0])]
    want += [member_contribution(s, truth[0], m, pool, 100, subs[1 + i]) for i, m in enumerate(truth[0])]
    assert got == want
