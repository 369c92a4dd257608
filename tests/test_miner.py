"""Mining pipeline tests: extraction branches, maximality filtering, and
oracle equivalence against exhaustive search."""

import itertools
import json
import re
import time
from collections import Counter

import numpy as np
import pytest

from multipoles import cli, dataset, graph, linalg, measures, miner
from multipoles.measures import MultipoleRecord, SignedSet
from multipoles.miner import (
    MinerConfig,
    MiningBudgetExceeded,
    brute_force,
    extract_from_candidate,
    mine,
    random_search,
    remove_non_maximal,
)


def equicorrelated(k, r):
    a = np.full((k, k), r)
    np.fill_diagonal(a, 1.0)
    return a


def random_correlation(rng, k):
    g = rng.normal(size=(k, k + 3))
    cov = g @ g.T
    d = np.sqrt(np.diag(cov))
    c = cov / np.outer(d, d)
    np.fill_diagonal(c, 1.0)
    return c


def gaussian_dataset(cov, T, seed, extra_noise=0):
    """Sample T rows from N(0, cov), appending independent noise columns.

    Uses an eigen square root so singular covariances (exact cancellation)
    are allowed."""
    rng = np.random.default_rng(seed)
    k = cov.shape[0]
    w, v = np.linalg.eigh(cov)
    root = v * np.sqrt(np.clip(w, 0.0, None))
    x = rng.standard_normal((T, k)) @ root.T
    if extra_noise:
        x = np.column_stack([x, rng.standard_normal((T, extra_noise))])
    names = tuple(f"v{i}" for i in range(x.shape[1]))
    return dataset.standardize(
        dataset.TimeSeriesDataset(names=names, values=x)
    )


def two_blocks():
    """Covariance of a 3-block at -0.45 and a 4-block at -0.3 on 7 variables."""
    cov = np.eye(7)
    cov[np.ix_([0, 1, 2], [0, 1, 2])] = equicorrelated(3, -0.45)
    cov[np.ix_([3, 4, 5, 6], [3, 4, 5, 6])] = equicorrelated(4, -0.3)
    return cov


def record_for(A, members, signs=None):
    sub = list(members)
    sigma = measures.linear_dependence(A, sub)
    gain = measures.linear_gain(A, sub)
    if signs is None:
        signs = (1,) * len(sub)
    return MultipoleRecord(
        signed=SignedSet(members=tuple(sub), signs=tuple(signs)),
        sigma=sigma,
        gain=gain,
        weights=(1.0,) * len(sub),
    )


# ---------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(ValueError):
        MinerConfig(sigma_threshold=1.5)
    with pytest.raises(ValueError):
        MinerConfig(delta_threshold=0.0)
    with pytest.raises(ValueError):
        MinerConfig(rho=-2.0)
    with pytest.raises(ValueError):
        MinerConfig(max_size=2)


def test_config_default_max_size_tracks_delta():
    assert MinerConfig(delta_threshold=0.15).resolved_max_size() == 7
    assert MinerConfig(delta_threshold=0.2).resolved_max_size() == 6
    assert MinerConfig(delta_threshold=0.5).resolved_max_size() == 3
    # explicit max_size wins
    assert MinerConfig(delta_threshold=0.15, max_size=4).resolved_max_size() == 4
    # gain cap 1/(k-1) can never be met below size 3
    assert MinerConfig(delta_threshold=1.0).resolved_max_size() == 3


# ---------------------------------------------------------------- extraction


def cand(members, signs=None):
    if signs is None:
        signs = (1,) * len(members)
    return SignedSet(members=tuple(members), signs=tuple(signs))


def test_extract_returns_candidate_when_it_qualifies():
    a = equicorrelated(3, -0.5)
    cfg = MinerConfig(sigma_threshold=0.5, delta_threshold=0.15)
    recs = extract_from_candidate(a, cand([0, 1, 2]), cfg)
    assert len(recs) == 1
    assert recs[0].members == (0, 1, 2)
    assert recs[0].sigma == pytest.approx(1.0, abs=1e-9)
    assert recs[0].gain == pytest.approx(0.5, abs=1e-9)


def test_extract_prunes_low_sigma_candidates():
    a = equicorrelated(4, -0.05)  # sigma well below 0.5
    cfg = MinerConfig(sigma_threshold=0.5, delta_threshold=0.15)
    assert extract_from_candidate(a, cand([0, 1, 2, 3]), cfg) == []


def test_extract_enumerates_subsets_against_exhaustive():
    # candidate passes sigma but not gain, so subsets must be searched
    rng = np.random.default_rng(60)
    cfg = MinerConfig(sigma_threshold=0.5, delta_threshold=0.2)
    checked = 0
    for _ in range(200):
        if checked == 15:
            break
        a = random_correlation(rng, 5)
        sub = list(range(5))
        sigma = measures.linear_dependence(a, sub)
        gain = measures.linear_gain(a, sub)
        if sigma < cfg.sigma_threshold or gain >= cfg.delta_threshold:
            continue
        checked += 1
        got = {
            r.members for r in extract_from_candidate(a, cand(sub), cfg)
        }
        want = set()
        for size in (3, 4, 5):
            for s in itertools.combinations(sub, size):
                if (
                    measures.linear_dependence(a, list(s)) >= cfg.sigma_threshold
                    and measures.linear_gain(a, list(s)) >= cfg.delta_threshold
                ):
                    want.add(s)
        assert got == want
    assert checked == 15


def test_extract_does_not_search_below_a_qualifying_set(monkeypatch):
    # (0, 2, 4) lies only inside (0, 1, 2, 4) and (0, 2, 3, 4), both reached
    # by descent from the candidate and both qualifying: it is scored for
    # their gains but not searched, so its child (2, 4) is never scored and it
    # is no record. (0, 2, 3) is inside (0, 2, 3, 4) too, but is also reached
    # through (0, 1, 2, 3), which misses delta.
    a = np.array([
        [1.0, 0.45, 0.47, 0.57, -0.22],
        [0.45, 1.0, 0.03, 0.5, 0.04],
        [0.47, 0.03, 1.0, 0.08, 0.27],
        [0.57, 0.5, 0.08, 1.0, 0.01],
        [-0.22, 0.04, 0.27, 0.01, 1.0],
    ])
    cfg = MinerConfig(sigma_threshold=0.5, delta_threshold=0.1)
    scored = []
    lambda_min = miner._lambda_min

    def recording(M, members, *screens):
        scored.extend(members)
        return lambda_min(M, members, *screens)

    monkeypatch.setattr(miner, "_lambda_min", recording)
    recs = extract_from_candidate(a, cand(range(5)), cfg)
    assert (0, 2, 4) in scored and (2, 4) not in scored
    assert len(scored) == len(set(scored)) == 25
    assert [r.members for r in recs] == [(0, 2, 3, 4), (0, 1, 2, 4), (0, 2, 3), (0, 1, 2)]
    maximal = [(0, 1, 2, 4), (0, 2, 3, 4)]
    assert [r.members for r in remove_non_maximal(recs)] == maximal
    assert [r.members for r in brute_force(a, cfg)] == maximal
    assert [r.members for r in mine(a, MinerConfig(sigma_threshold=0.5, delta_threshold=0.1, rho=1.0))] == maximal


def test_extract_respects_max_size():
    a = equicorrelated(5, -0.24)
    cfg = MinerConfig(sigma_threshold=0.3, delta_threshold=0.1, max_size=3)
    recs = extract_from_candidate(a, cand(range(5)), cfg)
    assert recs and all(r.size <= 3 for r in recs)


def test_extract_records_are_self_consistent():
    rng = np.random.default_rng(61)
    cfg = MinerConfig(sigma_threshold=0.4, delta_threshold=0.05)
    for _ in range(50):
        a = random_correlation(rng, 5)
        for r in extract_from_candidate(a, cand(range(5)), cfg):
            sub = list(r.members)
            assert r.sigma == pytest.approx(
                measures.linear_dependence(a, sub), abs=1e-9
            )
            assert r.gain == pytest.approx(measures.linear_gain(a, sub), abs=1e-9)
            assert abs(np.linalg.norm(r.weights) - 1.0) < 1e-9


# ---------------------------------------------------------------- maximality


def test_remove_non_maximal_eliminates_subsets():
    a = equicorrelated(4, -1 / 3)
    recs = [record_for(a, [0, 1, 2]), record_for(a, [0, 1, 2, 3])]
    out = remove_non_maximal(recs)
    assert [r.members for r in out] == [(0, 1, 2, 3)]


def test_remove_non_maximal_drops_duplicates():
    a = equicorrelated(3, -0.5)
    recs = [record_for(a, [0, 1, 2]), record_for(a, [0, 1, 2])]
    assert len(remove_non_maximal(recs)) == 1


def test_remove_non_maximal_keeps_overlapping_sets():
    a = equicorrelated(5, -0.2)
    recs = [record_for(a, [0, 1, 2]), record_for(a, [1, 2, 3])]
    out = remove_non_maximal(recs)
    assert sorted(r.members for r in out) == [(0, 1, 2), (1, 2, 3)]


def blocking_reference(keys):
    """Positions kept by the former filter: each accepted key blocks all 2^k
    of its subsets, and a key is accepted unless it is blocked."""
    blocked = set()
    kept = []
    for t, key in enumerate(keys):
        if frozenset(key) in blocked:
            continue
        kept.append(t)
        for size in range(len(key) + 1):
            blocked.update(frozenset(c) for c in itertools.combinations(key, size))
    return kept


def random_family(rng, universe, count):
    """Member sets of sizes 3..8, half of them drawn inside earlier sets so
    that containment and duplicates are common."""
    sets = []
    for _ in range(count):
        if sets and rng.random() < 0.5:
            parent = sets[rng.integers(len(sets))]
            size = int(rng.integers(3, len(parent) + 1))
            members = rng.choice(parent, size=size, replace=False)
        else:
            members = rng.choice(universe, size=int(rng.integers(3, 9)), replace=False)
        sets.append(sorted(members.tolist()))
    return sets


def test_remove_non_maximal_matches_blocking_reference():
    rng = np.random.default_rng(73)
    for _ in range(30):
        recs = [
            MultipoleRecord(
                signed=SignedSet(members=tuple(m), signs=(1,) * len(m)),
                sigma=float(rng.random()),
                gain=float(rng.random()),
                weights=(1.0,) * len(m),
            )
            for m in random_family(rng, 12, 40)
        ]
        ordered = sorted(recs, key=lambda r: (-r.size, r.signed))
        want = [ordered[t].members for t in blocking_reference([r.members for r in ordered])]
        got = remove_non_maximal(recs)
        assert [r.members for r in got] == want


def test_merge_by_names_matches_blocking_reference():
    rng = np.random.default_rng(74)
    names = [f"x{i:02d}" for i in range(12)]
    for _ in range(30):
        rows = [
            {"members": [names[i] for i in m], "linear_dependence": float(rng.random()),
             "linear_gain": float(rng.random())}
            for m in random_family(rng, 12, 40)
        ]
        ordered = sorted(rows, key=lambda d: (-len(d["members"]), tuple(d["members"])))
        want = [ordered[t] for t in blocking_reference([d["members"] for d in ordered])]
        want.sort(key=lambda d: (-d["linear_gain"], -d["linear_dependence"], tuple(d["members"])))
        assert miner.merge_by_names([rows]) == want


# ---------------------------------------------------------------- mine


def test_mine_recovers_planted_equicorrelated_triple():
    d = gaussian_dataset(equicorrelated(3, -0.5), T=5000, seed=62)
    cfg = MinerConfig(sigma_threshold=0.5, delta_threshold=0.15, rho=0.0)
    recs = mine(d, cfg)
    assert len(recs) == 1
    assert recs[0].members == (0, 1, 2)
    assert abs(recs[0].sigma - 1.0) < 0.05
    assert abs(recs[0].gain - 0.5) < 0.05


def test_mine_white_noise_is_empty():
    rng = np.random.default_rng(63)
    d = dataset.standardize(
        dataset.TimeSeriesDataset(
            names=tuple(f"n{i}" for i in range(20)),
            values=rng.standard_normal((2000, 20)),
        )
    )
    cfg = MinerConfig(sigma_threshold=0.5, delta_threshold=0.15)
    assert mine(d, cfg) == []


def test_mine_accepts_matrix_input():
    a = equicorrelated(3, -0.5)
    cfg = MinerConfig(sigma_threshold=0.5, delta_threshold=0.15)
    recs = mine(a, cfg)
    assert len(recs) == 1 and recs[0].sigma == pytest.approx(1.0, abs=1e-9)


def malformed(kind):
    a = equicorrelated(3, -0.5)
    if kind == "nan":
        a[0, 1] = a[1, 0] = np.nan
    elif kind == "asymmetric":
        a[0, 1] = -0.9  # a[1, 0] stays -0.5
    else:
        a = 3.0 * a  # diagonal 3, gain 1.5 above the 1/(k-1) cap
    return a


def random_search_10(A, cfg):
    return random_search(A, cfg, trials=10)


def build_graph(A, cfg):
    return graph.build_graph(A, cfg.rho)


@pytest.mark.parametrize("search", [mine, brute_force, random_search_10, build_graph])
@pytest.mark.parametrize("kind", ["nan", "asymmetric", "scaled"])
def test_raw_matrix_input_is_validated(search, kind):
    cfg = MinerConfig(sigma_threshold=0.5, delta_threshold=0.15)
    with pytest.raises(ValueError):
        search(malformed(kind), cfg)


@pytest.mark.parametrize("search", [mine, brute_force, random_search_10, build_graph])
def test_corrcoef_input_is_accepted(search):
    a = np.corrcoef(np.random.default_rng(0).standard_normal((7, 50)))
    assert np.any(np.diag(a) != 1.0)  # np.corrcoef leaves it an ulp off
    search(a, MinerConfig())


def test_near_symmetric_input_mines_like_its_transpose():
    # asymmetry within the 1e-9 tolerance must not give one-way graph edges
    a = np.array([[1, -.4, -.4, 0], [-.4, 1, -.4, -.3], [-.4, -.4, 1, -.3], [0, -.3, -.3, 1]])
    a[0, 3], a[3, 0] = 1e-13, -1e-13
    cfg = MinerConfig(sigma_threshold=0.5, delta_threshold=0.1)
    graphs = [graph.build_graph(m, 0.0) for m in (a, a.T)]
    for g in graphs:
        assert all(i in g.adjacency[j] for i, nbrs in enumerate(g.adjacency) for j in nbrs)
    assert graphs[0] == graphs[1]
    assert graph.maximal_cliques(graphs[0], 3) == graph.maximal_cliques(graphs[1], 3) == [(0, 1, 2, 3)]
    assert mine(a, cfg) == mine(a.T, cfg) != []


def test_candidate_above_the_eigensolver_cap_is_a_stop():
    # 70 white-noise variables: the lattice cannot score the 70-set, which is
    # a stop with no records, not a failure of the input
    d = dataset.standardize(dataset.TimeSeriesDataset(
        names=tuple(f"v{i}" for i in range(70)), values=np.random.default_rng(74).normal(size=(300, 70))))
    with pytest.raises(MiningBudgetExceeded, match="skipped 1 member set.* of size 70") as exc:
        extract_from_candidate(d, SignedSet(members=tuple(range(70)), signs=(1,) * 70), MinerConfig())
    assert exc.value.partial == []


def test_mine_matches_brute_force_at_rho_one():
    cfg = MinerConfig(sigma_threshold=0.5, delta_threshold=0.15, rho=1.0)
    for seed in range(8):
        d = gaussian_dataset(equicorrelated(3, -0.45), T=400, seed=seed, extra_noise=7)
        got = mine(d, cfg)
        want = brute_force(d, cfg)
        assert got == want


def test_mine_is_monotone_in_rho():
    d = gaussian_dataset(equicorrelated(4, -0.32), T=600, seed=64, extra_noise=6)
    base = MinerConfig(sigma_threshold=0.5, delta_threshold=0.1)
    families = []
    for rho in (-0.1, -0.05, 0.0, 0.1, 1.0):
        cfg = MinerConfig(
            sigma_threshold=base.sigma_threshold,
            delta_threshold=base.delta_threshold,
            rho=rho,
        )
        families.append({r.members for r in mine(d, cfg)})
    for small, large in zip(families, families[1:]):
        assert small <= large


def test_mine_output_is_maximal_and_sorted():
    # two disjoint planted triples
    cov = np.eye(6)
    cov[np.ix_([0, 1, 2], [0, 1, 2])] = equicorrelated(3, -0.45)
    cov[np.ix_([3, 4, 5], [3, 4, 5])] = equicorrelated(3, -0.40)
    d = gaussian_dataset(cov, T=2000, seed=65, extra_noise=4)
    cfg = MinerConfig(sigma_threshold=0.5, delta_threshold=0.1, rho=0.05)
    recs = mine(d, cfg)
    assert len(recs) >= 2
    members = [set(r.members) for r in recs]
    for a, b in itertools.combinations(range(len(members)), 2):
        assert not (members[a] < members[b] or members[b] < members[a])
    gains = [r.gain for r in recs]
    assert gains == sorted(gains, reverse=True)


def test_mine_soundness_reevaluated_via_measures():
    d = gaussian_dataset(equicorrelated(4, -0.32), T=700, seed=66, extra_noise=6)
    A = dataset.correlation_matrix(d)
    cfg = MinerConfig(sigma_threshold=0.45, delta_threshold=0.05, rho=0.1)
    for r in mine(d, cfg):
        sub = list(r.members)
        assert measures.linear_dependence(A, sub) >= cfg.sigma_threshold - 1e-9
        assert measures.linear_gain(A, sub) >= cfg.delta_threshold - 1e-9


def test_dedup_candidates_keeps_each_member_set_once():
    # cliques of one member set with different signs are one candidate, as a
    # sorted tuple of variables, in the order first seen
    g = graph.build_graph(np.eye(4), rho=0.0)
    cliques = [(1, 2, 7), (0, 5, 6), (1, 6, 7), (0, 1, 2), (2, 5, 7)]
    assert miner._dedup_candidates(g, cliques) == [(1, 2, 3), (0, 1, 2)]


def test_mine_equals_per_candidate_extraction():
    # the lattice mine shares across candidates must give what extracting each candidate
    # alone gives, over candidates of mixed sizes, some above max_size
    sizes = set()
    for seed in (67, 68, 69):
        d = gaussian_dataset(two_blocks(), T=400, seed=seed, extra_noise=6)
        A = dataset.correlation_matrix(d)
        for rho in (-0.05, 0.0):
            cfg = MinerConfig(sigma_threshold=0.3, delta_threshold=0.05, rho=rho, max_size=4)
            g = graph.build_graph(A.entries, rho)
            candidates = miner._dedup_candidates(g, graph.maximal_cliques(g, min_size=3))
            sizes |= {len(c) for c in candidates}
            per_candidate = [
                r for c in candidates for r in extract_from_candidate(A, SignedSet(members=c, signs=(1,) * len(c)), cfg)
            ]
            want = miner._final_sort(remove_non_maximal(per_candidate))
            assert want and mine(d, cfg) == want
    assert {3, 4, 5} <= sizes


@pytest.mark.parametrize("search", ["mine", "brute"])
def test_no_member_set_is_solved_twice(monkeypatch, search):
    # one lattice with one memo: overlapping candidates, and brute force's
    # subsets and their deletions, share every eigenvalue solve
    if search == "mine":
        data = gaussian_dataset(two_blocks(), T=400, seed=68, extra_noise=6)
        cfg = MinerConfig(sigma_threshold=0.3, delta_threshold=0.05, rho=0.05, max_size=4)
    else:
        # validated before the solves are counted
        data = dataset.CorrelationMatrix(entries=random_correlation(np.random.default_rng(73), 8))
        cfg = MinerConfig(sigma_threshold=0.3, delta_threshold=0.01)
    solved = Counter()
    eigh_many = linalg.eigh_many

    def counting(mats, vectors=True):
        if not vectors:
            solved.update(m.tobytes() for m in mats)
        return eigh_many(mats, vectors)

    monkeypatch.setattr(linalg, "eigh_many", counting)
    assert (mine if search == "mine" else brute_force)(data, cfg)
    assert max(solved.values()) == 1


def edge_sigmas(max_size, sigma_of):
    """Sigma thresholds that put a set's smallest eigenvalue at the edges of the screens.

    sigma_of maps member tuples to their dependence d = 1 - lambda_min. For
    each size it covers, take the set of the highest dependence (up to
    max_size) or of the median one (above it). sigma = d - 1e-12 is just
    reached by that set, and sigma = d + 1e-9 -+ 1e-12 puts its lambda_min
    just either side of the cut 1 - sigma + 1e-9, above which the fail
    certificate's factorization succeeds. Above max_size also sigma =
    d - 1e-9 -+ 1e-12 puts lambda_min just either side of the reach
    certificate's shift 1 - sigma - 1e-9, and sigma = d -+ 5e-10 puts it
    inside the band between the two, where only Jacobi decides.
    """
    out = []
    for size in sorted({len(s) for s in sigma_of}):
        ds = sorted(d for s, d in sigma_of.items() if len(s) == size)
        if size <= max_size:
            d = ds[-1]
            out += [d - 1e-12, d + 1e-9 + 1e-12, d + 1e-9 - 1e-12]
        else:
            d = ds[len(ds) // 2]
            out += [d + 1e-9 + 1e-12, d + 1e-9 - 1e-12, d - 1e-9 + 1e-12, d - 1e-9 - 1e-12, d + 5e-10, d - 5e-10]
    return out


def test_screened_searches_match_direct_evaluation():
    # Around each screen's threshold every search returns exactly the sets
    # that measures.linear_dependence / linear_gain qualify. Variable 7 is
    # uncorrelated with the 4-block, so adding it leaves the block's
    # dependence as it is: a set above the size cap and its child share their
    # smallest eigenvalue, and a screen that decided either wrongly would
    # drop the block.
    rng = np.random.default_rng(76)
    A = np.eye(8) + np.triu(rng.uniform(-0.02, 0.02, (8, 8)), 1)
    A[np.ix_([0, 1, 2], [0, 1, 2])] = equicorrelated(3, -0.4)
    A[np.ix_([3, 4, 5, 6], [3, 4, 5, 6])] = equicorrelated(4, -0.25)
    A[3:7, 7] = 0.0
    A = np.triu(A) + np.triu(A, 1).T
    n, max_size, delta = A.shape[0], 4, 0.05
    subsets = [s for size in range(3, n + 1) for s in itertools.combinations(range(n), size)]
    sigma_of = {s: measures.linear_dependence(A, s) for s in subsets}
    gain_of = {s: measures.linear_gain(A, s) for s in subsets if len(s) <= max_size}
    sigmas = edge_sigmas(max_size, sigma_of)
    assert len(sigmas) == 30 and all(0.0 < x < 1.0 for x in sigmas)
    found = 0
    for sigma in sigmas:
        cfg = MinerConfig(sigma_threshold=sigma, delta_threshold=delta, max_size=max_size, rho=1.0)
        want = {s for s, g in gain_of.items() if sigma_of[s] >= sigma and g >= delta}
        maximal = {s for s in want if not any(set(s) < set(t) for t in want)}
        found += len(want)
        assert {r.members for r in brute_force(A, cfg)} == maximal
        assert mine(A, cfg) == brute_force(A, cfg)
        assert {r.members for r in random_search(A, cfg, trials=3000, seed=75)} == want
        assert {r.members for r in extract_from_candidate(A, cand(range(n)), cfg)} == want
    assert found


@pytest.fixture(scope="module")
def oracle_shaped(tmp_path_factory):
    """Standardized datasets shaped like the benchmark's oracle inputs: 12
    variables, T = 500, planted sets of sizes 5 and 5, or 3 and 5, written by
    multipole synth and read back as mine reads them."""
    out = {}
    for sizes in ("5", "3,5"):
        base = str(tmp_path_factory.mktemp("oracle") / "d")
        argv = ["synth", "--plant", "2", "--sizes", sizes, "--noise-to", "12", "--T", "500", "--seed", "11", "--out", base]
        assert cli.main(argv) == 0
        out[sizes] = dataset.standardize(dataset.load_csv(base + ".csv"))
    return out


def dependences(A, sizes):
    """Dependence of every subset of the given sizes, one eigh_many stack per size."""
    out = {}
    for size in sizes:
        subsets = list(itertools.combinations(range(A.shape[0]), size))
        lam = linalg.eigh_many(miner._gather(A, np.asarray(subsets)), vectors=False)[0]
        out.update(zip(subsets, measures._sigma_of(lam)))
    return out


@pytest.mark.parametrize("sizes", ["5", "3,5"])
def test_screened_lattice_is_the_unscreened_walk_bit_for_bit(monkeypatch, oracle_shaped, sizes):
    # The unscreened reference sets every cut to inf and drops the reach
    # certificate, so every tuple is solved. Each search must score the same
    # tuples in the same order (every survive or skip decision is the same)
    # and give the same result dicts. The band sigmas leave some set above
    # the size cap to Jacobi.
    d = oracle_shaped[sizes]
    A = dataset.correlation_matrix(d)
    n, max_size = A.dim, MinerConfig().resolved_max_size()
    walk = {"screened": True, "scored": [], "above_cap": 0}
    lambda_min, eigh_many = miner._lambda_min, linalg.eigh_many

    def scoring(M, members, *screens):
        walk["scored"].append(members)
        return lambda_min(M, members, *(screens if walk["screened"] else (np.full(len(members), np.inf),)))

    def counting(mats, vectors=True):
        if walk["screened"] and mats.shape[1] > max_size:
            walk["above_cap"] += len(mats)
        return eigh_many(mats, vectors)

    monkeypatch.setattr(miner, "_lambda_min", scoring)
    monkeypatch.setattr(linalg, "eigh_many", counting)
    searches = {
        "mine": lambda cfg: mine(d, cfg),
        "extract": lambda cfg: extract_from_candidate(A, cand(range(n)), cfg),
        "brute": lambda cfg: brute_force(A, cfg),
    }
    sigmas = [0.5, *edge_sigmas(max_size, dependences(A.entries, (max_size, max_size + 1, n)))]
    for sigma in sigmas:
        cfg = MinerConfig(sigma_threshold=sigma, rho=1.0)
        for name, search in searches.items():
            walks = []
            for walk["screened"] in (True, False):
                walk["scored"] = []
                walks.append((miner.records_to_dicts(search(cfg)), walk["scored"]))
            assert walks[0] == walks[1], (name, sigma)
    assert walk["above_cap"] > 0


def test_mine_solves_nothing_above_the_size_cap_on_the_oracle_shape(monkeypatch, oracle_shaped):
    # At rho = 1 the one candidate is all 12 variables. Every set above the
    # cap is decided by its Cholesky screens, so Jacobi sees sizes 2..7 only:
    # 2,896 matrices, where solving the sets above the cap made it 3,711.
    cfg = MinerConfig(rho=1.0)
    solved = Counter()
    eigh_many = linalg.eigh_many

    def counting(mats, vectors=True):
        solved[mats.shape[1]] += len(mats)
        return eigh_many(mats, vectors)

    monkeypatch.setattr(linalg, "eigh_many", counting)
    assert mine(oracle_shaped["5"], cfg)
    assert max(solved) <= cfg.resolved_max_size()
    assert sum(solved.values()) <= 2896


@pytest.mark.parametrize("search", ["mine", "brute"])
def test_screen_solves_fewer_sets_than_it_scores(monkeypatch, search):
    # on white noise most sets are certified to fail sigma by their shifted
    # Cholesky factorization, and none is solved twice
    data = gaussian_dataset(np.eye(3), T=100, seed=74, extra_noise=9)
    scored = []
    solved = Counter()
    lambda_min, eigh_many = miner._lambda_min, linalg.eigh_many

    def scoring(M, members, *screens):
        scored.append(len(members))
        return lambda_min(M, members, *screens)

    def counting(mats, vectors=True):
        if not vectors:
            solved.update(m.tobytes() for m in mats)
        return eigh_many(mats, vectors)

    monkeypatch.setattr(miner, "_lambda_min", scoring)
    monkeypatch.setattr(linalg, "eigh_many", counting)
    assert (mine if search == "mine" else brute_force)(data, MinerConfig(sigma_threshold=0.3)) == []
    assert 0 < sum(solved.values()) < sum(scored)
    assert max(solved.values()) == 1


def test_mine_clique_budget_carries_partial_results():
    d = gaussian_dataset(equicorrelated(3, -0.5), T=400, seed=68, extra_noise=9)
    cfg = MinerConfig(
        sigma_threshold=0.5, delta_threshold=0.15, rho=1.0, budget=3
    )
    with pytest.raises(MiningBudgetExceeded) as exc:
        mine(d, cfg)
    assert isinstance(exc.value.partial, list)
    assert str(exc.value).startswith("clique stage stopped at the budget of 3 cliques")


def test_lattice_budget_keeps_the_records_made_before_the_stop():
    # a stop at size s comes after the sets of size s + 2 and up are scored
    d = gaussian_dataset(two_blocks(), T=600, seed=5, extra_noise=3)
    full = mine(d, MinerConfig(rho=1.0))
    kept = []
    for budget in (600, 850, 930):  # 2^9 cliques fit: only the lattice stops
        with pytest.raises(MiningBudgetExceeded) as exc:
            mine(d, MinerConfig(rho=1.0, budget=budget))
        match = re.fullmatch(r"subset lattice stopped at size (\d+): .* budget of \d+ sets", str(exc.value))
        stop = int(match.group(1))
        assert exc.value.partial == [r for r in full if r.size >= stop + 2]
        kept += exc.value.partial
    assert [r.members for r in kept] == [(3, 4, 5, 6)]


# ---------------------------------------------------------------- brute force


def test_brute_force_orthogonal_is_empty():
    cfg = MinerConfig(sigma_threshold=0.5, delta_threshold=0.15)
    assert brute_force(np.eye(5), cfg) == []


def test_brute_force_finds_planted_triple():
    d = gaussian_dataset(equicorrelated(3, -0.5), T=3000, seed=69, extra_noise=7)
    cfg = MinerConfig(sigma_threshold=0.6, delta_threshold=0.2)
    recs = brute_force(d, cfg)
    assert [r.members for r in recs] == [(0, 1, 2)]


def test_brute_force_subset_budget():
    cfg = MinerConfig(sigma_threshold=0.5, delta_threshold=0.15, budget=100)
    with pytest.raises(MiningBudgetExceeded):
        brute_force(np.eye(40), cfg)


def test_searches_on_two_variables_are_empty():
    a = np.array([[1.0, -0.5], [-0.5, 1.0]])
    cfg = MinerConfig()
    assert mine(a, cfg) == brute_force(a, cfg) == random_search(a, cfg, trials=5) == []


# ---------------------------------------------------------------- random search


def test_random_search_zero_trials():
    cfg = MinerConfig(sigma_threshold=0.5, delta_threshold=0.15)
    assert random_search(np.eye(5), cfg, trials=0) == []


def test_random_search_finds_planted_triple():
    a = np.eye(10)
    a[np.ix_([2, 5, 7], [2, 5, 7])] = equicorrelated(3, -0.5)
    cfg = MinerConfig(sigma_threshold=0.5, delta_threshold=0.15)
    recs = random_search(a, cfg, trials=100_000, seed=70)
    assert [r.members for r in recs] == [(2, 5, 7)]


def test_random_search_is_deterministic():
    rng = np.random.default_rng(71)
    a = random_correlation(rng, 8)
    cfg = MinerConfig(sigma_threshold=0.3, delta_threshold=0.01)
    assert random_search(a, cfg, trials=5000, seed=72) == random_search(a, cfg, trials=5000, seed=72)


def test_random_search_stops_drawing_past_the_budget(monkeypatch):
    # the lattice stops on more distinct draws than the budget, so no more
    # are drawn
    class Counting(np.random.Generator):
        calls = 0

        def choice(self, *args, **kwargs):
            Counting.calls += 1
            return super().choice(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", lambda seed: Counting(np.random.PCG64(seed)))
    with pytest.raises(MiningBudgetExceeded, match="budget of 100 sets") as e:
        random_search(np.eye(40), MinerConfig(budget=100), trials=10**5, seed=1)
    assert e.value.partial == []
    assert 101 <= Counting.calls <= 110


def test_random_search_stops_drawing_once_it_holds_every_subset(monkeypatch):
    # 6 variables have 42 subsets of sizes 3..6; a draw past the 42nd
    # distinct one adds nothing
    class Counting(np.random.Generator):
        calls = 0

        def choice(self, *args, **kwargs):
            Counting.calls += 1
            return super().choice(*args, **kwargs)

    a = np.eye(6)
    a[:3, :3] = equicorrelated(3, -0.5)
    cfg = MinerConfig(sigma_threshold=0.5, delta_threshold=0.15)
    monkeypatch.setattr(np.random, "default_rng", lambda seed: Counting(np.random.PCG64(seed)))
    recs = random_search(a, cfg, trials=10**5, seed=1)
    assert [r.members for r in recs] == [(0, 1, 2)]
    assert 42 <= Counting.calls < 1000
    assert random_search(a, cfg, trials=Counting.calls, seed=1) == recs


def test_random_search_reports_only_drawn_sets():
    # (0, 1, 2) qualifies; the 4-set around it clears sigma but has gain 0
    a = np.eye(4)
    a[:3, :3] = equicorrelated(3, -0.5)
    cfg = MinerConfig(sigma_threshold=0.5, delta_threshold=0.15)
    assert random_search(a, cfg, trials=1, seed=2) == []  # the one draw is the 4-set
    assert [r.members for r in random_search(a, cfg, trials=50, seed=2)] == [(0, 1, 2)]


# ---------------------------------------------------------------- io


def test_records_json_roundtrip(tmp_path):
    a = equicorrelated(3, -0.5)
    cfg = MinerConfig(sigma_threshold=0.5, delta_threshold=0.15)
    recs = mine(a, cfg)
    names = ("alpha", "beta", "gamma")
    p = tmp_path / "records.json"
    miner.write_records_json(recs, names, p)
    back = miner.read_records_json(p)
    assert len(back) == 1
    assert back[0]["members"] == ["alpha", "beta", "gamma"]
    assert back[0]["signs"] == [1, 1, 1]
    assert back[0]["linear_dependence"] == pytest.approx(1.0, abs=1e-9)


def test_records_csv_has_one_row_per_record(tmp_path):
    a = equicorrelated(3, -0.5)
    cfg = MinerConfig(sigma_threshold=0.5, delta_threshold=0.15)
    recs = mine(a, cfg)
    p = tmp_path / "records.csv"
    miner.write_records_csv(recs, ("a", "b", "c"), p)
    lines = p.read_text().strip().splitlines()
    assert lines[0].startswith("members,")
    assert len(lines) == 1 + len(recs)


def test_records_json_refuses_non_finite_numbers(tmp_path):
    # json.dump would write NaN, which is not JSON
    with pytest.raises(ValueError, match="not JSON compliant"):
        miner.write_dicts_json([{"members": ["a", "b", "c"], "linear_gain": float("nan")}], tmp_path / "out.json")


def test_merge_by_names_blocks_subsets():
    rows = [
        {"members": ["a", "b", "c"], "signs": [1, 1, -1],
         "linear_dependence": 0.8, "linear_gain": 0.2, "weights": [0.6, 0.6, 0.5], "size": 3},
        {"members": ["a", "b", "c", "d"], "signs": [1, 1, -1, 1],
         "linear_dependence": 0.85, "linear_gain": 0.18, "weights": [0.5, 0.5, 0.5, 0.5], "size": 4},
        {"members": ["x", "y", "z"], "signs": [1, -1, 1],
         "linear_dependence": 0.7, "linear_gain": 0.3, "weights": [0.6, 0.6, 0.5], "size": 3},
    ]
    merged = miner.merge_by_names([rows])
    got = [tuple(r["members"]) for r in merged]
    assert ("a", "b", "c") not in got
    assert ("a", "b", "c", "d") in got and ("x", "y", "z") in got


def test_merge_by_names_twenty_member_row():
    # blocking every subset of the 20-member row would build about 10^6 sets
    big = [f"m{i:02d}" for i in range(20)]
    rows = [{"members": big, "linear_gain": 0.2}]
    rows += [{"members": big[:j] + big[j + 1:], "linear_gain": 0.3} for j in range(20)]
    rows += [{"members": big[j:j + 3], "linear_gain": 0.4} for j in range(18)]
    rows += [{"members": ["m00", "m01", "outside"], "linear_gain": 0.1}]
    t0 = time.perf_counter()
    merged = miner.merge_by_names([rows])
    assert time.perf_counter() - t0 < 1.0
    assert [r["members"] for r in merged] == [big, ["m00", "m01", "outside"]]


@pytest.mark.parametrize(
    "entry",
    [
        {"signs": [1, 1, 1]},
        {"members": "a,b,c"},
        {"members": ["a", "b"]},
        {"members": ["a", "b", "a"]},
        {"members": ["a", "b", 3]},
    ],
)
def test_read_records_json_rejects_malformed_members(tmp_path, entry):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps([{"members": ["a", "b", "c"]}, entry]))
    with pytest.raises(ValueError, match="entry 1"):
        miner.read_records_json(p)
