"""The benchmark's workloads: inputs made from a seed, the command-line jobs
of one pass, and the checks on every job's output.

Each workload turns the benchmark seed into its own seeds, so the program
only ever sees generated CSV files and command-line flags. Sizes were
chosen on a 2-core x86-64 box so that one pass takes 2-4 s and several
passes fit in a run: the more often each job is timed, the steadier its
median time on a noisy host. ``tiny`` sizes are for the harness
self-check.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass

# Seeds 0..63 have reference digests, recorded from the code at the commit
# that added this benchmark. The held-out seed is recorded too but is kept
# out of tuning: a claimed gain must also hold on it.
REFERENCE_SEEDS = range(64)
HELD_OUT_SEED = 90001


@dataclass
class Job:
    """One command-line invocation and what its output must satisfy."""

    name: str
    argv: list[str]
    out: str
    suffixes: tuple[str, ...] = (".json", ".csv")
    planted: list[list[str]] | None = None
    recover: str = ""  # "all": every planted set found; "reference": at least the reference count
    same_as: str | None = None  # result bytes must equal this job's, in the same pass
    bounds_rows: int = 0  # sampler: expected row count, with zero violations

    def result_files(self) -> list[str]:
        return [self.out + s for s in self.suffixes]


def _synth(synth, base: str, plant: int, sizes: str, n: int, T: int, seed: int) -> list[list[str]]:
    """Write base.csv through ``multipole synth``; return the planted name sets."""
    code = synth(["synth", "--plant", str(plant), "--sizes", sizes, "--noise-to", str(n),
                  "--T", str(T), "--seed", str(seed), "--out", base])
    if code != 0:
        raise RuntimeError(f"multipole synth exited {code} for {base}")
    with open(base + ".truth.json", encoding="utf-8") as fh:
        return json.load(fh)["planted"]


def _mine_dense(synth, rng, dirs, tiny):
    count, n, T, plant = (1, 12, 300, 2) if tiny else (6, 20, 1000, 4)
    jobs = []
    for d in range(count):
        base = os.path.join(dirs["in"], f"d{d}")
        planted = _synth(synth, base, plant, "3,4", n, T, rng.getrandbits(32))
        out = os.path.join(dirs["out"], f"d{d}-mine")
        jobs.append(Job(f"d{d}/mine", ["mine", "--input", base + ".csv", "--out", out], out,
                        planted=planted, recover="all"))
    return jobs


def _mine_sparse(synth, rng, dirs, tiny):
    n, T, plant = (60, 300, 3) if tiny else (500, 1000, 16)
    base = os.path.join(dirs["in"], "sparse")
    planted = _synth(synth, base, plant, "3,4,5", n, T, rng.getrandbits(32))
    jobs = []
    for rho in ("-0.15", "-0.10"):
        out = os.path.join(dirs["out"], f"rho{rho}")
        argv = ["mine", "--input", base + ".csv", "--sigma", "0.7", "--delta", "0.1", "--rho", rho, "--out", out]
        jobs.append(Job(f"rho{rho}/mine", argv, out, planted=planted, recover="reference"))
    return jobs


# Planted set sizes of the oracle datasets: 0-2 sets of 3-5 members each. The
# mix is the same for every seed, so that seeds differ in data, not in how
# much lattice descent the mix asks for.
ORACLE_PLANTS = ([], [4], [3, 5], [5, 5])


def _oracle(synth, rng, dirs, tiny):
    plants, n, T = (ORACLE_PLANTS[:2], 8, 300) if tiny else (ORACLE_PLANTS, 12, 500)
    jobs = []
    for d, sizes in enumerate(plants):
        # synth spreads --plant over the distinct --sizes, so equal sizes are given once
        plant_sizes = ",".join(str(s) for s in sorted(set(sizes))) or "3"
        base = os.path.join(dirs["in"], f"d{d}")
        _synth(synth, base, len(sizes), plant_sizes, n, T, rng.getrandbits(32))
        mine_out = os.path.join(dirs["out"], f"d{d}-mine")
        brute_out = os.path.join(dirs["out"], f"d{d}-brute")
        jobs.append(Job(f"d{d}/mine", ["mine", "--input", base + ".csv", "--rho", "1", "--out", mine_out], mine_out))
        jobs.append(Job(f"d{d}/brute", ["brute", "--input", base + ".csv", "--out", brute_out], brute_out,
                        same_as=f"d{d}/mine"))
    return jobs


def _sampler(synth, rng, dirs, tiny):
    count = 100 if tiny else 3000
    jobs = []
    for k in (3, 4, 5):
        out = os.path.join(dirs["out"], f"k{k}")
        argv = ["bounds", "--k", str(k), "--count", str(count), "--seed", str(rng.getrandbits(32)), "--out", out]
        jobs.append(Job(f"k{k}/bounds", argv, out, suffixes=(".csv",), bounds_rows=count))
    return jobs


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "mine-dense": _mine_dense,
    "mine-sparse": _mine_sparse,
    "oracle": _oracle,
    "sampler": _sampler,
}


def make_jobs(workload: str, synth, seed: int, dirs: dict, tiny: bool) -> list[Job]:
    """Write the workload's inputs for ``seed`` into dirs["in"]; return one pass's jobs."""
    return WORKLOADS[workload](synth, random.Random(f"{workload}/{seed}"), dirs, tiny)


def digest(job: Job) -> str:
    """SHA-256 over the job's result files. Manifests are left out: they
    carry wall-clock timestamps."""
    h = hashlib.sha256()
    for suffix in job.suffixes:
        with open(job.out + suffix, "rb") as fh:
            data = fh.read()
        h.update(f"{suffix}:{len(data)}\n".encode())
        h.update(data)
    return h.hexdigest()


def recovered(job: Job) -> int:
    """Planted sets that appear exactly as the member set of a result."""
    with open(job.out + ".json", encoding="utf-8") as fh:
        found = {frozenset(r["members"]) for r in json.load(fh)}
    return sum(1 for p in job.planted if frozenset(p) in found)


def check(job: Job, code: int, digests: dict[str, str], expected: dict | None) -> str | None:
    """Why the job failed, or None. ``digests`` holds this pass's digests so
    far; ``expected`` is the job's reference entry, if one exists."""
    if code != 0:
        return f"exit code {code}"
    missing = [p for p in job.result_files() if not os.path.isfile(p)]
    if missing:
        return f"missing result files {missing}"
    got = digest(job)
    digests[job.name] = got
    if job.planted is not None:
        try:
            n = recovered(job)
        except (ValueError, KeyError, TypeError) as e:
            return f"unreadable result: {e}"
        if job.recover == "all" and n != len(job.planted):
            return f"recovered {n} of {len(job.planted)} planted sets"
        if job.recover == "reference" and "recovered" in (expected or {}) and n < expected["recovered"]:
            return f"recovered {n} planted sets, the reference recovered {expected['recovered']}"
    if job.same_as is not None and digests.get(job.same_as) != got:
        return f"result bytes differ from {job.same_as}"
    if job.bounds_rows:
        with open(job.out + ".csv", encoding="utf-8") as fh:
            rows = fh.read().splitlines()[1:]
        if len(rows) != job.bounds_rows:
            return f"{len(rows)} rows, expected {job.bounds_rows}"
        violated = sum(1 for r in rows if not r.endswith(",0"))
        if violated:
            return f"{violated} proved-bound violations"
    if expected is not None and got != expected["sha256"]:
        return "result bytes differ from the reference"
    return None
