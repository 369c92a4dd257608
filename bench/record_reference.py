"""Record reference result digests from the current code.

    python3 bench/record_reference.py --workload NAME

For every seed in workloads.REFERENCE_SEEDS, one traced pass of the
workload is run and each job's result digest is stored in
``bench/reference/<workload>.json``, with the planted sets it recovered
and the pass's clique and candidate counts. The held-out seed
(workloads.HELD_OUT_SEED) is recorded too; its counts are compared with
the median over the other seeds, as a check that it is an instance of the
same order of size.

Run this only on code whose output is the reference: later versions must
reproduce these bytes. Digests depend on the numeric stack, which is
stored alongside them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import run as bench
from layers import LayerTracer
from workloads import HELD_OUT_SEED, REFERENCE_SEEDS, WORKLOADS, recovered

COUNTS = ("graph.cliques", "miner.candidates", "linalg.eigh_many.matrices")


def record_seed(program, workload: str, seed: int, tiny: bool = False) -> tuple[dict, dict[str, str]]:
    """The seed's reference entry, and why each failed job failed."""
    tracer = LayerTracer()
    with bench.run_dirs(workload) as dirs:
        jobs, _ = bench.setup(workload, program, seed, dirs, tiny, reps=1)
        _, digests, failures = bench.run_pass(program, jobs, {}, 0, tracer)
        entry = {"jobs": {}}
        for job in jobs:
            if job.name in digests:
                entry["jobs"][job.name] = {"sha256": digests[job.name]}
                if job.planted is not None:
                    entry["jobs"][job.name]["recovered"] = recovered(job)
    metrics = tracer.metrics(1, 0.0)
    entry.update({name: metrics[name] for name in COUNTS})
    return entry, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    program = bench.Program()
    workload = args.workload
    seeds, problems = {}, []
    for seed in [*REFERENCE_SEEDS, HELD_OUT_SEED]:
        entry, failures = record_seed(program, workload, seed)
        seeds[str(seed)] = entry
        problems += [f"seed {seed} job {name}: {why}" for name, why in failures.items()]
        print(f"{workload} seed {seed}: " + ", ".join(f"{n}={entry[n]:g}" for n in COUNTS), flush=True)
    held = seeds[str(HELD_OUT_SEED)]
    for name in COUNTS:
        typical = statistics.median(e[name] for s, e in seeds.items() if s != str(HELD_OUT_SEED))
        ratio = held[name] / typical if typical else (1.0 if held[name] == 0 else float("inf"))
        verdict = "same order" if 0.5 <= ratio <= 2.0 else "NOT the same order"
        print(f"held-out seed {HELD_OUT_SEED}: {name} {held[name]:g} vs median {typical:g} ({verdict})")
        if verdict != "same order":
            problems.append(f"held-out seed {HELD_OUT_SEED}: {name} is {ratio:.2f}x the median")
    path = bench.BENCH / "reference" / f"{workload}.json"
    path.parent.mkdir(exist_ok=True)
    body = {"workload": workload, "recorded_with": program.environment(), "held_out_seed": HELD_OUT_SEED,
            "seeds": seeds}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(body, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for line in problems:
        print(line, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
