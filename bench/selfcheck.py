"""Fast self-check of the benchmark harness at tiny input sizes.

    python3 bench/selfcheck.py

Confirms that every workload in BENCHMARK.json runs and passes its checks,
that an untraced run prints every end-to-end metric and a traced run every
per-layer metric, by the names and units BENCHMARK.json gives, and that a
corrupted result file counts as exactly one failed job: one whose meaning
breaks a check of the output, and one whose meaning survives and which
only the reference digest catches. Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import sys

import run as bench
from record_reference import record_seed
from workloads import WORKLOADS


def _corrupt(job_name: str, suffix: str, how):
    """A tamper hook that damages one job's result file, once."""
    done = []

    def tamper(job):
        if job.name == job_name and not done:
            path = job.out + suffix
            with open(path, "rb") as fh:
                data = fh.read()
            with open(path, "wb") as fh:
                fh.write(how(data))
            done.append(path)

    return tamper


def _change_last_digit(data: bytes) -> bytes:
    i = max(data.rfind(bytes([c])) for c in b"0123456789")
    return data[:i] + (b"2" if data[i:i + 1] == b"1" else b"1") + data[i + 1:]


def main() -> int:
    with open(bench.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []

    def expect(ok: bool, what: str):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            problems.append(what)

    names = [w["name"] for w in spec["workloads"]]
    expect(sorted(names) == sorted(WORKLOADS), f"BENCHMARK.json workloads {names} match workloads.py")
    program = bench.Program()
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for name in names:
            result, failures = bench.run(name, 0, 0, trace, program, tiny=True)
            got = {m: v["unit"] for m, v in result["metrics"].items()}
            expect(
                result["correct"] and result["attempted"] >= 1 and result["failed"] == 0,
                f"{name} trace={int(trace)}: {result['attempted']} jobs, {result['failed']} failed"
                + "".join("\n     " + f for f in failures),
            )
            expect(got == want, f"{name} trace={int(trace)}: prints the {len(want)} {key} metrics with their units"
                   + ("" if got == want else f" (differs: {sorted(set(got.items()) ^ set(want.items()))})"))
            numbers = all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
            expect(numbers, f"{name} trace={int(trace)}: every metric value is a number")
    for name, job, suffix, how in (
        ("oracle", "d0/brute", ".csv", lambda data: data + b"0"),
        ("mine-dense", "d0/mine", ".json", lambda data: data[: len(data) // 2]),
    ):
        result, failures = bench.run(name, 0, 0, False, program, tiny=True, tamper=_corrupt(job, suffix, how))
        expect(
            result["failed"] == 1 and not result["correct"] and result["metrics"]["ok_frac"]["value"] < 1.0,
            f"a corrupted {job}{suffix} in {name} counts as one failed job ({failures[:1]})",
        )
    # mine-dense checks planted sets in the .json only, so one changed digit
    # in the .csv is left for the digest comparison with a recorded reference
    reference, failed = record_seed(program, "mine-dense", 0, tiny=True)
    expect(not failed, f"mine-dense reference recorded at tiny size {failed}")
    result, failures = bench.run("mine-dense", 0, 0, False, program, reference, tiny=True,
                                 tamper=_corrupt("d0/mine", ".csv", _change_last_digit))
    expect(
        result["failed"] == 1 and "differ from the reference" in failures[0],
        f"one changed digit of d0/mine.csv in mine-dense counts as one failed job ({failures[:1]})",
    )
    print("self-check " + ("passed" if not problems else f"FAILED: {len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
