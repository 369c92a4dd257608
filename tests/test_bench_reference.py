"""Seed 0 of every benchmark workload reproduces its recorded result bytes.

The benchmark (bench/) checks each job's output against digests recorded in
bench/reference/; running seed 0 here catches a change of result bytes before
a benchmark run does. The digests depend on the numpy and Python versions
they were recorded with, so a host with other versions skips.
"""

import importlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from multipoles import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.mark.parametrize("workload", sorted(p.stem for p in (BENCH / "reference").glob("*.json")))
def test_seed_zero_matches_reference(workload, tmp_path, monkeypatch):
    reference = json.loads((BENCH / "reference" / f"{workload}.json").read_text(encoding="utf-8"))
    recorded = reference["recorded_with"]
    host = {"numpy": np.__version__, "python": platform.python_version()}
    if any(recorded[key] != value for key, value in host.items()):
        pytest.skip(f"digests recorded with numpy {recorded['numpy']}, python {recorded['python']}; "
                    f"this host has numpy {host['numpy']}, python {host['python']}")
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    dirs = {"in": str(tmp_path / "in"), "out": str(tmp_path / "out")}
    for d in dirs.values():
        Path(d).mkdir()
    expected = reference["seeds"]["0"]["jobs"]
    digests = {}
    jobs = workloads.make_jobs(workload, cli.main, 0, dirs, False)
    assert jobs
    for job in jobs:
        code = cli.main(job.argv)
        assert workloads.check(job, code, digests, expected[job.name]) is None, job.name
