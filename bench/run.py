"""Benchmark of the ``multipole`` command line, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory. One run is a closed loop with one client: the
workload's jobs run back to back, in this process, through
``multipoles.cli.main(argv)``, so flag parsing, CSV reading, mining and
result writing are all timed as a user runs them. A pass is one run of the
workload's job list; passes repeat until ``--seconds`` have elapsed.
``wall_s`` and ``cpu_s`` are the time of a typical pass: the sum over jobs
of each job's median time over the run's untraced passes (see ``typical``).
Every job's output is checked (see workloads.py), including its bytes
against reference digests.

Set-up (imports, then writing the input CSVs with ``multipole synth``) is
timed apart: the inputs are generated several times and the median kept.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics. With ``--trace 1`` untraced and traced passes
alternate; the traced ones wrap the package's layer functions from outside
(layers.py) and give the per-layer metrics, and the traced ``wall_s`` minus
the untraced one is the tracing overhead. Spans are written to
``.bench_work/<workload>.spans.jsonl``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
SETUP_REPS = 3
MIN_PASSES = 3  # at least two untraced and, in a traced run, one traced

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s", "ok_frac": "ratio"}


class Program:
    """The multipoles package imported from the checkout, with its import time."""

    def __init__(self):
        src = ROOT / "src"
        if not (src / "multipoles" / "cli.py").is_file():
            raise FileNotFoundError(f"no multipoles sources under {src}")
        self.nproc = len(os.sched_getaffinity(0))
        # BLAS may use every core this process may run on, no more
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            value = os.environ.get(var, "")
            if not value.isdigit() or not 1 <= int(value) <= self.nproc:
                os.environ[var] = str(self.nproc)
        # jobs run at the default of one mining thread
        os.environ.pop("MULTIPOLE_THREADS", None)
        t0 = time.perf_counter()
        sys.path.insert(0, str(src))
        import numpy

        import multipoles
        from multipoles import bounds, cli, dataset, graph, linalg, measures, miner, stats

        self.import_s = time.perf_counter() - t0
        if Path(multipoles.__file__).resolve().parent != (src / "multipoles").resolve():
            raise ImportError(f"imported multipoles from {multipoles.__file__}, not from {src}")
        self.numpy = numpy
        self.cli = cli
        self.modules = SimpleNamespace(
            bounds=bounds, dataset=dataset, graph=graph, linalg=linalg, measures=measures, miner=miner, stats=stats
        )

    def environment(self) -> dict:
        """What result digests and timings depend on."""
        try:
            blas = self.numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
            blas = f"{blas.get('name')} {blas.get('version')}"
        except (TypeError, KeyError, ValueError):
            blas = "unknown"
        return {
            "python": platform.python_version(),
            "numpy": self.numpy.__version__,
            "blas": blas,
            "nproc": self.nproc,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "machine": platform.machine(),
            "git_commit": _git_commit(),
        }


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_job(cli_main, argv) -> tuple[int, float, float, str]:
    """Exit code, wall seconds, CPU seconds (user+sys, all threads), stderr."""
    # each job starts as a fresh command would, without the previous job's
    # cyclic garbage: it steadies peak RSS and keeps collections of it out of the timing
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            code = cli_main(list(argv))
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return code, wall, cpu, err.getvalue()


def load_reference(workload: str, seed: int) -> tuple[dict | None, dict]:
    """The seed's reference entry, if recorded, and the environment it was recorded in."""
    path = BENCH / "reference" / f"{workload}.json"
    if not path.is_file():
        return None, {}
    with open(path, encoding="utf-8") as fh:
        body = json.load(fh)
    return body["seeds"].get(str(seed)), body["recorded_with"]


def _file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def setup(workload: str, program, seed: int, dirs: dict, tiny: bool, reps: int = SETUP_REPS):
    """Generate the inputs ``reps`` times; return the jobs and the median time.

    Every repetition must write the same bytes: the inputs are a function of
    the seed alone.
    """
    from workloads import make_jobs

    times, jobs, inputs = [], None, None
    for _ in range(reps):
        t0 = time.perf_counter()
        with redirect_stdout(io.StringIO()):
            jobs = make_jobs(workload, program.cli.main, seed, dirs, tiny)
        times.append(time.perf_counter() - t0)
        names = sorted(os.listdir(dirs["in"]))
        digests = {n: _file_digest(os.path.join(dirs["in"], n)) for n in names if not n.endswith(".manifest.json")}
        if inputs is not None and digests != inputs:
            raise RuntimeError("input generation is not deterministic")
        inputs = digests
    return jobs, statistics.median(times)


@contextmanager
def run_dirs(workload_name: str):
    """Fresh input and output directories for one run, removed afterwards."""
    run_dir = WORK / f"{workload_name}-{os.getpid()}"
    dirs = {"in": str(run_dir / "in"), "out": str(run_dir / "out")}
    shutil.rmtree(run_dir, ignore_errors=True)
    for d in dirs.values():
        os.makedirs(d)
    try:
        yield dirs
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def run_pass(program: Program, jobs, expected: dict, p: int, tracer=None, tamper=None):
    """Run every job once; return each job's (wall, CPU) seconds, this pass's
    result digests, and why each failed job failed, all by job name.

    With a ``tracer`` the layer functions are wrapped for the pass and each
    job gets a root span. ``tamper(job)``, if given, runs after each job and
    before its checks.
    """
    from workloads import check

    times: dict[str, tuple[float, float]] = {}
    digests: dict[str, str] = {}
    failures = {}
    if tracer:
        tracer.install(program.modules)
    try:
        for job in jobs:
            if tracer:
                tracer.job = (p, job.name)
                sp = tracer.open("job", {"command": job.argv[0]})
            code, w, c, err = run_job(program.cli.main, job.argv)
            if tracer:
                tracer.close(sp)
            times[job.name] = (w, c)
            if tamper:
                tamper(job)
            why = check(job, code, digests, expected.get(job.name))
            if why:
                failures[job.name] = why + (f"\n{err.strip()}" if err.strip() else "")
    finally:
        if tracer:
            tracer.unwrap_all()
    return times, digests, failures


def typical(passes: list[dict]) -> tuple[float, float]:
    """Wall and CPU seconds of a typical pass: the sum over jobs of each
    job's median time among ``passes``.

    The speed of a core on a shared host changes by tens of percent, in
    phases of seconds, with the load of other tenants. A job's median over
    the run is steadier from run to run than its fastest time, which hangs
    on whether a short quiet phase fell in the run, and unlike a minimum it
    does not fall as a faster version fits more passes into ``--seconds``.
    """
    names = passes[0].keys()
    return (sum(statistics.median(t[n][0] for t in passes) for n in names),
            sum(statistics.median(t[n][1] for t in passes) for n in names))


def run(workload_name: str, seed: int, seconds: float, trace: bool, program: Program, reference=None, tiny=False,
        tamper=None):
    """One benchmark run; returns the result object and the failure messages.

    ``reference`` is the seed's reference entry; without one, later passes
    must repeat the first pass's bytes.
    """
    from layers import METRICS, LayerTracer

    tracer = LayerTracer()
    passes = {False: [], True: []}  # per pass, each job's (wall, cpu); keyed by traced
    walls = []
    attempted, failures = 0, []
    with run_dirs(workload_name) as dirs:
        jobs, gen_s = setup(workload_name, program, seed, dirs, tiny)
        expected = reference["jobs"] if reference else {}
        start = time.perf_counter()
        p = 0
        while True:
            traced = trace and p % 2 == 1
            times, digests, failed = run_pass(program, jobs, expected, p, tracer if traced else None, tamper)
            attempted += len(jobs)
            failures += [f"pass {p} job {name}: {why}" for name, why in failed.items()]
            if not reference and p == 0:
                # without a recorded reference, later passes must repeat the first one's bytes
                expected = {name: {"sha256": d} for name, d in digests.items() if name not in failed}
            passes[traced].append(times)
            walls.append(sum(w for w, _ in times.values()))
            p += 1
            # stop before a pass that would end after --seconds, once there are enough passes
            if p >= MIN_PASSES and time.perf_counter() - start + statistics.median(walls) > seconds:
                break
    failed = len(failures)
    wall_s, cpu_s = typical(passes[False])
    if trace:
        overhead = typical(passes[True])[0] - wall_s
        WORK.mkdir(exist_ok=True)
        tracer.write(WORK / f"{workload_name}.spans.jsonl")
        values = tracer.metrics(len(passes[True]), overhead)
        metrics = {name: {"value": v, "unit": METRICS[name]} for name, v in values.items()}
        failures += [f"absent: {name} ({why})" for name, why in tracer.absent.items()]
    else:
        values = {
            "wall_s": wall_s,
            "cpu_s": cpu_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": program.import_s + gen_s,
            "ok_frac": (attempted - failed) / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    failures.append(f"note: pass wall times {[round(w, 3) for w in walls]}, median {statistics.median(walls)}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    try:
        program = Program()
    except (FileNotFoundError, ImportError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    reference, recorded_with = load_reference(args.workload, args.seed)
    result, failures = run(args.workload, args.seed, args.seconds, bool(args.trace), program, reference)
    if reference is None:
        failures.append(f"note: no reference digests for seed {args.seed}; later passes were compared with the first")
    else:
        stack = {k: v for k, v in program.environment().items() if k in ("python", "numpy", "blas")}
        if any(recorded_with.get(k) != v for k, v in stack.items()):
            failures.append(f"note: reference digests were recorded with {recorded_with}; this run uses {stack}")
    for line in failures:
        print(line, file=sys.stderr)
    print(json.dumps({"environment": program.environment()}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
