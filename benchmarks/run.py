"""dappr benchmark: one workload per process, a closed loop of one client.

Run from the repository root:

    python3 benchmarks/run.py --workload train_standard --seed 7 --seconds 20 --trace 0

The process imports dappr from ``src/``, sets the workload up several times
(importing dappr afresh each time) and then runs jobs back to back, one at a
time, until the next job would end after ``--seconds``; at least two jobs run.
Every job's output is checked.  With ``--trace 0`` the last stdout line holds
the end-to-end metrics; with ``--trace 1`` jobs alternate untraced and traced,
and the last line holds the per-layer metrics from the traced ones.  Earlier
stdout lines describe the environment and the run.  Outputs go under
``.bench_out/`` in the repository and are removed at exit, except the traced
run's span dump ``.bench_out/trace-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from tracer import Patcher, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 5
MIN_JOBS = 2

END_TO_END = {
    "setup_s": "s",
    "job_s": "s",
    "rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


class BenchmarkError(Exception):
    """The benchmark cannot run here (missing sources or inputs)."""


def import_dappr() -> SimpleNamespace:
    """Import dappr from this checkout's src/, dropping any earlier import.

    Returns the modules the workloads call into.
    """
    for name in [n for n in sys.modules if n == "dappr" or n.startswith("dappr.")]:
        del sys.modules[name]
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        dappr = importlib.import_module("dappr")
        importlib.import_module("dappr.harness")
    except ImportError as exc:
        raise BenchmarkError(f"cannot import dappr from {src}: {exc}") from exc
    if Path(dappr.__file__).resolve().parent.parent != src.resolve():
        raise BenchmarkError(f"dappr was imported from {dappr.__file__}, not {src}")
    return SimpleNamespace(**{name: sys.modules[f"dappr.{name}"] for name in
                              ("harness", "nn", "datasets")})


def git_commit(root: Path):
    """HEAD's commit read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {k: os.environ.get(k) for k in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS")}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit(ROOT),
    }


def set_up(workload, seed: int, out: Path, tracer, patcher):
    """Set the workload up SETUP_REPS times; return the last state and all times."""
    times = []
    for rep in range(SETUP_REPS):
        shutil.rmtree(out, ignore_errors=True)
        started = time.perf_counter()
        d = import_dappr()
        if tracer is not None:
            tracer.begin(f"setup{rep}", "setup")
            patcher.install()
        try:
            state = workload.setup(d, seed, ROOT, out)
        finally:
            if tracer is not None:
                patcher.uninstall()
                tracer.end()
        times.append(time.perf_counter() - started)
    return state, times


def run_jobs(workload, state, seconds: float, tracer, patcher) -> dict:
    """Closed loop: jobs back to back until the next would end after ``seconds``.

    With a tracer, jobs alternate untraced and traced, starting untraced.
    """
    times = {False: [], True: []}
    failures = []
    attempted = 0
    deadline = time.perf_counter() + seconds
    while True:
        unit = f"job{attempted}"
        traced = tracer is not None and attempted % 2 == 1
        attempted += 1
        if traced:
            tracer.begin(unit, "job")
            patcher.install()
        raised = None
        started = time.perf_counter()
        try:
            output = workload.run(state)
        except Exception:  # a failing job is counted, never dropped
            raised = traceback.format_exc()
        finally:
            elapsed = time.perf_counter() - started
            if traced:
                patcher.uninstall()
                tracer.end()
        times[traced].append(elapsed)
        if raised is None:
            if traced:
                tracer.require(unit, workload.layers)
            try:
                problems = workload.check(state, output)
            except Exception:
                problems = [traceback.format_exc()]
        else:
            problems = [raised]
        if problems:
            failures.append(unit)
            print(f"job {unit} failed:\n  " + "\n  ".join(problems), file=sys.stderr)
        upcoming = tracer is not None and attempted % 2 == 1
        predicted = (times[upcoming] or times[not upcoming])[-1]
        if attempted >= MIN_JOBS and time.perf_counter() + predicted > deadline:
            return {"attempted": attempted, "untraced": times[False], "traced": times[True],
                    "failures": failures}


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[workload_name]
    for needed in ("configs", "tests/data/expected_results.json", "src/dappr"):
        if not (ROOT / needed).exists():
            raise BenchmarkError(f"{ROOT / needed} is missing")
    print(json.dumps({"environment": environment()}), flush=True)
    bench_dir = ROOT / ".bench_out"
    out = bench_dir / f"{workload_name}-{os.getpid()}"
    tracer = Tracer() if trace else None
    patcher = Patcher(tracer) if trace else None
    try:
        state, setup_times = set_up(workload, seed, out, tracer, patcher)
        stop = workload.start(state)
        try:
            jobs = run_jobs(workload, state, seconds, tracer, patcher)
        finally:
            stop()
    finally:
        shutil.rmtree(out, ignore_errors=True)

    attempted = jobs["attempted"]
    failed = len(jobs["failures"])
    print(json.dumps({"run": {
        "workload": workload_name, "seed": seed, "trace": int(trace), "jobs": attempted,
        "untraced_job_s": jobs["untraced"], "traced_job_s": jobs["traced"],
        "setup_s": setup_times, "rows_per_job": state.rows,
        "failed_jobs": jobs["failures"]}}))
    if trace:
        overhead = statistics.median(jobs["traced"]) / statistics.median(jobs["untraced"]) - 1
        metrics = tracer.metrics(overhead)
        tracer.dump(bench_dir / f"trace-{workload_name}.jsonl")
    else:
        job_s = statistics.median(jobs["untraced"])
        values = {
            "setup_s": statistics.median(setup_times),
            "job_s": job_s,
            "rows_per_s": state.rows / job_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": (attempted - failed) / attempted,
        }
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
