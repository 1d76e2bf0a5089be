"""The factzeros benchmark: one seeded workload per run, every answer checked.

Usage, from the root of a checkout:

    python3 bench/run.py --workload lookup --seed 1 --seconds 38 --trace 0
    python3 bench/run.py --report .bench_out/runs.jsonl [more.jsonl ...]

A run starts worker processes one at a time (bench/worker.py).  Set-up is
timed from spawn until the worker is ready, over several fresh workers, and
reported as the median.  The last worker then runs the timed phase as a closed
loop: the next operation starts when the previous one has returned.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced run, which also times an
untraced pass of the same inputs to give the tracing overhead.  Each run is
appended, with its environment, to .bench_out/runs.jsonl (or --out); --report
prints the median and quartiles of every metric of every workload in a set of
such files.

Exit status: 0 when every answer was correct, 1 when any was wrong (the result
line is still printed), 2 when the run could not be made.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
WORKLOADS = ("lookup", "walk", "cli")
SETUP_REPEATS = 3
RUN_DEADLINE_S = 170

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "arithmetic.factorize.calls": "count",
    "arithmetic.factorize.self_s": "s",
    "arithmetic.factorize.p50_us": "us",
    "arithmetic.spec_cache.hit_ratio": "ratio",
    "zcount.z_base.calls": "count",
    "zcount.z_base.self_s": "s",
    "zcount.z_base.p50_us": "us",
    "zcount.z_prime.calls": "count",
    "image.inversion.calls": "count",
    "image.inversion.self_s": "s",
    "image.inversion.z_evals_per_call": "count",
    "jumps.jump_stream.records": "count",
    "jumps.jump_stream.self_s": "s",
    "jumps.candidates_per_record": "ratio",
    "image.gaps.calls": "count",
    "image.gaps.self_s": "s",
    "image.density.calls": "count",
    "image.density.self_s": "s",
    "image.families.calls": "count",
    "image.families.self_s": "s",
    "oracle.factorial_trailing_zeros.calls": "count",
    "oracle.factorial_trailing_zeros.self_s": "s",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.command_ms": "ms",
    "trace_overhead_frac": "ratio",
}


class RunError(Exception):
    """The run could not be made: missing program, worker crash or timeout."""


def environment(seed: int) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "interpreter": sys.executable,
        "nproc": os.cpu_count(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "seed": seed,
    }


def machine_probe_ms() -> float:
    """Median time of a fixed pure-Python loop: how fast this machine ran just now.

    Stored with each run (before and after it) so that a drift in machine
    speed between runs can be told apart from a change in the program.
    """
    times = []
    for _ in range(5):
        t0 = perf_counter()
        s = 0
        for i in range(200_000):
            s += i * i % 7
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1e3


def start_worker(args, extra: list[str], deadline: float) -> tuple[float, subprocess.Popen]:
    """Spawn a worker and wait for its ready line; returns (set-up seconds, process)."""
    cmd = [
        sys.executable, str(WORKER),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--out-dir", str(args.out.parent), *extra,
    ]
    t0 = perf_counter()
    # own process group, so that stop() also ends the commands a worker started
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        if not select.select([proc.stdout], [], [], max(1.0, deadline - perf_counter()))[0]:
            raise RunError("worker did not get ready before the run deadline")
        line = proc.stdout.readline()
        ready = perf_counter()
        if not line.startswith("ready "):
            status = proc.wait(timeout=max(1.0, deadline - perf_counter()))
            raise RunError(f"worker did not get ready (exit status {status})")
    except BaseException:
        stop(proc)
        raise
    return ready - t0 - json.loads(line[len("ready "):])["gen_s"], proc


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()
    if proc.stdout:
        proc.stdout.close()


def finish(proc: subprocess.Popen, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        stop(proc)
        raise RunError("worker ran past the run deadline") from None
    except BaseException:
        stop(proc)
        raise
    if proc.returncode != 0:
        raise RunError(f"worker exited with status {proc.returncode}")
    return out


def run_once(args) -> dict:
    if not (ROOT / "src" / "factzeros" / "__init__.py").is_file():
        raise RunError(f"no factzeros source under {ROOT / 'src'}")
    deadline = perf_counter() + RUN_DEADLINE_S
    probe_before = machine_probe_ms()
    setups = []
    if not args.trace:
        for _ in range(SETUP_REPEATS - 1):
            setup_s, proc = start_worker(args, ["--setup-only"], deadline)
            finish(proc, deadline)
            setups.append(setup_s)
    setup_s, proc = start_worker(args, ["--trace"] if args.trace else [], deadline)
    setups.append(setup_s)
    lines = finish(proc, deadline).strip().splitlines()
    if not lines:
        raise RunError("worker printed no result")
    result = json.loads(lines[-1])

    if args.trace:
        metrics = {name: result["layers"][name] for name in PER_LAYER}
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": result["ops_per_s"],
            "latency_p50_ms": result["latency_p50_ms"],
            "latency_p90_ms": result["latency_p90_ms"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = END_TO_END
    return {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(args.seed),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failed_frac": result["failed"] / result["attempted"] if result["attempted"] else 1.0,
        "samples": result["ops"],
        "setups": setups,
        "machine_probe_ms": [probe_before, machine_probe_ms()],
        # traced runs: end-to-end figures of their untraced half, for comparison
        "untraced_pass": result.get("untraced_pass"),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def print_run(record: dict) -> None:
    print("env " + json.dumps(record["env"], sort_keys=True))
    print("machine probe before/after (ms): %.2f %.2f" % tuple(record["machine_probe_ms"]))
    print(f"workload {record['workload']}  timed operations {record['samples']}  "
          f"failed_frac {record['failed_frac']:.6g} ({record['failed']}/{record['attempted']})")
    for name, m in record["metrics"].items():
        print(f"  {name:42s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))


def report(paths: list[str]) -> None:
    """Median and quartiles of each metric, one row per workload, mode and metric."""
    rows: dict[tuple, list[float]] = {}
    units: dict[str, str] = {}
    for path in paths:
        with open(path) as f:
            for line in f:
                rec = json.loads(line)
                mode = "traced" if rec["trace"] else "plain"
                values = {k: (m["value"], m["unit"]) for k, m in rec["metrics"].items()}
                values["failed_frac"] = (rec["failed_frac"], "ratio")
                for name, (value, unit) in values.items():
                    rows.setdefault((rec["workload"], mode, name), []).append(value)
                    units[name] = unit
    print(f"{'workload':8s} {'mode':6s} {'metric':42s} {'unit':6s} {'n':>3s} "
          f"{'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s}")
    for (workload, mode, name), vals in sorted(rows.items()):
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        print(f"{workload:8s} {mode:6s} {name:42s} {units[name]:6s} {len(vals):3d} "
              f"{med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=38)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=ROOT / ".bench_out" / "runs.jsonl",
                    help="file each run's record is appended to")
    ap.add_argument("--report", nargs="+", metavar="RUNS_JSONL",
                    help="summarize recorded runs instead of running")
    args = ap.parse_args()
    if args.report:
        report(args.report)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    try:
        record = run_once(args)
    except (RunError, OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        print(f"benchmark run failed: {e}", file=sys.stderr)
        return 2
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")
    print_run(record)
    return 0 if record["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
