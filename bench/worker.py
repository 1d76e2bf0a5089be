"""One benchmark worker process: set up, run the timed phase, check every answer.

Usage: python worker.py --workload W --seed S --seconds T [--trace] [--setup-only]

Prints `ready {...}` once set-up is done (the parent times spawn-to-ready as
set-up), then one JSON line with the run's measurements.  Inputs are made from
the seed before the program is imported; their generation time is reported so
the parent can take it out of set-up.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import cliload
import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parents[1]

CLASSES = {"lookup": workloads.Lookup, "walk": workloads.Walk, "cli": cliload.Cli}
CALIBRATION_REPEATS = 5
PROBE_COMMAND = ["zeros", "--base", "10", "25", "--format", "text"]


def load_program():
    """Import factzeros from the checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import factzeros
    import factzeros.cli  # noqa: F401

    where = Path(factzeros.__file__).resolve().parent
    if where != (src / "factzeros").resolve():
        raise SystemExit(f"factzeros imported from {where}, expected {src / 'factzeros'}")
    return factzeros


def readme_probe(fz) -> None:
    """The README's examples, once per layer: a broken program fails before timing."""
    recs = [(r.location, r.composite_amplitude) for r in fz.jump_stream(10, 0, 30)]
    checks = {
        "z_base": fz.z_base(10, 25) == 6,
        "jump_stream": recs == [(5, 1), (10, 1), (15, 1), (20, 1), (25, 2), (30, 1)],
        "in_image": fz.in_image(10, 5).bracket == (25, 4, 6),
        "gaps_up_to": fz.gaps_up_to(2, 15) == [2, 5, 6, 9, 12, 13, 14],
        "families": fz.family_prop7(2, 3, 2, verify=True) == [20],
        "density": fz.density_exact(2, 15).a_exact == 9,
        "oracle": fz.factorial_trailing_zeros(10, 25) == 6,
    }
    bad = [name for name, ok in checks.items() if not ok]
    if bad:
        raise SystemExit(f"README examples disagree: {', '.join(bad)}")


def timed_pass(wl, ops: list, seconds: float, check_now: bool) -> dict:
    """Closed loop over ops until `seconds` of operation time have passed.

    Only the calls themselves are timed; the inputs start over if they run
    out.  With check_now, each answer is checked (and dropped) between
    operations; otherwise answers are kept for a later check, so that
    checking stays outside a traced pass.
    """
    latencies: list[float] = []
    kept: list[tuple] = []
    failed = 0
    busy = 0.0
    run, clock = wl.run, perf_counter
    for op in itertools.cycle(ops):
        if busy >= seconds:
            break
        t0 = clock()
        try:
            result = run(op)
            ok = True
        except Exception as e:  # a failing operation is counted, the loop goes on
            result, ok = e, False
        dt = clock() - t0
        busy += dt
        latencies.append(dt)
        if check_now:
            failed += not (ok and safe_check(wl, op, result))
        else:
            kept.append((op, result, ok))
    return {"latencies": latencies, "busy": busy, "kept": kept, "failed": failed}


def safe_check(wl, op, result) -> bool:
    try:
        return bool(wl.check(op, result))
    except Exception as e:  # a check that cannot run counts as a wrong answer
        print(f"check raised on {op!r}: {e!r}", file=sys.stderr)
        return False


def check_kept(wl, passes: list[dict]) -> int:
    failed = 0
    for p in passes:
        failed += p["failed"]
        failed += sum(not (ok and safe_check(wl, op, res)) for op, res, ok in p["kept"])
        p["kept"].clear()
    return failed


def summary(p: dict) -> dict:
    lat = sorted(p["latencies"])
    return {
        "ops": len(lat),
        "ops_per_s": len(lat) / p["busy"] if p["busy"] else 0.0,
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p90_ms": statistics.quantiles(lat, n=10, method="inclusive")[8] * 1e3
        if len(lat) > 1 else lat[0] * 1e3,
    }


def wall_ms(argv: list[str], env: dict) -> float:
    t0 = perf_counter()
    subprocess.run(argv, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=60)
    return (perf_counter() - t0) * 1e3


def calibrate_cli(cli: cliload.Cli, trace_dir: Path) -> dict:
    """Bare interpreter start, package import on top of it, and traced probe commands."""
    py = sys.executable
    bare = [wall_ms([py, "-c", "pass"], cli.env) for _ in range(CALIBRATION_REPEATS)]
    imp = [wall_ms([py, "-c", "import factzeros.cli"], cli.env) for _ in range(CALIBRATION_REPEATS)]
    cli.trace_dir = str(trace_dir)
    for _ in range(CALIBRATION_REPEATS):
        cli.spawn(cli.traced_argv(PROBE_COMMAND))
    cli.trace_dir = None
    return {
        "cli.interpreter_ms": statistics.median(bare),
        "cli.import_ms": statistics.median(imp) - statistics.median(bare),
    }


def traced_run(wl, fz, tracer: Tracer, ops: list, args) -> tuple[list[dict], dict]:
    """An untraced and a traced pass over the same inputs, half the time each.

    Returns both passes and the per-layer metrics; the merged spans of
    the worker and of every traced child process go to <out-dir>/trace-<workload>.trace.
    """
    trace_dir = Path(args.out_dir) / f"trace-{args.workload}"
    trace_dir.mkdir(parents=True, exist_ok=True)
    for old in trace_dir.glob("child-*.trace"):
        old.unlink()
    cli = wl if isinstance(wl, cliload.Cli) else cliload.Cli(fz)
    tracer.uninstall()
    plain = timed_pass(wl, ops, args.seconds / 2, check_now=False)
    tracer.install()
    cli.trace_dir = str(trace_dir)
    traced = timed_pass(wl, ops, args.seconds / 2, check_now=False)
    tracer.uninstall()
    cli.trace_dir = None
    layers = calibrate_cli(cli, trace_dir)
    for path in sorted(trace_dir.glob("child-*.trace")):
        tracer.merge_file(str(path))
        path.unlink()
    layers.update(tracer.layer_metrics())
    layers["trace_overhead_frac"] = 1 - summary(traced)["ops_per_s"] / summary(plain)["ops_per_s"]
    tracer.write(str(trace_dir.with_suffix(".trace")))
    return [plain, traced], layers


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(CLASSES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args()
    cls = CLASSES[args.workload]

    t0 = perf_counter()
    ops = [] if args.setup_only else cls.generate(
        random.Random(args.seed), int(cls.inputs_per_second * args.seconds) + 100
    )
    gen_s = perf_counter() - t0

    fz = load_program()
    wl = cls(fz)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    for b, factors in wl.bases().items():
        if fz.BaseSpec.of(b).factorization.factors != factors:
            raise SystemExit(f"factorize({b}) disagrees with {factors}")
    readme_probe(fz)
    print("ready", json.dumps({"gen_s": gen_s}), flush=True)
    if args.setup_only:
        return

    out: dict = {}
    if tracer is None:
        main_pass = timed_pass(wl, ops, args.seconds, check_now=True)
        who = resource.RUSAGE_CHILDREN if isinstance(wl, cliload.Cli) else resource.RUSAGE_SELF
        out["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
        passes = [main_pass]
        out.update(summary(main_pass))
    else:
        passes, out["layers"] = traced_run(wl, fz, tracer, ops, args)
        out["untraced_pass"] = summary(passes[0])
        out["ops"] = sum(len(p["latencies"]) for p in passes)

    out["failed"] = check_kept(wl, passes)
    out["attempted"] = sum(len(p["latencies"]) for p in passes)
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
