"""Benchmark entry point: one workload, one seed, one JSON result line.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds `src/roadrisk`. The package is
imported from that tree; nothing needs installing. With `--trace 0` the
result carries the end-to-end metrics named in BENCHMARK.json, with
`--trace 1` the per-layer metrics of a separate traced run. Earlier lines of
standard output record the environment and the load average before and
after the run; the last line is the result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ["OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"]


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv=None, sizes=None) -> int:
    """`sizes` replaces the workload sizes; the smoke test passes toy ones."""
    args = parse_args(argv)
    if not (ROOT / "src" / "roadrisk" / "cli.py").is_file():
        print(f"perfbench: no roadrisk package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # started before this process loads numpy; see spawn.py
    spawner = subprocess.Popen([sys.executable, str(HERE / "spawn.py")], text=True,
                               stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        return run(args, spec, spawner, sizes)
    finally:
        spawner.stdin.close()
        spawner.wait()
        spawner.stdout.close()


def run(args, spec: dict, spawner: subprocess.Popen, sizes) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    base = ROOT / ".perfbench_work"
    work = base / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    size = (sizes or workloads.SIZES)[args.workload]
    ledger = workloads.Ledger(
        base / "ledger.json",
        f"{workloads.source_digest(ROOT / 'src' / 'roadrisk')}/{args.workload}/{args.seed}/{size}",
    )
    ctx = workloads.Context(ROOT, work, args.seed, args.seconds, bool(args.trace), size, ledger,
                            spawner)
    record = {"env": environment(), "loadavg_before": loadavg()}
    started = time.perf_counter()
    try:
        outcome = workloads.WORKLOADS[args.workload](ctx)
    except Exception:
        outcome = workloads.Outcome()
        outcome.operation("workload", [traceback.format_exc()])
    record.update(loadavg_after=loadavg(), wall_s=time.perf_counter() - started)
    ledger.save()
    shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        outcome.metrics["failed_frac"] = outcome.failed / max(1, outcome.attempted)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for entry in wanted:
        value = outcome.metrics.get(entry["name"])
        if value is None or not math.isfinite(value):
            outcome.operation("metrics", [f"{entry['name']} not measured: {value}"])
            value = 0.0
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    extra = sorted(set(outcome.metrics) - set(metrics))
    if extra:
        outcome.operation("metrics", [f"measured but not declared: {extra}"])
    record.update(outcome.details, problems=outcome.problems)
    print(json.dumps(record))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
