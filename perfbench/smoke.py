"""Smoke test: every workload at toy size, untraced and traced.

usage: python3 perfbench/smoke.py   (from the root of a checkout)

Asserts that each run exits 0, passes its own output checks, and emits
exactly the metrics BENCHMARK.json names, each with its unit; end-to-end
values must be positive.
"""

import contextlib
import io
import json
import sys

import run
import workloads


def check(name: str, trace: int, spec: dict) -> list[str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = run.main(["--workload", name, "--seed", "1", "--seconds", "1",
                         "--trace", str(trace)], sizes=workloads.TOY_SIZES)
    lines = buffer.getvalue().splitlines()
    if code != 0 or not lines:
        return [f"exit code {code}, {len(lines)} lines of output"]
    result = json.loads(lines[-1])
    declared = spec["per_layer" if trace else "end_to_end"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"outcome {result['correct']} {result['attempted']} {result['failed']}: "
                        f"{json.loads(lines[-2])['problems']}")
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    if units != {m["name"]: m["unit"] for m in declared}:
        problems.append("metric names or units differ from BENCHMARK.json")
    for key, metric in result["metrics"].items():
        if not isinstance(metric["value"], float) or (not trace and metric["value"] <= 0):
            problems.append(f"{key} = {metric['value']!r}")
    return problems


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            problems = check(name, trace, spec)
            failures += bool(problems)
            print(f"{name} trace={trace}: {'ok' if not problems else problems}", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
