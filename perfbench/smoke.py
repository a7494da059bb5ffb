"""Schema smoke test of the benchmark harness.

Usage (from the root of a source checkout): python3 perfbench/smoke.py

Runs every workload at the toy size, untraced and traced, and checks only
the shape of the output: the result line has every metric BENCHMARK.json
names, each with its unit, and the record line before it carries the
environment stamp and ``ops_failed_frac``.  It checks no timing bound.
Exits 0 when every check holds and 1 otherwise.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STAMP_KEYS = {"workload", "seed", "trace", "kernel_backend", "python", "nproc", "runs",
              "ops_failed_frac"}


def check(workload, trace, spec):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    record, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int) and isinstance(result["correct"], bool)):
        problems.append("attempted, failed or correct has the wrong type")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        problems.append(f"metrics {sorted(set(got) ^ set(expected))} or their units differ")
    for name, metric in result["metrics"].items():
        value = metric.get("value")
        if set(metric) != {"value", "unit"} or not (value is None or isinstance(value, (int, float))):
            problems.append(f"metric {name} is {metric}")
    missing = STAMP_KEYS - set(record)
    if missing:
        problems.append(f"record lacks {sorted(missing)}")
    return problems


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = check(workload, trace, spec)
            failures += bool(problems)
            print(f"{workload} trace={trace}: {'ok' if not problems else '; '.join(problems)}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
