#!/usr/bin/env python3
"""Quick self-test of the repository benchmark.

Runs one job per workload declared in BENCHMARK.json, untraced and traced,
and checks that the result line is well formed, that the job passed its
correctness checks, and that every declared metric is printed by name
with its declared unit. Run from the repository root:

    python3 perfbench/selftest.py
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "0.01", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} --trace {trace}: exit code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def check(workload, trace, declared):
    result = run(workload, trace)
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append("the job failed its correctness checks")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"attempted = {result.get('attempted')}")
    metrics = result.get("metrics", {})
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            errors.append(f"metric {m['name']} missing")
        elif got.get("unit") != m["unit"]:
            errors.append(f"metric {m['name']} unit {got.get('unit')} != {m['unit']}")
        elif not isinstance(got.get("value"), (int, float)):
            errors.append(f"metric {m['name']} value {got.get('value')!r}")
    extra = set(metrics) - {m["name"] for m in declared}
    if extra:
        errors.append(f"undeclared metrics {sorted(extra)}")
    return [f"{workload} --trace {trace}: {e}" for e in errors]


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for w in spec["workloads"]:
        errors += check(w["name"], 0, spec["end_to_end"])
        errors += check(w["name"], 1, spec["per_layer"])
        print(f"selftest: {w['name']} checked", flush=True)
    bad = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
                          "no_such_workload", "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if bad.returncode == 0:
        errors.append("an unknown workload did not fail")
    for e in errors:
        print(f"selftest: FAIL {e}")
    print("selftest: " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
