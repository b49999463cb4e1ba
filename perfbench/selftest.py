"""Self-test of the benchmark at toy sizes.

Run from the root of a checkout: ``python3 perfbench/selftest.py``.  For each
workload it makes one untraced and one traced run and asserts that every
metric BENCHMARK.json names is reported with its unit, that no op failed, and
that traced and untraced iterations wrote bitwise-identical outputs.  It then
checks that the benchmark refuses to run, printing no result, in a directory
holding only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_workload(workload, declared: dict) -> list[str]:
    import run

    problems = []
    digests = set()
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        s = run.measure(workload, seed=1, seconds=0, trace=trace, sizes=workload.toy)
        run.print_summary(s)
        line = run.result_line(s)
        digests.update(s["outputs_sha256"])
        if not line["correct"] or line["failed"] or s["fail_ratio"] != 0:
            problems.append(f"{workload.name} trace={trace}: failed ops {s['problems']}")
        for name, unit in declared[kind].items():
            got = line["metrics"].get(name)
            if got is None or got["unit"] != unit:
                problems.append(f"{workload.name} trace={trace}: metric {name} [{unit}] reported as {got}")
        extra = set(line["metrics"]) - set(declared[kind])
        if extra:
            problems.append(f"{workload.name} trace={trace}: undeclared metrics {sorted(extra)}")
    if len(digests) != 1:
        problems.append(f"{workload.name}: traced and untraced outputs differ: {sorted(digests)}")
    return problems


def check_refuses_without_program(spec: dict) -> list[str]:
    bare = Path(".perfbench") / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy("BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([*spec["command"], "--workload", spec["workloads"][0]["name"], "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True,
                          timeout=180)
    shutil.rmtree(bare)
    if done.returncode == 0 or done.stdout.strip():
        return [f"bare directory: exit {done.returncode}, stdout {done.stdout!r}"]
    return []


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, "src")
    from workloads import WORKLOADS

    spec = json.loads(Path("BENCHMARK.json").read_text())
    declared = {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads differ from {list(WORKLOADS)}")
    for workload in WORKLOADS.values():
        problems += check_workload(workload, declared)
    problems += check_refuses_without_program(spec)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
