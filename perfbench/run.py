"""Benchmark of the fairthresh command-line program.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Inputs are generated from --seed before anything is timed.  The workload then
runs again and again for --seconds, each iteration in a fresh interpreter
(perfbench/child.py) with the BLAS/OpenMP thread pools pinned to one thread,
one child at a time.  Every op's exit code and output is checked, and the
outputs of all iterations must be bitwise identical.

run_s is the median over the iterations of the timed section's wall time
divided by that of a fixed reference loop timed in the same child (see
child.py) and multiplied by REF_S.  A shared machine runs a process faster or
slower by up to half for seconds at a time, and a fresh process starts at a
speed of its own; the reference loop slows with it, so the quotient stays put
while the program's own cost shows in full.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 untraced and traced iterations alternate
and it carries the per-layer metrics taken from spans (perfbench/spans.py).
Everything else, including the run record, goes to the lines above it and to
.perfbench/<workload>-<seed>/record.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

from spans import layer_metrics
from workloads import WORKLOADS, folds_skipped

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# setup_s: cold imports timed before the first iteration (after one that fills the
# bytecode cache) and as many after the last, so that their median spans the run
SETUP_IMPORTS = 5
CHILD_TIMEOUT_S = 150
# Typical wall time of child.reference on one idle core of the 2-vCPU machine the
# bounds were set on.  It only turns the quotient into seconds; it is never re-measured.
REF_S = 0.2


def _dir_digest(directory: Path, extra: str = "") -> str:
    h = hashlib.sha256(extra.encode())
    for p in sorted(directory.iterdir()):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def child_env() -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in THREAD_ENV})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
    return env


def run_record() -> dict:
    sha = "not a git checkout"
    if Path(".git").exists():
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
    src = hashlib.sha256()
    for p in sorted(Path("src").rglob("*.py")):
        src.update(str(p).encode() + b"\0" + p.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "loadavg_at_start": os.getloadavg(),
        "thread_env_inherited": {k: os.environ.get(k) for k in THREAD_ENV},
        "thread_env_child": {k: "1" for k in THREAD_ENV},
        "children": "one at a time",
    }


def time_import(env: dict) -> float:
    """Wall time from starting an interpreter until ``import fairthresh.cli`` returns."""
    code = "import fairthresh.cli, time; print(repr(time.perf_counter()))"
    t0 = time.perf_counter()  # CLOCK_MONOTONIC, shared with the child
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    return float(done.stdout) - t0


def run_iteration(ops, work: Path, out: Path, traced: bool, env: dict) -> dict:
    """One child process running every op; returns its result plus per-op problems."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    spec, result = work / "spec.json", work / "result.json"
    result.unlink(missing_ok=True)
    spec.write_text(json.dumps({"ops": [op.argv for op in ops], "trace": traced, "result": str(result)}))
    done = subprocess.run([sys.executable, str(HERE / "child.py"), str(spec)], env=env,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0 or not result.exists():
        tail = done.stderr.strip().splitlines()[-5:]
        return {"problems": {op.name: [f"child exited {done.returncode}: {tail}"] for op in ops}}
    res = json.loads(result.read_text())
    res["problems"] = {}
    for op, code in zip(ops, res["codes"]):
        if code != 0:
            res["problems"][op.name] = [f"exit code {code}"]
            continue
        try:
            found = op.check(out)
        except (OSError, ValueError, KeyError, TypeError, StopIteration) as exc:
            found = [f"unreadable output: {exc!r}"]
        if found:
            res["problems"][op.name] = found
    res["digest"] = _dir_digest(out, res["stdout"])
    return res


def measure(workload, seed: int, seconds: float, trace: bool, sizes: dict) -> dict:
    """Generate the inputs, time the workload for `seconds`, check and summarise it."""
    work = Path(".perfbench") / f"{workload.name}-{seed}"
    inp, out = work / "inputs", work / "outputs"
    shutil.rmtree(work, ignore_errors=True)
    inp.mkdir(parents=True)
    record = run_record()
    workload.generate(seed, inp, sizes)
    inputs = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(inp.iterdir())}
    ops = workload.ops(seed, inp, out, sizes)
    env = child_env()
    time_import(env)
    imports = [time_import(env) for _ in range(SETUP_IMPORTS)]

    runs = {False: [], True: []}
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not runs[False] or (trace and not runs[True]):
        traced = trace and len(runs[True]) < len(runs[False])
        runs[traced].append(run_iteration(ops, work, out, traced, env))
    imports += [time_import(env) for _ in range(SETUP_IMPORTS)]
    setup_s = statistics.median(imports)
    everything = runs[False] + runs[True]

    attempted = len(ops) * len(everything)
    failed = sum(len(r["problems"]) for r in everything)
    problems = sorted({f"{op}: {p}" for r in everything for op, ps in r["problems"].items() for p in ps})
    digests = sorted({r.get("digest") for r in everything}, key=str)
    if len(digests) > 1:
        problems.append(f"outputs differ between iterations: {digests}")
    correct = not problems
    try:
        acc, deo = workload.quality(out)
        skipped = folds_skipped(out / workload.report) if workload.report else 0
    except (OSError, ValueError, KeyError, TypeError, StopIteration):  # reported as failed above
        acc, deo, skipped = 0.0, 1.0, 0

    # iterations whose child ran to the end (a crashed child has only "problems")
    untraced = [r for r in runs[False] if "run_s" in r] or [
        {"run_s": 0.0, "ref_s": [REF_S], "peak_rss_mb": 0.0, "op_s": [0.0] * len(ops)}]
    traced_runs = [r for r in runs[True] if "run_s" in r]
    for r in untraced + traced_runs:
        r["run_ref_s"] = r["run_s"] * REF_S / statistics.fmean(r["ref_s"])
    e2e = {
        "run_s": (statistics.median(r["run_ref_s"] for r in untraced), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (statistics.fmean(r["peak_rss_mb"] for r in untraced), "MiB"),
        "accuracy": (acc, "ratio"),
        "tpr_parity": (1.0 - deo, "ratio"),
    }
    layers = {}
    if traced_runs:
        per_run = [layer_metrics(r["spans"], r["run_s"]) for r in traced_runs]
        layers = {k: (statistics.fmean(m[k][0] for m in per_run), u) for k, (_, u) in per_run[0].items()}
        layers["trace.overhead_s"] = (statistics.median(r["run_ref_s"] for r in traced_runs) - e2e["run_s"][0], "s")
        layers["benchmark.folds_skipped"] = (skipped, "count")
        layers["quality.deo"] = (deo, "ratio")
    op_s = {op.name: statistics.fmean(r["op_s"][i] for r in untraced) for i, op in enumerate(ops)}

    summary = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "record": record, "inputs_sha256": inputs, "outputs_sha256": digests,
        "iterations": {"untraced": len(runs[False]), "traced": len(runs[True])},
        "op_mean_s": op_s, "problems": problems,
        "correct": correct, "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted,
        "end_to_end": e2e, "per_layer": layers,
        "wall_median_s": statistics.median(r["run_s"] for r in untraced),
        "reference_median_s": statistics.median(x for r in untraced for x in r["ref_s"]),
        "untraced_run_s": [r["run_s"] for r in untraced], "traced_run_s": [r["run_s"] for r in traced_runs],
        "untraced_reference_s": [r["ref_s"] for r in untraced],
        "untraced_run_ref_s": [r["run_ref_s"] for r in untraced],
    }
    with open(work / "record.json", "w", encoding="utf-8") as fh:
        json.dump({**summary, "spans": traced_runs[-1]["spans"] if traced_runs else None}, fh)
    return summary


def print_summary(s: dict) -> None:
    print(f"perfbench {s['workload']} seed={s['seed']} seconds={s['seconds']} trace={int(s['trace'])}")
    for key, value in s["record"].items():
        print(f"  {key:22s} {value}")
    for name, digest in s["inputs_sha256"].items():
        print(f"  input  {name:18s} sha256 {digest}")
    print(f"  outputs sha256 {', '.join(map(str, s['outputs_sha256']))}")
    print(f"  wall time median {s['wall_median_s']:.4f} s, reference loop median "
          f"{s['reference_median_s']:.4f} s (REF_S {REF_S} s)")
    print(f"  iterations {s['iterations']}; op means (s): "
          + ", ".join(f"{k} {v:.4f}" for k, v in s["op_mean_s"].items()))
    for p in s["problems"]:
        print(f"  FAILED {p}")
    rows = {**s["end_to_end"], **s["per_layer"], "fail_ratio": (s["fail_ratio"], "ratio")}
    for name, (value, unit) in rows.items():
        print(f"  {name:32s} {value:>14.6g} {unit}")


def result_line(s: dict) -> dict:
    """The final JSON object: end-to-end metrics untraced, per-layer metrics traced."""
    metrics = s["per_layer"] if s["trace"] else s["end_to_end"]
    return {
        "correct": s["correct"], "attempted": s["attempted"], "failed": s["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    if not Path("src/fairthresh/cli.py").is_file():
        print(f"error: no fairthresh sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, "src")
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    s = measure(workload, args.seed, args.seconds, bool(args.trace), workload.sizes)
    print_summary(s)
    print(json.dumps(result_line(s)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
