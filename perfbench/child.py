"""One workload iteration in a fresh interpreter: every op through ``fairthresh.cli.main``.

Usage: ``python3 perfbench/child.py SPEC.json`` with ``src`` on ``PYTHONPATH``.
SPEC holds ``ops`` (a list of argv lists), ``trace`` and ``result`` (the path
of the result JSON to write).  The timed section runs from the first op to the
end of the last; the import of ``fairthresh.cli`` and, when traced, installing
the wrappers happen before it.  The ops' standard output is captured and
returned, since it is part of what the workload outputs.

The same fixed reference loop (``reference``) is timed right before and right
after the timed section.  It uses only Python and numpy, never the program, so
its time tracks how fast this process runs on the machine at that moment; the
benchmark divides the workload's time by it (see ``run.py``).
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback

import numpy as np


def reference() -> float:
    """Wall time of a fixed loop mixing small numpy ops, a sort and Python-level parsing."""
    rng = np.random.default_rng(20190612)
    X = np.hstack([np.ones((500, 1)), rng.standard_normal((500, 2))])
    y = (rng.random(500) < 0.5).astype(np.float64)
    v = rng.standard_normal(20000)
    cells = [repr(x) for x in v[:5000].tolist()]
    t0 = time.perf_counter()
    w = np.zeros(3)
    for _ in range(2000):
        p = 1.0 / (1.0 + np.exp(-(X @ w)))
        w -= 0.5 * (X.T @ (p - y) / len(y) + 1e-4 * w)
    for _ in range(50):
        np.argsort(v)
    for _ in range(20):
        sorted((float(c), i) for i, c in enumerate(cells))
    return time.perf_counter() - t0


def main(spec_path: str) -> None:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)

    import fairthresh.cli as cli

    recorder = None
    if spec["trace"]:
        from spans import Recorder

        recorder = Recorder()
        recorder.install()

    ref_before = reference()
    codes, op_s = [], []
    stdout = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout):
        for i, argv in enumerate(spec["ops"]):
            if recorder is not None:
                recorder.op = i
            t0 = time.perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects the flags
                code = exc.code
            except Exception:  # a traceback is what a user would see: count the op as failed
                traceback.print_exc()
                code = 1
            op_s.append(time.perf_counter() - t0)
            codes.append(code)
    run_s = time.perf_counter() - start
    ref_after = reference()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump({
            "codes": codes,
            "op_s": op_s,
            "run_s": run_s,
            "ref_s": [ref_before, ref_after],
            "peak_rss_mb": peak_rss_mb,
            "stdout": stdout.getvalue(),
            "spans": recorder.spans if recorder is not None else None,
        }, fh)


if __name__ == "__main__":
    main(sys.argv[1])
