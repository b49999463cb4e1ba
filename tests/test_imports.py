"""No command-line run imports numpy.ma, and importing the CLI leaves hashlib out.

numpy's set routines (np.unique, np.setdiff1d, ...) import numpy.ma on their
first call, about 18 ms per process; the package uses sort-and-mask instead.
hashlib costs a few ms more, and only the score jitter needs it.  The runs
happen in a fresh interpreter, because this one may already hold both.
"""

import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
from conftest import write_csv

import fairthresh
from fairthresh.oracle import linear_distribution, sample

DIST = linear_distribution(0.35, 0.3, 0.05, 0.9, 0.5)

CHILD = """
import json, sys
import fairthresh.cli as cli
failed, first = [], None
for argv in json.loads(sys.argv[1]):
    if cli.main(argv) != 0:
        failed.append(argv[0])
    if first is None and "numpy.ma" in sys.modules:
        first = " ".join(argv)
print(json.dumps({"failed": failed, "first_numpy_ma": first}))
"""


def _env():
    """The environment of a fresh interpreter that imports this package."""
    src = str(Path(fairthresh.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _scores(path, n, seed):
    rng = np.random.default_rng(seed)
    rows = rng.uniform(0.05, 0.95, (n, 3))
    np.savetxt(path, rows, fmt="%.17g", delimiter=",", header="score_s0,score_s1,score_marginal", comments="")
    return str(path)


def test_no_run_imports_numpy_ma(tmp_path):
    train, test, dist = tmp_path / "train.csv", tmp_path / "test.csv", tmp_path / "dist.json"
    write_csv(train, sample(DIST, 400, 3))
    write_csv(test, sample(DIST, 200, 4))
    dist.write_text(json.dumps(asdict(DIST)), encoding="utf-8")
    train, test, dist = str(train), str(test), str(dist)
    cal_scores, test_scores = _scores(tmp_path / "cal_scores.csv", 400, 5), _scores(tmp_path / "test_scores.csv", 200, 6)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"logistic_grid": [1e-4], "knn_grid": [5, 15], "n_repeats": 1, "cv_folds": 3}))
    bench = ["benchmark", "--data", train, "--config", str(cfg)]
    models = {m: str(tmp_path / f"{m}.json") for m in ("aware", "blind")}
    runs = [
        ["calibrate", "--train", train],
        ["calibrate", "--train", train, "--estimator", "knn", "--mode", "blind"],
        *(["calibrate", "--train", train, "--scores", cal_scores, "--mode", m, "--out", models[m]] for m in models),
        *(["predict", "--model", models[m], "--data", test, "--scores", test_scores] for m in models),
        *(["evaluate", "--model", models[m], "--test", test, "--scores", test_scores] for m in models),
        bench,
        [*bench, "--estimator", "knn", "--unlabeled-fraction", "0.3"],
        [*bench, "--estimator", "knn", "--mode", "blind"],
        ["sweep-unlabeled", "--data", train, "--config", str(cfg), "--labeled-fraction", "0.5", "--fractions", "0,0.4"],
        *(["consistency", "--dist", dist, "--estimator", e, "--n-grid", "200", "--N-grid", "100",
           "--repeats", "1", "--test-size", "1000"] for e in ("exact", "logistic")),
    ]
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(runs)], env=_env(), cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == [], proc.stderr
    assert result["first_numpy_ma"] is None, f"numpy.ma first imported by: {result['first_numpy_ma']}"


def test_cli_import_leaves_hashlib_out():
    code = "import sys, fairthresh.cli; print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
