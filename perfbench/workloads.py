"""The benchmark's workloads: seeded inputs, the CLI invocations, and their output checks.

Inputs are drawn from the package's own analytic laws (``fairthresh.oracle``)
and written as plain CSV/JSON files, so the program under test only ever sees
files, exactly as a user's would.  Every op is one ``fairthresh.cli.main``
invocation; its check reads the files it wrote and returns a list of problems
(empty when the op's output is correct).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# The acceptance-suite law: a strong TPR gap between the groups at theta = 0.
STRONG = (0.35, 0.3, 0.05, 0.9, 0.5)
# Shifted supports, so the feature carries group information and blind mode
# has signal (the acceptance suite's blind-mode law).
BLIND_LAW = {
    "pi_1": 0.5,
    "groups": [
        {"location": -0.25, "scale": 1.0, "knots": [[0.0, 0.35], [1.0, 0.65]]},
        {"location": 0.25, "scale": 1.0, "knots": [[0.0, 0.05], [1.0, 0.95]]},
    ],
}
THETA_BOUND = 2.0
# criterion 03's bound on the oracle theta error at the largest N
THETA_ERR_BOUND = 0.05


@dataclass(frozen=True)
class Op:
    name: str
    argv: list[str]
    check: Callable[[Path], list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generate: Callable[[int, Path, dict], None]
    ops: Callable[[int, Path, Path, dict], list[Op]]
    quality: Callable[[Path], tuple[float, float]]
    report: str | None  # output file holding CV fold flags, if any
    sizes: dict
    toy: dict  # toy sizes for the self-test


def _write_table(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    # %.17g round-trips every float64, so the program reads back the exact draws
    fmts = ["%d" if np.issubdtype(c.dtype, np.integer) else "%.17g" for c in columns]
    np.savetxt(path, np.column_stack(columns), fmt=fmts, delimiter=",",
               header=",".join(header), comments="")


def _write_sample(path: Path, ds, labeled: bool = True) -> None:
    cols = [ds.features[:, 0], ds.sensitive] + ([ds.labels] if labeled else [])
    _write_table(path, ["x1", "S", "Y"][: len(cols)], cols)


def _read_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _fold_flags(report: dict) -> list[str]:
    rows = report.get("methods") or report.get("points") or []
    return [f for m in rows for r in m["rows"] for cv in r["cv_table"] for f in cv["flags"]]


def folds_skipped(report_path: Path) -> int:
    """Number of skipped-fold flags in a benchmark or sweep report."""
    return sum("skipped" in f for f in _fold_flags(_read_json(report_path)))


# --- cv-logistic ------------------------------------------------------------

def _gen_cv_logistic(seed: int, inp: Path, size: dict) -> None:
    from fairthresh.oracle import linear_distribution, sample

    _write_sample(inp / "data.csv", sample(linear_distribution(*STRONG), size["n"], [seed, 1]))
    with open(inp / "config.json", "w", encoding="utf-8") as fh:
        json.dump({"logistic_grid": size["grid"]}, fh)


def _check_cv_logistic(out: Path) -> list[str]:
    report = _read_json(out / "report.json")
    by = {m["method"]: m for m in report["methods"]}
    problems = [
        f"theta_hat {r['theta_hat']} outside [-2, 2]"
        for m in report["methods"] for r in m["rows"] if abs(r["theta_hat"]) > THETA_BOUND
    ]
    if not by["plugin"]["deo_mean"] < by["bayes"]["deo_mean"]:
        problems.append(f"plugin deo {by['plugin']['deo_mean']} not below bayes {by['bayes']['deo_mean']}")
    return problems


def _ops_cv_logistic(seed: int, inp: Path, out: Path, size: dict) -> list[Op]:
    argv = ["benchmark", "--data", str(inp / "data.csv"), "--config", str(inp / "config.json"),
            "--estimator", "logistic", "--cv-folds", str(size["folds"]), "--methods", "plugin,bayes",
            "--train-fraction", str(size["train_fraction"]),
            "--repeats", str(size["repeats"]), "--seed", str(seed),
            "--out", str(out / "report.json"), "--csv", str(out / "rows.csv")]
    return [Op("benchmark", argv, _check_cv_logistic)]


def _quality_cv_logistic(out: Path) -> tuple[float, float]:
    plugin = next(m for m in _read_json(out / "report.json")["methods"] if m["method"] == "plugin")
    return plugin["acc_mean"], plugin["deo_mean"]


# --- sweep-knn --------------------------------------------------------------

def _gen_sweep_knn(seed: int, inp: Path, size: dict) -> None:
    from fairthresh.oracle import linear_distribution, sample

    _write_sample(inp / "data.csv", sample(linear_distribution(*STRONG), size["n"], [seed, 2]))
    with open(inp / "config.json", "w", encoding="utf-8") as fh:
        json.dump({"knn_grid": size["grid"]}, fh)


def _sweep_checker(fractions: list[float]):
    def check(out: Path) -> list[str]:
        report = _read_json(out / "report.json")
        have = {(p["unlabeled_fraction"], p["method"]) for p in report["points"]}
        problems = [f"missing point fraction={f} method={m}"
                    for f in fractions for m in ("plugin", "bayes") if (f, m) not in have]
        if "all_folds_skipped" in _fold_flags(report):
            problems.append("a grid point has all folds skipped")
        return problems
    return check


def _ops_sweep_knn(seed: int, inp: Path, out: Path, size: dict) -> list[Op]:
    fractions = size["fractions"]
    argv = ["sweep-unlabeled", "--data", str(inp / "data.csv"), "--config", str(inp / "config.json"),
            "--estimator", "knn", "--labeled-fraction", "0.1",
            "--fractions", ",".join(f"{f:g}" for f in fractions), "--methods", "plugin,bayes",
            "--repeats", str(size["repeats"]), "--seed", str(seed),
            "--out", str(out / "report.json"), "--csv", str(out / "rows.csv")]
    return [Op("sweep-unlabeled", argv, _sweep_checker(fractions))]


def _quality_sweep_knn(out: Path) -> tuple[float, float]:
    plugin = [p for p in _read_json(out / "report.json")["points"] if p["method"] == "plugin"]
    return (float(np.mean([p["acc_mean"] for p in plugin])),
            float(np.mean([p["deo_mean"] for p in plugin])))


# --- scores-cli -------------------------------------------------------------

def _write_scores(path: Path, law, X) -> None:
    from fairthresh.oracle import exact_group_scores, exact_marginal_scores

    cols = [exact_group_scores(law, X, 0), exact_group_scores(law, X, 1), exact_marginal_scores(law, X)]
    _write_table(path, ["score_s0", "score_s1", "score_marginal"], cols)


def _gen_scores_cli(seed: int, inp: Path, size: dict) -> None:
    from fairthresh.oracle import SyntheticDistribution, sample

    law = SyntheticDistribution.from_json(BLIND_LAW)
    _write_sample(inp / "train.csv", sample(law, size["n_train"], [seed, 3]))
    pool = sample(law, size["N"], [seed, 4])
    _write_sample(inp / "pool.csv", pool, labeled=False)
    _write_scores(inp / "pool_scores.csv", law, pool.features)
    test = sample(law, size["n_test"], [seed, 5])
    _write_sample(inp / "test.csv", test)
    _write_scores(inp / "test_scores.csv", law, test.features)
    with open(inp / "dist.json", "w", encoding="utf-8") as fh:
        json.dump(BLIND_LAW, fh)


def _check_model(aware: bool):
    def check(out: Path) -> list[str]:
        name = "aware.json" if aware else "blind.json"
        theta = _read_json(out / name)["theta_hat"]
        if not np.isfinite(theta) or (aware and abs(theta) > THETA_BOUND):
            return [f"{name}: theta_hat {theta} out of range"]
        return []
    return check


def _check_predictions(n_test: int):
    def check(out: Path) -> list[str]:
        with open(out / "pred.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        if len(rows) != n_test:
            return [f"pred.csv has {len(rows)} rows, expected {n_test}"]
        if any(r != ["0"] and r != ["1"] for r in rows):
            return ["pred.csv has a value other than 0/1"]
        return []
    return check


def _check_evaluation(name: str):
    def check(out: Path) -> list[str]:
        report = _read_json(out / name)
        if report["deo"] is None or not 0.0 <= report["accuracy"] <= 1.0:
            return [f"{name}: accuracy {report['accuracy']}, deo {report['deo']}"]
        return []
    return check


def _check_consistency(out: Path) -> list[str]:
    with open(out / "consistency.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    last = max(rows, key=lambda r: int(r["N"]))
    err = float(last["theta_abs_err_mean"])
    return [] if err <= THETA_ERR_BOUND else [f"theta_abs_err_mean {err} at N={last['N']} above {THETA_ERR_BOUND}"]


def _ops_scores_cli(seed: int, inp: Path, out: Path, size: dict) -> list[Op]:
    cal = ["--train", str(inp / "train.csv"), "--unlabeled", str(inp / "pool.csv"),
           "--scores", str(inp / "pool_scores.csv")]
    test = ["--test", str(inp / "test.csv"), "--scores", str(inp / "test_scores.csv")]
    return [
        Op("calibrate-aware", ["calibrate", *cal, "--out", str(out / "aware.json")], _check_model(True)),
        Op("calibrate-blind", ["calibrate", *cal, "--mode", "blind", "--out", str(out / "blind.json")],
           _check_model(False)),
        Op("predict", ["predict", "--model", str(out / "aware.json"), "--data", str(inp / "test.csv"),
                       "--scores", str(inp / "test_scores.csv"), "--out", str(out / "pred.csv")],
           _check_predictions(size["n_test"])),
        Op("evaluate-aware", ["evaluate", "--model", str(out / "aware.json"), *test,
                              "--out", str(out / "eval_aware.json")], _check_evaluation("eval_aware.json")),
        Op("evaluate-blind", ["evaluate", "--model", str(out / "blind.json"), *test,
                              "--out", str(out / "eval_blind.json")], _check_evaluation("eval_blind.json")),
        Op("consistency", ["consistency", "--dist", str(inp / "dist.json"), "--n-grid", "0",
                           "--N-grid", ",".join(str(n) for n in size["consistency_N"]),
                           "--repeats", str(size["consistency_repeats"]), "--estimator", "exact",
                           "--test-size", str(size["consistency_test"]), "--seed", str(seed),
                           "--out", str(out / "consistency.csv")], _check_consistency),
    ]


def _quality_scores_cli(out: Path) -> tuple[float, float]:
    report = _read_json(out / "eval_aware.json")
    return report["accuracy"], report["deo"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cv-logistic",
            why="benchmark command, logistic GD under 10-fold CV over a lambda grid: the estimator fit dominates",
            generate=_gen_cv_logistic, ops=_ops_cv_logistic, quality=_quality_cv_logistic,
            report="report.json",
            # A large test part and weak penalties only: with lambda >= 1e-2 the shrunken
            # scores bias the plug-in rule, and its test DEO is then not reliably below
            # the bayes arm's, which the output check requires on every seed.
            sizes={"n": 10000, "train_fraction": 0.04, "grid": [1e-4, 1e-3], "folds": 3, "repeats": 2},
            toy={"n": 1000, "train_fraction": 0.3, "grid": [1e-4, 1e-3], "folds": 10, "repeats": 2},
        ),
        Workload(
            name="sweep-knn",
            why="sweep-unlabeled with k-NN over a k grid: k-NN scoring dominates, no GD, CV repeated per fraction",
            generate=_gen_sweep_knn, ops=_ops_sweep_knn, quality=_quality_sweep_knn,
            report="report.json",
            sizes={"n": 3000, "grid": [5, 15, 31, 51], "fractions": [0.0, 0.2, 0.4], "repeats": 2},
            toy={"n": 1000, "grid": [3, 5], "fractions": [0.0, 0.2], "repeats": 2},
        ),
        Workload(
            name="scores-cli",
            why="calibrate/predict/evaluate on external score files plus oracle consistency: ingest and calibration at large N, no fit",
            generate=_gen_scores_cli, ops=_ops_scores_cli, quality=_quality_scores_cli,
            report=None,
            sizes={"n_train": 2000, "N": 60_000, "n_test": 30_000,
                   "consistency_N": [1000, 10000, 50000], "consistency_repeats": 3, "consistency_test": 20_000},
            toy={"n_train": 200, "N": 2000, "n_test": 1000,
                 "consistency_N": [1000, 10000], "consistency_repeats": 2, "consistency_test": 5000},
        ),
    )
}
