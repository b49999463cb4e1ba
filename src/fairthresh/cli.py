"""Command-line interface.

Subcommands: calibrate, predict, evaluate, benchmark, sweep-unlabeled,
consistency.  Every command is deterministic given its flags and seed,
prints an aligned human-readable summary to stdout, and writes machine
output (JSON, or CSV for tabular results) to the requested paths.

Input files are read only through ``fairthresh.data``: a command's CSVs
through one ``Inputs``, which parses them together and hands each out at its
turn (``load_csv`` for labeled data, ``load_features`` for calibration and
prediction files, which drop the label column, ``load_scores`` for score
files), and model, config and distribution JSON through ``read_json``.  So
every input obeys the same rules and a missing or unreadable file ends in
exit code 2; this module opens no input file itself.

Exit codes: 0 ok, 2 schema error, 3 group-coverage error, 4 numeric error,
5 config error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict

import numpy as np

from . import benchmark as bench
from . import calibration, estimators, metrics, oracle
from .data import Inputs, UnlabeledDataset, load_csv, read_json
from .errors import ConfigError, FairthreshError, SchemaError


def _fmt_table(headers, rows) -> str:
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in cells]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _open_output(path, **kwargs):
    """Open an output file for writing; a path that cannot be written is a SchemaError (exit 2)."""
    try:
        return open(path, "w", encoding="utf-8", **kwargs)
    except OSError as exc:
        raise SchemaError(f"{path}: cannot write the file") from exc


def _parse_list(text: str, kind, flag: str) -> list:
    """Parse a comma-list flag; an empty or unparsable item is a SchemaError (exit 2)."""
    try:
        return [kind(v) for v in text.split(",")]
    except ValueError as exc:
        raise SchemaError(f"{flag}: expected a comma list of {kind.__name__} values, got {text!r}") from exc


def _write_json(path, payload) -> None:
    with _open_output(path) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _write_csv(path, headers, rows) -> None:
    with _open_output(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(headers)
        writer.writerows(rows)


def _num(x, digits=6):
    if x is None:
        return "-"
    return f"{x:.{digits}f}"


def _aligned(path, n_rows, n_expected):
    if n_rows != n_expected:
        raise SchemaError(f"{path}: {n_rows} rows, expected {n_expected} (row-aligned input required)")


def _estimator(args):
    """The estimator config named by --estimator, --l2-lambda and --knn-k."""
    if args.estimator == "knn":
        return estimators.KnnConfig(k=args.knn_k)
    return estimators.LogisticConfig(l2_lambda=args.l2_lambda)


def cmd_calibrate(args) -> int:
    inputs = Inputs(args.train, args.unlabeled, args.scores)
    train = inputs.load_csv(args.train, args.sensitive_col, args.label_col)
    unlabeled = None
    if args.unlabeled:
        X, S = inputs.load_features(args.unlabeled, args.sensitive_col, args.label_col)
        if args.mode == "aware" and S is None:
            raise SchemaError(f"{args.unlabeled}: group-aware calibration needs column {args.sensitive_col!r}")
        # blind calibration never reads S, so its group sizes are not checked
        unlabeled = UnlabeledDataset(X, S if args.mode == "aware" else None)

    if args.scores:
        cal = unlabeled if unlabeled is not None else train
        s0, s1, marg = inputs.load_scores(args.scores, need_marginal=args.mode == "blind")
        _aligned(args.scores, len(s0), cal.n)
        clf = calibration.calibrate_scores(s0, s1, sensitive=cal.sensitive, marginal=marg, mode=args.mode)
    else:
        clf = calibration.calibrate(
            train, unlabeled, estimator=_estimator(args), mode=args.mode, jitter_amplitude=args.jitter
        )

    if args.out:
        _write_json(args.out, clf.to_json())
    print(f"mode            {clf.mode}")
    print(f"theta_hat       {clf.theta_hat:.10g}")
    print(f"unfairness_hat  {clf.unfairness_hat:.10g}")
    if clf.stats is not None:
        print(f"joint           s0={clf.stats.joint[0]:.6g} s1={clf.stats.joint[1]:.6g}")
    if not clf.model.converged:
        print("warning: estimator did not converge within max_iters", file=sys.stderr)
    if args.out:
        print(f"model written   {args.out}")
    return 0


def _load_model(path) -> calibration.FairClassifier:
    try:
        return calibration.FairClassifier.from_json(read_json(path))
    except (KeyError, TypeError, ValueError) as exc:  # a missing field, or a value of the wrong shape
        raise SchemaError(f"{path}: not a valid model file: {exc}") from exc


def _predict(clf, X, S, inputs, scores_path) -> np.ndarray:
    """Predictions from the model's own scores, or from a score file of inputs row-aligned with X."""
    if not scores_path:
        return clf.predict(X, S)
    s0, s1, marg = inputs.load_scores(scores_path, need_marginal=clf.mode == "blind")
    _aligned(scores_path, len(s0), X.shape[0])
    return clf.predict_from_scores(scores_s0=s0, scores_s1=s1, sensitive=S, marginal=marg)


def cmd_predict(args) -> int:
    clf = _load_model(args.model)
    inputs = Inputs(args.data, args.scores)
    X, S = inputs.load_features(args.data, args.sensitive_col, args.label_col)
    if clf.mode == "aware" and S is None:
        raise SchemaError(f"{args.data}: group-aware prediction needs column {args.sensitive_col!r}")
    pred = _predict(clf, X, S, inputs, args.scores)
    if args.out:
        with _open_output(args.out, newline="") as fh:  # the bytes of csv.writer: \r\n line ends
            fh.write("\r\n".join(["prediction", *map(str, pred.tolist())]) + "\r\n")
        print(f"predictions written {args.out}")
    print(f"rows           {len(pred)}")
    print(f"positive rate  {float(np.mean(pred)):.6f}")
    return 0


def cmd_evaluate(args) -> int:
    clf = _load_model(args.model)
    inputs = Inputs(args.test, args.scores)
    test = inputs.load_csv(args.test, args.sensitive_col, args.label_col)
    pred = _predict(clf, test.features, test.sensitive, inputs, args.scores)
    report = metrics.deo(pred, test.labels, test.sensitive)
    if args.out:
        _write_json(args.out, asdict(report))
    print(f"accuracy   {report.accuracy:.6f}")
    print(f"deo_test   {_num(report.deo)}")
    print(f"tpr_s0     {_num(report.tpr_per_group[0])}")
    print(f"tpr_s1     {_num(report.tpr_per_group[1])}")
    if report.flags:
        print(f"flags      {','.join(report.flags)}")
    return 0


def _benchmark_config(args) -> bench.BenchmarkConfig:
    fields = read_json(args.config) if args.config else {}
    if not isinstance(fields, dict):
        raise SchemaError(f"{args.config}: a benchmark config is a JSON object, got {type(fields).__name__}")
    overrides = {
        "sensitive_col": args.sensitive_col,
        "label_col": args.label_col,
        "estimator": args.estimator,
        # --train-fraction and --unlabeled-fraction exist on benchmark only
        "train_fraction": getattr(args, "train_fraction", None),
        "n_repeats": args.repeats,
        "seed": args.seed,
        "cv_folds": args.cv_folds,
        "shortlist_fraction": args.shortlist_fraction,
        "mode": args.mode,
        "unlabeled": getattr(args, "unlabeled_fraction", None),
    }
    if args.methods:
        overrides["methods"] = tuple(args.methods.split(","))
    fields.update({k: v for k, v in overrides.items() if v is not None})
    for key in ("logistic_grid", "knn_grid", "methods"):
        if key in fields and isinstance(fields[key], list):
            fields[key] = tuple(fields[key])
    try:
        return bench.BenchmarkConfig(**fields)
    except TypeError as exc:
        raise ConfigError(f"bad benchmark config: {exc}") from exc


def _print_method_table(summaries):
    rows = [
        [
            m.method,
            _num(m.acc_mean, 4),
            _num(m.acc_std, 4) if m.acc_std is not None else "-",
            _num(m.deo_mean, 4),
            _num(m.deo_std, 4) if m.deo_std is not None else "-",
        ]
        for m in summaries
    ]
    print(_fmt_table(["method", "acc_mean", "acc_std", "deo_mean", "deo_std"], rows))


def cmd_benchmark(args) -> int:
    config = _benchmark_config(args)
    inputs = Inputs(args.data, args.test, args.unlabeled)
    ds = inputs.load_csv(args.data, config.sensitive_col, config.label_col)
    test = inputs.load_csv(args.test, config.sensitive_col, config.label_col) if args.test else None
    unl = (
        UnlabeledDataset(*inputs.load_features(args.unlabeled, config.sensitive_col, config.label_col))
        if args.unlabeled
        else None
    )
    report = bench.run_benchmark(ds, config, test=test, unlabeled_ds=unl)
    _print_method_table(report.methods)
    if args.out:
        _write_json(args.out, asdict(report))
    if args.csv:
        rows = [
            [m.method, r.repeat, r.param, f"{r.acc:.6f}", "" if r.deo is None else f"{r.deo:.6f}",
             f"{r.theta_hat:.10g}", ";".join(r.flags)]
            for m in report.methods
            for r in m.rows
        ]
        _write_csv(args.csv, ["method", "repeat", "param", "acc", "deo", "theta_hat", "flags"], rows)
    return 0


def cmd_sweep_unlabeled(args) -> int:
    config = _benchmark_config(args)
    ds = load_csv(args.data, config.sensitive_col, config.label_col)
    fractions = _parse_list(args.fractions, float, "--fractions")
    report = bench.run_unlabeled_sweep(
        ds, config, labeled_fraction=args.labeled_fraction, unlabeled_fractions=fractions
    )
    headers = ["unlabeled_fraction", "method", "acc_mean", "acc_std", "deo_mean", "deo_std"]
    rows = [
        [f"{p.unlabeled_fraction:g}", p.method, _num(p.acc_mean, 4), _num(p.acc_std, 4),
         _num(p.deo_mean, 4), _num(p.deo_std, 4)]
        for p in report.points
    ]
    print(_fmt_table(headers, rows))
    if args.out:
        # a point's JSON leads with its fraction; asdict would put the subclass field last
        points = [{"unlabeled_fraction": p.unlabeled_fraction, **asdict(p)} for p in report.points]
        _write_json(args.out, {"points": points, "metadata": report.metadata})
    if args.csv:
        _write_csv(args.csv, headers, [[getattr(p, h) for h in headers] for p in report.points])
    return 0


def cmd_consistency(args) -> int:
    dist = oracle.SyntheticDistribution.from_json(read_json(args.dist))
    est = "exact" if args.estimator == "exact" else _estimator(args)
    n_grid = _parse_list(args.n_grid, int, "--n-grid")
    N_grid = _parse_list(args.N_grid, int, "--N-grid")
    cells = oracle.consistency_run(
        dist, n_grid, N_grid, repeats=args.repeats, seed=args.seed,
        estimator=est, test_size=args.test_size,
    )
    headers = ["n", "N", "repeats", "deo_mean", "deo_std", "excess_risk_mean", "excess_risk_std",
               "theta_abs_err_mean"]
    rows = [[getattr(c, h) for h in headers] for c in cells]
    print(_fmt_table(headers, [[_num(v) if isinstance(v, float) else v for v in row] for row in rows]))
    if args.out:
        _write_csv(args.out, headers, rows)
    return 0


def _data_columns(p) -> None:
    p.add_argument("--sensitive-col", default="S")
    p.add_argument("--label-col", default="Y")


def _calibrate_arguments(p) -> None:
    p.add_argument("--train", required=True)
    p.add_argument("--unlabeled")
    p.add_argument("--scores", help="precomputed score file (score_s0, score_s1[, score_marginal])")
    _data_columns(p)
    p.add_argument("--estimator", choices=("logistic", "knn"), default="logistic")
    p.add_argument("--mode", choices=("aware", "blind"), default="aware")
    p.add_argument("--l2-lambda", type=float, default=1e-4)
    p.add_argument("--knn-k", type=int, default=11)
    p.add_argument("--jitter", type=float, default=0.0)
    p.add_argument("--out")


def _model_arguments(data: str):
    """The arguments of predict (data "--data") and evaluate (data "--test")."""
    def add(p) -> None:
        p.add_argument("--model", required=True)
        p.add_argument(data, required=True)
        p.add_argument("--scores")
        _data_columns(p)
        p.add_argument("--out")
    return add


def _bench_arguments(p) -> None:
    _data_columns(p)
    p.set_defaults(sensitive_col=None, label_col=None)  # unset flags leave the config's names
    p.add_argument("--config", help="JSON file with BenchmarkConfig fields; flags override")
    p.add_argument("--estimator", choices=("logistic", "knn"))
    p.add_argument("--repeats", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--cv-folds", type=int)
    p.add_argument("--shortlist-fraction", type=float)
    p.add_argument("--mode", choices=("aware", "blind"))
    p.add_argument("--methods", help="comma list from: plugin,bayes")
    p.add_argument("--out", help="JSON report path")
    p.add_argument("--csv", help="per-row CSV path (plot-ready)")


def _benchmark_arguments(p) -> None:
    p.add_argument("--data", required=True)
    p.add_argument("--test", help="fixed test set; disables repeated splitting")
    p.add_argument("--unlabeled", help="unlabeled CSV used for calibration")
    p.add_argument("--train-fraction", type=float)
    p.add_argument("--unlabeled-fraction", type=float, help="carve this train fraction out for calibration")
    _bench_arguments(p)


def _sweep_arguments(p) -> None:
    p.add_argument("--data", required=True)
    p.add_argument("--labeled-fraction", type=float, default=0.1)
    p.add_argument("--fractions", default="0,0.1,0.2,0.4,0.8")
    _bench_arguments(p)


def _consistency_arguments(p) -> None:
    p.add_argument("--dist", required=True, help="synthetic distribution JSON")
    p.add_argument("--n-grid", default="1000")
    p.add_argument("--N-grid", dest="N_grid", default="100,1000,10000")
    p.add_argument("--repeats", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--estimator", choices=("exact", "logistic", "knn"), default="exact")
    p.add_argument("--l2-lambda", type=float, default=1e-4)
    p.add_argument("--knn-k", type=int, default=11)
    p.add_argument("--test-size", type=int, default=100_000)
    p.add_argument("--out", help="CSV table path")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, each registered with its help text, but with the arguments of command
    alone, or of every subcommand for None: each add_argument builds a help formatter, which asks for the
    terminal size, so a command's parser costs a fraction of the whole.  The help texts and usage errors
    of the commands parsed are the same either way."""
    parser = argparse.ArgumentParser(
        prog="fairthresh",
        description="Equal-opportunity-fair classification by group-dependent threshold calibration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {  # built at each call, so each command runs the cmd_ function its module holds now
        "calibrate": ("fit scores and the fair threshold shift", _calibrate_arguments, cmd_calibrate),
        "predict": ("predict labels with a calibrated model", _model_arguments("--data"), cmd_predict),
        "evaluate": ("accuracy and test-set DEO of a model", _model_arguments("--test"), cmd_evaluate),
        "benchmark": ("repeated-split protocol with two-step CV selection", _benchmark_arguments, cmd_benchmark),
        "sweep-unlabeled": ("effect of the unlabeled sample size", _sweep_arguments, cmd_sweep_unlabeled),
        "consistency": ("oracle-backed consistency experiment", _consistency_arguments, cmd_consistency),
    }
    for name, (help_text, add_arguments, func) in commands.items():
        p = sub.add_parser(name, help=help_text)
        if command in (None, name):
            add_arguments(p)
            p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else "").parse_args(argv)
    try:
        return args.func(args)
    except FairthreshError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
