"""Repeated-split benchmark protocol with two-step cross-validated selection.

Per repeat the data splits 70/30 (stratified), a k-fold CV over the
hyperparameter grid runs on the train part, and selection proceeds in two
steps: keep every hyperparameter whose CV accuracy reaches the shortlist
fraction of the best, then pick the one with the lowest CV DEO (ties: higher
accuracy, then grid order).  The winner is refit on the whole train part,
calibrated, and evaluated on the test part.

Two method arms are available: "plugin" (the calibrated classifier) and
"bayes" (the same scores thresholded at 1/2, i.e. theta forced to 0), so the
cost of calibration is always measurable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .calibration import calibrate
from .data import LabeledDataset, SplitPlan, UnlabeledDataset, split
from .errors import ConfigError, GroupCoverageError
from .estimators import KnnConfig, LogisticConfig
from .metrics import deo as deo_report

LOGISTIC_LAMBDA_GRID = tuple(float(v) for v in np.logspace(-4, 4, 30))
KNN_K_GRID = tuple(range(1, 52, 2))
METHODS = ("plugin", "bayes")


@dataclass(frozen=True)
class BenchmarkConfig:
    sensitive_col: str = "S"
    label_col: str = "Y"
    estimator: str = "logistic"  # "logistic" | "knn"
    logistic_grid: tuple[float, ...] = LOGISTIC_LAMBDA_GRID
    knn_grid: tuple[int, ...] = KNN_K_GRID
    train_fraction: float = 0.7
    n_repeats: int = 30
    seed: int = 0
    cv_folds: int = 10
    shortlist_fraction: float = 0.9
    unlabeled: str | float = "reuse"  # "reuse" | fraction of train held out for calibration
    methods: tuple[str, ...] = METHODS
    mode: str = "aware"

    def __post_init__(self):
        if not 0.0 < self.shortlist_fraction <= 1.0:
            raise ConfigError(f"shortlist_fraction must lie in (0, 1], got {self.shortlist_fraction}")
        if self.estimator not in ("logistic", "knn"):
            raise ConfigError(f"estimator must be 'logistic' or 'knn', got {self.estimator!r}")
        if not self.grid():
            raise ConfigError("hyperparameter grid is empty")
        if self.cv_folds < 2:
            raise ConfigError(f"cv_folds must be >= 2, got {self.cv_folds}")
        for m in self.methods:
            if m not in METHODS:
                raise ConfigError(f"unknown method {m!r}")
        if isinstance(self.unlabeled, float) and not 0.0 < self.unlabeled < 1.0:
            raise ConfigError(f"unlabeled fraction must lie in (0, 1), got {self.unlabeled}")

    def grid(self) -> list[tuple[str, object]]:
        if self.estimator == "logistic":
            return [(f"lambda={v:g}", LogisticConfig(l2_lambda=v)) for v in self.logistic_grid]
        return [(f"k={k}", KnnConfig(k=k)) for k in self.knn_grid]


@dataclass(frozen=True)
class CvRow:
    param: str
    acc: float
    deo: float
    folds_used: int
    flags: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {**self.__dict__, "flags": list(self.flags)}


@dataclass(frozen=True)
class RepeatOutcome:
    repeat: int
    method: str
    param: str
    acc: float
    deo: float | None
    theta_hat: float
    flags: tuple[str, ...] = ()
    cv_table: tuple[CvRow, ...] = ()

    def to_json(self) -> dict:
        out = {**self.__dict__, "flags": list(self.flags)}
        out["cv_table"] = [r.to_json() for r in self.cv_table]
        return out


@dataclass(frozen=True)
class MethodSummary:
    method: str
    acc_mean: float
    acc_std: float | None
    deo_mean: float
    deo_std: float | None
    rows: tuple[RepeatOutcome, ...]

    def to_json(self) -> dict:
        out = {**self.__dict__}
        out["rows"] = [r.to_json() for r in self.rows]
        return out


@dataclass(frozen=True)
class BenchmarkReport:
    methods: tuple[MethodSummary, ...]
    metadata: dict

    def to_json(self) -> dict:
        return {"methods": [m.to_json() for m in self.methods], "metadata": self.metadata}


def _cv_partition(ds: LabeledDataset, folds: int, rng) -> list[np.ndarray]:
    """Fold assignment stratified by (sensitive, label) cell."""
    assign = np.empty(ds.n, dtype=np.int64)
    offset = 0
    for g in (0, 1):
        for v in (0, 1):
            idx = np.flatnonzero((ds.sensitive == g) & (ds.labels == v))
            idx = idx[rng.permutation(idx.size)]
            assign[idx] = (np.arange(idx.size) + offset) % folds
            offset += idx.size
    return [np.flatnonzero(assign == f) for f in range(folds)]


def _carve_unlabeled(train: LabeledDataset, fraction: float, rng):
    """Hold a fraction of the train rows out as an unlabeled calibration part."""
    n_unl = int(round(fraction * train.n))
    if n_unl < 4 or train.n - n_unl < 2:
        raise ConfigError(f"unlabeled fraction {fraction} leaves too few rows on one side")
    perm = rng.permutation(train.n)
    unl_idx, fit_idx = perm[:n_unl], perm[n_unl:]
    unl = UnlabeledDataset(train.features[unl_idx], train.sensitive[unl_idx])
    return train.take(fit_idx), unl


def _fit_and_evaluate(train, test, est_cfg, mode, method, unlabeled, rng):
    """Calibrate on train (optionally with a held-out unlabeled part), score test."""
    if isinstance(unlabeled, float):
        fit_part, unl = _carve_unlabeled(train, unlabeled, rng)
    elif isinstance(unlabeled, UnlabeledDataset):
        fit_part, unl = train, unlabeled
    else:
        fit_part, unl = train, None  # reuse-train calibration
    clf = calibrate(fit_part, unl, estimator=est_cfg, mode=mode)
    if method == "bayes":
        clf = replace(clf, theta_hat=0.0)
    if mode == "aware":
        pred = clf.predict(test.features, test.sensitive)
    else:
        pred = clf.predict(test.features)
    report = deo_report(pred, test.labels, test.sensitive)
    return report, clf


def cross_validate(train: LabeledDataset, config: BenchmarkConfig, method: str, seed) -> list[CvRow]:
    """k-fold CV of every grid point; a fold whose fit part misses a group is
    skipped with a flag, and an undefined fold DEO counts as 0 with a flag."""
    rng = np.random.default_rng(seed)
    fold_idx = _cv_partition(train, config.cv_folds, rng)
    all_idx = np.arange(train.n)
    rows = []
    for label, est_cfg in config.grid():
        accs, deos, flags, used = [], [], set(), 0
        for f, held in enumerate(fold_idx):
            if held.size == 0:
                continue
            fit_idx = np.setdiff1d(all_idx, held)
            fit_part = train.take(fit_idx)
            if 0 in fit_part.group_counts():
                flags.add(f"fold_{f}_skipped_missing_group")
                continue
            try:
                report, _ = _fit_and_evaluate(
                    fit_part, train.take(held), est_cfg, config.mode, method, config.unlabeled, rng
                )
            except (GroupCoverageError, ConfigError):
                flags.add(f"fold_{f}_skipped_infeasible")
                continue
            accs.append(report.accuracy)
            if report.deo is None:
                deos.append(0.0)
                flags.add(f"fold_{f}_deo_undefined")
            else:
                deos.append(report.deo)
            used += 1
        if used == 0:
            flags.add("all_folds_skipped")
            rows.append(CvRow(param=label, acc=float("nan"), deo=float("nan"), folds_used=0, flags=tuple(sorted(flags))))
        else:
            rows.append(
                CvRow(
                    param=label,
                    acc=float(np.mean(accs)),
                    deo=float(np.mean(deos)),
                    folds_used=used,
                    flags=tuple(sorted(flags)),
                )
            )
    if all(r.folds_used == 0 for r in rows):
        raise ConfigError("cross-validation failed: every fold was skipped for every grid point")
    return rows


def select_hyperparameters(rows: list[CvRow], shortlist_fraction: float) -> int:
    """Two-step rule: shortlist by accuracy, then minimize DEO within it."""
    usable = [i for i, r in enumerate(rows) if r.folds_used > 0]
    best_acc = max(rows[i].acc for i in usable)
    shortlist = [i for i in usable if rows[i].acc >= shortlist_fraction * best_acc]
    return min(shortlist, key=lambda i: (rows[i].deo, -rows[i].acc, i))


def _summarize(method: str, rows: list[RepeatOutcome], with_std: bool) -> MethodSummary:
    accs = np.asarray([r.acc for r in rows])
    deos = np.asarray([0.0 if r.deo is None else r.deo for r in rows])
    ddof = 1 if len(rows) > 1 else 0
    return MethodSummary(
        method=method,
        acc_mean=float(accs.mean()),
        acc_std=float(accs.std(ddof=ddof)) if with_std else None,
        deo_mean=float(deos.mean()),
        deo_std=float(deos.std(ddof=ddof)) if with_std else None,
        rows=tuple(rows),
    )


def _run_one(train, test, config: BenchmarkConfig, method: str, repeat: int, seed: list, unlabeled) -> RepeatOutcome:
    grid = config.grid()
    if len(grid) == 1:
        chosen, cv_rows = 0, ()
    else:
        cv_rows = cross_validate(train, config, method, seed)
        chosen = select_hyperparameters(cv_rows, config.shortlist_fraction)
        cv_rows = tuple(cv_rows)
    label, est_cfg = grid[chosen]
    rng = np.random.default_rng(list(seed) + [7])
    report, clf = _fit_and_evaluate(train, test, est_cfg, config.mode, method, unlabeled, rng)
    return RepeatOutcome(
        repeat=repeat,
        method=method,
        param=label,
        acc=report.accuracy,
        deo=report.deo,
        theta_hat=clf.theta_hat,
        flags=tuple(report.flags),
        cv_table=cv_rows,
    )


def run_benchmark(
    ds: LabeledDataset,
    config: BenchmarkConfig,
    test: LabeledDataset | None = None,
    unlabeled_ds: UnlabeledDataset | None = None,
) -> BenchmarkReport:
    """Full protocol over repeated splits, or a single pass on a fixed test set.

    An explicit unlabeled dataset overrides the config's unlabeled source.
    With a fixed test set (Adult-style) the split loop is skipped and the
    std columns are absent from the summaries.
    """
    unlabeled = unlabeled_ds if unlabeled_ds is not None else config.unlabeled
    summaries = []
    if test is not None:
        for method in config.methods:
            row = _run_one(ds, test, config, method, repeat=0, seed=[config.seed, 0], unlabeled=unlabeled)
            summaries.append(_summarize(method, [row], with_std=False))
        meta_splits = "fixed-test"
    else:
        plan = SplitPlan(config.train_fraction, config.n_repeats, config.seed)
        splits = split(ds, plan)
        for method in config.methods:
            rows = [
                _run_one(sp.train, sp.test, config, method, repeat=r, seed=[config.seed, r], unlabeled=unlabeled)
                for r, sp in enumerate(splits)
            ]
            summaries.append(_summarize(method, rows, with_std=True))
        meta_splits = f"{config.n_repeats} stratified splits at {config.train_fraction:g}"
    metadata = {
        "estimator": config.estimator,
        "mode": config.mode,
        "splits": meta_splits,
        "cv_folds": config.cv_folds,
        "cv_stratification": "sensitive-by-label cells",
        "shortlist_fraction": config.shortlist_fraction,
        "unlabeled": config.unlabeled if isinstance(config.unlabeled, str) else f"fraction {config.unlabeled}",
        "seed": config.seed,
    }
    return BenchmarkReport(methods=tuple(summaries), metadata=metadata)


@dataclass(frozen=True)
class SweepPoint:
    unlabeled_fraction: float
    method: str
    acc_mean: float
    acc_std: float
    deo_mean: float
    deo_std: float
    rows: tuple[RepeatOutcome, ...]

    def to_json(self) -> dict:
        out = {**self.__dict__}
        out["rows"] = [r.to_json() for r in self.rows]
        return out


@dataclass(frozen=True)
class SweepReport:
    points: tuple[SweepPoint, ...]
    metadata: dict

    def to_json(self) -> dict:
        return {"points": [p.to_json() for p in self.points], "metadata": self.metadata}


def run_unlabeled_sweep(
    ds: LabeledDataset,
    config: BenchmarkConfig,
    labeled_fraction: float = 0.1,
    unlabeled_fractions=(0.0, 0.1, 0.2, 0.4, 0.8),
) -> SweepReport:
    """Effect of the unlabeled-sample size at a fixed labeled-sample size.

    Per repeat, a stratified split carves out the labeled part; the unlabeled
    part then takes the first round(f * n) rows of a per-repeat permutation
    of the remainder (so larger fractions extend smaller ones) and evaluation
    uses what is left.  Fraction 0 reuses the labeled part for calibration,
    which makes that column identical to run_benchmark on the same plan.
    """
    fractions = sorted(set(float(f) for f in unlabeled_fractions))
    if not fractions:
        raise ConfigError("unlabeled_fractions must be nonempty")
    if min(fractions) < 0.0:
        raise ConfigError("unlabeled fractions must be >= 0")
    if labeled_fraction + max(fractions) >= 1.0:
        raise ConfigError(
            f"labeled fraction {labeled_fraction} plus unlabeled fraction {max(fractions)} "
            "leaves no evaluation rows"
        )
    plan = SplitPlan(labeled_fraction, config.n_repeats, config.seed)
    splits = split(ds, plan)
    points = []
    for frac in fractions:
        for method in config.methods:
            rows = []
            for r, sp in enumerate(splits):
                rest = sp.test
                perm = np.random.default_rng([config.seed, r, 917]).permutation(rest.n)
                n_unl = int(round(frac * ds.n))
                if n_unl > 0:
                    unl = UnlabeledDataset(rest.features[perm[:n_unl]], rest.sensitive[perm[:n_unl]])
                    eval_part = rest.take(perm[n_unl:])
                else:
                    unl, eval_part = "reuse", rest
                cfg = replace(config, unlabeled="reuse")
                rows.append(_run_one(sp.train, eval_part, cfg, method, r, [config.seed, r], unl))
            summary = _summarize(method, rows, with_std=True)
            points.append(
                SweepPoint(
                    unlabeled_fraction=frac,
                    method=method,
                    acc_mean=summary.acc_mean,
                    acc_std=summary.acc_std,
                    deo_mean=summary.deo_mean,
                    deo_std=summary.deo_std,
                    rows=summary.rows,
                )
            )
    metadata = {
        "labeled_fraction": labeled_fraction,
        "repeats": config.n_repeats,
        "estimator": config.estimator,
        "seed": config.seed,
    }
    return SweepReport(points=tuple(points), metadata=metadata)
