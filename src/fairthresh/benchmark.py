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

Every fit scores each row it needs once, at the default floor, through one
routine (_score_members): k-NN grid points fitted on the same rows share one
neighbour table per group and query set.  CV fits the whole grid per fold and
calibrates on the fold's fit part or, with a held-out unlabeled fraction, on
one carve per fold shared by every grid point.  Either way every grid point
of a fold calibrates on the same rows and predicts the same held-out rows, so
the fold's scores come as grid-major blocks, (K, n) or blind (K, 3, n).
_evaluate takes a batch of such folds at once: one calibrate_scores call for
all of them (each fold floored with its own c, per-row group statistics, one
exact argmin for every row of every fold), then per fold one switch-point
pass deciding both method arms for every row and one DEO call on the
(arms x K, n_held) prediction matrix.  cross_validate hands it all of a
repeat's folds, in batches of about calibration._BATCH_ENTRIES calibration
scores, so a large fold's blocks are not all held at once; _run_repeat hands
it all of its final refits, one sample per target holding every chosen grid
point's row.

k-NN calibrating on its fit parts skips the fits: the folds of a repeat share
one neighbour order per model slot (_knn_fold_tables) of at most
Q_s x (2 k_max + 16) entries, for Q_s query rows (the slot's group in aware
mode, every train row in blind mode); the rare query that keeps too few
neighbours in some fold is ordered again to depth k_max + h_s, with at most
h_s of the slot's train rows held out by one fold.  The chosen grid points
are refitted once per repeat and, in the sweep, score the labeled part and
the other rows once for every unlabeled fraction.  The scores then go through
calibration.calibrate_scores as blocks the benchmark owns: it floors a
calibration sample's scores in place with its own c, never below the default
floor, so the shared k-NN tables, from which each fold's blocks are copied,
stay unfloored, and both arms predict from the same test scores, floored with
that c into a new array.

Every repeat is seeded on its own ([seed, r] for its split and CV,
[seed, r, 7] for its carve, [seed, r, 917] for the sweep's permutation), so
run_benchmark and run_unlabeled_sweep map one repeat function over the
repeat indices with _parallel.map_ordered: on Linux in forked workers, one
per usable CPU, with the same report for any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from numbers import Integral, Real

import numpy as np

from . import calibration
from ._parallel import map_ordered
# calibrate is not called here, but perfbench/spans.py wraps fairthresh.benchmark.calibrate by name
from .calibration import _batches, _fit_estimator, _row_scores, calibrate  # noqa: F401
from .data import LabeledDataset, SplitPlan, UnlabeledDataset, split
from .errors import ConfigError, GroupCoverageError
from .estimators import KnnConfig, LogisticConfig, _knn_order, _knn_path, _slots
from .metrics import deo as deo_report

LOGISTIC_LAMBDA_GRID = tuple(float(v) for v in np.logspace(-4, 4, 30))
KNN_K_GRID = tuple(range(1, 52, 2))
METHODS = ("plugin", "bayes")
# the type of each scalar config field; bools are neither counts nor fractions
_FIELD_TYPES = {
    **dict.fromkeys(("sensitive_col", "label_col", "estimator", "mode"), str),
    **dict.fromkeys(("n_repeats", "seed", "cv_folds"), Integral),
    **dict.fromkeys(("train_fraction", "shortlist_fraction"), Real),
}
_KIND_NAMES = {str: "a string", Integral: "an integer", Real: "a real number"}


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
        for name, kind in _FIELD_TYPES.items():
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ConfigError(f"{name} must be {_KIND_NAMES[kind]}, got {value!r}")
        for name, kind in (("logistic_grid", Real), ("knn_grid", Integral)):
            values = getattr(self, name)
            if not isinstance(values, (tuple, list)) or not all(
                isinstance(v, kind) and not isinstance(v, bool) for v in values
            ):
                raise ConfigError(f"{name} must be a list, each entry {_KIND_NAMES[kind]}, got {values!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.shortlist_fraction <= 1.0:
            raise ConfigError(f"shortlist_fraction must lie in (0, 1], got {self.shortlist_fraction}")
        if self.estimator not in ("logistic", "knn"):
            raise ConfigError(f"estimator must be 'logistic' or 'knn', got {self.estimator!r}")
        if self.mode not in ("aware", "blind"):
            raise ConfigError(f"mode must be 'aware' or 'blind', got {self.mode!r}")
        if not self.grid():
            raise ConfigError("hyperparameter grid is empty")
        if self.cv_folds < 2:
            raise ConfigError(f"cv_folds must be >= 2, got {self.cv_folds}")
        methods = self.methods
        if not isinstance(methods, (tuple, list)) or not methods or any(m not in METHODS for m in methods):
            raise ConfigError(f"methods must be a nonempty list from {METHODS}, got {self.methods!r}")
        if len(set(methods)) < len(methods):
            dup = next(m for i, m in enumerate(methods) if m in methods[:i])
            raise ConfigError(f"methods must be distinct, {dup!r} is listed more than once in {self.methods!r}")
        if self.unlabeled != "reuse" and not (isinstance(self.unlabeled, float) and 0.0 < self.unlabeled < 1.0):
            raise ConfigError(f"unlabeled must be 'reuse' or a fraction in (0, 1), got {self.unlabeled!r}")

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


@dataclass(frozen=True)
class MethodSummary:
    method: str
    acc_mean: float
    acc_std: float | None
    deo_mean: float
    deo_std: float | None
    rows: tuple[RepeatOutcome, ...]


@dataclass(frozen=True)
class BenchmarkReport:
    methods: tuple[MethodSummary, ...]
    metadata: dict


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


def _pick(values, rows):
    return values if rows is None or values is None else values[..., rows]


def _score_members(models: list, queries) -> list[np.ndarray]:
    """Scores of the fitted members, in order, on each query dataset: one grid-major block per query,
    (members, n) or, blind, (members, 3, n), C-ordered.

    The members are fitted on one part; k-NN members are scored together by
    one path model, so each query dataset costs one neighbour table per group.
    """
    if models[0].kind == "knn":
        tables = [_row_scores(_knn_path(models), q.features, q.sensitive) for q in queries]
        return [np.ascontiguousarray(np.moveaxis(t, -1, 0)) for t in tables]
    return [np.stack([_row_scores(model, q.features, q.sensitive) for model in models]) for q in queries]


def _evaluate(cals, tests, mode, methods) -> list[dict]:
    """Calibrate every grid row of every cal = (score block, S) in one calibrate_scores call, then predict
    each sample's test = (score block, labels, S) with each method arm, a sample's rows and arms in one
    decision and one DEO pass: per sample, {method: [(report, classifier) per grid row]}.  The calibration
    blocks are the caller's own: they are floored in place."""
    out = []
    for classifiers, (scores, labels, sensitive) in zip(calibration.calibrate_scores(samples=cals, mode=mode), tests):
        arms = [[clf if m == "plugin" else replace(clf, theta_hat=0.0) for clf in classifiers] for m in methods]
        thetas = [[clf.theta_hat for clf in row] for row in arms]
        pred = calibration._predict_grid(classifiers, thetas, scores, sensitive)
        reports = iter(deo_report(pred.reshape(-1, pred.shape[-1]), labels, sensitive))
        out.append({m: [(next(reports), clf) for clf in row] for m, row in zip(methods, arms)})
    return out


def _knn_fold_tables(train: LabeledDataset, folds, mode: str):
    """For each (held rows, k values) fold, the raw k-NN scores of every train row under the path model
    fitted on the fold's other rows, one column per k, in the form _row_scores gives them but unfloored:
    calibrate_scores and _predict_grid floor them with the calibration sample's c.

    Each model slot (estimators._slots: group 0, group 1 and, blind, the
    pooled model, which is also the order of a blind table's rows) orders its
    query rows against all of its train rows once, to a shallow depth of at
    most 2 k_max + 16.  A fold drops its held rows from that order and keeps
    the first k_max left: its fit part keeps train order, so they are the
    (distance, row index) neighbours its own model would find.  The few
    queries that keep fewer than a fold's k_max are ordered again, in a table
    of their own, to k_max + the slot's largest held-out count, which always
    keeps enough.
    """
    # (train rows, query rows) of each slot: aware slots score their own group, blind ones every row
    slots = [(rows, rows if mode == "aware" else np.ones(train.n, bool)) for rows in _slots(train.sensitive, mode)]
    # the fold holding each row out (len(folds) for none) and the labels, in the smallest dtypes: a slot
    # stores both for every neighbour, so they set the tables' size
    fold_of, labels = np.full(train.n, len(folds), np.min_scalar_type(len(folds))), train.labels.astype(np.int8)
    for j, (held, _) in enumerate(folds):
        fold_of[held] = j
    k_fold = [int(ks.max()) for _, ks in folds]
    k_top = max(k_fold)
    neighbours = []  # per slot: (query rows, fold and label of their nearest train rows, nearest first) parts
    for rows, queries in slots:
        held_out = np.bincount(fold_of[rows], minlength=len(folds) + 1)[:-1]  # this slot's train rows, per fold
        full = min(int(rows.sum()), k_top + int(held_out.max()))
        parts, todo, depth = [], np.flatnonzero(queries), min(full, 2 * k_top + 16)
        while todo.size:  # a second pass, to the full depth, orders the queries the shallow one left short
            order = _knn_order(train.features[todo], train.features[rows], depth)
            near = fold_of[rows][order]
            short = np.zeros(todo.size, bool)
            for j, k_max in enumerate(k_fold):
                short |= (near != j).sum(axis=1) < k_max
            keep = np.flatnonzero(~short) if short.any() else slice(None)  # views when no query is short
            parts.append((todo[keep], near[keep], labels[rows][order[keep]]))
            todo, depth = todo[short], full
        neighbours.append(parts)
    del order, near  # a generator keeps its locals alive until the last fold
    for j, (_, ks) in enumerate(folds):
        table = np.empty((train.n, ks.size) if mode == "aware" else (len(slots), train.n, ks.size))
        for s, parts in enumerate(neighbours):
            for queries, fold, near_labels in parts:
                keep = fold != j
                kept = keep.sum(axis=1)
                first = np.cumsum(kept) - kept  # where each query's kept labels start in near_labels[keep]
                sums = np.cumsum(near_labels[keep][first[:, None] + np.arange(ks.max())], axis=1, dtype=np.int64)
                (table if mode == "aware" else table[s])[queries] = sums[:, ks - 1] / ks
        yield table


def _knn_cv_scores(train, parts, grid, mode, skipped):
    """_fitted_cv_scores of reuse-mode k-NN, from one neighbour order per model slot (_knn_fold_tables)."""
    ks = np.array([cfg.k for _, cfg in grid])
    fitted = []  # (fold, held rows, calibration sample, held-out part, grid indices fitted)
    for f, held, part, cal, held_part in parts:
        fits = ks <= min(part.group_counts())  # fit_knn's limit: k at most each group's size
        for i in np.flatnonzero(~fits):
            skipped[i].add(f"fold_{f}_skipped_infeasible")
        if fits.any():
            fitted.append((f, held, cal, held_part, np.flatnonzero(fits)))
    if not fitted:
        return
    tables = _knn_fold_tables(train, [(held, ks[m]) for _, held, _, _, m in fitted], mode)
    for (f, held, cal, held_part, m), table in zip(fitted, tables):
        # grid-major blocks, as _score_members gives them, copied out of the transposed view in C order
        block, fit_rows = np.moveaxis(table, -1, 0), np.ones(train.n, bool)
        fit_rows[held] = False
        yield f, cal, held_part, m, block.compress(fit_rows, axis=-1), np.take(block, held, axis=-1)


def _fitted_cv_scores(parts, grid, mode, skipped):
    """(fold, calibration sample, held-out part, grid indices fitted, their calibration and held-out
    score blocks) of every fold with a fitted grid point, the whole grid fitted on the fold's fit part."""
    for f, _, part, cal, held in parts:
        models = {}
        for i, (_, est) in enumerate(grid):
            try:
                models[i] = _fit_estimator(part, est, mode)
            except (GroupCoverageError, ConfigError):
                skipped[i].add(f"fold_{f}_skipped_infeasible")
        if models:
            yield f, cal, held, list(models), *_score_members(list(models.values()), [cal, held])


def cross_validate(train: LabeledDataset, config: BenchmarkConfig, seed) -> dict[str, list[CvRow]]:
    """k-fold CV of every grid point for every method arm, fold-outer.

    With a held-out unlabeled fraction each fold draws one carve, in fold
    order, shared by every grid point.  A fold whose fit part misses a group
    or cannot be carved, or a grid point that cannot be fitted on a fold, is
    skipped with a flag; an undefined fold DEO counts as 0 with a flag.
    """
    rng = np.random.default_rng(seed)
    fold_idx = _cv_partition(train, config.cv_folds, rng)
    grid, all_idx = config.grid(), np.arange(train.n)
    skipped = [set() for _ in grid]
    parts = []  # (fold, held rows, fit part, calibration sample, held-out part) of every fold that can be fitted
    for f, held in enumerate(fold_idx):
        if held.size == 0:
            continue
        fit_part = cal = train.take(np.delete(all_idx, held))
        skip = "missing_group" if 0 in fit_part.group_counts() else None
        if not skip and isinstance(config.unlabeled, float):  # reuse mode calibrates on the fit part itself
            try:
                fit_part, cal = _carve_unlabeled(fit_part, config.unlabeled, rng)
            except (GroupCoverageError, ConfigError):
                skip = "infeasible"
        if skip:
            for flags in skipped:
                flags.add(f"fold_{f}_skipped_{skip}")
        else:
            parts.append((f, held, fit_part, cal, train.take(held)))
    if config.estimator == "knn" and config.unlabeled == "reuse":
        scored = _knn_cv_scores(train, parts, grid, config.mode, skipped)
    else:
        scored = _fitted_cv_scores(parts, grid, config.mode, skipped)
    done = [[] for _ in grid]  # per grid point: (fold, {method: (report, clf)})
    for batch in _batches(scored, lambda fold: fold[4].size):  # the folds whose calibration scores fill a batch
        cals = [(cal_scores, cal.sensitive) for _, cal, _, _, cal_scores, _ in batch]
        tests = [(held_scores, held.labels, held.sensitive) for _, _, held, _, _, held_scores in batch]
        for (f, _, _, members, _, _), evaluated in zip(batch, _evaluate(cals, tests, config.mode, config.methods)):
            for j, i in enumerate(members):
                done[i].append((f, {m: evaluated[m][j] for m in config.methods}))
    rows = {m: [] for m in config.methods}
    for (label, _), flags_i, done_i in zip(grid, skipped, done):
        for m in config.methods:
            folds = [(f, fits[m][0]) for f, fits in done_i]
            flags = flags_i | {f"fold_{f}_deo_undefined" for f, r in folds if r.deo is None}
            if not folds:
                flags.add("all_folds_skipped")
            rows[m].append(CvRow(
                param=label,
                acc=float(np.mean([r.accuracy for _, r in folds])) if folds else float("nan"),
                deo=float(np.mean([0.0 if r.deo is None else r.deo for _, r in folds])) if folds else float("nan"),
                folds_used=len(folds),
                flags=tuple(sorted(flags)),
            ))
    if all(r.folds_used == 0 for r in rows[config.methods[0]]):
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


def _run_repeat(train, fit_part, queries, targets, config: BenchmarkConfig, repeat: int) -> list[dict]:
    """One repeat: CV on train once, select per method arm, then one fit on
    fit_part per distinct chosen grid point, which scores each query dataset once.

    A target names its calibration and test rows as (query index, rows) pairs,
    rows None for all of them; returns one {method: RepeatOutcome} per target.
    """
    grid = config.grid()
    if len(grid) == 1:
        chosen, cv = dict.fromkeys(config.methods, 0), dict.fromkeys(config.methods, ())
    else:
        cv = {m: tuple(rows) for m, rows in cross_validate(train, config, [config.seed, repeat]).items()}
        chosen = {m: select_hyperparameters(rows, config.shortlist_fraction) for m, rows in cv.items()}
    members = list(dict.fromkeys(chosen.values()))
    blocks = _score_members([_fit_estimator(fit_part, grid[i][1], config.mode) for i in members], queries)
    cals, tests = [], []  # per target, every chosen grid point's rows; a calibration block of its own
    for (c, c_rows), (t, t_rows) in targets:
        cal_scores = blocks[c].copy() if c_rows is None else blocks[c][..., c_rows]
        cals.append((cal_scores, _pick(queries[c].sensitive, c_rows)))
        tests.append((_pick(blocks[t], t_rows), _pick(queries[t].labels, t_rows), _pick(queries[t].sensitive, t_rows)))
    outcomes = []
    for evaluated in _evaluate(cals, tests, config.mode, config.methods):
        outcomes.append({})
        for m in config.methods:
            report, clf = evaluated[m][members.index(chosen[m])]
            outcomes[-1][m] = RepeatOutcome(repeat=repeat, method=m, param=grid[chosen[m]][0], acc=report.accuracy,
                                            deo=report.deo, theta_hat=clf.theta_hat, flags=tuple(report.flags),
                                            cv_table=cv[m])
    return outcomes


def run_benchmark(
    ds: LabeledDataset,
    config: BenchmarkConfig,
    test: LabeledDataset | None = None,
    unlabeled_ds: UnlabeledDataset | None = None,
) -> BenchmarkReport:
    """Full protocol over repeated splits, or a single pass on a fixed test set.

    An explicit unlabeled dataset calibrates the final refits and cannot be
    combined with a held-out unlabeled fraction.  With a fixed test set
    (Adult-style) the split loop is skipped and the std columns are absent
    from the summaries.
    """
    carve = isinstance(config.unlabeled, float)
    if carve and unlabeled_ds is not None:
        raise ConfigError("give one unlabeled source: an unlabeled dataset or an unlabeled fraction, not both")
    if test is not None:
        pairs = [(ds, test)]
        meta_splits = "fixed-test"
    else:
        splits = split(ds, SplitPlan(config.train_fraction, config.n_repeats, config.seed))
        pairs = [(sp.train, sp.test) for sp in splits]
        meta_splits = f"{config.n_repeats} stratified splits at {config.train_fraction:g}"

    def repeat(r):
        train, held = pairs[r]
        fit_part, cal = train, unlabeled_ds if unlabeled_ds is not None else train
        if carve:  # the same carve for every arm
            fit_part, cal = _carve_unlabeled(train, config.unlabeled, np.random.default_rng([config.seed, r, 7]))
        return _run_repeat(train, fit_part, [cal, held], [((0, None), (1, None))], config, r)[0]

    rows = map_ordered(repeat, range(len(pairs)))
    summaries = [_summarize(m, [row[m] for row in rows], with_std=test is None) for m in config.methods]
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
class SweepPoint(MethodSummary):
    """The summary of one method arm at one unlabeled fraction."""

    unlabeled_fraction: float


@dataclass(frozen=True)
class SweepReport:
    points: tuple[SweepPoint, ...]
    metadata: dict


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
    which makes that column identical to run_benchmark on the same plan.  The
    CV on the labeled part runs once per repeat, shared by every fraction.
    """
    if config.unlabeled != "reuse":
        raise ConfigError("the sweep sets the unlabeled part per fraction; config.unlabeled must be 'reuse'")
    fractions = sorted(set(float(f) for f in unlabeled_fractions))
    if not fractions:
        raise ConfigError("unlabeled_fractions must be nonempty")
    if not np.isfinite(fractions).all() or min(fractions) < 0.0:
        raise ConfigError(f"unlabeled fractions must be finite and >= 0, got {fractions}")
    if labeled_fraction + max(fractions) >= 1.0:
        raise ConfigError(
            f"labeled fraction {labeled_fraction} plus unlabeled fraction {max(fractions)} "
            "leaves no evaluation rows"
        )
    splits = split(ds, SplitPlan(labeled_fraction, config.n_repeats, config.seed))

    def repeat(r):
        sp = splits[r]
        rest, targets = sp.test, []
        perm = np.random.default_rng([config.seed, r, 917]).permutation(rest.n)
        for frac in fractions:
            n_unl = int(round(frac * ds.n))
            if n_unl > 0:
                cal = perm[:n_unl]
                UnlabeledDataset(rest.features[cal], rest.sensitive[cal])  # raises unless two rows per group
                targets.append(((1, cal), (1, perm[n_unl:])))
            else:
                targets.append(((0, None), (1, None)))
        return _run_repeat(sp.train, sp.train, [sp.train, rest], targets, config, r)

    per_repeat = map_ordered(repeat, range(len(splits)))
    points = [
        SweepPoint(**vars(_summarize(m, [rows[j][m] for rows in per_repeat], True)), unlabeled_fraction=frac)
        for j, frac in enumerate(fractions)
        for m in config.methods
    ]
    metadata = {
        "labeled_fraction": labeled_fraction,
        "repeats": config.n_repeats,
        "estimator": config.estimator,
        "seed": config.seed,
    }
    return SweepReport(points=tuple(points), metadata=metadata)
