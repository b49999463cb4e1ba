import json
from dataclasses import asdict, replace

import evaluate_reference as reference
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from fairthresh import _parallel, benchmark, calibration, estimators
from fairthresh.benchmark import (
    BenchmarkConfig,
    CvRow,
    cross_validate,
    run_benchmark,
    run_unlabeled_sweep,
    select_hyperparameters,
)
from fairthresh.calibration import _columns, _row_scores, calibrate, calibrate_scores
from fairthresh.data import LabeledDataset, SplitPlan, UnlabeledDataset, split
from fairthresh.errors import ConfigError, GroupCoverageError
from fairthresh.estimators import KnnConfig, _knn_path, fit_knn, floor_value
from fairthresh.metrics import deo
from fairthresh.oracle import linear_distribution, sample

DIST = linear_distribution(0.35, 0.3, 0.05, 0.9, 0.5)


@pytest.fixture(scope="module")
def ds():
    return sample(DIST, 1500, 77)


def small_config(**kw):
    defaults = dict(
        estimator="logistic",
        logistic_grid=(1e-4,),
        n_repeats=3,
        seed=4,
        cv_folds=4,
        methods=("plugin", "bayes"),
    )
    defaults.update(kw)
    return BenchmarkConfig(**defaults)


class TestConfig:
    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            BenchmarkConfig(logistic_grid=())

    def test_shortlist_fraction_bounds(self):
        with pytest.raises(ConfigError):
            BenchmarkConfig(shortlist_fraction=0.0)

    def test_unknown_method(self):
        with pytest.raises(ConfigError):
            BenchmarkConfig(methods=("plugin", "hardt"))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_repeats", "abc"),
            ("seed", True),
            ("cv_folds", 2.0),
            ("train_fraction", None),
            ("shortlist_fraction", "0.9"),
            ("sensitive_col", 1),
            ("estimator", ["knn"]),
            ("mode", None),
            ("logistic_grid", ("a",)),
            ("logistic_grid", 0.1),
            ("knn_grid", (1.5,)),
            ("knn_grid", (True,)),
            ("methods", 3),
            ("unlabeled", "abc"),
            ("unlabeled", True),
        ],
    )
    def test_wrongly_typed_field_named(self, field, value):
        with pytest.raises(ConfigError, match=field):
            BenchmarkConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [("seed", -1), ("methods", ()), ("mode", "weird")])
    def test_out_of_range_field_named(self, field, value):
        with pytest.raises(ConfigError, match=field):
            BenchmarkConfig(**{field: value})


class TestSelection:
    def test_two_step_rule(self):
        rows = [
            CvRow("a", acc=0.80, deo=0.10, folds_used=5),
            CvRow("b", acc=0.78, deo=0.02, folds_used=5),  # inside 0.9 shortlist, lowest deo
            CvRow("c", acc=0.60, deo=0.00, folds_used=5),  # outside shortlist
        ]
        assert select_hyperparameters(rows, 0.9) == 1

    def test_tie_prefers_higher_accuracy_then_order(self):
        rows = [
            CvRow("a", acc=0.80, deo=0.05, folds_used=5),
            CvRow("b", acc=0.82, deo=0.05, folds_used=5),
            CvRow("c", acc=0.82, deo=0.05, folds_used=5),
        ]
        assert select_hyperparameters(rows, 0.9) == 1

    def test_unusable_rows_excluded(self):
        rows = [
            CvRow("a", acc=float("nan"), deo=float("nan"), folds_used=0),
            CvRow("b", acc=0.7, deo=0.1, folds_used=3),
        ]
        assert select_hyperparameters(rows, 0.9) == 1


class TestCrossValidate:
    def test_fold_skipped_when_group_missing(self):
        # single group-1 row: the fold holding it out can fit, the others cannot evaluate it;
        # the fold containing it in the fit part works, so some folds survive
        ds = LabeledDataset(
            np.arange(12, dtype=float)[:, None],
            [1] + [0] * 11,
            [1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0],
        )
        cfg = small_config(cv_folds=3, logistic_grid=(1e-4, 1.0))
        rows = cross_validate(ds, cfg, seed=[0])["plugin"]
        assert all(r.folds_used < 3 for r in rows)
        assert any("skipped" in f for r in rows for f in r.flags)

    def test_all_folds_skipped_raises(self):
        ds = LabeledDataset(np.array([[0.0], [1.0]]), [0, 1], [1, 1])
        cfg = small_config(cv_folds=2, logistic_grid=(1e-4, 1.0))
        with pytest.raises(ConfigError):
            cross_validate(ds, cfg, seed=[0])["plugin"]

    def test_fold_whose_carve_is_too_small_is_flagged_infeasible(self):
        # 40 rows in 3 folds hold out 14, 13 and 13 rows: fold 0 fits on 26 rows, whose 0.13 carve of
        # round(3.38) = 3 rows is below the 4 a carve needs; folds 1 and 2 carve 4 rows of 27
        ds = LabeledDataset(np.arange(40, dtype=float)[:, None], np.repeat([0, 1], 20), np.tile([0, 1], 20))
        cfg = small_config(cv_folds=3, logistic_grid=(1e-4, 1.0), unlabeled=0.13)
        for rows in cross_validate(ds, cfg, seed=[10]).values():
            assert [(r.folds_used, r.flags) for r in rows] == [(2, ("fold_0_skipped_infeasible",))] * 2

    @pytest.mark.parametrize("estimator", ["knn", "logistic"])
    def test_folds_without_held_out_rows_are_dropped_unflagged(self, estimator):
        # 10 folds of 8 rows: folds 8 and 9 hold no row; each other fold holds one, too few for a DEO
        ds = LabeledDataset(np.arange(8, dtype=float)[:, None], np.repeat([0, 1], 4), np.tile([0, 1], 4))
        cfg = small_config(estimator=estimator, knn_grid=(1, 3), logistic_grid=(1e-4, 1.0), cv_folds=10)
        for rows in cross_validate(ds, cfg, seed=[0]).values():
            for r in rows:
                assert r.folds_used == 8
                assert r.flags == tuple(f"fold_{f}_deo_undefined" for f in range(8))

    def test_reuse_knn_with_every_k_above_the_group_sizes_raises(self):
        ds = LabeledDataset(np.arange(8, dtype=float)[:, None], np.repeat([0, 1], 4), np.tile([0, 1], 4))
        cfg = small_config(estimator="knn", knn_grid=(5, 7), cv_folds=3)
        with pytest.raises(ConfigError, match="every fold was skipped") as exc:
            cross_validate(ds, cfg, seed=[0])
        assert exc.value.exit_code == 5


class TestRunBenchmark:
    def test_three_repeats_three_rows(self, ds):
        report = run_benchmark(ds, small_config())
        for m in report.methods:
            assert len(m.rows) == 3
            assert [r.repeat for r in m.rows] == [0, 1, 2]

    def test_singleton_grid_skips_cv(self, ds):
        report = run_benchmark(ds, small_config())
        assert all(r.cv_table == () for m in report.methods for r in m.rows)

    def test_grid_selection_recorded(self, ds):
        report = run_benchmark(ds, small_config(logistic_grid=(1e-4, 1e2), n_repeats=2))
        for m in report.methods:
            for r in m.rows:
                assert len(r.cv_table) == 2
                assert r.param in ("lambda=0.0001", "lambda=100")

    def test_plugin_cuts_deo_at_small_accuracy_cost(self, ds):
        report = run_benchmark(ds, small_config(n_repeats=10))
        by_method = {m.method: m for m in report.methods}
        assert by_method["plugin"].deo_mean < by_method["bayes"].deo_mean
        assert by_method["bayes"].acc_mean - by_method["plugin"].acc_mean <= 0.05

    def test_fixed_test_set_drops_std(self, ds):
        test = sample(DIST, 600, 99)
        report = run_benchmark(ds, small_config(), test=test)
        for m in report.methods:
            assert m.acc_std is None and m.deo_std is None
            assert len(m.rows) == 1

    def test_deterministic(self, ds):
        a = run_benchmark(ds, small_config())
        b = run_benchmark(ds, small_config())
        assert a == b


@pytest.fixture
def calibrations(monkeypatch):
    """Counts of calibration.calibrate_scores calls (one per CV fold, for its whole grid, and one per
    refitted grid point and calibration sample): all of them, and those made inside cross_validate."""
    counts = {"all": 0, "cv": 0}
    inside_cv = []
    real_calibrate, real_cross_validate = calibration.calibrate_scores, benchmark.cross_validate

    def calibrate(*args, **kwargs):
        counts["all"] += 1
        counts["cv"] += bool(inside_cv)
        return real_calibrate(*args, **kwargs)

    def cross_validate(*args, **kwargs):
        inside_cv.append(True)
        try:
            return real_cross_validate(*args, **kwargs)
        finally:
            inside_cv.pop()

    monkeypatch.setattr(calibration, "calibrate_scores", calibrate)
    monkeypatch.setattr(benchmark, "cross_validate", cross_validate)
    monkeypatch.setattr(_parallel, "_cpus", lambda: 1)  # calls counted in a forked worker never reach this process
    return counts


class TestOneFitPerFold:
    """Both method arms share each fit; the sweep's CV is shared by every fraction."""

    def test_benchmark_fits_each_fold_once_for_both_arms(self, ds, calibrations):
        folds, repeats = 3, 2
        cfg = small_config(estimator="knn", knn_grid=(5, 51), cv_folds=folds, n_repeats=repeats)
        report = run_benchmark(ds, cfg)
        distinct_chosen = sum(len({m.rows[r].param for m in report.methods}) for r in range(repeats))
        assert calibrations["cv"] == repeats * folds
        assert calibrations["all"] == repeats * folds + distinct_chosen

    def test_sweep_runs_cv_once_per_repeat(self, ds, calibrations):
        cfg = small_config(estimator="knn", knn_grid=(5, 51), cv_folds=3, n_repeats=2)
        run_unlabeled_sweep(ds, cfg, labeled_fraction=0.2, unlabeled_fractions=(0.0,))
        one_fraction = calibrations["cv"]
        calibrations["cv"] = 0
        run_unlabeled_sweep(ds, cfg, labeled_fraction=0.2, unlabeled_fractions=(0.0, 0.2, 0.4))
        assert calibrations["cv"] == one_fraction == 2 * 3


@pytest.mark.parametrize("mode, slots", [("aware", 2), ("blind", 3)])
def test_carve_cv_orders_neighbours_once_per_fold_slot_and_query_set(ds, monkeypatch, mode, slots):
    """Every k of the grid shares its fold's carve and so one k-NN kernel call per model slot
    (each group, and blind the pooled model) and query set (calibration sample, held-out part)."""
    calls, real_order = [], estimators._knn_order

    def order(*args):
        calls.append(args)
        return real_order(*args)

    monkeypatch.setattr(estimators, "_knn_order", order)
    monkeypatch.setattr(benchmark, "_knn_order", order)
    folds = 3
    cfg = small_config(estimator="knn", knn_grid=(1, 5, 15, 41), cv_folds=folds, mode=mode, unlabeled=0.3)
    rows = cross_validate(ds, cfg, [2])["plugin"]
    assert all(r.folds_used == folds for r in rows)
    assert len(calls) == folds * slots * 2


class TestSweep:
    def test_unlabeled_fraction_config_rejected(self, ds):
        with pytest.raises(ConfigError, match="unlabeled"):
            run_unlabeled_sweep(ds, small_config(unlabeled=0.3), labeled_fraction=0.3, unlabeled_fractions=(0.0,))

    def test_fraction_zero_equals_benchmark(self, ds):
        cfg = small_config(methods=("plugin",))
        sweep = run_unlabeled_sweep(ds, cfg, labeled_fraction=0.3, unlabeled_fractions=(0.0,))
        benchmark = run_benchmark(ds, BenchmarkConfig(
            estimator="logistic", logistic_grid=(1e-4,), n_repeats=3, seed=4,
            cv_folds=4, methods=("plugin",), train_fraction=0.3, unlabeled="reuse",
        ))
        point = sweep.points[0]
        rows_b = benchmark.methods[0].rows
        for ra, rb in zip(point.rows, rows_b):
            assert ra.acc == rb.acc and ra.deo == rb.deo and ra.theta_hat == rb.theta_hat

    def test_overfull_fractions_rejected(self, ds):
        with pytest.raises(ConfigError):
            run_unlabeled_sweep(ds, small_config(), labeled_fraction=0.3, unlabeled_fractions=(0.8,))

    def test_point_per_fraction_and_method(self, ds):
        sweep = run_unlabeled_sweep(
            ds, small_config(), labeled_fraction=0.2, unlabeled_fractions=(0.0, 0.2)
        )
        assert [(p.unlabeled_fraction, p.method) for p in sweep.points] == [
            (0.0, "plugin"), (0.0, "bayes"), (0.2, "plugin"), (0.2, "bayes"),
        ]
        for p in sweep.points:
            assert len(p.rows) == 3


def _two_feature_sample(n, seed):
    """DIST's feature plus a noise feature, both rounded so k-NN distances tie."""
    ds = sample(DIST, n, seed)
    noise = np.random.default_rng(seed).normal(size=ds.n)
    return LabeledDataset(np.round(np.column_stack([ds.features[:, 0], noise]), 1), ds.sensitive, ds.labels)


def _cv_reference(train, cfg, seed):
    """CV rows from public calibrate and predict, one (grid point, fold) at a time, grid-outer;
    with an unlabeled fraction each fold draws one carve, in fold order, for every grid point."""
    rng = np.random.default_rng(seed)
    folds = benchmark._cv_partition(train, cfg.cv_folds, rng)
    carves = []  # per fold: (fit part, unlabeled sample or None), or None when the carve fails
    for held in folds:
        fit = train.take(np.setdiff1d(np.arange(train.n), held))
        assert 0 not in fit.group_counts()
        try:
            carves.append(benchmark._carve_unlabeled(fit, cfg.unlabeled, rng)
                          if isinstance(cfg.unlabeled, float) else (fit, None))
        except (ConfigError, GroupCoverageError):
            carves.append(None)
    rows = {m: [] for m in cfg.methods}
    for label, est in cfg.grid():
        reports, flags = {m: [] for m in cfg.methods}, set()
        for f, held in enumerate(folds):
            test = train.take(held)
            try:
                if carves[f] is None:
                    raise ConfigError("fold cannot be carved")
                clf = calibrate(*carves[f], estimator=est, mode=cfg.mode)
            except (ConfigError, GroupCoverageError):
                flags.add(f"fold_{f}_skipped_infeasible")
                continue
            for m in cfg.methods:
                arm = clf if m == "plugin" else replace(clf, theta_hat=0.0)
                reports[m].append((f, deo(arm.predict(test.features, test.sensitive), test.labels, test.sensitive)))
        for m in cfg.methods:
            done = reports[m]
            row_flags = flags | {f"fold_{f}_deo_undefined" for f, r in done if r.deo is None}
            if not done:
                row_flags.add("all_folds_skipped")
            rows[m].append(CvRow(
                param=label,
                acc=float(np.mean([r.accuracy for _, r in done])) if done else float("nan"),
                deo=float(np.mean([r.deo or 0.0 for _, r in done])) if done else float("nan"),
                folds_used=len(done),
                flags=tuple(sorted(row_flags)),
            ))
    return rows


def _as_json(rows):
    # CvRow of a grid point with every fold skipped holds NaN, which == never matches
    return json.dumps({m: [asdict(r) for r in rs] for m, rs in rows.items()})


RUNNER_CASES = [
    ("knn", "aware", "reuse"),
    ("knn", "blind", "reuse"),
    ("knn", "aware", 0.3),
    ("knn", "blind", 0.3),
    ("logistic", "aware", "reuse"),
    ("logistic", "blind", 0.3),
]


class TestRunnerEquivalence:
    """The fold-outer runner that scores each row once gives the rows of one calibrate + predict per fit."""

    @pytest.mark.parametrize("estimator, mode, unlabeled", RUNNER_CASES)
    def test_cross_validate_equals_per_fit_reference(self, estimator, mode, unlabeled):
        train = _two_feature_sample(300, 31)
        # k = 150 exceeds every fold's groups, so its rows are all skipped
        cfg = small_config(estimator=estimator, knn_grid=(1, 4, 15, 150), logistic_grid=(1e-4, 1e-1, 10.0),
                           cv_folds=3, mode=mode, unlabeled=unlabeled)
        assert _as_json(cross_validate(train, cfg, [5])) == _as_json(_cv_reference(train, cfg, [5]))

    @pytest.mark.parametrize("estimator, mode", [c[:2] for c in RUNNER_CASES if c[2] == "reuse"])
    def test_sweep_repeat_equals_benchmark_on_its_rows(self, estimator, mode):
        ds = _two_feature_sample(900, 32)
        cfg = small_config(estimator=estimator, knn_grid=(3, 9, 21), logistic_grid=(1e-4, 1.0), cv_folds=3,
                           n_repeats=1, mode=mode)
        fractions = (0.0, 0.2, 0.5)
        sweep = run_unlabeled_sweep(ds, cfg, labeled_fraction=0.2, unlabeled_fractions=fractions)
        part = split(ds, SplitPlan(0.2, cfg.n_repeats, cfg.seed))[0]
        perm = np.random.default_rng([cfg.seed, 0, 917]).permutation(part.test.n)
        for j, frac in enumerate(fractions):
            n_unl = int(round(frac * ds.n))
            unl = UnlabeledDataset(part.test.features[perm[:n_unl]], part.test.sensitive[perm[:n_unl]]) if n_unl else None
            test = part.test.take(perm[n_unl:]) if n_unl else part.test
            report = run_benchmark(part.train, cfg, test=test, unlabeled_ds=unl)
            for m, summary in enumerate(report.methods):
                point = sweep.points[j * len(cfg.methods) + m]
                assert (point.unlabeled_fraction, point.method) == (frac, summary.method)
                assert json.dumps(asdict(point.rows[0])) == json.dumps(asdict(summary.rows[0]))


@settings(max_examples=150, deadline=None)
@given(
    seed=hst.integers(0, 2**32 - 1),
    n=hst.integers(4, 60),
    d=hst.integers(1, 3),
    decimals=hst.sampled_from([0, 1]),
    folds=hst.integers(2, 10),
    mode=hst.sampled_from(["aware", "blind"]),
    data=hst.data(),
)
def test_knn_fold_tables_equal_path_models_fitted_per_fold(seed, n, d, decimals, folds, mode, data):
    rng = np.random.default_rng(seed)
    # rounded features put distance ties among the neighbours and on the k boundary
    train = LabeledDataset(np.round(rng.normal(size=(n, d)), decimals), np.arange(n) % 2, rng.integers(0, 2, n))
    cv_folds = []
    for held in benchmark._cv_partition(train, folds, rng):
        if held.size == 0:
            continue
        fit = train.take(np.setdiff1d(np.arange(n), held))
        if 0 not in fit.group_counts():
            top = min(fit.group_counts())  # fit_knn's largest k on this fit part
            ks = data.draw(hst.lists(hst.integers(1, top), min_size=1, max_size=4) | hst.just([1, top]))
            cv_folds.append((held, fit, np.array(ks)))
    if not cv_folds:
        return
    _assert_fold_tables_equal_per_fold_path_models(train, cv_folds, mode)


@pytest.mark.parametrize("mode, slots", [("aware", 2), ("blind", 3)])
def test_knn_fold_tables_reorder_short_queries_to_full_depth(monkeypatch, mode, slots):
    # one fold holds the 60 rows nearest row 0, so row 0 and its neighbours keep none of their
    # 2 k_max + 16 = 26 shallow neighbours in that fold: each slot orders them again, deeper
    rng = np.random.default_rng(41)
    n = 200
    train = LabeledDataset(np.round(rng.normal(size=(n, 1)), 2), np.arange(n) % 2, rng.integers(0, 2, n))
    nearest = np.argsort(np.abs(train.features[:, 0] - train.features[0, 0]), kind="stable")
    rest = rng.permutation(nearest[60:])
    cv_folds = [(np.sort(held), train.take(np.setdiff1d(np.arange(n), held)), np.array([1, 3, 5]))
                for held in [nearest[:60]] + [rest[f::4] for f in range(4)]]
    calls, real_order = [], benchmark._knn_order

    def order(queries, feats, depth):
        calls.append((queries.shape[0], depth))
        return real_order(queries, feats, depth)

    monkeypatch.setattr(benchmark, "_knn_order", order)
    _assert_fold_tables_equal_per_fold_path_models(train, cv_folds, mode)
    assert len(calls) == 2 * slots
    for (shallow_queries, shallow), (deep_queries, deep) in zip(calls[::2], calls[1::2]):
        assert shallow == 26 < deep and 0 < deep_queries < shallow_queries


@pytest.mark.parametrize(
    "estimator, mode, unlabeled",
    [("knn", mode, unlabeled) for unlabeled in ("reuse", 0.3) for mode in ("aware", "blind")]
    + [("logistic", "aware", 0.3), ("logistic", "blind", 0.3)],
    ids=["aware-reuse", "blind-reuse", "aware-0.3", "blind-0.3", "logistic-aware-0.3", "logistic-blind-0.3"],
)
def test_knn_cross_validate_equals_full_stable_argsort_order(monkeypatch, estimator, mode, unlabeled):
    """k-NN CV on three rounded features, whose distances tie, equals the same CV with every
    neighbour order taken from a full stable argsort of the distances: in reuse mode through the
    shared fold tables, in carve mode through the fitted models, whose order stops at k.  Each CV,
    and logistic carve-mode CV (one fit per grid point and fold) on the same rows, also equals one
    calibrate and predict per fit."""
    rng = np.random.default_rng(43)
    n = 400
    X = np.round(rng.normal(size=(n, 3)), 1)
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-X.sum(axis=1)))).astype(np.int64)
    train = LabeledDataset(X, rng.integers(0, 2, n), y)
    cfg = small_config(estimator=estimator, knn_grid=(1, 4, 9, 25), logistic_grid=(1e-4, 1e-1, 10.0), cv_folds=5,
                       mode=mode, unlabeled=unlabeled)
    rows = cross_validate(train, cfg, [3])
    assert _as_json(rows) == _as_json(_cv_reference(train, cfg, [3]))

    def full_order(queries, feats, depth):
        d2 = ((queries[:, None, :] - feats[None, :, :]) ** 2).sum(axis=2)
        return np.argsort(d2, axis=1, kind="stable")[:, :depth]

    monkeypatch.setattr(estimators, "_knn_order", full_order)
    monkeypatch.setattr(benchmark, "_knn_order", full_order)
    assert cross_validate(train, cfg, [3]) == rows
    assert all(r.folds_used == 5 for r in rows["plugin"])


def _assert_fold_tables_equal_per_fold_path_models(train, cv_folds, mode):
    """_knn_fold_tables over (held rows, fit part, k values) folds equals a k-NN path model fitted per fold."""
    tables = benchmark._knn_fold_tables(train, [(held, ks) for held, _, ks in cv_folds], mode)
    for (held, fit, ks), table in zip(cv_folds, tables):
        path = _knn_path([fit_knn(fit, KnnConfig(k=int(k)), mode) for k in ks])
        expected = _row_scores(path, train.features, train.sensitive)
        assert table.shape == expected.shape and np.array_equal(table, expected)


def _bits(value):
    """value with every float replaced by its hex form, so == compares bits."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return [_bits(v) for v in value]
    if isinstance(value, dict):
        return {k: _bits(v) for k, v in value.items()}
    return value


def _classifier_bits(clf):
    stats = None if clf.stats is None else asdict(clf.stats)
    return _bits([clf.mode, clf.theta_hat, clf.unfairness_hat, stats, clf.blind_means, clf.model.floor])


@settings(max_examples=150, deadline=None)
@given(
    seed=hst.integers(0, 2**32 - 1),
    mode=hst.sampled_from(["aware", "blind"]),
    grid=hst.sampled_from([1, 2, 26]),
    n_cal=hst.integers(2, 80) | hst.just(20000),
    n_held=hst.integers(1, 30),
    lattice=hst.sampled_from([1, 2, 5, 11, 51, None]),
    at_floor=hst.booleans(),
    undefined=hst.booleans(),
)
def test_fold_evaluation_equals_per_column_reference_bitwise(seed, mode, grid, n_cal, n_held, lattice, at_floor,
                                                             undefined):
    """One evaluation of a fold's whole grid gives, for every grid row and method arm, the bits of the
    per-column evaluation it replaced: theta_hat, unfairness_hat, statistics, accuracy, DEO and flags."""
    rng = np.random.default_rng(seed)
    n = n_cal + n_held
    shape = (grid, n) if mode == "aware" else (grid, 3, n)
    # k-NN-style scores j/k, tied within and across rows, or continuous draws (lattice None)
    scores = rng.random(shape) if lattice is None else rng.integers(0, lattice + 1, shape) / lattice
    if at_floor:  # scores at, just below and far below the calibration floor, and at 1
        c = floor_value(n_cal)
        picks = rng.random(shape) < 0.3
        scores[picks] = rng.choice([0.0, np.nextafter(c, 0.0), c, 1.0], size=int(picks.sum()))
    sensitive, labels = rng.integers(0, 2, n), rng.integers(0, 2, n)
    sensitive[:2] = [0, 1]  # both groups calibrate
    if undefined:  # one held-out group has no positive label
        labels[n_cal:][sensitive[n_cal:] == rng.integers(0, 2)] = 0
    cal = (scores[..., :n_cal], sensitive[:n_cal])
    test = (scores[..., n_cal:], labels[n_cal:], sensitive[n_cal:])
    methods = ("plugin", "bayes")
    batched = benchmark._evaluate(cal, test, mode, methods)
    for k in range(grid):
        expected = reference.evaluate((cal[0][k], cal[1]), (test[0][k], *test[1:]), mode, methods)
        for m in methods:
            (report, clf), (ref_report, ref_clf) = batched[m][k], expected[m]
            assert _bits(asdict(report)) == _bits(asdict(ref_report))
            assert _classifier_bits(clf) == _classifier_bits(ref_clf)
    # the public one-column call is the K=1 case of the same routine
    one = calibrate_scores(**_columns(cal[0][0], cal[1], mode), mode=mode)
    assert _classifier_bits(one) == _classifier_bits(reference.calibrate_scores(**_columns(cal[0][0], cal[1], mode),
                                                                                mode=mode))
