import numpy as np
import pytest

from fairthresh import benchmark
from fairthresh.benchmark import (
    BenchmarkConfig,
    CvRow,
    cross_validate,
    run_benchmark,
    run_unlabeled_sweep,
    select_hyperparameters,
)
from fairthresh.data import LabeledDataset
from fairthresh.errors import ConfigError
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
    """Counts of benchmark.calibrate calls: all of them, and those made inside cross_validate."""
    counts = {"all": 0, "cv": 0}
    inside_cv = []
    real_calibrate, real_cross_validate = benchmark.calibrate, benchmark.cross_validate

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

    monkeypatch.setattr(benchmark, "calibrate", calibrate)
    monkeypatch.setattr(benchmark, "cross_validate", cross_validate)
    return counts


class TestOneFitPerFold:
    """Both method arms share each fit; the sweep's CV is shared by every fraction."""

    def test_benchmark_fits_each_fold_once_for_both_arms(self, ds, calibrations):
        folds, repeats = 3, 2
        cfg = small_config(estimator="knn", knn_grid=(5, 51), cv_folds=folds, n_repeats=repeats)
        report = run_benchmark(ds, cfg)
        distinct_chosen = sum(len({m.rows[r].param for m in report.methods}) for r in range(repeats))
        assert calibrations["cv"] == repeats * 2 * folds
        assert calibrations["all"] == repeats * 2 * folds + distinct_chosen

    def test_sweep_runs_cv_once_per_repeat(self, ds, calibrations):
        cfg = small_config(estimator="knn", knn_grid=(5, 51), cv_folds=3, n_repeats=2)
        run_unlabeled_sweep(ds, cfg, labeled_fraction=0.2, unlabeled_fractions=(0.0,))
        one_fraction = calibrations["cv"]
        calibrations["cv"] = 0
        run_unlabeled_sweep(ds, cfg, labeled_fraction=0.2, unlabeled_fractions=(0.0, 0.2, 0.4))
        assert calibrations["cv"] == one_fraction == 2 * 2 * 3


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
