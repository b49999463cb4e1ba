import tracemalloc
from unittest import mock

import numpy as np
import objective_reference as reference
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from fairthresh import calibration
from fairthresh.calibration import (
    FairClassifier,
    GroupStatistics,
    _aware_objective,
    _blind_objective,
    _distinct,
    blind_unfairness,
    breakpoints,
    calibrate,
    calibrate_scores,
    empirical_unfairness,
    fit_theta,
    fit_theta_blind,
)
from fairthresh.data import LabeledDataset, UnlabeledDataset
from fairthresh.errors import ConfigError, GroupCoverageError, SchemaError
from fairthresh.estimators import KnnConfig, LogisticConfig, external_score_model, floor_value


def group_statistics(scores, sensitive) -> GroupStatistics:
    """The group statistics of one row of floored aware scores, as the calibration core computes them."""
    return calibration._group_blocks(np.asarray(scores, dtype=np.float64)[None], np.asarray(sensitive))[1][0]


def brute_unfairness(theta, scores1, scores0, stats):
    """Independent oracle: literal product-form indicators, row-order sums."""
    g1 = 1.0 <= scores1 * (2.0 - theta / stats.joint[1])
    g0 = 1.0 <= scores0 * (2.0 + theta / stats.joint[0])
    t1 = (scores1 * g1).sum() / scores1.sum()
    t0 = (scores0 * g0).sum() / scores0.sum()
    return abs(t1 - t0)


def brute_blind(theta, marginal, s0, s1):
    d = s0 / s0.mean() - s1 / s1.mean()
    g = 1.0 <= 2.0 * marginal + theta * d
    t1 = (s1 * g).sum() / s1.sum()
    t0 = (s0 * g).sum() / s0.sum()
    return abs(t1 - t0)


def random_instance(rng, max_n=2000):
    n = int(rng.integers(10, max_n))
    S = rng.integers(0, 2, n)
    while S.sum() in (0, n):
        S = rng.integers(0, 2, n)
    scores = np.maximum(rng.beta(rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0), n), 0.05)
    stats = group_statistics(scores, S)
    return scores[S == 1], scores[S == 0], stats


FOUR_ROW_SCORES = np.array([0.9, 0.2, 0.8, 0.4])
FOUR_ROW_S = np.array([1, 1, 0, 0])


class TestGroupStatistics:
    def test_four_row_example(self):
        st = group_statistics(FOUR_ROW_SCORES, FOUR_ROW_S)
        assert st.p == (0.5, 0.5)
        assert st.mean_score[1] == pytest.approx(0.55, abs=1e-12)
        assert st.joint[1] == pytest.approx(0.275, abs=1e-12)
        assert st.mean_score[0] == pytest.approx(0.6, abs=1e-12)
        assert st.joint[0] == pytest.approx(0.3, abs=1e-12)

    def test_constant_scores(self):
        st = group_statistics(np.full(10, 0.5), np.array([0] * 3 + [1] * 7))
        assert st.joint[0] == pytest.approx(0.5 * 0.3, abs=1e-12)
        assert st.joint[1] == pytest.approx(0.5 * 0.7, abs=1e-12)

    def test_single_group_rejected(self):
        with pytest.raises(GroupCoverageError):
            group_statistics(np.array([0.5, 0.6]), np.array([1, 1]))

    def test_joint_is_product_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            s1, s0, st = random_instance(rng)
            for s in (0, 1):
                assert st.joint[s] == st.mean_score[s] * st.p[s]


class TestEmpiricalUnfairness:
    def test_theta_zero_example(self):
        st = group_statistics(FOUR_ROW_SCORES, FOUR_ROW_S)
        val = empirical_unfairness(0.0, FOUR_ROW_SCORES[:2], FOUR_ROW_SCORES[2:], st)
        assert val == pytest.approx(abs(0.9 / 1.1 - 0.8 / 1.2), rel=1e-12)

    def test_identical_multisets_give_zero(self):
        scores = np.array([0.9, 0.3, 0.6, 0.9, 0.3, 0.6])
        S = np.array([1, 1, 1, 0, 0, 0])
        st = group_statistics(scores, S)
        assert empirical_unfairness(0.0, scores[S == 1], scores[S == 0], st) == 0.0

    def test_theta_two_kills_group_one(self):
        # factor 2 - 2/0.275 < 0, so no group-1 row can activate
        st = group_statistics(FOUR_ROW_SCORES, FOUR_ROW_S)
        val = empirical_unfairness(2.0, FOUR_ROW_SCORES[:2], FOUR_ROW_SCORES[2:], st)
        assert val == pytest.approx(1.0, abs=1e-15)  # group 0 fully active

    def test_matches_product_form_off_breakpoints(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            s1, s0, st = random_instance(rng, max_n=300)
            for theta in rng.uniform(-2.5, 2.5, 10):
                a = empirical_unfairness(float(theta), s1, s0, st)
                b = brute_unfairness(float(theta), s1, s0, st)
                assert a == pytest.approx(b, abs=1e-12)


class TestBreakpoints:
    def test_group1_inversion(self):
        st = group_statistics(FOUR_ROW_SCORES, FOUR_ROW_S)
        bps = breakpoints(FOUR_ROW_SCORES[:2], FOUR_ROW_SCORES[2:], st)
        expected = 0.275 * (2.0 - 1.0 / 0.9)
        assert any(t == pytest.approx(expected, abs=1e-15) for t in bps)

    def test_half_score_switches_at_zero(self):
        st = GroupStatistics(p=(0.5, 0.5), mean_score=(0.6, 0.5), joint=(0.3, 0.25))
        bps = breakpoints(np.array([0.7]), np.array([0.5]), st)
        assert any(t == 0.0 for t in bps)

    def test_out_of_range_dropped(self):
        # score at the floor can push the switch point below -2
        st = group_statistics(FOUR_ROW_SCORES, FOUR_ROW_S)
        bps = breakpoints(np.array([0.1, 0.9]), FOUR_ROW_SCORES[2:], st)
        assert 0.275 * (2.0 - 1.0 / 0.1) == -2.2  # would-be entry
        assert all(-2.0 <= t <= 2.0 for t in bps)

    def test_piecewise_constancy_between_breakpoints(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            s1, s0, st = random_instance(rng, max_n=120)
            bps = breakpoints(s1, s0, st)
            for k in range(len(bps) - 1):
                lo, hi = bps[k], bps[k + 1]
                pts = lo + np.array([0.25, 0.5, 0.75]) * (hi - lo)
                pts = pts[(pts > lo) & (pts < hi)]
                vals = [empirical_unfairness(float(t), s1, s0, st) for t in pts]
                assert all(v == vals[0] for v in vals)

    def test_empty_group_rejected(self):
        st = group_statistics(FOUR_ROW_SCORES, FOUR_ROW_S)
        with pytest.raises(GroupCoverageError):
            breakpoints(FOUR_ROW_SCORES[:2], np.array([]), st)


class TestFitTheta:
    def test_identical_groups_pick_zero(self):
        scores = np.array([0.9, 0.3, 0.6, 0.9, 0.3, 0.6])
        S = np.array([1, 1, 1, 0, 0, 0])
        st = group_statistics(scores, S)
        assert fit_theta(scores[S == 1], scores[S == 0], st) == 0.0

    def test_four_row_beats_dense_grid(self):
        st = group_statistics(FOUR_ROW_SCORES, FOUR_ROW_S)
        s1, s0 = FOUR_ROW_SCORES[:2], FOUR_ROW_SCORES[2:]
        th = fit_theta(s1, s0, st)
        grid = np.linspace(-2.0, 2.0, 100_001)
        grid_best = min(brute_unfairness(t, s1, s0, st) for t in grid)
        assert empirical_unfairness(th, s1, s0, st) <= grid_best + 1e-12

    def test_never_worse_than_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            s1, s0, st = random_instance(rng, max_n=500)
            th = fit_theta(s1, s0, st)
            assert abs(th) <= 2.0
            assert empirical_unfairness(th, s1, s0, st) <= empirical_unfairness(0.0, s1, s0, st)

    def test_monotone_group_terms(self):
        rng = np.random.default_rng(4)
        s1, s0, st = random_instance(rng, max_n=500)
        obj = _aware_objective(s1, s0, st.joint)
        thetas = np.sort(rng.uniform(-2, 2, 50))
        t1 = obj.suffix[0][np.searchsorted(obj.bp_falling[0], thetas, side="left")]
        t0 = obj.prefix[0][np.searchsorted(obj.bp_rising[0], thetas, side="right")]
        assert np.all(np.diff(t1) <= 1e-15)
        assert np.all(np.diff(t0) >= -1e-15)


class TestPredict:
    def test_theta_zero_is_bayes_rule(self):
        st = group_statistics(FOUR_ROW_SCORES, FOUR_ROW_S)
        clf = FairClassifier(model=external_score_model(), theta_hat=0.0, stats=st)
        pred = clf.predict_from_scores(
            scores_s0=np.array([0.4, 0.5, 0.6]),
            scores_s1=np.array([0.4, 0.5, 0.6]),
            sensitive=np.array([1, 1, 1]),
        )
        np.testing.assert_array_equal(pred, [0, 1, 1])  # boundary 0.5 predicts 1

    def test_boundary_breakpoint_is_active(self):
        st = group_statistics(FOUR_ROW_SCORES, FOUR_ROW_S)
        theta = st.joint[1] * (2.0 - 1.0 / 0.9)  # = 0.2444..., product form gives exactly 1.0
        clf = FairClassifier(model=external_score_model(), theta_hat=float(theta), stats=st)
        pred = clf.predict_from_scores(
            scores_s0=np.array([0.9]), scores_s1=np.array([0.9]), sensitive=np.array([1])
        )
        assert pred[0] == 1

    def test_bayes_thresholds(self):
        st = group_statistics(FOUR_ROW_SCORES, FOUR_ROW_S)
        clf = FairClassifier(model=external_score_model(), theta_hat=0.0, stats=st)
        pred = clf.predict_from_scores(
            scores_s0=np.array([0.6, 0.4]), scores_s1=np.array([0.6, 0.4]), sensitive=np.array([1, 0])
        )
        np.testing.assert_array_equal(pred, [1, 0])


ALIGNED = np.array([0.2, 0.6, 0.7, 0.4, 0.9])


@pytest.mark.parametrize(
    "mode, columns",
    [
        ("aware", {"scores_s0": ALIGNED[:1], "scores_s1": ALIGNED[:1], "sensitive": np.array([0, 1, 0, 1, 1])}),
        ("aware", {"scores_s0": ALIGNED, "scores_s1": ALIGNED[:4], "sensitive": np.array([0, 1, 0, 1, 1])}),
        ("aware", {"scores_s0": ALIGNED, "scores_s1": ALIGNED, "sensitive": np.array([0, 1, 2, 1, 0])}),
        ("aware", {"scores_s0": ALIGNED, "scores_s1": ALIGNED}),
        ("blind", {"scores_s0": ALIGNED, "scores_s1": ALIGNED, "marginal": ALIGNED[:3]}),
        ("blind", {"scores_s0": ALIGNED[:4], "scores_s1": ALIGNED, "marginal": ALIGNED}),
        ("blind", {"scores_s0": ALIGNED, "scores_s1": ALIGNED[:2], "marginal": ALIGNED}),
        ("blind", {"scores_s0": ALIGNED, "scores_s1": ALIGNED}),
    ],
    ids=["aware_1_score_row_5_sensitive", "aware_s1_short", "aware_sensitive_2", "aware_no_sensitive",
         "blind_marginal_short", "blind_s0_short", "blind_s1_short", "blind_no_marginal"],
)
def test_misaligned_score_columns_are_schema_errors(mode, columns):
    """calibrate_scores and predict_from_scores share one column check."""
    with pytest.raises(SchemaError):
        calibrate_scores(**columns, mode=mode)
    fitted = calibrate_scores(ALIGNED, ALIGNED[::-1], np.array([0, 1, 0, 1, 1]), ALIGNED, mode=mode)
    with pytest.raises(SchemaError):
        fitted.predict_from_scores(**columns)


def test_calibrate_scores_rejects_an_unknown_mode():
    with pytest.raises(ConfigError, match="'Aware'"):
        calibrate_scores(ALIGNED, ALIGNED, np.array([0, 1, 0, 1, 1]), ALIGNED, mode="Aware")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -0.1, 1.5])
@pytest.mark.parametrize("mode, column", [("aware", "scores_s0"), ("aware", "scores_s1"), ("blind", "scores_s0"),
                                          ("blind", "scores_s1"), ("blind", "marginal")])
def test_scores_outside_the_unit_interval_are_schema_errors(mode, column, bad):
    """calibrate_scores and predict_from_scores take scores in [0, 1] only, as score files do; the bad score
    sits in a group-0 row, so in aware mode it is also checked in the column that row does not read."""
    columns = {"scores_s0": ALIGNED, "scores_s1": ALIGNED[::-1], "sensitive": np.array([0, 1, 0, 1, 1]),
               "marginal": ALIGNED}
    columns[column] = np.where(np.arange(5) == 2, bad, columns[column])
    with pytest.raises(SchemaError, match=column):
        calibrate_scores(**columns, mode=mode)
    fitted = calibrate_scores(ALIGNED, ALIGNED[::-1], np.array([0, 1, 0, 1, 1]), ALIGNED, mode=mode)
    with pytest.raises(SchemaError, match=column):
        fitted.predict_from_scores(**columns)


class TestBlind:
    def test_all_zero_direction_picks_zero(self):
        m = np.array([0.7, 0.4, 0.6])
        s = np.array([0.5, 0.3, 0.8])
        assert fit_theta_blind(m, s, s) == 0.0

    def test_breakpoint_inversion(self):
        # engineered so row 0 has direction exactly +0.5
        s0 = np.array([0.6, 0.2])  # ratios 1.5, 0.5
        s1 = np.array([0.5, 0.5])  # ratios 1.0, 1.0
        m = np.array([0.4, 0.9])
        obj = _blind_objective(s0, s1, m)
        expected = (1.0 - 2.0 * 0.4) / 0.5
        assert any(bp == pytest.approx(expected, abs=1e-15) for bp in obj.breakpoints())

    def test_beats_dense_grid(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(20, 400))
            s0 = np.maximum(rng.random(n), 0.05)
            s1 = np.maximum(rng.random(n), 0.05)
            m = np.maximum(rng.random(n), 0.05)
            th = fit_theta_blind(m, s0, s1)
            val = blind_unfairness(th, m, s0, s1)
            grid = np.linspace(-50.0, 50.0, 20_001)
            grid_best = _blind_objective(s0, s1, m).value(grid).min()
            assert val <= grid_best + 1e-12

    @settings(max_examples=300, deadline=None)
    @given(hst.data())
    def test_switch_point_order_equals_the_stable_argsort(self, data):
        """The default sort plus the row order of each run of equal points gives the stable argsort's order,
        and so the same sorted points and sums, on columns full of ties: few distinct scores, rows with
        d = 0 (s1/E_1 = s0/E_0, never switching), and marginal 0.5, whose switch point is -0.0 or +0.0."""
        n = data.draw(hst.integers(1, 80))
        cell = hst.sampled_from([0.0, 0.1, 0.25, 0.5, 0.75, 1.0])
        s0, s1, m = (np.array(data.draw(hst.lists(cell, min_size=n, max_size=n))) for _ in range(3))
        equal = np.array(data.draw(hst.lists(hst.booleans(), min_size=n, max_size=n)))
        s1[equal] = s0[equal]
        s0[0] = s1[-1] = 0.5  # positive column means
        means, (bp_rising, prefix, bp_falling, suffix) = calibration._blind_sides([s0, s1, m])
        bp, side = calibration._switch_points("blind", [s0, s1, m], None, means)
        order = np.flatnonzero(np.isfinite(bp))
        order = order[np.argsort(bp[order], kind="stable")]
        assert calibration._finite_order(bp).tobytes() == order.tobytes()
        weights = s1 / s1.sum() - s0 / s0.sum()
        weights = np.where(side, -weights, weights)[order]
        side = side[order]
        assert bp_rising[0].tobytes() == bp[order][side].tobytes()
        assert bp_falling[0].tobytes() == bp[order][~side].tobytes()
        assert prefix[0].tobytes() == np.concatenate(([0.0], weights[side].cumsum())).tobytes()
        assert suffix[0].tobytes() == np.concatenate((weights[~side][::-1].cumsum()[::-1], [0.0])).tobytes()

    def test_zero_direction_everywhere_has_no_breakpoints(self):
        # identical group columns make d(x) = 0 on every row, so no row ever switches
        s = np.array([0.7, 0.4, 0.6, 0.2])
        assert _blind_objective(s, s, s).breakpoints().size == 0
        clf = calibrate_scores(s, s, marginal=s, mode="blind")
        assert clf.theta_hat == 0.0

    @pytest.mark.parametrize(
        "s0, scale",
        [([0.2, 0.4, 0.6, 0.8], 1.0), ([0.28, 0.05, 0.03, 0.82], 0.93), ([0.74, 0.19, 0.87, 0.55], 0.51)],
        ids=["both_sides_empty", "rising_side_empty", "falling_side_empty"],
    )
    def test_a_side_without_switch_points(self, s0, scale):
        """With s1 a multiple of s0 every d(x) is 0 up to rounding, so one side or both have no switch
        point: the objective still reads at 0 and at +-inf, and the argmin is the least of its probes."""
        s0 = np.array(s0)
        s1, m = s0 * scale, np.array([0.2, 0.4, 0.6, 0.8])
        d = s0 / s0.mean() - s1 / s1.mean()
        assert (d[d != 0.0] > 0.0).all() or (d[d != 0.0] < 0.0).all()  # rows with d = 0 never switch
        values = []
        for theta in (0.0, np.inf, -np.inf):
            g = np.where(d == 0.0, 1.0 <= 2.0 * m, np.sign(d) * np.sign(theta) >= 0.0) if theta else 1.0 <= 2.0 * m
            values.append(blind_unfairness(theta, m, s0, s1))
            assert values[-1] == pytest.approx(abs((s1 * g).sum() / s1.sum() - (s0 * g).sum() / s0.sum()), abs=1e-12)
        theta = fit_theta_blind(m, s0, s1)
        assert np.isfinite(theta) and blind_unfairness(theta, m, s0, s1) <= min(values)

    def test_matches_product_form(self):
        rng = np.random.default_rng(6)
        n = 100
        s0 = np.maximum(rng.random(n), 0.05)
        s1 = np.maximum(rng.random(n), 0.05)
        m = np.maximum(rng.random(n), 0.05)
        for theta in rng.uniform(-5, 5, 20):
            assert blind_unfairness(float(theta), m, s0, s1) == pytest.approx(
                brute_blind(float(theta), m, s0, s1), abs=1e-12
            )


class TestCalibrate:
    @pytest.fixture
    def train(self):
        rng = np.random.default_rng(7)
        n = 400
        x = rng.normal(size=n)
        s = rng.integers(0, 2, n)
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-(1.5 * x + 0.5 * s)))).astype(int)
        return LabeledDataset(x[:, None], s, y)

    def test_reuse_train_equals_explicit_unlabeled(self, train):
        cfg = LogisticConfig(l2_lambda=1e-3)
        a = calibrate(train, estimator=cfg)
        b = calibrate(train, UnlabeledDataset(train.features, train.sensitive), estimator=cfg)
        assert a.theta_hat == b.theta_hat
        assert a.stats == b.stats

    def test_group_aware_needs_sensitive_on_unlabeled(self, train):
        with pytest.raises(SchemaError):
            calibrate(train, UnlabeledDataset(train.features), mode="aware")

    def test_blind_works_without_sensitive(self, train):
        clf = calibrate(train, UnlabeledDataset(train.features), estimator=LogisticConfig(1e-3), mode="blind")
        assert clf.stats is None and clf.blind_means is not None
        pred = clf.predict(train.features)
        assert set(np.unique(pred)) <= {0, 1}

    def test_theta_bound_holds(self, train):
        clf = calibrate(train, estimator=LogisticConfig(l2_lambda=1e-3))
        assert abs(clf.theta_hat) <= 2.0

    def test_knn_predictions_invariant_to_feature_rescaling(self, train):
        cfg = KnnConfig(k=7)
        a = calibrate(train, estimator=cfg)
        scaled = LabeledDataset(train.features * 3.7, train.sensitive, train.labels)
        b = calibrate(scaled, estimator=cfg)
        np.testing.assert_array_equal(
            a.predict(train.features, train.sensitive), b.predict(scaled.features, train.sensitive)
        )

    def test_external_scores_match_fitted_path(self, train):
        cfg = LogisticConfig(l2_lambda=1e-3)
        fitted = calibrate(train, estimator=cfg)
        # feed the model's own raw scores through the external-scores path
        model = fitted.model
        ext = calibrate_scores(
            model.score_group(train.features, 0),
            model.score_group(train.features, 1),
            sensitive=train.sensitive,
        )
        assert ext.theta_hat == fitted.theta_hat

    def test_serialization_round_trip(self, train):
        clf = calibrate(train, estimator=LogisticConfig(l2_lambda=1e-3))
        back = FairClassifier.from_json(clf.to_json())
        np.testing.assert_array_equal(
            back.predict(train.features, train.sensitive), clf.predict(train.features, train.sensitive)
        )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("mode", "weird"),
            ("theta_hat", float("nan")),
            ("theta_hat", float("inf")),
            ("stats", {"p": [0.5], "mean_score": [0.5, 0.5], "joint": [0.25, 0.25]}),
            ("stats", None),
            ("format_version", 2),
            ("format_version", "1"),
        ],
        ids=[
            "mode_weird", "theta_nan", "theta_inf", "one_element_p", "aware_without_stats",
            "format_version_2", "format_version_string",
        ],
    )
    def test_from_json_rejects_invalid_fields(self, train, field, value):
        obj = calibrate(train, estimator=LogisticConfig(l2_lambda=1e-3)).to_json()
        obj[field] = value
        with pytest.raises(SchemaError):
            FairClassifier.from_json(obj)

    def test_from_json_blind_needs_two_means(self, train):
        obj = calibrate(train, estimator=LogisticConfig(l2_lambda=1e-3), mode="blind").to_json()
        obj["blind_means"] = [0.5]
        with pytest.raises(SchemaError):
            FairClassifier.from_json(obj)

    def test_model_without_format_version_reads_as_version_1(self, train):
        clf = calibrate(train, estimator=LogisticConfig(l2_lambda=1e-3))
        obj = clf.to_json()
        assert obj["format_version"] == 1
        del obj["format_version"]
        back = FairClassifier.from_json(obj)
        assert (back.theta_hat, back.unfairness_hat) == (clf.theta_hat, clf.unfairness_hat)


# --- property tests of the objective ------------------------------------------


@hst.composite
def floored_scores(draw):
    """Floored row scores and groups, with ties, values at the floor and values of exactly 0.5.

    Distinct scores lie at least (1 - c) / 1000 apart: the product form
    rounds differently from the breakpoint form, so it cannot resolve the
    pieces between switch points a few ulps apart.
    """
    n = draw(hst.integers(2, 40))
    c = floor_value(n)
    value = hst.sampled_from([c, 0.5, 1.0]) | hst.integers(1, 999).map(lambda k: c + (1.0 - c) * k / 1000)
    pool = draw(hst.lists(value, min_size=1, max_size=5))
    scores = np.array(draw(hst.lists(hst.sampled_from(pool), min_size=n, max_size=n)))
    S = np.array(draw(hst.lists(hst.integers(0, 1), min_size=n, max_size=n)))
    S[:2] = (0, 1)
    return scores, S


@settings(max_examples=200, deadline=None)
@given(floored_scores())
def test_argmin_is_product_form_minimum_over_breakpoints(case):
    scores, S = case
    stats = group_statistics(scores, S)
    s1, s0 = scores[S == 1], scores[S == 0]
    theta, value = (float(v[0]) for v in _aware_objective(s1, s0, stats.joint).argmin())
    bps = breakpoints(s1, s0, stats)
    cands = np.concatenate([[-2.0, 0.0, 2.0], bps, 0.5 * (bps[:-1] + bps[1:])])
    assert value == pytest.approx(min(brute_unfairness(t, s1, s0, stats) for t in cands), abs=1e-12)
    assert value == empirical_unfairness(theta, s1, s0, stats)


@settings(max_examples=200, deadline=None)
@given(floored_scores())
@example((np.array([1e-6, 1e-6, 0.1, 0.1, 0.5, 0.5, 0.9, 0.9]), np.array([1, 0, 1, 0, 1, 0, 1, 0])))
@example((np.array([0.05, 0.05, 0.05, 0.7, 0.7]), np.array([0, 1, 1, 0, 1])))
def test_breakpoints_equal_per_row_switch_points(case):
    """breakpoints() against the per-row formula: the distinct switch points within [-2, 2]."""
    scores, S = case
    stats = group_statistics(scores, S)
    s1, s0 = scores[S == 1], scores[S == 0]
    t = np.concatenate([stats.joint[1] * (2.0 - 1.0 / s1), stats.joint[0] * (1.0 / s0 - 2.0)])
    expected = np.unique(t[(t >= -2.0) & (t <= 2.0)])
    np.testing.assert_array_equal(breakpoints(s1, s0, stats), expected)


@hst.composite
def knn_training_sets(draw):
    """Small labeled samples with tied features; even k makes scores of exactly 0.5."""
    n = draw(hst.integers(8, 30))
    x = draw(hst.lists(hst.sampled_from([0.0, 0.5, 1.0]) | hst.floats(-2.0, 2.0), min_size=n, max_size=n))
    S = np.array(draw(hst.lists(hst.integers(0, 1), min_size=n, max_size=n)))
    S[:8] = (0, 1) * 4
    Y = draw(hst.lists(hst.integers(0, 1), min_size=n, max_size=n))
    return LabeledDataset(np.array(x)[:, None], S, Y), draw(hst.sampled_from([1, 2, 4]))


@settings(max_examples=50, deadline=None)
@given(knn_training_sets(), hst.sampled_from(["aware", "blind"]))
def test_unfairness_hat_is_the_objective_at_theta_hat(case, mode):
    train, k = case
    clf = calibrate(train, estimator=KnnConfig(k=k), mode=mode)
    model, X, S = clf.model, train.features, train.sensitive
    if mode == "aware":
        sc = model.score_rowwise(X, S)
        expected = empirical_unfairness(clf.theta_hat, sc[S == 1], sc[S == 0], clf.stats)
    else:
        expected = blind_unfairness(
            clf.theta_hat, model.score_marginal(X), model.score_group(X, 0), model.score_group(X, 1)
        )
    assert clf.unfairness_hat == expected


def whole_argmin(objective, bps, probes):
    """Reference argmin of a one-row objective: every candidate evaluated at once, ties to the smallest
    |theta|, then the smaller."""
    cands = np.concatenate([np.asarray(probes, dtype=np.float64), bps, 0.5 * (bps[:-1] + bps[1:])])
    values = objective.value(cands)
    tied = cands[values == values.min()]
    return float(tied[np.lexsort((tied, np.abs(tied)))[0]]), float(values.min())


@settings(max_examples=200, deadline=None)
@given(floored_scores(), hst.sampled_from(["aware", "blind"]), hst.integers(1, 5))
def test_blocked_argmin_equals_whole_candidate_argmin(case, mode, block):
    """The argmin walked in candidate blocks of any size returns the bits of the all-at-once argmin."""
    scores, S = case
    if mode == "aware":
        objective = _aware_objective(scores[S == 1], scores[S == 0], group_statistics(scores, S).joint)
        probes = [-2.0, 0.0, 2.0]
    else:  # rows pair up the drawn values in three rotations, so the blind scores keep their ties
        objective = _blind_objective(np.roll(scores, 1), np.roll(scores, 2), scores)
        bps = objective.breakpoints()
        probes = [0.0, bps[0] - 1.0, bps[-1] + 1.0] if bps.size else [0.0]
    with mock.patch.object(calibration, "_CANDIDATE_BLOCK", block):
        got = [float(v[0]) for v in objective.argmin()]
    want = whole_argmin(objective, objective.breakpoints(), probes)
    assert np.array(got).tobytes() == np.array(want).tobytes()


def test_calibrate_scores_transient_memory_is_bounded():
    """Aware calibration of N rows allocates at most 10 float64 per row on top of its inputs."""
    rng = np.random.default_rng(5)
    n = 200_000
    s0, s1, S = rng.random(n), rng.random(n), (rng.random(n) < 0.4).astype(np.int64)
    tracemalloc.start()
    try:
        calibrate_scores(s0, s1, S)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 8 * n


BLOCK = calibration._CANDIDATE_BLOCK


@hst.composite
def finite_arrays(draw):
    """Finite float64 arrays drawn from a small pool (heavy duplication, -0.0 beside 0.0), some sized
    around the argmin's block, optionally with every other entry replaced by a distinct value."""
    pool = draw(hst.lists(hst.sampled_from([0.0, -0.0]) | hst.floats(allow_nan=False, allow_infinity=False),
                          min_size=1, max_size=8))
    size = draw(hst.integers(0, 40) | hst.sampled_from([BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3]))
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    values = rng.choice(np.array(pool, dtype=np.float64), size)
    if draw(hst.booleans()):
        values[::2] = rng.normal(size=values[::2].size)
    return values


@settings(max_examples=200, deadline=None)
@given(finite_arrays())
@example(np.array([]))
@example(np.array([0.0, -0.0, 0.0, -0.0, 1.0]))
def test_distinct_is_np_unique_bitwise(values):
    got, want = _distinct(values), np.unique(values)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()  # signbit of every zero included


@hst.composite
def switch_point_cases(draw):
    """Calibration rows in the form the per-mode reference takes them (blind: marginal, s0, s1), drawn to
    stress the switch points.

    Scores come from a small pool of floored values, 1/k lattice points and floats, optionally each
    beside the next three floats up (adjacent scores often round to one switch point).  Aware samples may
    give both groups one multiset; blind samples may make s1 a rotation of s0 on dyadic values, so
    the means are equal and every row with s0 == s1 has d = 0 and a switch point that is not finite.
    """
    mode, n = draw(hst.sampled_from(["aware", "blind"])), draw(hst.integers(2, 40))
    c, k = floor_value(n), draw(hst.integers(1, 12))
    value = hst.sampled_from([c, 0.5, 1.0]) | hst.integers(0, k).map(lambda j: max(j / k, c)) | hst.floats(c, 1.0)
    pool = draw(hst.lists(value, min_size=1, max_size=6))
    if draw(hst.booleans()):
        pool = [float(v + j * np.spacing(v)) for v in pool for j in range(4)]
    rows = np.array(draw(hst.lists(hst.sampled_from(pool), min_size=3 * n, max_size=3 * n))).reshape(3, n)
    if mode == "aware":
        S = np.array(draw(hst.lists(hst.integers(0, 1), min_size=n, max_size=n)))
        S[:2] = (0, 1)
        if n % 2 == 0 and draw(hst.booleans()):  # identical group multisets
            S = np.arange(n) % 2
            rows[0, 1::2] = rows[0, : n // 2 * 2 : 2][::-1]
        return mode, rows[0], S
    if draw(hst.booleans()):
        rows[1] = np.array(draw(hst.lists(hst.integers(1, 16), min_size=n, max_size=n))) / 16
        rows[2] = rows[1]
        m = draw(hst.integers(0, n))
        rows[2, :m] = np.roll(rows[1, :m], 1)
    return mode, rows, None


@settings(max_examples=300, deadline=None)
@given(switch_point_cases())
# one group holds 0.497 and the next float up, whose switch points round to one value
@example(("aware", np.array([0.97, 0.497, np.nextafter(0.497, 2.0), 0.3, 0.6]), np.array([1, 1, 1, 0, 0])))
@example(("aware", np.array([0.97, 0.497, np.nextafter(0.497, 2.0), 0.3, 0.6]), np.array([0, 0, 0, 1, 1])))
@example(("blind", np.array([[0.5, 0.2, 0.7], [0.25, 0.5, 0.5], [0.25, 0.5, 0.5]]), None))
def test_one_objective_and_decision_equal_the_per_mode_ones_bitwise(case):
    """The objective and _decide give the bits of the per-mode objectives and decision branches they replaced."""
    mode, scores, S = case
    rows = scores if mode == "aware" else scores[[1, 2, 0]]  # blind rows in slot order (s0, s1, marginal)
    if mode == "aware":
        stats = group_statistics(scores, S)
        columns = (scores[S == 1], scores[S == 0])
        new, old = _aware_objective(*columns, stats.joint), reference._AwareObjective(*columns, stats)
        means, probes = None, [-2.0, 0.0, 2.0]
    else:
        stats, new, old = None, _blind_objective(*rows), reference._BlindObjective(*scores)
        means, bps = old.means, old.breakpoints
        probes = [0.0, bps[0] - 1.0, bps[-1] + 1.0] if bps.size else [0.0]
        assert np.array(calibration._blind_sides(list(rows))[0]).tobytes() == np.array(means).tobytes()
    bps = old.breakpoints
    assert new.breakpoints().tobytes() == bps.tobytes()
    cands = np.concatenate([probes, bps, 0.5 * (bps[:-1] + bps[1:])])
    assert new.value(cands).tobytes() == old.value(cands).tobytes()
    assert np.concatenate(new.argmin()).tobytes() == np.array(old.argmin()).tobytes()
    for theta in cands:
        clf = FairClassifier(external_score_model(mode=mode), float(theta), stats, blind_means=means)
        assert clf._decide(rows, S).tobytes() == reference.decide(clf, scores, S).tobytes()


@hst.composite
def walk_cases(draw):
    """Calibration rows around the argmin's block size, in the form the per-mode reference takes them (blind:
    marginal, s0, s1), drawn so that the walk's runs cross block edges.

    Scores come from a 1/k lattice, a small pool of floats with the floor (every row tied in some draws), or
    free floats above the floor.  Blind rows may make s1 a rotation of s0 on dyadic values, so rows with
    s0 == s1 have d = 0 and never switch, and may hold marginals of exactly 0.5, whose switch point is 0.0
    where d > 0 and -0.0 where d < 0.
    """
    mode = draw(hst.sampled_from(["aware", "blind"]))
    n = draw(hst.sampled_from([BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3]))
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    c, kind = floor_value(n), draw(hst.sampled_from(["lattice", "pool", "tied", "floats"]))
    if kind == "lattice":
        k = draw(hst.integers(1, 60))
        rows = np.maximum(rng.integers(0, k + 1, (3, n)) / k, c)
    elif kind in ("pool", "tied"):
        pool = np.concatenate([[c, 0.5], c + (1.0 - c) * rng.random(draw(hst.integers(1, 6)))])
        rows = rng.choice(pool[:1] if kind == "tied" else pool, (3, n))
    else:
        rows = c + (1.0 - c) * rng.random((3, n))
    if mode == "aware":
        S = rng.integers(0, 2, n)
        S[:2] = (0, 1)
        return mode, rows[0], S
    if draw(hst.booleans()):
        rows[1] = rng.integers(1, 17, n) / 16
        rows[2] = rows[1]
        m = int(rng.integers(0, n + 1))
        rows[2, :m] = np.roll(rows[1, :m], 1)
    if draw(hst.booleans()):
        rows[0, rng.random(n) < 0.5] = 0.5
    return mode, rows, None


@settings(max_examples=40, deadline=None)
@given(walk_cases())
def test_walk_across_blocks_equals_the_candidate_argmin_and_searchsorted_bitwise(case):
    """At the block size the walk's counts at every distinct switch point within the bound are searchsorted's,
    and its argmin gives the bits of the all-candidates-at-once argmin and of the per-mode objectives."""
    mode, scores, S = case
    if mode == "aware":
        stats = group_statistics(scores, S)
        columns = (scores[S == 1], scores[S == 0])
        new, old = _aware_objective(*columns, stats.joint), reference._AwareObjective(*columns, stats)
        probes, (low, high) = [0.0, -2.0, 2.0], calibration._AWARE_SPAN
    else:
        new, old = _blind_objective(*scores[[1, 2, 0]]), reference._BlindObjective(*scores)
        bps = new.breakpoints()
        probes, (low, high) = [0.0, bps[0] - 1.0, bps[-1] + 1.0] if bps.size else [0.0], calibration._BLIND_SPAN
    bp_rising, bp_falling = new.bp_rising[0], new.bp_falling[0]  # one sample, so no padding
    runs = list(new._runs(low, high))
    for rows, starts, points, after, rising, below, falling in runs:
        assert (rows == 0).all() and starts.tolist() == [0]
        assert (rising == bp_rising.searchsorted(points, "right")).all()
        assert (below == bp_falling.searchsorted(points[:1], "left")).all()
        assert (falling == bp_falling.searchsorted(points, "right")).all()
    points = np.concatenate([r[2] for r in runs]) if runs else np.array([])
    after = np.concatenate([r[3] for r in runs]) if runs else np.array([])
    every = _distinct(np.concatenate((bp_rising, bp_falling)))
    inside = (every >= low) & (every < high)
    np.testing.assert_array_equal(points, every[inside])
    np.testing.assert_array_equal(after, np.append(every[1:], np.nan)[inside])  # NaN past the last
    got = np.concatenate(new.argmin()).tobytes()
    assert got == np.array(whole_argmin(new, new.breakpoints(), probes)).tobytes()
    assert got == np.array(old.argmin()).tobytes()


def _classifier_bits(clf):
    """theta_hat, unfairness_hat, the statistics and the blind means of a classifier, floats as hex."""
    stats = [] if clf.stats is None else [v for field in (clf.stats.p, clf.stats.mean_score, clf.stats.joint)
                                           for v in field]
    values = [clf.theta_hat, clf.unfairness_hat, *stats, *(clf.blind_means or ())]
    return clf.mode, clf.stats is None, clf.blind_means is None, [float(v).hex() for v in values]


@hst.composite
def calibration_batches(draw):
    """The samples of one call of the calibration core, each (floor, scores, sensitive) with its own size and
    group split: 1 to 10 of K in {1, 2, 30} rows, or first one of 20,000 rows, so its walk crosses blocks.

    Scores lie on 1/k lattices (ties within and across rows) or are free draws, some below, at and just
    below the floor and at 1; the floor is the sample's own or a low one, and aware samples may score
    one group far below the other, so that the unbounded minimum lies beyond the bound.  Blind samples
    may pair s0 with a rotation of it as s1 on values above the floor, so both means are equal and every
    row with s0 == s1 has d = 0 and never switches.
    """
    mode = draw(hst.sampled_from(["aware", "blind"]))
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    large = draw(hst.integers(0, 7)) == 0
    samples = []
    for i in range(draw(hst.integers(1, 10))):
        n, grid = (20_000, draw(hst.sampled_from([1, 2]))) if large and i == 0 else (int(rng.integers(16, 80)),
                                                                                    draw(hst.sampled_from([1, 2, 30])))
        # the floor of a sample of n rows, or a low one, so that some switch points lie beyond the bound of 2
        c, k = draw(hst.sampled_from([floor_value(n), 1e-3])), draw(hst.sampled_from([1, 2, 5, 11, 51, None]))
        shape = (grid, n) if mode == "aware" else (grid, 3, n)
        scores = rng.random(shape) if k is None else rng.integers(0, k + 1, shape) / k
        picks = rng.random(shape) < draw(hst.sampled_from([0.0, 0.3]))
        scores[picks] = rng.choice([0.0, np.nextafter(c, 0.0), c, 1.0], size=int(picks.sum()))
        if mode == "blind" and draw(hst.booleans()):
            scores[:, 0] = rng.integers(4, 9, (grid, n)) / 8
            scores[:, 1] = scores[:, 0]
            m = int(rng.integers(0, n + 1))
            scores[:, 1, :m] = np.roll(scores[:, 0, :m], 1, axis=-1)
        S = rng.integers(0, 2, n)
        S[:2] = (0, 1)
        if mode == "aware" and draw(hst.booleans()):  # group 1 scored far below group 0: theta runs into its bound
            scores[..., S == 1] *= 0.05
        samples.append((c, scores, S if mode == "aware" else None))
    return mode, samples


@settings(max_examples=100, deadline=None)
@given(calibration_batches(), hst.sampled_from([None, 1, 3, 64]), hst.sampled_from([None, 1, 500]))
def test_batched_core_equals_per_row_reference_bitwise(case, block, budget):
    """One call of the calibration core gives every row of every sample the theta_hat, unfairness_hat, group
    statistics and blind means of the per-row objective and core it replaced, bit for bit, also with walk
    blocks of a few merged points (runs of many rows crossing them) and batches of a few scores (samples
    split across objectives)."""
    mode, samples = case
    models = [external_score_model(floor=c, mode=mode) for c, _, _ in samples]
    patches = [mock.patch.object(calibration, name, value) for name, value in
               (("_CANDIDATE_BLOCK", block), ("_BATCH_ENTRIES", budget)) if value is not None]
    for patch in patches:
        patch.start()
    try:
        got = calibration._calibrate([(m, scores.copy(), S) for m, (_, scores, S) in zip(models, samples)])
    finally:
        for patch in patches:
            patch.stop()
    assert len(got) == len(samples)
    for classifiers, model, (c, scores, S) in zip(got, models, samples):
        want = reference._calibrate(model, np.maximum(scores, c), S)
        assert [_classifier_bits(clf) for clf in classifiers] == [_classifier_bits(clf) for clf in want]
        assert all(clf.model is model for clf in classifiers)


@settings(max_examples=100, deadline=None)
@given(calibration_batches())
def test_a_row_of_a_batched_objective_reads_as_its_own_objective(case):
    """value(thetas, row) and breakpoints(row) of an objective holding the rows of many samples, padded to
    one width, give the bits of each row's one-row objective, at its candidates and at 0, +-2 and +-inf."""
    mode, samples = case
    blocks = [np.maximum(scores, c) for c, scores, _ in samples]
    if mode == "aware":
        sides, stats = calibration._aware_batch([(block, S) for block, (_, _, S) in zip(blocks, samples)])
        batch = calibration._Objective(sides, calibration.THETA_BOUND)
        rows = [(row, S) for block, (_, _, S) in zip(blocks, samples) for row in block]
        ones = [_aware_objective(row[S == 1], row[S == 0], st.joint) for (row, S), st in zip(rows, stats)]
    else:
        batch = calibration._Objective(calibration._blind_batch(blocks)[0], np.inf)
        ones = [_blind_objective(*rows) for block in blocks for rows in block]
    assert len(batch.prefix) == len(ones)
    for row, one in enumerate(ones):
        bps = one.breakpoints()
        thetas = np.concatenate(([0.0, -2.0, 2.0, -np.inf, np.inf], bps, 0.5 * (bps[:-1] + bps[1:])))
        assert batch.breakpoints(row).tobytes() == bps.tobytes()
        assert batch.value(thetas, row).tobytes() == one.value(thetas).tobytes()
