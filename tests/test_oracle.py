import functools
import json
from dataclasses import asdict

import numpy as np
import pytest
from oracle_reference import (
    exact_moments,
    plugin_at_infinite_data,
    random_distribution,
    region_starts_scalar,
    risk_direct_quadrature,
    sample_scatter,
)

from fairthresh.calibration import FairClassifier, _fit_estimator, calibrate, calibrate_scores
from fairthresh.data import UnlabeledDataset, read_json
from fairthresh.errors import ConfigError, NumericError, SchemaError
from fairthresh.estimators import KnnConfig, LogisticConfig
from fairthresh.metrics import deo
from fairthresh.oracle import (
    ConsistencyCell,
    GroupSpec,
    SyntheticDistribution,
    _closed_form_joints,
    _region_starts,
    consistency_run,
    exact_group_scores,
    exact_marginal_scores,
    exact_scores,
    linear_distribution,
    risk_of_threshold_rule,
    sample,
    solve_theta_star,
    tpr_gap,
)

ASYM = linear_distribution(0.1, 0.8, 0.2, 0.7, 0.5)


def near_uniform():
    eps = 1e-9
    spec = ((0.0, eps), (1.0, 1.0 - eps))
    return SyntheticDistribution(0.5, (GroupSpec(0.0, 1.0, spec), GroupSpec(0.0, 1.0, spec)))


class TestConstruction:
    def test_constant_eta_rejected(self):
        with pytest.raises(ConfigError, match="strictly increasing"):
            GroupSpec(0.0, 1.0, ((0.0, 0.7), (1.0, 0.7)))

    def test_eta_below_half_everywhere_rejected(self):
        g_ok = GroupSpec(0.0, 1.0, ((0.0, 0.1), (1.0, 0.9)))
        g_low = GroupSpec(0.0, 1.0, ((0.0, 0.1), (1.0, 0.4)))
        with pytest.raises(ConfigError, match="1/2"):
            SyntheticDistribution(0.5, (g_ok, g_low))

    def test_knot_range_enforced(self):
        with pytest.raises(ConfigError):
            GroupSpec(0.0, 1.0, ((0.1, 0.2), (1.0, 0.9)))
        with pytest.raises(ConfigError):
            GroupSpec(0.0, 1.0, ((0.0, 0.0), (1.0, 0.9)))

    def test_json_round_trip(self, tmp_path):
        import json

        p = tmp_path / "dist.json"
        p.write_text(json.dumps(asdict(ASYM)))
        assert SyntheticDistribution.from_json(read_json(p)) == ASYM

    def test_malformed_json_is_schema_error(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"pi_1": 0.5}')
        with pytest.raises(SchemaError):
            SyntheticDistribution.from_json(read_json(p))

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda law: law.update(pi_1="abc"), "pi_1"),
            (lambda law: law["groups"][1].update(scale=[1]), r"groups\[1\]\.scale"),
            (lambda law: law["groups"][0]["knots"].__setitem__(1, [0]), r"groups\[0\]\.knots\[1\]"),
            (lambda law: law["groups"][0]["knots"].__setitem__(0, 5), r"groups\[0\]\.knots\[0\]"),
            (lambda law: law["groups"][1]["knots"][0].__setitem__(1, "x"), r"groups\[1\]\.knots\[0\]\[1\]"),
        ],
        ids=["pi_1", "scale", "short_knot", "scalar_knot", "knot_value"],
    )
    def test_malformed_field_is_schema_error_naming_it(self, edit, field):
        law = json.loads(json.dumps(asdict(ASYM)))
        edit(law)
        with pytest.raises(SchemaError, match=field):
            SyntheticDistribution.from_json(law)


class TestMoments:
    def test_near_uniform_mean_half(self):
        m = exact_moments(near_uniform())
        assert m.mean_eta[0] == pytest.approx(0.5, abs=1e-8)
        assert m.joint[0] == pytest.approx(0.25, abs=1e-8)

    def test_asymmetric_closed_forms(self):
        # hand integrals: E1 = 0.2 + 0.35, E0 = 0.1 + 0.4
        m = exact_moments(ASYM)
        assert m.mean_eta[1] == pytest.approx(0.55, abs=1e-8)
        assert m.mean_eta[0] == pytest.approx(0.50, abs=1e-8)
        assert m.joint == (pytest.approx(0.25, abs=1e-8), pytest.approx(0.275, abs=1e-8))
        assert m.p_positive == pytest.approx(0.525, abs=1e-8)

    def test_quadrature_self_consistency(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            dist = random_distribution(rng)
            a = exact_moments(dist, n_points=2**17 + 1)
            b = exact_moments(dist, n_points=2**18 + 1)
            for s in (0, 1):
                assert abs(a.mean_eta[s] - b.mean_eta[s]) <= 1e-9
                assert abs(a.joint[s] - b.joint[s]) <= 1e-9


class TestTprGap:
    def test_symmetric_at_zero(self):
        assert tpr_gap(0.0, near_uniform()) == pytest.approx(0.0, abs=1e-12)

    def test_asymmetric_at_zero_closed_form(self):
        # group1 region u >= 3/7: integral 0.4; group0 region u >= 1/2: 0.35
        expected = 0.4 / 0.55 - 0.35 / 0.5
        assert tpr_gap(0.0, ASYM) == pytest.approx(expected, abs=1e-12)

    def test_non_increasing(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            dist = random_distribution(rng)
            gaps = tpr_gap(np.linspace(-2, 2, 101), dist)
            assert np.all(np.diff(gaps) <= 1e-12)


class TestRegionStarts:
    def test_vectorised_matches_scalar_reference(self):
        rng = np.random.default_rng(4)
        thetas = np.linspace(-2.0, 2.0, 101)  # at -2 and at 2 one group's region is empty
        for _ in range(200):
            dist = random_distribution(rng)
            _, joints = _closed_form_joints(dist)
            got = np.column_stack(_region_starts(dist, thetas, joints))
            want = np.array([region_starts_scalar(dist, float(t), joints) for t in thetas])
            np.testing.assert_array_equal(got, want)


class TestSolve:
    def test_symmetric_theta_zero(self):
        sol = solve_theta_star(near_uniform())
        assert abs(sol.theta_star) <= 1e-8

    def test_gap_sign_determines_theta_sign(self):
        assert tpr_gap(0.0, ASYM) > 0
        assert solve_theta_star(ASYM).theta_star > 0

    def test_residual_gap_small(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            sol_dist = random_distribution(rng)
            sol = solve_theta_star(sol_dist)
            assert abs(sol.theta_star) <= 2.0
            assert abs(tpr_gap(sol.theta_star, sol_dist)) <= 1e-6
            assert sol.bracket_width <= sol.bisection_tolerance

    def test_bad_bracket_raises(self, monkeypatch):
        import fairthresh.oracle as oracle_mod

        monkeypatch.setattr(oracle_mod, "tpr_gap", lambda theta, dist: 1.0)
        with pytest.raises(NumericError):
            oracle_mod.solve_theta_star(ASYM)


class TestRisk:
    def test_identity_matches_direct_quadrature(self):
        rng = np.random.default_rng(3)
        for _ in range(3):
            dist = random_distribution(rng)
            for _ in range(5):
                regions = tuple(rng.uniform(0.0, 1.0, 2))
                a = risk_of_threshold_rule(dist, regions)
                b = risk_direct_quadrature(dist, regions)
                assert a == pytest.approx(b, abs=1e-8)

    def test_bayes_rule_beats_fair_rule(self):
        # unconstrained Bayes (threshold eta >= 1/2) lower-bounds the fair optimum
        sol = solve_theta_star(ASYM)
        bayes_regions = tuple(g.eta_inverse(0.5) for g in ASYM.groups)
        assert risk_of_threshold_rule(ASYM, bayes_regions) <= sol.risk_star + 1e-12


class TestSample:
    def test_moment_match_large_sample(self):
        ds = sample(near_uniform(), 1_000_000, 42)
        for s in (0, 1):
            joint = float(((ds.labels == 1) & (ds.sensitive == s)).mean())
            assert abs(joint - 0.25) <= 0.002

    def test_same_seed_identical(self):
        a = sample(ASYM, 500, 9)
        b = sample(ASYM, 500, 9)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.sensitive, b.sensitive)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_single_row(self):
        ds = sample(ASYM, 1, 3)
        assert ds.n == 1

    @pytest.mark.parametrize("n", [1, 2, 1000])
    def test_equals_the_per_group_scatter_bitwise(self, n):
        """Every row drawn at once gives the bits of the sample drawn one group at a time."""
        rng = np.random.default_rng(n)
        missed = 0  # draws in which one group has no row
        for seed in range(40):
            dist = random_distribution(rng)
            got, want = sample(dist, n, seed), sample_scatter(dist, n, seed)
            for a, b in ((got.features, want.features), (got.sensitive, want.sensitive), (got.labels, want.labels)):
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
            missed += got.sensitive.min() == got.sensitive.max()
        assert missed > 0 if n < 1000 else missed == 0

    def test_exact_scores_match_curve(self):
        ds = sample(ASYM, 1000, 1)
        sc = exact_group_scores(ASYM, ds.features, 1)
        x = ds.features[:, 0]
        np.testing.assert_allclose(sc, 0.2 + 0.7 * np.clip(x, 0, 1), atol=1e-12)

    def test_marginal_scores_mix_by_density(self):
        # equal supports and pi=0.5: marginal is the plain average
        ds = sample(ASYM, 200, 2)
        m = exact_marginal_scores(ASYM, ds.features)
        avg = 0.5 * (exact_group_scores(ASYM, ds.features, 0) + exact_group_scores(ASYM, ds.features, 1))
        np.testing.assert_allclose(m, avg, atol=1e-12)

    def test_scores_read_feature_column_0_only(self):
        # a second column (a nuisance feature) changes none of the scores, nor their count
        ds = sample(ASYM, 300, 5)
        X = np.column_stack([ds.features[:, 0], np.random.default_rng(5).normal(size=ds.n)])
        for score in (
            lambda Z: exact_group_scores(ASYM, Z, 0),
            lambda Z: exact_group_scores(ASYM, Z, 1),
            lambda Z: exact_marginal_scores(ASYM, Z),
            lambda Z: exact_scores(ASYM, Z, ds.sensitive),
        ):
            got = score(X)
            assert got.shape == (ds.n,)
            np.testing.assert_array_equal(got, score(X[:, :1]))


class TestPluginLimit:
    def test_reproduces_optimal_rule_on_grid(self):
        sol = solve_theta_star(ASYM)
        clf = plugin_at_infinite_data(ASYM)
        for s in (0, 1):
            u = np.linspace(0.0, 1.0, 10_000)
            scores = exact_group_scores(ASYM, u, s)
            pred = clf.predict_from_scores(
                scores_s0=scores, scores_s1=scores, sensitive=np.full(u.size, s)
            )
            want = (u >= sol.region_starts[s]).astype(int)
            boundary = np.abs(u - sol.region_starts[s]) <= 1e-6
            np.testing.assert_array_equal(pred[~boundary], want[~boundary])


class TestConsistencyRun:
    def test_bitwise_reproducible(self):
        cells_a = consistency_run(ASYM, [50], [100], repeats=1, seed=6, estimator="exact", test_size=2000)
        cells_b = consistency_run(ASYM, [50], [100], repeats=1, seed=6, estimator="exact", test_size=2000)
        assert cells_a == cells_b

    def test_table_structure(self):
        cells = consistency_run(ASYM, [30, 60], [40, 80], repeats=2, seed=1, estimator="exact", test_size=500)
        assert [(c.n, c.N) for c in cells] == [(30, 40), (30, 80), (60, 40), (60, 80)]
        for c in cells:
            assert c.repeats == 2 and c.deo_std >= 0.0

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            consistency_run(ASYM, [], [10], repeats=1, seed=0)

    @pytest.mark.parametrize(
        "estimator", ["exact", LogisticConfig(l2_lambda=1e-4), KnnConfig(k=7)], ids=["exact", "logistic", "knn"]
    )
    def test_cells_match_the_two_branch_reference(self, estimator):
        args = (ASYM, [60, 150], [40, 300], 2, 4, estimator, 3000)
        assert [repr(c) for c in consistency_run(*args)] == [repr(c) for c in _two_branch_reference(*args)]

    @pytest.mark.parametrize("estimator", ["exact", LogisticConfig(l2_lambda=1e-4)], ids=["exact", "logistic"])
    def test_cells_calibrate_and_predict_as_the_public_column_path(self, estimator, monkeypatch, cpus):
        """Every cell's classifier (theta_hat, unfairness_hat, statistics, floor) and test predictions are
        those of calibrate_scores(s, s, sensitive=S) and predict_from_scores on the cell's own scores."""
        seen, real = [], FairClassifier.predict_from_scores

        def predict_from_scores(clf, *args, **kwargs):
            seen.append((clf, real(clf, *args, **kwargs)))
            return seen[-1][1]

        cpus(1)  # every cell runs in this process, where the spy sees it
        monkeypatch.setattr(FairClassifier, "predict_from_scores", predict_from_scores)
        n, N_grid, repeats, seed, test_size = 150, [40, 300], 2, 4, 3000
        consistency_run(ASYM, [n], N_grid, repeats, seed, estimator, test_size)
        monkeypatch.undo()
        assert len(seen) == len(N_grid) * repeats
        for (i_N, rep), (clf, pred) in zip(((i, r) for i in range(len(N_grid)) for r in range(repeats)), seen):
            base = [seed, 0, i_N, rep]
            unl, test = sample(ASYM, N_grid[i_N], base + [1]), sample(ASYM, test_size, base + [2])
            if estimator == "exact":
                score = functools.partial(exact_scores, ASYM)
            else:
                score = _fit_estimator(sample(ASYM, n, base + [0]), estimator, "aware").score_rowwise
            cal_scores, test_scores = score(unl.features, unl.sensitive), score(test.features, test.sensitive)
            want = calibrate_scores(cal_scores, cal_scores, sensitive=unl.sensitive)
            assert [float(v).hex() for v in (clf.theta_hat, clf.unfairness_hat, clf.model.floor)] == [
                float(v).hex() for v in (want.theta_hat, want.unfairness_hat, want.model.floor)]
            assert clf.stats == want.stats
            want_pred = want.predict_from_scores(test_scores, test_scores, sensitive=test.sensitive)
            assert pred.dtype == want_pred.dtype and pred.tobytes() == want_pred.tobytes()


def _two_branch_reference(dist, n_grid, N_grid, repeats, seed, estimator, test_size):
    """consistency_run with one branch per score source: exact per-group score columns through
    calibrate_scores, or a fitted estimator through calibrate and FairClassifier.predict."""
    sol = solve_theta_star(dist)
    cells = []
    for i_n, n in enumerate(n_grid):
        for i_N, N in enumerate(N_grid):
            deos, excesses, terrs = [], [], []
            for rep in range(repeats):
                base = [seed, i_n, i_N, rep]
                unl = sample(dist, N, base + [1])
                test = sample(dist, test_size, base + [2])
                if estimator == "exact":
                    columns = [exact_group_scores(dist, unl.features, s) for s in (0, 1)]
                    clf = calibrate_scores(*columns, sensitive=unl.sensitive)
                    test_columns = [exact_group_scores(dist, test.features, s) for s in (0, 1)]
                    pred = clf.predict_from_scores(*test_columns, sensitive=test.sensitive)
                else:
                    cal = UnlabeledDataset(unl.features, unl.sensitive)
                    clf = calibrate(sample(dist, n, base + [0]), cal, estimator=estimator)
                    pred = clf.predict(test.features, test.sensitive)
                report = deo(pred, test.labels, test.sensitive)
                deos.append(report.deo if report.deo is not None else 0.0)
                excesses.append((1.0 - report.accuracy) - sol.risk_star)
                terrs.append(abs(clf.theta_hat - sol.theta_star))
            ddof = 1 if repeats > 1 else 0
            cells.append(ConsistencyCell(
                n, N, repeats, float(np.mean(deos)), float(np.std(deos, ddof=ddof)), float(np.mean(excesses)),
                float(np.std(excesses, ddof=ddof)), float(np.mean(terrs)),
            ))
    return cells
