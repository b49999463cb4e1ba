"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is deterministic and finishes in a few minutes.
"""

import time

import numpy as np
from oracle_reference import random_distribution, risk_direct_quadrature

from fairthresh.benchmark import BenchmarkConfig, run_benchmark, run_unlabeled_sweep
from fairthresh.calibration import (
    _aware_objective,
    calibrate_scores,
    empirical_unfairness,
    fit_theta,
    group_statistics,
)
from fairthresh.estimators import LogisticConfig, floor_value
from fairthresh.metrics import deo
from fairthresh.oracle import (
    GroupSpec,
    SyntheticDistribution,
    consistency_run,
    exact_group_scores,
    exact_marginal_scores,
    linear_distribution,
    risk_of_threshold_rule,
    sample,
    solve_theta_star,
    tpr_gap,
)

# eta(u,1) = 0.2 + 0.7u, eta(u,0) = 0.1 + 0.8u, P(S=1) = 1/2
ASYM = linear_distribution(0.1, 0.8, 0.2, 0.7, 0.5)
# larger group contrast; baseline TPR gap at theta=0 is 0.15
STRONG = linear_distribution(0.35, 0.3, 0.05, 0.9, 0.5)
# shifted supports so the feature carries group information (blind mode)
BLIND_DIST = SyntheticDistribution(
    0.5,
    (
        GroupSpec(-0.25, 1.0, ((0.0, 0.35), (1.0, 0.65))),
        GroupSpec(0.25, 1.0, ((0.0, 0.05), (1.0, 0.95))),
    ),
)


def check(num, description, ok):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}  {description}")
    assert ok, f"criterion {num} failed: {description}"


def random_calibration_instance(rng, max_n=10_000):
    n = int(np.exp(rng.uniform(np.log(10), np.log(max_n))))
    S = rng.integers(0, 2, n)
    while S.sum() in (0, n):
        S = rng.integers(0, 2, n)
    c = floor_value(n)
    scores = np.maximum(rng.beta(rng.uniform(0.5, 3), rng.uniform(0.5, 3), n), c)
    stats = group_statistics(scores, S)
    return scores[S == 1], scores[S == 0], stats


def test_criterion_01_oracle_against_dense_scan():
    start = time.time()
    sol = solve_theta_star(ASYM)
    grid = np.linspace(-2.0, 2.0, 1_000_001)
    scan_theta = grid[int(np.argmin(np.abs(tpr_gap(grid, ASYM))))]
    elapsed = time.time() - start
    ok = (
        abs(scan_theta - sol.theta_star) <= 1e-5
        and abs(tpr_gap(sol.theta_star, ASYM)) <= 1e-6
        and elapsed < 5.0
    )
    check(1, f"theta* vs 1e6-point scan (diff {abs(scan_theta - sol.theta_star):.2e}, {elapsed:.2f}s)", ok)


def test_criterion_02_theta_bounds_everywhere():
    rng = np.random.default_rng(20)
    stars_ok = all(abs(solve_theta_star(random_distribution(rng)).theta_star) <= 2.0 for _ in range(100))
    hats_ok = True
    for _ in range(100):
        s1, s0, stats = random_calibration_instance(rng, max_n=2000)
        hats_ok &= abs(fit_theta(s1, s0, stats)) <= 2.0
    check(2, "|theta*| <= 2 on 100 random laws and |theta_hat| <= 2 on 100 instances", stars_ok and hats_ok)


def test_criterion_03_plugin_recovers_optimum():
    start = time.time()
    cell = consistency_run(
        ASYM, [0], [100_000], repeats=20, seed=30, estimator="exact", test_size=100_000
    )[0]
    elapsed = time.time() - start
    ok = (
        cell.theta_abs_err_mean <= 0.05
        and cell.deo_mean <= 0.02
        and cell.excess_risk_mean <= 0.01
        and elapsed < 60.0
    )
    check(
        3,
        f"exact scores, N=1e5: |theta err| {cell.theta_abs_err_mean:.4f}, "
        f"deo {cell.deo_mean:.4f}, excess {cell.excess_risk_mean:+.4f} ({elapsed:.0f}s)",
        ok,
    )


def _non_increasing_within_se(means, stds, repeats):
    for k in range(len(means) - 1):
        slack = np.hypot(stds[k], stds[k + 1]) / np.sqrt(repeats)
        if means[k + 1] > means[k] + slack:
            return False
    return True


def test_criterion_04_consistency_trend():
    start = time.time()
    reps = 20
    exact_cells = consistency_run(
        ASYM, [0], [100, 1_000, 10_000], repeats=reps, seed=40, estimator="exact", test_size=100_000
    )
    logistic_cells = consistency_run(
        ASYM, [100, 1_000, 10_000], [10_000], repeats=reps, seed=41,
        estimator=LogisticConfig(l2_lambda=1e-4), test_size=100_000,
    )
    elapsed = time.time() - start
    ok = elapsed < 300.0
    for cells in (exact_cells, logistic_cells):
        deo_m = [c.deo_mean for c in cells]
        deo_s = [c.deo_std for c in cells]
        ex_m = [c.excess_risk_mean for c in cells]
        ex_s = [c.excess_risk_std for c in cells]
        ok &= _non_increasing_within_se(deo_m, deo_s, reps)
        ok &= _non_increasing_within_se(ex_m, ex_s, reps)
    check(
        4,
        "deo/excess non-increasing within one SE over N grid (exact) and n grid (logistic) "
        f"({elapsed:.0f}s)",
        ok,
    )


def test_criterion_05_argmin_exactness():
    rng = np.random.default_rng(50)
    grid = np.linspace(-2.0, 2.0, 100_001)
    ok = True
    for _ in range(100):
        s1, s0, stats = random_calibration_instance(rng)
        theta = fit_theta(s1, s0, stats)
        at_theta = empirical_unfairness(theta, s1, s0, stats)
        ok &= at_theta <= _aware_objective(s1, s0, stats.joint).value(grid).min()
    check(5, "theta_hat never beaten by a 1e5-point grid on 100 instances (exact)", ok)


def test_criterion_06_piecewise_constancy():
    from fairthresh.calibration import breakpoints

    rng = np.random.default_rng(60)
    ok = True
    for _ in range(50):
        s1, s0, stats = random_calibration_instance(rng, max_n=2000)
        bps = breakpoints(s1, s0, stats)
        if bps.size < 2:
            continue
        lo, hi = bps[:-1], bps[1:]
        samples = []
        for _ in range(3):
            pts = lo + rng.uniform(0.05, 0.95, lo.size) * (hi - lo)
            inside = (pts > lo) & (pts < hi)
            pts[~inside] = 0.5 * (lo[~inside] + hi[~inside])
            samples.append(_aware_objective(s1, s0, stats.joint).value(pts)[0])
        valid = (0.5 * (lo + hi) > lo) & (0.5 * (lo + hi) < hi)
        for other in samples[1:]:
            ok &= bool(np.all(samples[0][valid] == other[valid]))
    check(6, "unfairness constant to machine precision inside every breakpoint gap", ok)


def test_criterion_07_trivial_fairness():
    rng = np.random.default_rng(70)
    ok = True
    for _ in range(20):
        n = int(rng.integers(20, 500))
        labels = rng.integers(0, 2, n)
        sens = rng.integers(0, 2, n)
        if not ((labels == 1) & (sens == 0)).any() or not ((labels == 1) & (sens == 1)).any():
            continue
        ok &= deo(np.zeros(n, dtype=int), labels, sens).deo == 0.0
        ok &= deo(np.ones(n, dtype=int), labels, sens).deo == 0.0
    for _ in range(50):
        m = int(rng.integers(2, 200))
        multiset = np.maximum(rng.random(m), 0.02)
        s1 = multiset[rng.permutation(m)]
        s0 = multiset[rng.permutation(m)]
        scores = np.concatenate([s1, s0])
        sens = np.concatenate([np.ones(m, dtype=int), np.zeros(m, dtype=int)])
        stats = group_statistics(scores, sens)
        ok &= fit_theta(s1, s0, stats) == 0.0
    check(7, "constant classifiers have deo 0 and identical multisets give theta_hat 0", ok)


def test_criterion_08_risk_identity():
    rng = np.random.default_rng(80)
    worst = 0.0
    for _ in range(5):
        dist = random_distribution(rng)
        for _ in range(20):
            regions = tuple(rng.uniform(0.0, 1.0, 2))
            a = risk_of_threshold_rule(dist, regions)
            b = risk_direct_quadrature(dist, regions)
            worst = max(worst, abs(a - b))
    check(8, f"risk identity vs direct quadrature, worst gap {worst:.2e}", worst <= 1e-8)


def test_criterion_09_unlabeled_size_sweep():
    start = time.time()
    ds = sample(STRONG, 10_000, 2024)
    config = BenchmarkConfig(
        estimator="logistic", logistic_grid=(1e-4,), n_repeats=30, seed=9, methods=("plugin",)
    )
    sweep = run_unlabeled_sweep(
        ds, config, labeled_fraction=0.1, unlabeled_fractions=(0.0, 0.1, 0.2, 0.4, 0.8)
    )
    elapsed = time.time() - start
    pts = [p for p in sweep.points if p.method == "plugin"]
    ok = elapsed < 600.0
    for k in range(len(pts) - 1):
        slack = float(np.hypot(pts[k].deo_std, pts[k + 1].deo_std))
        ok &= pts[k + 1].deo_mean <= pts[k].deo_mean + slack
    trend = " ".join(f"{p.deo_mean:.3f}" for p in pts)
    check(9, f"sweep deo non-increasing within one std [{trend}] ({elapsed:.0f}s)", ok)


def test_criterion_10_calibration_vs_baseline():
    ds = sample(STRONG, 10_000, 2024)
    config = BenchmarkConfig(
        estimator="logistic", logistic_grid=(1e-4,), n_repeats=30, seed=9, methods=("plugin", "bayes")
    )
    report = run_benchmark(ds, config)
    by = {m.method: m for m in report.methods}
    reduction = 1.0 - by["plugin"].deo_mean / by["bayes"].deo_mean
    acc_drop = by["bayes"].acc_mean - by["plugin"].acc_mean
    ok = by["plugin"].deo_mean < 0.5 * by["bayes"].deo_mean and acc_drop <= 0.05
    check(
        10,
        f"plugin deo {by['plugin'].deo_mean:.4f} vs baseline {by['bayes'].deo_mean:.4f} "
        f"({reduction:.0%} lower), acc drop {acc_drop:+.4f}",
        ok,
    )


def test_criterion_11_blind_mode():
    from dataclasses import replace

    blind_deos, base_deos = [], []
    for seed in range(20):
        unl = sample(BLIND_DIST, 10_000, [110, seed, 1])
        clf = calibrate_scores(
            exact_group_scores(BLIND_DIST, unl.features, 0),
            exact_group_scores(BLIND_DIST, unl.features, 1),
            marginal=exact_marginal_scores(BLIND_DIST, unl.features),
            mode="blind",
        )
        test = sample(BLIND_DIST, 20_000, [110, seed, 2])
        t0 = exact_group_scores(BLIND_DIST, test.features, 0)
        t1 = exact_group_scores(BLIND_DIST, test.features, 1)
        tm = exact_marginal_scores(BLIND_DIST, test.features)
        pred = clf.predict_from_scores(scores_s0=t0, scores_s1=t1, marginal=tm)
        base = replace(clf, theta_hat=0.0).predict_from_scores(scores_s0=t0, scores_s1=t1, marginal=tm)
        blind_deos.append(deo(pred, test.labels, test.sensitive).deo)
        base_deos.append(deo(base, test.labels, test.sensitive).deo)
    blind_mean, base_mean = float(np.mean(blind_deos)), float(np.mean(base_deos))
    ok = blind_mean <= 0.5 * base_mean
    check(11, f"blind deo {blind_mean:.4f} vs uncalibrated {base_mean:.4f} over 20 seeds", ok)
