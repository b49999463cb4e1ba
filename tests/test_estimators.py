import json
import tracemalloc
from dataclasses import replace
from unittest import mock

import estimator_reference as reference
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from fairthresh import estimators
from fairthresh.data import LabeledDataset
from fairthresh.errors import ConfigError, SchemaError
from fairthresh.estimators import (
    KnnConfig,
    LogisticConfig,
    ScoreModel,
    _knn_label_sums,
    _knn_order,
    _knn_path,
    _logistic_loss,
    _sigmoid,
    external_score_model,
    fit_knn,
    fit_logistic,
    floor_value,
    logistic_descent,
)
from fairthresh.oracle import GroupSpec, SyntheticDistribution, exact_scores, linear_distribution, sample


def floored(raw, N):
    """Raw scores floored as a fitted model with N calibration rows floors them."""
    model = ScoreModel(kind="logistic", params=(None, None), floor=floor_value(N))
    return model._finish(np.asarray(raw, dtype=np.float64), None, 0)


class TestFloor:
    def test_floor_inactive_above(self):
        assert floored(0.8, 10**4) == 0.8

    def test_floor_value_ten_thousand(self):
        # 10^4 ** (-1/4) = 0.1
        assert floored(0.0, 10**4) == pytest.approx(0.1, abs=1e-15)

    def test_clamp_at_small_sample(self):
        # 16 ** (-1/4) = 0.5 clamps to 0.49
        assert floored(0.0, 16) == 0.49

    def test_floor_shifts_score_by_at_most_c(self):
        rng = np.random.default_rng(0)
        raw = rng.random(1000)
        for N in (10, 100, 10**4, 10**8):
            c = floor_value(N)
            floored_raw = floored(raw, N)
            assert np.all(floored_raw >= c) and np.all(floored_raw <= 1.0)
            assert np.all(np.abs(floored_raw - raw) <= c)

    def test_invalid_size(self):
        with pytest.raises(ConfigError):
            floor_value(0)


class TestLogistic:
    def test_separable_toy_perfect_at_half(self):
        ds = LabeledDataset(
            np.array([[-2.0], [-1.5], [1.5], [2.0], [-2.2], [-1.7], [1.7], [2.2]]),
            [0, 0, 0, 0, 1, 1, 1, 1],
            [0, 0, 1, 1, 0, 0, 1, 1],
        )
        model = fit_logistic(ds, LogisticConfig(l2_lambda=0.0, max_iters=3000))
        pred = (model.score_rowwise(ds.features, ds.sensitive) >= 0.5).astype(int)
        assert np.array_equal(pred, ds.labels)

    def test_huge_lambda_pulls_scores_to_half(self):
        rng = np.random.default_rng(3)
        ds = LabeledDataset(rng.normal(size=(200, 2)), rng.integers(0, 2, 200), rng.integers(0, 2, 200))
        model = fit_logistic(ds, LogisticConfig(l2_lambda=1e6, max_iters=200))
        scores = model.score_rowwise(ds.features, ds.sensitive)
        assert np.all(np.abs(scores - 0.5) < 1e-3)

    def test_recovers_known_coefficient(self):
        # oracle: draw labels from a known logistic law, check recovery
        rng = np.random.default_rng(7)
        n, w_true, b_true = 10_000, 2.0, -0.5
        x = rng.normal(0.0, 1.5, n)
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-(w_true * x + b_true)))).astype(float)
        w, b, converged, _ = logistic_descent(
            x[:, None], y, LogisticConfig(l2_lambda=0.0, max_iters=3000, grad_tolerance=1e-7)
        )
        assert converged
        assert abs(w[0] - w_true) <= 0.1 * abs(w_true)
        assert abs(b - b_true) <= 0.1 * abs(b_true) + 0.05

    def test_loss_non_increasing(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(500, 3))
        y = (rng.random(500) < 0.4).astype(float)
        _, _, _, losses = logistic_descent(x, y, LogisticConfig(l2_lambda=0.01, max_iters=300))
        assert all(a >= b for a, b in zip(losses, losses[1:]))

    def test_nonconvergence_is_flagged_not_fatal(self):
        rng = np.random.default_rng(2)
        ds = LabeledDataset(rng.normal(size=(400, 2)), rng.integers(0, 2, 400), rng.integers(0, 2, 400))
        model = fit_logistic(ds, LogisticConfig(max_iters=2, grad_tolerance=1e-14))
        assert model.converged is False
        assert model.score_rowwise(ds.features, ds.sensitive).shape == (400,)


@hst.composite
def logistic_problems(draw):
    n = draw(hst.integers(2, 40))
    d = draw(hst.integers(1, 3))
    X = np.array(draw(hst.lists(hst.floats(-5.0, 5.0), min_size=n * d, max_size=n * d))).reshape(n, d)
    y = np.array(draw(hst.lists(hst.integers(0, 1), min_size=n, max_size=n)), dtype=np.float64)
    lam = 10.0 ** draw(hst.floats(-3.0, 1.0))
    return X, y, lam


@settings(max_examples=200, deadline=None)
@given(logistic_problems())
def test_newton_reaches_gradient_tolerance(problem):
    X, y, lam = problem
    cfg = LogisticConfig(l2_lambda=lam)
    w, b, converged, losses = logistic_descent(X, y, cfg)
    assert converged
    assert np.all(np.diff(losses) <= 0.0)
    # gradient of mean log-loss + (lam/2)(b^2 + |w|^2), written out independently
    residual = 1.0 / (1.0 + np.exp(-(X @ w + b))) - y
    grad = np.concatenate([[residual.mean() + lam * b], X.T @ residual / len(y) + lam * w])
    assert np.linalg.norm(grad) <= cfg.grad_tolerance


@hst.composite
def kernel_problems(draw):
    """A logistic problem for the kernel comparison: random or separable labels, any lambda, any iteration cap."""
    n, d = draw(hst.integers(1, 60)), draw(hst.sampled_from([1, 2, 5, 20]))
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, d)) * draw(hst.sampled_from([0.1, 1.0, 10.0]))
    separable = draw(hst.booleans())
    y = (X[:, 0] > 0).astype(np.float64) if separable else rng.integers(0, 2, n).astype(np.float64)
    lam = draw(hst.sampled_from([0.0, 1e-4, 1e-2, 1.0, 1e2, 1e4]))
    return X, y, LogisticConfig(l2_lambda=lam, max_iters=draw(hst.sampled_from([1, 3, 1000])))


@settings(max_examples=300, deadline=None)
@given(kernel_problems())
# lambda = 0 on separable data: the weights run off to the saturated sigmoid
@example((np.linspace(-3.0, 3.0, 300)[:, None], (np.linspace(-3.0, 3.0, 300) > 0).astype(np.float64),
          LogisticConfig(l2_lambda=0.0)))
# one row at x = 1: both columns of X1 are ones, so every solve fails and each step is the least-squares one
@example((np.array([[1.0]]), np.array([1.0]), LogisticConfig(l2_lambda=0.0)))
# two equal feature columns on separable data: the Hessian is singular and the weights still saturate
@example((np.repeat(np.linspace(-3.0, 3.0, 300)[:, None], 2, axis=1),
          (np.linspace(-3.0, 3.0, 300) > 0).astype(np.float64), LogisticConfig(l2_lambda=0.0)))
# the max_iters cap, before the gradient tolerance is met
@example((np.linspace(-1.0, 1.0, 50)[:, None], np.tile([0.0, 1.0], 25), LogisticConfig(max_iters=1)))
# one row, 20 columns: the Hessian is singular only at working precision, so solves return without raising; a
# step taken from such a solve sent |w| to 5e16, after which the fit ran 1,000 steps unconverged (seed 288) or
# exhausted its line search (seed 179)
@example((np.random.default_rng(288).normal(0.0, 10.0, (1, 20)), np.array([1.0]), LogisticConfig(l2_lambda=0.0)))
@example((np.random.default_rng(179).normal(0.0, 10.0, (1, 20)), np.array([1.0]), LogisticConfig(l2_lambda=0.0)))
def test_logistic_kernel_matches_reference(problem):
    """Every fit ends converged or at a max_iters cap below 1000.  Where no Newton solve fails, the lean
    kernel gives the reference kernel's weights, intercept, flag and loss list bit for bit.  Where one fails
    (a singular Hessian: the solve raises, or its delta is not a solution), the kernel takes the least-squares
    step where the reference fell back to -grad or took that delta: its losses still fall, and converged, it
    ends within the gradient tolerance of the reference's loss."""
    lstsq, failed = np.linalg.lstsq, []

    def spy(a, b):  # the kernel calls lstsq exactly when a solve failed
        failed.append(True)
        return lstsq(a, b)

    with mock.patch.object(np.linalg, "lstsq", spy):
        w, b, converged, losses = logistic_descent(*problem)
    w_ref, b_ref, converged_ref, losses_ref = reference.logistic_descent(*problem)
    cfg = problem[2]
    assert converged or len(losses) - 1 == cfg.max_iters < 1000
    if failed:
        assert np.all(np.diff(losses) <= 0.0)
        assert not converged or losses[-1] <= losses_ref[-1] + cfg.grad_tolerance
        return
    assert w.tobytes() == w_ref.tobytes() and np.float64(b).tobytes() == np.float64(b_ref).tobytes()
    assert converged == converged_ref
    assert np.array(losses).tobytes() == np.array(losses_ref).tobytes()


def test_failed_solves_step_no_worse_than_the_gradient_reference():
    """On one-row, five-column draws (y = 1, lambda 0) every Newton solve fails, and the least-squares step
    alone lowered the loss less than the reference's -grad fallback over the first steps; with the Armijo
    search run on both directions, a fit capped at one step never ends above the reference's loss, and
    every uncapped fit converges."""
    for seed in range(400):
        X, y = np.random.default_rng(seed).normal(0.0, 10.0, (1, 5)), np.array([1.0])
        capped = LogisticConfig(l2_lambda=0.0, max_iters=1)
        assert logistic_descent(X, y, capped)[3][-1] <= reference.logistic_descent(X, y, capped)[3][-1]
        assert logistic_descent(X, y, LogisticConfig(l2_lambda=0.0))[2]


@pytest.mark.parametrize("columns", [1, 2])
def test_separable_examples_reach_saturation_and_the_fallback(monkeypatch, columns):
    """The separable examples above reach what they are there for: a saturated sigmoid and, with two equal
    columns (an exactly singular Hessian), solves that fail and take the better of the least-squares and the
    -grad step, which converge as fast as one column does, to no higher a loss (where the -grad fallback
    alone ran to max_iters unconverged)."""
    solve, failed = np.linalg.solve, []

    def spy(a, b):
        try:
            return solve(a, b)
        except np.linalg.LinAlgError:
            failed.append(True)
            raise

    monkeypatch.setattr(np.linalg, "solve", spy)
    x = np.linspace(-3.0, 3.0, 300)
    y = (x > 0).astype(np.float64)
    w, b, converged, losses = logistic_descent(np.repeat(x[:, None], columns, axis=1), y, LogisticConfig(l2_lambda=0.0))
    assert np.abs(x * w.sum() + b).max() > 37.0  # 1 - sigmoid(z) rounds to 0 beyond about 36.7
    assert bool(failed) == (columns == 2)
    one_column = logistic_descent(x[:, None], y, LogisticConfig(l2_lambda=0.0))
    assert converged and len(losses) <= len(one_column[3])
    assert losses[-1] <= one_column[3][-1] * (1.0 + 1e-9)


def test_sigmoid_matches_reference_at_extreme_logits():
    z = np.array([0.0, -0.0, 710.0, -710.0, 745.0, -745.0, np.inf, -np.inf, 36.7, -36.7, 5e-324, -5e-324])
    assert _sigmoid(z).tobytes() == reference._sigmoid(z).tobytes()
    z = np.random.default_rng(3).normal(scale=20.0, size=9_600)
    assert _sigmoid(z).tobytes() == reference._sigmoid(z).tobytes()
    assert np.isnan(_sigmoid(np.array([np.nan]))).all()  # NaN stays NaN (its sign bit is not kept)


def test_logistic_loss_matches_reference():
    rng = np.random.default_rng(4)
    X1, y = np.column_stack([np.ones(300), rng.normal(size=(300, 3))]), rng.integers(0, 2, 300).astype(np.float64)
    for w in (np.zeros(4), rng.normal(size=4), 400.0 * rng.normal(size=4)):
        loss, z = _logistic_loss(w, X1, y, 0.3)
        assert np.float64(loss).tobytes() == np.float64(reference._logistic_loss(w, X1, y, 0.3)).tobytes()
        assert z.tobytes() == (X1 @ w).tobytes()


@pytest.mark.parametrize("lam", [-1.0, float("nan"), float("inf")])
def test_lambda_must_be_finite_and_non_negative(lam):
    with pytest.raises(ConfigError, match="l2_lambda"):
        LogisticConfig(l2_lambda=lam)


@pytest.mark.parametrize("mode", ["aware", "blind"])
def test_default_lambda_converges_on_strong_law(mode):
    train = sample(linear_distribution(0.35, 0.3, 0.05, 0.9, 0.5), 10_000, 1)
    assert fit_logistic(train, LogisticConfig(l2_lambda=1e-4), mode=mode).converged


class TestKnn:
    @pytest.fixture
    def toy(self):
        return LabeledDataset(
            np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]]),
            [1, 1, 1, 0, 0, 0],
            [1, 0, 0, 1, 1, 0],
        )

    def test_exact_match_k1(self, toy):
        model = fit_knn(toy, KnnConfig(k=1))
        assert model.score_group(np.array([[0.0]]), 1)[0] == 1.0

    def test_full_neighborhood_gives_group_rate(self, toy):
        model = fit_knn(toy, KnnConfig(k=3))
        scores = model.score_group(np.array([[0.5], [100.0]]), 0)
        np.testing.assert_allclose(scores, [2.0 / 3.0, 2.0 / 3.0])

    def test_k_exceeding_group_size(self, toy):
        with pytest.raises(ConfigError):
            fit_knn(toy, KnnConfig(k=4))

    def test_distance_ties_prefer_smaller_row_index(self):
        ds = LabeledDataset(
            np.array([[1.0], [-1.0], [0.0], [0.0]]), [1, 1, 0, 0], [1, 0, 1, 0]
        )
        model = fit_knn(ds, KnnConfig(k=1))
        # query at 0 is equidistant from both group-1 rows; row 0 wins
        assert model.score_group(np.array([[0.0]]), 1)[0] == 1.0

    def test_error_against_analytic_regression_curve(self):
        # steep, well-separated mixture keeps the conditional variance low
        spec = ((0.0, 0.02), (0.45, 0.05), (0.55, 0.95), (1.0, 0.98))
        dist = SyntheticDistribution(0.5, (GroupSpec(0.0, 1.0, spec), GroupSpec(0.0, 1.0, spec)))
        train = sample(dist, 10_000, 21)
        model = fit_knn(train, KnnConfig(k=25))
        test = sample(dist, 2_000, 22)
        est = model.score_rowwise(test.features, test.sensitive)
        truth = exact_scores(dist, test.features, test.sensitive)
        assert np.abs(est - truth).mean() <= 0.05


def _knn_order_reference(queries, feats, depth):
    """The depth nearest training rows of each query by a full stable argsort of its distances."""
    out = np.empty((queries.shape[0], depth), dtype=np.intp)
    block = max(1, int(2**20 // max(1, feats.size)))
    for start in range(0, queries.shape[0], block):
        q = queries[start : start + block]
        d2 = ((q[:, None, :] - feats[None, :, :]) ** 2).sum(axis=2)
        # stable argsort: distance ties resolve to the smaller training row index
        out[start : start + block] = np.argsort(d2, axis=1, kind="stable")[:, :depth]
    return out


def _knn_scores_reference(queries, feats, labels, ks):
    """The k-NN scores at each k of ks, one column each, from the stable-argsort order."""
    near = labels[_knn_order_reference(queries, feats, int(np.max(ks)))]
    return np.stack([near[:, :k].mean(axis=1) for k in np.atleast_1d(ks)], axis=1)


def _assert_table_matches_reference(queries, feats, labels, ks):
    ks = np.asarray(ks)
    sums = _knn_label_sums(queries, feats, labels, ks)
    assert sums.shape == (queries.shape[0], ks.size)
    assert np.array_equal(sums / ks, _knn_scores_reference(queries, feats, labels, ks))


@settings(max_examples=300, deadline=None)
@example(seed=0, T=6, Q=5, blocks=0, d=1, decimals=0, copies=3, k_share=1.0, ulps=0)  # k = training size, heavy ties
@example(seed=1, T=1, Q=2, blocks=0, d=2, decimals=None, copies=1, k_share=0.0, ulps=0)  # one training row
# near ties (distances a few ulps apart) at T = 32 = 2**5 and T = 33, whose row indices need 5 and 6 bits, and at k = T
@example(seed=2, T=32, Q=4, blocks=0, d=1, decimals=None, copies=0, k_share=0.3, ulps=6)
@example(seed=3, T=33, Q=4, blocks=0, d=2, decimals=None, copies=0, k_share=0.5, ulps=9)
@example(seed=4, T=16, Q=3, blocks=0, d=3, decimals=None, copies=0, k_share=1.0, ulps=4)
# both ways of summing the distances (one by one below 8 features, numpy's own sum from 8 on, a few queries at a
# time), over several blocks of queries and at their edges
@example(seed=5, T=63, Q=9, blocks=2, d=7, decimals=1, copies=5, k_share=1.0, ulps=0)
@example(seed=6, T=65, Q=1, blocks=1, d=9, decimals=0, copies=2, k_share=0.5, ulps=0)
@example(seed=7, T=127, Q=30, blocks=2, d=128, decimals=None, copies=0, k_share=1.0, ulps=3)
@example(seed=8, T=129, Q=7, blocks=1, d=129, decimals=1, copies=4, k_share=0.2, ulps=0)
@given(
    seed=hst.integers(0, 2**32 - 1),
    # any small training size, or a power of two +- 1 up to 129 (row indices of b and b + 1 bits)
    T=hst.one_of(hst.integers(1, 40), hst.builds(lambda e, s: max(1, 2**e + s), hst.integers(0, 7),
                                                   hst.sampled_from([-1, 0, 1]))),
    Q=hst.integers(1, 30),
    blocks=hst.sampled_from([0, 0, 1, 2]),  # full blocks of queries before the last Q
    d=hst.sampled_from([1, 2, 3, 7, 8, 9, 16, 128, 129]),
    decimals=hst.sampled_from([0, 1, None]),
    copies=hst.integers(0, 10),
    k_share=hst.floats(0.0, 1.0),
    ulps=hst.sampled_from([0, 0, 3, 40]),
)
def test_knn_label_sums_equal_per_k_stable_argsort(seed, T, Q, blocks, d, decimals, copies, k_share, ulps):
    rng = np.random.default_rng(seed)
    Q += blocks * ((2**13 - 1) // T)  # a block holds (2**13 - 1) // T queries
    feats, queries = rng.normal(size=(T, d)), rng.normal(size=(Q, d))
    if decimals is not None:  # rounded features put distance ties on the k_max boundary
        feats, queries = np.round(feats, decimals), np.round(queries, decimals)
    n_copies = min(copies, Q)
    queries[:n_copies] = feats[rng.integers(0, T, n_copies)]  # queries equal to training rows
    if ulps:  # training rows on both sides of the last query at distances about 1, up to `ulps` ulps apart
        offsets = rng.choice([-1.0, 1.0], T) * (1.0 + rng.integers(0, ulps + 1, T) * np.spacing(1.0))
        feats = queries[-1] + offsets[:, None] * (np.arange(d) == 0)
    k_max = max(1, int(np.ceil(k_share * T)))
    assert np.array_equal(_knn_order(queries, feats, k_max), _knn_order_reference(queries, feats, k_max))
    ks = np.unique(np.append(rng.integers(1, k_max + 1, 3), k_max))  # a path model's k values, k_max the last
    _assert_table_matches_reference(queries, feats, rng.integers(0, 2, T), ks)


def test_knn_label_sums_across_query_blocks():
    # (2**13 - 1) // T = 3 query rows per block at T = 2**11, far fewer than Q; from T = 2**13 on, one row passes
    # that budget and a block holds 2**16 // T = 7 rows; rounding leaves some queries tied
    rng = np.random.default_rng(11)
    for T, Q in ((2**11, 2100), (2**13 + 1, 40)):
        feats = np.round(rng.normal(size=(T, 1)), 2)
        queries = np.concatenate([feats[rng.integers(0, T, Q // 2)], rng.normal(size=(Q - Q // 2, 1))])
        _assert_table_matches_reference(queries, feats, rng.integers(0, 2, T), [1, 2, 3])


def _with_zero_column(x):
    """x with an all-zero second feature column: its squared distances are x's bits, through _knn_blocks."""
    return np.column_stack([x, np.zeros(x.shape[0])])


@settings(max_examples=300, deadline=None)
@example(seed=0, T=1, Q=3, decimals=None, dups=0.0, copies=1, outside=2, ulps=0, k_share=1.0, scalar=True)
@example(seed=1, T=9, Q=12, decimals=0, dups=0.5, copies=6, outside=3, ulps=0, k_share=1.0, scalar=False)
@example(seed=2, T=33, Q=5, decimals=None, dups=0.0, copies=0, outside=0, ulps=3, k_share=0.0, scalar=False)
@example(seed=3, T=40, Q=20, decimals=1, dups=0.3, copies=10, outside=4, ulps=40, k_share=0.5, scalar=True)
@given(
    seed=hst.integers(0, 2**32 - 1),
    T=hst.one_of(hst.integers(1, 40), hst.builds(lambda e, s: max(1, 2**e + s), hst.integers(0, 7),
                                                   hst.sampled_from([-1, 0, 1]))),
    Q=hst.integers(1, 30),
    decimals=hst.sampled_from([0, 1, None]),  # rounded values tie
    dups=hst.sampled_from([0.0, 0.0, 0.3, 0.8]),  # the share of training values that copy another row's value
    copies=hst.integers(0, 10),  # queries equal to training values
    outside=hst.integers(0, 4),  # queries beyond both ends of the training values
    ulps=hst.sampled_from([0, 0, 3, 40]),
    k_share=hst.floats(0.0, 1.0),
    scalar=hst.booleans(),  # one k (a model) or an array of them (a path model)
)
def test_knn_one_feature_windows_equal_blocked_kernel(seed, T, Q, decimals, dups, copies, outside, ulps, k_share,
                                                      scalar):
    """On one feature column, the label sums from sorted windows (the tied queries left to _knn_blocks) equal
    those of the same rows with an all-zero second column, which go through _knn_blocks alone."""
    rng = np.random.default_rng(seed)
    feats, queries = rng.normal(size=(T, 1)), rng.normal(size=(Q, 1))
    if decimals is not None:
        feats, queries = np.round(feats, decimals), np.round(queries, decimals)
    copied = rng.random(T) < dups
    feats[copied] = feats[rng.integers(0, T, int(copied.sum()))]
    n_copies = min(copies, Q)
    queries[:n_copies] = feats[rng.integers(0, T, n_copies)]
    queries[Q - min(outside, Q) :, 0] = rng.choice([-1.0, 1.0], min(outside, Q)) * (np.abs(feats).max() + 1.0)
    if ulps:  # training values on both sides of the first query at distances about 1, up to `ulps` ulps apart
        offsets = rng.choice([-1.0, 1.0], T) * (1.0 + rng.integers(0, ulps + 1, T) * np.spacing(1.0))
        feats = queries[0] + offsets[:, None]
    labels = rng.integers(0, 2, T)
    k_max = max(1, int(np.ceil(k_share * T)))
    ks = k_max if scalar else np.unique(np.append(rng.integers(1, k_max + 1, 3), k_max))
    sums = _knn_label_sums(queries, feats, labels, ks)
    twin = _knn_label_sums(_with_zero_column(queries), _with_zero_column(feats), labels, ks)
    assert sums.shape == twin.shape == queries.shape[:1] + np.shape(ks) and np.array_equal(sums, twin)


def test_knn_one_feature_hands_exactly_the_tied_queries_to_the_blocks():
    # training values 3, 2, 1, 0 in rows 0-3: queries 1.5 and 2.5 lie halfway between two values, so their
    # nearest (k = 1) is a distance tie, which goes to the smaller row index (rows 1 and 0); 0.2 and 10 tie at
    # neither k
    feats, labels = np.array([[3.0], [2.0], [1.0], [0.0]]), np.array([1, 0, 1, 0])
    queries, ks = np.array([[1.5], [0.2], [2.5], [10.0]]), np.array([1, 2])
    seen, blocks = [], estimators._knn_blocks

    def spy(q, *args):
        seen.append(q.copy())
        return blocks(q, *args)

    with mock.patch.object(estimators, "_knn_blocks", spy):
        sums = _knn_label_sums(queries, feats, labels, ks)
    assert len(seen) == 1 and np.array_equal(seen[0], queries[[0, 2]])
    assert sums.tolist() == [[0, 1], [0, 1], [1, 1], [1, 1]]
    assert np.array_equal(sums / ks, _knn_scores_reference(queries, feats, labels, ks))


def test_knn_label_sums_memory_bounded_in_feature_count():
    # the distances are summed feature by feature into (block, T) buffers: the (block, T, 8) difference
    # temporary of a block sized by T alone held 256 MiB
    rng = np.random.default_rng(12)
    T, Q, d = 1000, 4200, 8
    feats, queries, labels = rng.normal(size=(T, d)), rng.normal(size=(Q, d)), rng.integers(0, 2, T)
    tracemalloc.start()
    try:
        sums = _knn_label_sums(queries, feats, labels, np.array([1, 5]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    for start in range(0, Q, 600):
        ref = _knn_scores_reference(queries[start : start + 600], feats, labels, np.array([1, 5]))
        assert np.array_equal(sums[start : start + 600] / np.array([1, 5]), ref)


def test_knn_order_memory_stays_near_its_block_budget():
    # blocks of (2**13 - 1) // T queries, with one distance and one key buffer of < 64 KiB each: blocks of
    # 2**22 (query, train row) entries held several 32 MiB temporaries (85 MiB);
    # with no feature column every distance would be 0, so the order is refused before any block is built
    rng = np.random.default_rng(13)
    T, Q, depth = 1200, 6000, 60
    labels = rng.integers(0, 2, T)
    for d in (1, 0):
        feats, queries = rng.normal(size=(T, d)), rng.normal(size=(Q, d))
        if d == 0:
            with pytest.raises(ConfigError, match="feature column"):
                _knn_order(queries, feats, depth)
            continue
        tracemalloc.start()
        try:
            order = _knn_order(queries, feats, depth)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, d
        ks = np.array([1, 7, depth])
        ref = _knn_scores_reference(queries, feats, labels, ks)
        assert np.array_equal(np.stack([labels[order[:, :k]].mean(axis=1) for k in ks], axis=1), ref), d


def test_knn_path_scoring_builds_no_table_to_the_largest_k():
    # label sums are reduced to the path's k columns block by block: the order, label and prefix-sum
    # tables to the largest k would each hold Q * 51 int64 entries (7.8 MiB)
    rng = np.random.default_rng(14)
    T, Q, ks = 1000, 20_000, (5, 15, 31, 51)
    train = LabeledDataset(rng.normal(size=(2 * T, 1)), np.repeat([0, 1], T), rng.integers(0, 2, 2 * T))
    path = replace(_knn_path([fit_knn(train, KnnConfig(k=k)) for k in ks]), floor=0.0)
    queries = rng.normal(size=(Q, 1))
    tracemalloc.start()
    try:
        scores = path.score_group(queries, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < Q * 51 * 8
    feats, labels, _ = path.params[0]
    assert np.array_equal(scores, _knn_scores_reference(queries, feats, labels, np.array(ks)))


class TestScoreModel:
    def test_scoring_deterministic(self):
        rng = np.random.default_rng(4)
        ds = LabeledDataset(rng.normal(size=(100, 2)), rng.integers(0, 2, 100), rng.integers(0, 2, 100))
        model = replace(fit_logistic(ds, LogisticConfig(l2_lambda=0.1)), floor=0.05)
        a = model.score_rowwise(ds.features, ds.sensitive)
        b = model.score_rowwise(ds.features, ds.sensitive)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("jitter", [0.0, 1e-3])
    @pytest.mark.parametrize("mode", ["aware", "blind"])
    @pytest.mark.parametrize("kind", ["logistic", "knn", "external"])
    def test_json_round_trip(self, kind, mode, jitter):
        """A model file read back writes the same JSON and scores every slot with the same bits."""
        rng = np.random.default_rng(5)
        ds = LabeledDataset(rng.normal(size=(60, 2)), rng.integers(0, 2, 60), rng.integers(0, 2, 60))
        if kind == "logistic":
            model = fit_logistic(ds, LogisticConfig(l2_lambda=0.5), mode=mode)
        elif kind == "knn":
            model = fit_knn(ds, KnnConfig(k=3), mode=mode)
        else:
            model = external_score_model(mode=mode)
        model = replace(model, floor=0.07, jitter_amplitude=jitter)
        text = json.dumps(model.to_json())
        back = ScoreModel.from_json(json.loads(text))
        assert json.dumps(back.to_json()) == text
        q, S = rng.normal(size=(10, 2)), rng.integers(0, 2, 10)
        scorers = [lambda m: m.score_group(q, 0), lambda m: m.score_group(q, 1), lambda m: m.score_rowwise(q, S),
                   lambda m: m.score_marginal(q)]
        for i, score in enumerate(scorers):
            if kind == "external" or (i == 3 and mode == "aware"):
                for m in (model, back):
                    with pytest.raises(SchemaError):
                        score(m)
            else:
                assert score(back).tobytes() == score(model).tobytes()

    def test_rowwise_rejects_group_other_than_0_1(self):
        rng = np.random.default_rng(9)
        ds = LabeledDataset(rng.normal(size=(40, 1)), rng.integers(0, 2, 40), rng.integers(0, 2, 40))
        model = fit_logistic(ds, LogisticConfig(l2_lambda=0.1))
        with pytest.raises(SchemaError):
            model.score_rowwise(ds.features[:3], [0, 2, 1])
        with pytest.raises(SchemaError, match="feature columns"):
            model.score_group(np.zeros((3, 2)), 0)

    def test_jitter_deterministic_and_bounded(self):
        rng = np.random.default_rng(8)
        ds = LabeledDataset(rng.normal(size=(50, 2)), rng.integers(0, 2, 50), rng.integers(0, 2, 50))
        base = replace(fit_logistic(ds, LogisticConfig(l2_lambda=0.1)), floor=0.05)
        jittered = replace(base, jitter_amplitude=1e-7)
        a = jittered.score_rowwise(ds.features, ds.sensitive)
        b = jittered.score_rowwise(ds.features, ds.sensitive)
        np.testing.assert_array_equal(a, b)
        plain = base.score_rowwise(ds.features, ds.sensitive)
        assert np.all(np.abs(a - plain) <= 1e-7 + 1e-15)
        assert np.all(a >= 0.05) and np.all(a <= 1.0)
