"""Group-dependent threshold calibration for equal-opportunity fairness.

The calibrated classifier keeps the fitted scores eta_hat and replaces the
plain 1/2 threshold by a group-dependent one driven by a single scalar theta:

    group 1 predicts 1  iff  1 <= eta_hat(x, 1) * (2 - theta / joint_1)
    group 0 predicts 1  iff  1 <= eta_hat(x, 0) * (2 + theta / joint_0)

with joint_s the estimated P(Y=1, S=s) on the calibration sample.  theta_hat
minimizes the score-weighted unfairness surrogate over [-2, 2].  Because each
row's indicator flips at exactly one theta (its breakpoint), the objective is
piecewise constant and the argmin is found exactly by enumerating breakpoints
and midpoints.

The indicators are evaluated in breakpoint form (theta <= joint_1*(2 - 1/eta)
for group 1, theta >= joint_0*(1/eta - 2) for group 0), which is the same
inequality rearranged for eta > 0 and keeps boundary rows on the "predict 1"
side exactly as the product form does.

The sensitive-blind variant decides 1 <= 2*eta_hat(x) + theta*d(x) with the
direction d(x) = eta_hat(x,0)/E0 - eta_hat(x,1)/E1, where E_s are pooled means
over the unlabeled sample; theta is unbounded there.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import LabeledDataset, UnlabeledDataset
from .errors import ConfigError, GroupCoverageError, SchemaError
from .estimators import (
    KnnConfig,
    LogisticConfig,
    ScoreModel,
    external_score_model,
    fit_knn,
    fit_logistic,
    floor_value,
)

THETA_BOUND = 2.0


@dataclass(frozen=True)
class GroupStatistics:
    """Empirical P(S=s), group mean scores and joint P(Y=1, S=s), indexed by s."""

    p: tuple[float, float]
    mean_score: tuple[float, float]
    joint: tuple[float, float]

    def to_json(self) -> dict:
        return {"p": list(self.p), "mean_score": list(self.mean_score), "joint": list(self.joint)}

    @staticmethod
    def from_json(obj: dict) -> "GroupStatistics":
        vectors = [tuple(float(v) for v in obj[key]) for key in ("p", "mean_score", "joint")]
        if any(len(v) != 2 for v in vectors):
            raise SchemaError("stats p, mean_score and joint need one value per group")
        return GroupStatistics(*vectors)


def group_statistics(scores: np.ndarray, sensitive: np.ndarray) -> GroupStatistics:
    """Group statistics of floored row scores eta_hat(x_i, s_i) over a sample."""
    scores = np.asarray(scores, dtype=np.float64)
    sensitive = np.asarray(sensitive)
    if scores.shape != sensitive.shape:
        raise SchemaError(f"scores ({scores.shape}) and sensitive ({sensitive.shape}) misaligned")
    p, mean, joint = [], [], []
    for s in (0, 1):
        mask = sensitive == s
        if not mask.any():
            raise GroupCoverageError(f"group {s} absent from the calibration sample")
        ps = float(mask.mean())
        ms = float(scores[mask].mean())
        p.append(ps)
        mean.append(ms)
        joint.append(ms * ps)
    return GroupStatistics(tuple(p), tuple(mean), tuple(joint))


def _group1_breakpoints(scores1: np.ndarray, joint_1: float) -> np.ndarray:
    # active (predict 1) for theta <= breakpoint
    return joint_1 * (2.0 - 1.0 / scores1)


def _group0_breakpoints(scores0: np.ndarray, joint_0: float) -> np.ndarray:
    # active (predict 1) for theta >= breakpoint
    return joint_0 * (1.0 / scores0 - 2.0)


class _AwareObjective:
    """Piecewise-constant empirical unfairness, evaluated by sorted prefix sums.

    Both groups accumulate their score sums in descending-score order, so two
    groups carrying identical score multisets produce bitwise-identical group
    terms and an exactly zero objective at theta = 0.
    """

    def __init__(self, scores1, scores0, stats: GroupStatistics):
        scores1 = np.asarray(scores1, dtype=np.float64)
        scores0 = np.asarray(scores0, dtype=np.float64)
        if scores1.size == 0 or scores0.size == 0:
            raise GroupCoverageError("both groups need at least one calibration row")
        t1 = _group1_breakpoints(scores1, stats.joint[1])
        t0 = _group0_breakpoints(scores0, stats.joint[0])
        order1 = np.argsort(t1, kind="stable")
        order0 = np.argsort(t0, kind="stable")
        self.t1 = t1[order1]
        self.t0 = t0[order0]
        # descending-score accumulation for both groups
        self.cum1 = np.cumsum(scores1[order1][::-1])
        self.cum0 = np.cumsum(scores0[order0])
        self.den1 = self.cum1[-1]
        self.den0 = self.cum0[-1]

    def tpr_pair(self, thetas):
        thetas = np.asarray(thetas, dtype=np.float64)
        m1 = self.t1.size - np.searchsorted(self.t1, thetas, side="left")
        m0 = np.searchsorted(self.t0, thetas, side="right")
        num1 = np.where(m1 > 0, self.cum1[np.maximum(m1 - 1, 0)], 0.0)
        num0 = np.where(m0 > 0, self.cum0[np.maximum(m0 - 1, 0)], 0.0)
        return num1 / self.den1, num0 / self.den0

    def delta(self, thetas):
        t1, t0 = self.tpr_pair(thetas)
        return np.abs(t1 - t0)


def empirical_unfairness(theta: float, scores1, scores0, stats: GroupStatistics) -> float:
    """Score-weighted unfairness surrogate of the theta-thresholded classifier.

    Any real theta is accepted; values outside [-2, 2] simply evaluate the
    same formula.
    """
    obj = _AwareObjective(scores1, scores0, stats)
    return float(obj.delta(np.asarray([theta]))[0])


def unfairness_curve(thetas, scores1, scores0, stats: GroupStatistics) -> np.ndarray:
    """empirical_unfairness evaluated on a whole array of theta values."""
    obj = _AwareObjective(scores1, scores0, stats)
    return obj.delta(np.asarray(thetas, dtype=np.float64))


@dataclass(frozen=True)
class BreakpointSet:
    """Indicator switch points of the threshold family, restricted to [-2, 2].

    entries holds (theta, group, row_index) sorted by theta; thetas is the
    deduplicated sorted array used for candidate enumeration.
    """

    entries: tuple
    thetas: np.ndarray

    def __len__(self):
        return len(self.entries)


def breakpoints(scores1, scores0, stats: GroupStatistics) -> BreakpointSet:
    """Per-row switch points theta_i within [-2, 2], sorted ascending."""
    scores1 = np.asarray(scores1, dtype=np.float64)
    scores0 = np.asarray(scores0, dtype=np.float64)
    t1 = _group1_breakpoints(scores1, stats.joint[1])
    t0 = _group0_breakpoints(scores0, stats.joint[0])
    entries = [
        (float(t), 1, int(i)) for i, t in enumerate(t1) if -THETA_BOUND <= t <= THETA_BOUND
    ] + [(float(t), 0, int(j)) for j, t in enumerate(t0) if -THETA_BOUND <= t <= THETA_BOUND]
    entries.sort()
    thetas = np.unique(np.asarray([e[0] for e in entries], dtype=np.float64))
    return BreakpointSet(tuple(entries), thetas)


def _pick_candidate(cands: np.ndarray, values: np.ndarray) -> float:
    best = values.min()
    tied = cands[values == best]
    # least intervention first: smallest |theta|, then smaller theta
    return float(tied[np.lexsort((tied, np.abs(tied)))[0]])


def fit_theta(scores1, scores0, stats: GroupStatistics) -> float:
    """Exact minimizer of the empirical unfairness over theta in [-2, 2].

    Evaluates the piecewise-constant objective at every breakpoint, at the
    midpoints of consecutive breakpoints, at 0 and at the interval ends, and
    returns the minimizer; ties break toward the smallest |theta|, then the
    smaller theta.
    """
    obj = _AwareObjective(scores1, scores0, stats)
    bps = breakpoints(scores1, scores0, stats).thetas
    cands = [np.asarray([-THETA_BOUND, 0.0, THETA_BOUND]), bps]
    if bps.size > 1:
        cands.append(0.5 * (bps[:-1] + bps[1:]))
    cands = np.unique(np.concatenate(cands))
    return _pick_candidate(cands, obj.delta(cands))


class _BlindObjective:
    """Piecewise-constant blind unfairness over pooled unlabeled scores."""

    def __init__(self, marginal, scores_s0, scores_s1):
        m = np.asarray(marginal, dtype=np.float64)
        s0 = np.asarray(scores_s0, dtype=np.float64)
        s1 = np.asarray(scores_s1, dtype=np.float64)
        if not (m.shape == s0.shape == s1.shape):
            raise SchemaError("marginal and per-group score arrays must align")
        e0, e1 = float(s0.mean()), float(s1.mean())
        self.means = (e0, e1)
        d = s0 / e0 - s1 / e1
        w = s1 / s1.sum() - s0 / s0.sum()
        with np.errstate(divide="ignore", over="ignore"):
            bp = (1.0 - 2.0 * m) / d
        finite = np.isfinite(bp)
        pos = (d > 0) & finite
        neg = (d < 0) & finite
        op = np.argsort(bp[pos], kind="stable")
        on = np.argsort(bp[neg], kind="stable")
        self.bp_pos = bp[pos][op]
        self.cum_pos = np.cumsum(w[pos][op])
        self.bp_neg = bp[neg][on]
        self.suf_neg = np.cumsum(w[neg][on][::-1])[::-1]

    @property
    def breakpoints(self) -> np.ndarray:
        return np.unique(np.concatenate([self.bp_pos, self.bp_neg]))

    def value(self, thetas):
        thetas = np.asarray(thetas, dtype=np.float64)
        total = np.zeros(thetas.shape, dtype=np.float64)
        if self.bp_pos.size:
            mp = np.searchsorted(self.bp_pos, thetas, side="right")
            total += np.where(mp > 0, self.cum_pos[np.maximum(mp - 1, 0)], 0.0)
        if self.bp_neg.size:
            idx = np.searchsorted(self.bp_neg, thetas, side="left")
            total += np.where(
                idx < self.bp_neg.size, self.suf_neg[np.minimum(idx, self.bp_neg.size - 1)], 0.0
            )
        return np.abs(total)


def blind_unfairness(theta: float, marginal, scores_s0, scores_s1) -> float:
    """Blind-mode unfairness surrogate at a given theta (pooled expectations)."""
    obj = _BlindObjective(marginal, scores_s0, scores_s1)
    return float(obj.value(np.asarray([theta]))[0])


def fit_theta_blind(marginal, scores_s0, scores_s1) -> float:
    """Exact minimizer of the blind unfairness surrogate; theta is unbounded.

    Rows whose direction is exactly zero never switch and are decided by
    1 <= 2*eta_hat(x) alone.  Candidates are every finite breakpoint, the
    midpoints between consecutive ones, probes past both extremes, and 0.
    """
    obj = _BlindObjective(marginal, scores_s0, scores_s1)
    bps = obj.breakpoints
    cands = [np.asarray([0.0])]
    if bps.size:
        cands.append(bps)
        cands.append(np.asarray([bps[0] - 1.0, bps[-1] + 1.0]))
        if bps.size > 1:
            cands.append(0.5 * (bps[:-1] + bps[1:]))
    cands = np.unique(np.concatenate(cands))
    return _pick_candidate(cands, obj.value(cands))


def _aware_decisions(scores, sensitive, stats: GroupStatistics, theta: float) -> np.ndarray:
    scores = np.asarray(scores, dtype=np.float64)
    sensitive = np.asarray(sensitive)
    out = np.zeros(scores.shape[0], dtype=np.int64)
    g1 = sensitive == 1
    g0 = ~g1
    out[g1] = theta <= _group1_breakpoints(scores[g1], stats.joint[1])
    out[g0] = theta >= _group0_breakpoints(scores[g0], stats.joint[0])
    return out


def _blind_decisions(marginal, scores_s0, scores_s1, means, theta: float) -> np.ndarray:
    m = np.asarray(marginal, dtype=np.float64)
    s0 = np.asarray(scores_s0, dtype=np.float64)
    s1 = np.asarray(scores_s1, dtype=np.float64)
    d = s0 / means[0] - s1 / means[1]
    out = np.empty(m.shape[0], dtype=np.int64)
    zero = d == 0.0
    out[zero] = 1.0 <= 2.0 * m[zero]
    with np.errstate(divide="ignore", over="ignore"):
        bp = (1.0 - 2.0 * m) / d
    pos = (d > 0) & ~zero
    neg = (d < 0) & ~zero
    out[pos] = theta >= bp[pos]
    out[neg] = theta <= bp[neg]
    return out


@dataclass(frozen=True)
class FairClassifier:
    """Score model plus calibrated threshold shift.

    mode "aware" predicts from (x, s) and guarantees |theta_hat| <= 2; mode
    "blind" predicts from x alone (stats is None there, blind_means caches the
    pooled means used in the direction term).
    """

    model: ScoreModel | None
    theta_hat: float
    stats: GroupStatistics | None
    mode: str
    blind_means: tuple[float, float] | None = None

    def predict(self, X, S=None) -> np.ndarray:
        """Binary predictions for feature rows (S required in aware mode)."""
        if self.model is None or self.model.kind == "external":
            raise SchemaError("external-score classifier: use predict_from_scores")
        if self.mode == "aware":
            if S is None:
                raise SchemaError("group-aware prediction needs the sensitive attribute")
            scores = self.model.score_rowwise(X, S)
            return _aware_decisions(scores, S, self.stats, self.theta_hat)
        return _blind_decisions(
            self.model.score_marginal(X),
            self.model.score_group(X, 0),
            self.model.score_group(X, 1),
            self.blind_means,
            self.theta_hat,
        )

    def predict_from_scores(self, scores_s0=None, scores_s1=None, sensitive=None, marginal=None):
        """Predictions from precomputed raw scores (floored with the model floor)."""
        c = self.model.floor if self.model is not None else 0.0
        if self.mode == "aware":
            if sensitive is None or scores_s0 is None or scores_s1 is None:
                raise SchemaError("aware mode needs scores_s0, scores_s1 and sensitive")
            sensitive = np.asarray(sensitive)
            rowwise = np.where(
                sensitive == 1,
                np.maximum(np.asarray(scores_s1, dtype=np.float64), c),
                np.maximum(np.asarray(scores_s0, dtype=np.float64), c),
            )
            return _aware_decisions(rowwise, sensitive, self.stats, self.theta_hat)
        if marginal is None or scores_s0 is None or scores_s1 is None:
            raise SchemaError("blind mode needs marginal, scores_s0 and scores_s1")
        return _blind_decisions(
            np.maximum(np.asarray(marginal, dtype=np.float64), c),
            np.maximum(np.asarray(scores_s0, dtype=np.float64), c),
            np.maximum(np.asarray(scores_s1, dtype=np.float64), c),
            self.blind_means,
            self.theta_hat,
        )

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "theta_hat": self.theta_hat,
            "stats": self.stats.to_json() if self.stats is not None else None,
            "blind_means": list(self.blind_means) if self.blind_means is not None else None,
            "model": self.model.to_json() if self.model is not None else None,
        }

    @staticmethod
    def from_json(obj: dict) -> "FairClassifier":
        """Inverse of to_json; SchemaError when mode, theta_hat or the statistics are invalid."""
        mode, theta = obj["mode"], float(obj["theta_hat"])
        if mode not in ("aware", "blind"):
            raise SchemaError(f"model mode must be 'aware' or 'blind', got {mode!r}")
        if not np.isfinite(theta):
            raise SchemaError(f"theta_hat must be finite, got {theta!r}")
        stats = GroupStatistics.from_json(obj["stats"]) if obj.get("stats") else None
        means = tuple(float(v) for v in obj["blind_means"]) if obj.get("blind_means") else None
        if mode == "aware" and stats is None:
            raise SchemaError("aware model needs stats")
        if mode == "blind" and (means is None or len(means) != 2):
            raise SchemaError("blind model needs two blind_means")
        return FairClassifier(
            model=ScoreModel.from_json(obj["model"]) if obj.get("model") else None,
            theta_hat=theta,
            stats=stats,
            mode=mode,
            blind_means=means,
        )


def _fit_estimator(train: LabeledDataset, estimator, mode: str, jitter: float) -> ScoreModel:
    if estimator is None:
        estimator = LogisticConfig()
    if isinstance(estimator, LogisticConfig):
        model = fit_logistic(train, estimator, mode)
    elif isinstance(estimator, KnnConfig):
        model = fit_knn(train, estimator, mode)
    else:
        raise ConfigError(f"unsupported estimator config: {type(estimator).__name__}")
    if jitter:
        model = replace(model, jitter_amplitude=jitter)
    return model


def calibrate(
    train: LabeledDataset,
    unlabeled: UnlabeledDataset | None = None,
    estimator=None,
    mode: str = "aware",
    jitter_amplitude: float = 0.0,
) -> FairClassifier:
    """Fit scores on the labeled sample, then calibrate theta on the unlabeled one.

    When no unlabeled sample is given the train features are reused for
    calibration.  mode "aware" requires the unlabeled sample to carry the
    sensitive attribute; mode "blind" does not.
    """
    if mode not in ("aware", "blind"):
        raise ConfigError(f"mode must be 'aware' or 'blind', got {mode!r}")
    model = _fit_estimator(train, estimator, mode, jitter_amplitude)
    if unlabeled is None:
        X_u, S_u = train.features, train.sensitive
    else:
        X_u, S_u = unlabeled.features, unlabeled.sensitive
    model = model.with_floor(floor_value(train.n, X_u.shape[0]))

    if mode == "aware":
        if S_u is None:
            raise SchemaError("group-aware calibration needs a sensitive column in the unlabeled sample")
        scores = model.score_rowwise(X_u, S_u)
        stats = group_statistics(scores, S_u)
        theta = fit_theta(scores[S_u == 1], scores[S_u == 0], stats)
        return FairClassifier(model=model, theta_hat=theta, stats=stats, mode="aware")

    s0 = model.score_group(X_u, 0)
    s1 = model.score_group(X_u, 1)
    marginal = model.score_marginal(X_u)
    theta = fit_theta_blind(marginal, s0, s1)
    return FairClassifier(
        model=model,
        theta_hat=theta,
        stats=None,
        mode="blind",
        blind_means=(float(s0.mean()), float(s1.mean())),
    )


def calibrate_scores(
    scores_s0,
    scores_s1,
    sensitive=None,
    marginal=None,
    mode: str = "aware",
    n_labeled: int | None = None,
) -> FairClassifier:
    """Calibrate from precomputed score columns instead of a fitted estimator.

    Scores must be row-aligned with the calibration sample; they are floored
    with c computed from (n_labeled, N) where N is the number of rows.
    """
    s0 = np.asarray(scores_s0, dtype=np.float64)
    s1 = np.asarray(scores_s1, dtype=np.float64)
    if s0.shape != s1.shape:
        raise SchemaError("score columns must have equal length")
    N = s0.shape[0]
    c = floor_value(n_labeled if n_labeled is not None else N, N)
    s0 = np.maximum(s0, c)
    s1 = np.maximum(s1, c)
    model = external_score_model(floor=c, mode=mode)

    if mode == "aware":
        if sensitive is None:
            raise SchemaError("group-aware calibration needs the sensitive attribute")
        sensitive = np.asarray(sensitive)
        if sensitive.shape[0] != N:
            raise SchemaError(f"scores ({N} rows) and sensitive ({sensitive.shape[0]} rows) misaligned")
        rowwise = np.where(sensitive == 1, s1, s0)
        stats = group_statistics(rowwise, sensitive)
        theta = fit_theta(rowwise[sensitive == 1], rowwise[sensitive == 0], stats)
        return FairClassifier(model=model, theta_hat=theta, stats=stats, mode="aware")

    if marginal is None:
        raise SchemaError("blind calibration needs a marginal score column")
    m = np.maximum(np.asarray(marginal, dtype=np.float64), c)
    if m.shape[0] != N:
        raise SchemaError("marginal scores misaligned with per-group scores")
    theta = fit_theta_blind(m, s0, s1)
    return FairClassifier(
        model=model,
        theta_hat=theta,
        stats=None,
        mode="blind",
        blind_means=(float(s0.mean()), float(s1.mean())),
    )
