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
inequality rearranged for eta > 0 and keeps a row at its own breakpoint on the
"predict 1" side.  In floating point the product form can round the other way
within a few ulps of a breakpoint; the objective and the predictions both use
the breakpoint form, so they agree exactly.

The sensitive-blind variant decides 1 <= 2*eta_hat(x) + theta*d(x) with the
direction d(x) = eta_hat(x,0)/E0 - eta_hat(x,1)/E1, where E_s are pooled means
over the unlabeled sample; theta is unbounded there.

Each mode has one objective object (_AwareObjective, _BlindObjective) that
sorts the switch points once and exposes .breakpoints, .value(thetas) and
.argmin() -> (theta, value); fit_theta, fit_theta_blind, empirical_unfairness,
blind_unfairness and breakpoints are one-liners over them.
calibrate scores the calibration sample with the fitted estimator;
calibrate_scores and predict_from_scores take score columns, which one
adapter (_column_scores) checks for alignment and puts in the same form;
_columns is its inverse, turning row scores into score columns.  Calibration
floors the scores once and hands them to one core, so the two
paths give the same theta_hat on the same scores, and the classifier carries
the objective value at theta_hat.  FairClassifier._decide is the one decision
rule of predict and predict_from_scores; the benchmark and the oracle's
consistency experiment call the public calibrate_scores and
predict_from_scores with the score columns _columns gives them.
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
FORMAT_VERSION = 1  # of the model JSON written by FairClassifier.to_json


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
        vectors = [_positive(obj[key], f"stats.{key}") for key in ("p", "mean_score", "joint")]
        if any(len(v) != 2 for v in vectors):
            raise SchemaError("stats p, mean_score and joint need one value per group")
        return GroupStatistics(*vectors)


def _positive(values, field: str) -> tuple[float, ...]:
    """A model file's number vector as floats; SchemaError naming the field unless each is finite and > 0."""
    out = tuple(float(v) for v in values)
    if not all(0.0 < v < np.inf for v in out):
        raise SchemaError(f"{field} must be finite and > 0, got {list(out)}")
    return out


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


def _pick_candidate(objective, bps: np.ndarray, probes) -> tuple[float, float]:
    """Exact argmin of a piecewise-constant objective and its value there.

    Candidates are the probes, every breakpoint and the midpoint of every
    pair of consecutive breakpoints, which covers each constant piece.
    """
    cands = np.concatenate([np.asarray(probes, dtype=np.float64), bps, 0.5 * (bps[:-1] + bps[1:])])
    values = objective.value(cands)
    best = values.min()
    tied = cands[values == best]
    # least intervention first: smallest |theta|, then smaller theta
    return float(tied[np.lexsort((tied, np.abs(tied)))[0]]), float(best)


class _AwareObjective:
    """Piecewise-constant empirical unfairness, evaluated by sorted prefix sums.

    A switch point is monotone in its row's score (rising in group 1, falling
    in group 0, also after rounding), so sorting the scores sorts the switch
    points.  Both groups accumulate their score sums in descending-score
    order, so two groups carrying identical score multisets produce
    bitwise-identical group terms and an exactly zero objective at theta = 0.
    """

    def __init__(self, scores1, scores0, stats: GroupStatistics):
        desc1 = np.sort(np.asarray(scores1, dtype=np.float64))[::-1]
        desc0 = np.sort(np.asarray(scores0, dtype=np.float64))[::-1]
        if desc1.size == 0 or desc0.size == 0:
            raise GroupCoverageError("both groups need at least one calibration row")
        self.t1 = _group1_breakpoints(desc1[::-1], stats.joint[1])
        self.t0 = _group0_breakpoints(desc0, stats.joint[0])
        # cum[m] is the score sum of the m highest-scored rows of a group
        self.cum1 = np.concatenate([[0.0], np.cumsum(desc1)])
        self.cum0 = np.concatenate([[0.0], np.cumsum(desc0)])

    @property
    def breakpoints(self) -> np.ndarray:
        """Distinct switch points inside [-2, 2], ascending."""
        t = np.concatenate([self.t1, self.t0])
        return np.unique(t[(t >= -THETA_BOUND) & (t <= THETA_BOUND)])

    def tpr_pair(self, thetas):
        thetas = np.asarray(thetas, dtype=np.float64)
        # active rows: group 1 with t1 >= theta, group 0 with t0 <= theta
        m1 = self.t1.size - np.searchsorted(self.t1, thetas, side="left")
        m0 = np.searchsorted(self.t0, thetas, side="right")
        return self.cum1[m1] / self.cum1[-1], self.cum0[m0] / self.cum0[-1]

    def value(self, thetas) -> np.ndarray:
        t1, t0 = self.tpr_pair(thetas)
        return np.abs(t1 - t0)

    def argmin(self) -> tuple[float, float]:
        """Exact minimizer over [-2, 2] (0 and both ends are candidates too)."""
        return _pick_candidate(self, self.breakpoints, [-THETA_BOUND, 0.0, THETA_BOUND])


def _blind_direction(marginal: np.ndarray, scores_s0: np.ndarray, scores_s1: np.ndarray, means):
    """Direction d(x) and switch point (1 - 2 eta_hat(x)) / d(x) of every row.

    A row with d = 0, or whose switch point is not finite, never switches: it
    predicts 1 iff 1 <= 2 eta_hat(x) for every finite theta.
    """
    d = scores_s0 / means[0] - scores_s1 / means[1]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        bp = (1.0 - 2.0 * marginal) / d
    return d, bp


class _BlindObjective:
    """Piecewise-constant blind unfairness over pooled unlabeled scores."""

    def __init__(self, marginal, scores_s0, scores_s1):
        m = np.asarray(marginal, dtype=np.float64)
        s0 = np.asarray(scores_s0, dtype=np.float64)
        s1 = np.asarray(scores_s1, dtype=np.float64)
        if not (m.shape == s0.shape == s1.shape):
            raise SchemaError("marginal and per-group score arrays must align")
        self.means = (float(s0.mean()), float(s1.mean()))
        d, bp = _blind_direction(m, s0, s1, self.means)
        # w = -d / N up to rounding, so rows that never switch add nothing
        w = s1 / s1.sum() - s0 / s0.sum()
        finite = np.isfinite(bp)
        pos = (d > 0) & finite
        neg = (d < 0) & finite
        op = np.argsort(bp[pos], kind="stable")
        on = np.argsort(bp[neg], kind="stable")
        self.bp_pos = bp[pos][op]
        self.cum_pos = np.concatenate([[0.0], np.cumsum(w[pos][op])])
        self.bp_neg = bp[neg][on]
        self.suf_neg = np.concatenate([np.cumsum(w[neg][on][::-1])[::-1], [0.0]])

    @property
    def breakpoints(self) -> np.ndarray:
        return np.unique(np.concatenate([self.bp_pos, self.bp_neg]))

    def value(self, thetas) -> np.ndarray:
        thetas = np.asarray(thetas, dtype=np.float64)
        # active rows: d > 0 with bp <= theta, d < 0 with bp >= theta
        mp = np.searchsorted(self.bp_pos, thetas, side="right")
        mn = np.searchsorted(self.bp_neg, thetas, side="left")
        return np.abs(self.cum_pos[mp] + self.suf_neg[mn])

    def argmin(self) -> tuple[float, float]:
        """Exact minimizer over the real line; probes one unit past both extreme breakpoints."""
        bps = self.breakpoints
        probes = [0.0, bps[0] - 1.0, bps[-1] + 1.0] if bps.size else [0.0]
        return _pick_candidate(self, bps, probes)


def empirical_unfairness(theta: float, scores1, scores0, stats: GroupStatistics) -> float:
    """Score-weighted unfairness surrogate of the theta-thresholded classifier.

    Any real theta is accepted; values outside [-2, 2] simply evaluate the
    same formula.
    """
    return float(_AwareObjective(scores1, scores0, stats).value([theta])[0])


def fit_theta(scores1, scores0, stats: GroupStatistics) -> float:
    """Exact minimizer of the empirical unfairness over theta in [-2, 2].

    Ties break toward the smallest |theta|, then the smaller theta.
    """
    return _AwareObjective(scores1, scores0, stats).argmin()[0]


def blind_unfairness(theta: float, marginal, scores_s0, scores_s1) -> float:
    """Blind-mode unfairness surrogate at a given theta (pooled expectations)."""
    return float(_BlindObjective(marginal, scores_s0, scores_s1).value([theta])[0])


def fit_theta_blind(marginal, scores_s0, scores_s1) -> float:
    """Exact minimizer of the blind unfairness surrogate; theta is unbounded.

    Ties break toward the smallest |theta|, then the smaller theta.
    """
    return _BlindObjective(marginal, scores_s0, scores_s1).argmin()[0]


def breakpoints(scores1, scores0, stats: GroupStatistics) -> np.ndarray:
    """Distinct per-row switch points theta_i within [-2, 2], ascending: the breakpoints the argmin enumerates.

    Raises GroupCoverageError when either group has no rows.
    """
    return _AwareObjective(scores1, scores0, stats).breakpoints


def _row_scores(model: ScoreModel, X, S=None) -> np.ndarray:
    """Floored scores as _decide takes them: eta_hat(x_i, s_i) (aware), rows (marginal, s=0, s=1) (blind)."""
    if model.mode == "aware":
        return model.score_rowwise(X, S)
    return np.stack([model.score_marginal(X), model.score_group(X, 0), model.score_group(X, 1)])


def _column_scores(mode: str, scores_s0, scores_s1, sensitive, marginal) -> np.ndarray:
    """Unfloored scores in the form _row_scores gives them, from row-aligned score columns.

    Aware mode needs scores_s0, scores_s1 and 0/1 sensitive values and reads
    each row's own group column; blind mode needs marginal, scores_s0 and
    scores_s1.  A missing or misaligned column is a SchemaError.
    """
    names = ("scores_s0", "scores_s1", "sensitive" if mode == "aware" else "marginal")
    columns = [scores_s0, scores_s1, sensitive if mode == "aware" else marginal]
    if any(c is None for c in columns):
        raise SchemaError(f"{mode} mode needs {', '.join(names)}")
    s0, s1, third = columns = [np.asarray(c, dtype=np.float64) for c in columns]
    if s0.ndim != 1 or len({c.shape for c in columns}) > 1:
        shapes = ", ".join(f"{n} {c.shape}" for n, c in zip(names, columns))
        raise SchemaError(f"score columns must be one-dimensional and row-aligned, got {shapes}")
    if mode == "blind":
        return np.stack([third, s0, s1])
    if not ((third == 0) | (third == 1)).all():
        raise SchemaError("sensitive values must be 0 or 1")
    return np.where(third == 1, s1, s0)


def _columns(scores, sensitive, mode) -> dict:
    """Scores in the form _row_scores gives them as the score columns of the calibration API."""
    if mode == "aware":  # aware calibration and prediction read only each row's own group column
        return {"scores_s0": scores, "scores_s1": scores, "sensitive": sensitive}
    return {"scores_s0": scores[1], "scores_s1": scores[2], "marginal": scores[0]}


@dataclass(frozen=True)
class FairClassifier:
    """Score model plus calibrated threshold shift.

    mode "aware" predicts from (x, s) and guarantees |theta_hat| <= 2; mode
    "blind" predicts from x alone (stats is None there, blind_means caches the
    pooled means used in the direction term).  unfairness_hat is the
    calibration objective at theta_hat (None when not recorded).
    """

    model: ScoreModel
    theta_hat: float
    stats: GroupStatistics | None
    mode: str
    blind_means: tuple[float, float] | None = None
    unfairness_hat: float | None = None

    def predict(self, X, S=None) -> np.ndarray:
        """Binary predictions for feature rows (S required in aware mode)."""
        if self.model.kind == "external":
            raise SchemaError("external-score classifier: use predict_from_scores")
        if self.mode == "aware" and S is None:
            raise SchemaError("group-aware prediction needs the sensitive attribute")
        return self._decide(_row_scores(self.model, X, S), S)

    def predict_from_scores(self, scores_s0=None, scores_s1=None, sensitive=None, marginal=None):
        """Predictions from precomputed raw score columns, row-aligned and floored with the model floor."""
        scores = _column_scores(self.mode, scores_s0, scores_s1, sensitive, marginal)
        return self._decide(np.maximum(scores, self.model.floor), sensitive)

    def _decide(self, scores: np.ndarray, sensitive=None) -> np.ndarray:
        """0/1 decisions from floored scores in the form _row_scores gives them."""
        theta = self.theta_hat
        if self.mode == "aware":
            g1 = np.asarray(sensitive) == 1
            out = np.zeros(scores.shape[0], dtype=np.int64)
            out[g1] = theta <= _group1_breakpoints(scores[g1], self.stats.joint[1])
            out[~g1] = theta >= _group0_breakpoints(scores[~g1], self.stats.joint[0])
            return out
        marginal, scores_s0, scores_s1 = scores
        d, bp = _blind_direction(marginal, scores_s0, scores_s1, self.blind_means)
        return np.select([d > 0, d < 0], [theta >= bp, theta <= bp], 1.0 <= 2.0 * marginal).astype(np.int64)

    def to_json(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "mode": self.mode,
            "theta_hat": self.theta_hat,
            "unfairness_hat": self.unfairness_hat,
            "stats": self.stats.to_json() if self.stats is not None else None,
            "blind_means": list(self.blind_means) if self.blind_means is not None else None,
            "model": self.model.to_json(),
        }

    @staticmethod
    def from_json(obj: dict) -> "FairClassifier":
        """Inverse of to_json; SchemaError when the version, mode, theta_hat, the statistics,
        the blind means or the score model are invalid.

        A file without format_version is read as version 1.
        """
        if not isinstance(obj, dict):
            raise SchemaError(f"a model is a JSON object, got {type(obj).__name__}")
        version = obj.get("format_version", FORMAT_VERSION)
        if version != FORMAT_VERSION or isinstance(version, bool):
            raise SchemaError(f"unsupported model format_version {version!r}, expected {FORMAT_VERSION}")
        mode, theta = obj["mode"], float(obj["theta_hat"])
        if mode not in ("aware", "blind"):
            raise SchemaError(f"model mode must be 'aware' or 'blind', got {mode!r}")
        if not np.isfinite(theta):
            raise SchemaError(f"theta_hat must be finite, got {theta!r}")
        stats = GroupStatistics.from_json(obj["stats"]) if obj.get("stats") else None
        means = _positive(obj["blind_means"], "blind_means") if obj.get("blind_means") else None
        if mode == "aware" and stats is None:
            raise SchemaError("aware model needs stats")
        if mode == "blind" and (means is None or len(means) != 2):
            raise SchemaError("blind model needs two blind_means")
        if not (isinstance(obj.get("model"), dict) and obj["model"]):
            raise SchemaError("model file needs a score model")
        unfairness = obj.get("unfairness_hat")
        return FairClassifier(
            model=ScoreModel.from_json(obj["model"]),
            theta_hat=theta,
            stats=stats,
            mode=mode,
            blind_means=means,
            unfairness_hat=None if unfairness is None else float(unfairness),
        )


def _calibrate(model: ScoreModel, scores: np.ndarray, sensitive) -> FairClassifier:
    """The calibration core: floored calibration scores, in the form _row_scores gives them, to a classifier."""
    if model.mode == "aware":
        sensitive = np.asarray(sensitive)
        stats = group_statistics(scores, sensitive)
        theta, value = _AwareObjective(scores[sensitive == 1], scores[sensitive == 0], stats).argmin()
        return FairClassifier(model=model, theta_hat=theta, stats=stats, mode="aware", unfairness_hat=value)
    objective = _BlindObjective(*scores)
    theta, value = objective.argmin()
    return FairClassifier(model, theta, None, "blind", blind_means=objective.means, unfairness_hat=value)


def _fit_estimator(train: LabeledDataset, estimator, mode: str) -> ScoreModel:
    if estimator is None:
        estimator = LogisticConfig()
    if isinstance(estimator, LogisticConfig):
        return fit_logistic(train, estimator, mode)
    if isinstance(estimator, KnnConfig):
        return fit_knn(train, estimator, mode)
    raise ConfigError(f"unsupported estimator config: {type(estimator).__name__}")


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
    if not 0.0 <= jitter_amplitude <= 0.5:
        raise ConfigError(f"jitter amplitude must be finite and in [0, 0.5], got {jitter_amplitude}")
    cal = train if unlabeled is None else unlabeled
    X_u, S_u = cal.features, cal.sensitive
    if mode == "aware" and S_u is None:
        raise SchemaError("group-aware calibration needs a sensitive column in the unlabeled sample")
    model = _fit_estimator(train, estimator, mode).with_floor(floor_value(X_u.shape[0]))
    if jitter_amplitude:
        model = replace(model, jitter_amplitude=jitter_amplitude)
    return _calibrate(model, _row_scores(model, X_u, S_u), S_u)


def calibrate_scores(scores_s0, scores_s1, sensitive=None, marginal=None, mode: str = "aware") -> FairClassifier:
    """Calibrate from precomputed score columns instead of a fitted estimator.

    Scores must be row-aligned with the calibration sample; they are floored
    with c = floor_value(N), N the number of rows.  Aware calibration reads
    only the column of each row's own group.
    """
    scores = _column_scores(mode, scores_s0, scores_s1, sensitive, marginal)
    c = floor_value(scores.shape[-1])
    return _calibrate(external_score_model(floor=c, mode=mode), np.maximum(scores, c), sensitive)
