"""Group-dependent threshold calibration for equal-opportunity fairness.

The calibrated classifier keeps the fitted scores eta_hat and replaces the
plain 1/2 threshold by a group-dependent one driven by a single scalar theta:

    group 1 predicts 1  iff  1 <= eta_hat(x, 1) * (2 - theta / joint_1)
    group 0 predicts 1  iff  1 <= eta_hat(x, 0) * (2 + theta / joint_0)

with joint_s the estimated P(Y=1, S=s) on the calibration sample.  theta_hat
minimizes the score-weighted unfairness surrogate over [-2, 2].  Because each
row's indicator flips at exactly one theta (its breakpoint), the objective is
piecewise constant and the argmin is found exactly by enumerating breakpoints
and midpoints: one sort of the breakpoints, then one linear walk along them.

The sensitive-blind variant decides 1 <= 2*eta_hat(x) + theta*d(x) with the
direction d(x) = eta_hat(x,0)/E0 - eta_hat(x,1)/E1, where E_s are pooled means
over the unlabeled sample; theta is unbounded there.

Both modes are one rule: every row predicts 1 on one side of its own switch
point, and _switch_points gives each row that point and its side ("rising":
theta >= bp, "falling": theta <= bp).  Aware switch points keep the form
joint_1*(2 - 1/eta) and joint_0*(1/eta - 2): the product form can round the
other way within a few ulps, and the objective and FairClassifier._decide
(one expression) both read the switch points, so they agree exactly.  One
objective class, _Objective, keeps each side's switch points in ascending
order with the rising rows' weights as prefix sums and the falling ones' as
suffix sums, and exposes .breakpoints, .value(thetas) and .argmin() -> (theta,
value); the modes differ only in the constants, weights and bound its
constructor sets up.  value() looks each theta up in both sides by binary
search; argmin() merges the two sides in one stable sort and reads every
breakpoint's and midpoint's counts off one walk along the merge (_runs), a
block at a time, so it needs no search per candidate.  fit_theta, fit_theta_blind,
empirical_unfairness, blind_unfairness and breakpoints are one-liners over
it.  _distinct dedups the switch points without numpy.ma, which numpy's set
routines import.  calibrate scores the calibration sample with the fitted
estimator; calibrate_scores and predict_from_scores take score columns, which
one adapter (_column_scores) checks and puts in the same form; _columns is its
inverse.  Both calibrations floor the scores once and hand them to one core,
_calibrate, so they give the same theta_hat on the same scores, and the
classifier carries the objective value at theta_hat.  The core takes a
leading grid axis: a block of K score rows that share the calibration
sample, one classifier per row (the benchmark's CV folds), with group
statistics from reductions along the rows and one _Objective per row; a
single calibration is the case K = 1.  _predict_grid decides such a block at
a theta per (arm, row) in one switch-point pass, through the decision rule
(_decisions) FairClassifier._decide applies to one classifier.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, asdict, dataclass, replace

import numpy as np

from .data import LabeledDataset, UnlabeledDataset
from .errors import ConfigError, GroupCoverageError, SchemaError
from .estimators import (
    JITTER_MAX,
    KnnConfig,
    LogisticConfig,
    ScoreModel,
    external_score_model,
    fit_knn,
    fit_logistic,
    floor_value,
)

THETA_BOUND = 2.0
_CANDIDATE_BLOCK = 1 << 12  # merged switch points per block of the argmin's walk; each run-sized array stays small
_BOUNDED_PROBES = np.array([0.0, -THETA_BOUND, THETA_BOUND])  # the argmin's probes in aware mode, 0 first
# [-bound, bound] as searchsorted's side="left" reads it: #switch points < -bound, #switch points <= bound
_AWARE_SPAN, _BLIND_SPAN = np.array([-THETA_BOUND, np.nextafter(THETA_BOUND, np.inf)]), np.array([-np.inf, np.inf])
_NAN, _ZERO = np.array([np.nan]), np.zeros(1)
FORMAT_VERSION = 1  # of the model JSON written by FairClassifier.to_json


@dataclass(frozen=True)
class GroupStatistics:
    """Empirical P(S=s), group mean scores and joint P(Y=1, S=s), indexed by s."""

    p: tuple[float, float]
    mean_score: tuple[float, float]
    joint: tuple[float, float]

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
    return _grid_statistics(scores[None], sensitive)[0]


def _grid_statistics(scores: np.ndarray, sensitive: np.ndarray) -> list[GroupStatistics]:
    """The group statistics of each row of a (K, n) block of floored aware scores.

    Each group's scores are compressed into a C-ordered (K, n_s) block, so a
    row's mean sums in the order of the row's own 1-D mean and gives its bits
    (fancy indexing, scores[:, mask], would give an F-ordered block).
    """
    p, means = [], []
    for s in (0, 1):
        mask = sensitive == s
        if not mask.any():
            raise GroupCoverageError(f"group {s} absent from the calibration sample")
        p.append(float(mask.mean()))
        means.append(scores.compress(mask, axis=-1).mean(axis=-1).tolist())
    return [GroupStatistics(tuple(p), (m0, m1), (m0 * p[0], m1 * p[1])) for m0, m1 in zip(*means)]


def _distinct(values: np.ndarray) -> np.ndarray:
    """np.unique of a finite 1-D array (possibly empty): the first entry of each run of equal sorted values."""
    s = np.sort(values)
    keep = np.ones(s.size, dtype=bool)
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]


def _finite_order(bp: np.ndarray) -> np.ndarray:
    """The rows whose switch point is finite, ascending, equal points in row order: a stable argsort's order.

    The default sort (about a fifth of the stable one's time on 6e4 points) orders them, and a lexsort of
    (row, run) over the entries of the runs of equal points, -0.0 and +0.0 alike, puts each run back in
    row order.
    """
    order = np.flatnonzero(np.isfinite(bp))
    order = order[bp[order].argsort()]
    points = bp[order]
    tied = points[1:] == points[:-1]
    if tied.any():
        runs = np.concatenate(([0], (~tied).cumsum()))  # each sorted entry's run of equal points
        at = np.flatnonzero(np.concatenate((tied, [False])) | np.concatenate(([False], tied)))
        order[at] = order[at][np.lexsort((order[at], runs[at]))]
    return order


def _switch_points(mode: str, scores, sensitive, constants) -> tuple[np.ndarray, np.ndarray]:
    """Every row's switch point bp and side: a rising row predicts 1 for theta >= bp, a falling one for theta <= bp.

    Aware rows (scores eta_hat(x_i, s_i), constants the joints J_s): group 0 rises at J_0 (1/eta - 2),
    any other row falls at J_1 (2 - 1/eta).  Blind rows (scores (s0, s1, marginal), in slot order, constants
    the pooled means E_s): bp = (1 - 2 eta_hat(x)) / d(x), rising where d >= 0.  A blind row with d = 0 never
    switches: its bp is +-inf, or -inf for 0/0, so it predicts 1 iff 1 <= 2 eta_hat(x) at every finite theta.
    Scores may carry a leading grid axis of K rows, each with its own constants as (K, 1) columns, and an
    aware sensitive may be one group for every row.
    """
    if mode == "aware":
        rising = np.asarray(sensitive) != 1
        # both forms in place, so a decision holds one row-sized float buffer, and without masks, so a scalar group
        # costs little: J_1 (2 - 1/eta) as (1/eta - 2)(-J_1), the same product to the bit as rounding is
        # symmetric, with + 0.0 turning its -0.0 at eta = 1/2 into the +0.0 of 2 - 1/eta
        bp = 1.0 / scores
        bp -= 2.0
        bp *= np.where(rising, constants[0], -constants[1])
        bp += 0.0
        return bp, rising
    scores_s0, scores_s1, marginal = scores
    d = scores_s0 / constants[0] - scores_s1 / constants[1]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        bp = (1.0 - 2.0 * marginal) / d
    bp[np.isnan(bp)] = -np.inf
    return bp, d >= 0.0


class _Objective:
    """Piecewise-constant unfairness |F(theta) - R(theta)| of a calibration sample, in either mode.

    R sums the weights of the rising rows with bp <= theta and F those of the falling rows with
    bp >= theta, as prefix and suffix sums over each side in ascending switch-point order; rows with
    tied switch points sum in the order they come in.  The modes differ only in the data set up here:

    - aware: columns (scores1, scores0) and the joints J_s; the weights are the scores, and each side
      is divided by its own sum, so F and R are the group TPRs; theta in [-2, 2].  A switch point
      rises with the score in group 1 and falls with it in group 0, also after rounding, so group 1
      comes in ascending and group 0 in descending score order.  Each group then sums in descending
      score order, also across tied switch points, so identical group multisets give exactly 0 at
      theta = 0.
    - blind: columns (scores_s0, scores_s1, marginal); the weights are s1/S1 - s0/S0 (S_s the column
      sums), negated on rising rows; theta unbounded.  Rows whose switch point is not finite never
      switch and are left out (their weights, about |d|/N, are next to nothing), and the others are
      sorted by switch point, equal points in row order (_finite_order).

    constants holds what the switch points read: the joints, or the pooled means (E_0, E_1).
    """

    def __init__(self, mode: str, columns, joint=None):
        if mode == "aware":
            scores1, scores0 = (np.array(c, dtype=np.float64) for c in columns)
            scores1.sort()
            scores0.sort()
            if scores1.size == 0 or scores0.size == 0:
                raise GroupCoverageError("both groups need at least one calibration row")
            self.constants, self.bound = tuple(joint), THETA_BOUND
            rising, falling = scores0[::-1], scores1  # the weights of each side, in ascending switch-point order
            self.bp_rising = _switch_points(mode, rising, 0, joint)[0]
            self.bp_falling = _switch_points(mode, falling, 1, joint)[0]
        else:
            s0, s1, marginal = columns = [np.asarray(c, dtype=np.float64) for c in columns]
            if not (s0.shape == s1.shape == marginal.shape):
                raise SchemaError("marginal and per-group score arrays must align")
            self.constants, self.bound = (float(s0.mean()), float(s1.mean())), np.inf
            bp, side = _switch_points(mode, columns, None, self.constants)
            weights = s1 / s1.sum()
            weights -= s0 / s0.sum()
            np.negative(weights, out=weights, where=side)
            order = _finite_order(bp)
            bp, side, weights = bp[order], side[order], weights[order]
            self.bp_rising, self.bp_falling = bp[side], bp[~side]
            rising, falling = weights[side], weights[~side]
            del bp, weights  # so the sums below hold no sorted copy
        self.prefix = np.concatenate((_ZERO, rising.cumsum()))
        self.suffix = np.concatenate((falling[::-1].cumsum()[::-1], _ZERO))
        if mode == "aware":
            self.prefix /= self.prefix[-1]
            self.suffix /= self.suffix[0]

    @property
    def breakpoints(self) -> np.ndarray:
        """Distinct switch points within [-bound, bound], ascending."""
        t = np.concatenate([self.bp_rising, self.bp_falling])
        return _distinct(t[(t >= -self.bound) & (t <= self.bound)])

    def value(self, thetas) -> np.ndarray:
        thetas = np.asarray(thetas, dtype=np.float64)
        rising = self.prefix[self.bp_rising.searchsorted(thetas, side="right")]
        falling = self.suffix[self.bp_falling.searchsorted(thetas, side="left")]
        return np.abs(falling - rising)

    def _runs(self):
        """The distinct switch points within the bound, ascending, a block at a time, with the counts value() reads.

        Yields (points, after, rising, falling): the block's distinct points b, the next one up (NaN past the
        last), #rising <= b, and #falling below the block's first b followed by #falling <= b.  All come off one
        stable merge of the two ascending sides, which numpy's stable sort makes in linear time.  Ties keep the
        sides' order, so a run of equal points ends in its last falling point i, and #falling <= b = i + 1, if
        it has one, else in its last rising point j, and #rising <= b = j + 1; the two counts add up to the
        points merged up to the run's end.
        """
        n_rising = self.bp_rising.size
        t = np.concatenate((self.bp_rising, self.bp_falling, _NAN))
        order = t.argsort(kind="stable")
        span = _AWARE_SPAN if self.bound < np.inf else _BLIND_SPAN
        rising_below, rising_in = self.bp_rising.searchsorted(span)
        falling_span = self.bp_falling.searchsorted(span)
        last, falling = rising_in + falling_span[1], falling_span[:1]
        t[order[last]] = np.nan  # ends the last run within the bound
        for lo in range(rising_below + falling[0] + 1, last + 1, _CANDIDATE_BLOCK):
            pos = order[lo - 1 : min(lo + _CANDIDATE_BLOCK, last + 1)]  # the block and the position after it
            w = t[pos]
            ends = (w[1:] != w[:-1]).nonzero()[0]  # the last position of each run, counted from lo - 1
            if ends.size:  # else the block lies within one run
                merged, last_point = ends + lo, pos[ends]  # points up to each run's end, and its last point
                rising = np.where(last_point < n_rising, last_point + 1, merged + (n_rising - 1) - last_point)
                falling_le = merged - rising
                yield w[ends], w[1:][ends], rising, np.concatenate((falling, falling_le))
                falling = falling_le[-1:]

    def argmin(self) -> tuple[float, float]:
        """Exact minimizer and the value there; ties break toward the smallest |theta|, then the smaller theta.

        Candidates are 0, both bounds (one unit past both extreme breakpoints when unbounded), every
        breakpoint and the midpoint of every pair of consecutive breakpoints, which covers each constant
        piece.  The probes go through value(); the breakpoints and midpoints are read off one walk along the
        merged switch points (_runs), a block at a time, so memory stays bounded.  A midpoint takes the
        counts of the breakpoint below it, as no switch point lies strictly between the two; one that
        rounds onto a breakpoint is left out, as that breakpoint is a candidate itself.
        """
        if self.bound < np.inf:
            probes = _BOUNDED_PROBES
        else:
            extremes = [x for side in (self.bp_rising, self.bp_falling) if side.size for x in (side[0], side[-1])]
            probes = np.array([0.0, min(extremes) - 1.0, max(extremes) + 1.0] if extremes else [0.0])
        # (value, |theta|, theta) of the best candidate so far; of equal ones the earlier, so zero is the probe's +0.0
        best = min(zip(self.value(probes).tolist(), np.abs(probes).tolist(), probes.tolist()))
        for points, after, rising, falling in self._runs():
            mids = points + after
            mids *= 0.5
            at, suffix = self.prefix[rising], self.suffix[falling]
            inside = (points < mids) & (mids < after)
            values = np.abs(np.concatenate((suffix[:-1] - at, np.where(inside, suffix[1:] - at, np.inf))))
            low = values.min()
            tied = np.concatenate((points, mids))[values == low]
            theta = tied[0] if tied.size == 1 else tied[np.lexsort((tied, np.abs(tied)))[0]]  # one, as a rule
            best = min(best, (low, abs(theta), theta))
        return float(best[2]), float(best[0])


def empirical_unfairness(theta: float, scores1, scores0, stats: GroupStatistics) -> float:
    """Score-weighted unfairness surrogate of the theta-thresholded classifier.

    Any real theta is accepted; values outside [-2, 2] simply evaluate the
    same formula.
    """
    return float(_Objective("aware", (scores1, scores0), stats.joint).value([theta])[0])


def fit_theta(scores1, scores0, stats: GroupStatistics) -> float:
    """Exact minimizer of the empirical unfairness over theta in [-2, 2].

    Ties break toward the smallest |theta|, then the smaller theta.
    """
    return _Objective("aware", (scores1, scores0), stats.joint).argmin()[0]


def blind_unfairness(theta: float, marginal, scores_s0, scores_s1) -> float:
    """Blind-mode unfairness surrogate at a given theta (pooled expectations)."""
    return float(_Objective("blind", (scores_s0, scores_s1, marginal)).value([theta])[0])


def fit_theta_blind(marginal, scores_s0, scores_s1) -> float:
    """Exact minimizer of the blind unfairness surrogate; theta is unbounded.

    Ties break toward the smallest |theta|, then the smaller theta.
    """
    return _Objective("blind", (scores_s0, scores_s1, marginal)).argmin()[0]


def breakpoints(scores1, scores0, stats: GroupStatistics) -> np.ndarray:
    """Distinct per-row switch points theta_i within [-2, 2], ascending: the breakpoints the argmin enumerates.

    Raises GroupCoverageError when either group has no rows.
    """
    return _Objective("aware", (scores1, scores0), stats.joint).breakpoints


def _row_scores(model: ScoreModel, X, S=None) -> np.ndarray:
    """Floored scores as _decide takes them: eta_hat(x_i, s_i) (aware), slot rows (s=0, s=1, marginal) (blind)."""
    if model.mode == "aware":
        return model.score_rowwise(X, S)
    return np.stack([model.score_group(X, 0), model.score_group(X, 1), model.score_marginal(X)])


def _column_scores(mode: str, scores_s0=None, scores_s1=None, sensitive=None, marginal=None) -> np.ndarray:
    """Unfloored scores in the form _row_scores gives them, as a new array, from row-aligned score columns.

    Aware mode needs scores_s0, scores_s1 and 0/1 sensitive values and reads
    each row's own group column; blind mode needs marginal, scores_s0 and
    scores_s1.  Score columns may carry a leading grid axis, (K, N) each with
    sensitive (N,), and the result then does too: (K, N), or (K, 3, N) blind.
    A missing or misaligned column, or a score that is not a number in
    [0, 1], is a SchemaError.
    """
    names = ("scores_s0", "scores_s1", "sensitive" if mode == "aware" else "marginal")
    columns = [scores_s0, scores_s1, sensitive if mode == "aware" else marginal]
    if any(c is None for c in columns):
        raise SchemaError(f"{mode} mode needs {', '.join(names)}")
    s0, s1, third = columns = [np.asarray(c, dtype=np.float64) for c in columns]
    third_shape = s0.shape[-1:] if mode == "aware" else s0.shape  # one sensitive value per row of the sample
    if s0.ndim not in (1, 2) or s1.shape != s0.shape or third.shape != third_shape:
        shapes = ", ".join(f"{n} {c.shape}" for n, c in zip(names, columns))
        raise SchemaError(f"score columns must be row-aligned, one- or two-dimensional, got {shapes}")
    # each distinct score column once (the benchmark passes one array as both aware columns); a NaN fails
    # both comparisons, and the initial values let an empty column pass
    for name, c in zip(names, columns if mode == "blind" else columns[: 1 if s0 is s1 else 2]):
        if not (c.min(initial=0.0) >= 0.0 and c.max(initial=1.0) <= 1.0):
            bad = c[~((c >= 0.0) & (c <= 1.0))][0]
            raise SchemaError(f"{name} must hold scores in [0, 1], got {float(bad)}")
    if mode == "blind":
        return np.stack(columns, axis=-2)
    if not ((third == 0) | (third == 1)).all():
        raise SchemaError("sensitive values must be 0 or 1")
    return np.where(third == 1, s1, s0)


def _columns(scores, sensitive, mode) -> dict:
    """Scores in the form _row_scores gives them, with or without a leading grid axis, as the score
    columns of the calibration API."""
    if mode == "aware":  # aware calibration and prediction read only each row's own group column
        return {"scores_s0": scores, "scores_s1": scores, "sensitive": sensitive}
    return dict(zip(("scores_s0", "scores_s1", "marginal"), np.moveaxis(scores, -2, 0)))


@dataclass(frozen=True)
class FairClassifier:
    """Score model plus calibrated threshold shift.

    mode is the score model's slot count: "aware" predicts from (x, s) and
    guarantees |theta_hat| <= 2; "blind" predicts from x alone (stats is None
    there, blind_means caches the pooled means used in the direction term).
    unfairness_hat is the calibration objective at theta_hat (None when not recorded).
    """

    model: ScoreModel
    theta_hat: float
    stats: GroupStatistics | None
    _: KW_ONLY
    blind_means: tuple[float, float] | None = None
    unfairness_hat: float | None = None
    mode = property(lambda self: self.model.mode)

    def predict(self, X, S=None) -> np.ndarray:
        """Binary predictions for feature rows (S required in aware mode, ScoreModel.score_rowwise checks it)."""
        return self._decide(_row_scores(self.model, X, S), S)

    def predict_from_scores(self, scores_s0=None, scores_s1=None, sensitive=None, marginal=None):
        """Predictions from precomputed raw score columns, row-aligned and floored with the model floor."""
        scores = _column_scores(self.mode, scores_s0, scores_s1, sensitive, marginal)
        return self._decide(np.maximum(scores, self.model.floor, out=scores), sensitive)

    @property
    def _constants(self) -> tuple[float, float]:
        """What the switch points read: the joints (aware) or the pooled means (blind)."""
        return self.stats.joint if self.mode == "aware" else self.blind_means

    def _decide(self, scores: np.ndarray, sensitive=None) -> np.ndarray:
        """0/1 decisions from floored scores in the form _row_scores gives them."""
        return _decisions(self.mode, scores, sensitive, self._constants, self.theta_hat)

    def to_json(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "mode": self.mode,
            "theta_hat": self.theta_hat,
            "unfairness_hat": self.unfairness_hat,
            "stats": asdict(self.stats) if self.stats is not None else None,
            "blind_means": list(self.blind_means) if self.blind_means is not None else None,
            "model": self.model.to_json(),
        }

    @staticmethod
    def from_json(obj: dict) -> "FairClassifier":
        """Inverse of to_json; SchemaError when the version, theta_hat, the statistics, the
        blind means or the score model are invalid, or mode differs from the score model's.

        A file without format_version is read as version 1.
        """
        if not isinstance(obj, dict):
            raise SchemaError(f"a model is a JSON object, got {type(obj).__name__}")
        version = obj.get("format_version", FORMAT_VERSION)
        if version != FORMAT_VERSION or isinstance(version, bool):
            raise SchemaError(f"unsupported model format_version {version!r}, expected {FORMAT_VERSION}")
        theta = float(obj["theta_hat"])
        if not (isinstance(obj.get("model"), dict) and obj["model"]):
            raise SchemaError("model file needs a score model")
        model = ScoreModel.from_json(obj["model"])
        if not (np.isfinite(theta) and (model.mode == "blind" or abs(theta) <= THETA_BOUND)):  # the argmin's bounds
            raise SchemaError(f"theta_hat must be finite, and in [-2, 2] in an aware model, got {theta!r}")
        if obj["mode"] != model.mode:
            raise SchemaError(f"mode {obj['mode']!r} differs from the score model's mode {model.mode!r}")
        unread = "blind_means" if model.mode == "aware" else "stats"  # to_json would write it back
        if obj.get(unread) is not None:
            raise SchemaError(f"{unread} must be null in a {model.mode} model, got {obj[unread]!r}")
        stats = GroupStatistics.from_json(obj["stats"]) if obj.get("stats") else None
        means = _positive(obj["blind_means"], "blind_means") if obj.get("blind_means") else None
        if model.mode == "aware" and stats is None:
            raise SchemaError("aware model needs stats")
        if model.mode == "blind" and (means is None or len(means) != 2):
            raise SchemaError("blind model needs two blind_means")
        unfairness = obj.get("unfairness_hat")
        return FairClassifier(
            model=model,
            theta_hat=theta,
            stats=stats,
            blind_means=means,
            unfairness_hat=None if unfairness is None else float(unfairness),
        )


def _decisions(mode: str, scores: np.ndarray, sensitive, constants, theta) -> np.ndarray:
    """0/1 decisions from floored scores in the form _row_scores gives them, at theta; scores may carry
    a leading grid axis of K rows, with constants as (K, 1) columns and theta broadcasting against them."""
    bp, rising = _switch_points(mode, scores if mode == "aware" else np.moveaxis(scores, -2, 0), sensitive, constants)
    return np.where(rising, theta >= bp, theta <= bp).astype(np.int64)


def _predict_grid(classifiers: list, thetas, columns: dict) -> np.ndarray:
    """Decisions of K classifiers calibrated on one sample, so with one floor, at thetas (A, K): an
    (A, K, n) array from score columns with a leading grid axis of K rows, in one switch-point pass."""
    mode, floor = classifiers[0].mode, classifiers[0].model.floor
    scores = _column_scores(mode, **columns)
    constants = np.array([c._constants for c in classifiers]).T[..., None]  # (2, K, 1)
    theta = np.asarray(thetas, dtype=np.float64)[..., None]
    return _decisions(mode, np.maximum(scores, floor, out=scores), columns.get("sensitive"), constants, theta)


def _calibrate(model: ScoreModel, scores: np.ndarray, sensitive) -> list[FairClassifier]:
    """The calibration core: floored calibration scores, a leading grid axis of K rows each in the form
    _row_scores gives them, to one classifier per row, each from its own exact argmin."""
    if model.mode == "aware":
        in_1, in_0 = (np.asarray(sensitive) == s for s in (1, 0))
        stats = _grid_statistics(scores, sensitive)
        # each row's group scores are taken as its objective is built, so no argmin holds them all
        objectives = (_Objective("aware", (row[in_1], row[in_0]), st.joint) for row, st in zip(scores, stats))
    else:
        stats, objectives = [None] * scores.shape[0], (_Objective("blind", rows) for rows in scores)
    classifiers = []
    for objective, st in zip(objectives, stats):
        theta, value = objective.argmin()
        means = objective.constants if st is None else None
        classifiers.append(FairClassifier(model, theta, st, blind_means=means, unfairness_hat=value))
    return classifiers


def _check_mode(mode: str) -> None:
    if mode not in ("aware", "blind"):
        raise ConfigError(f"mode must be 'aware' or 'blind', got {mode!r}")


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
    _check_mode(mode)
    if not 0.0 <= jitter_amplitude <= JITTER_MAX:
        raise ConfigError(f"jitter amplitude must be finite and in [0, {JITTER_MAX}], got {jitter_amplitude}")
    cal = train if unlabeled is None else unlabeled
    X_u, S_u = cal.features, cal.sensitive
    if mode == "aware" and S_u is None:
        raise SchemaError("group-aware calibration needs a sensitive column in the unlabeled sample")
    model = _fit_estimator(train, estimator, mode).with_floor(floor_value(X_u.shape[0]))
    if jitter_amplitude:
        model = replace(model, jitter_amplitude=jitter_amplitude)
    return _calibrate(model, _row_scores(model, X_u, S_u)[None], S_u)[0]


def calibrate_scores(
    scores_s0, scores_s1, sensitive=None, marginal=None, mode: str = "aware"
) -> FairClassifier | list[FairClassifier]:
    """Calibrate from precomputed score columns instead of a fitted estimator.

    Scores must be row-aligned with the calibration sample; they are floored
    with c = floor_value(N), N the number of rows.  Aware calibration reads
    only the column of each row's own group.  Score columns with a leading
    grid axis, (K, N) each with sensitive (N,), calibrate every grid row on
    its own in one pass and give a list of K classifiers.
    """
    _check_mode(mode)
    scores = _column_scores(mode, scores_s0, scores_s1, sensitive, marginal)
    c, grid = floor_value(scores.shape[-1]), np.ndim(scores_s0) == 2
    # _column_scores returns a new array, so it can be floored in place
    np.maximum(scores, c, out=scores)
    classifiers = _calibrate(external_score_model(floor=c, mode=mode), scores if grid else scores[None], sensitive)
    return classifiers if grid else classifiers[0]
