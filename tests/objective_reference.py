"""The per-mode objectives and decision branches that ``fairthresh.calibration``'s one objective and
``_switch_points`` replaced, and the per-row objective and calibration core that its batched ``_Objective``
and ``_calibrate`` replaced, used only by the tests.

Each mode had its own objective class, switch-point helpers and branch of
``_decide``.  Later one per-row ``_Objective`` served both modes, and
``_calibrate`` built one of them and ran one argmin per grid row.  The
batched objective must give the same bits for the breakpoints, the values
and the argmin of every row, and the one decision the same predictions, on
every input.  Tests import this module as they import conftest.
"""

import numpy as np

from fairthresh.calibration import (
    _AWARE_SPAN,
    _BLIND_SPAN,
    _BOUNDED_PROBES,
    _CANDIDATE_BLOCK,
    THETA_BOUND,
    FairClassifier,
    GroupStatistics,
    _finite_order,
    _switch_points,
)
from fairthresh.errors import GroupCoverageError, SchemaError

_NAN, _ZERO = np.array([np.nan]), np.zeros(1)


def _group1_breakpoints(scores1: np.ndarray, joint_1: float) -> np.ndarray:
    # active (predict 1) for theta <= breakpoint
    return joint_1 * (2.0 - 1.0 / scores1)


def _group0_breakpoints(scores0: np.ndarray, joint_0: float) -> np.ndarray:
    # active (predict 1) for theta >= breakpoint
    return joint_0 * (1.0 / scores0 - 2.0)


def _distinct(values: np.ndarray) -> np.ndarray:
    """np.unique of a finite 1-D array (possibly empty): the first entry of each run of equal sorted values."""
    s = np.sort(values)
    keep = np.ones(s.size, dtype=bool)
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]


def _pick_candidate(objective, bps: np.ndarray, probes) -> tuple[float, float]:
    """Exact argmin of a piecewise-constant objective and its value there.

    Candidates are the probes, every breakpoint and the midpoint of every
    pair of consecutive breakpoints, which covers each constant piece.  They
    are evaluated a block of breakpoints at a time, so memory stays bounded.
    """
    best = (np.inf, np.inf, np.inf)  # (value, |theta|, theta) of the best candidate so far
    for lo in range(0, max(bps.size, 1), _CANDIDATE_BLOCK):
        part = bps[lo : lo + _CANDIDATE_BLOCK + 1]  # the block and the breakpoint after it
        cands = np.concatenate([probes if lo == 0 else [], part[:_CANDIDATE_BLOCK], 0.5 * (part[:-1] + part[1:])])
        values = objective.value(cands)
        tied = cands[values == values.min()]
        # least intervention first: smallest |theta|, then smaller theta; the earlier of equal candidates
        theta = tied[np.lexsort((tied, np.abs(tied)))[0]]
        best = min(best, (values.min(), abs(theta), theta))
    return float(best[2]), float(best[0])


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
        return _distinct(t[(t >= -THETA_BOUND) & (t <= THETA_BOUND)])

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
        w = s1 / s1.sum()
        w -= s0 / s0.sum()
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
        return _distinct(np.concatenate([self.bp_pos, self.bp_neg]))

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


def decide(self, scores: np.ndarray, sensitive=None) -> np.ndarray:
    """FairClassifier._decide as it was, for a classifier passed as self."""
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


# --- the per-row objective and calibration core, as they were before rows were batched ---


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


def _calibrate(model, scores: np.ndarray, sensitive) -> list[FairClassifier]:
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
