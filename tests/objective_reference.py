"""The two per-mode objectives and decision branches that ``fairthresh.calibration._Objective``,
``_switch_points`` and ``FairClassifier._decide`` replaced, used only by the tests.

Each mode had its own objective class, switch-point helpers and branch of
``_decide``.  The one objective must give the same bits for ``breakpoints``,
``value`` and ``argmin``, and the one decision the same predictions, on every
input.  Tests import this module as they import conftest.
"""

import numpy as np

from fairthresh.calibration import _CANDIDATE_BLOCK, THETA_BOUND, GroupStatistics
from fairthresh.errors import GroupCoverageError, SchemaError


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
