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
(one expression) both read the switch points, so they agree exactly.

One objective class, _Objective, holds R calibration rows at once, each with
its own sides: the switch points of each side in ascending order, with the
rising rows' weights as prefix sums and the falling ones' as suffix sums,
padded to one width by points that never switch at a finite theta.  It
exposes .breakpoints(row) and .value(thetas, row) of one row and .argmin()
of every row; the modes differ only in the constants, weights and bound the
side builders (_aware_sides, _blind_batch) set up.  value() looks each theta
up in both sides by binary search; argmin() counts the probes against each
side, merges each row's two sides in one stable sort and reads every
breakpoint's and midpoint's counts off one walk along all rows' merges
(_runs), a block at a time, and reduces each row's candidates once, so it
needs no search per candidate and no loop over the rows.  fit_theta,
fit_theta_blind, empirical_unfairness, blind_unfairness and breakpoints are
one-liners over a one-row objective.  _distinct dedups the switch points
without numpy.ma, which numpy's set routines import.

calibrate scores the calibration sample with the fitted estimator;
calibrate_scores takes score columns, which one adapter (_column_scores)
checks and puts in the same form, and predict_from_scores decides from
them.  Both calibrations floor the scores and hand them to one core,
_calibrate, so they give the same theta_hat on the same scores, and the
classifier carries the objective value at theta_hat.  The core takes a list
of calibration samples, each a block of K score rows that share the sample
(the benchmark's grid), and gives one classifier per row: it packs the rows
of all samples into batches of about _BATCH_ENTRIES scores, and each batch
is one objective and one argmin.  The benchmark hands it, through
calibrate_scores(samples=...), all folds of a repeat's cross-validation in
one call (as many as that budget holds) and all of a repeat's final refits
in another; a single calibration, and so each consistency cell of the
oracle, is one sample of one row.  _predict_grid decides a sample's test
block at a theta per (arm, row) in one switch-point pass, through the
decision rule (_decisions) FairClassifier._decide applies to one classifier.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, asdict, dataclass, replace

import numpy as np

from .data import LabeledDataset, UnlabeledDataset, json_number, json_numbers
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
_BATCH_ENTRIES = 1 << 15  # calibration scores per objective; the benchmark hands over folds by the same count
FORMAT_VERSION = 1  # of the model JSON written by FairClassifier.to_json


@dataclass(frozen=True)
class GroupStatistics:
    """Empirical P(S=s), group mean scores and joint P(Y=1, S=s), indexed by s."""

    p: tuple[float, float]
    mean_score: tuple[float, float]
    joint: tuple[float, float]

    @staticmethod
    def from_json(obj: dict) -> "GroupStatistics":
        if not isinstance(obj, dict):
            raise SchemaError(f"stats must be a JSON object, got {type(obj).__name__}")
        vectors = [_positive(obj[key], f"stats.{key}") for key in ("p", "mean_score", "joint")]
        if any(len(v) != 2 for v in vectors):
            raise SchemaError("stats p, mean_score and joint need one value per group")
        return GroupStatistics(*vectors)


def _positive(values, field: str) -> tuple[float, ...]:
    """A model file's list of numbers as floats; SchemaError naming the field unless each is finite and > 0."""
    out = tuple(json_numbers(values, field).tolist())
    if not all(0.0 < v < np.inf for v in out):
        raise SchemaError(f"{field} must be finite and > 0, got {list(out)}")
    return out


def _group_blocks(scores: np.ndarray, sensitive) -> tuple[list[np.ndarray], list[GroupStatistics]]:
    """Each group's scores of a (K, n) block of floored aware scores as a new (K, n_s) block, and the group
    statistics of each row.

    compress gives C-ordered blocks, so a row's mean, its sum over n_s as
    np.mean takes it, sums in the order of the row's own 1-D mean and gives
    its bits (fancy indexing, scores[:, mask], would give an F-ordered block).
    """
    blocks, p = [], []
    for s in (0, 1):
        mask = sensitive == s
        count = int(np.count_nonzero(mask))
        if not count:
            raise GroupCoverageError(f"group {s} absent from the calibration sample")
        p.append(count / mask.size)
        blocks.append(scores.compress(mask, axis=-1))
    means = [(block.sum(axis=-1) / block.shape[-1]).tolist() for block in blocks]
    return blocks, [GroupStatistics(tuple(p), (m0, m1), (m0 * p[0], m1 * p[1])) for m0, m1 in zip(*means)]


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


def _sums(rising: np.ndarray, falling: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Prefix sums of the rising weights and suffix sums of the falling ones, along the last axis, each with
    the empty sum as its extra entry (first for prefix sums, last for suffix sums)."""
    prefix = np.zeros(rising.shape[:-1] + (rising.shape[-1] + 1,))
    suffix = np.zeros(falling.shape[:-1] + (falling.shape[-1] + 1,))
    np.cumsum(rising, axis=-1, out=prefix[..., 1:])
    np.cumsum(falling[..., ::-1], axis=-1, out=suffix[..., -2::-1])
    return prefix, suffix


def _aware_sides(groups: list[np.ndarray], joint) -> tuple:
    """The sides (bp_rising, prefix, bp_falling, suffix) of R aware rows from each group's floored scores,
    (R, W_0) and (R, W_1) blocks sorted here in place, and the joints J_s as (2, R, 1).

    The weights are the scores, and each side is divided by its own sum, so
    F and R are the group TPRs.  A switch point rises with the score in group
    1 and falls with it in group 0, also after rounding, so group 1 comes in
    ascending and group 0 in descending score order.  Each group then sums in
    descending score order, also across tied switch points, so identical
    group multisets give exactly 0 at theta = 0.  The rows of samples of
    different sizes come padded with zeros (_padded): a zero sorts below
    every floored score and adds nothing to a sum, and its switch point is
    +inf on the rising side, at the back, and -inf on the falling side, at
    the front.
    """
    for block in groups:
        block.sort(axis=-1)
    rising, falling = groups[0][:, ::-1], groups[1]
    prefix, suffix = _sums(rising, falling)
    prefix /= prefix[:, -1:]
    suffix /= suffix[:, :1]
    with np.errstate(divide="ignore"):  # 1/0 of the pads
        bp_rising, bp_falling = (_switch_points("aware", w, s, joint)[0] for w, s in ((rising, 0), (falling, 1)))
    return bp_rising, prefix, bp_falling, suffix


def _blind_sides(rows) -> tuple[tuple[float, float], tuple]:
    """The pooled means (E_0, E_1) of one floored blind row (scores_s0, scores_s1, marginal) and its sides,
    each with one row.

    The weights are s1/S1 - s0/S0 (S_s the column sums), negated on rising
    rows.  Rows whose switch point is not finite never switch and are left
    out (their weights, about |d|/N, are next to nothing), and the others are
    sorted by switch point, equal points in row order (_finite_order).
    """
    s0, s1, _ = rows
    means = (float(s0.mean()), float(s1.mean()))
    bp, side = _switch_points("blind", rows, None, means)
    weights = s1 / s1.sum()
    weights -= s0 / s0.sum()
    np.negative(weights, out=weights, where=side)
    order = _finite_order(bp)
    bp, side, weights = bp[order], side[order], weights[order]
    prefix, suffix = _sums(weights[side], weights[~side])
    return means, (bp[side][None], prefix[None], bp[~side][None], suffix[None])


def _aware_batch(samples) -> tuple[tuple, list[GroupStatistics]]:
    """The sides of the rows of aware calibration samples (scores, sensitive), each scores a (K, n) block of
    floored scores, each group's scores padded with zeros to one width, and each row's group statistics."""
    groups, stats = zip(*(_group_blocks(scores, sensitive) for scores, sensitive in samples))
    stats = [st for sample in stats for st in sample]
    groups = [_padded([blocks[s] for blocks in groups], 0.0) for s in (0, 1)]
    return _aware_sides(groups, np.array([st.joint for st in stats]).T[..., None]), stats


def _blind_batch(blocks) -> tuple[tuple, list[tuple[float, float]]]:
    """The sides of the rows of blind calibration samples, each a (K, 3, n) block of floored scores, padded
    at the back to one width with +inf switch points and zero weights, and each row's pooled means."""
    means, sides = zip(*(_blind_sides(rows) for block in blocks for rows in block))
    bp_rising, prefix, bp_falling, suffix = zip(*sides)
    return (_padded(bp_rising, np.inf), _padded(prefix, None), _padded(bp_falling, np.inf), _padded(suffix, 0.0)), means


def _padded(blocks: list[np.ndarray], fill) -> np.ndarray:
    """Row blocks of different widths as one array, each row padded on the right with fill, or with its own
    last entry where fill is None."""
    width = max(block.shape[-1] for block in blocks)
    if len(blocks) == 1 and blocks[0].shape[-1] == width:
        return blocks[0]
    out = np.full((sum(len(block) for block in blocks), width), np.nan if fill is None else fill)
    at = 0
    for block in blocks:
        out[at : at + len(block), : block.shape[-1]] = block
        if fill is None:
            out[at : at + len(block), block.shape[-1] :] = block[:, -1:]
        at += len(block)
    return out


def _lexmin(values: np.ndarray, thetas: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The value and theta of the least (value, |theta|, theta) of each segment of flat candidates, the
    segments beginning at starts, none empty and no value NaN; of equal candidates the earlier."""
    low = np.minimum.reduceat(values, starts)
    tied = np.flatnonzero(values == low.repeat(np.diff(starts, append=values.size)))
    if tied.size > starts.size:  # some segment's least value is tied: its candidates by |theta|, then theta
        segment = starts.searchsorted(tied, "right") - 1
        order = np.lexsort((thetas[tied], np.abs(thetas[tied]), segment))
        tied = tied[order[np.flatnonzero(np.diff(segment[order], prepend=-1))]]
    return low, thetas[tied]


class _Objective:
    """Piecewise-constant unfairness |F(theta) - R(theta)| of R calibration rows at once, in either mode.

    R sums the weights of a row's rising switch points bp <= theta and F those of its falling ones with
    bp >= theta, as prefix and suffix sums over each side in ascending switch-point order; rows with tied
    switch points sum in the order they come in.  Each calibration sample has its own group split,
    constants and size (_aware_batch, _blind_batch), and its rows' sides are padded to one width: at the
    back with +inf switch points or, on the aware falling side, at the front with -inf ones, each of zero
    weight, so a pad never switches at a finite theta and value(), the probes, the merge and the walk run
    once for every row.  bound is 2 in aware mode (theta in [-2, 2]) and +inf in blind mode.
    """

    def __init__(self, sides: tuple, bound: float):
        self.bp_rising, self.prefix, self.bp_falling, self.suffix = sides
        self.bound = bound

    def breakpoints(self, row: int = 0) -> np.ndarray:
        """A row's distinct switch points within [-bound, bound], ascending."""
        t = np.concatenate((self.bp_rising[row], self.bp_falling[row]))
        t = t[np.isfinite(t)]  # without the pads
        return _distinct(t[(t >= -self.bound) & (t <= self.bound)])

    def value(self, thetas, row: int = 0) -> np.ndarray:
        """A row's objective at each of the thetas, by binary search on each side."""
        thetas = np.asarray(thetas, dtype=np.float64)
        rising = self.prefix[row][self.bp_rising[row].searchsorted(thetas, "right")]
        return np.abs(self.suffix[row][self.bp_falling[row].searchsorted(thetas, "left")] - rising)

    def _probes(self) -> np.ndarray:
        """(R, 3): each row's probes, 0 first: 0 and both bounds, or, unbounded, one unit past both extreme
        switch points of the row (pads excluded), or only 0 (three times) for a row that never switches."""
        if self.bound < np.inf:
            return np.broadcast_to(_BOUNDED_PROBES, (len(self.prefix), 3))
        # blind sides are padded at the back with +inf alone, so a row's first point is its lowest or a pad,
        # and a side that every row leaves empty has no column
        sides = (self.bp_rising, self.bp_falling)
        low = np.minimum(*(side[:, :1].min(axis=1, initial=np.inf) for side in sides))
        high = np.maximum(*(np.where(np.isfinite(side), side, -np.inf).max(axis=1, initial=-np.inf)
                            for side in sides))
        probes = np.stack((np.zeros(low.size), low - 1.0, high + 1.0), axis=1)
        probes[~np.isfinite(low)] = 0.0
        return probes

    def _runs(self, low: float, high: float):
        """The distinct switch points in [low, high) of every row, ascending, a block of merged points at a
        time, with the counts value() reads.

        Yields (rows, starts, points, after, rising, below, falling): for each run of equal points in
        row-major order its row, its point b, the next point of the row (a pad's +inf or NaN past the last),
        #rising <= b and #falling <= b, pads counted as points; the index of each row's first run in the
        block, and #falling < b for that run.  All come off one stable merge of each row's two ascending
        sides, which numpy's stable sort makes in linear time, walked as one stream: row after row, each
        ended by a NaN.  Ties keep the sides' order, so a run of equal points ends in its last falling
        point i, and #falling <= b = i + 1, if it has one, else in its last rising point j, and #rising <=
        b = j + 1; the two counts add up to the points merged up to the run's end.  #falling < b is the
        count #falling <= b of the row's run before, or #falling < low for its first.
        """
        rows, width = self.bp_rising.shape
        t = np.concatenate((self.bp_rising, self.bp_falling, np.full((rows, 1), np.nan)), axis=1)
        size = t.shape[1]
        stream = t.argsort(axis=1, kind="stable")
        stream += np.arange(0, rows * size, size)[:, None]  # entries of the flat t, each row's merged in turn
        stream, t = stream.reshape(-1), t.reshape(-1)
        carry = np.count_nonzero(self.bp_falling < low, axis=-1)  # per row, #falling <= the last run's point
        for lo in range(0, stream.size - 1, _CANDIDATE_BLOCK):
            pos = stream[lo : lo + _CANDIDATE_BLOCK + 1]  # the block and the position after it
            w = t[pos]
            head = w[:-1]
            end = ((head != w[1:]) & (head >= low) & (head < high)).nonzero()[0]  # the last position of each run
            if not end.size:
                continue
            row = (end + lo) // size
            start = row * size
            merged, last_point = end + (lo + 1) - start, pos[end] - start  # points up to the run's end in its row
            rising = np.where(last_point < width, last_point + 1, merged + (width - 1) - last_point)
            falling = merged - rising
            first = np.ones(row.size, bool)
            np.not_equal(row[1:], row[:-1], out=first[1:])
            starts = first.nonzero()[0]
            below = carry[row[starts]]
            carry[row[np.append(starts[1:], end.size) - 1]] = falling[np.append(starts[1:], end.size) - 1]
            yield row, starts, w[end], w[end + 1], rising, below, falling

    def argmin(self) -> tuple[np.ndarray, np.ndarray]:
        """Every row's exact minimizer and the value there, as two (R,) arrays; ties break toward the
        smallest |theta|, then the smaller theta.

        Candidates are the probes (_probes), every breakpoint and the midpoint of every pair of consecutive
        breakpoints, which covers each constant piece.  The probes are counted against each side; the
        breakpoints and midpoints are read off one walk along every row's merged switch points (_runs), a
        block at a time, so memory stays bounded.  A midpoint takes the counts of the breakpoint below it,
        as no switch point lies strictly between the two; one that rounds onto a breakpoint is left out,
        as that breakpoint is a candidate itself, and so is one past the last breakpoint within the bound.
        Each row's probes and each block's least breakpoint and midpoint of the row, in that order, are
        reduced once, so of equal candidates the earlier wins and zero is the probe's +0.0.
        """
        rows = np.arange(len(self.prefix))[:, None]
        probes = self._probes()
        # each row's points against its probes along the rows, where numpy counts fastest
        rising = np.count_nonzero(self.bp_rising[:, None, :] <= probes[:, :, None], axis=-1)
        falling = np.count_nonzero(self.bp_falling[:, None, :] < probes[:, :, None], axis=-1)
        # every row's candidates with their rows: its probes, then each block's least breakpoint and midpoint
        owners, kept_values = [rows.repeat(3)], [np.abs(self.suffix[rows, falling] - self.prefix[rows, rising]).ravel()]
        kept_thetas = [probes.ravel()]
        low, high = _AWARE_SPAN if self.bound < np.inf else _BLIND_SPAN
        prefix, suffix = self.prefix.reshape(-1), self.suffix.reshape(-1)  # read at flat indices, the fastest
        for row, starts, points, after, rising, below, falling in self._runs(low, high):
            at, row_suffix = prefix[row * self.prefix.shape[1] + rising], row * self.suffix.shape[1]
            n, rows_in = points.size, row[starts]
            # [breakpoints | midpoints]: a breakpoint's #falling < b is that of the midpoint below it
            thetas, values = np.empty(2 * n), np.empty(2 * n)
            thetas[:n] = points
            mids = np.add(points, after, out=thetas[n:])
            mids *= 0.5
            np.take(suffix, row_suffix + falling, out=values[n:])
            values[1:n] = values[n : 2 * n - 1]
            values[starts] = suffix[row_suffix[starts] + below]
            values[:n] -= at
            values[n:] -= at
            np.abs(values, out=values)
            values[n:][~((points < mids) & (mids < after) & (after < high))] = np.inf
            found = _lexmin(values, thetas, np.concatenate((starts, starts + n)))
            owners.append(np.tile(rows_in, 2))
            kept_values.append(found[0])
            kept_thetas.append(found[1])
        owner = np.concatenate(owners)
        order, counts = owner.argsort(kind="stable"), np.bincount(owner, minlength=rows.size)
        value, theta = _lexmin(np.concatenate(kept_values)[order], np.concatenate(kept_thetas)[order],
                               counts.cumsum() - counts)
        return theta, value


def _aware_objective(scores1, scores0, joint) -> _Objective:
    """The objective of one aware calibration sample given as each group's scores and the joints."""
    groups = [np.array(scores, dtype=np.float64)[None] for scores in (scores0, scores1)]
    if groups[0].size == 0 or groups[1].size == 0:
        raise GroupCoverageError("both groups need at least one calibration row")
    return _Objective(_aware_sides(groups, np.array(joint, dtype=np.float64)[:, None, None]), THETA_BOUND)


def _blind_objective(scores_s0, scores_s1, marginal) -> _Objective:
    """The objective of one blind calibration sample given as its three score columns."""
    columns = [np.asarray(c, dtype=np.float64) for c in (scores_s0, scores_s1, marginal)]
    if not (columns[0].shape == columns[1].shape == columns[2].shape):
        raise SchemaError("marginal and per-group score arrays must align")
    return _Objective(_blind_batch([np.stack(columns)[None]])[0], np.inf)


def empirical_unfairness(theta: float, scores1, scores0, stats: GroupStatistics) -> float:
    """Score-weighted unfairness surrogate of the theta-thresholded classifier.

    Any real theta is accepted; values outside [-2, 2] simply evaluate the
    same formula.
    """
    return float(_aware_objective(scores1, scores0, stats.joint).value([theta])[0])


def fit_theta(scores1, scores0, stats: GroupStatistics) -> float:
    """Exact minimizer of the empirical unfairness over theta in [-2, 2].

    Ties break toward the smallest |theta|, then the smaller theta.
    """
    return float(_aware_objective(scores1, scores0, stats.joint).argmin()[0][0])


def blind_unfairness(theta: float, marginal, scores_s0, scores_s1) -> float:
    """Blind-mode unfairness surrogate at a given theta (pooled expectations)."""
    return float(_blind_objective(scores_s0, scores_s1, marginal).value([theta])[0])


def fit_theta_blind(marginal, scores_s0, scores_s1) -> float:
    """Exact minimizer of the blind unfairness surrogate; theta is unbounded.

    Ties break toward the smallest |theta|, then the smaller theta.
    """
    return float(_blind_objective(scores_s0, scores_s1, marginal).argmin()[0][0])


def breakpoints(scores1, scores0, stats: GroupStatistics) -> np.ndarray:
    """Distinct per-row switch points theta_i within [-2, 2], ascending: the breakpoints the argmin enumerates.

    Raises GroupCoverageError when either group has no rows.
    """
    return _aware_objective(scores1, scores0, stats.joint).breakpoints()


def _row_scores(model: ScoreModel, X, S=None) -> np.ndarray:
    """Floored scores as _decide takes them: eta_hat(x_i, s_i) (aware), slot rows (s=0, s=1, marginal) (blind)."""
    if model.mode == "aware":
        return model.score_rowwise(X, S)
    return np.stack([model.score_group(X, 0), model.score_group(X, 1), model.score_marginal(X)])


def _column_scores(mode: str, scores_s0=None, scores_s1=None, sensitive=None, marginal=None) -> np.ndarray:
    """Unfloored scores in the form _row_scores gives them, as a new array, from row-aligned score columns.

    Aware mode needs scores_s0, scores_s1 and 0/1 sensitive values and reads
    each row's own group column; blind mode needs marginal, scores_s0 and
    scores_s1.  A missing or misaligned column, or a score that is not a
    number in [0, 1], is a SchemaError.
    """
    names = ("scores_s0", "scores_s1", "sensitive" if mode == "aware" else "marginal")
    columns = [scores_s0, scores_s1, sensitive if mode == "aware" else marginal]
    if any(c is None for c in columns):
        raise SchemaError(f"{mode} mode needs {', '.join(names)}")
    s0, s1, third = columns = [np.asarray(c, dtype=np.float64) for c in columns]
    if s0.ndim != 1 or s1.shape != s0.shape or third.shape != s0.shape:
        shapes = ", ".join(f"{n} {c.shape}" for n, c in zip(names, columns))
        raise SchemaError(f"score columns must be one-dimensional and row-aligned, got {shapes}")
    # a NaN fails both comparisons, and the initial values let an empty column pass
    for name, c in zip(names, columns if mode == "blind" else columns[:2]):
        if not (c.min(initial=0.0) >= 0.0 and c.max(initial=1.0) <= 1.0):
            bad = c[~((c >= 0.0) & (c <= 1.0))][0]
            raise SchemaError(f"{name} must hold scores in [0, 1], got {float(bad)}")
    if mode == "blind":
        return np.stack(columns)
    if not ((third == 0) | (third == 1)).all():
        raise SchemaError("sensitive values must be 0 or 1")
    return np.where(third == 1, s1, s0)


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
        theta = json_number(obj["theta_hat"], "theta_hat")
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
        if unfairness is not None and not 0.0 <= json_number(unfairness, "unfairness_hat") < np.inf:
            raise SchemaError(f"unfairness_hat must be finite and >= 0, or null, got {unfairness!r}")
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


def _predict_grid(classifiers: list, thetas, scores: np.ndarray, sensitive=None) -> np.ndarray:
    """Decisions of K classifiers calibrated on one sample, so with one floor, at thetas (A, K): an
    (A, K, n) array from a block of K score rows in the form _row_scores gives them, floored into a new
    array, in one switch-point pass."""
    mode, floor = classifiers[0].mode, classifiers[0].model.floor
    constants = np.array([c._constants for c in classifiers]).T[..., None]  # (2, K, 1)
    theta = np.asarray(thetas, dtype=np.float64)[..., None]
    return _decisions(mode, np.maximum(scores, floor), sensitive, constants, theta)


def _batches(items, size):
    """items in order, in lists closed as soon as their sizes reach _BATCH_ENTRIES, so a list goes past it by
    at most its last item, and no item after a full list is taken before the list is handed out."""
    batch, total = [], 0
    for item in items:
        batch.append(item)
        total += size(item)
        if total >= _BATCH_ENTRIES:
            yield batch
            batch, total = [], 0
    if batch:
        yield batch


def _calibrate(samples) -> list[list[FairClassifier]]:
    """The calibration core: every sample (model, scores, sensitive) holds K score rows of one calibration
    sample, (K, n) or blind (K, 3, n), each in the form _row_scores gives them, and gives K classifiers, one
    per row, each from its own exact argmin.

    Every block is floored in place with the model's floor.  The rows are
    split and packed into batches of about _BATCH_ENTRIES scores,
    and each batch is one _Objective: one padded set of sides, one merge and
    one walk for all of its rows, so its memory stays bounded however many
    samples come in.
    """
    pieces = []  # (sample index, model, rows, sensitive), each at most _BATCH_ENTRIES scores or one row
    for i, (model, scores, sensitive) in enumerate(samples):
        np.maximum(scores, model.floor, out=scores)
        step = max(1, _BATCH_ENTRIES // scores.shape[-1])
        pieces += [(i, model, scores[k : k + step], sensitive) for k in range(0, len(scores), step)]
    out = [[] for _ in samples]
    for batch in _batches(pieces, lambda piece: piece[2].size):
        if batch[0][1].mode == "aware":
            sides, stats = _aware_batch([(scores, sensitive) for _, _, scores, sensitive in batch])
            means, bound = [None] * len(stats), THETA_BOUND
        else:
            sides, means = _blind_batch([scores for _, _, scores, _ in batch])
            stats, bound = [None] * len(means), np.inf
        models = [(i, model) for i, model, scores, _ in batch for _ in range(len(scores))]
        theta, value = _Objective(sides, bound).argmin()
        for (i, model), st, mean, t, v in zip(models, stats, means, theta.tolist(), value.tolist()):
            out[i].append(FairClassifier(model, t, st, blind_means=mean, unfairness_hat=v))
    return out


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
    model = replace(_fit_estimator(train, estimator, mode), floor=floor_value(X_u.shape[0]),
                    jitter_amplitude=float(jitter_amplitude))
    return _calibrate([(model, _row_scores(model, X_u, S_u)[None], S_u)])[0][0]


def calibrate_scores(
    scores_s0=None, scores_s1=None, sensitive=None, marginal=None, mode: str = "aware", *, samples=None
) -> FairClassifier | list[list[FairClassifier]]:
    """Calibrate from precomputed score columns instead of a fitted estimator.

    Scores must be row-aligned with the calibration sample; they are floored
    with c = floor_value(N), N the number of rows.  Aware calibration reads
    only the column of each row's own group.

    samples, in place of the columns, calibrates many samples in one pass: a
    list of (scores, sensitive), each a block of K score rows in the form
    _row_scores gives them ((K, N), or blind (K, 3, N) with sensitive None),
    in [0, 1] as the package's estimators give them (they are not checked),
    and floored in place with the sample's own c.  It gives one list of K
    classifiers per sample.
    """
    _check_mode(mode)
    if samples is not None:
        return _calibrate([(external_score_model(floor=floor_value(s.shape[-1]), mode=mode), s, S) for s, S in samples])
    scores = _column_scores(mode, scores_s0, scores_s1, sensitive, marginal)
    c = floor_value(scores.shape[-1])
    return _calibrate([(external_score_model(floor=c, mode=mode), scores[None], sensitive)])[0][0]
