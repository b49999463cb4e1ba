"""Analytic ground truth on synthetic one-dimensional distributions.

A SyntheticDistribution draws a latent U ~ Uniform[0, 1] per group, maps it
affinely to the observed feature X = location + scale * U, and assigns
Y | U, S ~ Bernoulli(eta_s(U)) with eta_s a strictly increasing piecewise-
linear function.  Strict monotonicity plus the continuous latent make the
score distribution atomless, and every conditional integral the optimal-rule
equation needs has a closed form, so the optimal threshold shift theta_star,
the optimal fair classifier and its exact risk are all computable to solver
precision.  These serve as the ground truth for consistency experiments.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from ._parallel import map_ordered
# calibrate is not called here, but perfbench/spans.py wraps fairthresh.oracle.calibrate by name
from .calibration import _fit_estimator, calibrate, calibrate_scores  # noqa: F401
from .data import LabeledDataset, UnlabeledDataset, json_number, json_numbers
from .errors import ConfigError, NumericError, SchemaError
from .metrics import deo as deo_report

DEFAULT_BISECTION_TOL = 1e-8


@dataclass(frozen=True)
class GroupSpec:
    """Latent affine map and piecewise-linear regression curve of one group."""

    location: float
    scale: float
    knots: tuple[tuple[float, float], ...]  # (u, eta) pairs, u from 0 to 1

    def __post_init__(self):
        if self.scale <= 0:
            raise ConfigError(f"scale must be positive, got {self.scale}")
        u = np.asarray([k[0] for k in self.knots], dtype=np.float64)
        e = np.asarray([k[1] for k in self.knots], dtype=np.float64)
        if len(self.knots) < 2 or u[0] != 0.0 or u[-1] != 1.0:
            raise ConfigError("knots must run from u=0 to u=1 with at least two points")
        if not (np.diff(u) > 0).all():
            raise ConfigError("knot positions must be strictly increasing")
        if not (np.diff(e) > 0).all():
            raise ConfigError("eta values must be strictly increasing")
        if e[0] <= 0.0 or e[-1] >= 1.0:
            raise ConfigError("eta must stay strictly inside (0, 1)")

    @property
    def knot_u(self) -> np.ndarray:
        return np.asarray([k[0] for k in self.knots], dtype=np.float64)

    @property
    def knot_eta(self) -> np.ndarray:
        return np.asarray([k[1] for k in self.knots], dtype=np.float64)

    def eta(self, u):
        return np.interp(u, self.knot_u, self.knot_eta)

    def eta_inverse(self, t):
        """Smallest u with eta(u) >= t, clipped to [0, 1]."""
        return np.interp(t, self.knot_eta, self.knot_u)

    def suffix_integral(self, u) -> np.ndarray:
        """Vectorized closed-form integral of eta over [u, 1]."""
        u_arr = np.clip(np.asarray(u, dtype=np.float64), 0.0, 1.0)
        ku, ke = self.knot_u, self.knot_eta
        seg = 0.5 * (ke[:-1] + ke[1:]) * np.diff(ku)
        tail = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])  # integral from u_k to 1
        k = np.clip(np.searchsorted(ku, u_arr, side="right") - 1, 0, len(ku) - 2)
        eta_u = np.interp(u_arr, ku, ke)
        return tail[k + 1] + (ku[k + 1] - u_arr) * 0.5 * (eta_u + ke[k + 1])

    def mean_eta(self) -> float:
        return float(self.suffix_integral(0.0))


@dataclass(frozen=True)
class SyntheticDistribution:
    """Joint law of (X, S, Y) with known regression curves, indexed by s."""

    pi_1: float
    groups: tuple[GroupSpec, GroupSpec]

    def __post_init__(self):
        if not 0.0 < self.pi_1 < 1.0:
            raise ConfigError(f"pi_1 must lie in (0, 1), got {self.pi_1}")
        if len(self.groups) != 2:
            raise ConfigError("exactly two group specs required")
        for s, g in enumerate(self.groups):
            # positive mass above 1/2 is required for the optimal rule to exist
            if g.knot_eta[-1] <= 0.5:
                raise ConfigError(f"group {s}: eta must exceed 1/2 on a set of positive measure")

    @property
    def pi(self) -> tuple[float, float]:
        return (1.0 - self.pi_1, self.pi_1)

    @staticmethod
    def from_json(obj: dict) -> "SyntheticDistribution":
        """The law a JSON description gives; SchemaError naming the field that is missing, not a number,
        or a knot that is not a [u, eta] pair."""
        try:
            groups = []
            for s, g in enumerate(obj["groups"]):
                knots, field = [], f"distribution field groups[{s}]"
                for j, knot in enumerate(g["knots"]):
                    if not isinstance(knot, (list, tuple)) or len(knot) != 2:
                        raise SchemaError(f"{field}.knots[{j}] must be a [u, eta] pair, got {knot!r}")
                    knots.append(tuple(json_numbers(knot, f"{field}.knots[{j}]").tolist()))
                location, scale = (json_number(g[key], f"{field}.{key}") for key in ("location", "scale"))
                groups.append(GroupSpec(location, scale, tuple(knots)))
            return SyntheticDistribution(json_number(obj["pi_1"], "distribution field pi_1"), tuple(groups))
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"malformed distribution description: {exc}") from exc


def linear_distribution(
    intercept0: float, slope0: float, intercept1: float, slope1: float, pi_1: float = 0.5
) -> SyntheticDistribution:
    """Two-group distribution with eta_s(u) = intercept_s + slope_s * u on [0, 1]."""
    g0 = GroupSpec(0.0, 1.0, ((0.0, intercept0), (1.0, intercept0 + slope0)))
    g1 = GroupSpec(0.0, 1.0, ((0.0, intercept1), (1.0, intercept1 + slope1)))
    return SyntheticDistribution(pi_1, (g0, g1))


def _closed_form_joints(dist: SyntheticDistribution):
    means = tuple(g.mean_eta() for g in dist.groups)
    joints = tuple(m * p for m, p in zip(means, dist.pi))
    return means, joints


def _region_starts(dist: SyntheticDistribution, theta, joints):
    """Lower ends (u_0, u_1) of the regions where 1 <= eta_s(u) * (2 -/+ theta / joint_s), 1.0 where empty.

    Group 1 takes the minus sign.  Accepts a scalar or an array of theta values.
    """
    th = np.asarray(theta, dtype=np.float64)
    starts = []
    for s, sign in ((0, 1.0), (1, -1.0)):
        factor = 2.0 + sign * th / joints[s]
        accepting = factor > 0.0  # otherwise the acceptance region is empty
        tau = 1.0 / np.where(accepting, factor, 1.0)
        starts.append(np.where(accepting, dist.groups[s].eta_inverse(tau), 1.0))
    return tuple(starts)


def tpr_gap(theta, dist: SyntheticDistribution):
    """TPR_1(theta) - TPR_0(theta) of the exact theta-thresholded rule.

    Non-increasing in theta; the optimal shift is its zero crossing.  Accepts
    a scalar or an array of theta values.
    """
    means, joints = _closed_form_joints(dist)
    u0, u1 = _region_starts(dist, theta, joints)
    out = dist.groups[1].suffix_integral(u1) / means[1] - dist.groups[0].suffix_integral(u0) / means[0]
    return float(out) if np.ndim(theta) == 0 else out


def risk_of_threshold_rule(dist: SyntheticDistribution, region_starts) -> float:
    """Exact risk of the rule predicting 1 on u >= u_s per group.

    Uses the identity R(g) = E[eta] - E[(2 eta - 1) g].
    """
    total = 0.0
    for s, g in enumerate(dist.groups):
        u = min(max(region_starts[s], 0.0), 1.0)
        gain = 2.0 * float(g.suffix_integral(u)) - (1.0 - u)
        total += dist.pi[s] * (g.mean_eta() - gain)
    return total


@dataclass(frozen=True)
class OracleSolution:
    """Optimal threshold shift and the exact optimum it induces."""

    theta_star: float
    joint: tuple[float, float]
    risk_star: float
    bisection_tolerance: float
    bracket_width: float
    region_starts: tuple[float, float]  # per-group lower end of the accept region


def solve_theta_star(dist: SyntheticDistribution, tolerance: float = DEFAULT_BISECTION_TOL) -> OracleSolution:
    """Bisection for the theta equalizing the exact group TPRs on [-2, 2].

    The gap is monotone, so the bracket shrinks unconditionally; when the
    equalizing set is a plateau any point of it is returned and the final
    bracket width is reported.  Raises NumericError when the gap has the same
    sign at both ends (a law outside the assumptions).
    """
    lo, hi = -2.0, 2.0
    g_lo, g_hi = tpr_gap(lo, dist), tpr_gap(hi, dist)
    if g_lo < 0.0 or g_hi > 0.0:
        raise NumericError(
            f"tpr gap does not bracket zero on [-2, 2]: gap(-2)={g_lo:.3g}, gap(2)={g_hi:.3g}"
        )
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        if tpr_gap(mid, dist) > 0.0:
            lo = mid
        else:
            hi = mid
    theta = 0.5 * (lo + hi)
    _, joints = _closed_form_joints(dist)
    regions = tuple(float(u) for u in _region_starts(dist, theta, joints))
    return OracleSolution(
        theta_star=theta,
        joint=joints,
        risk_star=risk_of_threshold_rule(dist, regions),
        bisection_tolerance=tolerance,
        bracket_width=hi - lo,
        region_starts=regions,
    )


def sample(dist: SyntheticDistribution, n: int, seed) -> LabeledDataset:
    """Draw n i.i.d. rows (X as a single feature column), deterministic in seed."""
    if n < 1:
        raise ConfigError(f"sample size must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    s = (rng.random(n) < dist.pi_1).astype(np.int64)
    u = rng.random(n)
    draws = rng.random(n)
    g0, g1 = dist.groups
    in_1 = s == 1
    # every row at once, each group's values picked by np.where and combined in place
    x = np.where(in_1, g1.scale, g0.scale)
    x *= u
    x += np.where(in_1, g1.location, g0.location)
    y = (draws < np.where(in_1, g1.eta(u), g0.eta(u))).astype(np.int64)
    del u, draws  # the dataset's checks run with only its own columns alive
    return LabeledDataset(x[:, None], s, y, ("x1",), require_both_groups=False)


def _latent(spec: GroupSpec, x: np.ndarray) -> np.ndarray:
    return np.clip((x - spec.location) / spec.scale, 0.0, 1.0)


def _feature(X) -> np.ndarray:
    """The laws' one feature per row: column 0 of a feature matrix, or a 1-D column as given."""
    x = np.asarray(X, dtype=np.float64)
    return x[:, 0] if x.ndim == 2 else x.reshape(-1)


def exact_group_scores(dist: SyntheticDistribution, X, s: int) -> np.ndarray:
    """Exact eta(x, s) per row from feature column 0; features outside the support take boundary values."""
    x = _feature(X)
    spec = dist.groups[s]
    return np.asarray(spec.eta(_latent(spec, x)), dtype=np.float64)


def exact_scores(dist: SyntheticDistribution, X, S) -> np.ndarray:
    """Exact eta(x_i, s_i) for each row of a sample."""
    return np.where(np.asarray(S) == 1, exact_group_scores(dist, X, 1), exact_group_scores(dist, X, 0))


def exact_marginal_scores(dist: SyntheticDistribution, X) -> np.ndarray:
    """Exact eta(x) = P(Y=1 | X=x) from feature column 0, mixing the groups by their densities."""
    x = _feature(X)
    num = np.zeros(x.shape[0])
    den = np.zeros(x.shape[0])
    fallback = np.zeros(x.shape[0])
    for s, spec in enumerate(dist.groups):
        inside = (x >= spec.location - 1e-12) & (x <= spec.location + spec.scale + 1e-12)
        dens = dist.pi[s] / spec.scale
        eta = spec.eta(_latent(spec, x))
        num += np.where(inside, dens * eta, 0.0)
        den += np.where(inside, dens, 0.0)
        fallback += dist.pi[s] * eta
    return np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), fallback)


@dataclass(frozen=True)
class ConsistencyCell:
    n: int
    N: int
    repeats: int
    deo_mean: float
    deo_std: float
    excess_risk_mean: float
    excess_risk_std: float
    theta_abs_err_mean: float


def consistency_run(
    dist: SyntheticDistribution,
    n_grid,
    N_grid,
    repeats: int,
    seed: int,
    estimator="exact",
    test_size: int = 100_000,
) -> list[ConsistencyCell]:
    """Full-pipeline fairness/risk consistency table over (n, N) grid cells.

    estimator "exact" takes the true regression curve as the scores; n is
    then carried through to the output but unused (pass 0 by convention).
    Otherwise a LogisticConfig or KnnConfig fits on a fresh labeled sample of
    size n and its row scores are the scores.  Every cell draws its own
    calibration sample of size N, which needs two rows per group, and a fresh
    labeled test sample; either score source feeds calibrate_scores and
    predict_from_scores, and the cell records the test DEO and the risk
    excess over the exact optimum, averaged over the repeats.  Each
    (n, N, repeat) cell draws from its own seed [seed, i_n, i_N, rep, ...], so
    the cells run through _parallel.map_ordered, in forked workers on Linux,
    and the table is the same for any worker count.
    """
    n_grid, N_grid = list(n_grid), list(N_grid)
    if not n_grid or not N_grid or repeats < 1:
        raise ConfigError("n_grid and N_grid must be nonempty and repeats positive")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    sol = solve_theta_star(dist)

    def cell(index):
        i_n, i_N, rep = index
        base = [seed, i_n, i_N, rep]
        unl = sample(dist, N_grid[i_N], base + [1])
        cal = UnlabeledDataset(unl.features, unl.sensitive)
        test = sample(dist, test_size, base + [2])
        if estimator == "exact":
            score = functools.partial(exact_scores, dist)
        else:
            score = _fit_estimator(sample(dist, n_grid[i_n], base + [0]), estimator, "aware").score_rowwise
        cal_scores, test_scores = score(cal.features, cal.sensitive), score(test.features, test.sensitive)
        # each row reads its own group's column, so one score column serves as both
        clf = calibrate_scores(cal_scores, cal_scores, sensitive=cal.sensitive)
        pred = clf.predict_from_scores(test_scores, test_scores, sensitive=test.sensitive)
        report = deo_report(pred, test.labels, test.sensitive)
        deo = report.deo if report.deo is not None else 0.0
        return deo, (1.0 - report.accuracy) - sol.risk_star, abs(clf.theta_hat - sol.theta_star)

    outcomes = iter(map_ordered(cell, itertools.product(range(len(n_grid)), range(len(N_grid)), range(repeats))))
    cells = []
    ddof = 1 if repeats > 1 else 0
    for n in n_grid:
        for N in N_grid:
            deos, excesses, terrs = zip(*(next(outcomes) for _ in range(repeats)))
            cells.append(
                ConsistencyCell(
                    n=int(n),
                    N=int(N),
                    repeats=repeats,
                    deo_mean=float(np.mean(deos)),
                    deo_std=float(np.std(deos, ddof=ddof)),
                    excess_risk_mean=float(np.mean(excesses)),
                    excess_risk_std=float(np.std(excesses, ddof=ddof)),
                    theta_abs_err_mean=float(np.mean(terrs)),
                )
            )
    return cells
