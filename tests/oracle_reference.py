"""Independent cross-checks of the analytic oracle, used only by the tests.

Quadrature moments and risks recompute by Simpson's rule what the oracle
integrates in closed form, region_starts_scalar finds the acceptance regions
one theta at a time, plugin_at_infinite_data feeds the calibrated rule
exact scores and exact group statistics, and random_distribution draws valid
laws for property tests.  Tests import this module as they import conftest.
"""

from dataclasses import dataclass

import numpy as np

from fairthresh.calibration import FairClassifier, GroupStatistics
from fairthresh.errors import ConfigError
from fairthresh.estimators import external_score_model
from fairthresh.oracle import GroupSpec, SyntheticDistribution, _closed_form_joints, solve_theta_star


def _simpson(fn, a: float, b: float, n_points: int) -> float:
    if n_points < 3 or n_points % 2 == 0:
        raise ConfigError(f"Simpson rule needs an odd point count >= 3, got {n_points}")
    if b <= a:
        return 0.0
    x = np.linspace(a, b, n_points)
    y = fn(x)
    w = np.ones(n_points)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    h = (b - a) / (n_points - 1)
    return float(h / 3.0 * (w @ y))


@dataclass(frozen=True)
class Moments:
    """Exact first moments of the synthetic law, indexed by s."""

    mean_eta: tuple[float, float]  # E[eta(X, s) | S = s]
    joint: tuple[float, float]  # P(Y = 1, S = s)
    p_positive: float  # P(Y = 1)


def exact_moments(dist: SyntheticDistribution, n_points: int = 2**17 + 1) -> Moments:
    """Group means of eta and joint positives via composite Simpson quadrature."""
    means = tuple(_simpson(g.eta, 0.0, 1.0, n_points) for g in dist.groups)
    joint = tuple(m * p for m, p in zip(means, dist.pi))
    return Moments(mean_eta=means, joint=joint, p_positive=sum(joint))


def risk_direct_quadrature(dist: SyntheticDistribution, region_starts, n_points: int = 4097) -> float:
    """Misclassification probability by quadrature on each decision region."""
    total = 0.0
    for s, g in enumerate(dist.groups):
        u = min(max(region_starts[s], 0.0), 1.0)
        miss = _simpson(g.eta, 0.0, u, n_points) + _simpson(lambda x: 1.0 - g.eta(x), u, 1.0, n_points)
        total += dist.pi[s] * miss
    return total


def region_starts_scalar(dist: SyntheticDistribution, theta: float, joints) -> tuple[float, float]:
    """The lower ends u_s of the acceptance regions at one theta, one group at a time (1.0 if empty)."""
    starts = []
    for s, factor in ((0, 2.0 + theta / joints[0]), (1, 2.0 - theta / joints[1])):
        starts.append(1.0 if factor <= 0.0 else float(dist.groups[s].eta_inverse(1.0 / factor)))
    return tuple(starts)


def plugin_at_infinite_data(dist: SyntheticDistribution) -> FairClassifier:
    """The plug-in rule fed with exact scores and exact group statistics."""
    sol = solve_theta_star(dist)
    means, joints = _closed_form_joints(dist)
    stats = GroupStatistics(p=dist.pi, mean_score=means, joint=joints)
    return FairClassifier(model=external_score_model(), theta_hat=sol.theta_star, stats=stats, mode="aware")


def random_distribution(rng: np.random.Generator) -> SyntheticDistribution:
    """Random valid distribution (used by property tests)."""
    pi_1 = float(rng.uniform(0.25, 0.75))
    groups = []
    for _ in range(2):
        k = int(rng.integers(2, 6))
        du = rng.uniform(0.2, 1.0, size=k - 1)
        u = np.concatenate([[0.0], np.cumsum(du) / du.sum()])
        u[-1] = 1.0
        lo = float(rng.uniform(0.02, 0.40))
        hi = float(rng.uniform(0.55, 0.98))
        de = rng.uniform(0.05, 1.0, size=k - 1)
        e = lo + (hi - lo) * np.concatenate([[0.0], np.cumsum(de) / de.sum()])
        e[-1] = hi
        loc = float(rng.uniform(-1.0, 1.0))
        scale = float(rng.uniform(0.5, 2.0))
        groups.append(GroupSpec(loc, scale, tuple((float(a), float(b)) for a, b in zip(u, e))))
    return SyntheticDistribution(pi_1, tuple(groups))
