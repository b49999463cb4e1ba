"""The per-column fold evaluation that ``fairthresh.benchmark._evaluate`` replaced, used only by the tests.

Each (fold, grid point) pair was one call: ``calibrate_scores`` on the grid
point's own calibration column (group statistics from a boolean mask per
group, then one ``_Objective``), one ``predict_from_scores`` and one ``deo``
per method arm.  The batched evaluation of a fold's whole grid must give
the same bits for every grid row.  ``_Objective`` and ``_switch_points`` are
unchanged, so this module uses them as they are.  Tests import this module
as they import conftest.
"""

from dataclasses import replace

import numpy as np

from fairthresh.calibration import FairClassifier, GroupStatistics, _Objective, _switch_points
from fairthresh.errors import GroupCoverageError, SchemaError
from fairthresh.estimators import external_score_model, floor_value
from fairthresh.metrics import EvaluationReport


def column_scores(mode, scores_s0, scores_s1, sensitive, marginal) -> np.ndarray:
    """calibration._column_scores as it was, one-dimensional columns only."""
    names = ("scores_s0", "scores_s1", "sensitive" if mode == "aware" else "marginal")
    columns = [scores_s0, scores_s1, sensitive if mode == "aware" else marginal]
    if any(c is None for c in columns):
        raise SchemaError(f"{mode} mode needs {', '.join(names)}")
    s0, s1, third = columns = [np.asarray(c, dtype=np.float64) for c in columns]
    if s0.ndim != 1 or len({c.shape for c in columns}) > 1:
        raise SchemaError("score columns must be one-dimensional and row-aligned")
    for name, c in zip(names, columns if mode == "blind" else columns[: 1 if s0 is s1 else 2]):
        if not (c.min(initial=0.0) >= 0.0 and c.max(initial=1.0) <= 1.0):
            raise SchemaError(f"{name} must hold scores in [0, 1]")
    if mode == "blind":
        return np.stack(columns)
    if not ((third == 0) | (third == 1)).all():
        raise SchemaError("sensitive values must be 0 or 1")
    return np.where(third == 1, s1, s0)


def group_statistics(scores: np.ndarray, sensitive: np.ndarray) -> GroupStatistics:
    """calibration.group_statistics as it was: one boolean mask and one 1-D mean per group."""
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


def calibrate_scores(scores_s0, scores_s1, sensitive=None, marginal=None, mode="aware") -> FairClassifier:
    """calibration.calibrate_scores and its core, _calibrate, as they were: one column per call."""
    scores = column_scores(mode, scores_s0, scores_s1, sensitive, marginal)
    c = floor_value(scores.shape[-1])
    model = external_score_model(floor=c, mode=mode)
    scores = np.maximum(scores, c, out=scores)
    stats = None
    if mode == "aware":
        sensitive = np.asarray(sensitive)
        stats = group_statistics(scores, sensitive)
        objective = _Objective("aware", (scores[sensitive == 1], scores[sensitive == 0]), stats.joint)
    else:
        objective = _Objective("blind", scores)
    theta, value = objective.argmin()
    means = objective.constants if stats is None else None
    return FairClassifier(model, theta, stats, blind_means=means, unfairness_hat=value)


def predict_from_scores(clf, scores_s0=None, scores_s1=None, sensitive=None, marginal=None) -> np.ndarray:
    """FairClassifier.predict_from_scores and _decide as they were, for one classifier."""
    scores = np.maximum(column_scores(clf.mode, scores_s0, scores_s1, sensitive, marginal), clf.model.floor)
    constants = clf.stats.joint if clf.mode == "aware" else clf.blind_means
    bp, rising = _switch_points(clf.mode, scores, sensitive, constants)
    return np.where(rising, clf.theta_hat >= bp, clf.theta_hat <= bp).astype(np.int64)


def deo(pred, labels, sensitive) -> EvaluationReport:
    """metrics.deo as it was, for one prediction vector (inputs already checked)."""
    tprs, npos = [], []
    for s in (0, 1):
        pos = (sensitive == s) & (labels == 1)
        npos.append(int(pos.sum()))
        tprs.append(float(pred[pos].mean()) if pos.any() else None)
    undefined = tprs[0] is None or tprs[1] is None
    return EvaluationReport(
        accuracy=float((pred == labels).mean()),
        deo=None if undefined else abs(tprs[1] - tprs[0]),
        tpr_per_group=(tprs[0], tprs[1]),
        n_positives_per_group=(npos[0], npos[1]),
        flags=("deo_undefined",) if undefined else (),
    )


def columns(scores, sensitive, mode) -> dict:
    """calibration._columns as it was: one score column, or the three rows of a blind one."""
    if mode == "aware":
        return {"scores_s0": scores, "scores_s1": scores, "sensitive": sensitive}
    return dict(zip(("scores_s0", "scores_s1", "marginal"), scores))


def evaluate(cal, test, mode, methods) -> dict:
    """benchmark._evaluate as it was: one grid point's (scores, S) and (scores, labels, S) to
    {method: (report, classifier)}."""
    clf = calibrate_scores(**columns(*cal, mode), mode=mode)
    scores, labels, sensitive = test
    arms = {"plugin": clf, "bayes": replace(clf, theta_hat=0.0)}
    held = columns(scores, sensitive, mode)
    return {m: (deo(predict_from_scores(arms[m], **held), labels, sensitive), arms[m]) for m in methods}
