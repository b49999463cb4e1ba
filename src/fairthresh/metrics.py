"""Test-set accuracy and difference of equal opportunity (DEO).

deo here is the label-based gap |TPR_1 - TPR_0| measured on labeled
evaluation data; it is distinct from the score-weighted surrogate
calibration.empirical_unfairness used during threshold fitting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SchemaError


@dataclass(frozen=True)
class EvaluationReport:
    accuracy: float
    deo: float | None
    tpr_per_group: tuple[float | None, float | None]  # indexed by s
    n_positives_per_group: tuple[int, int]
    flags: tuple[str, ...] = ()


def _check_binary_aligned(*arrays, rows: bool = False):
    """The arrays, each of 0/1 values and of shape (n,), n >= 1; with rows, the first may be (R, n)."""
    out = [np.asarray(a) for a in arrays]
    n = out[-1].shape[0] if out[-1].ndim else 0
    if n < 1:
        raise SchemaError("accuracy needs at least one row")
    for a in out:
        if a.shape != (n,) and not (rows and a is out[0] and a.ndim == 2 and a.shape[1] == n):
            raise SchemaError(f"arrays misaligned: {[x.shape for x in out]}")
        bad = a != a.astype(bool)  # any value other than 0 and 1, NaN included
        if bad.any():
            raise SchemaError(f"predictions, labels and sensitive values must be 0 or 1, got {a[bad][0]}")
    return out


def accuracy(pred, labels) -> float:
    """Fraction of matching entries (1 minus the empirical risk)."""
    pred, labels = _check_binary_aligned(pred, labels)
    return float((pred == labels).mean())


def deo(pred, labels, sensitive) -> EvaluationReport | list[EvaluationReport]:
    """Accuracy, per-group TPRs and their absolute gap on labeled data.

    A group without positive labels leaves its TPR (and the DEO) undefined;
    the report then carries the deo_undefined flag instead of raising.
    Predictions with rows, (R, n), that share the labels and sensitive
    values give one report per row, from one pass over the matrix.
    """
    pred, labels, sensitive = _check_binary_aligned(pred, labels, sensitive, rows=True)
    rows = np.atleast_2d(pred)
    # means of 0/1 values are exact, so a row's means equal its own 1-D means
    accuracies = (rows == labels).mean(axis=1).tolist()
    tprs: list[list] = []
    npos: list[int] = []
    for s in (0, 1):
        pos = (sensitive == s) & (labels == 1)
        npos.append(int(pos.sum()))
        tprs.append(rows.compress(pos, axis=1).mean(axis=1).tolist() if npos[-1] else [None] * len(rows))
    flags = ("deo_undefined",) if 0 in npos else ()
    reports = [
        EvaluationReport(
            accuracy=acc,
            deo=None if flags else abs(tpr1 - tpr0),
            tpr_per_group=(tpr0, tpr1),
            n_positives_per_group=(npos[0], npos[1]),
            flags=flags,
        )
        for acc, tpr0, tpr1 in zip(accuracies, *tprs)
    ]
    return reports if pred.ndim == 2 else reports[0]
