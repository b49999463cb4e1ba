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

    def to_json(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "deo": self.deo,
            "tpr_per_group": list(self.tpr_per_group),
            "n_positives_per_group": list(self.n_positives_per_group),
            "flags": list(self.flags),
        }


def _check_binary_aligned(*arrays):
    out = [np.asarray(a) for a in arrays]
    n = out[0].shape[0]
    if n < 1:
        raise SchemaError("accuracy needs at least one row")
    for a in out:
        if a.shape != (n,):
            raise SchemaError(f"arrays misaligned: {[x.shape for x in out]}")
        bad = a != a.astype(bool)  # any value other than 0 and 1, NaN included
        if bad.any():
            raise SchemaError(f"predictions, labels and sensitive values must be 0 or 1, got {a[bad][0]}")
    return out


def accuracy(pred, labels) -> float:
    """Fraction of matching entries (1 minus the empirical risk)."""
    pred, labels = _check_binary_aligned(pred, labels)
    return float((pred == labels).mean())


def deo(pred, labels, sensitive) -> EvaluationReport:
    """Accuracy, per-group TPRs and their absolute gap on labeled data.

    A group without positive labels leaves its TPR (and the DEO) undefined;
    the report then carries the deo_undefined flag instead of raising.
    """
    pred, labels, sensitive = _check_binary_aligned(pred, labels, sensitive)
    tprs: list[float | None] = []
    npos: list[int] = []
    flags: list[str] = []
    for s in (0, 1):
        pos = (sensitive == s) & (labels == 1)
        npos.append(int(pos.sum()))
        tprs.append(float(pred[pos].mean()) if pos.any() else None)
    if tprs[0] is None or tprs[1] is None:
        flags.append("deo_undefined")
        gap = None
    else:
        gap = abs(tprs[1] - tprs[0])
    return EvaluationReport(
        accuracy=float((pred == labels).mean()),  # accuracy() without checking the arrays again
        deo=gap,
        tpr_per_group=(tprs[0], tprs[1]),
        n_positives_per_group=(npos[0], npos[1]),
        flags=tuple(flags),
    )
