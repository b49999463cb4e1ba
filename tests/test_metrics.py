import numpy as np
import pytest

from fairthresh.errors import SchemaError
from fairthresh.metrics import accuracy, deo


class TestAccuracy:
    def test_identity(self):
        y = np.array([1, 0, 1, 1])
        assert accuracy(y, y) == 1.0

    def test_complement(self):
        y = np.array([1, 0, 1, 1])
        assert accuracy(1 - y, y) == 0.0

    def test_counting(self):
        assert accuracy(np.array([1, 0, 1, 1]), np.array([1, 0, 0, 1])) == 0.75

    def test_length_mismatch(self):
        with pytest.raises(SchemaError):
            accuracy(np.array([1, 0]), np.array([1]))

    def test_accuracy_plus_risk_is_one(self):
        rng = np.random.default_rng(0)
        pred, y = rng.integers(0, 2, 100), rng.integers(0, 2, 100)
        risk = float((pred != y).mean())
        assert accuracy(pred, y) + risk == 1.0


class TestDeo:
    def test_direct_count(self):
        # group1 positives predicted {1,0}; group0 positives predicted {1,1}
        pred = np.array([1, 0, 1, 1, 0])
        labels = np.array([1, 1, 1, 1, 0])
        sens = np.array([1, 1, 0, 0, 0])
        rep = deo(pred, labels, sens)
        assert rep.tpr_per_group == (1.0, 0.5)
        assert rep.deo == 0.5
        assert rep.n_positives_per_group == (2, 2)

    def test_constant_classifiers_are_fair(self):
        labels = np.array([1, 0, 1, 1, 0, 1])
        sens = np.array([0, 0, 0, 1, 1, 1])
        assert deo(np.zeros(6, dtype=int), labels, sens).deo == 0.0
        assert deo(np.ones(6, dtype=int), labels, sens).deo == 0.0

    def test_no_positives_flags_undefined(self):
        pred = np.array([1, 0, 1])
        labels = np.array([0, 0, 1])
        sens = np.array([0, 0, 1])
        rep = deo(pred, labels, sens)
        assert rep.deo is None
        assert "deo_undefined" in rep.flags
        assert rep.tpr_per_group[0] is None

    def test_symmetric_in_group_relabeling(self):
        rng = np.random.default_rng(1)
        pred, labels, sens = rng.integers(0, 2, (3, 200))
        a = deo(pred, labels, sens)
        b = deo(pred, labels, 1 - sens)
        assert a.deo == b.deo

    def test_report_serializes(self):
        import json
        from dataclasses import asdict

        rep = deo(np.array([1, 0]), np.array([1, 1]), np.array([0, 1]))
        json.dumps(asdict(rep))


@pytest.mark.parametrize(
    "pred, labels, sensitive",
    [
        ([1, 1, 0, 1], [1, 1, 1, 1], [0, 2, 1, 1]),  # the S = 2 row used to drop out, leaving DEO 0.5
        ([1, 1, 0, 1], [1, 2, 1, 1], [0, 0, 1, 1]),  # the label 2 used to count as a negative
        ([1, 0.5, 0, 1], [1, 1, 1, 1], [0, 0, 1, 1]),
        ([1, 1, 0, 1], [1, 1, np.nan, 1], [0, 0, 1, 1]),
    ],
)
def test_values_other_than_0_and_1_raise(pred, labels, sensitive):
    with pytest.raises(SchemaError, match="must be 0 or 1"):
        deo(np.array(pred), np.array(labels), np.array(sensitive))
    if 2 not in sensitive:
        with pytest.raises(SchemaError, match="must be 0 or 1"):
            accuracy(np.array(pred), np.array(labels))
