import contextlib
import csv
import io
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import write_csv
from hypothesis import given, settings
from hypothesis import strategies as st

from fairthresh.calibration import FairClassifier
from fairthresh.cli import main
from fairthresh.data import load_csv
from fairthresh.oracle import linear_distribution, sample

DIST = linear_distribution(0.35, 0.3, 0.05, 0.9, 0.5)


@pytest.fixture(scope="module")
def train_csv(tmp_path_factory):
    p = tmp_path_factory.mktemp("data") / "train.csv"
    write_csv(p, sample(DIST, 800, 3))
    return str(p)


@pytest.fixture(scope="module")
def test_csv(tmp_path_factory):
    p = tmp_path_factory.mktemp("data") / "test.csv"
    write_csv(p, sample(DIST, 400, 4))
    return str(p)


def _read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _read_csv(path) -> list[list[str]]:
    return list(csv.reader(Path(path).read_text(encoding="utf-8").splitlines()))


def _model(tmp_path, train_csv, *extra):
    out = str(tmp_path / "model.json")
    assert main(["calibrate", "--train", train_csv, "--out", out, *extra]) == 0
    return out


class TestCalibrate:
    def test_reuse_train_prints_theta(self, tmp_path, train_csv, capsys):
        out = _model(tmp_path, train_csv)
        text = capsys.readouterr().out
        assert "theta_hat" in text and "unfairness_hat" in text
        model = _read_json(out)
        assert model["mode"] == "aware"
        assert abs(model["theta_hat"]) <= 2.0

    def test_misaligned_scores_exit_2(self, tmp_path, train_csv):
        scores = tmp_path / "scores.csv"
        scores.write_text("score_s0,score_s1\n0.5,0.5\n0.4,0.6\n")
        code = main(["calibrate", "--train", train_csv, "--scores", str(scores)])
        assert code == 2

    def test_blind_without_sensitive_in_unlabeled(self, tmp_path, train_csv):
        unl = tmp_path / "unl.csv"
        rng = np.random.default_rng(0)
        with open(unl, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x1"])
            w.writerows([[f"{v:.6f}"] for v in rng.random(50)])
        out = str(tmp_path / "blind.json")
        code = main([
            "calibrate", "--train", train_csv, "--unlabeled", str(unl),
            "--mode", "blind", "--out", out,
        ])
        assert code == 0
        assert _read_json(out)["stats"] is None

    def test_blind_ignores_sensitive_group_sizes(self, tmp_path, train_csv):
        # one S=1 row: too few for aware calibration, and blind calibration never reads S
        unl = _write(tmp_path / "unl.csv", "x1,S\n" + "".join(f"0.{i},{int(i == 0)}\n" for i in range(10)))
        assert main(["calibrate", "--train", train_csv, "--unlabeled", unl, "--mode", "blind"]) == 0
        assert main(["calibrate", "--train", train_csv, "--unlabeled", unl]) == 3

    def test_model_records_format_version_and_unfairness_hat(self, tmp_path, train_csv, capsys):
        model = _read_json(_model(tmp_path, train_csv))
        assert model["format_version"] == 1
        assert f"unfairness_hat  {model['unfairness_hat']:.10g}\n" in capsys.readouterr().out

    def test_group_coverage_exit_3(self, tmp_path, train_csv):
        unl = tmp_path / "unl.csv"
        unl.write_text("x1,S\n0.1,1\n0.2,1\n0.3,1\n0.4,0\n")  # group 0 has 1 row
        code = main(["calibrate", "--train", train_csv, "--unlabeled", str(unl)])
        assert code == 3

    def test_blind_scores_without_breakpoints_pick_zero(self, tmp_path, train_csv):
        # score_s0 == score_s1 makes the blind direction 0 on every row: no breakpoints at all
        rows = "".join(f"{v},{v},{v}\n" for v in np.linspace(0.1, 0.9, 800))
        scores = _write(tmp_path / "scores.csv", "score_s0,score_s1,score_marginal\n" + rows)
        out = str(tmp_path / "blind.json")
        assert main(["calibrate", "--train", train_csv, "--scores", scores, "--mode", "blind", "--out", out]) == 0
        assert _read_json(out)["theta_hat"] == 0.0

    def test_external_scores_path(self, tmp_path, train_csv):
        n = 800
        rng = np.random.default_rng(1)
        scores = tmp_path / "scores.csv"
        with open(scores, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["score_s0", "score_s1"])
            w.writerows([[f"{a:.6f}", f"{b:.6f}"] for a, b in rng.random((n, 2))])
        out = str(tmp_path / "ext.json")
        assert main(["calibrate", "--train", train_csv, "--scores", str(scores), "--out", out]) == 0
        assert _read_json(out)["model"]["kind"] == "external"


class TestEvaluatePredict:
    def test_evaluate_prints_metrics(self, tmp_path, train_csv, test_csv, capsys):
        model = _model(tmp_path, train_csv)
        assert main(["evaluate", "--model", model, "--test", test_csv]) == 0
        text = capsys.readouterr().out
        assert "accuracy" in text and "deo_test" in text and "tpr_s0" in text

    def test_deo_undefined_still_exit_0(self, tmp_path, train_csv, capsys):
        model = _model(tmp_path, train_csv)
        bad = tmp_path / "nopos.csv"
        bad.write_text("x1,S,Y\n0.1,0,0\n0.2,0,0\n0.5,1,1\n0.6,1,0\n")
        assert main(["evaluate", "--model", model, "--test", str(bad)]) == 0
        assert "deo_undefined" in capsys.readouterr().out

    def test_missing_sensitive_column_exit_2(self, tmp_path, train_csv):
        model = _model(tmp_path, train_csv)
        bad = tmp_path / "no_s.csv"
        bad.write_text("x1,Y\n0.1,0\n0.2,1\n")
        assert main(["evaluate", "--model", model, "--test", str(bad)]) == 2

    def test_predict_writes_csv(self, tmp_path, train_csv, test_csv):
        model = _model(tmp_path, train_csv)
        out = tmp_path / "pred.csv"
        assert main(["predict", "--model", model, "--data", test_csv, "--out", str(out)]) == 0
        rows = _read_csv(out)
        assert rows[0] == ["prediction"]
        assert len(rows) == 401
        assert set(r[0] for r in rows[1:]) <= {"0", "1"}

    def test_predict_csv_bytes_are_csv_writer_bytes(self, tmp_path, train_csv, test_csv):
        model = _model(tmp_path, train_csv)
        out = tmp_path / "pred.csv"
        assert main(["predict", "--model", model, "--data", test_csv, "--out", str(out)]) == 0
        data = load_csv(test_csv, "S", "Y")
        pred = FairClassifier.from_json(_read_json(model)).predict(data.features, data.sensitive)
        expected = io.StringIO(newline="")
        csv.writer(expected).writerows([["prediction"], *([int(p)] for p in pred)])
        assert out.read_bytes() == expected.getvalue().encode("utf-8")
        assert out.read_bytes().count(b"\r\n") == 401

    def test_constant_predictions_have_zero_deo(self, tmp_path, test_csv, capsys):
        # theta far negative makes group-1 always accept and group-0 region empty; use
        # a constant-scores external model instead: all rows predicted positive
        model = tmp_path / "const.json"
        model.write_text(json.dumps({
            "mode": "aware", "theta_hat": 0.0,
            "stats": {"p": [0.5, 0.5], "mean_score": [0.9, 0.9], "joint": [0.45, 0.45]},
            "blind_means": None,
            "model": {"kind": "logistic", "mode": "aware", "floor": 1e-6,
                       "jitter_amplitude": 0.0, "converged": True,
                       "groups": [{"weights": [0.0], "intercept": 50.0},
                                   {"weights": [0.0], "intercept": 50.0}],
                       "marginal": None},
        }))
        assert main(["evaluate", "--model", str(model), "--test", test_csv]) == 0
        out = capsys.readouterr().out
        assert "deo_test   0.000000" in out


class TestBenchmarkCommands:
    def test_benchmark_csv_rows(self, tmp_path, train_csv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"logistic_grid": [1e-4], "n_repeats": 3, "cv_folds": 3, "seed": 1}))
        out_json = tmp_path / "report.json"
        out_csv = tmp_path / "rows.csv"
        code = main([
            "benchmark", "--data", train_csv, "--config", str(cfg),
            "--out", str(out_json), "--csv", str(out_csv),
        ])
        assert code == 0
        rows = _read_csv(out_csv)
        assert rows[0][:4] == ["method", "repeat", "param", "acc"]
        assert len(rows) == 1 + 3 * 2  # two methods, three repeats

    def test_benchmark_deterministic_output(self, tmp_path, train_csv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"logistic_grid": [1e-4], "n_repeats": 2, "cv_folds": 3, "seed": 5}))
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main(["benchmark", "--data", train_csv, "--config", str(cfg), "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_duplicate_methods_exit_5(self, train_csv, capsys):
        assert main(["benchmark", "--data", train_csv, "--methods", "plugin,bayes,plugin"]) == 5
        assert "'plugin' is listed more than once" in capsys.readouterr().err

    def test_sweep_bad_fractions_exit_5(self, tmp_path, train_csv):
        code = main([
            "sweep-unlabeled", "--data", train_csv, "--labeled-fraction", "0.5",
            "--fractions", "0,0.8", "--repeats", "2",
        ])
        assert code == 5

    def test_config_column_names_apply_without_flags(self, tmp_path, train_csv):
        data = _write(tmp_path / "g.csv", Path(train_csv).read_text(encoding="utf-8").replace("x1,S,Y", "x1,G,Y", 1))
        cfg = _write(tmp_path / "cfg.json", json.dumps({"sensitive_col": "G", "logistic_grid": [1e-4], "n_repeats": 1}))
        assert main(["benchmark", "--data", data, "--config", cfg]) == 0

    def test_benchmark_two_unlabeled_sources_exit_5(self, tmp_path, train_csv, capsys):
        # a pool file and a carved fraction would calibrate the final refit and the CV on different sources
        cfg = _write(tmp_path / "cfg.json", json.dumps({"logistic_grid": [1e-4], "n_repeats": 1}))
        code = main(["benchmark", "--data", train_csv, "--config", cfg, "--unlabeled", train_csv,
                     "--unlabeled-fraction", "0.3"])
        assert code == 5
        assert "unlabeled" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--train-fraction", "--unlabeled-fraction"])
    def test_sweep_has_no_benchmark_only_flag(self, train_csv, flag):
        # the sweep sets both the labeled and the unlabeled part itself
        with pytest.raises(SystemExit) as exc:
            main(["sweep-unlabeled", "--data", train_csv, flag, "0.3"])
        assert exc.value.code == 2



class TestConsistencyCommand:
    def test_malformed_dist_exit_2(self, tmp_path):
        bad = tmp_path / "dist.json"
        bad.write_text("{not json")
        assert main(["consistency", "--dist", str(bad)]) == 2

    def test_runs_and_writes_csv(self, tmp_path):
        dist = tmp_path / "dist.json"
        dist.write_text(json.dumps(DIST.to_json()))
        out = tmp_path / "table.csv"
        code = main([
            "consistency", "--dist", str(dist), "--N-grid", "50,100",
            "--repeats", "2", "--test-size", "1000", "--out", str(out),
        ])
        assert code == 0
        rows = _read_csv(out)
        assert rows[0][0:2] == ["n", "N"]
        assert len(rows) == 3

    def test_bitwise_stable_csv(self, tmp_path):
        dist = tmp_path / "dist.json"
        dist.write_text(json.dumps(DIST.to_json()))
        contents = []
        for name in ("t1.csv", "t2.csv"):
            out = tmp_path / name
            assert main([
                "consistency", "--dist", str(dist), "--N-grid", "50",
                "--repeats", "1", "--test-size", "500", "--out", str(out),
            ]) == 0
            contents.append(out.read_bytes())
        assert contents[0] == contents[1]

    @pytest.mark.parametrize("estimator", ["exact", "logistic", "knn"])
    def test_calibration_sample_needs_two_rows_per_group(self, tmp_path, capsys, estimator):
        # at seed 1 the first calibration draw of N=4 rows from this law has a group with one row
        law = {"pi_1": 0.5, "groups": [
            {"location": 0.0, "scale": 1.0, "knots": [[0, 0.35], [1, 0.65]]},
            {"location": 0.0, "scale": 1.0, "knots": [[0, 0.05], [1, 0.95]]},
        ]}
        dist = _write(tmp_path / "dist.json", json.dumps(law))
        argv = ["consistency", "--dist", dist, "--estimator", estimator, "--N-grid", "4", "--seed", "1",
                "--repeats", "1", "--test-size", "1000"]
        assert main(argv) == 3
        assert "at least 2 rows" in capsys.readouterr().err


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def _scores_800(tmp_path, bad_row):
    """Score file aligned with train_csv (800 rows) whose row 5 is bad_row."""
    rows = ["0.5,0.5"] * 800
    rows[5] = bad_row
    return _write(tmp_path / "scores.csv", "score_s0,score_s1\n" + "\n".join(rows) + "\n")


# one bad flag value on an otherwise valid sweep-unlabeled or consistency call
FLAG_CASES = {
    "consistency_n_grid_abc": ("--n-grid", "abc"),
    "consistency_N_grid_abc": ("--N-grid", "abc"),
    "consistency_seed_negative": ("--seed", "-1"),
    "sweep_fractions_abc": ("--fractions", "abc"),
    "sweep_fractions_empty_item": ("--fractions", "0.1,,0.2"),
    "sweep_fractions_nan": ("--fractions", "nan"),
}


def _probed_argv(case, tmp_path, train_csv, test_csv):
    if case == "predict_sensitive_2":
        data = _write(tmp_path / "d.csv", "x1,S,Y\n0.1,0,0\n0.2,2,1\n0.3,1,1\n")
        return ["predict", "--model", _model(tmp_path, train_csv), "--data", data]
    if case == "predict_nan_feature":
        data = _write(tmp_path / "d.csv", "x1,S,Y\n0.1,0,0\nnan,1,1\n0.3,1,1\n")
        return ["predict", "--model", _model(tmp_path, train_csv), "--data", data]
    if case == "predict_extra_feature_column":
        data = _write(tmp_path / "d.csv", "x1,x2,S\n0.1,0.5,0\n0.2,0.5,1\n")
        return ["predict", "--model", _model(tmp_path, train_csv), "--data", data]
    if case == "calibrate_nan_score":
        return ["calibrate", "--train", train_csv, "--scores", _scores_800(tmp_path, "nan,0.5")]
    if case == "calibrate_score_above_one":
        return ["calibrate", "--train", train_csv, "--scores", _scores_800(tmp_path, "7.5,0.5")]
    if case.startswith(("benchmark_config", "sweep_config")):
        config = {
            "benchmark_config_list": [1, 2],
            "benchmark_config_repeats_string": {"n_repeats": "abc"},
            "benchmark_config_grid_string": {"logistic_grid": ["a"]},
            # the sweep sets the unlabeled part per fraction itself
            "sweep_config_unlabeled_fraction": {"unlabeled": 0.3, "logistic_grid": [1e-4], "n_repeats": 1},
        }[case]
        command = "sweep-unlabeled" if case.startswith("sweep") else "benchmark"
        return [command, "--data", train_csv, "--config", _write(tmp_path / "cfg.json", json.dumps(config))]
    if case in FLAG_CASES:
        if case.startswith("sweep"):
            return ["sweep-unlabeled", "--data", train_csv, *FLAG_CASES[case]]
        dist = _write(tmp_path / "dist.json", json.dumps(DIST.to_json()))
        return ["consistency", "--dist", dist, "--N-grid", "50", "--repeats", "1", "--test-size", "100",
                *FLAG_CASES[case]]
    if case == "calibrate_lambda_nan":
        return ["calibrate", "--train", train_csv, "--l2-lambda", "nan"]
    if case in ("calibrate_jitter_nan", "calibrate_jitter_negative"):
        return ["calibrate", "--train", train_csv, "--jitter", "nan" if case.endswith("nan") else "-0.1"]
    if case == "predict_model_jitter_nan":
        model = _read_json(_model(tmp_path, train_csv, "--estimator", "knn"))
        model["model"]["jitter_amplitude"] = float("nan")
        return ["predict", "--model", _write(tmp_path / "bad.json", json.dumps(model)), "--data", test_csv]
    if case.startswith("knn_no_feature"):  # every distance would be 0, so the scores would follow the row order
        rows = np.random.default_rng(5).integers(0, 2, (400, 2))
        data = _write(tmp_path / "sy.csv", "S,Y\n" + "".join(f"{s},{y}\n" for s, y in rows))
        return {
            "knn_no_feature_calibrate": ["calibrate", "--train", data],
            "knn_no_feature_benchmark": ["benchmark", "--data", data],
            "knn_no_feature_benchmark_carve": ["benchmark", "--data", data, "--unlabeled-fraction", "0.3"],
            "knn_no_feature_sweep": ["sweep-unlabeled", "--data", data],
        }[case] + ["--estimator", "knn"]
    assert case == "calibrate_unlabeled_with_label"
    return ["calibrate", "--train", train_csv, "--unlabeled", test_csv]


@pytest.mark.parametrize(
    "case, code",
    [
        ("predict_sensitive_2", 2),
        ("predict_nan_feature", 2),
        ("predict_extra_feature_column", 2),
        ("calibrate_nan_score", 2),
        ("calibrate_score_above_one", 2),
        ("benchmark_config_list", 2),
        ("benchmark_config_repeats_string", 5),
        ("benchmark_config_grid_string", 5),
        ("sweep_config_unlabeled_fraction", 5),
        ("consistency_n_grid_abc", 2),
        ("consistency_N_grid_abc", 2),
        ("consistency_seed_negative", 5),
        ("sweep_fractions_abc", 2),
        ("sweep_fractions_empty_item", 2),
        ("sweep_fractions_nan", 5),
        ("calibrate_lambda_nan", 5),
        ("calibrate_jitter_nan", 5),
        ("calibrate_jitter_negative", 5),
        ("predict_model_jitter_nan", 2),
        ("knn_no_feature_calibrate", 5),
        ("knn_no_feature_benchmark", 5),
        ("knn_no_feature_benchmark_carve", 5),
        ("knn_no_feature_sweep", 5),
        # the label column of an unlabeled file is not a feature
        ("calibrate_unlabeled_with_label", 0),
    ],
)
def test_probed_input_defects(tmp_path, train_csv, test_csv, capsys, case, code):
    assert main(_probed_argv(case, tmp_path, train_csv, test_csv)) == code
    if code:
        assert "error:" in capsys.readouterr().err


BAD_NUMBERS = {"zero": 0.0, "negative": -0.5, "nan": float("nan"), "inf": float("inf")}
# id: (path to a field of an aware model file, its bad value ("absent" deletes the field), a fragment of the
# error message or None); every case from model_absent on used to load, and to predict or evaluate with exit 0
MODEL_FILE_CASES = {
    "theta_hat_abc": (("theta_hat",), "abc", None),
    "one_element_joint": (("stats", "joint"), [0.45], None),
    "model_list": (("model",), [1, 2], None),
    **{f"model_{name}": (("model",), v, "needs a score model")
       for name, v in {"absent": "absent", "null": None, "empty": {}, "zero": 0}.items()},
    **{f"{key}_{name}": (("stats", key, 0), v, f"stats.{key}")
       for key in ("joint", "mean_score") for name, v in BAD_NUMBERS.items()},
    **{f"blind_means_{name}": (("blind_means",), [0.5, v], "blind_means") for name, v in BAD_NUMBERS.items()},
    "floor_nan": (("model", "floor"), float("nan"), "floor"),
    "floor_negative": (("model", "floor"), -0.1, "floor"),
    "weight_nan": (("model", "groups", 0, "weights", 0), float("nan"), "logistic weights"),
    "intercept_inf": (("model", "groups", 1, "intercept"), float("inf"), "logistic weights"),
    "jitter_above_half": (("model", "jitter_amplitude"), 3.0, "jitter_amplitude"),
    # a third slot would make the score model blind, so its mode and the file's would disagree
    "marginal_in_aware": (("model", "marginal"), {"weights": [0.5], "intercept": 0.0}, "no marginal"),
    "blind_means_in_aware": (("blind_means",), [0.5, 0.5], "blind_means must be null"),
    # used to exit 2 with the message 'features', as if the logistic weights were k-NN parameters
    "external_with_parameters": (("model", "kind"), "external", "external score model holds no parameters"),
}

# the same for a blind logistic model file; stats_in_blind used to load, and to predict or evaluate with exit 0
BLIND_MODEL_FILE_CASES = {
    "stats_in_blind": (("stats",), {"p": [0.5, 0.5], "mean_score": [0.5, 0.5], "joint": [0.25, 0.25]},
                       "stats must be null"),
    **{f"blind_means_{name}": (("blind_means",), [0.5, v], "blind_means") for name, v in BAD_NUMBERS.items()},
}


# the same for a k-NN model file (k = 3); label_null, labels_not_a_list and features_one_dimensional used to
# exit 2 with a message that named no field, and the others to predict and evaluate with exit 0
KNN_MODEL_FILE_CASES = {
    **{f"label_{name}": (("model", "groups", 0, "labels", 0), v, "k-NN labels")
       for name, v in {"two": 2, "half": 0.5, "minus_three": -3, "true": True, "null": None}.items()},
    "labels_not_a_list": (("model", "groups", 1, "labels"), {"0": 1}, "k-NN labels"),
    "feature_nan": (("model", "groups", 1, "features", 0, 0), float("nan"), "k-NN features"),
    "features_one_dimensional": (("model", "groups", 0, "features"), [0.5] * 3, "k-NN features"),
    "features_no_column": (("model", "groups", 0, "features"), [[]] * 3, ">= 1 column"),
    **{f"k_{name}": (("model", "groups", 0, "k"), v, "k-NN k")
       for name, v in {"fraction": 2.7, "true": True, "string": "3"}.items()},
}


@pytest.mark.parametrize("case", list(MODEL_FILE_CASES))
def test_malformed_model_file_exit_2(tmp_path, train_csv, test_csv, capsys, case):
    _assert_malformed_model_exit_2(_model(tmp_path, train_csv), *MODEL_FILE_CASES[case], tmp_path, test_csv, capsys)


@pytest.mark.parametrize("case", list(KNN_MODEL_FILE_CASES))
def test_malformed_knn_model_file_exit_2(tmp_path, train_csv, test_csv, capsys, case):
    model = _model(tmp_path, train_csv, "--estimator", "knn", "--knn-k", "3")
    _assert_malformed_model_exit_2(model, *KNN_MODEL_FILE_CASES[case], tmp_path, test_csv, capsys)


@pytest.mark.parametrize("case", list(BLIND_MODEL_FILE_CASES))
def test_malformed_blind_model_file_exit_2(tmp_path, train_csv, test_csv, capsys, case):
    model = _model(tmp_path, train_csv, "--mode", "blind")
    _assert_malformed_model_exit_2(model, *BLIND_MODEL_FILE_CASES[case], tmp_path, test_csv, capsys)


def test_blind_logistic_model_without_marginal_exit_2(tmp_path, train_csv, test_csv, capsys):
    # it used to load, and to fail only once it scored rows
    model = _model(tmp_path, train_csv, "--mode", "blind")
    _assert_malformed_model_exit_2(model, ("model", "marginal"), None, "of the marginal", tmp_path, test_csv, capsys)


@pytest.mark.parametrize("mode, other, block", [("blind", "aware", "stats"), ("aware", "blind", "blind_means")])
def test_model_file_mode_against_its_score_model_exit_2(tmp_path, train_csv, test_csv, capsys, mode, other, block):
    """A top-level mode that contradicts the score model's slots exits 2, also with that mode's block in place."""
    # these used to predict 3 rows of Python lists for 400 (blind to aware) and to end in a traceback (aware to blind)
    path = _model(tmp_path, train_csv, "--mode", mode)
    model = _read_json(path)
    stats = {"p": [0.5, 0.5], "mean_score": [0.5, 0.5], "joint": [0.25, 0.25]}
    model[block] = stats if block == "stats" else [0.5, 0.5]
    _write(Path(path), json.dumps(model))
    _assert_malformed_model_exit_2(path, ("mode",), other, f"mode {other!r} differs", tmp_path, test_csv, capsys)


def _assert_malformed_model_exit_2(model_path, path, value, message, tmp_path, test_csv, capsys):
    """predict and evaluate exit 2 on the model file with one field set to value, also with a scores file."""
    model = _read_json(model_path)
    node = model
    for key in path[:-1]:
        node = node[key]
    if value == "absent":
        del node[path[-1]]
    else:
        node[path[-1]] = value
    bad = _write(tmp_path / "bad.json", json.dumps(model))
    scores = _write(tmp_path / "scores.csv", "score_s0,score_s1\n" + "0.5,0.5\n" * 400)  # aligned with test_csv
    capsys.readouterr()
    for flags in ([], ["--scores", scores]):  # also when the model's own scores go unused
        assert main(["predict", "--model", bad, "--data", test_csv, *flags]) == 2
        assert main(["evaluate", "--model", bad, "--test", test_csv, *flags]) == 2
    if message:
        assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["calibrate", "--train", "{missing}"],
        ["predict", "--model", "{missing}", "--data", "{test}"],
        ["benchmark", "--data", "{train}", "--config", "{missing}"],
        ["consistency", "--dist", "{missing}"],
    ],
    ids=["csv", "model", "benchmark_config", "distribution"],
)
def test_missing_input_file_exit_2(tmp_path, train_csv, test_csv, capsys, argv):
    paths = {"{missing}": str(tmp_path / "missing"), "{train}": train_csv, "{test}": test_csv}
    assert main([paths.get(a, a) for a in argv]) == 2
    assert "error:" in capsys.readouterr().err


def test_blank_data_lines_print_only_the_error(tmp_path, capsys):
    # numpy's loadtxt warns when every data line is blank; that warning used to print ahead of the error
    path = _write(tmp_path / "t.csv", "x1,S,Y\n\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["calibrate", "--train", path]) == 2
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == f"error: {path}: row 0 has 1 cells, header has 3\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["calibrate", "--train", "{train}", "--out", "{bad}"],
        ["predict", "--model", "{model}", "--data", "{test}", "--out", "{bad}"],
        ["benchmark", "--data", "{train}", "--config", "{config}", "--csv", "{bad}"],
        ["sweep-unlabeled", "--data", "{train}", "--config", "{config}", "--fractions", "0", "--out", "{bad}"],
        ["consistency", "--dist", "{dist}", "--N-grid", "50", "--repeats", "1", "--test-size", "500", "--out", "{bad}"],
    ],
    ids=["calibrate", "predict", "benchmark", "sweep-unlabeled", "consistency"],
)
def test_unwritable_output_exit_2(tmp_path, train_csv, test_csv, capsys, argv):
    bad = str(tmp_path / "no_such_dir" / "out")
    paths = {
        "{bad}": bad, "{train}": train_csv, "{test}": test_csv,
        "{model}": _model(tmp_path, train_csv) if "{model}" in argv else None,
        "{config}": _write(tmp_path / "cfg.json", json.dumps({"logistic_grid": [1e-4], "n_repeats": 1, "cv_folds": 3})),
        "{dist}": _write(tmp_path / "dist.json", json.dumps(DIST.to_json())),
    }
    assert main([paths.get(a, a) for a in argv]) == 2
    assert f"error: {bad}: cannot write the file" in capsys.readouterr().err


# --- property test: malformed input always ends in a documented exit code ----

ROWS = [[f"0.{i + 1}", str(i // 2 % 2), str(i % 2)] for i in range(8)]
SCORES = [["0.5", "0.25", "0.375"]] * 8
NOT_A_NUMBER = ["", "abc", "nan", "-inf", "1e999", "0x10", "1..5", '"0.5"']
NOT_BINARY = NOT_A_NUMBER + ["2", "-1", "0.5"]
NOT_A_SCORE = NOT_A_NUMBER + ["-0.25", "1.5", "7.5"]
CORRUPTIONS = ("cell", "short_row", "long_row", "blank_line", "no_header", "empty", "rename")


@st.composite
def broken_csv(draw, header, rows, bad_cells, required, hows=CORRUPTIONS):
    """CSV text made malformed by one drawn corruption of a valid table."""
    rows = [list(r) for r in rows]
    r = draw(st.integers(0, len(rows) - 1))
    how = draw(st.sampled_from(hows))
    if how == "cell":
        c = draw(st.integers(0, len(header) - 1))
        rows[r][c] = draw(st.sampled_from(bad_cells[c]))
    elif how == "short_row":
        rows[r].pop()
    elif how == "long_row":
        rows[r].append("0")
    elif how == "drop_row":
        del rows[r]
    elif how == "rename":
        header = [h + "_" if h == required else h for h in header]
    elif how in ("duplicate_name", "blank_name"):
        # one more column, named like an existing one or not named at all
        header = header + [draw(st.sampled_from(header)) if how == "duplicate_name" else ""]
        rows = [row + ["0"] for row in rows]
    lines = [",".join(header)] + [",".join(row) for row in rows]
    if how == "blank_line":
        lines.insert(r + 1, "")
    return {"no_header": "\n".join(lines[1:]), "empty": ""}.get(how, "\n".join(lines)) + "\n"


JUNK = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=5), st.lists(st.integers(), max_size=3))


@st.composite
def broken_model(draw, base):
    """Model JSON text made malformed by one drawn corruption of a valid aware model."""
    model = json.loads(json.dumps(base))
    how = draw(st.sampled_from(
        ["version", "mode", "theta", "stats", "vector", "numbers", "model", "weights", "null_group", "jitter", "drop",
         "whole"]
    ))
    if how == "version":
        model["format_version"] = draw(JUNK.filter(lambda v: v != 1 or isinstance(v, bool)))
    elif how == "mode":
        model["mode"] = draw(JUNK.filter(lambda v: v not in ("aware", "blind")))
    elif how == "theta":
        model["theta_hat"] = draw(st.sampled_from(["abc", "1e999", None, [1], {"a": 1}, float("nan"), float("inf")]))
    elif how == "stats":
        model["stats"] = draw(JUNK)
    elif how == "vector":
        key = draw(st.sampled_from(["p", "mean_score", "joint"]))
        model["stats"][key] = draw(
            st.lists(st.floats(0, 1), max_size=4).filter(lambda v: len(v) != 2)
            | st.sampled_from([["a", "b"], None, "ab", 3, {}])
        )
    elif how == "numbers":  # a number the decision rule reads, made zero, negative or not finite
        bad = draw(st.sampled_from([0.0, -0.5, float("nan"), float("inf")]))
        where = draw(st.sampled_from(["joint", "mean_score", "blind_means", "floor", "weights"]))
        if where in ("joint", "mean_score"):
            model["stats"][where][draw(st.integers(0, 1))] = bad
        elif where == "blind_means":
            model["blind_means"] = [bad, 0.5]
        elif where == "floor":
            model["model"]["floor"] = bad
        else:  # zero and negative weights are valid
            model["model"]["groups"][draw(st.integers(0, 1))]["weights"][0] = draw(st.sampled_from([np.nan, np.inf]))
    elif how == "model":
        model["model"] = draw(st.one_of(JUNK, st.just({})))
    elif how == "weights":
        model["model"]["groups"][draw(st.integers(0, 1))]["weights"] = draw(st.sampled_from([[], [0.1, 0.2]]))
    elif how == "null_group":
        model["model"]["groups"][draw(st.integers(0, 1))] = None
    elif how == "jitter":  # calibrate only writes amplitudes in [0, 0.5]
        model["model"]["jitter_amplitude"] = draw(st.floats(0.5, 1e300, exclude_min=True) | st.just(-0.1))
    elif how == "drop":
        del model[draw(st.sampled_from(["mode", "theta_hat", "stats"]))]
    else:
        return draw(st.one_of(st.sampled_from(["", "{not json", "[]", "null", "3"]), st.text(max_size=8)))
    return json.dumps(model)


@pytest.fixture(scope="module")
def property_inputs(tmp_path_factory, train_csv):
    d = tmp_path_factory.mktemp("property")
    model = str(d / "model.json")
    assert main(["calibrate", "--train", train_csv, "--out", model]) == 0
    data = _write(d / "data.csv", "\n".join(",".join(r) for r in [["x1", "S", "Y"], *ROWS]) + "\n")
    return {"dir": d, "model": model, "data": data, "train": train_csv, "base_model": _read_json(model)}


def _dataset_case(inp):
    text = broken_csv(
        ["x1", "S", "Y"], ROWS, [NOT_A_NUMBER, NOT_BINARY, NOT_BINARY], "S",
        CORRUPTIONS + ("duplicate_name", "blank_name"),
    )
    commands = st.sampled_from([
        ["evaluate", "--model", inp["model"], "--test", "{f}"],
        ["predict", "--model", inp["model"], "--data", "{f}"],
        ["calibrate", "--train", "{f}"],
        ["calibrate", "--train", inp["train"], "--unlabeled", "{f}"],
    ])
    return st.tuples(text, commands)


def _scores_case(inp):
    # a score file must also stay row-aligned with its dataset
    text = broken_csv(
        ["score_s0", "score_s1", "score_marginal"], SCORES, [NOT_A_SCORE] * 3, "score_s0",
        CORRUPTIONS + ("drop_row",),
    )
    commands = st.sampled_from([
        ["calibrate", "--train", inp["data"], "--scores", "{f}"],
        ["calibrate", "--train", inp["data"], "--scores", "{f}", "--mode", "blind"],
        ["evaluate", "--model", inp["model"], "--test", inp["data"], "--scores", "{f}"],
        ["predict", "--model", inp["model"], "--data", inp["data"], "--scores", "{f}"],
    ])
    return st.tuples(text, commands)


def _model_case(inp):
    commands = st.sampled_from([
        ["predict", "--model", "{f}", "--data", inp["data"]],
        ["evaluate", "--model", "{f}", "--test", inp["data"]],
    ])
    return st.tuples(broken_model(inp["base_model"]), commands)


# one wrongly typed value per field of a benchmark config; each must exit 5
BAD_CONFIG_VALUES = {
    **dict.fromkeys(["sensitive_col", "label_col", "estimator", "mode"], [1, True, None, ["S"], {}]),
    **dict.fromkeys(["n_repeats", "seed", "cv_folds"], ["abc", "3", 1.5, 3.0, True, None, [1]]),
    **dict.fromkeys(["train_fraction", "shortlist_fraction"], ["abc", "0.5", True, None, [0.5]]),
    "logistic_grid": [["a"], [True], [None], [[1e-4]], "abc", 0.1, None],
    "knn_grid": [["a"], [True], [1.5], [None], "abc", 5, None],
    "unlabeled": ["abc", True, 1, None, [0.3]],
    "methods": [[1], [], "plugin", 3, None],
}


@st.composite
def broken_config(draw):
    """Benchmark config text that is not a JSON object, or holds one wrongly typed field."""
    if draw(st.booleans()):
        return draw(st.sampled_from(["", "{not json", "[1, 2]", "[]", "null", "3", '"abc"', "true"]))
    field = draw(st.sampled_from(sorted(BAD_CONFIG_VALUES)))
    return json.dumps({field: draw(st.sampled_from(BAD_CONFIG_VALUES[field]))})


def _config_case(inp):
    commands = st.sampled_from([
        ["benchmark", "--data", inp["data"], "--config", "{f}"],
        ["sweep-unlabeled", "--data", inp["data"], "--config", "{f}"],
    ])
    return st.tuples(broken_config(), commands)


@pytest.mark.parametrize(
    "case", [_dataset_case, _scores_case, _model_case, _config_case], ids=["dataset", "scores", "model", "config"]
)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_malformed_input_ends_in_documented_exit_code(property_inputs, case, data):
    text, argv = data.draw(case(property_inputs))
    path = _write(property_inputs["dir"] / "input", text)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([path if a == "{f}" else a for a in argv])
    assert code in (2, 3, 4, 5)
    assert err.getvalue().startswith("error: ")
