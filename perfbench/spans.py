"""Spans recorded from outside the program, and the per-layer metrics derived from them.

``Recorder.install`` replaces each traced function at the place its caller
looks the name up (modules import by name, so ``fairthresh.benchmark.calibrate``
is a binding of its own, apart from ``fairthresh.calibration.calibrate``) and
the scoring and prediction methods on their classes.  A span is
``[name, start, end, parent, op, info]``: ``parent`` is the index of the
enclosing span (-1 for none), ``op`` the index of the CLI invocation, and
``info`` a counter computed from the call's return value.  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time

# (module looked up in, attribute, counter from (args, result) or None)
FUNCTIONS = [
    ("cli", "main", None),
    ("cli", "cmd_calibrate", None),
    ("cli", "cmd_predict", None),
    ("cli", "cmd_evaluate", None),
    ("cli", "cmd_benchmark", None),
    ("cli", "cmd_sweep_unlabeled", None),
    ("cli", "cmd_consistency", None),
    ("cli", "load_csv", lambda a, r: r.n),
    ("benchmark", "run_benchmark", None),
    ("benchmark", "run_unlabeled_sweep", None),
    ("benchmark", "cross_validate", None),
    ("benchmark", "split", None),
    ("benchmark", "calibrate", None),
    ("benchmark", "deo_report", None),
    ("calibration", "fit_logistic", None),
    ("calibration", "fit_knn", None),
    ("calibration", "calibrate", None),
    ("calibration", "calibrate_scores", None),
    ("calibration", "fit_theta", None),
    ("calibration", "fit_theta_blind", None),
    ("calibration", "breakpoints", lambda a, r: len(r)),
    ("calibration", "empirical_unfairness", None),
    ("calibration", "blind_unfairness", None),
    ("estimators", "logistic_descent", lambda a, r: [len(r[3]) - 1, bool(r[2])]),
    ("metrics", "deo", None),
    ("oracle", "consistency_run", None),
    ("oracle", "sample", None),
    ("oracle", "solve_theta_star", None),
    ("oracle", "calibrate", None),
    ("oracle", "calibrate_scores", None),
    ("oracle", "deo_report", None),
]


def _score_counts(args, result):
    # [rows scored, rows equal to the model floor]
    return [int(result.shape[0]), int((result == args[0].floor).sum())]


# (module, class, method, counter)
METHODS = [
    ("estimators", "ScoreModel", "score_group", _score_counts),
    ("estimators", "ScoreModel", "score_rowwise", _score_counts),
    ("estimators", "ScoreModel", "score_marginal", _score_counts),
    ("calibration", "FairClassifier", "predict", None),
    ("calibration", "FairClassifier", "predict_from_scores", None),
]


class Recorder:
    """Collects spans for one traced child process."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = 0

    def _wrap(self, fn, counter):
        module = fn.__module__.rsplit(".", 1)[-1]
        name = f"{module}.{fn.__qualname__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op, None]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if counter is not None:
                span[5] = counter(args, result)
            return result

        return traced

    def install(self) -> None:
        for module, attr, counter in FUNCTIONS:
            mod = importlib.import_module(f"fairthresh.{module}")
            setattr(mod, attr, self._wrap(getattr(mod, attr), counter))
        for module, cls_name, attr, counter in METHODS:
            cls = getattr(importlib.import_module(f"fairthresh.{module}"), cls_name)
            setattr(cls, attr, self._wrap(getattr(cls, attr), counter))


# --- analysis (run in the harness process) ----------------------------------

CMD_METRICS = {
    "cli.cmd_calibrate": "cli.calibrate_s",
    "cli.cmd_predict": "cli.predict_s",
    "cli.cmd_evaluate": "cli.evaluate_s",
    "cli.cmd_consistency": "cli.consistency_s",
    "cli.cmd_benchmark": "cli.benchmark_s",
    "cli.cmd_sweep_unlabeled": "cli.sweep_s",
}
FIT = {"estimators.fit_logistic", "estimators.fit_knn"}
SCORE = {"estimators.ScoreModel.score_group", "estimators.ScoreModel.score_rowwise",
         "estimators.ScoreModel.score_marginal"}
FIT_THETA = {"calibration.fit_theta", "calibration.fit_theta_blind"}
CALIBRATE = {"calibration.calibrate", "calibration.calibrate_scores"}
UNFAIRNESS = {"calibration.empirical_unfairness", "calibration.blind_unfairness"}
PREDICT = {"calibration.FairClassifier.predict", "calibration.FairClassifier.predict_from_scores"}


class _Spans:
    def __init__(self, spans):
        self.spans = spans
        self.dur = [s[2] - s[1] for s in spans]
        child = [0.0] * len(spans)
        for s, d in zip(spans, self.dur):
            if s[3] >= 0:
                child[s[3]] += d
        self.self_time = [d - c for d, c in zip(self.dur, child)]

    def has_ancestor(self, i: int, names) -> bool:
        p = self.spans[i][3]
        while p >= 0:
            if self.spans[p][0] in names:
                return True
            p = self.spans[p][3]
        return False

    def outer(self, names) -> list[int]:
        """Spans named in names that no other span named in names encloses."""
        return [i for i, s in enumerate(self.spans) if s[0] in names and not self.has_ancestor(i, names)]

    def busy(self, names) -> float:
        return sum(self.dur[i] for i in self.outer(names))

    def self_sum(self, names) -> float:
        return sum(t for s, t in zip(self.spans, self.self_time) if s[0] in names)

    def calls(self, names) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[0] in names]


def layer_metrics(spans, run_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced iteration whose timed section took run_s."""
    sp = _Spans(spans)
    m: dict[str, tuple[float, str]] = {}
    load = sp.calls({"data.load_csv"})
    m["data.load_csv_s"] = (sp.busy({"data.load_csv"}), "s")
    m["data.load_csv_rows"] = (sum(spans[i][5] for i in load), "count")
    m["data.split_s"] = (sp.busy({"data.split"}), "s")
    m["cli.self_s"] = (sp.self_sum(set(CMD_METRICS)), "s")
    for span_name, metric in CMD_METRICS.items():
        m[metric] = (sp.busy({span_name}), "s")

    m["estimators.fit_s"] = (sp.busy(FIT), "s")
    m["estimators.fits"] = (len(sp.calls(FIT)), "count")
    gd = [spans[i][5] for i in sp.calls({"estimators.logistic_descent"})]
    m["estimators.gd_iters"] = (sum(g[0] for g in gd), "count")
    m["estimators.converged_ratio"] = (sum(g[1] for g in gd) / len(gd) if gd else 0.0, "ratio")
    scores = [spans[i][5] for i in sp.outer(SCORE)]
    rows = sum(c[0] for c in scores)
    m["estimators.score_s"] = (sp.busy(SCORE), "s")
    m["estimators.score_rows"] = (rows, "count")
    m["estimators.floor_clamped_ratio"] = (sum(c[1] for c in scores) / rows if rows else 0.0, "ratio")

    m["calibration.fit_theta_s"] = (sp.busy(FIT_THETA), "s")
    m["calibration.breakpoints_s"] = (sp.self_sum({"calibration.breakpoints"}), "s")
    m["calibration.breakpoint_count"] = (sum(spans[i][5] for i in sp.calls({"calibration.breakpoints"})), "count")
    m["calibration.calibrate_self_s"] = (sp.self_sum(CALIBRATE), "s")
    m["calibration.unfairness_s"] = (sp.busy(UNFAIRNESS), "s")
    m["calibration.predict_s"] = (sp.self_sum(PREDICT), "s")

    m["metrics.deo_s"] = (sp.busy({"metrics.deo"}), "s")
    m["metrics.deo_calls"] = (len(sp.calls({"metrics.deo"})), "count")

    cv = {"benchmark.cross_validate"}
    m["benchmark.cv_self_s"] = (sp.self_sum(cv), "s")
    m["benchmark.cv_calibrations"] = (sum(sp.has_ancestor(i, cv) for i in sp.calls(CALIBRATE)), "count")

    m["oracle.sample_s"] = (sp.busy({"oracle.sample"}), "s")
    m["oracle.solve_theta_star_s"] = (sp.busy({"oracle.solve_theta_star"}), "s")
    m["oracle.consistency_self_s"] = (sp.self_sum({"oracle.consistency_run"}), "s")

    # time of the timed section not covered by any span below cli.main
    below_main = sum(sp.dur[i] for i, s in enumerate(spans) if s[3] >= 0 and spans[s[3]][0] == "cli.main")
    m["trace.unattributed_ratio"] = ((run_s - below_main) / run_s, "ratio")

    # ROADMAP aim 1's stage split of the same run; "other" is what no stage claims
    stages = {
        "stage.ingest_s": m["data.load_csv_s"][0] + m["cli.self_s"][0],
        "stage.fit_s": m["estimators.fit_s"][0],
        "stage.score_s": m["estimators.score_s"][0],
        "stage.objective_s": m["calibration.fit_theta_s"][0] + m["calibration.unfairness_s"][0],
        "stage.predict_s": m["calibration.predict_s"][0],
        "stage.evaluate_s": m["metrics.deo_s"][0],
        "stage.cv_loop_s": m["benchmark.cv_self_s"][0],
    }
    stages["stage.other_s"] = run_s - sum(stages.values())
    m.update({k: (v, "s") for k, v in stages.items()})
    return m
