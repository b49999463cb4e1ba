"""Repeats and consistency cells in forked workers: the same reports as one process, no child left behind.

The worker count is forced through _parallel._cpus, the usable-CPU count the
map reads; os.fork is wrapped to count the children the parent starts (the
cpus and forks fixtures of conftest.py).
"""

import json
import os
import sys
import threading
import time
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from conftest import assert_no_child_left, write_csv

from fairthresh import _parallel
from fairthresh.benchmark import BenchmarkConfig, run_benchmark, run_unlabeled_sweep
from fairthresh.cli import main
from fairthresh.data import LabeledDataset
from fairthresh.errors import GroupCoverageError
from fairthresh.estimators import KnnConfig
from fairthresh.oracle import consistency_run, linear_distribution, sample

DIST = linear_distribution(0.35, 0.3, 0.05, 0.9, 0.5)
CPUS = (1, 2, 5)  # in process; 3 items over 2 workers; more workers than items (one per item)


def _same_for_every_worker_count(forks, cpus, run, items=3):
    """run() at each CPU count in CPUS: equal results and JSON bytes, one fork per worker but the parent."""
    results = []
    for n in CPUS:
        cpus(n)
        forks["forks"] = 0
        results.append(run())
        assert forks["forks"] == min(n, items) - 1
        assert_no_child_left()
    as_json = [json.dumps(r, default=asdict).encode() for r in results]
    assert all(r == results[0] for r in results[1:])
    assert all(j == as_json[0] for j in as_json[1:])


@pytest.mark.parametrize("unlabeled", ["reuse", 0.3])
@pytest.mark.parametrize("mode", ["aware", "blind"])
@pytest.mark.parametrize("estimator", ["knn", "logistic"])
def test_benchmark_report_same_for_every_worker_count(forks, cpus, estimator, mode, unlabeled):
    ds = sample(DIST, 600, 11)
    cfg = BenchmarkConfig(estimator=estimator, mode=mode, unlabeled=unlabeled, knn_grid=(3, 15),
                          logistic_grid=(1e-3, 1.0), n_repeats=3, cv_folds=3, seed=2)
    _same_for_every_worker_count(forks, cpus, lambda: asdict(run_benchmark(ds, cfg)))


def test_sweep_report_same_for_every_worker_count(forks, cpus):
    ds = sample(DIST, 800, 12)
    cfg = BenchmarkConfig(estimator="knn", knn_grid=(3, 15), n_repeats=3, cv_folds=3, seed=5)
    _same_for_every_worker_count(
        forks, cpus, lambda: asdict(run_unlabeled_sweep(ds, cfg, labeled_fraction=0.2, unlabeled_fractions=(0.0, 0.3)))
    )


@pytest.mark.parametrize(
    "estimator, n_grid, N_grid", [("exact", [0], [100, 400]), (KnnConfig(k=9), [150, 300], [200])], ids=["exact", "knn"]
)
def test_consistency_table_same_for_every_worker_count(forks, cpus, estimator, n_grid, N_grid):
    # two cells of two repeats: four items, so 5 CPUs make four workers
    _same_for_every_worker_count(
        forks, cpus, lambda: [asdict(c) for c in consistency_run(DIST, n_grid, N_grid, 2, 3, estimator, test_size=2000)],
        items=4,
    )


def _sparse_group_sweep_data():
    """200 rows, 24 in group 1: at seed 3, labeled fraction 0.5 and unlabeled fraction 0.05, the
    calibration part of repeat 0 has two rows of each group, and those of repeats 1 and 2 do not."""
    rng = np.random.default_rng(0)
    return LabeledDataset(rng.normal(size=(200, 1)), (np.arange(200) < 24).astype(int), rng.integers(0, 2, 200))


def test_failing_repeat_raises_the_serial_exception(forks, cpus):
    ds = _sparse_group_sweep_data()
    cfg = BenchmarkConfig(logistic_grid=(1e-3,), n_repeats=3, seed=3)
    raised = []
    for n in (1, 2):
        cpus(n)
        with pytest.raises(GroupCoverageError) as info:
            run_unlabeled_sweep(ds, cfg, labeled_fraction=0.5, unlabeled_fractions=(0.05,))
        raised.append(str(info.value))
        assert_no_child_left()
    assert forks["forks"] == 1  # repeat 1, the first to fail, ran in the child
    assert raised[0] == raised[1] and "at least 2 rows in sensitive group" in raised[0]
    cpus(1)
    run_unlabeled_sweep(ds, BenchmarkConfig(logistic_grid=(1e-3,), n_repeats=1, seed=3), labeled_fraction=0.5,
                        unlabeled_fractions=(0.05,))  # repeat 0 alone calibrates


def test_failing_repeat_exits_3_through_the_cli(forks, cpus, tmp_path, capsys):
    data, cfg = tmp_path / "sparse.csv", tmp_path / "cfg.json"
    write_csv(data, _sparse_group_sweep_data())
    cfg.write_text(json.dumps({"logistic_grid": [1e-3]}))
    errors = []
    for n in (1, 2):
        cpus(n)
        assert main(["sweep-unlabeled", "--data", str(data), "--config", str(cfg), "--repeats", "3", "--seed", "3",
                     "--labeled-fraction", "0.5", "--fractions", "0.05"]) == 3
        errors.append(capsys.readouterr().err)
        assert_no_child_left()
    assert forks["forks"] == 1
    assert errors[0] == errors[1] and "sensitive group" in errors[0]


def test_results_in_item_order_one_worker_per_residue(forks, cpus):
    cpus(3)
    out = _parallel.map_ordered(lambda x: (x * x, os.getpid()), range(7))
    assert [v for v, _ in out] == [x * x for x in range(7)]
    pids = [pid for _, pid in out]
    assert pids[0::3] == [os.getpid()] * 3
    assert len(set(pids)) == 3 and all(pids[i] == pids[i % 3] for i in range(7))
    assert forks["forks"] == 2
    assert_no_child_left()


def test_lowest_failing_item_wins(cpus):
    def fn(x):
        if x in (1, 2, 3):  # 1 and 3 fail in the child, 2 in the parent
            raise ValueError(f"item {x}")
        return x

    cpus(2)
    with pytest.raises(ValueError, match="^item 1$"):
        _parallel.map_ordered(fn, range(6))
    assert_no_child_left()


def test_warning_as_error_in_a_child_fails_the_map(cpus):
    def fn(x):
        if x == 1:
            np.log(np.zeros(1))  # divide by zero: a RuntimeWarning
        return x

    cpus(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeWarning, match="divide by zero"):
            _parallel.map_ordered(fn, range(2))
    assert_no_child_left()


@pytest.mark.parametrize("result", ["exit", "unpicklable"])
def test_child_without_a_result_is_an_error(cpus, result):
    def fn(x):
        if x == 1 and result == "exit":
            os._exit(7)
        return (lambda: x) if x == 1 else x

    cpus(2)
    with pytest.raises(ChildProcessError, match="ended without a result"):
        _parallel.map_ordered(fn, range(2))
    assert_no_child_left()


def test_interrupt_in_the_parent_stops_the_children(cpus):
    def fn(x):
        if x == 0:
            raise KeyboardInterrupt
        time.sleep(60)
        return x

    cpus(2)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        _parallel.map_ordered(fn, range(2))
    assert time.perf_counter() - start < 30
    assert_no_child_left()


def test_nested_maps_run_in_their_worker(forks, cpus):
    cpus(2)
    out = _parallel.map_ordered(lambda x: _parallel.map_ordered(lambda y: os.getpid(), range(3)), range(2))
    assert out[0] == [os.getpid()] * 3
    assert len(set(out[1])) == 1 and out[1][0] != os.getpid()
    assert forks["forks"] == 1


def test_in_process_off_linux_and_with_a_second_thread(forks, cpus, monkeypatch):
    cpus(2)
    pids = lambda: _parallel.map_ordered(lambda x: os.getpid(), range(2))  # noqa: E731
    monkeypatch.setattr(sys, "platform", "darwin")
    assert pids() == [os.getpid()] * 2
    monkeypatch.setattr(sys, "platform", "linux")
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(30,))
    thread.start()
    try:
        assert pids() == [os.getpid()] * 2
    finally:
        release.set()
        thread.join(timeout=30)
    assert not thread.is_alive()
    assert forks["forks"] == 0
    assert len(set(pids())) == 2 and forks["forks"] == 1


def test_failed_fork_stops_the_started_children_and_closes_every_pipe(cpus, monkeypatch):
    real_fork, calls = os.fork, []

    def fork():
        calls.append(1)
        if len(calls) == 2:
            raise BlockingIOError("fork: resource temporarily unavailable")
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    cpus(3)
    open_fds = len(os.listdir("/proc/self/fd"))
    with pytest.raises(BlockingIOError):
        _parallel.map_ordered(lambda x: time.sleep(60) if x == 1 else x, range(3))
    assert len(os.listdir("/proc/self/fd")) == open_fds
    assert_no_child_left()
