import csv
import os

import pytest

from fairthresh import _parallel


def write_csv(path, ds, sensitive_col: str = "S", label_col: str = "Y") -> None:
    """Write a labeled dataset to CSV; float cells use the shortest round-trip repr."""
    names = ds.feature_names or tuple(f"x{i + 1}" for i in range(ds.features.shape[1]))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([*names, sensitive_col, label_col])
        for x, s, y in zip(ds.features, ds.sensitive, ds.labels):
            writer.writerow([*(repr(float(v)) for v in x), str(int(s)), str(int(y))])


@pytest.fixture
def forks(monkeypatch):
    """The number of children this process forks, under "forks"."""
    counts = {"forks": 0}
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            counts["forks"] += 1
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return counts


@pytest.fixture
def cpus(monkeypatch):
    """cpus(n) makes the forked map see n usable CPUs."""
    return lambda n: monkeypatch.setattr(_parallel, "_cpus", lambda: n)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
