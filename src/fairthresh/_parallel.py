"""Independent items in forked worker processes, with results in item order.

map_ordered(fn, items) returns [fn(x) for x in items].  On Linux it runs the
items in min(len(items), usable CPUs) workers: worker 0 is the calling
process itself and item i goes to worker i mod W.  Each child pickles its
results, or its first failure, into a pipe and leaves through os._exit, so no
exit handler, buffered output or test teardown of the parent runs twice.  The
parent reads every pipe to the end before it waits for the child, on every
path, then raises the failure of the lowest failing item: the exception a
serial loop would have raised first.  Items must not depend on one another's
side effects, and fn's results must pickle.

Its callers are the repeats of benchmark and the sweep, the cells of
consistency, and the byte ranges of a large input CSV (data._read_table);
worker_count(n) says how many workers n items get.

The map runs in process off Linux (fork is missing on Windows, and macOS's
BLAS is not fork-safe), when a second thread is alive, inside a worker (so
maps never nest) and when one CPU is usable (``taskset -c 0``).
"""

from __future__ import annotations

import os
import pickle
import sys
import threading

_in_worker = False  # true in a child and while the parent runs its own share


def _cpus() -> int:
    return len(os.sched_getaffinity(0))


def _share(fn, items: list, start: int, step: int) -> tuple:
    """fn over items[start::step], stopping at the first failure: ("ok", results) or ("err", index, exc)."""
    results = []
    for i in range(start, len(items), step):
        try:
            results.append(fn(items[i]))
        except Exception as exc:
            return ("err", i, exc)
    return ("ok", results)


def _collect(pid: int, fd: int):
    """A child's unpickled share, or None if it ended without one; reads its pipe to the end, then reaps it."""
    try:
        with open(fd, "rb") as pipe:
            data = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    return pickle.loads(data) if data and os.waitstatus_to_exitcode(status) == 0 else None


def worker_count(n: int) -> int:
    """The number of workers map_ordered spreads n items over; below 2 it runs them in process."""
    if _in_worker or sys.platform != "linux" or threading.active_count() > 1:
        return 1
    return min(n, _cpus())


def map_ordered(fn, items) -> list:
    """[fn(x) for x in items], its items spread over forked workers (see the module docstring)."""
    global _in_worker
    items = list(items)
    if (workers := worker_count(len(items))) < 2:
        return [fn(x) for x in items]
    children, shares = [], None  # (pid, read end) per child; every worker's share, the parent's first
    try:
        for w in range(1, workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                code = 1
                try:
                    _in_worker = True
                    os.close(read_fd)
                    with open(write_fd, "wb") as pipe:
                        pickle.dump(_share(fn, items, w, workers), pipe, pickle.HIGHEST_PROTOCOL)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_fd)
            children.append((pid, read_fd))
        _in_worker = True
        try:
            shares = [_share(fn, items, 0, workers)]
        finally:
            _in_worker = False
    finally:
        if shares is None:  # the parent failed outside its items (a fork, an interrupt): stop the children
            import signal  # imported here: about 1 ms, and no other path needs it

            for pid, _ in children:
                os.kill(pid, signal.SIGKILL)
        for pid, fd in children:
            share = _collect(pid, fd)
            if shares is not None:
                shares.append(share)
    failures = []
    for w, share in enumerate(shares):
        if share is None:
            share = ("err", w, ChildProcessError(f"the worker for items {w}::{workers} ended without a result"))
        if share[0] == "err":
            failures.append(share[1:])
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    out = [None] * len(items)
    for w, (_, results) in enumerate(shares):
        out[w::workers] = results
    return out
