"""The worker-pool runner that the CSV codec, slcd() and sweep() share."""
from __future__ import annotations

import os
import time

import pytest

from slcd import _fork


def _scaled(state: int, k: int) -> tuple[int, int]:
    """state * k, after a wait that is longest for the first tasks, so
    that a pool finishes them out of order; and the process that ran it."""
    time.sleep(0.02 * (4 - k))
    return state * k, os.getpid()


@pytest.mark.parametrize("cpus", [1, 2])
def test_runner_returns_results_in_order(usable_cpus, cpus) -> None:
    """run(fn, args) gives fn(state, *a) for each a in order, on a pool of
    forked workers with two usable CPUs and in this process with one."""
    pool = usable_cpus(cpus)
    with _fork._runner(4, 10) as (workers, run):
        results = list(run(_scaled, [(k,) for k in range(4)]))
    assert workers == cpus and pool.call_count == (cpus == 2)
    assert [value for value, _ in results] == [0, 10, 20, 30]
    assert ({pid for _, pid in results} == {os.getpid()}) == (cpus == 1)


def test_runner_in_process_runs_tasks_lazily(usable_cpus) -> None:
    """In this process each task runs as the iterator reaches it, so a
    caller that stops early, as the CSV reader does at the first
    malformed piece, runs none of the later tasks."""
    usable_cpus(1)
    ran = []
    with _fork._runner(3, None) as (workers, run):
        results = run(lambda state, k: ran.append(k) or k, [(0,), (1,), (2,)])
        assert workers == 1 and ran == []
        assert next(results) == 0 and ran == [0]
        assert next(results) == 1 and ran == [0, 1]
