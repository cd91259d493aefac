"""Pools of forked worker processes, shared by the CSV codec (_csvio),
the restart blocks of solver.slcd() and the grid cells of
evaluation.sweep().

Callers go through _runner, which yields the number of processes and a
run(fn, args) that maps fn over the tasks. A pool forks its workers from
the calling process, so each one starts with the caller's state object
in shared memory and nothing of it is copied. _workers decides whether a
pool starts at all; where it does not, run calls fn in the calling
process, to the same result. multiprocessing is imported only when a
pool may start, so that importing slcd stays short.
"""
from __future__ import annotations

import contextlib
import os
import sys
from functools import partial

import numpy as np

# Set by _worker_init in each forked worker, never in the calling process.
_worker_state = None


def _usable_cpus() -> int:
    """The number of CPUs this process may run on, which bounds the
    processes that the CSV codec, slcd() and sweep() start."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # the platform cannot tell; take them all
        return os.cpu_count() or 1


def _worker_init(state) -> None:
    global _worker_state
    _worker_state = state


def _worker_call(fn, args):
    return fn(_worker_state, *args)


def _blas_forks_safely() -> bool:
    """Whether a forked child may call numpy's BLAS and LAPACK: on Linux,
    with an OpenBLAS that runs its own pthreads, as in numpy's Linux
    wheels, which shuts its threads down before a fork. Read from numpy's
    build record (numpy 1.26 and later); an OpenBLAS built on OpenMP
    names USE_OPENMP in its configuration. Where numpy keeps no such
    record, or names another BLAS (Accelerate in numpy's macOS wheels,
    MKL), the answer is no: a child that calls those after a fork is known
    to hang or crash."""
    if not sys.platform.startswith("linux"):
        return False
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):   # no build record, as before numpy 1.26
        return False
    for lib in ("blas", "lapack"):
        info = deps.get(lib, {})
        config = info.get("openblas configuration")
        if "openblas" not in info.get("name", "").lower() or not config or "USE_OPENMP" in config:
            return False
    return True


def _workers(tasks: int, blas: bool = False) -> int:
    """The number of processes to run the tasks on: min(tasks, usable
    CPUs). 1, this process, when the platform cannot fork; when the tasks
    call BLAS and numpy's BLAS is not known to survive a fork (blas=True,
    see _blas_forks_safely); when this process was itself started by
    multiprocessing, such as a worker of one of these pools, whose
    siblings already keep the CPUs busy, or a daemonic pool worker, which
    may start no children; or when it runs a Python thread besides this
    one, which may hold a lock that a forked child would wait on for
    ever."""
    workers = min(tasks, _usable_cpus())
    if workers < 2 or (blas and not _blas_forks_safely()):
        return 1
    import multiprocessing
    import threading

    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.parent_process() is not None
            or threading.active_count() > 1):
        return 1
    return workers


@contextlib.contextmanager
def _pool(workers: int, state):
    """A fork-context ProcessPoolExecutor of workers processes, each
    holding state as _worker_state: forked, they share it with this
    process, so nothing is copied. A worker that dies, killed or crashed,
    fails every task not yet done with BrokenProcessPool rather than
    leaving the caller waiting. Its exit drops the tasks not yet started
    and joins the workers."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                               _worker_init, (state,))
    try:
        yield pool
    finally:
        pool.shutdown(cancel_futures=True)


@contextlib.contextmanager
def _runner(tasks: int, state, blas: bool = False):
    """Yields (workers, run), workers being _workers(tasks, blas). run(fn,
    args) is an iterator of fn(state, *a) for each a in args, in order:
    on a _pool of workers processes holding state when workers > 1, where
    every task is submitted at once; else computed lazily in this process,
    each as the iterator reaches it. Results are to be taken before the
    context exits, which drops the pool's unstarted tasks."""
    workers = _workers(tasks, blas)
    if workers == 1:
        yield 1, lambda fn, args: (fn(state, *a) for a in args)
        return
    with _pool(workers, state) as pool:
        yield workers, lambda fn, args: pool.map(partial(_worker_call, fn), args)
