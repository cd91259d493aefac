"""Host-speed correction.

On a shared virtual machine the same work can take up to twice as long
for tens of seconds at a time, because the host lends the CPU to other
guests. A benchmark run lasts about as long as one such period, so raw
wall times of identical runs differ by up to 2x. Kinds of work slow by
different amounts: small-matrix numpy and interpreter work by up to
1.9x, large-array numpy by 1.3x, writing and reading a large CSV by
1.4x. So each workload names a reference kernel that does the same
kind of work as its operations, using only numpy and the standard
library (no change to slcd can change a kernel). The benchmark times
the kernel before a pass's first operation and after each operation,
and scales the operation's time by the kernel's reference time over the
mean of the two readings around it: the time the operation would have
taken with the host at its reference speed. Inside a long operation
the workload's hook points (public functions the program calls every
fraction of a second) also take readings, at most one per kernel
interval, so that a change of speed halfway through is followed; the
readings' own time is left out of the operation's. Raw times are
reported next to the corrected ones.

Set-up time is not scaled but reduced: a fresh interpreter's numpy
import, measured right after each set-up, is subtracted from it. That
import loads OpenBLAS and starts its threads, and on this host it took
from 0.065 s to 0.16 s, while the rest of a set-up stayed within about
0.02 s. numpy is the same on every commit, so what remains is the
project's own set-up work.

Each kernel's reference time is about its time on a 2-vCPU Intel Xeon
virtual machine in its fast state (numpy 2.4, OpenBLAS 0.3.31). It only
sets the scale: with it, corrected times read as seconds on that machine.
"""
from __future__ import annotations

import functools
import os
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

from tracing import rebound


def _numpy_chunk(rng) -> None:
    mats = [rng.standard_normal((n, n)) for n in (4, 5, 6, 7)]
    for _ in range(24):
        for M in mats:
            U, s, Vt = np.linalg.svd(M)
            B = M @ M.T + np.eye(len(M))
            np.linalg.solve(B, U @ s)
            np.exp(-(s * s))


class NumpyKernel:
    """Small-matrix SVDs and solves, as in SQP iterations."""

    reference_s = 0.0037
    chunks = 5
    interval_s = 0.5

    def chunk(self) -> None:
        _numpy_chunk(np.random.default_rng(12345))


class CsvKernel:
    """Write 3 000 rows of 7 floats as CSV text to a file, read them back
    into a matrix and take its Gram matrix, as the CLI steps do."""

    reference_s = 0.030
    chunks = 5
    interval_s = 1.0

    def __init__(self, workdir: str):
        self.path = os.path.join(workdir, "speed-kernel.csv")
        self.X = np.random.default_rng(7).standard_normal((3000, 7))

    def chunk(self) -> None:
        with open(self.path, "w", encoding="utf-8") as fh:
            for row in self.X:
                fh.write(",".join(f"{v:.17g}" for v in row))
                fh.write("\n")
        with open(self.path, encoding="utf-8") as fh:
            A = np.array([[float(v) for v in line.split(",")] for line in fh]).T
        A @ A.T
        os.remove(self.path)


_NUMPY_IMPORT = ("import time; t0 = time.perf_counter(); import numpy; "
                 "print(time.perf_counter() - t0)")


def numpy_import_seconds() -> float:
    """Time a fresh interpreter takes to import numpy."""
    done = subprocess.run([sys.executable, "-c", _NUMPY_IMPORT], capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def read_speed(kernel) -> float:
    """The kernel's median time over a few chunks, in seconds."""
    times = []
    for _ in range(kernel.chunks):
        t0 = time.perf_counter()
        kernel.chunk()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Clock:
    """Times the operations of one pass and reads the host's speed with
    the workload's kernel on either side of each and at checkpoints
    inside."""

    def __init__(self, tracer, kernel):
        self.tracer = tracer
        self.kernel = kernel
        self.raw: list[float] = []
        self.scale: list[float] = []
        self.readings: list[float] = []
        # Worker threads of an operation take checkpoints too; one at a
        # time, so that segments follow one another.
        self._lock = threading.Lock()
        self._segment = None  # (start, reading at start) inside an operation
        self._corrected = 0.0
        self._inner_s = 0.0  # time spent on readings inside the operation

    def _read(self) -> float:
        with self.tracer.span("bench.calibrate"):
            self.readings.append(read_speed(self.kernel))
        return self.readings[-1]

    def _close_segment(self, end: float, reading: float) -> None:
        start, first = self._segment
        self._corrected += (end - start) * 2.0 * self.kernel.reference_s / (first + reading)

    def checkpoint(self) -> None:
        """Take a reading if the current segment of an operation is older
        than the kernel's interval. Called from any thread the operation
        runs on. With several threads, a reading shares the processor with
        the others' work, as the operation itself does."""
        with self._lock:
            if self._segment is None:
                return
            now = time.perf_counter()
            if now - self._segment[0] < self.kernel.interval_s:
                return
            reading = self._read()
            self._close_segment(now, reading)
            self._segment = (time.perf_counter(), reading)
            self._inner_s += self._segment[0] - now

    def checkpoints_at(self, calls):
        """While the block runs, take a checkpoint whenever the program
        calls module.attr, for each (module, attr) in calls."""
        def hooked(fn):
            @functools.wraps(fn)
            def call(*args, **kwargs):
                self.checkpoint()
                return fn(*args, **kwargs)
            return call
        return rebound(calls, hooked)

    def time(self, fn, *args, **kwargs):
        """Call fn, recording its wall time (readings excluded) and its
        correction factor."""
        before = self.readings[-1] if self.readings else self._read()
        self._corrected = self._inner_s = 0.0
        t0 = time.perf_counter()
        self._segment = (t0, before)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._close_segment(end, self._read())
            self._segment = None
            raw = end - t0 - self._inner_s
            self.raw.append(raw)
            self.scale.append(self._corrected / raw if raw > 0 else 1.0)

    @property
    def raw_s(self) -> float:
        return sum(self.raw)

    @property
    def corrected_s(self) -> float:
        return sum(r * s for r, s in zip(self.raw, self.scale))

    def speeds(self) -> list[float]:
        """Each reading as the host's speed relative to the reference."""
        return [self.kernel.reference_s / r for r in self.readings]
