"""Span recording around calls into the slcd modules, and the statistics
the benchmark reports from them.

A span is one call into a public function of the package: its name
(``module.function``), start and end on the ``perf_counter`` clock, the
index of the span that was open on the same thread when it began, and
the thread id. Spans live in memory and are written out when the run
ends. Self time is a span's duration minus the durations of its
children; children are always on the parent's thread, so self time is
computed per thread.
"""
from __future__ import annotations

import contextlib
import functools
import json
import math
import threading
import time
from dataclasses import dataclass


@contextlib.contextmanager
def rebound(targets, wrap):
    """Rebind ``module.attr`` to ``wrap(original, *rest)`` for each
    ``(module, attr, *rest)`` in targets, restoring the originals on
    exit. Attributes a module does not have are skipped, so a refactor
    that drops a call leaves its layer reading zero."""
    saved = []
    try:
        for module, attr, *rest in targets:
            if hasattr(module, attr):
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, wrap(original, *rest))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p % of
    the samples at or below it. p = 50 of an even-sized sample is the
    lower middle value; no interpolation, so the result is always one of
    the measured values."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < p <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    ordered = sorted(values)
    rank = math.ceil(p / 100.0 * len(ordered))
    return ordered[rank - 1]


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    thread: int

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans when enabled; when disabled, ``span`` and ``wrap``
    add nothing to the call path."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        # One slot per span, filled when it closes: (name, start, end,
        # parent index, thread id).
        self._open: list[tuple | None] = []
        self._stack = threading.local()

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        stack = getattr(self._stack, "ids", None)
        if stack is None:
            stack = self._stack.ids = []
        # list.append is atomic under the interpreter lock, so worker
        # threads can reserve slots without a lock of their own.
        self._open.append(None)
        idx = len(self._open) - 1
        parent = stack[-1] if stack else None
        stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self._open[idx] = (name, start, end, parent, threading.get_ident())

    def wrap(self, name: str, fn):
        if not self.enabled:
            return fn

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def rebound(self, bindings):
        """Rebind ``module.attr`` to a span-recording wrapper named
        ``span_name`` for each (module, attr, span_name) while the block
        runs; nothing when disabled."""
        if not self.enabled:
            return contextlib.nullcontext()
        return rebound(bindings, lambda original, name: self.wrap(name, original))

    def finished(self) -> list[Span]:
        """All spans, in the order they were opened. Parent indices refer
        to positions in this list, so every span must have closed."""
        if any(rec is None for rec in self._open):
            raise RuntimeError("a span is still open")
        return [Span(*rec) for rec in self._open]

    def dump(self, path, extra: dict) -> None:
        spans = self.finished()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                **extra,
                "spans": [[s.name, s.start, s.end, s.parent, s.thread] for s in spans],
            }, fh)
            fh.write("\n")


def self_times(spans: list[Span]) -> list[float]:
    """Self time of each span: its duration minus its children's."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


@dataclass
class NameStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def by_name(spans: list[Span]) -> dict[str, NameStats]:
    out: dict[str, NameStats] = {}
    for s, own in zip(spans, self_times(spans)):
        st = out.setdefault(s.name, NameStats())
        st.calls += 1
        st.total_s += s.duration
        st.self_s += own
    return out


def module_self_by_thread(spans: list[Span]) -> dict[int, dict[str, float]]:
    """Per thread, the self time of each module."""
    out: dict[int, dict[str, float]] = {}
    for s, own in zip(spans, self_times(spans)):
        per = out.setdefault(s.thread, {})
        per[s.module] = per.get(s.module, 0.0) + own
    return out
