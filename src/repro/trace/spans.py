"""Hierarchical tracing spans for the timing engines.

The perf counters (:mod:`repro.perf`) say *how much* work each engine
did; this module says *where the wall-clock time went*.  A
:class:`Tracer` collects nested, low-overhead spans::

    from repro import trace

    tracer = trace.Tracer()
    with trace.activate(tracer):
        with trace.span("analyze", inputs=64):
            with trace.span("stage_eval", stage=3):
                ...

Every instrumented call site goes through the module-level
:func:`span` / :func:`instant` helpers, which read the process-global
active tracer.  When no tracer is active (the default), a call site
costs one global read, one ``None`` check, and a shared no-op context
manager — ``benchmarks/bench_trace_overhead.py`` keeps that under the
2 % budget on the rca32 analysis.  Spans ride the same run lifecycle as
:class:`~repro.perf.PerfCounters`: the analyzer opens its top-level span
where it creates the run's counters and closes it in the same ``finally``
that merges them, so a run that dies mid-analysis still leaves a
balanced, flushable span buffer.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, NamedTuple, Optional

__all__ = [
    "SpanRecord",
    "Tracer",
    "activate",
    "current",
    "disabled_site_cost",
    "install",
    "instant",
    "span",
    "uninstall",
]


class SpanRecord(NamedTuple):
    """One finished span (or instant mark), ready for export.

    ``start`` is a raw ``time.perf_counter()`` timestamp in seconds;
    exporters normalize to the earliest record.  ``sid`` is unique per
    tracer and ``parent`` names the enclosing span's ``sid`` (``-1`` at
    top level), so aggregation can compute exact self times; ``(pid,
    sid)`` stays unique when records from several processes' trace
    files are aggregated together.  ``phase`` follows the Chrome
    trace_event vocabulary: ``"X"`` complete span, ``"i"`` instant.
    """

    name: str
    start: float
    duration: float
    pid: int
    tid: int
    sid: int
    parent: int
    phase: str
    args: Optional[Dict[str, object]]


class _SpanScope:
    """Context manager of one open span.  :meth:`set` adds args that are
    only known mid-body (e.g. the delta engine's cone size)."""

    __slots__ = ("_tracer", "_name", "_args", "_start", "_sid", "_parent")

    def __init__(self, tracer: "Tracer", name: str,
                 args: Optional[Dict[str, object]]):
        self._tracer = tracer
        self._name = name
        self._args = args

    def set(self, **args: object) -> None:
        if self._args is None:
            self._args = {}
        self._args.update(args)

    def __enter__(self) -> "_SpanScope":
        tracer = self._tracer
        self._sid = tracer._next_sid()
        stack = tracer._stack
        self._parent = stack[-1] if stack else -1
        stack.append(self._sid)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        tracer = self._tracer
        if tracer._stack and tracer._stack[-1] == self._sid:
            tracer._stack.pop()
        tracer.records.append(SpanRecord(
            name=self._name, start=self._start,
            duration=end - self._start, pid=os.getpid(),
            tid=tracer._tid(), sid=self._sid, parent=self._parent,
            phase="X", args=self._args))


class _NullScope:
    """Shared no-op scope returned by :func:`span` when tracing is off."""

    __slots__ = ()

    def set(self, **args: object) -> None:
        pass

    def __enter__(self) -> "_NullScope":
        return self

    def __exit__(self, *exc) -> None:
        pass


#: the one instance every disabled call site shares (stateless)
NULL_SCOPE = _NullScope()


class Tracer:
    """Collects :class:`SpanRecord` objects for one traced run."""

    def __init__(self) -> None:
        self.records: List[SpanRecord] = []
        self._stack: List[int] = []
        self._sid = 0
        self._tids: Dict[int, int] = {}

    # -- identity -----------------------------------------------------------

    def _next_sid(self) -> int:
        self._sid += 1
        return self._sid

    def _tid(self) -> int:
        """Small stable per-tracer thread number (0 = first seen)."""
        ident = threading.get_ident()
        tid = self._tids.get(ident)
        if tid is None:
            tid = self._tids[ident] = len(self._tids)
        return tid

    # -- recording ----------------------------------------------------------

    def span(self, name: str, **args: object) -> _SpanScope:
        """Open a nested span; use as a context manager."""
        return _SpanScope(self, name, args or None)

    def instant(self, name: str, **args: object) -> None:
        """Record a zero-duration mark (Chrome instant event)."""
        self.records.append(SpanRecord(
            name=name, start=time.perf_counter(), duration=0.0,
            pid=os.getpid(), tid=self._tid(), sid=self._next_sid(),
            parent=self._stack[-1] if self._stack else -1,
            phase="i", args=args or None))

    @property
    def open_spans(self) -> int:
        """Spans entered but not yet exited (0 = balanced buffer)."""
        return len(self._stack)


# ---------------------------------------------------------------------------
# The process-global active tracer
# ---------------------------------------------------------------------------

_ACTIVE: Optional[Tracer] = None


def current() -> Optional[Tracer]:
    """The active tracer, or ``None`` when tracing is disabled."""
    return _ACTIVE


def install(tracer: Optional[Tracer]) -> None:
    """Make *tracer* the process-global active tracer (``None`` disables).
    Prefer :func:`activate` where a scope is available."""
    global _ACTIVE
    _ACTIVE = tracer


def uninstall() -> None:
    install(None)


@contextmanager
def activate(tracer: Optional[Tracer]) -> Iterator[Optional[Tracer]]:
    """Activate *tracer* for the duration of the block (``None`` = no-op
    block, so callers can use one code path for both modes)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer if tracer is not None else previous
    try:
        yield tracer
    finally:
        _ACTIVE = previous


def span(name: str, **args: object):
    """Open a span on the active tracer, or a shared no-op scope.

    This is the instrumented-call-site entry point; its disabled cost is
    what the trace-overhead bench budgets.
    """
    tracer = _ACTIVE
    if tracer is None:
        return NULL_SCOPE
    return tracer.span(name, **args)


def instant(name: str, **args: object) -> None:
    """Record an instant mark on the active tracer, if any."""
    tracer = _ACTIVE
    if tracer is not None:
        tracer.instant(name, **args)


def disabled_site_cost(iterations: int = 200_000) -> float:
    """Measured per-call cost of one *disabled* span site, in seconds.

    Times the exact pattern the hot paths execute when no tracer is
    active (``with span(...):`` hitting the shared null scope), so the
    overhead bench can turn a span count into a deterministic disabled-
    overhead estimate instead of gating on noisy wall-clock A/B runs.
    """
    assert _ACTIVE is None, "measure disabled cost with tracing off"
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(iterations):
            with span("overhead_probe", stage=0):
                pass
        best = min(best, time.perf_counter() - start)
    return best / iterations
