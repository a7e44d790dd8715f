"""Exporters for traced runs: Chrome trace_event JSON and flat summaries.

:func:`write_chrome_trace` emits the JSON-object flavour of the Chrome
``trace_event`` format — load the file in ``chrome://tracing`` or
https://ui.perfetto.dev to see the nested stage/kernel spans on a
timeline.

:func:`aggregate_spans` / :func:`format_trace_summary` produce the flat
``--trace-summary`` table: per span name, the call count, total wall
time, and *self* time (total minus the time spent in child spans —
computed exactly from the recorded parent links, not by interval
heuristics).

:func:`validate_trace` checks a trace object (or file) against the
subset of the trace_event schema this package emits; ``make
service-smoke`` gates on it, and ``python -m repro.trace.export FILE``
runs it from the command line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..errors import TraceError
from .spans import SpanRecord, Tracer

__all__ = [
    "SpanStats",
    "aggregate_spans",
    "chrome_trace_events",
    "format_trace_summary",
    "validate_trace",
    "validate_trace_file",
    "write_chrome_trace",
]

_RecordsOrTracer = Union[Tracer, Sequence[SpanRecord]]


def _records(source: _RecordsOrTracer) -> List[SpanRecord]:
    if isinstance(source, Tracer):
        return list(source.records)
    return [SpanRecord(*record) for record in source]


# ---------------------------------------------------------------------------
# Chrome trace_event export
# ---------------------------------------------------------------------------

def chrome_trace_events(source: _RecordsOrTracer) -> List[Dict]:
    """The ``traceEvents`` list for *source*, timestamps normalized.

    Timestamps are microseconds relative to the earliest record, which
    is what the Chrome/Perfetto viewers expect.
    """
    records = _records(source)
    events: List[Dict] = []
    base = min((r.start for r in records), default=0.0)
    for record in records:
        event: Dict[str, object] = {
            "name": record.name,
            "cat": "repro",
            "ph": record.phase,
            "ts": (record.start - base) * 1e6,
            "pid": record.pid,
            "tid": record.tid,
        }
        if record.phase == "X":
            event["dur"] = record.duration * 1e6
        elif record.phase == "i":
            event["s"] = "t"
        if record.args:
            event["args"] = dict(record.args)
        events.append(event)
    return events


def write_chrome_trace(source: _RecordsOrTracer, path: str) -> int:
    """Write *source* as Chrome trace_event JSON; returns the event count."""
    events = chrome_trace_events(source)
    payload = {"traceEvents": events, "displayTimeUnit": "ms"}
    try:
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=1)
            handle.write("\n")
    except OSError as exc:
        raise TraceError(f"cannot write trace file {path}: {exc}") from exc
    return len(events)


# ---------------------------------------------------------------------------
# Flat aggregation (--trace-summary)
# ---------------------------------------------------------------------------

@dataclass
class SpanStats:
    """Aggregate of every span sharing one name."""

    name: str
    count: int = 0
    total: float = 0.0
    self_time: float = 0.0
    instants: int = 0


def aggregate_spans(source: _RecordsOrTracer) -> List[SpanStats]:
    """Per-name stats, descending self time (the profiling question).

    Self time is exact: each span's child durations are subtracted using
    the recorded ``(pid, parent sid)`` links, so records aggregated from
    several processes cannot double-count.
    """
    records = _records(source)
    child_time: Dict[Tuple[int, int], float] = {}
    for record in records:
        if record.phase == "X" and record.parent >= 0:
            key = (record.pid, record.parent)
            child_time[key] = child_time.get(key, 0.0) + record.duration
    stats: Dict[str, SpanStats] = {}
    for record in records:
        stat = stats.get(record.name)
        if stat is None:
            stat = stats[record.name] = SpanStats(name=record.name)
        if record.phase == "i":
            stat.instants += 1
            continue
        stat.count += 1
        stat.total += record.duration
        stat.self_time += record.duration - child_time.get(
            (record.pid, record.sid), 0.0)
    return sorted(stats.values(), key=lambda s: (-s.self_time, s.name))


def format_trace_summary(source: _RecordsOrTracer,
                         title: str = "trace summary") -> str:
    """The flat per-span-name table ``--trace-summary`` prints."""
    records = _records(source)
    stats = aggregate_spans(records)
    pids = {record.pid for record in records}
    header = (f"{title}: {len(records)} event(s) from "
              f"{len(pids)} process(es)")
    lines = [header, "-" * len(header),
             f"{'span':<20} {'count':>8} {'total':>12} {'self':>12}"]
    for stat in stats:
        if stat.count:
            lines.append(f"{stat.name:<20} {stat.count:>8} "
                         f"{stat.total:>11.6f}s {stat.self_time:>11.6f}s")
        else:
            lines.append(f"{stat.name:<20} {stat.instants:>8} "
                         f"{'-':>12} {'-':>12}")
    if not stats:
        lines.append("(no spans recorded)")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Schema validation
# ---------------------------------------------------------------------------

_PHASES = {"X", "i"}


def validate_trace(payload: object) -> int:
    """Check *payload* against the trace_event subset this package emits.

    Returns the number of events; raises :class:`TraceError` naming the
    first offending event otherwise.  The checks mirror what the
    Chrome/Perfetto loaders require: a ``traceEvents`` list whose
    entries carry a string ``name``, a known ``ph``, numeric ``ts``
    (and ``dur`` for complete events), and integer ``pid``/``tid``.
    """
    if not isinstance(payload, dict):
        raise TraceError("trace file is not a JSON object")
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        raise TraceError("trace object has no traceEvents list")
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            raise TraceError(f"{where} is not an object")
        name = event.get("name")
        if not isinstance(name, str) or not name:
            raise TraceError(f"{where} has no name")
        phase = event.get("ph")
        if phase not in _PHASES:
            raise TraceError(f"{where} ({name}) has bad phase {phase!r}")
        if not isinstance(event.get("pid"), int):
            raise TraceError(f"{where} ({name}) has no integer pid")
        if not isinstance(event.get("tid"), int):
            raise TraceError(f"{where} ({name}) has no integer tid")
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            raise TraceError(f"{where} ({name}) has bad ts {ts!r}")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise TraceError(f"{where} ({name}) has bad dur {dur!r}")
        args = event.get("args")
        if args is not None and not isinstance(args, dict):
            raise TraceError(f"{where} ({name}) has non-object args")
    return len(events)


def validate_trace_file(path: str) -> int:
    """Load *path* and :func:`validate_trace` it; returns the event count."""
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise TraceError(f"cannot read trace file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise TraceError(f"{path} is not valid JSON: {exc}") from exc
    return validate_trace(payload)


def main(argv: Optional[Iterable[str]] = None) -> int:
    """``python -m repro.trace.export FILE…`` — validate trace files."""
    import sys
    paths = list(argv if argv is not None else sys.argv[1:])
    if not paths:
        print("usage: python -m repro.trace.export TRACE.json …",
              file=sys.stderr)
        return 2
    for path in paths:
        try:
            count = validate_trace_file(path)
        except TraceError as exc:
            print(f"{path}: INVALID — {exc}", file=sys.stderr)
            return 1
        print(f"{path}: valid trace_event JSON ({count} events)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    import sys
    sys.exit(main())
