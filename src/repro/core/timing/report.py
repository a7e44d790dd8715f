"""Crystal-style text reports.

Crystal printed its findings as ranked critical paths with per-stage
breakdowns; these helpers render a :class:`~repro.core.timing.analyzer.TimingResult`
the same way (see experiment F4).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ...tech import Transition
from ...units import format_value
from .analyzer import Arrival, Event, TimingResult, event_order


def format_critical_path(result: TimingResult, node: str,
                         transition: Transition) -> str:
    """Stage-by-stage rendering of the critical path to one event."""
    chain = result.critical_path(node, transition)
    lines = [
        f"critical path to {Event(result.network.node(node).name, transition)}"
        f"  (model: {result.model_name})",
        f"{'event':>18s} {'arrival':>12s} {'stage delay':>12s} "
        f"{'slope':>10s}  via",
    ]
    for event, arrival in chain:
        if arrival.is_primary:
            via = "primary input"
            stage_delay = "-"
        else:
            mechanism = arrival.trigger.mechanism if arrival.trigger else "?"
            source = arrival.path.source if arrival.path else "?"
            via = f"{mechanism}-trigger, path from {source}"
            stage_delay = format_value(arrival.stage_delay.delay, "s")
        lines.append(
            f"{str(event):>18s} {format_value(arrival.time, 's'):>12s} "
            f"{stage_delay:>12s} {format_value(arrival.slope, 's'):>10s}  {via}"
        )
    total = chain[-1][1].time - chain[0][1].time
    lines.append(f"path delay: {format_value(total, 's')}")
    return "\n".join(lines)


def worst_events(result: TimingResult,
                 nodes: Optional[List[str]] = None,
                 count: Optional[int] = None
                 ) -> List[Tuple[Event, Arrival]]:
    """Computed events ranked latest-first, optionally node-filtered;
    exact time ties rank in :func:`~.analyzer.event_order`, so a delta
    result ranks like the cold result of the same vector.

    The ranking behind :func:`format_worst_paths` and the batch sweep
    reports (:mod:`repro.batch.report`).
    """
    items: List[Tuple[Event, Arrival]] = list(result.arrivals.items())
    if nodes is not None:
        wanted = {result.network.node(n).name for n in nodes}
        items = [(e, a) for e, a in items if e.node in wanted]
    items.sort(key=lambda item: (-item[1].time, event_order(item[0])))
    return items if count is None else items[:count]


def format_worst_paths(result: TimingResult,
                       nodes: Optional[List[str]] = None,
                       count: int = 5) -> str:
    """The *count* latest events with their arrival times (ranked list)."""
    lines = [f"worst arrivals (model: {result.model_name})"]
    for event, arrival in worst_events(result, nodes, count):
        origin = "input" if arrival.is_primary else str(arrival.cause)
        lines.append(
            f"  {str(event):>14s}  {format_value(arrival.time, 's'):>12s}"
            f"  slope {format_value(arrival.slope, 's'):>10s}  from {origin}"
        )
    return "\n".join(lines)


def arrival_table(result: TimingResult,
                  nodes: Optional[List[str]] = None) -> str:
    """All computed arrivals as an aligned table (rise and fall columns)."""
    wanted = None if nodes is None else {
        result.network.node(n).name for n in nodes}
    # One pass over the arrivals: each row holds its node's rise and
    # fall times, None where that edge has no arrival.
    rows: Dict[str, List[Optional[float]]] = {}
    for event, arrival in result.arrivals.items():
        if wanted is None or event.node in wanted:
            row = rows.setdefault(event.node, [None, None])
            row[event.transition is Transition.FALL] = arrival.time
    lines = [f"{'node':>16s} {'rise':>12s} {'fall':>12s}"]
    for name in sorted(rows):
        rise, fall = ("-" if time is None else format_value(time, "s")
                      for time in rows[name])
        lines.append(f"{name:>16s} {rise:>12s} {fall:>12s}")
    return "\n".join(lines)
