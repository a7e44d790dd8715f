"""Text reports for batch sweeps, in the Crystal report idiom.

:func:`format_sweep_summary` is what the ``sweep`` CLI subcommand
prints: a per-scenario table (worst event, arrival, delta against the
batch mean), the min/max/mean arrival statistics, and the worst vector's
critical path.  :func:`format_sweep_profile` renders the per-batch perf
counters (cross-scenario cache hit rate) for ``--profile``.
"""

from __future__ import annotations

from ..core.timing.report import format_critical_path
from ..units import format_value
from .sweep import SweepResult

__all__ = ["format_sweep_summary", "format_sweep_profile"]


def format_sweep_summary(sweep: SweepResult, count: int = 20,
                         critical_path: bool = True) -> str:
    """The sweep's headline report.

    *count* caps the per-scenario table (latest first); the statistics
    and worst vector always cover the whole batch.
    """
    stats = sweep.arrival_stats()
    worst = sweep.worst()
    watched = ", ".join(sweep.watch) if sweep.watch else "all nodes"
    lines = [
        f"sweep summary: {len(sweep)} scenario(s) on "
        f"{sweep.network.name} (model: {sweep.model_name}, "
        f"watching {watched})",
    ]
    stats_line = _order_line(sweep)
    if stats_line:
        lines.append(stats_line)
    lines += [
        "",
        f"{'scenario':<24} {'worst event':>14} {'arrival':>12} "
        f"{'vs mean':>10}",
    ]
    ranked = sorted(sweep.outcomes, key=lambda o: o.worst_time,
                    reverse=True)
    for outcome in ranked[:count]:
        delta = outcome.worst_time - stats.mean
        lines.append(
            f"{outcome.label:<24} {str(outcome.worst_event):>14} "
            f"{format_value(outcome.worst_time, 's'):>12} "
            f"{'+' if delta >= 0 else '-'}"
            f"{format_value(abs(delta), 's'):>9}")
    if len(ranked) > count:
        lines.append(f"  … {len(ranked) - count} more scenario(s)")
    lines += [
        "",
        f"arrival over batch:  min {format_value(stats.minimum, 's')}"
        f"  mean {format_value(stats.mean, 's')}"
        f"  max {format_value(stats.maximum, 's')}"
        f"  spread {format_value(stats.spread, 's')}",
        f"worst vector: {worst.label}  ({worst.worst_event} at "
        f"{format_value(worst.worst_time, 's')})",
    ]
    if critical_path:
        lines += ["", format_critical_path(
            worst.result, worst.worst_event.node,
            worst.worst_event.transition)]
    return "\n".join(lines)


def _order_line(sweep: SweepResult) -> str:
    """One line describing delta mode and analysis order, or ''."""
    stats = sweep.order_stats
    if stats is None or (not stats.delta and stats.order == "given"):
        return ""
    mode = "delta (dirty-cone)" if stats.delta else "full re-analysis"
    line = f"analysis: {mode}, order {stats.order}"
    mean = stats.mean_delta
    if mean is not None:
        line += (f", input delta mean {mean:.2f} / max {stats.max_delta} "
                 "between consecutive vectors")
    return line


def format_sweep_profile(sweep: SweepResult) -> str:
    """Per-scenario and batch-aggregate perf counters."""
    return sweep.batch_perf.format_table(
        f"batch perf ({len(sweep)} scenario(s), shared analyzer)")
