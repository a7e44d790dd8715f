"""Performance counters and timers for the timing engine.

The timing analyzer (and anything else that wants observability)
increments named counters and wraps hot sections in named timers.  A
:class:`PerfCounters` instance is cheap enough to keep always-on: an
increment is one dict operation, a timer two ``perf_counter`` calls.

Two instances are typically in play: a per-``analyze()`` snapshot stored
on the :class:`~repro.core.timing.analyzer.TimingResult`, and a cumulative
one on the :class:`~repro.core.timing.analyzer.TimingAnalyzer` that merges
every run (so cross-run cache behaviour is visible too).

Counter names are free-form strings; the timing engine uses the
:data:`STANDARD_COUNTERS` vocabulary so tables line up across tools.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

#: Counters the timing engine emits, in display order, with a short gloss.
STANDARD_COUNTERS: Dict[str, str] = {
    "stage_visits": "worklist pops that evaluated a stage (all of its candidates)",
    "worklist_pushes": "stage activations pushed on the worklist",
    "worklist_stale_pops": "worklist pops with nothing pending (deduped)",
    "candidates": "(path, trigger) delay candidates considered",
    "model_evals": "actual delay-model evaluate() calls",
    "model_cache_hits": "memoized stage-delay reuses",
    "model_cache_misses": "memo misses (same as model_evals when cold)",
    "arrival_updates": "arrival improvements committed",
    "path_enumerations": "per-(stage, node, transition) path enumerations",
    "tree_template_misses": "tree templates compiled (first visit of a path)",
    "tree_template_hits": "compiled-template reuses by later candidates",
    "kernel_batches": "kernel evaluate_many() batches",
    "kernel_nodes": "tree nodes covered by kernel batches",
    "delta_scenarios": "scenarios analyzed by dirty-cone delta re-analysis",
    "input_delta": "changed primary inputs across delta scenarios (Hamming)",
    "cone_stages": "stages inside delta static dirty cones (re-evaluated only where a trigger moved)",
    "stages_skipped": "stages outside delta static dirty cones (arrivals kept)",
    "arrivals_reused": "committed arrivals delta scenarios kept (never dropped for re-evaluation)",
    "verify_cases": "conformance cases generated and analyzed",
    "verify_mode_runs": "engine-mode sweep executions across all cases",
    "verify_comparisons": "mode-pair result comparisons performed",
    "verify_discrepancies": "discrepancies detected (mode pairs + invariants)",
    "verify_invariant_checks": "metamorphic invariant checks evaluated",
    "verify_invariant_failures": "metamorphic invariant violations",
    "verify_shrink_attempts": "shrinker candidate reductions tried",
    "verify_shrink_removed": "elements/vectors removed by the shrinker",
}


@dataclass
class PerfCounters:
    """Named monotonic counters plus named accumulated wall-clock timers."""

    counters: Dict[str, int] = field(default_factory=dict)
    timers: Dict[str, float] = field(default_factory=dict)

    # -- counters -----------------------------------------------------------

    def incr(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def get(self, name: str) -> int:
        return self.counters.get(name, 0)

    # -- timers -------------------------------------------------------------

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Accumulate the wall-clock time of the enclosed block."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.timers[name] = self.timers.get(name, 0.0) + elapsed

    def add_time(self, name: str, seconds: float) -> None:
        self.timers[name] = self.timers.get(name, 0.0) + seconds

    def elapsed(self, name: str) -> float:
        return self.timers.get(name, 0.0)

    # -- aggregation --------------------------------------------------------

    def merge(self, other: "PerfCounters") -> None:
        """Fold *other*'s counts and times into this instance."""
        for name, value in other.counters.items():
            self.incr(name, value)
        for name, value in other.timers.items():
            self.add_time(name, value)

    def snapshot(self) -> "PerfCounters":
        return PerfCounters(counters=dict(self.counters),
                            timers=dict(self.timers))

    def reset(self) -> None:
        self.counters.clear()
        self.timers.clear()

    # -- export -------------------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready ``{"counters": {...}, "timers": {...}}``."""
        return {"counters": dict(self.counters),
                "timers": {k: float(v) for k, v in self.timers.items()}}

    @property
    def cache_hit_rate(self) -> Optional[float]:
        """Model-memo hit fraction, or None before any lookup."""
        hits = self.get("model_cache_hits")
        misses = self.get("model_cache_misses")
        total = hits + misses
        return (hits / total) if total else None

    def format_table(self, title: str = "perf counters") -> str:
        """A fixed-width report, standard counters first.

        Zero-valued counters are elided consistently: a counter that was
        only ever incremented by 0 reads the same as one never touched.
        The value column grows with the longest count, so ≥10-digit
        counters stay aligned with the hit-rate and timer rows.
        """
        lines = [title, "-" * len(title)]
        shown = {n: v for n, v in self.counters.items() if v}
        ordered = [n for n in STANDARD_COUNTERS if n in shown]
        ordered += sorted(n for n in shown if n not in STANDARD_COUNTERS)
        rate = self.cache_hit_rate
        width = max((len(n) for n in ordered), default=0)
        width = max(width, max((len(n) for n in self.timers), default=0))
        if rate is not None:
            width = max(width, len("model cache hit rate"))
        # Timer rows append a one-char "s" unit, so their numeric field
        # is one narrower than the integer counter column; the percent
        # sign is part of the formatted rate, so that row uses the full
        # width.
        vwidth = max([12] + [len(str(shown[n])) for n in ordered])
        for name in ordered:
            lines.append(f"{name:<{width}}  {shown[name]:>{vwidth}}")
        if rate is not None:
            lines.append(f"{'model cache hit rate':<{width}}  "
                         f"{rate:>{vwidth}.1%}")
        for name in sorted(self.timers):
            lines.append(f"{name:<{width}}  "
                         f"{self.timers[name]:>{vwidth - 1}.6f}s")
        return "\n".join(lines)


def merge_all(parts: Mapping[str, PerfCounters]) -> PerfCounters:
    """Union of several counter sets (e.g. one per analyzed scenario)."""
    total = PerfCounters()
    for part in parts.values():
        total.merge(part)
    return total


@dataclass
class BatchPerf:
    """Per-scenario counters of one batch sweep, plus the aggregate.

    The interesting batch-level number is the *cross-scenario* cache hit
    rate: a shared analyzer keeps its delay-model memo warm between
    scenarios, so scenario N's hits include reuse of work done for
    scenarios 0..N-1 — exactly the amortization
    :meth:`~repro.core.timing.analyzer.TimingAnalyzer.analyze_many`
    exists to provide.
    """

    scenarios: List[Tuple[str, PerfCounters]] = field(default_factory=list)

    def add(self, label: str, perf: PerfCounters) -> None:
        self.scenarios.append((label, perf.snapshot()))

    def __len__(self) -> int:
        return len(self.scenarios)

    @property
    def total(self) -> PerfCounters:
        """Aggregate over every scenario (recomputed on access)."""
        total = PerfCounters()
        for _, part in self.scenarios:
            total.merge(part)
        return total

    @property
    def cache_hit_rate(self) -> Optional[float]:
        """Model-memo hit fraction across the whole batch."""
        return self.total.cache_hit_rate

    def evals_per_scenario(self) -> Optional[float]:
        """Mean delay-model evaluations per scenario."""
        if not self.scenarios:
            return None
        return self.total.get("model_evals") / len(self.scenarios)

    @property
    def delta_skip_rate(self) -> Optional[float]:
        """Fraction of stages outside the changed inputs' static dirty
        cones, which the delta engine keeps without a look, or None when
        the sweep never ran in delta mode.  Inside a cone only the stages
        whose triggers moved are re-evaluated (``stage_visits``)."""
        total = self.total
        cone = total.get("cone_stages")
        skipped = total.get("stages_skipped")
        seen = cone + skipped
        return (skipped / seen) if seen else None

    def visits_per_scenario(self) -> Optional[float]:
        """Mean stage visits per scenario — the number the delta bench
        gates on (dirty-cone re-analysis shrinks it)."""
        if not self.scenarios:
            return None
        return self.total.get("stage_visits") / len(self.scenarios)

    @property
    def template_hit_rate(self) -> Optional[float]:
        """Compiled-template reuse fraction across the whole batch, or
        None when the sweep compiled and reused no template."""
        total = self.total
        hits = total.get("tree_template_hits")
        misses = total.get("tree_template_misses")
        seen = hits + misses
        return (hits / seen) if seen else None

    def format_table(self, title: str = "batch perf") -> str:
        """One row per scenario plus a totals row with the batch-wide
        cache hit rate."""
        lines = [title, "-" * len(title),
                 f"{'scenario':<20} {'visits':>7} {'evals':>7} "
                 f"{'hits':>7} {'hit rate':>9} {'seconds':>10}"]

        def row(name: str, perf: PerfCounters) -> str:
            rate = perf.cache_hit_rate
            return (f"{name:<20} {perf.get('stage_visits'):>7} "
                    f"{perf.get('model_evals'):>7} "
                    f"{perf.get('model_cache_hits'):>7} "
                    f"{(f'{rate:.1%}' if rate is not None else '-'):>9} "
                    f"{perf.elapsed('analyze'):>9.4f}s")

        for label, perf in self.scenarios:
            lines.append(row(label, perf))
        total = self.total
        lines.append("-" * len(lines[2]))
        lines.append(row(f"total ({len(self.scenarios)})", total))
        per_scenario = self.evals_per_scenario()
        if per_scenario is not None:
            lines.append(f"model evals per scenario: {per_scenario:.1f}")
        template_rate = self.template_hit_rate
        if template_rate is not None:
            lines.append(
                f"tree templates: {total.get('tree_template_hits')} hits / "
                f"{total.get('tree_template_misses')} compiles "
                f"({template_rate:.1%} reuse)")
        if total.get("delta_scenarios"):
            visits = self.visits_per_scenario()
            skip = self.delta_skip_rate
            lines.append(
                f"delta sweeps: {total.get('delta_scenarios')}/"
                f"{len(self.scenarios)} scenario(s), "
                f"{total.get('stages_skipped')} stage(s) skipped"
                + (f" ({skip:.1%})" if skip is not None else "")
                + f", {total.get('arrivals_reused')} arrival(s) reused, "
                f"{visits:.1f} stage visits/scenario")
        return "\n".join(lines)
