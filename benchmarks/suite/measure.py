"""Pure helpers of the benchmark suite: percentiles, host speed
calibration, digests, span self times, and the pair-wise compare rule.

Nothing here runs a workload, so ``test_suite.py`` exercises all of it
in well under a second.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import random
import statistics
import time
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

#: Percentiles a tail may be reported at, lowest first.
LADDER = (50.0, 60.0, 75.0, 80.0, 90.0, 95.0, 98.0, 99.0, 99.9)

#: Samples that must lie beyond a reported tail percentile.
TAIL_SAMPLES = 10

#: Minimum alternating parent/change pairs the compare rule accepts.
MIN_PAIRS = 10

#: Share of pairs the change must win before a gain counts.
WIN_SHARE = 0.9


# ---------------------------------------------------------------------------
# Percentiles and the tail rule
# ---------------------------------------------------------------------------

def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default definition)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = pct / 100.0 * (len(ordered) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def beyond(samples: int, pct: float) -> float:
    """Expected number of samples above the *pct* percentile (rounded,
    so 100 - 99.9 reads as exactly 0.1)."""
    return round(samples * (100.0 - pct) / 100.0, 6)


def tail_percentile(samples: int) -> float:
    """The highest :data:`LADDER` percentile with at least
    :data:`TAIL_SAMPLES` samples beyond it (choosing-metrics §1)."""
    eligible = [pct for pct in LADDER
                if beyond(samples, pct) >= TAIL_SAMPLES]
    if not eligible:
        raise ValueError(f"{samples} samples cannot support any tail "
                         f"(need {TAIL_SAMPLES * 2} for the median)")
    return eligible[-1]


def min_samples(pct: float) -> int:
    """The fewest samples for which :func:`tail_percentile` reaches *pct*."""
    return math.ceil(round(TAIL_SAMPLES * 100.0 / (100.0 - pct), 6))


#: Most chunks a window is split into for chunk medians.
CHUNKS = 5


def chunk_median(ops: Sequence[Tuple[float, int]], chunks: int,
                 statistic) -> float:
    """Median over *chunks* consecutive runs of *ops* (``(seconds,
    items)`` in the order they ran) of ``statistic(run)``.  A burst of
    contention from the rest of the machine that hits one chunk does
    not move the median."""
    bounds = [len(ops) * k // chunks for k in range(chunks + 1)]
    return statistics.median(statistic(ops[low:high])
                             for low, high in zip(bounds, bounds[1:])
                             if high > low)


def rate(ops: Sequence[Tuple[float, int]]) -> float:
    """Items per second spent in ops: checking between ops is left out."""
    return (sum(items for _, items in ops)
            / sum(seconds for seconds, _ in ops))


def op_statistics(ops: Sequence[Tuple[float, int]],
                  tail_pct: float) -> Tuple[float, float, float]:
    """(median ms, *tail_pct* ms, items per second) of sequential
    ``(seconds, items)`` ops, each a chunk median; zeros without ops.
    The latencies use as many chunks as still support the tail in each."""
    if not ops:
        return 0.0, 0.0, 0.0
    chunks = max(1, min(CHUNKS, len(ops) // min_samples(tail_pct)))

    def latency_ms(pct: float) -> float:
        return 1e3 * chunk_median(ops, chunks, lambda run: percentile(
            [seconds for seconds, _ in run], pct))

    return latency_ms(50.0), latency_ms(tail_pct), chunk_median(
        ops, CHUNKS, rate)


# ---------------------------------------------------------------------------
# Host speed calibration
# ---------------------------------------------------------------------------

#: Seconds one :func:`calibration_sample` takes at the reference host
#: speed.  Every time the suite reports is scaled to that speed, so this
#: constant and the sample's code are fixed: changing either rescales
#: every result.
CALIBRATION_S = 0.002

#: A window takes a calibration sample before its next op once this
#: many seconds have passed since the last one.
CALIBRATE_EVERY = 0.2

#: Calibration samples, nearest in time, that set one op's scale.
NEAREST = 5


def _calibration_tree():
    """A fixed random 300-node RC tree as ``(names in parent-first
    order, {name: (resistance, capacitance, children)})``."""
    rng = random.Random(0)
    order = ["n0"]
    tree = {"n0": (0.0, rng.uniform(1.0, 2.0), [])}
    for index in range(1, 300):
        parent = order[rng.randrange(len(order))]
        name = f"n{index}"
        tree[name] = (rng.uniform(0.5, 3.0), rng.uniform(1.0, 2.0), [])
        tree[parent][2].append(name)
        order.append(name)
    return order, tree


_ORDER, _TREE = _calibration_tree()


def calibration_sample() -> float:
    """Wall seconds of a fixed pure-Python job: Elmore delays of
    :data:`_TREE` through dicts, a heap worklist and float math — the
    mix the engine's own hot loops run.  It imports nothing from the
    package, so no change to the package moves it; only the host does."""
    start = time.perf_counter()
    for _ in range(6):
        downstream: Dict[str, float] = {}
        for name in reversed(_ORDER):
            _, cap, children = _TREE[name]
            downstream[name] = cap + sum(downstream[c] for c in children)
        delays = {"n0": 0.0}
        heap = [(0.0, "n0")]
        while heap:
            delay, name = heapq.heappop(heap)
            for child in _TREE[name][2]:
                reach = delay + _TREE[child][0] * downstream[child]
                delays[child] = reach
                heapq.heappush(heap, (reach, child))
        sum(math.exp(-delay / 1e3) for delay in sorted(delays.values()))
    return time.perf_counter() - start


class Calibration:
    """Calibration samples taken through a pass, and the scale they give.

    The host this suite runs on is shared: its speed drifts by up to
    2-3x over tens of seconds, and a pure-Python job slows with it in
    step.  Scaling each op by ``CALIBRATION_S / local sample time``
    reports it at the reference speed, so runs at different moments
    agree while a change to the package still moves the result.
    """

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []  # (when, seconds)

    def sample(self) -> None:
        when = time.perf_counter()
        self.samples.append((when, calibration_sample()))

    def scale_at(self, when: float) -> float:
        """Scale of an op started at *when*: from the :data:`NEAREST`
        samples closest in time."""
        nearest = sorted(self.samples, key=lambda s: abs(s[0] - when))
        return CALIBRATION_S / statistics.median(
            seconds for _, seconds in nearest[:NEAREST])

    def scale(self) -> float:
        """Scale of the whole pass: from the median sample."""
        return CALIBRATION_S / statistics.median(
            seconds for _, seconds in self.samples)


# ---------------------------------------------------------------------------
# Arrival digests
# ---------------------------------------------------------------------------

def arrivals_digest(arrivals: Iterable[Tuple[str, str, float, float]]) -> str:
    """sha256 over sorted ``(node, edge, time.hex(), slope.hex())`` lines.

    ``float.hex`` is exact, so two digests agree only when every arrival
    is bit-identical; sorting makes the digest independent of the order
    an engine happened to commit arrivals in.
    """
    lines = sorted(f"{node} {edge} {float(time).hex()} {float(slope).hex()}"
                   for node, edge, time, slope in arrivals)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def result_digest(result) -> str:
    """:func:`arrivals_digest` of a ``TimingResult``."""
    return arrivals_digest(
        (event.node, event.transition.value, arrival.time, arrival.slope)
        for event, arrival in result.arrivals.items())


def combined_digest(digests: Iterable[str]) -> str:
    """One digest over an ordered sequence of digests (a whole sweep)."""
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Span self times
# ---------------------------------------------------------------------------

def records_from_chrome(events: Iterable[Mapping]) -> List:
    """Rebuild ``SpanRecord`` parent links from Chrome ``X`` events.

    The Chrome export keeps no parent ids, so a span's parent is taken
    to be the innermost earlier span of the same (pid, tid) that fully
    contains it.  Spans of one thread nest, except the asyncio handler
    spans of concurrent requests, which overlap; those come out as
    siblings.
    """
    from repro.trace.spans import SpanRecord

    by_thread: Dict[Tuple[int, int], List[Mapping]] = {}
    for event in events:
        if event.get("ph") == "X":
            by_thread.setdefault((event["pid"], event["tid"]), []).append(
                event)
    records = []
    sid = 0
    epsilon = 1e-3  # microseconds of float rounding in ts + dur
    for (pid, tid), spans in by_thread.items():
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack: List[Tuple[int, float]] = []  # (sid, end)
        for event in spans:
            start, end = event["ts"], event["ts"] + event["dur"]
            while stack and stack[-1][1] <= start + epsilon:
                stack.pop()
            parent = -1
            if stack and end <= stack[-1][1] + epsilon:
                parent = stack[-1][0]
            sid += 1
            records.append(SpanRecord(
                name=event["name"], start=start / 1e6,
                duration=event["dur"] / 1e6, pid=pid, tid=tid, sid=sid,
                parent=parent, phase="X", args=event.get("args")))
            stack.append((sid, end))
    return records


def span_times(records) -> Dict[str, Tuple[int, float, float]]:
    """``{span name: (count, total s, self s)}`` via ``aggregate_spans``."""
    from repro.trace.export import aggregate_spans

    return {stat.name: (stat.count, stat.total, stat.self_time)
            for stat in aggregate_spans(records) if stat.count}


# ---------------------------------------------------------------------------
# The compare rule (choosing-metrics §5-§8)
# ---------------------------------------------------------------------------

def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)``."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: Sequence[float], change: Sequence[float],
            better: str, bound: float) -> Tuple[str, int]:
    """Judge one (metric, workload) over paired runs.

    Returns ``(verdict, wins)``.  ``parent[i]`` and ``change[i]`` are the
    i-th alternating pair.  The verdicts:

    * ``improved`` — the change wins at least 9/10 of the pairs (ties
      count for neither) and the medians differ by more than the
      parent's own interquartile spread;
    * ``unresolved`` — the parent's spread is wider than the bound, and
      not every change run beats every parent run;
    * ``regressed`` — the change median is worse than the parent median
      by more than the bound (a share of the parent median);
    * ``unchanged`` — none of the above.
    """
    if len(parent) != len(change):
        raise ValueError("parent and change need the same number of runs")
    if len(parent) < MIN_PAIRS:
        raise ValueError(f"need at least {MIN_PAIRS} pairs, "
                         f"got {len(parent)}")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    q1, p_median, q3 = quartiles(parent)
    c_median = statistics.median(change)
    spread = q3 - q1
    gain = sign * (c_median - p_median)
    if wins >= WIN_SHARE * len(parent) and gain > spread:
        return "improved", wins
    scale = abs(p_median)
    every_run_better = (min(change) > max(parent) if sign > 0
                        else max(change) < min(parent))
    if scale and spread / scale > bound and not every_run_better:
        return "unresolved", wins
    worse = -gain / scale if scale else (1.0 if gain < 0 else 0.0)
    if worse > bound:
        return "regressed", wins
    return "unchanged", wins


def failed_share(runs: Sequence[Mapping], workload: str) -> float:
    """Failed over attempted ops of *workload*, pooled across *runs*."""
    attempted = sum(run[workload]["attempted"] for run in runs)
    failed = sum(run[workload]["failed"] for run in runs)
    return failed / attempted if attempted else 0.0


def compare_runs(parent: Sequence[Mapping], change: Sequence[Mapping],
                 declared: Mapping) -> Tuple[List[Dict], bool]:
    """Apply :func:`verdict` to every (workload, end-to-end metric).

    *parent* and *change* are lists of suite results (one per run, in
    pair order); *declared* is ``BENCHMARK.json``.  Returns the table
    rows and whether the change is acceptable: no regression, and no
    rise in the failed share — which also voids every claimed gain.
    """
    rows: List[Dict] = []
    workloads = [w["name"] for w in declared["workloads"]]
    ok = True
    for workload in workloads:
        if not all(workload in run for run in (*parent, *change)):
            raise ValueError(f"workload {workload!r} missing from some runs")
        before = failed_share(parent, workload)
        after = failed_share(change, workload)
        more_failures = after > before
        rows.append({"workload": workload, "metric": "failed_frac",
                     "unit": "ratio", "parent": before, "change": after,
                     "spread": 0.0, "wins": 0,
                     "verdict": "regressed" if more_failures
                     else "unchanged"})
        ok = ok and not more_failures
        for metric in declared["end_to_end"]:
            name = metric["name"]
            p = [run[workload][name] for run in parent]
            c = [run[workload][name] for run in change]
            result, wins = verdict(p, c, metric["better"], metric["bound"])
            if result == "improved" and more_failures:
                result = "void"
            q1, p_median, q3 = quartiles(p)
            rows.append({"workload": workload, "metric": name,
                         "unit": metric["unit"], "parent": p_median,
                         "change": statistics.median(c), "spread": q3 - q1,
                         "wins": wins, "verdict": result})
            ok = ok and result != "regressed"
    return rows, ok
