"""Bounded LRU pool of warm :class:`TimingAnalyzer` instances.

The whole point of serving timing queries from a daemon instead of a
process-per-request CLI is that the analyzer-lifetime caches — path
enumerations, RC trees, tree templates, the candidate tables, the
delay-model memo — are input-independent and therefore *request*-
independent: the first request against a netlist pays the setup cost,
every later request rides the warm caches (DESIGN.md §5b, §10).

Entries are keyed by :meth:`AnalyzeRequest.pool_key` — a content hash
of the netlist text plus every knob that shapes the analyzer — so a
client never has to register a circuit: sending the same ``.sim`` text
twice *is* the registration.  The pool is bounded; the least recently
used analyzer is dropped when a new netlist would exceed capacity.

The pool is **not** thread-safe by itself.  The daemon funnels all
access through its single dispatcher, which is also what makes
cross-request coalescing deterministic.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Dict, Optional

from ..core.timing import TimingAnalyzer
from ..netlist import sim_format
from .protocol import MODELS, AnalyzeRequest, ResultEncoder

__all__ = ["AnalyzerPool", "PoolEntry"]


class PoolEntry:
    """One warm analyzer, the request shape that built it, and the
    encoder of its responses (evicted with it)."""

    __slots__ = ("key", "analyzer", "network", "encoder", "built_at",
                 "requests", "vectors")

    def __init__(self, key: str, analyzer: TimingAnalyzer, network) -> None:
        self.key = key
        self.analyzer = analyzer
        self.network = network
        self.encoder = ResultEncoder()
        self.built_at = time.time()
        self.requests = 0
        self.vectors = 0


class AnalyzerPool:
    """LRU map of pool key → :class:`PoolEntry`, bounded at *capacity*."""

    def __init__(self, capacity: int = 4) -> None:
        if capacity < 1:
            raise ValueError(f"pool capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[str, PoolEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, request: AnalyzeRequest) -> PoolEntry:
        """The warm entry for *request*, built (and LRU-evicting) on miss.

        Construction errors (a netlist that does not parse, …) propagate
        as :class:`~repro.errors.ReproError` — the daemon maps them to a
        400 response without touching the pool.
        """
        key = request.pool_key()
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return entry
        self.misses += 1
        tech = request.technology()
        network = sim_format.loads(request.netlist, tech,
                                   name=f"service:{key[:12]}")
        analyzer = TimingAnalyzer(network, model=MODELS[request.model]())
        entry = PoolEntry(key, analyzer, network)
        self._entries[key] = entry
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        return entry

    def peek(self, key: str) -> Optional[PoolEntry]:
        """The entry for *key* without touching LRU order (tests only)."""
        return self._entries.get(key)

    @property
    def hit_rate(self) -> Optional[float]:
        total = self.hits + self.misses
        return (self.hits / total) if total else None

    def stats(self) -> Dict[str, object]:
        """JSON-ready pool statistics for the ``/metrics`` endpoint."""
        return {
            "capacity": self.capacity,
            "size": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
            "entries": [
                {"key": entry.key[:12], "netlist": entry.network.name,
                 "requests": entry.requests, "vectors": entry.vectors}
                for entry in self._entries.values()
            ],
        }

    def merged_perf(self) -> Dict[str, object]:
        """Union of every pooled analyzer's ``repro.perf`` counters."""
        from ..perf import PerfCounters

        merged = PerfCounters()
        for entry in self._entries.values():
            merged.merge(entry.analyzer.perf)
        return merged.as_dict()
