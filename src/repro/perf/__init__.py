"""Observability for the hot paths: counters and timers."""

from .counters import STANDARD_COUNTERS, BatchPerf, PerfCounters, merge_all

__all__ = [
    "STANDARD_COUNTERS",
    "BatchPerf",
    "PerfCounters",
    "merge_all",
]
