"""The timing service: a daemon that keeps analyzers warm across
requests (DESIGN.md §10).

``repro-crystal serve`` starts a zero-dependency JSON-over-HTTP daemon
(:mod:`repro.service.daemon`) holding a bounded LRU pool of warm
:class:`~repro.core.timing.TimingAnalyzer` instances keyed by netlist
content hash (:mod:`repro.service.pool`).  Repeated queries against one
network hit the analyzer-lifetime caches, and queued same-network
requests are coalesced into one delta-ordered mini-sweep.  The wire
shapes live in :mod:`repro.service.protocol`, the stdlib client in
:mod:`repro.service.client`, and the end-to-end gate in
:mod:`repro.service.smoke` (``make service-smoke``).
"""

from .client import AnalyzedVector, ServiceClient, wait_until_ready
from .pool import AnalyzerPool, PoolEntry
from .protocol import (
    AnalyzeRequest,
    ResultEncoder,
    decode_arrivals,
    encode_inputs,
    parse_analyze_request,
)

__all__ = [
    "AnalyzedVector",
    "AnalyzerPool",
    "AnalyzeRequest",
    "PoolEntry",
    "ResultEncoder",
    "ServiceClient",
    "decode_arrivals",
    "encode_inputs",
    "parse_analyze_request",
    "wait_until_ready",
]
