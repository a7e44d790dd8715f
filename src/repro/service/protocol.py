"""Wire protocol of the timing service: request/response JSON shapes.

One request analyzes a batch of input vectors against one netlist:

.. code-block:: json

    {"netlist": "| adder\\ni a b\\n…",
     "tech": "cmos3", "model": "slope", "characterize": true,
     "vectors": [{"label": "v0",
                  "inputs": {"a": "0.0", "b": "1e-09~2e-09/5e-10"}}]}

Input values use the stock two-edge timing-token grammar (everything
after the ``=`` of ``NODE=RISE~FALL[/SLOPE]`` — see
:func:`repro.batch.parse_timing_token`), so a request is exactly a
``.vec`` file in JSON clothes, down to refusing a node named twice in
one vector; a key repeated in any JSON object is refused too.  The
response carries one entry per vector, arrivals sorted by (node, edge):

.. code-block:: json

    {"results": [{"label": "v0", "arrivals": [
        {"node": "y", "edge": "rise",
         "time": 1.93e-10, "slope": 9.1e-11}, …]}]}

Exactness: times and slopes travel as JSON numbers serialized with
``repr``-style shortest round-trip formatting (Python's ``json`` module
default), so the client decodes the daemon's arrivals **bit-identical**
to what the engine computed — the service smoke test and
``tests/test_service.py`` both assert equality, not approx.  The daemon
does not build that payload as dicts: :class:`ResultEncoder` writes the
body text itself, and exactness rests on it reproducing, byte for byte,
what ``json.dumps`` writes for the dict payload above (sorted arrivals,
default separators, ASCII escapes, ``json``'s float rule).
``tests/test_service.py`` compares every 200 body with ``json.dumps``
of that payload, and the service smoke test re-encodes a raw body.

The pool key (:meth:`AnalyzeRequest.pool_key`) hashes everything that
shapes the analyzer — netlist text, technology, model and
characterization — but *not* the vectors: two requests that differ only
in vectors share a warm analyzer and its caches.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..batch.vectors import Vector, format_timing_token, parse_timing_token
from ..core.models import (
    LumpedRCModel,
    RCTreeModel,
    SlopeModel,
    characterize_technology,
)
from ..core.timing.analyzer import Arrival, InputSpec, TimingResult
from ..errors import ReproError, ServiceError
from ..tech import TECHNOLOGIES, Technology, Transition

__all__ = [
    "AnalyzeRequest",
    "MODELS",
    "ResultEncoder",
    "TECHNOLOGIES",
    "analyze_body",
    "decode_arrivals",
    "decode_body",
    "encode_inputs",
    "parse_analyze_request",
]

MODELS = {
    "lumped-rc": LumpedRCModel,
    "rc-tree": RCTreeModel,
    "slope": SlopeModel,
}

#: The wire edge of an event int's transition bit (``2 * node id +
#: transition``, transitions in enum order): "rise", "fall".
_EDGES = tuple(transition.value for transition in Transition)


@dataclass(frozen=True)
class AnalyzeRequest:
    """A validated ``POST /analyze`` body."""

    netlist: str
    tech: str = "cmos3"
    model: str = "slope"
    characterize: bool = True
    vectors: Tuple[Vector, ...] = field(default_factory=tuple)

    def pool_key(self) -> str:
        """Content hash of everything that shapes the warm analyzer."""
        return self._pool_key

    @cached_property
    def _pool_key(self) -> str:
        # Hashed once per request: the daemon's job and the pool both
        # ask, and the netlist text may run to tens of kilobytes.
        blob = json.dumps({
            "netlist": self.netlist,
            "tech": self.tech,
            "model": self.model,
            "characterize": self.characterize,
        }, sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def technology(self) -> Technology:
        base = TECHNOLOGIES[self.tech]
        return characterize_technology(base) if self.characterize else base


def _need(condition: bool, message: str) -> None:
    if not condition:
        raise ServiceError(message)


class _Pairs(dict):
    """A decoded JSON object whose text named some key more than once;
    ``pairs`` keeps every (key, value) in document order."""

    pairs: List[Tuple[str, object]]


def _keep_pairs(pairs: List[Tuple[str, object]]) -> dict:
    decoded = dict(pairs)
    if len(decoded) < len(pairs):
        decoded = _Pairs(decoded)
        decoded.pairs = pairs
    return decoded


def decode_body(body: bytes) -> object:
    """Decode a request body.  ``json.loads`` keeps only the last value
    of a repeated key; here an object that repeats one decodes to a
    :class:`_Pairs`, which :func:`parse_analyze_request` refuses, naming
    where the repeat is."""
    return json.loads(body.decode("utf-8"), object_pairs_hook=_keep_pairs)


def _repeated_key(obj: dict) -> Optional[str]:
    seen = set()
    for key, _ in getattr(obj, "pairs", ()):
        if key in seen:
            return key
        seen.add(key)
    return None


def parse_analyze_request(payload: object) -> AnalyzeRequest:
    """Validate a decoded request body; raises :class:`ServiceError`
    (mapped to a 400 response) naming the offending field."""
    _need(isinstance(payload, dict), "request body must be a JSON object")
    assert isinstance(payload, dict)
    repeated = _repeated_key(payload)
    _need(repeated is None, f"request field {repeated!r} given twice")
    unknown = set(payload) - {"netlist", "tech", "model", "characterize",
                              "vectors"}
    _need(not unknown,
          f"unknown request field(s): {', '.join(sorted(unknown))}")

    netlist = payload.get("netlist")
    _need(isinstance(netlist, str) and netlist.strip() != "",
          "request needs a non-empty 'netlist' string (.sim text)")

    tech = payload.get("tech", "cmos3")
    _need(tech in TECHNOLOGIES,
          f"unknown tech {tech!r}; choose from "
          f"{', '.join(sorted(TECHNOLOGIES))}")
    model = payload.get("model", "slope")
    _need(model in MODELS,
          f"unknown model {model!r}; choose from {', '.join(sorted(MODELS))}")
    characterize = payload.get("characterize", True)
    _need(isinstance(characterize, bool), "'characterize' must be a boolean")

    raw_vectors = payload.get("vectors")
    _need(isinstance(raw_vectors, list) and raw_vectors,
          "request needs a non-empty 'vectors' list")
    assert isinstance(raw_vectors, list)
    vectors: List[Vector] = []
    for position, entry in enumerate(raw_vectors):
        _need(isinstance(entry, dict),
              f"vectors[{position}] must be an object")
        repeated = _repeated_key(entry)
        _need(repeated is None,
              f"vectors[{position}]: field {repeated!r} given twice")
        label = entry.get("label", f"v{position}")
        _need(isinstance(label, str) and label,
              f"vectors[{position}].label must be a non-empty string")
        raw_inputs = entry.get("inputs")
        _need(isinstance(raw_inputs, dict) and raw_inputs,
              f"vectors[{position}] needs a non-empty 'inputs' object")
        inputs: Dict[str, InputSpec] = {}
        for name, value in getattr(raw_inputs, "pairs", raw_inputs.items()):
            _need(isinstance(value, str),
                  f"vectors[{position}].inputs[{name!r}] must be a "
                  "timing-token string")
            try:
                parsed_name, spec = parse_timing_token(f"{name}={value}")
            except ReproError as exc:
                raise ServiceError(
                    f"vectors[{position}].inputs[{name!r}]: {exc}") from exc
            _need(parsed_name not in inputs,
                  f"vectors[{position}].inputs: duplicate node "
                  f"{parsed_name!r} in vector {label!r}")
            inputs[parsed_name] = spec
        vectors.append(Vector(label=label, inputs=inputs))

    return AnalyzeRequest(
        netlist=netlist, tech=tech, model=model, characterize=characterize,
        vectors=tuple(vectors))


def encode_inputs(inputs: Mapping[str, InputSpec]) -> Dict[str, str]:
    """Client-side inverse of the request's ``inputs`` object: each spec
    as the value part of its exact-repr timing token."""
    encoded: Dict[str, str] = {}
    for name, spec in inputs.items():
        token = format_timing_token(name, spec)
        encoded[name] = token.split("=", 1)[1]
    return encoded


_INFINITY = float("inf")
_float_repr = float.__repr__


def _number(value: float) -> str:
    """*value* as ``json.dumps`` writes it: ``float.__repr__``, with
    ``NaN`` and ``Infinity`` for the values JSON has no number for."""
    if value.__class__ is not float:
        return json.dumps(value)
    if value != value:
        return "NaN"
    if value == _INFINITY:
        return "Infinity"
    if value == -_INFINITY:
        return "-Infinity"
    return _float_repr(value)


class ResultEncoder:
    """The response entries of one warm analyzer, written as
    ``json.dumps`` writes ``{"label": …, "arrivals": [{"node": …,
    "edge": …, "time": …, "slope": …}, …]}`` with the arrivals sorted by
    (node, edge).

    Per event int it keeps the fixed head of its object (node and edge)
    and the last :class:`Arrival` record it wrote, with that record's
    finished text.  A delta run hands most of its records over from the
    run before, so most of a response is text already written.  The
    cache is checked by identity, not by value: a record is read-only,
    so the same object has the same time and slope, while equal values
    can still print differently (``0.0 == -0.0``).  Memory is one head
    and one fragment per event, two per node, plus the records held.
    """

    __slots__ = ("_names", "_heads", "_records", "_fragments")

    def __init__(self) -> None:
        self._names: Sequence[str] = ()
        self._heads: List[Optional[str]] = []
        self._records: List[Optional[Arrival]] = []
        self._fragments: List[str] = []

    def entry(self, label: str, result: TimingResult) -> str:
        """One vector's response entry as JSON text."""
        arrivals, names = result.arrivals.numbered()
        if names is not self._names:
            # A first result, or a renumbered graph: start over.
            count = 2 * len(names)
            self._names = names
            self._heads = [None] * count
            self._records = [None] * count
            self._fragments = [""] * count
        heads, records = self._heads, self._records
        fragments = self._fragments
        parts = []
        # Ids follow sorted node names and the transition bit is 0 for
        # rise, so ids with that bit flipped sort by (node, edge):
        # "fall" < "rise".
        for flipped in sorted([event ^ 1 for event in arrivals]):
            event = flipped ^ 1
            arrival = arrivals[event]
            if records[event] is not arrival:
                head = heads[event]
                if head is None:
                    head = heads[event] = (
                        '{"node": ' + json.dumps(names[event >> 1])
                        + ', "edge": "' + _EDGES[event & 1] + '", "time": ')
                fragments[event] = (head + _number(arrival.time)
                                    + ', "slope": ' + _number(arrival.slope)
                                    + "}")
                records[event] = arrival
            parts.append(fragments[event])
        return ('{"label": ' + json.dumps(label) + ', "arrivals": ['
                + ", ".join(parts) + "]}")


def analyze_body(entries: Sequence[str], coalesced: int,
                 pool_key: str) -> bytes:
    """A 200 ``/analyze`` body from its :meth:`ResultEncoder.entry`
    texts: ``json.dumps({"results": [...], "coalesced": coalesced,
    "pool_key": pool_key})``, byte for byte."""
    return ('{"results": [' + ", ".join(entries) + '], "coalesced": '
            + json.dumps(coalesced) + ', "pool_key": '
            + json.dumps(pool_key) + "}").encode("utf-8")


def decode_arrivals(entry: Mapping[str, object]
                    ) -> Dict[Tuple[str, str], Tuple[float, float]]:
    """One response entry as ``{(node, edge): (time, slope)}``."""
    arrivals = entry.get("arrivals")
    if not isinstance(arrivals, list):
        raise ServiceError("response entry has no arrivals list")
    decoded: Dict[Tuple[str, str], Tuple[float, float]] = {}
    for record in arrivals:
        if not isinstance(record, dict):
            raise ServiceError("response arrival is not an object")
        try:
            key = (str(record["node"]), str(record["edge"]))
            decoded[key] = (float(record["time"]), float(record["slope"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ServiceError(f"malformed response arrival: {exc}") from exc
    return decoded
