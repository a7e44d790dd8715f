"""Stdlib client for the timing daemon (``http.client``, no deps).

Used by the service tests, the smoke gate (``make service-smoke``) and
the benchmark suite's ``rca32_service`` workload; also a reasonable
template for real integrations — the whole protocol is "POST one JSON
object, read one JSON object back" (see ``protocol.py`` for the shapes).

.. code-block:: python

    client = ServiceClient("127.0.0.1", 8351)
    results = client.analyze(netlist_text, [("v0", {"a": spec, …})])
    results[0].arrivals[("y", "rise")]   # (time, slope) — bit-exact

Errors follow the daemon's status mapping: a non-200 response raises
:class:`~repro.errors.ServiceError` carrying the status code, so a
caller can tell backpressure (429) from a bad netlist (400) from a
timeout (504).
"""

from __future__ import annotations

import http.client
import json
import socket
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..batch.vectors import Vector
from ..core.timing.analyzer import InputSpec
from ..errors import ServiceError
from .protocol import decode_arrivals, encode_inputs

__all__ = ["AnalyzedVector", "ServiceClient", "wait_until_ready"]

_VectorLike = Union[Vector, Tuple[str, Mapping[str, InputSpec]]]


@dataclass
class AnalyzedVector:
    """One vector's decoded response: exact arrivals by (node, edge)."""

    label: str
    arrivals: Dict[Tuple[str, str], Tuple[float, float]] = field(
        default_factory=dict)


class ServiceClient:
    """Thin blocking client; one HTTP connection per call."""

    def __init__(self, host: str, port: int, timeout: float = 60.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    # -- transport ----------------------------------------------------------

    def _request(self, method: str, path: str,
                 payload: Optional[dict] = None
                 ) -> Tuple[int, Dict[str, object]]:
        body = json.dumps(payload).encode("utf-8") if payload is not None \
            else None
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout)
        try:
            connection.request(method, path, body=body,
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            raw = response.read()
            status = response.status
        except (OSError, http.client.HTTPException) as exc:
            raise ServiceError(
                f"cannot reach service at {self.host}:{self.port}: {exc}",
                status=0) from exc
        finally:
            connection.close()
        try:
            decoded = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceError(
                f"service returned non-JSON body (status {status}): {exc}",
                status=status) from exc
        if not isinstance(decoded, dict):
            raise ServiceError(
                f"service response is not a JSON object (status {status})",
                status=status)
        return status, decoded

    def _checked(self, method: str, path: str,
                 payload: Optional[dict] = None) -> Dict[str, object]:
        status, decoded = self._request(method, path, payload)
        if status != 200:
            message = decoded.get("error", f"HTTP {status}")
            raise ServiceError(f"{path}: {message}", status=status)
        return decoded

    # -- endpoints ----------------------------------------------------------

    def healthz(self) -> Dict[str, object]:
        return self._checked("GET", "/healthz")

    def metrics(self) -> Dict[str, object]:
        return self._checked("GET", "/metrics")

    def shutdown(self) -> Dict[str, object]:
        return self._checked("POST", "/shutdown", {})

    def analyze(self, netlist: str, vectors: Sequence[_VectorLike],
                tech: str = "cmos3", model: str = "slope",
                characterize: bool = True) -> List[AnalyzedVector]:
        """Analyze *vectors* against *netlist* (``.sim`` text).

        Vectors are :class:`~repro.batch.Vector` objects or
        ``(label, {input: InputSpec})`` pairs; specs are encoded as
        exact-repr timing tokens, arrivals decode bit-identical to the
        daemon's engine output.
        """
        encoded = []
        for position, vector in enumerate(vectors):
            if isinstance(vector, Vector):
                label, inputs = vector.label, vector.inputs
            else:
                label, inputs = vector
            encoded.append({"label": label or f"v{position}",
                            "inputs": encode_inputs(inputs)})
        payload = {
            "netlist": netlist, "tech": tech, "model": model,
            "characterize": characterize, "vectors": encoded,
        }
        decoded = self._checked("POST", "/analyze", payload)
        results = decoded.get("results")
        if not isinstance(results, list) or len(results) != len(encoded):
            raise ServiceError(
                f"service returned {0 if not isinstance(results, list) else len(results)} "
                f"result(s) for {len(encoded)} vector(s)")
        analyzed = []
        for entry in results:
            if not isinstance(entry, dict):
                raise ServiceError("service result entry is not an object")
            analyzed.append(AnalyzedVector(
                label=str(entry.get("label", "")),
                arrivals=decode_arrivals(entry)))
        return analyzed


def wait_until_ready(host: str, port: int, timeout: float = 15.0,
                     interval: float = 0.05) -> None:
    """Poll ``/healthz`` until the daemon answers (or raise after
    *timeout* seconds) — used right after spawning a daemon process."""
    deadline = time.monotonic() + timeout
    client = ServiceClient(host, port, timeout=max(interval * 4, 1.0))
    last: Optional[ServiceError] = None
    while time.monotonic() < deadline:
        try:
            client.healthz()
            return
        except ServiceError as exc:
            last = exc
            time.sleep(interval)
        except socket.timeout:  # pragma: no cover - slow accept path
            time.sleep(interval)
    raise ServiceError(
        f"service at {host}:{port} not ready after {timeout:g}s "
        f"(last error: {last})", status=0)
