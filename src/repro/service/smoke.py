"""End-to-end service smoke gate: ``python -m repro.service.smoke``.

Spawns a real daemon process (``repro-crystal serve --port 0``), then
checks the full serving envelope from outside:

1. concurrent clients (default 4) each stream a batch of vectors for
   the same circuit and every arrival is **bit-identical** to a local
   reference analyzer in this process (exact ``==``, not approx);
2. one raw ``/analyze`` body is exactly what ``json.dumps`` writes for
   its own decoding, with its arrivals in (node, edge) order: the
   daemon writes its 200 bodies without ``json.dumps``, so this guards
   the wire bytes, not only the decoded values;
3. ``/metrics`` is live and shows the expected traffic: every request
   counted, a warm pool with at most one miss;
4. the daemon was started with ``--trace``; after shutdown the trace
   file validates against the Chrome trace_event schema and contains
   the service request spans;
5. ``SIGTERM`` drains cleanly: the process exits 0 by itself.

Everything runs under one hard wall-clock watchdog — a hung daemon
fails the gate instead of hanging CI (``make service-smoke``).
"""

from __future__ import annotations

import argparse
import http.client
import json
import pathlib
import signal
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional, Tuple

from ..batch.vectors import Vector
from ..circuits import adder_input_names, ripple_carry_adder
from ..core.timing import TimingAnalyzer
from ..core.timing.analyzer import InputSpec
from ..errors import ServiceError
from ..netlist import sim_format
from ..tech import CMOS3, Transition
from .client import ServiceClient, wait_until_ready
from .protocol import encode_inputs

BITS = 8  # rca8: big enough that warm caches matter, small enough for CI


def _netlist_text() -> str:
    """The smoke circuit as ``.sim`` text — both the daemon and the local
    reference parse this same text, so geometry is identical."""
    return sim_format.dumps(ripple_carry_adder(CMOS3, BITS))


def _vectors(count: int, client_index: int) -> List[Vector]:
    """Deterministic per-client vectors over the adder inputs; neighbours
    differ in few inputs so delta coalescing has something to chew on."""
    names = adder_input_names(BITS)
    vectors = []
    for position in range(count):
        inputs: Dict[str, InputSpec] = {}
        for offset, name in enumerate(names):
            late = (position + client_index + offset) % 5 == 0
            arrival = 0.4e-9 if late else 0.0
            inputs[name] = InputSpec(arrival_rise=arrival,
                                     arrival_fall=arrival, slope=0.2e-9)
        vectors.append(Vector(label=f"c{client_index}.v{position}",
                              inputs=inputs))
    return vectors


def _reference(netlist: str,
               vectors: List[Vector]) -> List[Dict[Tuple[str, str],
                                                   Tuple[float, float]]]:
    """Cold-process-equivalent arrivals, computed locally and exactly."""
    network = sim_format.loads(netlist, CMOS3, name="smoke-reference")
    analyzer = TimingAnalyzer(network)
    reference = []
    for vector in vectors:
        result = analyzer.analyze(vector.inputs)
        arrivals = {}
        for event, arrival in result.arrivals.items():
            edge = "rise" if event.transition is Transition.RISE else "fall"
            arrivals[(event.node, edge)] = (arrival.time, arrival.slope)
        reference.append(arrivals)
    return reference


def _check_raw_body(host: str, port: int, netlist: str,
                    vector: Vector) -> int:
    """POST one vector and check the raw 200 body's bytes: it must equal
    ``json.dumps`` of its own decoding, and list its arrivals in
    strictly increasing (node, edge) order.  Returns its arrival count."""
    payload = {"netlist": netlist, "characterize": False,
               "vectors": [{"label": vector.label,
                            "inputs": encode_inputs(vector.inputs)}]}
    connection = http.client.HTTPConnection(host, port, timeout=120.0)
    try:
        connection.request("POST", "/analyze",
                           body=json.dumps(payload).encode("utf-8"))
        response = connection.getresponse()
        body = response.read()
    finally:
        connection.close()
    if response.status != 200:
        raise ServiceError(f"raw /analyze answered {response.status}: "
                           f"{body[:200]!r}")
    decoded = json.loads(body)
    if json.dumps(decoded).encode("utf-8") != body:
        raise ServiceError("raw /analyze body differs from json.dumps of "
                           "its own decoding")
    keys = [(record["node"], record["edge"])
            for record in decoded["results"][0]["arrivals"]]
    if not keys or keys != sorted(set(keys)):
        raise ServiceError("raw /analyze arrivals are not in (node, edge) "
                           "order")
    return len(keys)


class _Watchdog:
    """Kill *process* and abort if the smoke run exceeds its budget."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.fired = False
        self._process: Optional[subprocess.Popen] = None
        self._timer = threading.Timer(seconds, self._fire)

    def arm(self, process: subprocess.Popen) -> None:
        self._process = process
        self._timer.daemon = True
        self._timer.start()

    def _fire(self) -> None:
        self.fired = True
        if self._process is not None and self._process.poll() is None:
            self._process.kill()

    def disarm(self) -> None:
        self._timer.cancel()


def run_smoke(clients: int = 4, vectors_per_client: int = 6,
              watchdog_seconds: float = 300.0,
              keep_trace: Optional[str] = None) -> int:
    """The gate; returns 0 on success, 1 with a diagnostic otherwise."""
    netlist = _netlist_text()
    tmp = tempfile.mkdtemp(prefix="repro-service-smoke-")
    trace_path = keep_trace or str(pathlib.Path(tmp) / "service-trace.json")

    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--pool-size", "2", "--queue-limit", "128",
         "--trace", trace_path],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    watchdog = _Watchdog(watchdog_seconds)
    watchdog.arm(process)
    try:
        assert process.stdout is not None
        banner = process.stdout.readline().strip()
        prefix = "repro-crystal service listening on http://"
        if not banner.startswith(prefix):
            raise ServiceError(f"unexpected daemon banner: {banner!r}")
        host, _, port_text = banner[len(prefix):].rpartition(":")
        port = int(port_text)
        wait_until_ready(host, port, timeout=30.0)

        # -- concurrent clients, bit-identity -------------------------------
        per_client = [_vectors(vectors_per_client, index)
                      for index in range(clients)]
        results: List[Optional[List]] = [None] * clients
        errors: List[Optional[BaseException]] = [None] * clients

        def worker(index: int) -> None:
            client = ServiceClient(host, port, timeout=120.0)
            try:
                results[index] = client.analyze(
                    netlist, per_client[index], characterize=False)
            except BaseException as exc:
                errors[index] = exc

        threads = [threading.Thread(target=worker, args=(index,))
                   for index in range(clients)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        for index, error in enumerate(errors):
            if error is not None:
                raise ServiceError(f"client {index} failed: {error}")

        checked = 0
        for index in range(clients):
            reference = _reference(netlist, per_client[index])
            analyzed = results[index]
            assert analyzed is not None
            for vector, served, expected in zip(per_client[index], analyzed,
                                                reference):
                if served.label != vector.label:
                    raise ServiceError(
                        f"label mismatch: {served.label} != {vector.label}")
                if served.arrivals != expected:
                    raise ServiceError(
                        f"arrivals for {vector.label} are not "
                        "bit-identical to the local reference")
                checked += len(served.arrivals)
        print(f"smoke: {clients} client(s) x {vectors_per_client} "
              f"vector(s), {checked} arrival(s) bit-identical "
              f"({elapsed:.2f}s)")

        # -- raw wire bytes -------------------------------------------------
        count = _check_raw_body(host, port, netlist, per_client[0][0])
        print(f"smoke: raw /analyze body is json.dumps bytes, {count} "
              "arrival(s) in (node, edge) order")

        # -- metrics --------------------------------------------------------
        metrics = ServiceClient(host, port).metrics()
        service = metrics["service"]
        pool = metrics["pool"]
        total = clients + 1  # one /analyze per client, one raw
        if service.get("service_completed", 0) < total:
            raise ServiceError(
                f"/metrics shows {service.get('service_completed')} "
                f"completed request(s), expected >= {total}")
        if pool["misses"] != 1 or pool["hits"] < 0:
            raise ServiceError(
                f"pool should have exactly one miss for one netlist, "
                f"got {pool['misses']}")
        if not metrics["perf"].get("counters"):
            raise ServiceError("/metrics perf counters are empty")
        print(f"smoke: /metrics live — "
              f"{service.get('service_completed')} completed, "
              f"pool {pool['hits']}h/{pool['misses']}m, "
              f"{service.get('service_coalesced_requests', 0)} coalesced")

        # -- graceful drain on SIGTERM --------------------------------------
        process.send_signal(signal.SIGTERM)
        returncode = process.wait(timeout=60.0)
        if returncode != 0:
            stderr = process.stderr.read() if process.stderr else ""
            raise ServiceError(
                f"daemon exited {returncode} on SIGTERM: {stderr[-2000:]}")
        print("smoke: SIGTERM drained cleanly (exit 0)")

        # -- trace validity -------------------------------------------------
        from ..trace.export import validate_trace_file

        count = validate_trace_file(trace_path)
        with open(trace_path) as handle:
            names = {event.get("name")
                     for event in json.load(handle)["traceEvents"]}
        for required in ("service_request", "service_batch",
                         "service_sweep", "analyze"):
            if required not in names:
                raise ServiceError(
                    f"trace has no {required!r} span "
                    f"(got: {', '.join(sorted(n for n in names if n))})")
        print(f"smoke: trace valid ({count} events, request→batch→engine "
              "spans present)")
        return 0
    except Exception as exc:
        if watchdog.fired:
            print(f"smoke: FAILED — watchdog killed the daemon after "
                  f"{watchdog.seconds:g}s", file=sys.stderr)
        else:
            print(f"smoke: FAILED — {exc}", file=sys.stderr)
        return 1
    finally:
        watchdog.disarm()
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10.0)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.smoke",
        description="end-to-end smoke gate for the timing daemon")
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--vectors", type=int, default=6)
    parser.add_argument("--watchdog", type=float, default=300.0,
                        metavar="SECONDS")
    parser.add_argument("--keep-trace", metavar="FILE",
                        help="write the session trace here instead of a "
                             "temp dir")
    args = parser.parse_args(argv)
    return run_smoke(clients=args.clients, vectors_per_client=args.vectors,
                     watchdog_seconds=args.watchdog,
                     keep_trace=args.keep_trace)


if __name__ == "__main__":
    sys.exit(main())
