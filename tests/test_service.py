"""Tests for the timing service: daemon, pool, protocol, client.

The daemon runs **in-process** on a background-thread event loop (the
``service`` fixture), so these tests exercise the real HTTP path —
sockets, the dispatcher, the executor — without subprocess overhead.
The full out-of-process envelope (SIGTERM drain, --trace file, banner
parsing) is ``python -m repro.service.smoke`` / ``make service-smoke``.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import pathlib
import random
import socket
import subprocess
import sys
import threading
import time
from types import SimpleNamespace
from unittest import mock

import pytest

from repro.batch.vectors import Vector
from repro.circuits import adder_input_names, ripple_carry_adder
from repro.core.timing import TimingAnalyzer
from repro.core.timing.analyzer import Arrival, InputSpec
from repro.errors import ServiceError
from repro.netlist import sim_format
from repro.service import AnalyzerPool, ServiceClient, parse_analyze_request
from repro.service import daemon, protocol
from repro.service.daemon import ServiceConfig, TimingService
from repro.service.protocol import encode_inputs
from repro.tech import CMOS3, Transition

NAND_SIM = """\
i a b
n a mid y 2 8
n b gnd mid 2 8
p a vdd y 2 8
p b vdd y 2 8
"""

INVERTER_SIM = """\
i in
n in gnd out 2 6
p in vdd out 2 12
C out gnd 50
"""


def _vec(a=0.0, b=0.0, slope=0.2e-9):
    return {"a": InputSpec(a, a, slope), "b": InputSpec(b, b, slope)}


def _wire_arrivals(result):
    """A fresh analysis's arrivals keyed the way the client decodes them."""
    return {(event.node,
             "rise" if event.transition is Transition.RISE else "fall"):
            (arrival.time, arrival.slope)
            for event, arrival in result.arrivals.items()}


def _raw_reply(address, raw, close_write=True):
    """Send raw request bytes and return the reply's (status, error).
    With ``close_write`` the client half-closes after sending, so the
    daemon reads end of stream; otherwise the connection stays open."""
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(raw)
        if close_write:
            sock.shutdown(socket.SHUT_WR)
        reply = b""
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:  # closed with request bytes unread
                break
            if not chunk:
                break
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)["error"]


#: Node names that need JSON escapes (``"``, ``\\``, non-ASCII), and
#: whose sorted order is not their natural order: ``a10`` before ``a2``,
#: upper case before lower case.
ESCAPED_SIM = """\
i a"q b\\x Ä10 a2
n a"q m1 y"\\ä 2 8
n b\\x gnd m1 2 8
p a"q vdd y"\\ä 2 8
p b\\x vdd y"\\ä 2 8
n Ä10 gnd Zout 2 6
p Ä10 vdd Zout 2 12
n a2 gnd a10 2 6
p a2 vdd a10 2 12
"""


def _post_body(address, payload):
    """POST *payload* to ``/analyze``; the raw bytes of the 200 body."""
    connection = http.client.HTTPConnection(*address, timeout=30)
    try:
        connection.request("POST", "/analyze",
                           body=json.dumps(payload).encode("utf-8"))
        response = connection.getresponse()
        body = response.read()
    finally:
        connection.close()
    assert response.status == 200, body
    return body


def _analyze_payload(netlist, vectors):
    """A request body: *vectors* is [(label, {node: timing token})]."""
    return {"netlist": netlist, "characterize": False,
            "vectors": [{"label": label, "inputs": inputs}
                        for label, inputs in vectors]}


class _Oracle:
    """The 200 body as the daemon once built it: a dict payload, arrivals
    sorted by (node, edge), through ``json.dumps``.  Each netlist gets one
    reference analyzer, and every vector a full ``analyze()``."""

    def __init__(self):
        self._analyzers = {}

    def body(self, payload, coalesced=0):
        request = parse_analyze_request(payload)
        analyzer = self._analyzers.get(request.netlist)
        if analyzer is None:
            analyzer = self._analyzers[request.netlist] = TimingAnalyzer(
                sim_format.loads(request.netlist, CMOS3))
        results = []
        for vector in request.vectors:
            result = analyzer.analyze(vector.inputs)
            records = sorted(
                ((event.node, event.transition.value), arrival)
                for event, arrival in result.arrivals.items())
            results.append({"label": vector.label, "arrivals": [
                {"node": node, "edge": edge,
                 "time": arrival.time, "slope": arrival.slope}
                for (node, edge), arrival in records]})
        return json.dumps({"results": results, "coalesced": coalesced,
                           "pool_key": request.pool_key()[:12]}
                          ).encode("utf-8")


class _ServiceThread:
    """An in-process daemon on its own event loop; context manager."""

    def __init__(self, **config_overrides):
        self.config = ServiceConfig(port=0, quiet=True, **config_overrides)
        self.service = TimingService(self.config)
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._ready = threading.Event()

    def _run(self):
        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self.service.start())
        self._ready.set()
        self.loop.run_until_complete(self.service.wait_closed())
        self.loop.close()

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(15), "service did not start"
        return self

    def __exit__(self, *exc_info):
        if not self._thread.is_alive():
            return
        self.loop.call_soon_threadsafe(self.service.request_shutdown)
        self._thread.join(timeout=15)
        assert not self._thread.is_alive(), "service did not drain"

    @property
    def client(self) -> ServiceClient:
        host, port = self.service.address
        return ServiceClient(host, port, timeout=30.0)


@pytest.fixture
def service():
    with _ServiceThread() as thread:
        yield thread


class TestProtocol:
    def _payload(self, **overrides):
        payload = {
            "netlist": NAND_SIM,
            "vectors": [{"label": "v0",
                         "inputs": {"a": "0.0", "b": "1e-10"}}],
        }
        payload.update(overrides)
        return payload

    def test_minimal_request_defaults(self):
        request = parse_analyze_request(self._payload())
        assert request.tech == "cmos3"
        assert request.model == "slope"
        assert request.characterize is True
        assert len(request.vectors) == 1
        assert request.vectors[0].inputs["b"].arrival_rise == 1e-10

    def test_two_edge_token_with_slope(self):
        request = parse_analyze_request(self._payload(vectors=[
            {"inputs": {"a": "1e-09~2e-09/5e-10", "b": "-"}}]))
        spec = request.vectors[0].inputs["a"]
        assert spec.arrival_rise == 1e-9
        assert spec.arrival_fall == 2e-9
        assert spec.slope == 5e-10
        static = request.vectors[0].inputs["b"]
        assert static.arrival_rise is None and static.arrival_fall is None

    @pytest.mark.parametrize("mutation, needle", [
        ({"netlist": ""}, "netlist"),
        ({"tech": "gaas"}, "unknown tech"),
        ({"model": "spicy"}, "unknown model"),
        ({"kernel": "numpy"}, "unknown request field(s): kernel"),
        ({"slope_quantum": 0.05},
         "unknown request field(s): slope_quantum"),
        ({"characterize": "yes"}, "characterize"),
        ({"vectors": []}, "vectors"),
        ({"vectors": [{"inputs": {}}]}, "inputs"),
        ({"vectors": [{"inputs": {"a": "nonsense"}}]}, "inputs['a']"),
        ({"bogus_field": 1}, "unknown request field"),
        ({"vectors": [{"inputs": {"a": "inf"}}]}, "inputs['a']"),
        ({"vectors": [{"inputs": {"a": "0/nan"}}]}, "inputs['a']"),
        ({"vectors": [{"inputs": {"a": "1e400"}}]}, "inputs['a']"),
        ({"vectors": [{"inputs": {"a": "0", " a": "5n", "b": "0"}}]},
         "vectors[0].inputs: duplicate node 'a' in vector 'v0'"),
    ])
    def test_validation_errors(self, mutation, needle):
        with pytest.raises(ServiceError) as info:
            parse_analyze_request(self._payload(**mutation))
        assert needle in str(info.value)

    def test_pool_key_ignores_vectors(self):
        first = parse_analyze_request(self._payload())
        second = parse_analyze_request(self._payload(vectors=[
            {"inputs": {"a": "5e-10", "b": "0.0"}}]))
        assert first.pool_key() == second.pool_key()

    def test_pool_key_tracks_config(self):
        base = parse_analyze_request(self._payload())
        for mutation in ({"model": "rc-tree"}, {"characterize": False},
                         {"netlist": INVERTER_SIM.replace("in", "a")}):
            other = parse_analyze_request(self._payload(**mutation))
            assert other.pool_key() != base.pool_key(), mutation

    def test_encode_inputs_round_trips_exactly(self):
        inputs = {"a": InputSpec(1.2345678912345e-9, None, 3.3e-10),
                  "b": InputSpec(None, None),
                  "c": InputSpec(0.1e-9, 0.25e-9, 0.0)}
        encoded = encode_inputs(inputs)
        request = parse_analyze_request({
            "netlist": NAND_SIM,
            "vectors": [{"inputs": encoded}]})
        assert request.vectors[0].inputs == inputs


class TestAnalyzerPool:
    def _request(self, netlist=NAND_SIM, **overrides):
        payload = {"netlist": netlist,
                   "vectors": [{"inputs": {"a": "0", "b": "0"}}]}
        payload.update(overrides)
        return parse_analyze_request(payload)

    def test_hit_and_miss_accounting(self):
        pool = AnalyzerPool(capacity=2)
        request = self._request(characterize=False)
        first = pool.get(request)
        second = pool.get(request)
        assert first is second
        assert (pool.hits, pool.misses) == (1, 1)
        assert pool.hit_rate == 0.5

    def test_lru_eviction(self):
        pool = AnalyzerPool(capacity=2)
        nand = self._request(characterize=False)
        inv = self._request(netlist=INVERTER_SIM, characterize=False)
        third = self._request(characterize=False, model="rc-tree")
        a = pool.get(nand)
        pool.get(inv)
        pool.get(nand)       # refresh nand: inv is now LRU
        pool.get(third)      # evicts inv
        assert pool.evictions == 1
        assert pool.peek(inv.pool_key()) is None
        assert pool.peek(nand.pool_key()) is a

    def test_evicted_entry_is_rebuilt(self):
        pool = AnalyzerPool(capacity=1)
        nand = self._request(characterize=False)
        inv = self._request(netlist=INVERTER_SIM, characterize=False)
        first = pool.get(nand)
        pool.get(inv)
        rebuilt = pool.get(nand)
        assert rebuilt is not first
        assert pool.misses == 3

    def test_bad_netlist_does_not_pollute_pool(self):
        pool = AnalyzerPool(capacity=2)
        from repro.errors import ReproError
        with pytest.raises(ReproError):
            pool.get(self._request(netlist="z bogus record\n",
                                   characterize=False))
        assert len(pool) == 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            AnalyzerPool(capacity=0)


class TestServiceEndToEnd:
    def test_bit_identical_to_fresh_analyzer(self, service):
        vectors = [("v0", _vec(a=0.0, b=1e-10)),
                   ("v1", _vec(a=3e-10, b=0.0)),
                   ("v2", _vec(a=0.0, b=0.0))]
        served = service.client.analyze(NAND_SIM, vectors,
                                        characterize=False)
        network = sim_format.loads(NAND_SIM, CMOS3, name="ref")
        for (label, inputs), analyzed in zip(vectors, served):
            assert analyzed.label == label
            reference = TimingAnalyzer(network).analyze(inputs)
            # exact, not approx
            assert analyzed.arrivals == _wire_arrivals(reference)

    def test_repeat_requests_hit_pool(self, service):
        client = service.client
        client.analyze(NAND_SIM, [("v0", _vec())], characterize=False)
        client.analyze(NAND_SIM, [("v1", _vec(a=2e-10))],
                       characterize=False)
        metrics = client.metrics()
        assert metrics["pool"]["misses"] == 1
        assert metrics["pool"]["hits"] >= 1
        assert metrics["pool"]["size"] == 1

    def test_request_hashes_its_netlist_once(self, service):
        # The daemon's job and the pool both need the request's key.
        client = service.client
        with mock.patch.object(protocol.hashlib, "sha256",
                               wraps=protocol.hashlib.sha256) as sha256:
            client.analyze(NAND_SIM, [("v0", _vec())], characterize=False)
            assert sha256.call_count == 1
            client.analyze(NAND_SIM, [("v1", _vec(a=2e-10))],
                           characterize=False)
            assert sha256.call_count == 2
        pool = client.metrics()["pool"]
        assert (pool["misses"], pool["hits"]) == (1, 1)

    def test_distinct_netlists_get_distinct_entries(self, service):
        client = service.client
        client.analyze(NAND_SIM, [("v0", _vec())], characterize=False)
        client.analyze(INVERTER_SIM,
                       [("v0", {"in": InputSpec(0.0, 0.0, 0.2e-9)})],
                       characterize=False)
        assert client.metrics()["pool"]["size"] == 2

    def test_metrics_surface_engine_perf(self, service):
        client = service.client
        client.analyze(NAND_SIM, [("v0", _vec())], characterize=False)
        metrics = client.metrics()
        perf = metrics["perf"]["counters"]
        assert perf.get("model_evals", 0) > 0
        assert "service_completed" in metrics["service"]
        assert metrics["service"]["service_vectors"] == 1

    def test_unknown_input_is_a_client_error(self, service):
        with pytest.raises(ServiceError) as info:
            service.client.analyze(
                NAND_SIM, [("v0", {"ghost": InputSpec(0.0, 0.0)})],
                characterize=False)
        assert info.value.status == 400
        assert "ghost" in str(info.value)

    def test_bad_netlist_is_a_client_error(self, service):
        with pytest.raises(ServiceError) as info:
            service.client.analyze("z bogus\n", [("v0", _vec())],
                                   characterize=False)
        assert info.value.status == 400

    def test_bad_request_does_not_fail_coalesced_neighbour(self, service):
        # Prime the pool, then race a good and a bad request; whatever
        # batching happens, the good one must come back complete.
        client = service.client
        client.analyze(NAND_SIM, [("warm", _vec())], characterize=False)
        outcomes = {}

        def good():
            outcomes["good"] = client.analyze(
                NAND_SIM, [("ok", _vec(a=1e-10))], characterize=False)

        def bad():
            try:
                client.analyze(
                    NAND_SIM, [("boom", {"ghost": InputSpec(0.0, 0.0)})],
                    characterize=False)
            except ServiceError as exc:
                outcomes["bad"] = exc

        threads = [threading.Thread(target=good),
                   threading.Thread(target=bad)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert outcomes["good"][0].label == "ok"
        assert outcomes["good"][0].arrivals
        assert outcomes["bad"].status == 400

    def test_healthz_and_unknown_route(self, service):
        client = service.client
        assert client.healthz()["status"] == "ok"
        status, payload = client._request("GET", "/nope")
        assert status == 404
        status, payload = client._request("GET", "/analyze")
        assert status == 405
        status, payload = client._request("POST", "/analyze")
        assert status == 400  # empty body is not JSON? (b"" -> error)

    def test_malformed_json_body_is_400(self, service):
        import http.client as http_client
        host, port = service.service.address
        connection = http_client.HTTPConnection(host, port, timeout=10)
        connection.request("POST", "/analyze", body=b"{not json",
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        assert response.status == 400
        connection.close()

    @pytest.mark.parametrize("field, body", [
        ("inputs['a']", '"vectors": [{"inputs": {"a": "1e400", "b": "0"}}]'),
        ("input 'a': negative slope",
         '"vectors": [{"inputs": {"a": "0/-2e-09", "b": "0"}}]'),
        ("input 'mid' is not a primary input",
         '"vectors": [{"inputs": {"a": "0", "b": "0", "mid": "1n"}}]'),
        ("vectors[0].inputs: duplicate node 'a' in vector 'v0'",
         '"vectors": [{"inputs": {"a": "0", "a": "5n", "b": "0"}}]'),
        ("request field 'characterize' given twice",
         '"characterize": true, "vectors": [{"inputs": {"a": "0"}}]'),
        ("unknown request field(s): kernel",
         '"kernel": "numpy", "vectors": [{"inputs": {"a": "0", "b": "0"}}]'),
        ("unknown request field(s): slope_quantum",
         '"slope_quantum": 0.05, '
         '"vectors": [{"inputs": {"a": "0", "b": "0"}}]'),
    ], ids=["input-token", "negative-slope", "not-primary-input",
            "duplicate-json-key", "duplicate-field", "kernel-field",
            "slope-quantum-field"])
    def test_overflowing_number_is_400(self, service, field, body):
        import http.client as http_client
        host, port = service.service.address
        connection = http_client.HTTPConnection(host, port, timeout=10)
        payload = '{"netlist": %s, "characterize": false, %s}' % (
            json.dumps(NAND_SIM), body)
        connection.request("POST", "/analyze", body=payload.encode(),
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        reply = response.read().decode()
        connection.close()
        assert response.status == 400
        assert field in reply
        assert "Infinity" not in reply


class TestRequestFraming:
    """A malformed or stalled HTTP request gets a specific 4xx, never a
    500, and never holds its connection past the read deadline."""

    @pytest.mark.parametrize("raw, needle", [
        (b"POST /analyze HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
         "negative Content-Length -5"),
        (b"POST /analyze HTTP/1.1\r\nContent-Length: 100\r\n\r\n{}",
         "request body ended after 2 of 100 bytes"),
        (b"POST /analyze HTTP/1.1\r\nX-Pad: " + b"a" * 70000 + b"\r\n\r\n",
         "request line or header line too long"),
    ], ids=["negative-length", "short-body", "long-header-line"])
    def test_bad_framing_is_400(self, service, raw, needle):
        status, error = _raw_reply(service.service.address, raw)
        assert (status, error) == (400, needle)

    @pytest.mark.parametrize("raw", [
        b"POST /analyze HTTP/1.1\r\n",
        b"POST /analyze HTTP/1.1\r\nContent-Length: 100\r\n\r\n{}",
    ], ids=["request-line-only", "stalled-body"])
    def test_stalled_request_is_408(self, service, raw):
        # One deadline covers the request line, the headers and the body.
        with mock.patch.object(daemon, "_READ_TIMEOUT", 0.5):
            status, error = _raw_reply(service.service.address, raw,
                                       close_write=False)
        assert status == 408
        assert "timed out reading the request" in error


class TestBackpressureAndTimeouts:
    def test_queue_full_rejects_429(self):
        # queue_limit=1 and a slow engine: the first request occupies the
        # dispatcher, the second sits in the queue, the third bounces.
        with _ServiceThread(queue_limit=1, timeout=60.0) as thread:
            client = thread.client
            client.analyze(NAND_SIM, [("warm", _vec())],
                           characterize=False)

            real = TimingAnalyzer.analyze_many
            release = threading.Event()

            def slow(self, scenarios, delta=False):
                release.wait(20)
                return real(self, scenarios, delta=delta)

            statuses = {}

            def request(name, wait_seconds):
                c = thread.client
                try:
                    c.analyze(NAND_SIM, [(name, _vec(a=2e-10))],
                              characterize=False)
                    statuses[name] = 200
                except ServiceError as exc:
                    statuses[name] = exc.status

            with mock.patch.object(TimingAnalyzer, "analyze_many", slow):
                first = threading.Thread(target=request, args=("slow", 0))
                first.start()
                time.sleep(0.3)  # let it dequeue and block in the engine
                second = threading.Thread(target=request, args=("queued", 0))
                second.start()
                time.sleep(0.3)  # it must now be sitting in the queue
                request("rejected", 0)
                release.set()
                first.join(30)
                second.join(30)
            assert statuses["rejected"] == 429
            assert statuses["slow"] == 200
            assert statuses["queued"] == 200
            metrics = thread.client.metrics()
            assert metrics["service"]["service_rejected_queue_full"] == 1

    def test_slow_analysis_times_out_504(self):
        with _ServiceThread(timeout=0.3) as thread:
            client = thread.client
            client.analyze(NAND_SIM, [("warm", _vec())],
                           characterize=False)

            real = TimingAnalyzer.analyze_many

            def slow(self, scenarios, delta=False):
                time.sleep(1.2)
                return real(self, scenarios, delta=delta)

            with mock.patch.object(TimingAnalyzer, "analyze_many", slow):
                with pytest.raises(ServiceError) as info:
                    client.analyze(NAND_SIM, [("v0", _vec(a=1e-10))],
                                   characterize=False)
            assert info.value.status == 504
            metrics = thread.client.metrics()
            assert metrics["service"]["service_timeouts"] == 1
            # The abandoned batch still occupies the engine thread; once
            # it finishes, the daemon serves again as if nothing happened.
            time.sleep(1.3)
            served = client.analyze(NAND_SIM, [("after", _vec())],
                                    characterize=False)
            assert served[0].arrivals

    def test_request_timed_out_in_queue_does_no_work(self):
        # A held batch occupies the engine while a second request queues
        # behind it; both time out.  The held batch still completes, but
        # the queued one is dropped when the dispatcher pops it.
        with _ServiceThread(timeout=0.5) as thread:
            client = thread.client
            client.analyze(NAND_SIM, [("warm", _vec())],
                           characterize=False)

            real = TimingAnalyzer.analyze_many
            release = threading.Event()
            calls = []

            def held(self, scenarios, delta=False):
                calls.append(len(scenarios))
                if len(calls) == 1:
                    release.wait(20)
                return real(self, scenarios, delta=delta)

            statuses = {}

            def request(name, a):
                try:
                    thread.client.analyze(NAND_SIM, [(name, _vec(a=a))],
                                          characterize=False)
                    statuses[name] = 200
                except ServiceError as exc:
                    statuses[name] = exc.status

            with mock.patch.object(TimingAnalyzer, "analyze_many", held):
                first = threading.Thread(target=request,
                                         args=("held", 1e-10))
                first.start()
                time.sleep(0.3)  # it now blocks in the engine
                second = threading.Thread(target=request,
                                          args=("queued", 2e-10))
                second.start()
                first.join(30)
                second.join(30)
                assert statuses == {"held": 504, "queued": 504}
                release.set()
                served = client.analyze(NAND_SIM, [("after", _vec())],
                                        characterize=False)
            assert served[0].arrivals
            assert calls == [1, 1]  # the held batch, then "after"
            service_counters = client.metrics()["service"]
            assert service_counters["service_vectors"] == 3
            assert service_counters["service_batches"] == 3
            assert service_counters["service_timeouts"] == 2

    def test_draining_service_rejects_new_work_503(self):
        # Drain while a job is in flight: the drain window stays open
        # long enough to observe the 503, the in-flight job completes,
        # then the server closes by itself.
        thread = _ServiceThread(timeout=60.0)
        with thread:
            client = thread.client
            client.analyze(NAND_SIM, [("warm", _vec())],
                           characterize=False)

            real = TimingAnalyzer.analyze_many
            release = threading.Event()

            def slow(self, scenarios, delta=False):
                release.wait(20)
                return real(self, scenarios, delta=delta)

            in_flight = {}

            def request():
                try:
                    in_flight["result"] = thread.client.analyze(
                        NAND_SIM, [("inflight", _vec(a=1e-10))],
                        characterize=False)
                except ServiceError as exc:
                    in_flight["error"] = exc

            with mock.patch.object(TimingAnalyzer, "analyze_many", slow):
                worker = threading.Thread(target=request)
                worker.start()
                time.sleep(0.3)  # the job is now blocked in the engine
                status, payload = client._request("POST", "/shutdown", {})
                assert status == 200 and payload["status"] == "draining"
                status, payload = client._request("POST", "/analyze", {
                    "netlist": NAND_SIM,
                    "vectors": [{"inputs": {"a": "0", "b": "0"}}]})
                assert status == 503
                assert client._request("GET", "/healthz")[1] == {
                    "status": "draining"}
                release.set()
                worker.join(30)
            # The in-flight job drained to completion, not an error.
            assert "error" not in in_flight
            assert in_flight["result"][0].label == "inflight"
            thread._thread.join(timeout=15)
            assert not thread._thread.is_alive()  # closed by itself


class TestInternalErrors:
    """A 500 is a daemon bug, so its traceback must reach stderr, even on
    a ``quiet`` daemon (quiet silences only the banners)."""

    @pytest.mark.parametrize("target, name", [
        (TimingAnalyzer, "analyze_many"),  # the dispatcher's future
        (TimingService, "_route"),  # the connection handler
    ], ids=["engine", "handler"])
    def test_500_prints_its_traceback(self, capfd, target, name):
        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        with _ServiceThread() as thread, \
                mock.patch.object(target, name, boom):
            status, payload = thread.client._request("POST", "/analyze", {
                "netlist": NAND_SIM, "characterize": False,
                "vectors": [{"inputs": {"a": "0", "b": "0"}}]})
        assert status == 500
        assert payload["error"].endswith("internal error: boom")
        err = capfd.readouterr().err
        assert "Traceback" in err
        assert "RuntimeError: boom" in err


class TestNormalizeOnce:
    def test_each_vector_is_normalized_once(self, service):
        """The daemon checks each vector of a request before it runs the
        batch, and analyzes what the check returned."""
        real = TimingAnalyzer._normalize_inputs
        calls = []

        def counting(analyzer, inputs):
            calls.append(inputs)
            return real(analyzer, inputs)

        vectors = [(f"v{index}", _vec(a=index * 1e-10)) for index in range(3)]
        with mock.patch.object(TimingAnalyzer, "_normalize_inputs",
                               counting):
            served = service.client.analyze(NAND_SIM, vectors,
                                            characterize=False)
        assert len(calls) == 3
        network = sim_format.loads(NAND_SIM, CMOS3)
        for (_, inputs), answer in zip(vectors, served):
            reference = TimingAnalyzer(network).analyze(inputs)
            assert answer.arrivals == _wire_arrivals(reference)


class TestCoalescing:
    def test_concurrent_same_netlist_requests_coalesce(self):
        # Hold the dispatcher hostage with a slow first batch so the next
        # requests pile up in the queue, then verify they ran as one
        # coalesced delta batch and all came back bit-identical.
        with _ServiceThread(queue_limit=32, timeout=60.0) as thread:
            client = thread.client
            client.analyze(NAND_SIM, [("warm", _vec())],
                           characterize=False)

            real = TimingAnalyzer.analyze_many
            release = threading.Event()
            calls = []

            def slow_once(self, scenarios, delta=False):
                scenarios = list(scenarios)
                calls.append(len(scenarios))
                if len(calls) == 1:
                    release.wait(20)
                return real(self, scenarios, delta=delta)

            outcomes = [None] * 4

            def request(index):
                c = thread.client
                outcomes[index] = c.analyze(
                    NAND_SIM, [(f"r{index}", _vec(a=index * 1e-10))],
                    characterize=False)

            with mock.patch.object(TimingAnalyzer, "analyze_many",
                                   slow_once):
                blocker = threading.Thread(target=request, args=(0,))
                blocker.start()
                time.sleep(0.3)
                rest = [threading.Thread(target=request, args=(i,))
                        for i in (1, 2, 3)]
                for t in rest:
                    t.start()
                time.sleep(0.3)
                release.set()
                blocker.join(30)
                for t in rest:
                    t.join(30)

            # Batch sizes: 1 (blocker), then the 3 queued jobs together.
            assert calls[0] == 1
            assert sum(calls[1:]) == 3
            assert max(calls[1:]) > 1  # some coalescing really happened
            metrics = thread.client.metrics()
            assert metrics["service"]["service_coalesced_requests"] >= 1

            network = sim_format.loads(NAND_SIM, CMOS3, name="ref")
            for index, served in enumerate(outcomes):
                reference = TimingAnalyzer(network).analyze(
                    _vec(a=index * 1e-10))
                assert served[0].arrivals == _wire_arrivals(reference)


class TestWireBytes:
    """Every 200 body is, byte for byte, ``json.dumps`` of the dict
    payload the daemon used to build (:class:`_Oracle`), however much of
    it the pool entry's encoder took from its cache."""

    def test_rca32_stream_hits_and_misses(self, service):
        names = adder_input_names(32)
        netlist = sim_format.dumps(ripple_carry_adder(CMOS3, 32))
        rng = random.Random(26)
        oracle = _Oracle()
        with mock.patch.object(protocol, "_number",
                               wraps=protocol._number) as formatted:
            for index in range(24):
                inputs = {name: InputSpec(*(
                    (0.5e-9, 0.5e-9, 0.3e-9) if rng.random() < 1 / 8
                    else (0.0, 0.0, 0.3e-9))) for name in names}
                payload = _analyze_payload(
                    netlist, [(f"q{index}", encode_inputs(inputs))])
                before = formatted.call_count
                body = _post_body(service.service.address, payload)
                assert body == oracle.body(payload), index
                written = formatted.call_count - before
                if index == 0:
                    first = written  # a new encoder writes everything
                else:
                    assert 0 < written < first, index  # hits and misses
        assert first == 2 * 1538  # a time and a slope per arrival

    def test_cache_checks_identity_not_value(self):
        # Equal values can print differently (0.0 == -0.0), and json has
        # its own words for the non-finite ones.
        names = ["n"]
        encoder = protocol.ResultEncoder()
        for time_, slope in ((0.0, 1e-10), (-0.0, 1e-10), (0, 1e-10),
                             (float("nan"), float("inf")),
                             (2.5e-10, -float("inf"))):
            arrivals = {0: Arrival(time_, slope)}
            result = SimpleNamespace(arrivals=SimpleNamespace(
                numbered=lambda: (arrivals, names)))
            assert encoder.entry("v", result) == json.dumps({
                "label": "v", "arrivals": [{"node": "n", "edge": "rise",
                                            "time": time_,
                                            "slope": slope}]})

    def test_multi_vector_request(self, service):
        payload = _analyze_payload(NAND_SIM, [
            ("v0", {"a": "0.0", "b": "1e-10"}),
            ("v1", {"a": "3e-10", "b": "0.0/5e-10"}),
            ("v2", {"a": "0.0", "b": "1e-10"})])
        assert _post_body(service.service.address, payload) == \
            _Oracle().body(payload)

    def test_escaped_names_sort_order_and_vanishing_events(self, service):
        oracle = _Oracle()
        vectors = [
            {'a"q': "0.0", "b\\x": "1e-10", "Ä10": "0.0", "a2": "2e-10"},
            # static a"q and a2: every event they drive vanishes
            {'a"q': "-", "b\\x": "1e-10", "Ä10": "0.0", "a2": "-"},
            {'a"q': "2e-10~-", "b\\x": "0.0", "Ä10": "5e-11", "a2": "0.0"},
            {'a"q': "0.0", "b\\x": "1e-10", "Ä10": "0.0", "a2": "2e-10"},
        ]
        sizes = []
        for index, inputs in enumerate(vectors):
            payload = _analyze_payload(ESCAPED_SIM, [(f"e{index}", inputs)])
            body = _post_body(service.service.address, payload)
            assert body == oracle.body(payload), index
            sizes.append(len(json.loads(body)["results"][0]["arrivals"]))
        assert sizes[1] < sizes[0] and sizes[3] == sizes[0]
        # The escapes and the sort order really are on the wire.
        assert b'"node": "a\\"q"' in body
        assert b'"node": "b\\\\x"' in body
        assert b'"node": "\\u00c410"' in body
        nodes = [record["node"] for record in
                 json.loads(body)["results"][0]["arrivals"]][::2]
        assert nodes[:4] == ["Zout", 'a"q', "a10", "a2"]

    def test_coalesced_batch(self):
        with _ServiceThread(queue_limit=32, timeout=60.0) as thread:
            address = thread.service.address
            oracle = _Oracle()
            warm = _analyze_payload(NAND_SIM, [("warm", {"a": "0",
                                                         "b": "0"})])
            assert _post_body(address, warm) == oracle.body(warm)

            real = TimingAnalyzer.analyze_many
            release = threading.Event()
            calls = []

            def slow_once(self, scenarios, delta=False):
                scenarios = list(scenarios)
                calls.append(len(scenarios))
                if len(calls) == 1:
                    release.wait(20)
                return real(self, scenarios, delta=delta)

            payloads = [_analyze_payload(NAND_SIM, [
                (f"r{index}", {"a": f"{index}e-10", "b": "0.0"})])
                for index in range(4)]
            bodies = [None] * 4

            def request(index):
                bodies[index] = _post_body(address, payloads[index])

            with mock.patch.object(TimingAnalyzer, "analyze_many",
                                   slow_once):
                blocker = threading.Thread(target=request, args=(0,))
                blocker.start()
                time.sleep(0.3)
                rest = [threading.Thread(target=request, args=(i,))
                        for i in (1, 2, 3)]
                for t in rest:
                    t.start()
                time.sleep(0.3)
                release.set()
                for t in [blocker, *rest]:
                    t.join(30)
            assert max(calls[1:]) > 1
            for payload, body in zip(payloads, bodies):
                coalesced = json.loads(body)["coalesced"]
                assert body == oracle.body(payload, coalesced)
            assert max(json.loads(body)["coalesced"] for body in bodies) > 0

    def test_entry_rebuilt_after_eviction(self):
        with _ServiceThread(pool_size=1) as thread:
            address = thread.service.address
            oracle = _Oracle()
            nand = [_analyze_payload(NAND_SIM, [(f"n{index}", {
                "a": f"{index}e-10", "b": "0.0"})]) for index in range(3)]
            inverter = _analyze_payload(INVERTER_SIM,
                                        [("i0", {"in": "0.0"})])
            for payload in (nand[0], nand[1], inverter, nand[2]):
                body = _post_body(address, payload)
                assert body == oracle.body(payload)
            pool = thread.client.metrics()["pool"]
            assert (pool["misses"], pool["evictions"]) == (3, 2)


class TestWarmService:
    def test_warm_evals_pinned(self, service):
        """32 single-vector rca32 requests from one sequential client:
        the warm daemon's model evaluations are pinned exactly, and must
        stay at least 3x fewer than a fresh analyzer per request, with
        bit-identical arrivals on the wire."""
        names = adder_input_names(32)
        requests = []
        for index in range(32):
            # Every 7th input arrives late, the pattern shifted by one per
            # request, so neighbouring requests differ in a few inputs.
            arrivals = [0.4e-9 if (index + offset) % 7 == 0 else 0.0
                        for offset in range(len(names))]
            requests.append({name: InputSpec(at, at, 0.2e-9)
                             for name, at in zip(names, arrivals)})
        netlist = sim_format.dumps(ripple_carry_adder(CMOS3, 32))
        client = service.client
        served = [client.analyze(netlist, [(f"q{index}", inputs)],
                                 characterize=False)[0]
                  for index, inputs in enumerate(requests)]
        warm = client.metrics()["perf"]["counters"]["model_evals"]

        network = sim_format.loads(netlist, CMOS3)
        cold = 0
        for inputs, analyzed in zip(requests, served):
            reference = TimingAnalyzer(network).analyze(inputs)
            cold += reference.perf.get("model_evals")
            assert analyzed.arrivals == _wire_arrivals(reference)
        assert (warm, cold) == (711, 22752)
        assert cold >= 3 * warm


class TestServeCLI:
    def test_serve_flag_validation(self, capsys):
        from repro.cli import main
        # A value that slipped through would start a daemon: fail instead.
        with mock.patch.object(daemon, "serve",
                               side_effect=AssertionError("daemon started")):
            for argv in (["serve", "--pool-size", "0"],
                         ["serve", "--queue-limit", "0"],
                         ["serve", "--timeout", "0"],
                         ["serve", "--timeout", "nan"],
                         ["serve", "--timeout", "inf"],
                         ["serve", "--port", "70000"]):
                code = main(argv)
                err = capsys.readouterr().err
                assert code == 2
                assert err.startswith("error: " + argv[1])
                assert err.count("\n") == 1

    def test_module_entry_point_runs_without_warnings(self):
        """``python -m repro.service.daemon`` must not import itself
        through the package first (runpy warns about that), so it fails
        on a bad flag with exit 2 and one error line even under
        ``-W error``."""
        src = pathlib.Path(__file__).parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        run = subprocess.run(
            [sys.executable, "-W", "error", "-m", "repro.service.daemon",
             "--port", "70000"],
            capture_output=True, text=True, env=env, timeout=60)
        assert run.returncode == 2, run.stderr
        assert run.stderr.startswith("error: --port")
        assert run.stderr.count("\n") == 1
