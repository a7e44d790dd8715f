"""Tests for the timing service: daemon, pool, protocol, client.

The daemon runs **in-process** on a background-thread event loop (the
``service`` fixture), so these tests exercise the real HTTP path —
sockets, the dispatcher, the executor — without subprocess overhead.
The full out-of-process envelope (SIGTERM drain, --trace file, banner
parsing) is ``python -m repro.service.smoke`` / ``make service-smoke``.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from unittest import mock

import pytest

from repro.batch.vectors import Vector
from repro.core.timing import TimingAnalyzer
from repro.core.timing.analyzer import InputSpec
from repro.errors import ServiceError
from repro.netlist import sim_format
from repro.service import (
    AnalyzerPool,
    ServiceClient,
    ServiceConfig,
    TimingService,
    parse_analyze_request,
)
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
        ({"kernel": "fortran"}, "unknown kernel"),
        ({"slope_quantum": -0.1}, "slope_quantum"),
        ({"characterize": "yes"}, "characterize"),
        ({"vectors": []}, "vectors"),
        ({"vectors": [{"inputs": {}}]}, "inputs"),
        ({"vectors": [{"inputs": {"a": "nonsense"}}]}, "inputs['a']"),
        ({"bogus_field": 1}, "unknown request field"),
        ({"slope_quantum": float("inf")}, "slope_quantum"),
        ({"slope_quantum": float("nan")}, "slope_quantum"),
        ({"vectors": [{"inputs": {"a": "1e400"}}]}, "inputs['a']"),
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
        for mutation in ({"model": "rc-tree"}, {"kernel": "python"},
                         {"slope_quantum": 0.05}, {"characterize": False},
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
            expected = {}
            for event, arrival in reference.arrivals.items():
                edge = ("rise" if event.transition is Transition.RISE
                        else "fall")
                expected[(event.node, edge)] = (arrival.time, arrival.slope)
            assert analyzed.arrivals == expected  # exact, not approx

    def test_repeat_requests_hit_pool(self, service):
        client = service.client
        client.analyze(NAND_SIM, [("v0", _vec())], characterize=False)
        client.analyze(NAND_SIM, [("v1", _vec(a=2e-10))],
                       characterize=False)
        metrics = client.metrics()
        assert metrics["pool"]["misses"] == 1
        assert metrics["pool"]["hits"] >= 1
        assert metrics["pool"]["size"] == 1

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
        ("slope_quantum", '"slope_quantum": 1e400, '
                          '"vectors": [{"inputs": {"a": "0", "b": "0"}}]'),
        ("inputs['a']", '"vectors": [{"inputs": {"a": "1e400", "b": "0"}}]'),
        ("input 'a': negative slope",
         '"vectors": [{"inputs": {"a": "0/-2e-09", "b": "0"}}]'),
    ], ids=["slope-quantum", "input-token", "negative-slope"])
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
                expected = {}
                for event, arrival in reference.arrivals.items():
                    edge = ("rise"
                            if event.transition is Transition.RISE
                            else "fall")
                    expected[(event.node, edge)] = (arrival.time,
                                                    arrival.slope)
                assert served[0].arrivals == expected


class TestServeCLI:
    def test_serve_flag_validation(self, capsys):
        from repro.cli import main
        for argv in (["serve", "--pool-size", "0"],
                     ["serve", "--queue-limit", "0"],
                     ["serve", "--timeout", "0"]):
            code = main(argv)
            err = capsys.readouterr().err
            assert code == 2
            assert "error:" in err
