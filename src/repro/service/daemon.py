"""The timing daemon: JSON-over-HTTP serving of warm-analyzer queries.

``repro-crystal serve`` runs this.  Zero dependencies beyond the
standard library: a hand-rolled HTTP/1.1 server on ``asyncio`` sockets
(the subset ``http.client`` and ``curl`` speak — request line, headers,
``Content-Length`` body, ``Connection: close``).

Architecture (DESIGN.md §10):

* every connection handler validates its request and enqueues a
  :class:`_Job` on a bounded pending deque — a full deque is answered
  ``429`` immediately (backpressure, not buffering);
* a **single dispatcher task** owns the analyzer pool.  It pops the
  oldest job and greedily coalesces every other queued job with the
  same pool key into one batch: the batch's vectors are delta-ordered
  (:func:`repro.batch.order_vectors` ``"greedy"``) and run through one
  ``analyze_many(delta=True)`` mini-sweep, so consecutive requests for
  one network pay dirty-cone costs, not full propagations.  Single
  ownership is also what makes coalescing deterministic and keeps the
  pool lock-free;
* the actual analysis runs on a one-thread executor so the event loop
  keeps accepting, rejecting, and answering ``/metrics`` while the
  engine computes;
* each handler awaits its job's future under the per-request timeout —
  ``504`` on expiry.  A job still queued then is dropped when the
  dispatcher pops it, so it costs no engine work; a batch already in the
  engine is not cancelled, and its result warms the caches for the next
  request;
* ``SIGTERM``/``SIGINT``/``POST /shutdown`` put the daemon in draining
  mode: new work is answered ``503``, queued and in-flight jobs finish,
  then the server closes and — when ``--trace`` is active — the whole
  serving session is written out as one Chrome trace.

Results are **bit-identical** to a fresh analyzer per request: the
engine's delta/batch invariants guarantee the arrivals, and the JSON
layer's shortest-round-trip floats guarantee the wire (see
``protocol.py``).  The engine thread writes each 200 body itself, with
the pool entry's :class:`~repro.service.protocol.ResultEncoder`, and
the handler sends those bytes as they are; so the wire's exactness
rests on that encoder writing what ``json.dumps`` writes for the dict
payload.  ``make service-smoke`` and ``tests/test_service.py`` both
assert exact equality, of arrivals and of body bytes.
"""

from __future__ import annotations

import asyncio
import collections
import concurrent.futures
import json
import signal
import sys
import traceback
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from ..batch.vectors import order_vectors
from ..errors import ReproError, ServiceError
from ..perf import PerfCounters
from ..trace import spans as trace_spans
from .pool import AnalyzerPool
from .protocol import (AnalyzeRequest, analyze_body, decode_body,
                       parse_analyze_request)

__all__ = ["ServiceConfig", "TimingService", "run", "serve"]

_MAX_BODY = 32 * 1024 * 1024  # 32 MiB request ceiling
_READ_TIMEOUT = 10.0  # seconds to receive a whole request
_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: A response: its status and either a JSON-ready payload or, for a 200
#: from ``/analyze``, the body bytes the engine thread wrote.
_Response = Tuple[int, Union[bytes, Dict[str, object]]]


@dataclass
class ServiceConfig:
    """Knobs of one serving session (the ``serve`` subcommand's flags)."""

    host: str = "127.0.0.1"
    port: int = 8351
    pool_size: int = 4
    queue_limit: int = 64
    timeout: float = 30.0
    trace: Optional[str] = None
    quiet: bool = False


class _Job:
    """One enqueued analyze request and the future its handler awaits."""

    __slots__ = ("request", "key", "future")

    def __init__(self, request: AnalyzeRequest,
                 future: "asyncio.Future") -> None:
        self.request = request
        self.key = request.pool_key()
        self.future = future


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    """One request or header line.  A line past the stream's 64 KiB limit
    is the client's fault, not an internal error."""
    try:
        return await reader.readline()
    except ValueError:
        raise ServiceError("request line or header line too long") from None


async def _read_request(reader: asyncio.StreamReader
                        ) -> Tuple[str, str, bytes]:
    """Request line, headers and body; a framing fault raises a
    :class:`ServiceError` carrying its status."""
    parts = (await _read_line(reader)).decode("latin-1").split()
    if len(parts) < 2:
        raise ServiceError("malformed request line")
    method, path = parts[0].upper(), parts[1]

    headers: Dict[str, str] = {}
    while True:
        line = await _read_line(reader)
        if line in (b"\r\n", b"\n", b""):
            break
        if b":" in line:
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        raise ServiceError("bad Content-Length") from None
    if length < 0:
        raise ServiceError(f"negative Content-Length {length}")
    if length > _MAX_BODY:
        raise ServiceError(f"request body exceeds {_MAX_BODY} bytes",
                           status=413)
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ServiceError(
            f"request body ended after {len(exc.partial)} of "
            f"{length} bytes") from None
    return method, path, body


class TimingService:
    """The daemon's state machine; one instance per serving session."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.pool = AnalyzerPool(config.pool_size)
        self.perf = PerfCounters()
        self.address: Optional[Tuple[str, int]] = None
        self._pending: "collections.deque[_Job]" = collections.deque()
        self._work: Optional[asyncio.Condition] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-service")
        self._tracer: Optional[trace_spans.Tracer] = None
        self._draining = False
        self._closed: Optional[asyncio.Event] = None

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind the server (resolving port 0) and start the dispatcher."""
        self._work = asyncio.Condition()
        self._closed = asyncio.Event()
        if self.config.trace:
            self._tracer = trace_spans.Tracer()
            trace_spans.install(self._tracer)
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port)
        sockname = self._server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        self._dispatcher = asyncio.ensure_future(self._dispatch())
        if not self.config.quiet:
            print(f"repro-crystal service listening on "
                  f"http://{self.address[0]}:{self.address[1]}", flush=True)
        return self.address

    def request_shutdown(self) -> None:
        """Enter draining mode (idempotent; signal-handler safe)."""
        if self._draining:
            return
        self._draining = True
        self.perf.incr("service_shutdowns")

        async def _nudge() -> None:
            assert self._work is not None
            async with self._work:
                self._work.notify_all()

        asyncio.ensure_future(_nudge())

    async def wait_closed(self) -> None:
        """Block until the drain finished and the server socket closed."""
        assert self._closed is not None
        await self._closed.wait()

    async def _finish(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._executor.shutdown(wait=True)
        if self._tracer is not None:
            from ..trace.export import write_chrome_trace

            trace_spans.uninstall()
            count = write_chrome_trace(self._tracer, self.config.trace)
            if not self.config.quiet:
                print(f"trace: {count} event(s) written to "
                      f"{self.config.trace}", flush=True)
        assert self._closed is not None
        self._closed.set()

    # -- dispatcher ---------------------------------------------------------

    async def _dispatch(self) -> None:
        """Pop, coalesce, and run batches until drained after shutdown."""
        assert self._work is not None
        loop = asyncio.get_event_loop()
        while True:
            async with self._work:
                while not self._pending and not self._draining:
                    await self._work.wait()
                if not self._pending and self._draining:
                    break
                head = self._pending.popleft()
                batch = [head]
                coalesced = [job for job in self._pending
                             if job.key == head.key]
                for job in coalesced:
                    self._pending.remove(job)
                batch.extend(coalesced)
            # A job whose handler gave up while it queued (its future
            # cancelled by the timeout) has been answered 504: drop it.
            batch = [job for job in batch if not job.future.done()]
            if not batch:
                continue
            if len(batch) > 1:
                self.perf.incr("service_coalesced_requests", len(batch) - 1)
            self.perf.incr("service_batches")
            try:
                outcome = await loop.run_in_executor(
                    self._executor, self._run_batch, batch)
            except BaseException as exc:  # executor infrastructure failure
                for job in batch:
                    if not job.future.done():
                        job.future.set_exception(exc)
                continue
            for job, result in zip(batch, outcome):
                if job.future.done():
                    continue
                if isinstance(result, Exception):
                    job.future.set_exception(result)
                else:
                    job.future.set_result(result)
        await self._finish()

    def _run_batch(self, batch: List[_Job]) -> List[object]:
        """Executor-thread body: one coalesced delta-ordered mini-sweep.

        Returns one entry per job: its 200 body, written by the pool
        entry's encoder, or the exception to fail that job with.  A job
        whose vectors do not validate against the network fails alone —
        its coalesced neighbours still run.
        """
        with trace_spans.span("service_batch", requests=len(batch),
                              key=batch[0].key[:12]):
            try:
                entry = self.pool.get(batch[0].request)
            except ReproError as exc:
                return [exc for _ in batch]
            analyzer = entry.analyzer

            outcome: List[object] = [None] * len(batch)
            runnable: List[int] = []
            vectors = []
            # Each vector's inputs as the analyzer normalized them, which
            # it then analyzes without checking them again.
            inputs = []
            spans_per_job: List[Tuple[int, int]] = []
            for position, job in enumerate(batch):
                try:
                    checked = [analyzer._normalize_inputs(vector.inputs)
                               for vector in job.request.vectors]
                except ReproError as exc:
                    outcome[position] = ServiceError(str(exc), status=400)
                    continue
                start = len(vectors)
                vectors.extend(job.request.vectors)
                inputs.extend(checked)
                spans_per_job.append((position, start))
                runnable.append(position)

            if vectors:
                permutation = order_vectors(list(vectors), "greedy")
                try:
                    with trace_spans.span("service_sweep",
                                          vectors=len(vectors)):
                        ordered = [inputs[i] for i in permutation]
                        results = analyzer.analyze_many(ordered, delta=True)
                except ReproError as exc:
                    for position in runnable:
                        outcome[position] = exc
                    return outcome
                by_position = dict(zip(permutation, results))
                self.perf.incr("service_vectors", len(vectors))
                encode = entry.encoder.entry
                for (position, start) in spans_per_job:
                    job = batch[position]
                    entry.requests += 1
                    entry.vectors += len(job.request.vectors)
                    outcome[position] = analyze_body(
                        [encode(vector.label, by_position[start + offset])
                         for offset, vector in
                         enumerate(job.request.vectors)],
                        len(batch) - 1, entry.key[:12])
            return outcome

    # -- HTTP layer ---------------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            status, payload = await self._handle_request(reader)
        except Exception as exc:  # never let a handler kill the loop
            traceback.print_exception(exc)
            status, payload = 500, {"error": f"internal error: {exc}"}
        body = payload if isinstance(payload, bytes) else json.dumps(
            payload).encode("utf-8")
        reason = _REASONS.get(status, "Unknown")
        head = (f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n").encode("ascii")
        try:
            writer.write(head + body)
            await writer.drain()
            writer.close()
        except (ConnectionError, OSError):
            pass  # client went away; nothing to salvage

    async def _handle_request(self, reader: asyncio.StreamReader
                              ) -> _Response:
        self.perf.incr("service_requests")
        try:
            method, path, body = await asyncio.wait_for(
                _read_request(reader), timeout=_READ_TIMEOUT)
        except asyncio.TimeoutError:
            return 408, {"error": f"timed out reading the request "
                                  f"({_READ_TIMEOUT:g}s)"}
        except ServiceError as exc:
            return exc.status, {"error": str(exc)}

        with trace_spans.span("service_request", method=method, path=path):
            return await self._route(method, path, body)

    async def _route(self, method: str, path: str, body: bytes
                     ) -> _Response:
        if path == "/healthz":
            return 200, {"status": "draining" if self._draining else "ok"}
        if path == "/metrics":
            return 200, self.metrics()
        if path == "/shutdown":
            if method != "POST":
                return 405, {"error": "POST /shutdown"}
            self.request_shutdown()
            return 200, {"status": "draining"}
        if path != "/analyze":
            return 404, {"error": f"no such endpoint {path!r}"}
        if method != "POST":
            return 405, {"error": "POST /analyze"}
        return await self._analyze(body)

    async def _analyze(self, body: bytes) -> _Response:
        if self._draining:
            self.perf.incr("service_rejected_draining")
            return 503, {"error": "service is draining"}
        try:
            payload = decode_body(body)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return 400, {"error": f"request body is not valid JSON: {exc}"}
        try:
            request = parse_analyze_request(payload)
        except ServiceError as exc:
            return exc.status, {"error": str(exc)}

        assert self._work is not None
        async with self._work:
            if len(self._pending) >= self.config.queue_limit:
                self.perf.incr("service_rejected_queue_full")
                return 429, {"error": f"request queue is full "
                                      f"({self.config.queue_limit} pending)"}
            job = _Job(request, asyncio.get_event_loop().create_future())
            self._pending.append(job)
            self._work.notify_all()

        try:
            result = await asyncio.wait_for(job.future,
                                            timeout=self.config.timeout)
        except asyncio.TimeoutError:
            self.perf.incr("service_timeouts")
            return 504, {"error": f"analysis exceeded the "
                                  f"{self.config.timeout:g}s request "
                                  "timeout"}
        except ServiceError as exc:
            self.perf.incr("service_errors")
            return exc.status, {"error": str(exc)}
        except ReproError as exc:
            self.perf.incr("service_errors")
            return 400, {"error": str(exc)}
        except Exception as exc:
            # A 500 is a daemon bug: keep its traceback (``quiet``
            # silences only the banners).
            traceback.print_exception(exc)
            self.perf.incr("service_errors")
            return 500, {"error": f"internal error: {exc}"}
        self.perf.incr("service_completed")
        assert isinstance(result, bytes)
        return 200, result

    # -- observability ------------------------------------------------------

    def metrics(self) -> Dict[str, object]:
        """The ``/metrics`` payload: service counters, pool stats, and
        the union of every warm analyzer's ``repro.perf`` counters."""
        return {
            "service": {
                **{name: value
                   for name, value in sorted(self.perf.counters.items())},
                "pending": len(self._pending),
                "draining": self._draining,
                "queue_limit": self.config.queue_limit,
                "timeout": self.config.timeout,
            },
            "pool": self.pool.stats(),
            "perf": self.pool.merged_perf(),
        }


async def run(config: ServiceConfig) -> None:
    """Start a service, serve until SIGTERM/SIGINT/shutdown, drain."""
    service = TimingService(config)
    loop = asyncio.get_event_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, service.request_shutdown)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # platform without loop signal handlers
    await service.start()
    await service.wait_closed()
    if not config.quiet:
        print("repro-crystal service drained and stopped", flush=True)


def serve(config: ServiceConfig) -> int:
    """Blocking entry point used by ``repro-crystal serve``."""
    try:
        asyncio.run(run(config))
    except KeyboardInterrupt:  # pragma: no cover - signal-handler race
        pass
    return 0


def main(argv: Optional[List[str]] = None) -> int:  # pragma: no cover
    """``python -m repro.service.daemon`` — ``repro-crystal serve``, flag
    checks included."""
    from ..cli import main as cli_main

    return cli_main(["serve", *(sys.argv[1:] if argv is None else argv)])


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
