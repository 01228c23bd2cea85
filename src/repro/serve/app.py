"""The HTTP serving layer: stdlib ``ThreadingHTTPServer`` over the engine.

Endpoints:

``POST /v1/size``
    One sizing request per call, JSON body in the CLI's request schema
    (plus the serving-only ``deadline_ms`` key).  Concurrent calls are
    coalesced by the :class:`~repro.serve.MicroBatcher` into one
    ``SizingEngine.size_batch`` call — the handler thread blocks on its
    ticket while the dispatcher forms and runs the batch.  Responses:

    * ``200`` — the standard :class:`~repro.service.SizingResponse` JSON
      (``success`` may still be ``false`` when the spec is infeasible);
    * ``400`` — malformed body, same structured payload as a bad JSONL
      line in the CLI;
    * ``413`` — a ``Content-Length`` over :data:`MAX_BODY_BYTES`, same
      payload; the body is not read and the connection is closed;
    * ``503`` + ``Retry-After`` — the bounded queue is full
      (backpressure: retry, don't pile on);
    * ``504`` — the request's ``deadline_ms`` expired while it waited in
      the queue (no solver work was spent on it);
    * ``500`` — the batch handler raised (a server bug, not a request
      problem).

``GET /stats``
    Engine counters (:meth:`EngineStats.as_dict`), result-cache counters,
    and server-level counters: queue depth/capacity, batch-size
    histogram, flush reasons, p50/p95/p99 latency.  Behind a sharded
    pool the engine counters are pool-wide, ``cache`` is ``null`` and a
    ``workers`` block lists each worker's counters, its own LRU and its
    ``blas_threads``.

``GET /healthz``
    Liveness: ``{"status": "ok"}`` (``"draining"`` during shutdown;
    ``"degraded"`` while a shard worker is down or restarting).

``GET /topologies``
    The registry, same list as ``python -m repro topologies``.

Threading model: ``ThreadingHTTPServer`` runs one thread per in-flight
HTTP exchange; all sizing work funnels through the batcher's single
dispatcher thread, so the engine itself sees strictly serialized
``size_batch`` calls while ``/stats`` readers take atomic snapshots.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from collections.abc import Callable, Sequence
from typing import Any

from ..service.engine import SizingEngine
from ..service.requests import SizingRequest, SizingResponse
from ..topologies import available_topologies
from .batcher import BatcherClosedError, MicroBatcher, QueueFullError
from .protocol import RequestError, invalid_request_response, parse_request_text
from .stats import ServeStats, aggregate_counter_payloads

__all__ = ["MAX_BODY_BYTES", "READ_TIMEOUT_S", "SizingServer", "create_server"]

#: Largest ``POST /v1/size`` body the server reads (one request is a few
#: hundred bytes); a larger ``Content-Length`` is answered 413 unread.
MAX_BODY_BYTES = 1 << 20

#: Seconds a connection's socket read may wait (a body shorter than its
#: ``Content-Length``, or an idle keep-alive connection) before the
#: handler closes the connection and frees its thread.
READ_TIMEOUT_S = 30.0


class _Handler(BaseHTTPRequestHandler):
    """Per-connection HTTP handler; all state lives on ``self.server``."""

    server: SizingServer
    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"

    def setup(self) -> None:
        # StreamRequestHandler.setup applies ``timeout`` to the socket.
        self.timeout = READ_TIMEOUT_S
        super().setup()

    # ------------------------------------------------------------------
    def _send_json(
        self, status: int, payload: Any, headers: dict[str, str] | None = None
    ) -> None:
        # allow_nan=False: a non-finite value must fail here, loudly, not
        # reach clients as bare Infinity (which is not JSON).
        body = json.dumps(payload, sort_keys=True, allow_nan=False).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if self.server.log is not None:
            self.server.log(f"{self.address_string()} - {format % args}")

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler contract
        if self.path == "/healthz":
            self._send_json(200, self.server.health_payload())
        elif self.path == "/stats":
            self._send_json(200, self.server.stats_payload())
        elif self.path == "/topologies":
            self._send_json(200, {"topologies": list(available_topologies())})
        else:
            self._send_json(404, {"error": f"no such endpoint: {self.path}"})

    def do_POST(self) -> None:  # noqa: N802
        if self.path != "/v1/size":
            self._send_json(404, {"error": f"no such endpoint: {self.path}"})
            return
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length <= 0:
            self.server.serve_stats.record_bad_request()
            self._send_json(
                400, invalid_request_response("empty request body").to_json()
            )
            return
        if length > MAX_BODY_BYTES:
            # An unread body cannot be skipped on a keep-alive socket: close it.
            self.server.serve_stats.record_bad_request()
            message = f"request body of {length} bytes exceeds {MAX_BODY_BYTES}"
            payload = invalid_request_response(message).to_json()
            self._send_json(413, payload, headers={"Connection": "close"})
            return
        body = self.rfile.read(length).decode("utf-8", errors="replace")
        try:
            request, deadline_ms = parse_request_text(body, allow_deadline=True)
        except RequestError as error:
            self.server.serve_stats.record_bad_request()
            self._send_json(400, invalid_request_response(str(error)).to_json())
            return
        self._serve_sizing(request, deadline_ms)

    def _serve_sizing(
        self, request: SizingRequest, deadline_ms: float | None
    ) -> None:
        server = self.server
        try:
            ticket = server.batcher.submit(request, deadline_ms=deadline_ms)
        except QueueFullError as error:
            self._send_json(
                503,
                SizingResponse.failure(f"server overloaded: {error}", request).to_json(),
                headers={"Retry-After": str(server.retry_after_s)},
            )
            return
        except BatcherClosedError:
            self._send_json(
                503,
                SizingResponse.failure("server shutting down", request).to_json(),
                headers={"Retry-After": str(server.retry_after_s)},
            )
            return
        ticket.wait()
        if ticket.expired:
            self._send_json(
                504,
                SizingResponse.failure(
                    f"deadline expired in queue (deadline_ms={deadline_ms:g})", request
                ).to_json(),
            )
        elif ticket.error is not None:
            self._send_json(
                500,
                SizingResponse.failure(f"internal error: {ticket.error}", request).to_json(),
            )
        else:
            assert ticket.response is not None
            self._send_json(200, ticket.response.to_json())


class SizingServer(ThreadingHTTPServer):
    """HTTP front end: one engine, one micro-batcher, many client threads."""

    #: In-flight handler threads must not block interpreter exit; the
    #: graceful-shutdown path resolves their tickets by draining the
    #: batcher, not by joining them.
    daemon_threads = True
    allow_reuse_address = True
    #: TCP listen backlog.  socketserver's default of 5 resets
    #: connections under exactly the concurrent burst micro-batching is
    #: for; backpressure is the bounded queue's job (503), not the
    #: kernel's (ECONNRESET).
    request_queue_size = 128

    def __init__(
        self,
        address: tuple[str, int],
        engine: SizingEngine,
        *,
        max_batch_size: int = 16,
        max_wait_ms: float = 20.0,
        queue_depth: int = 256,
        retry_after_s: int = 1,
        concurrent_batches: int = 1,
        handler: Callable[[list[SizingRequest]], Sequence[SizingResponse]] | None = None,
        log: Callable[[str], None] | None = None,
    ):
        super().__init__(address, _Handler)
        #: ``engine`` is duck-typed: anything with ``size_batch`` /
        #: ``stats`` / ``cache`` serves — notably a
        #: :class:`~repro.shard.ShardedEngine`, whose ``health()`` and
        #: ``workers_payload()`` additionally light up pool status in
        #: ``/healthz`` and ``/stats``.
        self.engine = engine
        self.retry_after_s = retry_after_s
        self.log = log
        self.serve_stats = ServeStats()
        # The batcher's planning logic is engine-free: it only sees this
        # opaque handler, so a sharded pool's ``size_batch`` runs behind
        # the same queueing and deadline machinery.
        self.batcher: MicroBatcher[SizingRequest, SizingResponse] = MicroBatcher(
            handler if handler is not None else engine.size_batch,
            max_batch_size=max_batch_size,
            max_wait_ms=max_wait_ms,
            queue_depth=queue_depth,
            concurrent_batches=concurrent_batches,
            stats=self.serve_stats,
        )

    # ------------------------------------------------------------------
    def health_payload(self) -> dict[str, Any]:
        """The ``GET /healthz`` document, pool-aware for sharded engines.

        ``draining`` during shutdown; otherwise a sharded engine's
        ``health()`` verdict (``degraded`` while any worker is down or
        restarting, with the per-worker states inline) or plain ``ok``.
        """
        if self.batcher.closed:
            return {"status": "draining"}
        health = getattr(self.engine, "health", None)
        if health is not None:
            return health()
        return {"status": "ok"}

    def stats_payload(self) -> dict[str, Any]:
        """The ``GET /stats`` document: engine + cache + server counters.

        For a sharded engine the ``engine`` block is already the
        pool-wide aggregate (summed worker counters); ``workers`` adds
        the per-worker breakdown — batch and restart counts, the
        worker's own LRU counters, its ``blas_threads`` — plus a
        ``total`` row merged with
        :func:`~repro.serve.stats.aggregate_counter_payloads`.
        """
        cache = self.engine.cache
        payload = {
            "engine": self.engine.stats.as_dict(),
            "cache": cache.as_dict() if cache is not None else None,
            "server": self.serve_stats.as_dict(
                queue_depth=self.batcher.queue_depth(),
                queue_capacity=self.batcher.queue_capacity,
            ),
        }
        workers_payload = getattr(self.engine, "workers_payload", None)
        if workers_payload is not None:
            workers = workers_payload()
            summable = ("requests", "batches", "cache_hits", "restarts")
            payload["workers"] = {
                "workers": workers,
                "total": aggregate_counter_payloads(
                    [{key: worker[key] for key in summable} for worker in workers]
                ),
            }
        return payload

    def shutdown_gracefully(self, timeout: float | None = None) -> None:
        """Stop accepting, drain the queue, then close the socket.

        Every already-accepted request still gets its response: the
        batcher flushes pending submissions (reason ``drain``) and the
        blocked handler threads write their answers before the listener
        closes.  Requires ``serve_forever`` to be running in another
        thread (as :func:`create_server` callers do).
        """
        self.shutdown()
        self.batcher.close(timeout=timeout)
        self.server_close()


def create_server(
    engine: SizingEngine,
    host: str = "127.0.0.1",
    port: int = 0,
    **kwargs: Any,
) -> SizingServer:
    """Bind a :class:`SizingServer` (``port=0`` picks an ephemeral port).

    The caller owns the serving loop::

        server = create_server(engine, port=8080, max_wait_ms=10.0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        ...
        server.shutdown_gracefully()
    """
    return SizingServer((host, port), engine, **kwargs)


def serve_forever_in_thread(server: SizingServer) -> threading.Thread:
    """Start ``serve_forever`` on a daemon thread and return it."""
    thread = threading.Thread(
        target=server.serve_forever, name="repro-serve-listener", daemon=True
    )
    thread.start()
    return thread
