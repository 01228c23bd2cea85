"""Dynamic micro-batching: coalesce concurrent requests into one batch.

The engine's ``size_batch`` is fast *per batch* — fused decode, stacked
Stage IV solves — but that only helps callers who already arrive in
batches.  The :class:`MicroBatcher` creates batches out of concurrent
*independent* requests, the same idea that powers model-serving stacks:

* callers ``submit()`` one request each and block on the returned
  :class:`Ticket`;
* a single dispatcher thread collects submissions into a batch, flushing
  when the batch reaches ``max_batch_size`` or when ``max_wait_ms`` has
  elapsed since the batch's *first* request arrived, whichever first;
* the whole batch goes through one ``handler(requests) -> responses``
  call, and every ticket resolves with its aligned response.

Backpressure is a bounded queue: when ``queue_depth`` submissions are
already waiting, ``submit`` raises :class:`QueueFullError` immediately
instead of letting latency grow without bound (the HTTP layer maps this
to 503 + ``Retry-After``).  Per-request deadlines are honored **at
dequeue time**: a request whose deadline passed while it sat in the
queue is resolved as expired without ever reaching the handler, so an
overloaded server sheds exactly the work whose answer nobody is waiting
for anymore (the HTTP layer maps this to 504).

The batcher holds *no engine state* — the handler is an opaque callable
and requests are opaque payloads.  The same planning logic (when to
flush, what to shed) therefore fronts the single-process engine and the
multiprocess shard pool alike; for the pool, ``concurrent_batches``
keeps one batch in flight per worker.
"""

from __future__ import annotations

import queue
import threading
import time
from collections.abc import Callable, Sequence
from typing import Generic, TypeVar

from .stats import ServeStats

__all__ = ["MicroBatcher", "Ticket", "QueueFullError", "BatcherClosedError"]

RequestT = TypeVar("RequestT")
ResponseT = TypeVar("ResponseT")


class QueueFullError(RuntimeError):
    """The bounded submission queue is at capacity (backpressure)."""


class BatcherClosedError(RuntimeError):
    """The batcher is shutting down and no longer accepts submissions."""


class Ticket(Generic[RequestT, ResponseT]):
    """One submission's future: wait on it for the aligned response.

    Exactly one of the terminal states holds after :meth:`wait` returns
    ``True``: ``response`` is set (served), ``expired`` is ``True`` (the
    deadline passed in the queue), or ``error`` is set (the batch
    handler raised).
    """

    __slots__ = ("request", "deadline", "enqueued_at", "response", "expired", "error", "_done")

    def __init__(self, request: RequestT, deadline: float | None, enqueued_at: float):
        self.request = request
        #: Absolute ``time.monotonic()`` deadline, or ``None``.
        self.deadline = deadline
        self.enqueued_at = enqueued_at
        self.response: ResponseT | None = None
        self.expired = False
        self.error: str | None = None
        self._done = threading.Event()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the ticket resolves; ``False`` on wait timeout."""
        return self._done.wait(timeout)

    def _resolve(self) -> None:
        self._done.set()


class MicroBatcher(Generic[RequestT, ResponseT]):
    """Single-dispatcher micro-batching queue over an opaque batch handler."""

    #: Idle poll interval of the dispatcher loop (also bounds how long a
    #: graceful close waits between "queue empty" checks).
    _IDLE_POLL_S = 0.05

    def __init__(
        self,
        handler: Callable[[list[RequestT]], Sequence[ResponseT]],
        *,
        max_batch_size: int = 16,
        max_wait_ms: float = 20.0,
        queue_depth: int = 256,
        concurrent_batches: int = 1,
        stats: ServeStats | None = None,
        name: str = "repro-serve-dispatcher",
    ):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be non-negative")
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if concurrent_batches < 1:
            raise ValueError("concurrent_batches must be >= 1")
        self._handler = handler
        self.max_batch_size = max_batch_size
        self.max_wait_s = max_wait_ms / 1e3
        #: With the default of 1, the dispatcher runs each batch inline —
        #: the engine sees strictly serialized ``size_batch`` calls.
        #: Above 1 (the sharded pool: one slot per worker), the
        #: dispatcher keeps gathering while up to this many batches run
        #: on short-lived dispatch threads, so batch *k+1* forms while
        #: batch *k* executes and the worker pool stays busy.
        self.concurrent_batches = concurrent_batches
        self.stats = stats if stats is not None else ServeStats()
        self._queue: queue.Queue[Ticket[RequestT, ResponseT]] = queue.Queue(maxsize=queue_depth)
        self._closing = threading.Event()
        self._slots = threading.Semaphore(concurrent_batches)
        self._inflight: set[threading.Thread] = set()
        # Guards ``_inflight`` (dispatcher thread adds, dispatch threads
        # discard themselves).
        self._lock = threading.Lock()
        self._thread = threading.Thread(target=self._loop, name=name, daemon=True)
        self._thread.start()

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    @property
    def queue_capacity(self) -> int:
        return self._queue.maxsize

    def queue_depth(self) -> int:
        """Submissions currently waiting for dispatch (approximate)."""
        return self._queue.qsize()

    @property
    def closed(self) -> bool:
        return self._closing.is_set()

    def submit(
        self, request: RequestT, deadline_ms: float | None = None
    ) -> Ticket[RequestT, ResponseT]:
        """Enqueue one request; returns the ticket to wait on.

        Raises :class:`QueueFullError` when the bounded queue is at
        capacity and :class:`BatcherClosedError` during shutdown — both
        *before* the request consumes any engine work.
        """
        if self._closing.is_set():
            raise BatcherClosedError("batcher is shutting down")
        now = time.monotonic()
        deadline = None if deadline_ms is None else now + deadline_ms / 1e3
        ticket: Ticket[RequestT, ResponseT] = Ticket(request, deadline, now)
        try:
            self._queue.put_nowait(ticket)
        except queue.Full:
            self.stats.record_rejected()
            raise QueueFullError(
                f"queue full ({self._queue.maxsize} requests already waiting)"
            ) from None
        self.stats.record_received()
        return ticket

    def close(self, timeout: float | None = None) -> None:
        """Graceful shutdown: reject new work, drain what is queued.

        Blocks until the dispatcher has flushed every pending submission
        (already-enqueued tickets still resolve — their batches flush
        immediately with reason ``drain`` instead of waiting out the
        batching window) and exited, or until ``timeout``.
        """
        self._closing.set()
        self._thread.join(timeout)

    # ------------------------------------------------------------------
    # Dispatcher side (single thread)
    # ------------------------------------------------------------------
    def _loop(self) -> None:
        while True:
            try:
                first = self._queue.get(timeout=self._IDLE_POLL_S)
            except queue.Empty:
                if self._closing.is_set():
                    self._join_inflight()
                    return
                continue
            batch = [first]
            reason = self._gather(batch)
            if self.concurrent_batches == 1:
                self._dispatch(batch, reason)
            else:
                self._slots.acquire()
                thread = threading.Thread(
                    target=self._dispatch_concurrent,
                    args=(batch, reason),
                    name=f"{self._thread.name}-batch",
                    daemon=True,
                )
                with self._lock:
                    self._inflight.add(thread)
                thread.start()

    def _dispatch_concurrent(
        self, batch: list[Ticket[RequestT, ResponseT]], reason: str
    ) -> None:
        try:
            self._dispatch(batch, reason)
        finally:
            self._slots.release()
            with self._lock:
                self._inflight.discard(threading.current_thread())

    def _join_inflight(self) -> None:
        """Drain: wait for concurrently dispatched batches to resolve."""
        with self._lock:
            inflight = list(self._inflight)
        for thread in inflight:
            thread.join()

    def _gather(self, batch: list[Ticket[RequestT, ResponseT]]) -> str:
        """Grow the batch until a flush condition holds; returns the reason."""
        flush_at = time.monotonic() + self.max_wait_s
        while len(batch) < self.max_batch_size:
            if self._closing.is_set():
                # Draining: take whatever is already queued, don't wait.
                try:
                    batch.append(self._queue.get_nowait())
                    continue
                except queue.Empty:
                    return "drain"
            remaining = flush_at - time.monotonic()
            if remaining <= 0:
                return "timeout"
            try:
                batch.append(self._queue.get(timeout=remaining))
            except queue.Empty:
                return "timeout"
        return "size"

    def _dispatch(self, batch: list[Ticket[RequestT, ResponseT]], reason: str) -> None:
        # Deadlines are judged here, at dequeue time: an expired request
        # resolves as 504 without burning a solver run.
        now = time.monotonic()
        live: list[Ticket[RequestT, ResponseT]] = []
        for ticket in batch:
            if ticket.deadline is not None and now > ticket.deadline:
                ticket.expired = True
                self.stats.record_expired()
                ticket._resolve()
            else:
                live.append(ticket)
        if not live:
            return
        self.stats.record_batch(len(live), reason)
        try:
            responses = self._handler([ticket.request for ticket in live])
            if len(responses) != len(live):
                raise RuntimeError(
                    f"batch handler returned {len(responses)} responses "
                    f"for {len(live)} requests"
                )
        except Exception as error:  # noqa: BLE001 — one bad batch must not kill serving
            self.stats.record_failed(len(live))
            message = f"{type(error).__name__}: {error}"
            for ticket in live:
                ticket.error = message
                ticket._resolve()
            return
        done = time.monotonic()
        for ticket, response in zip(live, responses, strict=True):
            ticket.response = response
            self.stats.record_served(done - ticket.enqueued_at)
            ticket._resolve()
