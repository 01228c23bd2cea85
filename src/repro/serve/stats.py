"""Server-level serving counters (queue, batching, latency).

The engine has its own :class:`~repro.service.EngineStats`; this module
tracks what happens *in front of* the engine — how many requests hit the
HTTP layer, how the micro-batcher coalesced them, how long they waited
end to end — so ``GET /stats`` can show where time goes (queueing vs
solving) and whether the dynamic batching is actually forming batches.

All mutation goes through one lock: the recorder is called from the
dispatcher thread and from every HTTP handler thread concurrently, and
``as_dict`` must produce a consistent snapshot for ``/stats``.
"""

from __future__ import annotations

import math
import threading
from collections import Counter, deque
from collections.abc import Sequence
from typing import Any

__all__ = ["ServeStats", "aggregate_counter_payloads"]

#: Flush reasons the micro-batcher reports (see ``MicroBatcher``):
#: ``size`` — the batch reached ``max_batch_size``; ``timeout`` — the
#: ``max_wait_ms`` window closed first; ``drain`` — a graceful shutdown
#: flushed whatever was queued without waiting out the window.
FLUSH_REASONS = ("size", "timeout", "drain")


def _percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an already-sorted non-empty list."""
    rank = max(1, math.ceil(fraction * len(sorted_values)))
    return sorted_values[rank - 1]


def aggregate_counter_payloads(payloads: Sequence[dict[str, Any]]) -> dict[str, Any]:
    """Merge per-worker stats snapshots into one pool-wide payload.

    Sums numeric counters key-wise and merges one level of nested dicts
    (histograms: batch sizes, flush reasons) by summing their numeric
    leaves.  Keys whose values aren't numbers or dicts-of-numbers (pids,
    state strings, paths) are dropped — a sum of pids is noise, not a
    statistic.  Used by ``/stats`` to publish a ``workers.total`` block
    next to the per-worker breakdown, and shared with any client that
    wants to aggregate snapshots the same way the server does.
    """
    totals: dict[str, Any] = {}
    for payload in payloads:
        for key, value in payload.items():
            if isinstance(value, bool):
                continue
            if isinstance(value, (int, float)):
                totals[key] = totals.get(key, 0) + value
            elif isinstance(value, dict):
                bucket = totals.setdefault(key, {})
                for sub_key, sub_value in value.items():
                    if isinstance(sub_value, bool) or not isinstance(
                        sub_value, (int, float)
                    ):
                        continue
                    bucket[sub_key] = bucket.get(sub_key, 0) + sub_value
    return totals


class ServeStats:
    """Thread-safe serving counters for one server instance.

    Latencies are kept in a bounded window (most recent ``latency_window``
    completions), so the p50/p95/p99 shown by ``/stats`` track current
    behavior instead of averaging over the server's whole lifetime.
    """

    def __init__(self, latency_window: int = 2048):
        self._lock = threading.Lock()
        #: Requests accepted into the queue (excludes rejected/bad ones).
        self.received = 0
        #: Requests answered with a sizing response.
        self.served = 0
        #: Requests that failed inside the batch handler (HTTP 500).
        self.failed = 0
        #: Request bodies that failed validation (HTTP 400) or were too large (413).
        self.bad_requests = 0
        #: Requests rejected because the queue was full (HTTP 503).
        self.rejected_queue_full = 0
        #: Requests whose deadline expired before dispatch (HTTP 504).
        self.expired_deadline = 0
        #: Batches handed to the engine (coalescing means batches < served).
        self.batches = 0
        self.batch_size_histogram: Counter[int] = Counter()
        self.flush_reasons: Counter[str] = Counter()
        self._latencies: deque[float] = deque(maxlen=latency_window)

    # ------------------------------------------------------------------
    # Recorders (called by the batcher and the HTTP handlers)
    # ------------------------------------------------------------------
    def record_received(self) -> None:
        with self._lock:
            self.received += 1

    def record_bad_request(self) -> None:
        with self._lock:
            self.bad_requests += 1

    def record_rejected(self) -> None:
        with self._lock:
            self.rejected_queue_full += 1

    def record_expired(self) -> None:
        with self._lock:
            self.expired_deadline += 1

    def record_batch(self, size: int, reason: str) -> None:
        with self._lock:
            self.batches += 1
            self.batch_size_histogram[size] += 1
            self.flush_reasons[reason] += 1

    def record_served(self, latency_s: float) -> None:
        with self._lock:
            self.served += 1
            self._latencies.append(latency_s)

    def record_failed(self, count: int = 1) -> None:
        with self._lock:
            self.failed += count

    # ------------------------------------------------------------------
    # Snapshot
    # ------------------------------------------------------------------
    def latency_ms(self) -> dict[str, Any]:
        """p50/p95/p99/max over the recent-completion window, in ms."""
        with self._lock:
            values = sorted(self._latencies)
        if not values:
            return {"count": 0, "p50": None, "p95": None, "p99": None, "max": None}
        return {
            "count": len(values),
            "p50": _percentile(values, 0.50) * 1e3,
            "p95": _percentile(values, 0.95) * 1e3,
            "p99": _percentile(values, 0.99) * 1e3,
            "max": values[-1] * 1e3,
        }

    def as_dict(
        self,
        queue_depth: int | None = None,
        queue_capacity: int | None = None,
    ) -> dict[str, Any]:
        """One consistent JSON-ready snapshot (the ``server`` stats block)."""
        latency = self.latency_ms()
        with self._lock:
            payload: dict[str, Any] = {
                "received": self.received,
                "served": self.served,
                "failed": self.failed,
                "bad_requests": self.bad_requests,
                "rejected_queue_full": self.rejected_queue_full,
                "expired_deadline": self.expired_deadline,
                "batches": self.batches,
                # JSON object keys are strings; sort for stable output.
                "batch_size_histogram": {
                    str(size): count
                    for size, count in sorted(self.batch_size_histogram.items())
                },
                "flush_reasons": {
                    reason: self.flush_reasons.get(reason, 0) for reason in FLUSH_REASONS
                },
            }
        payload["latency_ms"] = latency
        if queue_depth is not None:
            payload["queue_depth"] = queue_depth
        if queue_capacity is not None:
            payload["queue_capacity"] = queue_capacity
        return payload
