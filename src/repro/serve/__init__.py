"""HTTP serving layer with dynamic micro-batching, backpressure, deadlines.

The engine is batched end to end, but library calls and the JSONL CLI
only benefit callers who already arrive in batches.  This package puts a
real service in front of :class:`~repro.service.SizingEngine`:

* :class:`MicroBatcher` — coalesces concurrent single requests into one
  ``size_batch`` call (flush on ``max_batch_size`` or ``max_wait_ms``),
  sheds expired work at dequeue time, and pushes back with a bounded
  queue.  Engine-free planning logic: the batch handler is opaque.
* :class:`SizingServer` / :func:`create_server` — stdlib
  ``ThreadingHTTPServer`` exposing ``POST /v1/size``, ``GET /stats``,
  ``GET /healthz`` and ``GET /topologies``.
* :mod:`repro.serve.protocol` — request validation and structured error
  payloads shared with the JSONL CLI, so both transports speak one
  schema.

``python -m repro serve --bundle ...`` runs it from the command line.
"""

from .app import SizingServer, create_server, serve_forever_in_thread
from .batcher import BatcherClosedError, MicroBatcher, QueueFullError, Ticket
from .protocol import RequestError, invalid_request_response
from .stats import ServeStats, aggregate_counter_payloads

__all__ = [
    "BatcherClosedError",
    "MicroBatcher",
    "QueueFullError",
    "RequestError",
    "ServeStats",
    "SizingServer",
    "Ticket",
    "aggregate_counter_payloads",
    "create_server",
    "invalid_request_response",
    "serve_forever_in_thread",
]
