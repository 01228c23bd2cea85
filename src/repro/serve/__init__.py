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
  ``GET /healthz`` and ``GET /topologies``.  A body, less its transport
  key ``deadline_ms``, is parsed by the CLI's parser,
  :meth:`~repro.service.SizingRequest.from_json`.

``python -m repro serve --bundle ...`` runs it from the command line.
"""

from .app import SizingServer, create_server, serve_forever_in_thread
from .batcher import BatcherClosedError, MicroBatcher, QueueFullError, Ticket
from .stats import ServeStats

__all__ = [
    "BatcherClosedError",
    "MicroBatcher",
    "QueueFullError",
    "ServeStats",
    "SizingServer",
    "Ticket",
    "create_server",
    "serve_forever_in_thread",
]
