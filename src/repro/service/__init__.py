"""Batched request/response sizing service.

The paper's headline claim is that sizing is cheap at inference time —
one transformer decode plus LUT lookups.  This package turns that into a
serving-shaped API:

* :class:`SizingRequest` / :class:`SizingResponse` — serializable units
  of work with stable JSON schemas and per-request ids; a copilot
  response also carries its rounds' :class:`IterationTrace` entries
  in-process (``SizingResponse.trace``, never on the wire);
* :class:`SizingEngine` — owns one trained :class:`~repro.core.SizingModel`,
  groups requests by topology, runs *batched* greedy decoding, applies
  Stage III width estimation and Stage IV verification per request, and
  memoizes results in an LRU cache keyed by quantized specification;
* ``python -m repro size`` — JSONL in, JSONL out, on top of the engine.

``SizingEngine.size_batch`` is the one place the copilot runs, for
library callers too (``run_sizing_study``, Table IX, scripts).

Requests may name any registered solver (``method="sa"``/``"pso"``/
``"de"``, see :mod:`repro.solvers`, a layer below this one); the engine
dispatches them through the unified solver API and returns the same
response schema, so the copilot and the SPICE-in-the-loop baselines are
served by one endpoint.
A request resolves its corner axis and analyses once, at construction;
the copilot rounds and the solvers hand both to
:meth:`~repro.solvers.EvalBackend.measure_sweeps` unchanged, with the
spec each candidate is judged against (it gates the transient).
"""

from .cache import ResultCache
from .engine import EngineStats, SizingEngine
from .requests import IterationTrace, SizingRequest, SizingResponse

__all__ = [
    "EngineStats",
    "IterationTrace",
    "ResultCache",
    "SizingEngine",
    "SizingRequest",
    "SizingResponse",
]
