"""LRU result cache keyed by (topology, quantized spec).

The encoder serializes specifications to ~3 significant digits, so two
specs that agree after the same quantization produce the *identical*
encoder sequence and therefore the identical decode.  The Stage IV
verdict, however, is judged against the request's *exact* targets, so a
cached response only transfers to a near-duplicate request when it can
be re-validated: either the specs match exactly (deterministic flow ⇒
identical outcome), or the cached design's measured metrics provably
satisfy the new request's own targets.  Anything else is a miss.

The cache is safe under concurrent ``size_batch`` callers: every LRU
mutation (the ``move_to_end`` on hit, inserts, evictions) and the
hit/miss counters run under one internal lock, so the serving layer's
worker threads and its ``/stats`` reader can share one engine.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import replace
from collections.abc import Hashable
from typing import Any

from ..core.specs import DesignSpec
from .requests import SizingRequest, SizingResponse

__all__ = ["ResultCache", "quantize_spec"]


def quantize_spec(value: float, sig_digits: int = 3) -> float:
    """Round to ``sig_digits`` significant digits (the encoder's own
    resolution, see :mod:`repro.nlp.numformat`).

    Non-finite inputs are rejected loudly: an ``inf``/``nan`` spec value
    would otherwise propagate into a cache key (``inf`` survives ``%g``
    formatting, and ``nan != nan`` makes the key unmatchable), poisoning
    lookups instead of failing at the bad request.
    """
    if not math.isfinite(value):
        raise ValueError(
            f"cannot quantize non-finite spec value {value!r}: "
            "cache keys require finite targets"
        )
    return float(f"{value:.{sig_digits}g}")


class ResultCache:
    """Bounded LRU mapping quantized requests to finished responses."""

    def __init__(self, maxsize: int = 256):
        if maxsize < 1:
            raise ValueError("maxsize must be positive; use no cache instead of size 0")
        self.maxsize = maxsize
        self._entries: OrderedDict[Hashable, tuple[DesignSpec, SizingResponse]] = OrderedDict()
        self.hits = 0
        self.misses = 0
        # Serializes LRU mutation and counter updates across threads
        # (reentrant: ``get`` holds it across the ``_transferable`` probe).
        self._lock = threading.RLock()

    @staticmethod
    def key(request: SizingRequest) -> Hashable:
        """Cache key: topology + quantized targets + loop parameters.

        ``method`` and ``budget`` are part of the key for safety, although
        the engine only consults the cache for deterministic copilot
        requests (stochastic solver results must not be replayed).  The
        resolved ``corners`` tuple is part of the key too: a worst-case
        verdict at one corner set says nothing about another, so requests
        differing only in corners must never collide (pinned by tests).
        So are the quantized transient targets (``None`` when unset) and
        the ``analyses`` selector: a verdict judged against different
        time-domain targets -- or measured by a different pipeline --
        must never transfer.
        """
        return (
            request.topology,
            quantize_spec(request.spec.gain_db),
            quantize_spec(request.spec.f3db_hz),
            quantize_spec(request.spec.ugf_hz),
            tuple(
                None if value is None else quantize_spec(value)
                for value in (
                    request.spec.slew_v_per_s,
                    request.spec.settling_time_s,
                    request.spec.overshoot_frac,
                )
            ),
            request.analyses,
            request.max_iterations,
            request.rel_tol,
            request.method,
            request.budget,
            request.corners,
        )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, request: SizingRequest) -> bool:
        with self._lock:
            return self._transferable(request) is not None

    def _transferable(self, request: SizingRequest) -> SizingResponse | None:
        """The cached response if its verdict carries over to ``request``.

        An exact-spec match replays outright (the flow is deterministic),
        and a near-duplicate only transfers when the cached design's
        *measured* metrics satisfy the new request's exact targets -- at
        every corner, with the binding corner re-ranked against the new
        targets.
        """
        entry = self._entries.get(self.key(request))
        if entry is None:
            return None
        cached_spec, response = entry
        if cached_spec == request.spec:
            return response
        if not response.success or response.metrics is None:
            return None
        derated = request.spec.derated(request.rel_tol)
        if not response.corner_metrics:
            return response if derated.satisfied(response.metrics) else None
        # The headline ``metrics`` is only the binding worst corner by
        # total shortfall, which does not dominate per metric, so every
        # corner is re-validated.
        if not all(derated.satisfied(m) for m in response.corner_metrics.values()):
            return None
        # The binding corner is spec-dependent: re-rank the per-corner
        # measurements against this request's exact targets.
        worst_name, worst_metrics = request.spec.binding_corner(response.corner_metrics)
        return replace(response, worst_corner=worst_name, metrics=worst_metrics)

    def get(self, request: SizingRequest) -> SizingResponse | None:
        """The cached response re-addressed to ``request``, or ``None``."""
        with self._lock:
            response = self._transferable(request)
            if response is None:
                self.misses += 1
                return None
            self.hits += 1
            self._entries.move_to_end(self.key(request))
            return response.with_request_id(request.id, cached=True)

    def put(self, request: SizingRequest, response: SizingResponse) -> None:
        with self._lock:
            key = self.key(request)
            self._entries[key] = (request.spec, response)
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def as_dict(self) -> dict[str, Any]:
        """Atomic counters snapshot for the serving layer's ``/stats``."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "size": len(self._entries),
                "maxsize": self.maxsize,
            }
