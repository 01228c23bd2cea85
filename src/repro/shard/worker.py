"""Worker-process side of the sharded engine.

Each worker is a fresh ``spawn`` interpreter: nothing from the parent —
no ``ThreadingHTTPServer`` socket, no ``MicroBatcher`` queue, no lock in
a half-held state — crosses the boundary except the pickled
``engine_factory`` argument (fork-safety test pins this).  The factory
must therefore be a picklable callable (a module-level function or a
``functools.partial`` over one); :func:`engine_from_bundle` is the
production factory, loading the saved bundle into a
:class:`~repro.service.SizingEngine` with its own in-memory LRU.

Protocol over the duplex pipe (parent → worker / worker → parent):

* ``("ready", pid, blas_threads)`` — sent once after the engine is
  built; ``blas_threads`` is the ``OPENBLAS_NUM_THREADS`` the worker was
  started with (``None`` when unset or not an integer).
* ``("init-error", message, traceback)`` — the factory raised; the
  worker exits and the parent marks it failed.
* ``("size", job_id, requests)`` → ``("result", job_id, responses,
  engine_stats, cache_stats)`` — one batch (responses without their
  in-process ``trace``); the worker piggybacks its
  cumulative :class:`~repro.service.EngineStats` snapshot on every
  result so the parent can aggregate ``/stats`` without extra round
  trips.
* ``("size", ...)`` → ``("job-error", job_id, message, traceback)`` —
  the batch raised (a bug, not a bad request: per-request problems come
  back as error *responses*).
* ``("stop",)`` — clean exit.
"""

from __future__ import annotations

import os
import signal
import traceback
from collections.abc import Callable
from dataclasses import replace
from typing import Any

from ..core.bundle import SizingModel
from ..service.engine import SizingEngine

__all__ = ["engine_from_bundle", "worker_main"]


def engine_from_bundle(bundle_dir: str, cache_size: int = 256) -> SizingEngine:
    """Build a worker engine from a saved bundle (picklable factory)."""
    return SizingEngine(SizingModel.load(bundle_dir), cache_size=cache_size)


def _describe(error: BaseException) -> str:
    return f"{type(error).__name__}: {error}"


def _blas_threads() -> int | None:
    value = os.environ.get("OPENBLAS_NUM_THREADS", "")
    return int(value) if value.isdigit() else None


def worker_main(conn: Any, engine_factory: Callable[[], SizingEngine]) -> None:
    """Entry point of one shard worker process (``spawn`` target)."""
    # A foreground Ctrl-C hits the whole process group; the parent owns
    # worker lifetime via the pipe ("stop") and kill(), so workers must
    # sit out the SIGINT instead of dying mid-drain with a traceback.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        engine = engine_factory()
    except BaseException as error:  # noqa: BLE001 — report, then exit
        try:
            conn.send(("init-error", _describe(error), traceback.format_exc()))
        finally:
            conn.close()
        return
    conn.send(("ready", os.getpid(), _blas_threads()))
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        kind = message[0]
        if kind == "stop":
            break
        if kind != "size":
            conn.send(("job-error", None, f"unknown message kind {kind!r}", ""))
            continue
        job_id, requests = message[1], message[2]
        try:
            # The in-process copilot trace stays here: nothing past the
            # pipe reads it (HTTP writes ``to_json``).
            responses = [replace(r, trace=()) for r in engine.size_batch(requests)]
            cache_stats = engine.cache.as_dict() if engine.cache is not None else None
            conn.send(("result", job_id, responses, engine.stats.as_dict(), cache_stats))
        except BaseException as error:  # noqa: BLE001 — a batch bug must not kill the worker
            conn.send(("job-error", job_id, _describe(error), traceback.format_exc()))
    conn.close()
