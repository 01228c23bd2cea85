"""Parent-process side: :class:`ShardedEngine` over a spawn worker pool.

``ShardedEngine`` presents the same ``size_batch`` contract as
:class:`~repro.service.SizingEngine` — order-preserving, one response
per request, errors as responses rather than exceptions — but executes
request groups on N worker processes, so netlist parsing, BPE
encode/decode and the serving loop's pure-Python work escape the single
GIL.  :meth:`ShardedEngine.from_bundle` is the production pool: every
worker loads the saved bundle and keeps its own in-memory result LRU.

Design points:

* **Spawn only.**  Workers are created from the ``spawn`` context, never
  ``fork``: a forked worker would inherit the parent's HTTP listener
  socket, batcher queue and half-held locks (the fork-safety rule and a
  runtime test pin this).
* **One IO thread per worker.**  All pipe traffic for worker
  *i* happens on its dedicated IO thread, which consumes jobs from a
  per-worker inbox queue.  Blocking ``recv`` therefore never happens
  under a lock (the project-wide ``lock-order`` rule rejects that), and
  each worker's connection has exactly one user.  Worker-handle state
  (``state``, ``restarts``, stats snapshots) has a single writer — the
  IO thread — and is read without locks elsewhere.
* **Crash containment.**  A worker that dies mid-batch fails only its
  own slice: the IO thread detects the broken pipe, retires the worker
  (stats roll into a retired accumulator), and respawns it.  The failed
  slice is retried per-request on a healthy worker; a request that
  crashes a worker twice comes back as an error *response*, never an
  exception, and never poisons its batch neighbors.  A worker whose
  process cannot be started at all is marked ``failed`` the same way,
  and its slices retry on a healthy worker.
* **Spec routing.**  A request goes to the worker picked by a hash of
  its quantized :meth:`~repro.service.ResultCache.key`, so repeats and
  near-duplicates land on the worker whose own LRU cached them, and
  in-batch duplicates reach one engine, which coalesces them.
* **One BLAS thread budget.**  Each worker starts with
  ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS``
  set to the usable cores divided by the pool size (at least 1), unless
  the operator set them: N workers at the BLAS default would each start
  one thread per core and oversubscribe the host.  The variables are
  in the environment the worker is spawned with, because the child
  imports numpy while it unpickles its target, and the parent's own
  environment is restored after each start.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import threading
import time
import zlib
from dataclasses import fields
from functools import partial
from pathlib import Path
from collections.abc import Callable, Sequence
from typing import Any

from ..service.cache import ResultCache
from ..service.engine import EngineStats, SizingEngine
from ..service.requests import SizingRequest, SizingResponse
from .worker import engine_from_bundle, worker_main

__all__ = ["ShardedEngine"]

#: Sentinel closing a worker's inbox.
_STOP = object()

#: Thread-count variables of the BLAS builds numpy ships with or links.
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: ``os.environ`` is process-wide and IO threads (of every pool in the
#: process) start workers concurrently, so each set-start-restore holds
#: this lock.  ``process.start()`` returns once the child is launched;
#: the wait for its ``ready`` message happens after the lock is released.
_ENV_LOCK = threading.Lock()


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


class _Job:
    """One slice of a batch in flight to a worker."""

    __slots__ = ("requests", "indices", "attempt", "responses", "error", "crashed", "_done")

    def __init__(self, requests: list[SizingRequest], indices: list[int], attempt: int):
        self.requests = requests
        self.indices = indices
        self.attempt = attempt
        self.responses: list[SizingResponse] | None = None
        self.error: str | None = None
        self.crashed = False
        self._done = threading.Event()

    def finish(self) -> None:
        self._done.set()

    def wait(self) -> None:
        self._done.wait()


class _WorkerHandle:
    """Parent-side bookkeeping for one worker (single writer: its IO thread)."""

    __slots__ = (
        "index", "process", "conn", "inbox", "thread", "state", "pid",
        "restarts", "init_error", "latest_stats", "retired_stats", "latest_cache",
        "blas_threads",
    )

    def __init__(self, index: int):
        self.index = index
        self.process: multiprocessing.process.BaseProcess | None = None
        self.conn: Any = None
        self.inbox: queue.Queue = queue.Queue()
        self.thread: threading.Thread | None = None
        #: ``starting`` → ``healthy`` ⇄ ``restarting`` → ``failed``.
        self.state = "starting"
        self.pid: int | None = None
        self.restarts = 0
        self.init_error: str | None = None
        self.latest_stats: dict[str, float] = {}
        self.retired_stats: dict[str, float] = {}
        self.latest_cache: dict[str, Any] | None = None
        self.blas_threads: int | None = None

    def stat(self, name: str) -> float:
        return self.retired_stats.get(name, 0) + self.latest_stats.get(name, 0)


class ShardedEngine:
    """Multiprocess drop-in for ``SizingEngine.size_batch``."""

    #: Idle poll interval of each worker IO thread; bounds how fast a
    #: crash of an *idle* worker is noticed and restarted.
    _POLL_S = 0.2

    #: The pool has no cache of its own: each worker keeps its LRU, and
    #: :meth:`workers_payload` reports them.
    cache = None

    def __init__(
        self,
        engine_factory: Callable[[], SizingEngine],
        workers: int = 2,
        *,
        max_restarts: int = 3,
        startup_timeout_s: float = 120.0,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self._engine_factory = engine_factory
        self.max_restarts = max_restarts
        self._ctx = multiprocessing.get_context("spawn")
        self._blas_threads = max(1, _usable_cores() // workers)
        self._closing = False
        self._handles = [_WorkerHandle(index) for index in range(workers)]
        for handle in self._handles:
            thread = threading.Thread(
                target=self._io_loop,
                args=(handle,),
                name=f"repro-shard-io-{handle.index}",
                daemon=True,
            )
            handle.thread = thread
            thread.start()
        self._wait_for_startup(startup_timeout_s)

    @classmethod
    def from_bundle(
        cls,
        bundle_dir: str | Path,
        workers: int = 2,
        *,
        cache_size: int = 256,
        **kwargs: Any,
    ) -> ShardedEngine:
        """Pool whose workers each load the saved bundle at ``bundle_dir``."""
        factory = partial(engine_from_bundle, str(bundle_dir), cache_size=cache_size)
        return cls(factory, workers, **kwargs)

    # ------------------------------------------------------------------
    # Worker lifecycle (IO threads only)
    # ------------------------------------------------------------------
    def _start_worker(self, handle: _WorkerHandle) -> None:
        conns = ()
        try:
            conns = parent_conn, child_conn = self._ctx.Pipe()
            process = self._ctx.Process(
                target=worker_main,
                args=(child_conn, self._engine_factory),
                name=f"repro-shard-worker-{handle.index}",
                daemon=True,
            )
            with _ENV_LOCK:
                added = [name for name in _BLAS_ENV if name not in os.environ]
                for name in added:
                    os.environ[name] = str(self._blas_threads)
                try:
                    process.start()
                finally:
                    for name in added:
                        del os.environ[name]
        except Exception as error:  # noqa: BLE001 — the IO thread must survive
            # No pipe or process: fail the worker so its jobs retry on a healthy one.
            for conn in conns:
                conn.close()
            handle.init_error = f"worker process did not start: {type(error).__name__}: {error}"
            handle.state = "failed"
            return
        child_conn.close()
        try:
            message = parent_conn.recv()
        except (EOFError, OSError):
            message = None
        if message is not None and message[0] == "ready":
            handle.process = process
            handle.conn = parent_conn
            handle.pid = message[1]
            handle.blas_threads = message[2]
            handle.state = "healthy"
            return
        handle.init_error = (
            message[1] if message is not None and message[0] == "init-error"
            else "worker process died during startup"
        )
        handle.state = "failed"
        parent_conn.close()
        process.join(timeout=5.0)

    def _retire(self, handle: _WorkerHandle) -> None:
        """Roll a dead worker's stats into the accumulator and respawn it."""
        for name, value in handle.latest_stats.items():
            handle.retired_stats[name] = handle.retired_stats.get(name, 0) + value
        handle.latest_stats = {}
        if handle.conn is not None:
            handle.conn.close()
            handle.conn = None
        if handle.process is not None:
            handle.process.join(timeout=5.0)
            handle.process = None
        handle.pid = None
        handle.restarts += 1
        handle.state = "failed" if handle.restarts > self.max_restarts else "restarting"

    def _stop_worker(self, handle: _WorkerHandle) -> None:
        if handle.conn is not None:
            try:
                handle.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
            handle.conn.close()
            handle.conn = None
        if handle.process is not None:
            handle.process.join(timeout=5.0)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=5.0)
            handle.process = None

    def _io_loop(self, handle: _WorkerHandle) -> None:
        while True:
            if handle.state in ("starting", "restarting") and not self._closing:
                self._start_worker(handle)
            try:
                job = handle.inbox.get(timeout=self._POLL_S)
            except queue.Empty:
                if self._closing:
                    break
                if handle.state == "healthy" and not handle.process.is_alive():
                    # Passive liveness: an idle crash flips /healthz to
                    # degraded here, and the next loop iteration respawns.
                    self._retire(handle)
                continue
            if job is _STOP:
                break
            if handle.state == "failed":
                job.crashed = True
                job.error = handle.init_error
                job.finish()
                continue
            self._run_job(handle, job)
        self._stop_worker(handle)

    def _run_job(self, handle: _WorkerHandle, job: _Job) -> None:
        try:
            handle.conn.send(("size", id(job), job.requests))
            while True:
                message = handle.conn.recv()
                kind = message[0]
                if kind == "result" and message[1] == id(job):
                    job.responses = message[2]
                    handle.latest_stats = message[3]
                    handle.latest_cache = message[4]
                    break
                if kind == "job-error" and message[1] == id(job):
                    job.error = message[2]
                    break
        except (EOFError, OSError):
            job.crashed = True
            self._retire(handle)
        job.finish()

    def _wait_for_startup(self, timeout_s: float) -> None:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            states = {handle.state for handle in self._handles}
            if states <= {"healthy", "failed"}:
                break
            time.sleep(0.02)
        failed = [handle for handle in self._handles if handle.state == "failed"]
        if len(failed) == len(self._handles):
            errors = "; ".join(str(handle.init_error) for handle in failed)
            raise RuntimeError(f"all {len(failed)} shard workers failed to start: {errors}")

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _route(self, request: SizingRequest) -> int:
        n = len(self._handles)
        if n == 1:
            return 0
        return zlib.crc32(repr(ResultCache.key(request)).encode()) % n

    def _fallback_worker(self, exclude: int) -> int:
        for handle in self._handles:
            if handle.index != exclude and handle.state == "healthy":
                return handle.index
        return exclude

    # ------------------------------------------------------------------
    # The SizingEngine contract
    # ------------------------------------------------------------------
    def size_batch(self, requests: Sequence[SizingRequest]) -> list[SizingResponse]:
        """Dispatch a batch across the pool; order is preserved.

        Thread-safe: concurrent callers (the batcher's pipelined
        dispatches) only touch per-worker inbox queues and their own
        jobs' events.
        """
        if self._closing:
            raise RuntimeError("ShardedEngine is closed")
        responses: list[SizingResponse | None] = [None] * len(requests)
        slices: dict[int, tuple[list[SizingRequest], list[int]]] = {}
        for index, request in enumerate(requests):
            worker = self._route(request)
            reqs, idxs = slices.setdefault(worker, ([], []))
            reqs.append(request)
            idxs.append(index)
        pending: list[_Job] = []
        for worker, (reqs, idxs) in slices.items():
            job = _Job(reqs, idxs, attempt=0)
            self._handles[worker].inbox.put(job)
            pending.append(job)
        while pending:
            job = pending.pop()
            job.wait()
            if job.responses is not None:
                for index, response in zip(job.indices, job.responses, strict=True):
                    responses[index] = response
            elif not job.crashed:
                for index, request in zip(job.indices, job.requests, strict=True):
                    responses[index] = SizingResponse.failure(
                        f"worker error: {job.error}", request
                    )
            elif len(job.requests) > 1:
                # A crashed multi-request slice is retried per-request so
                # one poison request cannot fail its neighbors.
                for index, request in zip(job.indices, job.requests, strict=True):
                    retry = _Job([request], [index], attempt=job.attempt + 1)
                    target = self._fallback_worker(exclude=self._route(request))
                    self._handles[target].inbox.put(retry)
                    pending.append(retry)
            elif job.attempt == 0:
                retry = _Job(job.requests, job.indices, attempt=1)
                target = self._fallback_worker(exclude=self._route(job.requests[0]))
                self._handles[target].inbox.put(retry)
                pending.append(retry)
            else:
                message = (
                    "worker crashed while processing this request"
                    if job.error is None
                    else f"worker unavailable: {job.error}"
                )
                responses[job.indices[0]] = SizingResponse.failure(message, job.requests[0])
        assert all(response is not None for response in responses)
        return responses  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Introspection (``/stats`` and ``/healthz``)
    # ------------------------------------------------------------------
    @property
    def stats(self) -> EngineStats:
        """Pool-wide :class:`EngineStats`: retired + live worker counters."""
        totals: dict[str, float] = {}
        for field in fields(EngineStats):
            total = sum(handle.stat(field.name) for handle in self._handles)
            # Counters stay ints; only the timers are floats.
            totals[field.name] = type(field.default)(total)
        return EngineStats(**totals)

    def health(self) -> dict[str, Any]:
        """Pool liveness: ``ok`` only when every worker is healthy."""
        workers = [
            {
                "index": handle.index,
                "pid": handle.pid,
                "state": handle.state,
                "restarts": handle.restarts,
            }
            for handle in self._handles
        ]
        status = (
            "ok"
            if all(worker["state"] == "healthy" for worker in workers)
            else "degraded"
        )
        return {"status": status, "workers": workers}

    def workers_payload(self) -> list[dict[str, Any]]:
        """Per-worker block of the ``/stats`` document."""
        return [
            {
                "index": handle.index,
                "pid": handle.pid,
                "state": handle.state,
                "restarts": handle.restarts,
                "batches": int(handle.stat("batches")),
                "requests": int(handle.stat("requests")),
                "cache_hits": int(handle.stat("cache_hits")),
                "cache": handle.latest_cache,
                "blas_threads": handle.blas_threads,
            }
            for handle in self._handles
        ]

    # ------------------------------------------------------------------
    def close(self, timeout: float | None = 10.0) -> None:
        """Stop IO threads and terminate every worker process."""
        if self._closing:
            return
        self._closing = True
        for handle in self._handles:
            handle.inbox.put(_STOP)
        for handle in self._handles:
            if handle.thread is not None:
                handle.thread.join(timeout)

    def __enter__(self) -> ShardedEngine:
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
