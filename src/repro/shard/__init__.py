"""Multiprocess sharded serving: a spawn worker pool behind ``size_batch``.

The single-process engine saturates one core — the stacked kernels are
numpy-bound but parsing, BPE and the serving loop are pure Python under
one GIL.  This package shards ``size_batch`` across spawn-based worker
processes:

* :mod:`repro.shard.worker` — the worker process entry point and the
  picklable engine factory, :func:`engine_from_bundle`, which loads the
  saved model bundle into a :class:`~repro.service.SizingEngine` with
  its own in-memory result LRU;
* :class:`ShardedEngine` — same ``size_batch`` contract as
  :class:`~repro.service.SizingEngine`, plus spec-hash routing (a
  repeated spec returns to the worker that cached it), a per-worker
  BLAS thread cap, worker health, automatic restart, and pool-wide
  stats aggregation.

``python -m repro serve --workers N`` wires it behind the micro-batcher.
"""

from .engine import ShardedEngine
from .worker import engine_from_bundle, worker_main

__all__ = [
    "ShardedEngine",
    "engine_from_bundle",
    "worker_main",
]
