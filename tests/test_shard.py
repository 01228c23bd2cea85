"""Tests of the multiprocess sharded engine and its shared substrate.

Three contracts from the sharding tentpole are pinned here:

* **Zero-copy artifact** — a model exported to the mmap artifact and
  loaded back predicts bit-identically, its weight arrays and LUT grids
  are read-only views over one memory-mapped file (``/proc/<pid>/maps``
  shows the file in every worker), and a format-version mismatch fails
  loudly instead of mis-slicing.
* **Cross-process result cache** — the sqlite-backed store applies the
  same transfer rule as the in-process LRU, keeps hit/miss accounting in
  the database (exact across the pool), serves a spec computed in one
  process to another bit-identically, and is last-writer-wins when two
  writers race on a key (the benign double-compute window).
* **Crash containment** — a request that kills its worker mid-batch
  fails alone: neighbors come back bit-identical to a single-process
  run, the worker restarts (``/healthz`` goes degraded → healthy), and
  spawn-start means no worker ever inherits the parent's HTTP listener
  socket (pinned against ``/proc/<pid>/fd``).

Worker factories used here are module-level (spawn pickles them by
qualified name into the fresh child interpreter).
"""

from __future__ import annotations

import http.client
import json
import mmap
import multiprocessing
import os
import signal
import sys
import time
from dataclasses import fields
from functools import partial

import numpy as np
import pytest

from repro.core import PipelineConfig, train_sizing_model
from repro.serve import create_server, serve_forever_in_thread
from repro.service import SharedResultCache, SizingEngine, SizingRequest, SizingResponse
from repro.shard import ShardedEngine, SharedArtifact, engine_from_artifact, load_shared_model
from repro.spice import PerformanceMetrics

TINY_SHARD = PipelineConfig(
    designs_per_topology=(("5T-OTA", 25),),
    epochs=2,
    d_model=32,
    n_heads=4,
    d_ff=48,
    dropout=0.0,
    num_merges=150,
    encoder_max_paths=1,
    learning_rate=1e-3,
    batch_size=8,
    dtype="float32",
    seed=5,
)

LINUX_ONLY = pytest.mark.skipif(sys.platform != "linux", reason="needs /proc")


@pytest.fixture(scope="module")
def artifacts():
    return train_sizing_model(TINY_SHARD)


@pytest.fixture(scope="module")
def artifact_dir(tmp_path_factory, artifacts):
    directory = tmp_path_factory.mktemp("shared_artifact")
    artifacts.model.export_shared_artifact(directory)
    return directory


@pytest.fixture(scope="module")
def reference_engine(artifact_dir):
    """Single-process engine over the same artifact (no cache: every
    response is a fresh computation to compare the pool against)."""
    return SizingEngine(load_shared_model(artifact_dir), cache_size=0)


@pytest.fixture(scope="module")
def pool(artifact_dir, tmp_path_factory):
    """The happy-path pool: two spawn workers, shared sqlite cache,
    round-robin routing (so repeated specs must cross workers)."""
    engine = ShardedEngine.from_artifact(
        artifact_dir,
        workers=2,
        cache_dir=tmp_path_factory.mktemp("shard_cache"),
        shard_by="round-robin",
    )
    yield engine
    engine.close()


def _requests_from(records, count, prefix):
    return [
        SizingRequest.for_spec(
            "5T-OTA",
            record.gain_db,
            record.f3db_hz,
            record.ugf_hz,
            id=f"{prefix}{i}",
            max_iterations=2,
        )
        for i, record in enumerate(records[:count])
    ]


def _comparable(response_json):
    """Response payload minus the fields that legitimately differ between
    a fresh run and a pooled/cached one."""
    payload = dict(response_json)
    payload.pop("wall_time_s")
    payload.pop("cached", None)
    return payload


def _assert_parity(reference_responses, responses):
    assert len(reference_responses) == len(responses)
    for reference, got in zip(reference_responses, responses, strict=True):
        assert _comparable(reference.to_json()) == _comparable(got.to_json())


def _mmap_base(array):
    """The root of a view chain; a shared array bottoms out at the mmap."""
    base = array
    while getattr(base, "base", None) is not None:
        base = base.base
    return base


# ----------------------------------------------------------------------
# Spawn-picklable worker factories for the crash tests
# ----------------------------------------------------------------------
class _PoisonEngine:
    """Engine wrapper that hard-kills its process on marked requests —
    a stand-in for a segfaulting native extension, the failure mode the
    pool must contain."""

    def __init__(self, engine):
        self._engine = engine

    @property
    def stats(self):
        return self._engine.stats

    @property
    def cache(self):
        return self._engine.cache

    def size_batch(self, requests):
        if any(request.id.startswith("poison") for request in requests):
            os._exit(17)
        return self._engine.size_batch(requests)


def _poison_factory(artifact_dir):
    return _PoisonEngine(engine_from_artifact(artifact_dir))


def _failing_factory():
    raise RuntimeError("deliberately broken factory")


def _child_put(directory, request, response):
    SharedResultCache(directory).put(request, response)


def _child_race_put(directory, barrier, request, response):
    cache = SharedResultCache(directory)
    barrier.wait(timeout=30.0)
    cache.put(request, response)


# ----------------------------------------------------------------------
# Shared artifact: export / mmap-load roundtrip
# ----------------------------------------------------------------------
class TestSharedArtifact:
    def test_roundtrip_predictions_identical(self, artifacts, artifact_dir):
        shared = load_shared_model(artifact_dir)
        record = artifacts.val_records["5T-OTA"][0]
        spec = SizingRequest.for_spec(
            "5T-OTA", record.gain_db, record.f3db_hz, record.ugf_hz
        ).spec
        reference_params, reference_text = artifacts.model.predict_params("5T-OTA", spec)
        shared_params, shared_text = shared.predict_params("5T-OTA", spec)
        assert shared_text == reference_text
        assert shared_params.values == reference_params.values
        assert shared_params.complete == reference_params.complete

    def test_weights_are_readonly_views_over_one_mmap(self, artifact_dir):
        shared = load_shared_model(artifact_dir)
        arrays = [value for _, value in shared.transformer.named_parameters()]
        tech = sorted(shared.luts)[0]
        arrays.append(shared.luts[tech].vgs_grid)
        arrays.append(next(iter(shared.luts[tech].tables.values())))
        bases = set()
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises((ValueError, RuntimeError)):
                array[(0,) * array.ndim] = 0.0
            base = _mmap_base(array)
            assert isinstance(base, (mmap.mmap, np.memmap))
            bases.add(id(base))
        # Every parameter and grid is a view over the *same* mapping —
        # N workers cost one physical copy of the model, not N.
        assert len(bases) == 1

    def test_format_version_mismatch_rejected(self, artifact_dir, tmp_path):
        manifest = json.loads((artifact_dir / "manifest.json").read_text())
        manifest["format_version"] = 999
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="format_version"):
            SharedArtifact.open(tmp_path)

    def test_adopt_parameters_validates(self, artifacts):
        transformer = artifacts.model.transformer
        state = dict(transformer.named_parameters())
        name = next(iter(state))
        with pytest.raises(KeyError, match="missing"):
            transformer.adopt_parameters({k: v for k, v in state.items() if k != name})
        state[name] = np.zeros(tuple(d + 1 for d in state[name].shape), dtype=state[name].dtype)
        with pytest.raises(ValueError, match="shape"):
            transformer.adopt_parameters(state)


# ----------------------------------------------------------------------
# SharedResultCache: same transfer rule, cross-process semantics
# ----------------------------------------------------------------------
class TestSharedResultCache:
    def _request(self, gain=25.0, **kwargs):
        return SizingRequest.for_spec("5T-OTA", gain, 5e6, 8e7, **kwargs)

    def _response(self, request, success=True, metrics="auto", m1=1e-6):
        if metrics == "auto":
            metrics = PerformanceMetrics(26.0, 6e6, 9e7)
        return SizingResponse(
            request_id=request.id, topology=request.topology, success=success,
            widths={"M1": m1}, metrics=metrics, iterations=1,
            spice_simulations=1, wall_time_s=0.1,
        )

    def test_roundtrip_bit_identical(self, tmp_path):
        cache = SharedResultCache(tmp_path)
        request = self._request(id="writer")
        response = self._response(request)
        cache.put(request, response)
        hit = cache.get(self._request(id="reader"))
        assert hit == response.with_request_id("reader", cached=True)

    def test_near_duplicate_transfer_rule_matches_lru(self, tmp_path):
        cache = SharedResultCache(tmp_path)
        request = self._request(gain=25.0)
        cache.put(request, self._response(request))
        # 25.004 quantizes to the same key and the measured 26 dB
        # satisfies the new exact target: transfers.
        assert cache.get(self._request(gain=25.004, id="near")) is not None
        # Measured 25.01 dB does not satisfy an exact 25.04 target.
        cache.clear()
        cache.put(
            request, self._response(request, metrics=PerformanceMetrics(25.01, 6e6, 9e7))
        )
        assert cache.get(self._request(gain=25.04, id="tighter")) is None

    def test_failure_served_only_for_exact_spec(self, tmp_path):
        cache = SharedResultCache(tmp_path)
        request = self._request(gain=25.0)
        cache.put(request, self._response(request, success=False, metrics=None))
        assert cache.get(self._request(gain=25.0, id="same")) is not None
        assert cache.get(self._request(gain=25.004, id="near")) is None

    def test_lru_eviction_by_global_clock(self, tmp_path):
        cache = SharedResultCache(tmp_path, maxsize=2)
        first, second, third = (self._request(gain=20.0 + i) for i in range(3))
        cache.put(first, self._response(first))
        cache.put(second, self._response(second))
        assert cache.get(first) is not None  # refresh: now `second` is LRU
        cache.put(third, self._response(third))
        assert len(cache) == 2
        assert cache.get(second) is None
        assert cache.get(first) is not None
        assert cache.get(third) is not None

    def test_counters_live_in_the_database(self, tmp_path):
        writer = SharedResultCache(tmp_path)
        request = self._request()
        writer.put(request, self._response(request))
        assert writer.get(self._request(id="hit")) is not None
        assert writer.get(self._request(gain=99.0, id="miss")) is None
        # A *different* instance over the same directory sees the same
        # accounting: the counters are pool-wide, not per process.
        reader = SharedResultCache(tmp_path)
        stats = reader.as_dict()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["size"] == 1
        assert stats["shared"] is True

    def test_cross_process_hit(self, tmp_path):
        request = self._request(id="producer")
        response = self._response(request)
        ctx = multiprocessing.get_context("spawn")
        child = ctx.Process(
            target=_child_put, args=(str(tmp_path), request, response)
        )
        child.start()
        child.join(timeout=60.0)
        assert child.exitcode == 0
        hit = SharedResultCache(tmp_path).get(self._request(id="consumer"))
        assert hit == response.with_request_id("consumer", cached=True)

    def test_racing_writers_are_last_writer_wins(self, tmp_path):
        # The benign double-compute window: both workers missed, both
        # computed, both put.  The store must end with exactly one valid
        # entry (one of the two), never a torn or duplicated one.
        request = self._request(id="racer")
        first = self._response(request, m1=1e-6)
        second = self._response(request, m1=2e-6)
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(2)
        children = [
            ctx.Process(
                target=_child_race_put,
                args=(str(tmp_path), barrier, request, response),
            )
            for response in (first, second)
        ]
        for child in children:
            child.start()
        for child in children:
            child.join(timeout=60.0)
            assert child.exitcode == 0
        cache = SharedResultCache(tmp_path)
        assert len(cache) == 1
        hit = cache.get(self._request(id="reader"))
        assert hit is not None
        assert hit.widths in (first.widths, second.widths)
        # Deterministic ordering: the later put overwrites.
        cache.put(request, first)
        cache.put(request, second)
        assert cache.get(self._request(id="again")).widths == second.widths


# ----------------------------------------------------------------------
# ShardedEngine over the happy-path pool
# ----------------------------------------------------------------------
class TestShardedEngine:
    def test_spawn_only_daemon_workers(self, pool):
        # Fork would inherit the parent's sockets/queues/locks; the
        # fork-safety rule pins this statically, this pins it at runtime.
        assert pool._ctx.get_start_method() == "spawn"
        for handle in pool._handles:
            assert handle.process.daemon
            assert handle.state == "healthy"

    def test_parity_with_single_process_engine(self, pool, reference_engine, artifacts):
        requests = _requests_from(artifacts.val_records["5T-OTA"], 4, "parity-")
        reference = reference_engine.size_batch(requests)
        responses = pool.size_batch(requests)
        assert [r.request_id for r in responses] == [r.id for r in requests]
        _assert_parity(reference, responses)

    def test_cross_worker_cache_hits(self, pool, artifacts):
        records = artifacts.val_records["5T-OTA"]
        before = pool.cache.as_dict()
        pool.size_batch(_requests_from(records, 3, "warm-"))
        # An *odd* batch size flips the round-robin parity: the repeat of
        # each spec is guaranteed to land on the other worker, so these
        # hits can only come from the shared cross-process store.
        responses = pool.size_batch(_requests_from(records, 3, "replay-"))
        assert all(response.cached for response in responses)
        after = pool.cache.as_dict()
        assert after["hits"] >= before["hits"] + 3

    def test_stats_health_and_workers_payload(self, pool):
        stats = pool.stats
        assert stats.requests >= 7  # 4 parity + 3 warm (replays hit too)
        assert stats.cache_hits >= 3
        # Every engine counter aggregates (tran_skipped included), counters
        # as ints and timers as floats.
        for field in fields(stats):
            assert type(getattr(stats, field.name)) is type(field.default), field.name
        health = pool.health()
        assert health["status"] == "ok"
        assert [worker["state"] for worker in health["workers"]] == ["healthy"] * 2
        payload = pool.workers_payload()
        assert len(payload) == 2
        for worker in payload:
            assert set(worker) >= {
                "index", "pid", "state", "restarts", "batches", "requests",
                "cache_hits", "cache",
            }
            assert worker["cache"] is None or worker["cache"]["shared"] is True
        # Both workers actually served work (round-robin spreads it).
        assert all(worker["requests"] > 0 for worker in payload)
        assert sum(worker["cache_hits"] for worker in payload) >= 3

    @LINUX_ONLY
    def test_workers_map_the_artifact_not_copy_it(self, pool, artifact_dir):
        arrays_path = str(artifact_dir / "arrays.npy")
        for handle in pool._handles:
            maps = open(f"/proc/{handle.pid}/maps").read()
            assert arrays_path in maps


# ----------------------------------------------------------------------
# Crash containment (dedicated pools: these tests kill workers)
# ----------------------------------------------------------------------
class TestCrashContainment:
    def test_poison_request_fails_alone_and_workers_restart(
        self, artifact_dir, reference_engine, artifacts
    ):
        goods = _requests_from(artifacts.val_records["5T-OTA"], 3, "good-")
        poison = SizingRequest.for_spec(
            "5T-OTA", 25.0, 5e6, 8e7, id="poison-1", max_iterations=2
        )
        engine = ShardedEngine(
            partial(_poison_factory, str(artifact_dir)), workers=2, shard_by="round-robin"
        )
        try:
            responses = engine.size_batch([*goods, poison])
            # Neighbors are bit-identical to a single-process run: the
            # crash cost them nothing but a retry.
            _assert_parity(reference_engine.size_batch(goods), responses[:3])
            failed = responses[3]
            assert not failed.success
            assert failed.error is not None and "worker" in failed.error
            # The poison request killed its first worker, then the
            # fallback during the singleton retry: exactly two restarts.
            assert sum(handle.restarts for handle in engine._handles) == 2
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline and engine.health()["status"] != "ok":
                time.sleep(0.05)
            assert engine.health()["status"] == "ok"
            # The recovered pool still serves, and still matches.
            again = engine.size_batch([goods[0]])
            _assert_parity(reference_engine.size_batch([goods[0]]), again)
        finally:
            engine.close()

    def test_all_workers_failing_startup_raises(self):
        with pytest.raises(RuntimeError, match="failed to start"):
            ShardedEngine(_failing_factory, workers=2, startup_timeout_s=60.0)


# ----------------------------------------------------------------------
# End to end over HTTP: sharded pool behind the serving layer
# ----------------------------------------------------------------------
def _http_json(port, method, path, payload=None, timeout=120.0):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        body = None if payload is None else json.dumps(payload)
        connection.request(method, path, body=body)
        response = connection.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        connection.close()


@LINUX_ONLY
class TestServeSharded:
    def test_e2e_parity_stats_fd_isolation_and_recovery(
        self, artifact_dir, tmp_path_factory, reference_engine, artifacts
    ):
        requests = _requests_from(artifacts.val_records["5T-OTA"], 3, "http-")
        reference = reference_engine.size_batch(requests)
        engine = ShardedEngine.from_artifact(
            artifact_dir,
            workers=2,
            cache_dir=tmp_path_factory.mktemp("serve_cache"),
            shard_by="round-robin",
        )
        server = create_server(
            engine, max_batch_size=4, max_wait_ms=20.0, concurrent_batches=2
        )
        port = server.server_address[1]
        thread = serve_forever_in_thread(server)
        try:
            for request, expected in zip(requests, reference, strict=True):
                status, payload = _http_json(port, "POST", "/v1/size", request.to_json())
                assert status == 200
                assert _comparable(payload) == _comparable(expected.to_json())

            status, health = _http_json(port, "GET", "/healthz")
            assert status == 200 and health["status"] == "ok"
            assert len(health["workers"]) == 2

            status, stats = _http_json(port, "GET", "/stats")
            assert status == 200
            workers = stats["workers"]["workers"]
            assert len(workers) == 2
            assert stats["workers"]["total"]["requests"] == 3
            assert stats["engine"]["requests"] == 3
            assert stats["cache"]["shared"] is True

            # No worker inherited the parent's listener socket: spawn
            # starts from a fresh interpreter, and the satellite rule
            # exists precisely to keep it that way.
            listener_inode = f"socket:[{os.fstat(server.socket.fileno()).st_ino}]"
            for worker in workers:
                fd_dir = f"/proc/{worker['pid']}/fd"
                for fd in os.listdir(fd_dir):
                    try:
                        target = os.readlink(f"{fd_dir}/{fd}")
                    except FileNotFoundError:
                        continue
                    assert target != listener_inode

            # Kill a worker: /healthz must pass through degraded and
            # come back ok with the restart counted.
            os.kill(workers[0]["pid"], signal.SIGKILL)
            saw_degraded = recovered = False
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                _, health = _http_json(port, "GET", "/healthz")
                if health["status"] == "degraded":
                    saw_degraded = True
                restarts = sum(w["restarts"] for w in health.get("workers", []))
                if health["status"] == "ok" and restarts >= 1:
                    recovered = True
                    break
                time.sleep(0.01)
            assert saw_degraded, "kill was never observed as degraded"
            assert recovered, "pool did not recover within 60s"

            # The disk-backed cache survived the worker death: an exact
            # replay is a cross-process (and cross-incarnation) hit.
            replay = SizingRequest.for_spec(
                "5T-OTA",
                requests[0].spec.gain_db,
                requests[0].spec.f3db_hz,
                requests[0].spec.ugf_hz,
                id="after-restart",
                max_iterations=2,
            )
            status, payload = _http_json(port, "POST", "/v1/size", replay.to_json())
            assert status == 200
            assert payload["cached"] is True
            assert _comparable(payload) == _comparable(
                reference[0].to_json() | {"request_id": "after-restart"}
            )
        finally:
            server.shutdown_gracefully(timeout=10.0)
            thread.join(timeout=10.0)
            engine.close()
