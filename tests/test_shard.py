"""Tests of the multiprocess sharded engine.

Contracts pinned here:

* **Parity** — a pool whose workers each load the saved bundle answers
  like a single-process engine over the same bundle, apart from
  ``wall_time_s`` and ``cached``.
* **Spec routing** — a repeated spec is routed back to the worker that
  sized it, so it hits that worker's own LRU.
* **BLAS thread cap** — each worker starts with the BLAS thread
  variables set to the usable cores divided by the pool size unless the
  operator set them, reports the value it got, and the parent's
  environment is unchanged; starting the serving pool writes nothing
  into the bundle directory.
* **Crash containment** — a request that kills its worker mid-batch
  fails alone: neighbors come back bit-identical to a single-process
  run, the worker restarts (``/healthz`` goes degraded → healthy), and
  spawn-start means no worker ever inherits the parent's HTTP listener
  socket (pinned against ``/proc/<pid>/fd``).  A worker whose process
  cannot be started is marked failed at once, and its requests are
  answered by a healthy worker.

Worker factories used here are module-level (spawn pickles them by
qualified name into the fresh child interpreter).
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import sys
import threading
import time
from dataclasses import fields
from functools import partial
from multiprocessing.context import SpawnContext, SpawnProcess

import pytest

from repro.core import PipelineConfig, SizingModel, train_sizing_model
from repro.serve import create_server, serve_forever_in_thread
from repro.service import SizingEngine, SizingRequest
from repro.service.requests import ROUND_OUTCOMES
from repro.service.cli import _build_serve_engine, build_parser
from repro.shard import ShardedEngine, engine_from_bundle

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
def bundle_dir(tmp_path_factory, artifacts):
    directory = tmp_path_factory.mktemp("bundle")
    artifacts.model.save(directory)
    return directory


@pytest.fixture(scope="module")
def reference_engine(bundle_dir):
    """Single-process engine over the same bundle (no cache: every
    response is a fresh computation to compare the pool against)."""
    return SizingEngine(SizingModel.load(bundle_dir), cache_size=0)


@pytest.fixture(scope="module")
def pool(bundle_dir):
    """The happy-path pool: two spawn workers over the saved bundle."""
    engine = ShardedEngine.from_bundle(bundle_dir, workers=2)
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


def _poison_factory(bundle_dir):
    return _PoisonEngine(engine_from_bundle(bundle_dir))


def _failing_factory():
    raise RuntimeError("deliberately broken factory")


def _no_engine_factory():
    """Enough for a worker to start and report ready; serves nothing."""
    return None


def _expected_blas_threads(workers):
    return max(1, len(os.sched_getaffinity(0)) // workers)


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
        # The in-process copilot trace does not cross the worker pipe.
        assert all(r.trace for r in reference)
        assert all(r.trace == () for r in responses)

    def test_cross_worker_cache_hits(self, pool, artifacts):
        """Spec routing sends a repeat to the worker that sized it, so it
        hits that worker's own LRU."""
        records = artifacts.val_records["5T-OTA"]
        warm = _requests_from(records, 3, "warm-")
        pool.size_batch(warm)
        before = [worker["cache_hits"] for worker in pool.workers_payload()]
        responses = pool.size_batch(_requests_from(records, 3, "replay-"))
        assert all(response.cached for response in responses)
        after = [worker["cache_hits"] for worker in pool.workers_payload()]
        expected = [0, 0]
        for request in warm:
            expected[pool._route(request)] += 1
        assert [a - b for a, b in zip(after, before, strict=True)] == expected

    def test_stats_health_and_workers_payload(self, pool):
        stats = pool.stats
        assert stats.requests >= 7  # 4 parity + 3 warm (replays hit too)
        assert stats.cache_hits >= 3
        # Every engine counter aggregates (tran_skipped included), counters
        # as ints and timers as floats.
        for field in fields(stats):
            assert type(getattr(stats, field.name)) is type(field.default), field.name
        # Each decoded row ends one round with one outcome, in the summed
        # counters as in each worker's own.
        rounds = sum(getattr(stats, f"rounds_{outcome}") for outcome in ROUND_OUTCOMES)
        assert rounds == stats.inference_sequences > 0
        health = pool.health()
        assert health["status"] == "ok"
        assert [worker["state"] for worker in health["workers"]] == ["healthy"] * 2
        assert pool.cache is None
        payload = pool.workers_payload()
        assert len(payload) == 2
        for worker in payload:
            assert set(worker) >= {
                "index", "pid", "state", "restarts", "batches", "requests",
                "cache_hits", "cache", "blas_threads",
            }
            # Each worker reports its own in-memory LRU.
            assert worker["cache"]["maxsize"] == 256
            assert worker["cache"]["hits"] == worker["cache_hits"]
        # Both workers actually served work (spec routing spreads it).
        assert all(worker["requests"] > 0 for worker in payload)
        assert sum(worker["cache_hits"] for worker in payload) >= 3


# ----------------------------------------------------------------------
# Worker start: BLAS thread cap, nothing written into the bundle
# ----------------------------------------------------------------------
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@LINUX_ONLY
class TestWorkerStart:
    def test_workers_get_blas_cap_and_parent_env_is_restored(self, monkeypatch):
        for name in BLAS_ENV:
            monkeypatch.delenv(name, raising=False)
        environ = dict(os.environ)
        with ShardedEngine(_no_engine_factory, workers=2) as engine:
            assert dict(os.environ) == environ
            reported = [worker["blas_threads"] for worker in engine.workers_payload()]
        assert reported == [_expected_blas_threads(2)] * 2

    def test_operator_blas_setting_wins(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        environ = dict(os.environ)
        with ShardedEngine(_no_engine_factory, workers=1) as engine:
            assert dict(os.environ) == environ
            assert [w["blas_threads"] for w in engine.workers_payload()] == [3]

    def test_sharded_serve_start_leaves_bundle_unchanged(self, bundle_dir):
        def listing():
            return sorted(str(path.relative_to(bundle_dir)) for path in bundle_dir.rglob("*"))

        before = listing()
        args = build_parser().parse_args(
            ["serve", "--bundle", str(bundle_dir), "--workers", "2"]
        )
        engine = _build_serve_engine(args)
        try:
            assert engine.health()["status"] == "ok"
        finally:
            engine.close()
        assert listing() == before


# ----------------------------------------------------------------------
# Crash containment (dedicated pools: these tests kill workers)
# ----------------------------------------------------------------------
class TestCrashContainment:
    def test_poison_request_fails_alone_and_workers_restart(
        self, bundle_dir, reference_engine, artifacts
    ):
        goods = _requests_from(artifacts.val_records["5T-OTA"], 3, "good-")
        poison = SizingRequest.for_spec(
            "5T-OTA", 25.0, 5e6, 8e7, id="poison-1", max_iterations=2
        )
        engine = ShardedEngine(partial(_poison_factory, str(bundle_dir)), workers=2)
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

    @pytest.mark.parametrize(
        "owner, method", [(SpawnProcess, "start"), (SpawnContext, "Pipe")]
    )
    def test_worker_that_cannot_start_fails_alone(
        self, owner, method, bundle_dir, reference_engine, artifacts, monkeypatch
    ):
        original = getattr(owner, method)

        def fail_for_worker_0(*args, **kwargs):
            # Worker i is started on its own IO thread.
            if threading.current_thread().name == "repro-shard-io-0":
                raise OSError(f"injected: {method} fails for worker 0")
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, method, fail_for_worker_0)
        records = [*artifacts.val_records["5T-OTA"], *artifacts.train_records["5T-OTA"]]
        requests = _requests_from(records, 8, "nostart-")
        startup_timeout_s = 30.0
        began = time.monotonic()
        engine = ShardedEngine.from_bundle(
            bundle_dir, workers=2, startup_timeout_s=startup_timeout_s
        )
        try:
            # Startup does not wait out its timeout for the worker that
            # never started, and reports it failed, not starting.
            assert time.monotonic() - began < startup_timeout_s
            states = [worker["state"] for worker in engine.health()["workers"]]
            assert states == ["failed", "healthy"]
            assert "injected" in engine._handles[0].init_error
            assert any(engine._route(request) == 0 for request in requests)
            # Joined with a timeout, so a hang fails the test instead of
            # stalling the suite.
            answered = []
            thread = threading.Thread(
                target=lambda: answered.extend(engine.size_batch(requests)), daemon=True
            )
            thread.start()
            thread.join(60.0)
            assert not thread.is_alive(), "size_batch hung on the unstarted worker"
            _assert_parity(reference_engine.size_batch(requests), answered)
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
        self, bundle_dir, reference_engine, artifacts
    ):
        requests = _requests_from(artifacts.val_records["5T-OTA"], 3, "http-")
        reference = reference_engine.size_batch(requests)
        engine = ShardedEngine.from_bundle(bundle_dir, workers=2)
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
            assert stats["cache"] is None
            assert [w["blas_threads"] for w in workers] == [_expected_blas_threads(2)] * 2

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

            # The restarted pool answers a replay exactly as before (from
            # the surviving worker's LRU or sized afresh).
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
            assert _comparable(payload) == _comparable(
                reference[0].to_json() | {"request_id": "after-restart"}
            )
        finally:
            server.shutdown_gracefully(timeout=10.0)
            thread.join(timeout=10.0)
            engine.close()
