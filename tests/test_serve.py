"""Tests of the HTTP serving layer: micro-batcher, protocol, end to end.

The end-to-end suites run a real ``SizingServer`` on an ephemeral port
with the shared oracle model, so the contracts under test are the ones
clients see: concurrent POSTs coalesce into fewer ``size_batch`` calls
yet return responses bit-identical to calling the engine directly, a
full queue answers 503 before any engine work, an expired deadline
answers 504 without the handler ever seeing the request, and a graceful
shutdown drains what was queued.
"""

import http.client
import json
import socket
import threading
import time

import pytest

import repro.serve.app as serve_app
from repro.serve import (
    BatcherClosedError,
    MicroBatcher,
    QueueFullError,
    ServeStats,
    create_server,
    serve_forever_in_thread,
)
from repro.serve.protocol import (
    BAD_REQUEST_PREFIX,
    RequestError,
    invalid_request_response,
    parse_request_payload,
    parse_request_text,
)
from repro.service import SizingEngine, SizingRequest, SizingResponse
from repro.service.engine import EngineStats

from tests.conftest import BatchedOracleModel, assert_responses_identical


# ----------------------------------------------------------------------
# MicroBatcher planning logic (engine-free: opaque requests and handlers)
# ----------------------------------------------------------------------
class TestMicroBatcher:
    def _echo(self, requests):
        return [f"response:{request}" for request in requests]

    def test_flush_on_size(self):
        batcher = MicroBatcher(self._echo, max_batch_size=4, max_wait_ms=10_000.0)
        try:
            tickets = [batcher.submit(f"r{i}") for i in range(4)]
            for ticket in tickets:
                assert ticket.wait(timeout=5.0)
            assert [t.response for t in tickets] == [f"response:r{i}" for i in range(4)]
            assert batcher.stats.batches == 1
            assert batcher.stats.flush_reasons["size"] == 1
            assert batcher.stats.batch_size_histogram[4] == 1
        finally:
            batcher.close(timeout=5.0)

    def test_flush_on_timeout(self):
        batcher = MicroBatcher(self._echo, max_batch_size=16, max_wait_ms=50.0)
        try:
            tickets = [batcher.submit("a"), batcher.submit("b")]
            for ticket in tickets:
                assert ticket.wait(timeout=5.0)
            assert batcher.stats.flush_reasons["timeout"] >= 1
            assert batcher.stats.served == 2
        finally:
            batcher.close(timeout=5.0)

    def _blocking_batcher(self, **kwargs):
        """A batcher whose first handler call blocks until released."""
        entered, release = threading.Event(), threading.Event()
        calls = []

        def handler(requests):
            calls.append(list(requests))
            if len(calls) == 1:
                entered.set()
                assert release.wait(timeout=10.0)
            return [f"response:{request}" for request in requests]

        batcher = MicroBatcher(handler, max_batch_size=1, max_wait_ms=0.0, **kwargs)
        return batcher, entered, release, calls

    def test_backpressure_queue_full(self):
        batcher, entered, release, calls = self._blocking_batcher(queue_depth=1)
        try:
            first = batcher.submit("first")
            assert entered.wait(timeout=5.0)
            second = batcher.submit("second")  # fills the single queue slot
            assert batcher.queue_depth() == 1
            with pytest.raises(QueueFullError, match="queue full"):
                batcher.submit("third")
            assert batcher.stats.rejected_queue_full == 1
            release.set()
            assert first.wait(timeout=5.0) and second.wait(timeout=5.0)
            assert second.response == "response:second"
            # The rejected request never reached the handler.
            assert ["third"] not in calls
        finally:
            release.set()
            batcher.close(timeout=5.0)

    def test_deadline_expired_at_dequeue_skips_handler(self):
        batcher, entered, release, calls = self._blocking_batcher(queue_depth=8)
        try:
            batcher.submit("first")
            assert entered.wait(timeout=5.0)
            doomed = batcher.submit("doomed", deadline_ms=1.0)
            time.sleep(0.05)  # let the deadline lapse while queued
            release.set()
            assert doomed.wait(timeout=5.0)
            assert doomed.expired
            assert doomed.response is None and doomed.error is None
            assert batcher.stats.expired_deadline == 1
            assert ["doomed"] not in calls
        finally:
            release.set()
            batcher.close(timeout=5.0)

    def test_close_drains_queued_work(self):
        batcher, entered, release, calls = self._blocking_batcher(queue_depth=8)
        first = batcher.submit("first")
        assert entered.wait(timeout=5.0)
        queued = [batcher.submit("b"), batcher.submit("c")]
        releaser = threading.Timer(0.1, release.set)
        releaser.start()
        batcher.close(timeout=10.0)
        releaser.join()
        assert first.wait(timeout=1.0)
        for ticket in queued:
            assert ticket.wait(timeout=1.0)
            assert ticket.response is not None
        assert batcher.stats.served == 3
        with pytest.raises(BatcherClosedError):
            batcher.submit("late")

    def test_handler_exception_isolated_per_batch(self):
        poisoned = []

        def handler(requests):
            if poisoned:
                raise ValueError("boom")
            return [f"response:{request}" for request in requests]

        batcher = MicroBatcher(handler, max_batch_size=2, max_wait_ms=10_000.0)
        try:
            poisoned.append(True)
            bad = [batcher.submit("a"), batcher.submit("b")]
            for ticket in bad:
                assert ticket.wait(timeout=5.0)
                assert ticket.error == "ValueError: boom"
                assert ticket.response is None
            assert batcher.stats.failed == 2
            # One bad batch must not kill the dispatcher.
            poisoned.clear()
            good = [batcher.submit("c"), batcher.submit("d")]
            for ticket in good:
                assert ticket.wait(timeout=5.0)
                assert ticket.response is not None
        finally:
            batcher.close(timeout=5.0)

    def test_misaligned_handler_reported_as_error(self):
        batcher = MicroBatcher(lambda requests: [], max_batch_size=1, max_wait_ms=0.0)
        try:
            ticket = batcher.submit("a")
            assert ticket.wait(timeout=5.0)
            assert ticket.error is not None and "0 responses" in ticket.error
        finally:
            batcher.close(timeout=5.0)

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="max_batch_size"):
            MicroBatcher(self._echo, max_batch_size=0)
        with pytest.raises(ValueError, match="max_wait_ms"):
            MicroBatcher(self._echo, max_wait_ms=-1.0)
        with pytest.raises(ValueError, match="queue_depth"):
            MicroBatcher(self._echo, queue_depth=0)


# ----------------------------------------------------------------------
# Shared protocol: one request schema, one error payload, two transports
# ----------------------------------------------------------------------
#: Each work bound of a request, ten times its default: (over it, at it).
WORK_BOUNDS = {
    "max_iterations": ({"max_iterations": 61}, {"max_iterations": 60}),
    "copilot-budget": ({"budget": 61}, {"budget": 60}),
    "solver-budget": ({"method": "pso", "budget": 5001}, {"method": "pso", "budget": 5000}),
}


class TestProtocol:
    GOOD = {"topology": "5T-OTA", "gain_db": 25.0, "f3db_hz": 5e6, "ugf_hz": 8e7}

    def test_parse_valid_payload(self):
        request, deadline = parse_request_payload(dict(self.GOOD))
        assert request.topology == "5T-OTA" and deadline is None

    def test_invalid_json_rejected(self):
        with pytest.raises(RequestError, match="invalid JSON"):
            parse_request_text("{not json")

    def test_non_object_rejected(self):
        with pytest.raises(RequestError, match="JSON object"):
            parse_request_text("[1, 2]")

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", '"nan"', '"inf"'])
    @pytest.mark.parametrize("field", ["gain_db", "f3db_hz", "ugf_hz", "slew_v_per_s"])
    def test_non_finite_target_rejected(self, field, value):
        # Python's json accepts the NaN/Infinity literals and float() the
        # strings; every spelling is a bad line before it reaches a batch.
        good = json.dumps(self.GOOD)[:-1]
        with pytest.raises(RequestError):
            parse_request_text(f'{good}, "{field}": {value}}}')

    def test_unknown_field_rejected(self):
        with pytest.raises(RequestError, match="unknown"):
            parse_request_payload({**self.GOOD, "bogus": 1})

    def test_deadline_is_serving_only(self):
        # The HTTP transport strips it before shared validation ...
        request, deadline = parse_request_payload(
            {**self.GOOD, "deadline_ms": 250}, allow_deadline=True
        )
        assert deadline == 250.0
        # ... an explicit null means "no deadline" ...
        _, deadline = parse_request_payload(
            {**self.GOOD, "deadline_ms": None}, allow_deadline=True
        )
        assert deadline is None
        # ... and the JSONL CLI rejects it like any unknown field.
        with pytest.raises(RequestError, match="unknown"):
            parse_request_payload({**self.GOOD, "deadline_ms": 250})

    def test_deadline_validation(self):
        with pytest.raises(RequestError, match="number of milliseconds"):
            parse_request_payload({**self.GOOD, "deadline_ms": "soon"}, allow_deadline=True)
        with pytest.raises(RequestError, match="positive"):
            parse_request_payload({**self.GOOD, "deadline_ms": 0}, allow_deadline=True)
        with pytest.raises(RequestError, match="positive"):
            parse_request_payload({**self.GOOD, "deadline_ms": -5}, allow_deadline=True)

    @pytest.mark.parametrize("bound", sorted(WORK_BOUNDS))
    def test_work_bounds(self, bound):
        over, at = WORK_BOUNDS[bound]
        # Rejected at construction, so no transport can queue it ...
        with pytest.raises(ValueError, match="must be between 0 and"):
            SizingRequest.for_spec("5T-OTA", 25.0, 5e6, 8e7, **over)
        # ... and a bad line (the CLI's "bad request line" payload).
        with pytest.raises(RequestError, match="must be between 0 and") as caught:
            parse_request_text(json.dumps({**self.GOOD, **over}))
        message = invalid_request_response(str(caught.value)).error
        assert message.startswith(f"{BAD_REQUEST_PREFIX}: ")
        # A request exactly at the bound is served.
        request, _ = parse_request_text(json.dumps({**self.GOOD, **at}))
        assert request == SizingRequest.for_spec("5T-OTA", 25.0, 5e6, 8e7, id=request.id, **at)

    def test_error_payloads_are_wire_schema(self):
        """Every failure payload round-trips through the standard schema."""
        payload = invalid_request_response("missing field").to_json()
        restored = SizingResponse.from_json(payload)
        assert not restored.success
        assert restored.error == f"{BAD_REQUEST_PREFIX}: missing field"
        assert restored.widths is None and restored.metrics is None
        request = SizingRequest.for_spec("5T-OTA", 25.0, 5e6, 8e7, id="r9", method="pso")
        stamped = SizingResponse.failure("late", request)
        assert stamped.request_id == "r9" and stamped.method == "pso"
        assert stamped.topology == "5T-OTA" and not stamped.success


# ----------------------------------------------------------------------
# Serving counters
# ----------------------------------------------------------------------
class TestServeStats:
    def test_percentiles_nearest_rank(self):
        stats = ServeStats()
        for i in range(1, 101):
            stats.record_served(i / 1e3)
        latency = stats.latency_ms()
        assert latency["count"] == 100
        assert latency["p50"] == pytest.approx(50.0)
        assert latency["p95"] == pytest.approx(95.0)
        assert latency["p99"] == pytest.approx(99.0)
        assert latency["max"] == pytest.approx(100.0)

    def test_empty_latency_window(self):
        latency = ServeStats().latency_ms()
        assert latency == {"count": 0, "p50": None, "p95": None, "p99": None, "max": None}

    def test_as_dict_is_json_ready(self):
        stats = ServeStats()
        stats.record_received()
        stats.record_batch(3, "timeout")
        stats.record_served(0.010)
        payload = stats.as_dict(queue_depth=2, queue_capacity=64)
        assert payload["received"] == 1 and payload["served"] == 1
        assert payload["batch_size_histogram"] == {"3": 1}
        # All flush reasons are always present (dashboards need stable keys).
        assert payload["flush_reasons"] == {"size": 0, "timeout": 1, "drain": 0}
        assert payload["queue_depth"] == 2 and payload["queue_capacity"] == 64
        json.dumps(payload)  # must be serializable as-is

    def test_recorders_are_thread_safe(self):
        stats = ServeStats()

        def hammer():
            for _ in range(500):
                stats.record_received()
                stats.record_batch(1, "size")
                stats.record_served(0.001)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert stats.received == 4000
        assert stats.served == 4000
        assert stats.batches == 4000


class TestEngineStatsThreadSafety:
    def test_concurrent_add_is_atomic(self):
        stats = EngineStats()

        def hammer():
            for _ in range(1000):
                stats.add(requests=1, spice_simulations=2, inference_seconds=0.5)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert stats.requests == 8000
        assert stats.spice_simulations == 16000
        assert stats.inference_seconds == pytest.approx(4000.0)

    def test_snapshot_and_as_dict(self):
        stats = EngineStats()
        stats.add(requests=3, cache_hits=1)
        copy = stats.snapshot()
        stats.add(requests=1)
        assert copy.requests == 3 and stats.requests == 4
        assert stats.as_dict()["cache_hits"] == 1


# ----------------------------------------------------------------------
# End to end over HTTP (ephemeral port, real engine, real sockets)
# ----------------------------------------------------------------------
def _request_json(port, method, path, payload=None, timeout=60.0):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        body = None if payload is None else json.dumps(payload)
        connection.request(method, path, body=body)
        response = connection.getresponse()
        data = json.loads(response.read().decode("utf-8"))
        return response.status, dict(response.getheaders()), data
    finally:
        connection.close()


def _achievable(record, **kwargs):
    return SizingRequest.for_spec(
        "5T-OTA",
        record.gain_db * 0.995,
        record.f3db_hz * 0.98,
        record.ugf_hz * 0.98,
        **kwargs,
    )


def _stub_responses(requests):
    return [
        SizingResponse.failure("stub", r)
        for r in requests
    ]


@pytest.fixture()
def oracle_engine(oracle_setup):
    topology, records, luts = oracle_setup
    engine = SizingEngine(BatchedOracleModel(topology, records, luts), cache_size=0)
    engine.adopt_topology(topology)
    return engine, records


class _RunningServer:
    """Context manager: serve on an ephemeral port, always shut down."""

    def __init__(self, server):
        self.server = server
        self.port = server.server_address[1]

    def __enter__(self):
        self.thread = serve_forever_in_thread(self.server)
        return self

    def __exit__(self, *exc_info):
        self.server.shutdown_gracefully(timeout=10.0)
        self.thread.join(timeout=10.0)


class TestHTTPServing:
    def test_concurrent_posts_coalesce_and_match_direct_size_batch(
        self, oracle_setup, oracle_engine
    ):
        engine, records = oracle_engine
        requests = [
            _achievable(record, id=f"r{i}") for i, record in enumerate(records[:6])
        ]
        server = create_server(
            engine, max_batch_size=len(requests), max_wait_ms=2000.0, queue_depth=32
        )
        barrier = threading.Barrier(len(requests))
        results = {}

        def client(request):
            barrier.wait(timeout=10.0)
            results[request.id] = _request_json(
                server.server_address[1], "POST", "/v1/size", request.to_json()
            )

        with _RunningServer(server):
            threads = [threading.Thread(target=client, args=(r,)) for r in requests]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)

        assert len(results) == len(requests)
        assert all(status == 200 for status, _, _ in results.values())
        # Coalescing actually happened: fewer engine batches than requests.
        assert 1 <= server.serve_stats.batches < len(requests)
        assert max(server.serve_stats.batch_size_histogram) >= 2
        assert server.serve_stats.served == len(requests)
        assert engine.stats.requests == len(requests)

        # Bit-identical to the direct library path: a *fresh* identical
        # engine sizing the same batch must produce the same wire payloads
        # (modulo wall_time_s, which measures the run it came from).
        topology, all_records, luts = oracle_setup
        direct_engine = SizingEngine(
            BatchedOracleModel(topology, all_records, luts), cache_size=0
        )
        direct_engine.adopt_topology(topology)
        direct = direct_engine.size_batch(requests)
        served = [
            SizingResponse.from_json(results[request.id][2]) for request in requests
        ]
        assert_responses_identical(direct, served)
        for reference, (_, _, payload) in zip(direct, (results[r.id] for r in requests), strict=True):
            expected = reference.to_json()
            expected.pop("wall_time_s")
            payload = dict(payload)
            payload.pop("wall_time_s")
            assert payload == expected

    def test_queue_full_returns_503_with_retry_after(self, oracle_engine):
        engine, records = oracle_engine
        entered, release = threading.Event(), threading.Event()

        def blocking_handler(requests):
            entered.set()
            assert release.wait(timeout=30.0)
            return _stub_responses(requests)

        server = create_server(
            engine,
            handler=blocking_handler,
            max_batch_size=1,
            max_wait_ms=0.0,
            queue_depth=1,
            retry_after_s=7,
        )
        payload = _achievable(records[0]).to_json()
        blocked = []

        def blocked_client():
            blocked.append(
                _request_json(server.server_address[1], "POST", "/v1/size", payload)
            )

        with _RunningServer(server):
            first = threading.Thread(target=blocked_client)
            first.start()
            assert entered.wait(timeout=10.0)
            second = threading.Thread(target=blocked_client)
            second.start()
            deadline = time.monotonic() + 10.0
            while server.batcher.queue_depth() < 1:
                assert time.monotonic() < deadline, "second request never queued"
                time.sleep(0.005)
            status, headers, body = _request_json(
                server.server_address[1], "POST", "/v1/size", payload
            )
            release.set()
            first.join(timeout=30.0)
            second.join(timeout=30.0)

        assert status == 503
        assert headers["Retry-After"] == "7"
        assert not body["success"]
        assert "server overloaded" in body["error"]
        assert server.serve_stats.rejected_queue_full == 1
        assert all(result[0] == 200 for result in blocked)

    def test_expired_deadline_returns_504_without_engine_work(self, oracle_engine):
        engine, records = oracle_engine
        entered, release = threading.Event(), threading.Event()
        seen_ids = []

        def blocking_handler(requests):
            seen_ids.extend(r.id for r in requests)
            if not release.is_set():
                entered.set()
                assert release.wait(timeout=30.0)
            return _stub_responses(requests)

        server = create_server(
            engine, handler=blocking_handler, max_batch_size=1, max_wait_ms=0.0,
            queue_depth=8,
        )
        first_payload = _achievable(records[0], id="blocker").to_json()
        doomed_payload = {**_achievable(records[1], id="doomed").to_json(),
                          "deadline_ms": 20}
        results = {}

        def client(name, payload):
            results[name] = _request_json(
                server.server_address[1], "POST", "/v1/size", payload
            )

        with _RunningServer(server):
            first = threading.Thread(target=client, args=("first", first_payload))
            first.start()
            assert entered.wait(timeout=10.0)
            doomed = threading.Thread(target=client, args=("doomed", doomed_payload))
            doomed.start()
            deadline = time.monotonic() + 10.0
            while server.batcher.queue_depth() < 1:
                assert time.monotonic() < deadline, "doomed request never queued"
                time.sleep(0.005)
            time.sleep(0.05)  # let deadline_ms=20 lapse in the queue
            release.set()
            first.join(timeout=30.0)
            doomed.join(timeout=30.0)

        status, _, body = results["doomed"]
        assert status == 504
        assert not body["success"]
        assert "deadline expired in queue" in body["error"]
        assert body["request_id"] == "doomed"
        assert results["first"][0] == 200
        # The expired request never reached the handler: no engine work.
        assert seen_ids == ["blocker"]
        assert server.serve_stats.expired_deadline == 1

    def test_bad_request_returns_shared_400_payload(self, oracle_engine):
        engine, _ = oracle_engine
        server = create_server(engine)
        with _RunningServer(server):
            port = server.server_address[1]
            for body in ("{not json", '["array"]',
                         '{"topology": "5T-OTA", "gain_db": 25.0}'):
                connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
                try:
                    connection.request("POST", "/v1/size", body=body)
                    response = connection.getresponse()
                    status = response.status
                    payload = json.loads(response.read().decode("utf-8"))
                finally:
                    connection.close()
                assert status == 400
                # Byte-for-byte the same structured payload a bad JSONL
                # line gets from the CLI: the shared constructor applied
                # to the same validation message.
                prefix = f"{BAD_REQUEST_PREFIX}: "
                assert payload["error"].startswith(prefix)
                message = payload["error"][len(prefix):]
                assert payload == invalid_request_response(message).to_json()
            # Empty body and bad deadlines are caught before the queue.
            status, _, payload = _request_json(port, "POST", "/v1/size", None)
            assert status == 400 and "empty request body" in payload["error"]
            status, _, payload = _request_json(
                port, "POST", "/v1/size",
                {"topology": "5T-OTA", "gain_db": 25.0, "f3db_hz": 5e6,
                 "ugf_hz": 8e7, "deadline_ms": -1},
            )
            assert status == 400 and "must be positive" in payload["error"]
        assert server.serve_stats.bad_requests == 5
        assert engine.stats.requests == 0

    def test_over_work_bound_returns_400(self, oracle_engine):
        engine, _ = oracle_engine
        server = create_server(engine)
        with _RunningServer(server):
            port = server.server_address[1]
            for over, _ in WORK_BOUNDS.values():
                status, _, payload = _request_json(
                    port, "POST", "/v1/size", {**TestProtocol.GOOD, **over}
                )
                assert status == 400
                assert payload["error"].startswith(f"{BAD_REQUEST_PREFIX}: ")
                assert "must be between 0 and" in payload["error"]
        assert server.serve_stats.bad_requests == len(WORK_BOUNDS)
        assert engine.stats.requests == 0

    def test_oversized_body_returns_413_and_closes(self, oracle_engine):
        engine, records = oracle_engine
        server = create_server(engine)
        claimed = 2 * 1024 * 1024
        with _RunningServer(server):
            port = server.server_address[1]
            # Headers claiming 2 MiB, then a few body bytes: a server that
            # waited for the rest would time this read out.
            with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
                sock.sendall(
                    b"POST /v1/size HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                    b"Content-Type: application/json\r\n"
                    + f"Content-Length: {claimed}\r\n\r\n".encode()
                    + b'{"topology"'
                )
                response = http.client.HTTPResponse(sock)
                response.begin()
                status, connection = response.status, response.getheader("Connection")
                payload = json.loads(response.read().decode("utf-8"))
                # The server closed the connection after its answer.
                try:
                    assert sock.recv(1) == b""
                except ConnectionResetError:
                    pass
            assert status == 413 and connection == "close"
            prefix = f"{BAD_REQUEST_PREFIX}: "
            assert f"{claimed} bytes" in payload["error"]
            assert payload == invalid_request_response(payload["error"][len(prefix):]).to_json()
            # The next request, on a new connection, is served.
            request = _achievable(records[0], id="after")
            status, _, body = _request_json(port, "POST", "/v1/size", request.to_json())
            assert status == 200 and body["request_id"] == "after"
        assert server.serve_stats.bad_requests == 1
        assert engine.stats.requests == 1

    def test_stalled_body_read_times_out_and_closes(self, oracle_engine, monkeypatch):
        """A body shorter than its ``Content-Length`` holds its handler
        only for the read timeout: the server closes the connection and
        serves the next one."""
        monkeypatch.setattr(serve_app, "READ_TIMEOUT_S", 0.5)
        engine, records = oracle_engine
        server = create_server(engine)
        with _RunningServer(server):
            port = server.server_address[1]
            # Headers claiming 100 bytes, then 5: without a read timeout
            # the server waits for the rest and this client times out.
            with socket.create_connection(("127.0.0.1", port), timeout=5.0) as sock:
                sock.sendall(
                    b"POST /v1/size HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: 100\r\n\r\n"
                    b'{"id"'
                )
                try:
                    assert sock.recv(1) == b""
                except ConnectionResetError:
                    pass
            request = _achievable(records[0], id="after")
            status, _, body = _request_json(port, "POST", "/v1/size", request.to_json())
            assert status == 200 and body["request_id"] == "after"
        assert engine.stats.requests == 1

    def test_observability_endpoints(self, oracle_setup):
        topology, records, luts = oracle_setup
        engine = SizingEngine(BatchedOracleModel(topology, records, luts), cache_size=8)
        engine.adopt_topology(topology)
        server = create_server(engine, max_wait_ms=5.0)
        with _RunningServer(server):
            port = server.server_address[1]
            status, _, health = _request_json(port, "GET", "/healthz")
            assert status == 200 and health == {"status": "ok"}

            status, _, listing = _request_json(port, "GET", "/topologies")
            assert status == 200 and "5T-OTA" in listing["topologies"]

            request = _achievable(records[0], id="warm")
            status, _, _ = _request_json(port, "POST", "/v1/size", request.to_json())
            assert status == 200

            status, _, stats = _request_json(port, "GET", "/stats")
            assert status == 200
            assert stats["server"]["received"] == 1
            assert stats["server"]["served"] == 1
            assert stats["server"]["batches"] == 1
            assert stats["server"]["queue_depth"] == 0
            assert stats["server"]["queue_capacity"] == 256
            assert stats["server"]["latency_ms"]["count"] == 1
            assert stats["server"]["latency_ms"]["p50"] > 0
            assert set(stats["server"]["flush_reasons"]) == {"size", "timeout", "drain"}
            assert stats["engine"]["requests"] == 1
            assert stats["engine"]["spice_simulations"] >= 1
            assert stats["cache"]["misses"] == 1 and stats["cache"]["maxsize"] == 8

            status, _, body = _request_json(port, "GET", "/nope")
            assert status == 404 and "no such endpoint" in body["error"]

    def test_graceful_shutdown_drains_queued_requests(self, oracle_engine):
        engine, records = oracle_engine
        entered, release = threading.Event(), threading.Event()

        def blocking_handler(requests):
            if not release.is_set():
                entered.set()
                assert release.wait(timeout=30.0)
            return _stub_responses(requests)

        server = create_server(
            engine, handler=blocking_handler, max_batch_size=16, max_wait_ms=0.0,
            queue_depth=8,
        )
        results = []

        def client(request_id):
            payload = _achievable(records[0], id=request_id).to_json()
            results.append(
                _request_json(server.server_address[1], "POST", "/v1/size", payload)
            )

        thread = serve_forever_in_thread(server)
        clients = [threading.Thread(target=client, args=(f"q{i}",)) for i in range(3)]
        clients[0].start()
        assert entered.wait(timeout=10.0)
        for other in clients[1:]:
            other.start()
        deadline = time.monotonic() + 10.0
        while server.batcher.queue_depth() < 2:
            assert time.monotonic() < deadline, "requests never queued"
            time.sleep(0.005)

        def release_once_draining():
            # Unblock the handler only after close() flags the batcher as
            # draining, so the queued pair flushes with reason ``drain``.
            stop_at = time.monotonic() + 10.0
            while not server.batcher.closed and time.monotonic() < stop_at:
                time.sleep(0.005)
            release.set()

        releaser = threading.Thread(target=release_once_draining)
        releaser.start()
        server.shutdown_gracefully(timeout=30.0)
        releaser.join()
        thread.join(timeout=10.0)
        for other in clients:
            other.join(timeout=30.0)

        # Every accepted request was answered before the listener closed.
        assert len(results) == 3
        assert all(status == 200 for status, _, _ in results)
        assert server.serve_stats.served == 3
        assert server.serve_stats.flush_reasons["drain"] >= 1
        assert server.batcher.closed


# ----------------------------------------------------------------------
# The engine under concurrent callers (the serving layer's contract)
# ----------------------------------------------------------------------
class TestEngineConcurrency:
    def test_shared_engine_concurrent_size_batch(self, oracle_setup):
        topology, records, luts = oracle_setup
        engine = SizingEngine(BatchedOracleModel(topology, records, luts), cache_size=16)
        engine.adopt_topology(topology)
        responses = {}

        def worker(index):
            requests = [
                _achievable(records[(index + j) % len(records)], id=f"w{index}-{j}")
                for j in range(2)
            ]
            responses[index] = engine.size_batch(requests)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300.0)

        assert len(responses) == 4
        assert all(r.success for batch in responses.values() for r in batch)
        assert engine.stats.requests == 8
        assert engine.stats.batches == 4
        # Counters stayed consistent under concurrency.
        assert engine.stats.cache_hits == engine.cache.hits
