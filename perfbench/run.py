"""The sizing-service benchmark: one command, three workloads.

    python3 perfbench/run.py --workload copilot-sweep --seed 1 --seconds 24 --trace 0

Run from the repository root.  It

1. checks the committed bundle and spec pool against their key and writes
   this seed's request files (``workloads.py``), outside every timed section;
2. runs the workload through the public surfaces -- ``SizingEngine.size_batch``
   in a fresh host process (``host.py``) for ``copilot-sweep`` and
   ``verify-pvt``, ``POST /v1/size`` against ``python -m repro serve`` in its
   own process for ``serve-interactive``;
3. checks every response (``checks.py``) and prints the digest of all
   responses and, as the last line, one JSON object with the end-to-end
   metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).

``--trace 1`` is a separate run: it repeats the timed work with the outside-in
tracer's wrappers installed (``tracer.py``) after an untraced pass, and
reports self time and work counts per layer.

An untraced run makes three passes, each in a fresh host or server process,
and before each pass starts one more host or server that only sets up and
exits.  ``setup_s`` -- from the start of the process hosting the engine to
the end of its warm-up batch -- is the median of these six set-ups.  The
closed loops repeat the same batches in every pass and take, per batch, the
median over the passes of its wall time (latency) and of its time at the
core-speed probe's reference speed (``speed.py``; throughput); the open
loop sends a different slice of its requests in each pass, on its own
schedule, and pools their latencies.
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from checks import check, digest, quality
from host import peak_rss_kb
from prep import verify
from tracer import layer_totals
from workloads import BUNDLE_DIR, PASSES, WORKLOADS, read_jsonl, request_files

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"
CHILD_TIMEOUT_S = 150.0


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile (0.0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(fraction * len(ordered))) - 1]


def child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def stop(process: subprocess.Popen) -> None:
    """Kill a child that is still running and wait until it has ended."""
    if process.poll() is None:
        process.kill()
    process.wait()


# ----------------------------------------------------------------------
# Closed-loop workloads: the in-process host
# ----------------------------------------------------------------------
def run_host(args: list[str], out: Path) -> tuple[float, dict, list[dict]]:
    """One ``host.py`` process; returns (set-up seconds, host.json, responses)."""
    setup = host_process(args, out)
    return setup, json.loads((out / "host.json").read_text()), read_responses(out / "responses.jsonl")


def host_process(args: list[str], out: Path) -> float:
    """Run ``host.py`` to its end; returns its set-up seconds."""
    out.mkdir(parents=True)
    log = out / "host.log"
    with open(log, "w") as stderr:
        started = time.monotonic()
        process = subprocess.Popen(
            [sys.executable, str(HERE / "host.py"), *args, "--out", str(out)],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=stderr, text=True,
        )
        try:
            line = process.stdout.readline()
            process.communicate(timeout=CHILD_TIMEOUT_S)
        finally:
            stop(process)
    if process.returncode != 0 or not line.startswith("READY "):
        raise SystemExit(f"host failed (exit {process.returncode}); see {log}\n{log.read_text()[-2000:]}")
    return float(line.split()[1]) - started


def read_responses(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()]


def closed_loop(workload, paths, trace: bool, out: Path) -> tuple[dict, list, list, list[str]]:
    """Trace 0: ``PASSES`` fresh host processes; trace 1: one traced host.

    Returns the metrics, the requests sent, their responses and the digest
    of every pass's responses.
    """
    requests = read_jsonl(paths["requests"])
    args = [
        "--requests", str(paths["requests"]), "--warmup", str(paths["warmup"]),
        "--batch-size", str(workload.batch_size),
    ]
    if trace:
        _, host, responses = run_host(args + ["--trace"], out / "traced")
        metrics, traced = closed_layers(host, out / "traced")
        return metrics, requests, responses, [digest_of(responses), digest_of(traced)]
    setups, passes = [], []
    for i in range(PASSES):
        setups.append(host_process(args + ["--setup-only"], out / f"setup{i}"))
        passes.append(run_host(args, out / f"pass{i}"))
    responses = passes[0][2]
    # Per batch, the median over the passes: every pass did the same work.
    # Latency is the wall without the probe's share; throughput counts the
    # batches' time at the probe's reference speed (speed.py).
    batches = list(zip(*(host["timings"] for _, host, _ in passes), strict=True))
    sizes = [batch[0][2] for batch in batches]
    walls = [
        statistics.median(done - submitted - probe for submitted, done, _, _, probe in batch)
        for batch in batches
    ]
    reference = [statistics.median(timing[3] for timing in batch) for batch in batches]
    print(
        f"info: {sum(sizes) / sum(walls):.4g} requests/s of wall time, "
        f"{sum(sizes) / sum(reference):.4g} at the reference speed"
    )
    latencies = [wall * 1e3 for wall, size in zip(walls, sizes, strict=True) for _ in range(size)]
    metrics = timing_metrics(
        workload, requests, responses, latencies,
        throughput=sum(sizes) / sum(reference),
        rss_kb=statistics.median(host["peak_rss_kb"] for _, host, _ in passes),
        setups=setups + [setup for setup, _, _ in passes],
    )
    return metrics, requests, responses, [digest_of(r) for _, _, r in passes]


def closed_layers(host: dict, out: Path) -> tuple[dict, list[dict]]:
    windows = json.loads((out / "trace.json").read_text())
    rows, baseline = host["traced_timings"], host["baseline_timings"]
    wall = rows[-1][1] - rows[0][0]
    untraced_wall = baseline[-1][1] - baseline[0][0]
    if len(windows) != len(rows):
        raise SystemExit(f"{len(windows)} traced windows for {len(rows)} batches")
    waits, overheads, gaps = [], [], []
    for (submitted, done, size, *_), window in zip(rows, windows, strict=True):
        waits += [(window["start"] - submitted) * 1e3] * size
        overheads += [(done - window["end"]) * 1e3] * size
    for (_, previous_done, *_), (submitted, _, size, *_) in zip(rows, rows[1:]):
        gaps += [(submitted - previous_done) * 1e3] * size
    latencies = [
        (done - submitted) * 1e3 for submitted, done, size, *_ in host["timings"] for _ in range(size)
    ]
    serve = serve_metrics(
        latencies, waits, overheads, statistics.fmean(size for _, _, size, *_ in rows), gaps
    )
    metrics = layer_metrics(windows, wall, wall / untraced_wall - 1.0, serve, host["traced_engine"])
    return metrics, read_responses(out / "traced_responses.jsonl")


# ----------------------------------------------------------------------
# Open-loop workload: python -m repro serve in its own process
# ----------------------------------------------------------------------
class Server:
    """One ``repro serve`` process: start, wait for its port, drain on stop."""

    def __init__(self, out: Path, trace_file: Path | None = None):
        serve = ["serve", "--bundle", str(BUNDLE_DIR), "--port", "0"]
        if trace_file is None:
            command = [sys.executable, "-m", "repro", *serve]
        else:
            command = [sys.executable, str(HERE / "serve_traced.py"), str(trace_file), *serve]
        out.mkdir(parents=True)
        self.log = out / "server.log"
        self._stderr = open(self.log, "w")
        self.started = time.monotonic()
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=self._stderr
        )
        try:
            self.host, self.port = self._wait_for_port()
        except BaseException:
            self.close()
            raise

    def _wait_for_port(self) -> tuple[str, int]:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            match = re.search(r"serving on http://([\d.]+):(\d+)", self.log.read_text())
            if match:
                return match.group(1), int(match.group(2))
            if self.process.poll() is not None:
                break
            time.sleep(0.01)
        raise SystemExit(f"server did not start; see {self.log}\n{self.log.read_text()[-2000:]}")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=CHILD_TIMEOUT_S)

    def stats(self) -> dict:
        connection = self.connect()
        try:
            connection.request("GET", "/stats")
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    def warm_up(self, requests: list[dict]) -> float:
        """Send the warm-up requests at once, so that they form one small
        batch as in the in-process host; returns the set-up seconds."""
        with ThreadPoolExecutor(len(requests)) as senders:
            statuses = list(senders.map(self.post_once, requests))
        for request, status in zip(requests, statuses, strict=True):
            if status != 200:
                raise SystemExit(f"warm-up request {request['id']} answered {status}")
        return time.monotonic() - self.started

    def post_once(self, request: dict) -> int:
        connection = self.connect()
        try:
            return post(connection, request)[0]
        finally:
            connection.close()

    def peak_rss_kb(self) -> int:
        return peak_rss_kb(str(self.process.pid))

    def terminate(self) -> None:
        """SIGTERM, then require a clean drain with exit code 0."""
        self.process.send_signal(signal.SIGTERM)
        try:
            code = self.process.wait(timeout=60)
        finally:
            self.close()
        if code != 0 or "shutdown complete" not in self.log.read_text():
            raise SystemExit(f"server did not drain cleanly (exit {code}); see {self.log}")

    def close(self) -> None:
        stop(self.process)
        self._stderr.close()


def post(connection: http.client.HTTPConnection, request: dict) -> tuple[int, bytes]:
    body = json.dumps(request).encode()
    connection.request("POST", "/v1/size", body, {"Content-Type": "application/json"})
    response = connection.getresponse()
    return response.status, response.read()


def drive(server: Server, requests: list[dict], offsets: list[float]) -> tuple[float, list]:
    """Open loop: send request i at ``start + offsets[i]`` whatever is pending.

    At most ``nproc`` (2) keep-alive connections; a request whose connection
    is still busy goes out late, and the lateness is recorded.  Returns the
    schedule start and, per request, ``(status, body, due, sent, done)``.
    """
    rows: list = [None] * len(requests)
    cursor = iter(range(len(requests)))
    lock = threading.Lock()
    start = time.monotonic() + 0.05
    errors: list[BaseException] = []

    def worker() -> None:
        connection = server.connect()
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                due = start + offsets[index]
                delay = due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                sent = time.monotonic()
                status, body = post(connection, requests[index])
                rows[index] = (status, body, due, sent, time.monotonic())
        except BaseException as error:  # noqa: BLE001 -- re-raised by the caller
            errors.append(error)
        finally:
            connection.close()

    threads = [threading.Thread(target=worker) for _ in range(min(2, os.cpu_count() or 1))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return start, rows


def serve_setup(paths, out: Path) -> float:
    """A fresh server that only sets up and drains; returns its set-up seconds."""
    server = Server(out)
    try:
        setup = server.warm_up(read_jsonl(paths["warmup"]))
    except BaseException:
        server.close()
        raise
    server.terminate()
    return setup


def serve_pass(paths, requests, offsets, out: Path, trace_file: Path | None = None) -> dict:
    """One fresh server: set-up and warm-up, one pass's schedule, drain."""
    server = Server(out, trace_file)
    try:
        setup = server.warm_up(read_jsonl(paths["warmup"]))
        before = server.stats()
        start, rows = drive(server, requests, offsets)
        after = server.stats()
        rss = server.peak_rss_kb()
    except BaseException:
        server.close()
        raise
    server.terminate()
    return {
        "setup": setup, "start": start, "rows": rows,
        "responses": [json.loads(body) if status == 200 else None for status, body, *_ in rows],
        "before": before, "after": after, "peak_rss_kb": rss,
    }


def open_loop(workload, paths, trace: bool, out: Path) -> tuple[dict, list, list, list[str]]:
    """Trace 0: one fresh server per pass, each sending its own slice of the
    requests on its own schedule; trace 1: the first slice untraced, then
    traced."""
    requests = read_jsonl(paths["requests"])
    offsets = json.loads(paths["meta"].read_text())["offsets"]
    n = len(requests) // PASSES
    slices = [(requests[i * n:(i + 1) * n], offsets[i * n:(i + 1) * n]) for i in range(PASSES)]
    if trace:
        untraced = serve_pass(paths, *slices[0], out / "untraced")
        traced = serve_pass(paths, *slices[0], out / "traced", out / "trace.json")
        metrics = open_layers(traced, untraced, out / "trace.json")
        responses = untraced["responses"]
        return metrics, slices[0][0], responses, [digest_of(responses), digest_of(traced["responses"])]
    setups, passes = [], []
    for i, part in enumerate(slices):
        setups.append(serve_setup(paths, out / f"setup{i}"))
        passes.append(serve_pass(paths, *part, out / f"pass{i}"))
    responses = [r for result in passes for r in result["responses"]]
    answered = sum(1 for result in passes for status, *_ in result["rows"] if status == 200)
    walls = [max(done for *_, done in result["rows"]) - result["start"] for result in passes]
    latencies = [(done - due) * 1e3 for result in passes for _, _, due, _, done in result["rows"]]
    for method in ("copilot", "pso"):
        share = [ms for q, ms in zip(requests, latencies) if q.get("method", "copilot") == method]
        quantiles = ", ".join(f"p{round(f * 100)} {percentile(share, f):.0f}" for f in (0.25, 0.5, 0.75, 0.9))
        print(f"info: {method} latency ms {quantiles} ({len(share)} requests)")
    metrics = timing_metrics(
        workload, requests, responses, latencies,
        throughput=answered / sum(walls),
        rss_kb=statistics.median(result["peak_rss_kb"] for result in passes),
        setups=setups + [result["setup"] for result in passes],
    )
    return metrics, requests, responses, [digest_of(responses)]


def open_layers(traced: dict, untraced: dict, trace_file: Path) -> dict:
    start, rows = traced["start"], traced["rows"]
    windows = [w for w in json.loads(trace_file.read_text()) if w["start"] >= start]
    window_of = {rid: window for window in windows for rid in window["tag"]}
    waits, overheads, late = [], [], []
    for response, (_, _, due, sent, done) in zip(traced["responses"], rows, strict=True):
        window = window_of[response["request_id"]]
        waits.append((window["start"] - sent) * 1e3)
        overheads.append((done - window["end"]) * 1e3)
        late.append((sent - due) * 1e3)
    before, after = traced["before"]["server"], traced["after"]["server"]
    sizes = {
        int(size): count - before["batch_size_histogram"].get(size, 0)
        for size, count in after["batch_size_histogram"].items()
    }
    flushes = {
        reason: count - before["flush_reasons"].get(reason, 0)
        for reason, count in after["flush_reasons"].items()
    }
    print(f"info: serve batch sizes {dict(sorted(sizes.items()))}, flush reasons {flushes}")
    latencies = [(done - due) * 1e3 for _, _, due, _, done in untraced["rows"]]
    serve = serve_metrics(
        latencies, waits, overheads, sum(s * c for s, c in sizes.items()) / sum(sizes.values()), late
    )
    wall = max(done for *_, done in rows) - start
    # The two passes share no timeline, so the tracing overhead compares
    # their summed send-to-response times.
    busy = sum(done - sent for *_, sent, done in rows)
    untraced_busy = sum(done - sent for *_, sent, done in untraced["rows"])
    engine = {
        name: value - traced["before"]["engine"][name]
        for name, value in traced["after"]["engine"].items()
    }
    return layer_metrics(windows, wall, busy / untraced_busy - 1.0, serve, engine)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def digest_of(responses: list) -> str:
    return digest([r if r is not None else {} for r in responses])


def serve_metrics(latencies, waits, overheads, batch_size_mean, late) -> dict:
    """The ``serve.*`` per-layer metrics; times in ms."""
    return {
        "serve.latency_ms_p50": percentile(latencies, 0.5),
        "serve.latency_ms_p90": percentile(latencies, 0.9),
        "serve.queue_wait_ms_p50": percentile(waits, 0.5),
        "serve.queue_wait_ms_p90": percentile(waits, 0.9),
        "serve.batch_size_mean": batch_size_mean,
        "serve.overhead_ms_p50": percentile(overheads, 0.5),
        "serve.generator_late_ms_p90": percentile(late, 0.9),
    }


def timing_metrics(workload, requests, responses, latencies, *, throughput, rss_kb, setups) -> dict:
    answered = [r is not None and r.get("error") is None for r in responses]
    within = sum(
        1 for ok, latency in zip(answered, latencies, strict=True)
        if ok and latency <= workload.slo_ms
    )
    metrics = {
        "throughput_rps": (throughput, "1/s"),
        "slo_attainment": (within / len(requests), "frac"),
    }
    metrics.update({name: (value, "frac") for name, value in quality(requests, responses).items()})
    metrics["peak_rss_mb"] = (rss_kb / 1024.0, "MB")
    metrics["setup_s"] = (statistics.median(setups), "s")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def layer_metrics(windows, wall, overhead_frac, serve, engine) -> dict:
    totals = layer_totals(windows)
    covered = sum(w["end"] - w["start"] for w in windows)
    values = dict(serve)
    values["service.cache_hits"] = engine["cache_hits"]
    values["service.coalesced"] = engine["coalesced"]
    values.update(totals)
    values["trace.overhead_frac"] = overhead_frac
    values["trace.other_s"] = wall - covered
    return {name: {"value": value, "unit": unit_of(name)} for name, value in sorted(values.items())}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if "_ms_" in name:
        return "ms"
    if name.endswith("_frac"):
        return "frac"
    return "count"


# ----------------------------------------------------------------------
def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "repro").is_dir():
        print(f"error: no program sources at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(1, str(SRC))
    import numpy

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} ({', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    manifest = verify()
    paths = request_files(workload, args.seconds, args.seed, manifest["key"])
    out = OUT / workload.name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    print("info: " + json.dumps({
        "prep": manifest["prep"],
        "bundle_sha256": manifest["bundle_sha256"]["transformer.npz"],
        "run": {"nproc": os.cpu_count(), "python": platform.python_version(),
                "numpy": numpy.__version__},
    }, sort_keys=True))

    runner = closed_loop if workload.kind == "closed" else open_loop
    metrics, requests, responses, digests = runner(workload, paths, bool(args.trace), out)

    problems = check(requests, responses)
    if len(set(digests)) != 1:
        problems.append(f"passes answered differently: digests {digests}")
    for problem in problems:
        print(f"problem: {problem}")
    print(f"digest: {digests[0]}")
    failed = sum(1 for r in responses if r is None or r.get("error") is not None)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(requests),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
