"""``python -m repro`` — command-line front end of the sizing service.

Subcommands:

``size``
    JSONL requests in, JSONL responses out, through a batched
    :class:`~repro.service.SizingEngine`.  Reads stdin / writes stdout by
    default so it composes with shell pipelines::

        python -m repro size --bundle path/to/bundle < requests.jsonl > responses.jsonl

    ``--method`` sizes every request with one method (``copilot``, or a
    registered solver: ``sa`` / ``pso`` / ``de``), overriding the
    per-request ``method`` field; ``--budget`` caps each solver's SPICE
    evaluations; ``--corners`` verifies every request worst-case across
    the named PVT corners::

        python -m repro size --bundle path/to/bundle --method pso --budget 400 ...
        python -m repro size --bundle path/to/bundle --corners tt,ss,ff ...

    ``--analyses dc,ac,tran`` additionally integrates each verified
    design's step-response testbench and reports the transient metrics
    (slew rate, settling time, overshoot)::

        python -m repro size --bundle path/to/bundle --analyses dc,ac,tran ...

``serve``
    Run the HTTP serving layer (see :mod:`repro.serve`): concurrent
    ``POST /v1/size`` requests are coalesced by a micro-batching queue
    into batched engine calls, with backpressure (503 + ``Retry-After``
    on a full queue), per-request ``deadline_ms`` (504 when expired in
    the queue), and ``GET /stats`` observability::

        python -m repro serve --bundle path/to/bundle --port 8080 \
            --max-batch-size 16 --max-wait-ms 20 --queue-depth 256

    ``--workers N`` shards the engine across N spawn-based worker
    processes, each loading the bundle and keeping its own result LRU;
    a request is routed by its quantized spec, so a repeat reaches the
    worker that cached it (see :mod:`repro.shard`)::

        python -m repro serve --bundle path/to/bundle --workers 2

    Ctrl-C / SIGTERM shut down gracefully: the queue drains and every
    accepted request still gets its response.

``train``
    Run the one-time training pipeline and save the model bundle::

        python -m repro train --out path/to/bundle --designs 5T-OTA=400 --epochs 30

``topologies``
    List the circuits currently in the topology registry.

``solvers``
    List the sizing methods a request may name: ``copilot``, then the
    solver registry.

``checks``
    Run the project's static analyzer; every argument after ``checks``
    goes to ``python -m repro.checks`` unchanged.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from collections.abc import Iterator, Sequence
from typing import IO

from ..core.bundle import SizingModel
from ..topologies import available_topologies
from .engine import SizingEngine, available_methods
from .requests import SizingRequest, SizingResponse

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Transformer+LUT OTA sizing service (batched request/response API)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    size = sub.add_parser(
        "size",
        help="size JSONL requests into JSONL responses",
        description=(
            "Read one JSON request per line, write one JSON response per line "
            "(order preserved). Exit status: 0 when every line was served, "
            "1 when any line failed to parse or errored, 2 when the bundle is "
            "missing. A served request whose spec could not be met "
            "(success=false, error=null) is a valid outcome, not a failure."
        ),
    )
    size.add_argument("--bundle", type=Path, required=True,
                      help="saved SizingModel directory (see 'train')")
    size.add_argument("--input", "-i", default="-",
                      help="JSONL request file, '-' for stdin (default)")
    size.add_argument("--output", "-o", default="-",
                      help="JSONL response file, '-' for stdout (default)")
    size.add_argument("--batch-size", type=int, default=64,
                      help="requests per engine batch (default 64)")
    size.add_argument("--cache-size", type=int, default=256,
                      help="LRU result-cache entries, 0 disables (default 256)")
    size.add_argument("--method", default=None, metavar="METHOD",
                      help="size every request with this method: 'copilot' or "
                           "a registered solver (overrides the per-request "
                           "'method' field; see 'python -m repro solvers')")
    size.add_argument("--budget", type=int, default=None,
                      help="per-request SPICE-evaluation budget for the solver "
                           "(copilot: verification iterations)")
    size.add_argument("--corners", default=None, metavar="C1,C2,...",
                      help="comma-separated PVT corner presets (tt/ss/ff) applied "
                           "to every request (overrides the per-request 'corners' "
                           "field); a request succeeds only when the design meets "
                           "spec at every corner")
    size.add_argument("--analyses", default=None, metavar="A1,A2,...",
                      help="comma-separated analyses selector applied to every "
                           "request (overrides the per-request 'analyses' field): "
                           "'dc,ac' (default pipeline) or 'dc,ac,tran' to also "
                           "integrate the step-response testbench and report "
                           "slew/settling/overshoot metrics")
    size.add_argument("--stats", action="store_true",
                      help="print engine serving counters to stderr when done")

    serve = sub.add_parser(
        "serve",
        help="run the HTTP serving layer (micro-batching front end)",
        description=(
            "Serve POST /v1/size over HTTP with dynamic micro-batching: "
            "concurrent requests coalesce into one batched engine call, "
            "flushing on --max-batch-size or --max-wait-ms, whichever "
            "first. A full queue answers 503 with Retry-After; a request "
            "whose deadline_ms expires while queued answers 504 without "
            "running the solver. GET /stats, /healthz and /topologies "
            "expose observability. Ctrl-C / SIGTERM drain gracefully."
        ),
    )
    serve.add_argument("--bundle", type=Path, required=True,
                       help="saved SizingModel directory (see 'train')")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8080,
                       help="TCP port, 0 picks an ephemeral one (default 8080)")
    serve.add_argument("--max-batch-size", type=int, default=16,
                       help="flush a batch at this many requests (default 16)")
    serve.add_argument("--max-wait-ms", type=float, default=20.0,
                       help="flush a batch this long after its first request "
                            "arrived (default 20 ms); smaller = lower tail "
                            "latency, larger = bigger batches")
    serve.add_argument("--queue-depth", type=int, default=256,
                       help="bounded request queue; beyond this, requests get "
                            "503 + Retry-After (default 256)")
    serve.add_argument("--cache-size", type=int, default=256,
                       help="LRU result-cache entries, 0 disables (default 256)")
    serve.add_argument("--workers", type=int, default=0, metavar="N",
                       help="shard size_batch across N spawn-based worker "
                            "processes (0 = single-process, the default); each "
                            "worker loads the bundle, keeps its own "
                            "--cache-size LRU and runs cores/N BLAS threads")
    serve.add_argument("--retry-after", type=int, default=1, metavar="SECONDS",
                       help="Retry-After hint on 503 responses (default 1)")
    serve.add_argument("--quiet", action="store_true",
                       help="suppress per-request access logging")

    train = sub.add_parser("train", help="run the one-time training pipeline")
    train.add_argument("--out", type=Path, required=True,
                       help="directory to save the trained bundle into")
    train.add_argument("--designs", nargs="+", metavar="TOPOLOGY=COUNT",
                       default=["5T-OTA=500", "CM-OTA=350", "2S-OTA=350"],
                       help="designs per topology (default: 5T-OTA=500 CM-OTA=350 2S-OTA=350)")
    train.add_argument("--epochs", type=int, default=30)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--d-model", type=int, default=96)
    train.add_argument("--num-merges", type=int, default=200)
    train.add_argument("--dtype", choices=["float32", "float64"], default="float32")
    train.add_argument("--benchmark-config", action="store_true",
                       help="ignore the knobs above and train the benchmark-suite configuration")
    train.add_argument("--quiet", action="store_true", help="suppress progress logging")

    # Parsed by repro.checks.cli itself (see main); listed here for --help.
    sub.add_parser(
        "checks",
        help="run the repo-specific two-pass static analyzer "
             "(same arguments as `python -m repro.checks`)",
    )
    sub.add_parser("topologies", help="list registered topologies")
    sub.add_parser("solvers", help="list the sizing methods a request may name")
    return parser


# ----------------------------------------------------------------------
# size
# ----------------------------------------------------------------------
def _open_input(spec: str) -> IO[str]:
    return sys.stdin if spec == "-" else open(spec, encoding="utf-8")


def _open_output(spec: str) -> IO[str]:
    return sys.stdout if spec == "-" else open(spec, "w", encoding="utf-8")


def _batched_lines(stream: IO[str], batch_size: int) -> Iterator[list[str]]:
    batch: list[str] = []
    for line in stream:
        if line.strip():
            batch.append(line)
        if len(batch) >= batch_size:
            yield batch
            batch = []
    if batch:
        yield batch


def _bundle_exists(bundle: Path) -> bool:
    """Whether ``bundle`` holds a saved model (stderr message when not)."""
    if (bundle / "bundle.json").exists():
        return True
    print(
        f"error: no model bundle at {bundle} "
        "(expected a directory saved by 'python -m repro train --out ...')",
        file=sys.stderr,
    )
    return False


def _run_size(args: argparse.Namespace) -> int:
    from ..devices import resolve_corners
    from ..serve.protocol import invalid_request_response, parse_request_text
    from ..topologies import resolve_analyses

    if args.method is not None and args.method not in available_methods():
        print(
            f"error: unknown sizing method {args.method!r} "
            f"(available: {', '.join(available_methods())})",
            file=sys.stderr,
        )
        return 2
    corners = None
    if args.corners is not None:
        try:
            corners = resolve_corners(
                [name.strip() for name in args.corners.split(",") if name.strip()]
            )
            if not corners:
                raise ValueError("no corner names given")
        except ValueError as error:
            # An empty override would silently *disable* per-request corner
            # verification stream-wide; refuse it like a bad preset name.
            print(f"error: bad --corners: {error}", file=sys.stderr)
            return 2
    analyses = None
    if args.analyses is not None:
        try:
            names = [name.strip() for name in args.analyses.split(",") if name.strip()]
            if not names:
                raise ValueError("no analysis names given")
            analyses = resolve_analyses(names)
        except ValueError as error:
            print(f"error: bad --analyses: {error}", file=sys.stderr)
            return 2
    if not _bundle_exists(args.bundle):
        return 2
    engine = SizingEngine(SizingModel.load(args.bundle), cache_size=args.cache_size)

    overrides = {}
    if args.method is not None:
        overrides["method"] = args.method
    if args.budget is not None:
        overrides["budget"] = args.budget
    if corners is not None:
        overrides["corners"] = corners
    if analyses is not None:
        overrides["analyses"] = analyses

    source = _open_input(args.input)
    sink = _open_output(args.output)
    # Exit status: only *tool-level* problems count as failures — lines
    # that didn't parse or errored (e.g. unknown topology).  A correctly
    # served request whose spec turned out infeasible (success=false,
    # error=null) is a valid outcome, not a failure.
    failures = 0
    try:
        for lines in _batched_lines(source, max(1, args.batch_size)):
            requests: list[SizingRequest] = []
            bad_lines: dict[int, SizingResponse] = {}
            for index, line in enumerate(lines):
                # Validation shared with the HTTP serving layer: a bad
                # JSONL line and a bad HTTP body produce the same
                # structured error payload (see repro.serve.protocol); an
                # override over a work bound (--budget) is a bad line too,
                # addressed to the request the line parsed to.
                parsed = None
                try:
                    parsed, _ = parse_request_text(line)
                    requests.append(replace(parsed, **overrides) if overrides else parsed)
                except ValueError as error:
                    bad_lines[index] = invalid_request_response(str(error), parsed)
            responses = iter(engine.size_batch(requests))
            for index in range(len(lines)):
                if index in bad_lines:
                    failures += 1
                    # Same schema as every other line, so consumers can
                    # parse the whole stream with SizingResponse.from_json.
                    response = bad_lines[index]
                else:
                    response = next(responses)
                    failures += 1 if response.error is not None else 0
                sink.write(response.to_json_line() + "\n")
            sink.flush()
    finally:
        if source is not sys.stdin:
            source.close()
        if sink is not sys.stdout:
            sink.close()

    if args.stats:
        print(
            " ".join(
                f"{name}={value:.2f}" if isinstance(value, float) else f"{name}={value}"
                for name, value in engine.stats.as_dict().items()
            ),
            file=sys.stderr,
        )
    return 1 if failures else 0


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def _build_serve_engine(args: argparse.Namespace):
    """The serving engine: a sharded pool when ``--workers N`` is given.

    Pool workers load the bundle themselves, so the parent never does.
    """
    if args.workers <= 0:
        return SizingEngine(SizingModel.load(args.bundle), cache_size=args.cache_size)
    from ..shard import ShardedEngine

    return ShardedEngine.from_bundle(
        args.bundle, workers=args.workers, cache_size=args.cache_size
    )


def _run_serve(args: argparse.Namespace) -> int:
    import signal

    from ..serve import create_server

    if not _bundle_exists(args.bundle):
        return 2
    try:
        engine = _build_serve_engine(args)
    except (OSError, ValueError, RuntimeError) as error:
        print(f"error: cannot start engine: {error}", file=sys.stderr)
        return 2
    log = None if args.quiet else (lambda message: print(message, file=sys.stderr))
    try:
        server = create_server(
            engine,
            host=args.host,
            port=args.port,
            max_batch_size=args.max_batch_size,
            max_wait_ms=args.max_wait_ms,
            queue_depth=args.queue_depth,
            retry_after_s=args.retry_after,
            # Pipeline batches across the worker pool: batch k+1 forms
            # while batch k runs, one in-flight batch per worker.
            concurrent_batches=max(1, args.workers),
            log=log,
        )
    except (OSError, ValueError) as error:
        if hasattr(engine, "close"):
            engine.close()
        print(f"error: cannot start server: {error}", file=sys.stderr)
        return 2

    def _terminate(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _terminate)
    host, port = server.server_address[:2]
    workers_note = f", workers={args.workers}" if args.workers > 0 else ""
    print(
        f"serving on http://{host}:{port} "
        f"(max_batch_size={args.max_batch_size}, max_wait_ms={args.max_wait_ms:g}, "
        f"queue_depth={args.queue_depth}{workers_note}); Ctrl-C to drain and stop",
        file=sys.stderr,
    )
    try:
        server.serve_forever(poll_interval=0.1)
    except KeyboardInterrupt:
        print("shutting down: draining the request queue...", file=sys.stderr)
    finally:
        signal.signal(signal.SIGTERM, previous)
        # Flush every queued request (their handler threads write the
        # responses), close the listener, then the worker pool.
        server.shutdown_gracefully()
        if hasattr(engine, "close"):
            engine.close()
    print("serve: shutdown complete", file=sys.stderr)
    return 0


# ----------------------------------------------------------------------
# train
# ----------------------------------------------------------------------
def _parse_designs(pairs: Sequence[str]) -> tuple[tuple[str, int], ...]:
    parsed: list[tuple[str, int]] = []
    for pair in pairs:
        name, _, count = pair.partition("=")
        if not count:
            raise SystemExit(f"--designs expects TOPOLOGY=COUNT, got {pair!r}")
        parsed.append((name, int(count)))
    return tuple(parsed)


def _run_train(args: argparse.Namespace) -> int:
    from ..core.pipeline import BENCHMARK_CONFIG, PipelineConfig, train_sizing_model

    if args.benchmark_config:
        config = BENCHMARK_CONFIG
    else:
        config = PipelineConfig(
            designs_per_topology=_parse_designs(args.designs),
            epochs=args.epochs,
            seed=args.seed,
            d_model=args.d_model,
            num_merges=args.num_merges,
            dtype=args.dtype,
        )
    log = None if args.quiet else (lambda message: print(message, file=sys.stderr))
    artifacts = train_sizing_model(config, log=log)
    artifacts.model.save(args.out)
    print(f"saved bundle to {args.out}", file=sys.stderr)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["checks"]:
        from ..checks.cli import main as checks_main

        return checks_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.command == "size":
        return _run_size(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "train":
        return _run_train(args)
    if args.command == "topologies":
        for name in available_topologies():
            print(name)
        return 0
    if args.command == "solvers":
        for name in available_methods():
            print(name)
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")
