"""The in-process engine host of the closed-loop workloads (one process per pass).

    PYTHONPATH=src python3 perfbench/host.py --requests R.jsonl --warmup W.jsonl \
        --batch-size 32 --out DIR [--trace | --setup-only]

Set-up is everything from process start to the ``READY <t>`` line on stdout
(``t`` on ``CLOCK_MONOTONIC``): imports, ``SizingModel.load``, engine
construction and one warm-up batch.  The host then sends the requests in
fixed batches through ``SizingEngine.size_batch`` from one thread, each
batch after the previous one returned, with the core-speed probe
(``speed.py``) sampling every batch, and writes the responses and the
batch timings to ``DIR``.  With ``--setup-only`` it exits after set-up.

With ``--trace`` the same batches then run twice more, each on a fresh
warmed engine: untraced (the baseline of the tracing overhead) and with the
tracer's wrappers installed, whose per-window span aggregates go to
``DIR/trace.json``.  Traced runs leave the probe out.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from speed import SpeedProbe
from workloads import BUNDLE_DIR, read_jsonl


def peak_rss_kb(pid: str = "self") -> int:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc status")


def closed_loop(engine, batches, probe: bool = False) -> tuple[list, list]:
    """Send every batch after the previous one returned; (responses, timings).

    A timing is ``(submitted, done, size, reference_s, probe_s)``.  With
    ``probe`` the core-speed probe samples each batch (``speed.py``):
    ``reference_s`` is the batch's time at the reference speed and
    ``probe_s`` the probe's own share of its wall; without, they are the
    wall and 0.
    """
    responses, timings = [], []
    for batch in batches:
        with SpeedProbe(active=probe) as speed:
            answered = engine.size_batch(batch)
        timings.append(
            (speed.start, speed.end, len(batch), speed.reference_seconds(), speed.probe_seconds())
        )
        responses.extend(answered)
    return responses, timings


def warm_engine(model, warmup):
    """A fresh engine that has served the warm-up batch."""
    from repro.service import SizingEngine

    engine = SizingEngine(model)
    engine.size_batch(warmup)
    return engine


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--requests", type=Path, required=True)
    parser.add_argument("--warmup", type=Path, required=True)
    parser.add_argument("--batch-size", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    from repro.core.bundle import SizingModel
    from repro.service import SizingRequest

    model = SizingModel.load(BUNDLE_DIR)
    warmup = [SizingRequest.from_json(r) for r in read_jsonl(args.warmup)]
    engine = warm_engine(model, warmup)
    print(f"READY {time.monotonic()!r}", flush=True)
    if args.setup_only:
        return 0

    requests = [SizingRequest.from_json(r) for r in read_jsonl(args.requests)]
    batches = [requests[i : i + args.batch_size] for i in range(0, len(requests), args.batch_size)]
    responses, timings = closed_loop(engine, batches, probe=not args.trace)
    result = {"timings": timings, "peak_rss_kb": peak_rss_kb()}
    (args.out / "responses.jsonl").write_text(
        "".join(response.to_json_line() + "\n" for response in responses)
    )

    if args.trace:
        from tracer import Tracer, install

        # A second untraced pass is the baseline of the tracing overhead:
        # the first pass in a process runs a few percent slower.
        _, result["baseline_timings"] = closed_loop(warm_engine(model, warmup), batches)
        traced_engine = warm_engine(model, warmup)
        before = traced_engine.stats.as_dict()
        tracer = install(Tracer())
        try:
            traced_responses, result["traced_timings"] = closed_loop(traced_engine, batches)
        finally:
            tracer.uninstall()
        tracer.dump(args.out / "trace.json")
        after = traced_engine.stats.as_dict()
        result["traced_engine"] = {name: after[name] - before[name] for name in after}
        (args.out / "traced_responses.jsonl").write_text(
            "".join(response.to_json_line() + "\n" for response in traced_responses)
        )
    (args.out / "host.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
