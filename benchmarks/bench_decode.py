"""Decode step loop: the dominant layer of a copilot request, timed.

Model-free in the benchmark suite's sense (no training): it decodes with
the benchmark bundle committed under ``perfbench/data`` (read-only), on
mixed 5T/CM/2S batches of sources built from the spec pool's first
designs, rotating topologies as copilot-sweep's batches do.

* **reference** -- ``greedy_decode_stepwise`` from
  ``tests/scalar_reference.py``: the KV-cached step loop that keeps every
  row in the batch, fed EOS, until the last row ends;
* **decode** -- ``Transformer.greedy_decode``: rows leave the batch at
  their EOS, and each step runs on bound weights.

Assertions: both give the same ids on every batch, and the decode of the
28-row batch is no slower than the reference's (best of ``REPEATS``,
alternating).  ``BENCH_decode.json`` records the per-step time at 1, 12
and 28 rows, the encoder's share of a full decode call, and the speedup
over the reference.  A per-step time is the difference of two decodes
that ``max_len`` cuts off after 1 and after ``STEPS`` steps, before any
row ends, divided by ``STEPS - 1``: the encoder and the per-call set-up
cancel, and every step runs every row.  It is the median of that
difference over the rounds, each round timing both decodes back to back,
which keeps the host's speed drift out of it.
"""

import json
import time
from functools import partial
from pathlib import Path

import numpy as np

from repro.core.bundle import SizingModel

from conftest import write_bench_json, write_result
from tests.scalar_reference import greedy_decode_stepwise

DATA = Path(__file__).resolve().parent.parent / "perfbench" / "data"

#: Batch sizes of the per-step times: batch-of-one serving, a small
#: batch, and a copilot-sweep batch of 32 less its four repeated specs.
ROW_COUNTS = (1, 12, 28)

#: Decode steps of the cut-off decodes: every row of every batch here
#: runs longer than this.
STEPS = 64

#: Best-of repeats, run alternating between the decode and the reference.
REPEATS = 5

TOPOLOGIES = ("5T-OTA", "CM-OTA", "2S-OTA")


def _batch(bundle, pool, rows):
    """Right-padded encoder ids of ``rows`` pool specs, topologies rotating."""
    sources = []
    for row in range(rows):
        topology = TOPOLOGIES[row % len(TOPOLOGIES)]
        entry = pool[topology][row // len(TOPOLOGIES)]
        text = bundle.builder(topology).encoder_text(
            entry["gain_db"], entry["f3db_hz"], entry["ugf_hz"]
        )
        sources.append(bundle.vocab.encode(bundle.bpe.encode(text)))
    width = max(len(ids) for ids in sources)
    src = np.full((rows, width), bundle.vocab.pad_id, dtype=np.int64)
    src_pad = np.ones((rows, width), dtype=bool)
    for row, ids in enumerate(sources):
        src[row, : len(ids)] = ids
        src_pad[row, : len(ids)] = False
    return src, src_pad


def _rounds(calls):
    """Wall times ``(REPEATS, len(calls))`` of the calls, run in turn."""
    times = np.empty((REPEATS, len(calls)))
    for repeat in range(REPEATS):
        for index, call in enumerate(calls):
            start = time.perf_counter()
            call()
            times[repeat, index] = time.perf_counter() - start
    return times


def _step_ms(long, short):
    """Median per-step time of decodes cut off after ``STEPS`` and 1 steps."""
    return round(float(np.median(long - short)) / (STEPS - 1) * 1e3, 4)


def test_decode_step_loop():
    bundle = SizingModel.load(DATA / "bundle")
    pool = json.loads((DATA / "pool.json").read_text())["designs"]
    model, bos, eos = bundle.transformer, bundle.vocab.bos_id, bundle.vocab.eos_id

    per_rows = {}
    for rows in ROW_COUNTS:
        src, src_pad = _batch(bundle, pool, rows)
        ids = model.greedy_decode(src, src_pad, bos, eos)
        assert ids == greedy_decode_stepwise(model, src, src_pad, bos, eos)
        assert min(len(row) for row in ids) > STEPS  # no row ends in the cut-off decodes
        decode = partial(model.greedy_decode, src, src_pad, bos, eos)
        reference = partial(greedy_decode_stepwise, model, src, src_pad, bos, eos)
        times = _rounds(
            [
                partial(decode, max_len=STEPS + 1),
                partial(decode, max_len=2),
                partial(reference, max_len=STEPS + 1),
                partial(reference, max_len=2),
            ]
        )
        per_rows[rows] = {
            "step_ms": _step_ms(times[:, 0], times[:, 1]),
            "reference_step_ms": _step_ms(times[:, 2], times[:, 3]),
        }

    # The full decode of the largest batch, the loop's last: rows end at
    # different steps.
    steps_run = [min(len(row) + 1, model.config.max_len - 1) for row in ids]
    decode_s, reference_s, encode_s = _rounds(
        [decode, reference, partial(model.encode_by_length, src, src_pad)]
    ).min(axis=0)
    speedup = reference_s / decode_s
    assert decode_s <= reference_s, (
        f"decode took {decode_s:.3f}s, the stepwise reference {reference_s:.3f}s"
    )

    rows = ROW_COUNTS[-1]
    write_result(
        "bench_decode",
        [
            *(
                f"per step, {n:2d} rows    : {v['step_ms']:.3f} ms "
                f"(reference {v['reference_step_ms']:.3f} ms)"
                for n, v in per_rows.items()
            ),
            f"decode, {rows} rows      : {decode_s * 1e3:.1f} ms (best of {REPEATS})",
            f"reference, {rows} rows   : {reference_s * 1e3:.1f} ms",
            f"speedup               : {speedup:.2f}x",
            f"encoder share         : {encode_s / decode_s:.3f}",
            f"row-steps run         : {sum(steps_run)} of {max(steps_run) * rows}",
        ],
    )
    write_bench_json(
        "decode",
        {
            "per_step_ms": {str(n): v["step_ms"] for n, v in per_rows.items()},
            "reference_per_step_ms": {
                str(n): v["reference_step_ms"] for n, v in per_rows.items()
            },
            "cutoff_steps": STEPS,
            "rows": rows,
            "decode_s": round(decode_s, 4),
            "reference_s": round(reference_s, 4),
            "speedup": round(speedup, 3),
            "encoder_share": round(encode_s / decode_s, 3),
            "row_steps": sum(steps_run),
            "reference_row_steps": max(steps_run) * rows,
            "repeats": REPEATS,
        },
    )
