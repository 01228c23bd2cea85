"""Command-line OTA sizing against a trained model bundle.

Examples::

    # use the benchmark artifact cache (train it first if absent)
    python scripts/size_ota.py --topology 5T-OTA \\
        --gain-db 25 --bw-mhz 5 --ugf-mhz 80

    # use a specific saved bundle directory
    python scripts/size_ota.py --bundle path/to/bundle --topology CM-OTA \\
        --gain-db 24 --bw-mhz 15 --ugf-mhz 250
"""

import argparse
import sys
from pathlib import Path

from repro.core import DesignSpec, SizingModel
from repro.core.pipeline import BENCHMARK_CONFIG, train_sizing_model
from repro.service import SizingEngine, SizingRequest
from repro.topologies import available_topologies

DEFAULT_CACHE = Path(__file__).resolve().parent.parent / "benchmarks" / ".artifact_cache"


def _metrics_text(m) -> str:
    return f"gain={m.gain_db:.2f} dB  BW={m.f3db_hz / 1e6:.3f} MHz  UGF={m.ugf_hz / 1e6:.1f} MHz"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Size an OTA with the trained transformer+LUT flow")
    parser.add_argument("--topology", required=True, choices=available_topologies())
    parser.add_argument("--gain-db", type=float, required=True, help="minimum gain in dB")
    parser.add_argument("--bw-mhz", type=float, required=True, help="minimum 3dB bandwidth in MHz")
    parser.add_argument("--ugf-mhz", type=float, required=True, help="minimum unity-gain frequency in MHz")
    parser.add_argument("--bundle", type=Path, default=None, help="saved SizingModel directory")
    parser.add_argument("--max-iterations", type=int, default=6, help="copilot iteration cap")
    parser.add_argument("--spice-out", type=Path, default=None,
                        help="write the fully sized netlist as a SPICE deck")
    args = parser.parse_args(argv)

    if args.bundle is not None:
        model = SizingModel.load(args.bundle)
    else:
        print("loading (or training) the benchmark artifact ...", file=sys.stderr)
        model = train_sizing_model(BENCHMARK_CONFIG, cache_dir=DEFAULT_CACHE).model

    engine = SizingEngine(model, cache_size=0)
    topology = engine.topology(args.topology)
    spec = DesignSpec(args.gain_db, args.bw_mhz * 1e6, args.ugf_mhz * 1e6)
    request = SizingRequest(topology=args.topology, spec=spec, max_iterations=args.max_iterations)
    (response,) = engine.size_batch([request])
    if response.error is not None:
        print(f"error: {response.error}", file=sys.stderr)
        return 2

    print(f"success: {response.success}  iterations: {response.iterations}  "
          f"SPICE simulations: {response.spice_simulations}  time: {response.wall_time_s:.2f}s")
    # One line per copilot round: how it ended, and what it measured.  A
    # round that asked for the previous round's spec was filled in once
    # margin allocation reached a fixed point: it names the round it repeats.
    origin = 0
    for number, record in enumerate(response.trace, start=1):
        if number == 1 or record.requested_spec != response.trace[number - 2].requested_spec:
            origin = number
        measured = f"  {_metrics_text(record.metrics)}" if record.metrics else ""
        repeats = f"  (repeats round {origin})" if origin < number else ""
        print(f"  round {number}: {record.outcome}{measured}{repeats}")
    if response.widths:
        for group, width in response.widths.items():
            devices = ",".join(topology.group(group).devices)
            print(f"  W({devices}) = {width * 1e6:.3f} um")
    if response.metrics:
        print(f"achieved: {_metrics_text(response.metrics)}")
    if args.spice_out is not None and response.widths:
        from repro.spice import to_spice

        deck = to_spice(topology.build(response.widths), title=f"sized {args.topology}")
        args.spice_out.write_text(deck)
        print(f"wrote SPICE deck to {args.spice_out}")
    return 0 if response.success else 1


if __name__ == "__main__":
    sys.exit(main())
