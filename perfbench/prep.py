"""Build the benchmark's fixed inputs: the trained bundle and the spec pool.

    PYTHONPATH=src python3 perfbench/prep.py            # bundle (~15 min on 2 cores) + pool
    PYTHONPATH=src python3 perfbench/prep.py --pool-only

Both artifacts are committed under ``perfbench/data`` so that every checkout
-- the parent commit's and the change's -- reads the same bytes and no run
pays for training.  ``manifest.json`` keys them by a hash of the two configs
below plus the files' own hashes; ``run.py`` refuses to start when either no
longer matches, so an edited config cannot silently run on stale artifacts.

The bundle is trained once through the public ``train_sizing_model`` at the
CLI's default dtype (float32) and covers the paper's three topologies, so
the copilot decode fuses across topologies.  This configuration ends every
decode on EOS and sizes some unseen specs successfully.  Smaller ones lose
one of the two: the 40-s verify-recipe bundle never emits EOS, and a
150/100/100-design bundle met none of 16 5T specs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import sys
import time
from pathlib import Path

from workloads import BUNDLE_DIR, DATA, MANIFEST_FILE, POOL_FILE, TRAN_FIELDS

#: ``python -m repro train --designs 5T-OTA=300 CM-OTA=200 2S-OTA=200
#: --epochs 30 --d-model 64 --num-merges 800`` (dtype float32, seed 0).
BUNDLE_CONFIG = {
    "designs_per_topology": [["5T-OTA", 300], ["CM-OTA", 200], ["2S-OTA", 200]],
    "epochs": 30,
    "seed": 0,
    "d_model": 64,
    "num_merges": 800,
    "dtype": "float32",
}

#: Unseen in-distribution specs: the training sampled from seed 0.
POOL_CONFIG = {
    "seed": 20_250_317,
    "icmr_margin": 0.05,
    "designs": {"5T-OTA": 320, "CM-OTA": 160, "2S-OTA": 160, "FC-OTA": 40, "TELE-OTA": 40},
    "tran_topology": "5T-OTA",
}


def prep_key() -> str:
    payload = json.dumps({"bundle": BUNDLE_CONFIG, "pool": POOL_CONFIG}, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def bundle_sha256() -> dict[str, str]:
    return {p.name: file_sha256(p) for p in sorted(BUNDLE_DIR.iterdir()) if p.is_file()}


def verify() -> dict:
    """The manifest, after checking that every artifact matches its key."""
    if not MANIFEST_FILE.exists():
        raise SystemExit(f"missing {MANIFEST_FILE}: run perfbench/prep.py")
    manifest = json.loads(MANIFEST_FILE.read_text())
    if manifest.get("key") != prep_key():
        raise SystemExit("perfbench/data was built for another config: rerun perfbench/prep.py")
    if not BUNDLE_DIR.is_dir() or manifest.get("bundle_sha256") != bundle_sha256():
        raise SystemExit(f"{BUNDLE_DIR} does not match the manifest: rerun perfbench/prep.py")
    if not POOL_FILE.exists() or manifest.get("pool_sha256") != file_sha256(POOL_FILE):
        raise SystemExit(f"{POOL_FILE} does not match the manifest: rerun perfbench/prep.py")
    return manifest


def build_bundle() -> float:
    from repro.core.pipeline import PipelineConfig, train_sizing_model

    config = dict(BUNDLE_CONFIG)
    config["designs_per_topology"] = tuple(tuple(p) for p in config["designs_per_topology"])
    start = time.monotonic()
    artifacts = train_sizing_model(PipelineConfig(**config), log=print)
    artifacts.model.save(BUNDLE_DIR)
    return time.monotonic() - start


def _quantized(entry: dict) -> tuple:
    return tuple(float(f"{entry[name]:.3g}") for name in sorted(entry))


def build_pool() -> float:
    import numpy as np

    from repro.datagen import DesignFilter, generate_dataset
    from repro.topologies import topology_by_name

    start = time.monotonic()
    rng = np.random.default_rng(POOL_CONFIG["seed"])
    designs = {}
    for name, count in POOL_CONFIG["designs"].items():
        topology = topology_by_name(name)
        design_filter = DesignFilter(topology, icmr_margin=POOL_CONFIG["icmr_margin"])
        entries, seen = [], set()
        while len(entries) < count:
            dataset = generate_dataset(topology, count - len(entries), rng, design_filter=design_filter)
            records = dataset.records
            tran = [None] * len(records)
            if name == POOL_CONFIG["tran_topology"]:
                outcomes = topology.measure_many(
                    [r.widths for r in records], analyses=("dc", "ac", "tran")
                )
                tran = [o.result.metrics if o.ok else None for o in outcomes]
            for record, metrics in zip(records, tran, strict=True):
                entry = {"gain_db": record.gain_db, "f3db_hz": record.f3db_hz, "ugf_hz": record.ugf_hz}
                if name == POOL_CONFIG["tran_topology"]:
                    values = {f: getattr(metrics, f) if metrics else None for f in TRAN_FIELDS}
                    if not all(v is not None and math.isfinite(v) for v in values.values()):
                        continue
                    # A ceiling must be positive: a monotone step has no overshoot target.
                    entry.update({f: v for f, v in values.items() if v > 0})
                key = _quantized(entry)
                if key not in seen and len(entries) < count:
                    seen.add(key)
                    entries.append(entry)
        designs[name] = entries
        print(f"pool: {name} {len(entries)} specs")
    POOL_FILE.write_text(json.dumps({"key": prep_key(), "designs": designs}, indent=1) + "\n")
    return time.monotonic() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pool-only", action="store_true",
                        help="keep the committed bundle and rebuild only the spec pool")
    args = parser.parse_args()
    DATA.mkdir(exist_ok=True)
    previous = json.loads(MANIFEST_FILE.read_text()) if MANIFEST_FILE.exists() else {}
    if args.pool_only:
        bundle_seconds = previous["prep"]["bundle_seconds"]
    else:
        bundle_seconds = build_bundle()
    pool_seconds = build_pool()
    import numpy

    manifest = {
        "key": prep_key(),
        "bundle_sha256": bundle_sha256(),
        "pool_sha256": file_sha256(POOL_FILE),
        "prep": {
            "bundle_seconds": round(bundle_seconds, 1),
            "pool_seconds": round(pool_seconds, 1),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
    }
    MANIFEST_FILE.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print(json.dumps(manifest["prep"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
