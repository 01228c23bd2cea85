"""Tests of the benchmark itself (not part of tier-1; about 3 minutes):

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import workloads  # noqa: E402
from prep import verify  # noqa: E402


@pytest.fixture(scope="module")
def key() -> str:
    return verify()["key"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_request_files_are_a_function_of_the_seed(name, key, tmp_path, monkeypatch):
    workload = workloads.WORKLOADS[name]

    def generate(directory: str, seed: int) -> bytes:
        monkeypatch.setattr(workloads, "CACHE", tmp_path / directory)
        paths = workloads.request_files(workload, 20, seed, key)
        return paths["requests"].read_bytes() + paths["meta"].read_bytes()

    first = generate("a", 1)
    assert generate("b", 1) == first
    assert generate("a", 1) == first  # a cached file is verified and reused
    assert generate("c", 2) != first


@pytest.mark.parametrize("tampered", ["requests", "warmup"])
def test_a_cache_that_does_not_match_its_key_is_refused(tampered, key, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "CACHE", tmp_path)
    workload = workloads.WORKLOADS["copilot-sweep"]
    paths = workloads.request_files(workload, 20, 1, key)
    paths[tampered].write_text(paths[tampered].read_text().replace("5T-OTA", "CM-OTA", 1))
    with pytest.raises(SystemExit, match="does not match its key"):
        workloads.request_files(workload, 20, 1, key)


def test_the_multiset_of_specs_does_not_depend_on_the_seed(key, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "CACHE", tmp_path)
    for name, workload in workloads.WORKLOADS.items():
        runs = [
            workloads.read_jsonl(workloads.request_files(workload, 20, seed, key)["requests"])
            for seed in (1, 2)
        ]
        assert [r["id"] for r in runs[0]] != [r["id"] for r in runs[1]], name
        assert sorted(map(json.dumps, runs[0])) == sorted(map(json.dumps, runs[1])), name


def test_the_speed_probe_rescales_work_by_the_kernel_time():
    with speed.SpeedProbe(active=False) as idle:
        time.sleep(0.01)
    assert idle.reference_seconds() == idle.end - idle.start
    assert idle.probe_seconds() == 0.0
    with speed.SpeedProbe() as probe:
        deadline = time.monotonic() + 0.5
        while time.monotonic() < deadline:
            sum(range(1000))
    assert len(probe.samples) >= 5
    work = probe.end - probe.start - probe.probe_seconds()
    taken = statistics.median(end - begin for begin, end in probe.samples)
    assert probe.reference_seconds() == pytest.approx(work * speed.REFERENCE_S / taken, rel=0.25)


def run_benchmark(workload: str, trace: int) -> tuple[dict, str]:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-3000:]
    lines = completed.stdout.splitlines()
    digest = next(line for line in lines if line.startswith("digest: "))
    return json.loads(lines[-1]), digest


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_reduced_run_passes_the_checks_and_tracing_is_transparent(name):
    result, digest = run_benchmark(name, trace=0)
    assert result["correct"] and result["failed"] == 0
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in declared["end_to_end"]}
    # A traced run is correct only when its traced pass answered exactly as
    # its untraced pass did (same digest).
    traced, traced_digest = run_benchmark(name, trace=1)
    assert traced["correct"] and traced["failed"] == 0
    assert set(traced["metrics"]) == {m["name"] for m in declared["per_layer"]}
    if workloads.WORKLOADS[name].kind == "closed":  # the open loop traces one slice
        assert traced_digest == digest
