"""Smoke tests of ``scripts/size_ota.py`` and of the model-free examples.

The bundle and design pool under ``perfbench/data`` are read, never
written; the script's SPICE deck goes to a temporary directory.
``examples/quickstart.py`` and ``examples/batch_service.py`` are left
out: without a cached artifact they train a model first.
"""

import importlib.util
import json
import re
from pathlib import Path

import pytest

from repro.service.requests import ROUND_OUTCOMES
from repro.spice import parse_netlist

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "perfbench" / "data"

SUMMARY = re.compile(
    r"success: (True|False)  iterations: (\d+)  SPICE simulations: (\d+)  time: [\d.]+s"
)
WIDTH_LINE = re.compile(r"W\(([\w,]+)\) = ([\d.]+) um")
ROUND_LINE = re.compile(
    r"^  round (\d+): (\w+)(  gain=[\d.]+ dB  BW=[\d.]+ MHz  UGF=[\d.]+ MHz)?"
    r"(  \(repeats round (\d+)\))?$"
)


#: Model-free example -> one line its output always holds.
EXAMPLES = {
    "active_inductor_dpsfg": "Mason vs MNA transfer function: max relative error = ",
    "baseline_comparison": "solver     success  SPICE calls  time [s]   residual",
    "layout_in_the_loop": "layout iterations (no SPICE -- Mason on the DP-SFG):",
    "lut_width_estimation": "Algorithm 1 round trip (NMOS):",
}


def _load_script(name, folder="scripts"):
    spec = importlib.util.spec_from_file_location(name, ROOT / folder / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _size_pool_spec(capsys, index, *extra):
    """Exit code and output of the script on pool 5T-OTA spec ``index``."""
    entry = json.loads((DATA / "pool.json").read_text())["designs"]["5T-OTA"][index]
    exit_code = _load_script("size_ota").main([
        "--bundle", str(DATA / "bundle"),
        "--topology", "5T-OTA",
        "--gain-db", str(entry["gain_db"]),
        "--bw-mhz", str(entry["f3db_hz"] / 1e6),
        "--ugf-mhz", str(entry["ugf_hz"] / 1e6),
        *extra,
    ])
    return exit_code, capsys.readouterr().out


def test_size_ota_sizes_a_pool_spec_and_writes_a_readable_deck(tmp_path, capsys):
    deck = tmp_path / "sized.sp"
    exit_code, out = _size_pool_spec(capsys, 1, "--spice-out", str(deck))
    summary = SUMMARY.search(out)
    assert summary is not None, out
    success, iterations, simulations = (
        summary.group(1) == "True", int(summary.group(2)), int(summary.group(3))
    )
    assert exit_code == (0 if success else 1)
    assert 1 <= simulations <= iterations <= 6

    # One line per round, in order: a nominal round measures (and prints
    # the binding corner's metrics) exactly when it ends in a miss or a
    # success, and only the last round can succeed.
    rounds = [ROUND_LINE.match(line) for line in out.splitlines() if line.startswith("  round ")]
    assert all(rounds), out
    assert [int(r.group(1)) for r in rounds] == list(range(1, iterations + 1))
    outcomes = [r.group(2) for r in rounds]
    assert set(outcomes) <= set(ROUND_OUTCOMES)
    assert [bool(r.group(3)) for r in rounds] == [o in ("miss", "success") for o in outcomes]
    assert sum(o in ("miss", "success") for o in outcomes) == simulations
    assert (outcomes[-1] == "success") == success and "success" not in outcomes[:-1]

    # The deck reads back with every device at the width the script printed.
    circuit = parse_netlist(deck.read_text())
    widths = {device.name: device.width for device in circuit.mosfets}
    printed = WIDTH_LINE.findall(out)
    assert sorted(name for devices, _ in printed for name in devices.split(",")) == sorted(widths)
    for devices, micrometres in printed:
        for name in devices.split(","):
            assert widths[name] * 1e6 == pytest.approx(float(micrometres), abs=5e-4)


def test_size_ota_names_the_round_a_filled_round_repeats(capsys):
    """Pool 5T-OTA spec #2 reaches a margin-allocation fixed point in round
    2, so rounds 3 to 6 are filled in with it, and each says so."""
    exit_code, out = _size_pool_spec(capsys, 2)
    rounds = [ROUND_LINE.match(line) for line in out.splitlines() if line.startswith("  round ")]
    assert exit_code == 1 and all(rounds), out
    assert [r.group(5) for r in rounds] == [None, None, "2", "2", "2", "2"]
    assert len({r.group(2, 3) for r in rounds[1:]}) == 1


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_model_free_example_runs(name, capsys):
    _load_script(name, folder="examples").main()
    out = capsys.readouterr().out
    assert any(line.startswith(EXAMPLES[name]) for line in out.splitlines()), out
