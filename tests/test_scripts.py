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

from repro.spice import parse_netlist

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "perfbench" / "data"

SUMMARY = re.compile(
    r"success: (True|False)  iterations: (\d+)  SPICE simulations: (\d+)  time: [\d.]+s"
)
WIDTH_LINE = re.compile(r"W\(([\w,]+)\) = ([\d.]+) um")


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


def test_size_ota_sizes_a_pool_spec_and_writes_a_readable_deck(tmp_path, capsys):
    entry = json.loads((DATA / "pool.json").read_text())["designs"]["5T-OTA"][1]
    deck = tmp_path / "sized.sp"
    exit_code = _load_script("size_ota").main([
        "--bundle", str(DATA / "bundle"),
        "--topology", "5T-OTA",
        "--gain-db", str(entry["gain_db"]),
        "--bw-mhz", str(entry["f3db_hz"] / 1e6),
        "--ugf-mhz", str(entry["ugf_hz"] / 1e6),
        "--spice-out", str(deck),
    ])
    out = capsys.readouterr().out
    summary = SUMMARY.search(out)
    assert summary is not None, out
    success, iterations, simulations = (
        summary.group(1) == "True", int(summary.group(2)), int(summary.group(3))
    )
    assert exit_code == (0 if success else 1)
    assert 1 <= simulations <= iterations <= 6

    # The deck reads back with every device at the width the script printed.
    circuit = parse_netlist(deck.read_text())
    widths = {device.name: device.width for device in circuit.mosfets}
    printed = WIDTH_LINE.findall(out)
    assert sorted(name for devices, _ in printed for name in devices.split(",")) == sorted(widths)
    for devices, micrometres in printed:
        for name in devices.split(","):
            assert widths[name] * 1e6 == pytest.approx(float(micrometres), abs=5e-4)


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_model_free_example_runs(name, capsys):
    _load_script(name, folder="examples").main()
    out = capsys.readouterr().out
    assert any(line.startswith(EXAMPLES[name]) for line in out.splitlines()), out
