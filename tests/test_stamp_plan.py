"""The compiled stamp plan behind the batched DC and transient kernels.

Every test compares a batched outcome with another outcome of the same
candidate, bit for bit: the scalar reference in ``tests/scalar_reference.py``
or the candidate's own batch of one.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.spice.plan as plan_module
from repro.devices import NMOS_65NM, PMOS_65NM, EKVModel, resolve_corner
from repro.spice import Circuit, ConvergenceError, run_tran_many, solve_dc_many
from repro.spice.dc import GMIN, _MNASystem
from repro.topologies import topology_by_name

from tests import scalar_reference
from tests.conftest import GOOD_WIDTHS, make_population

L = 180e-9
WARM = resolve_corner({"name": "warm", "temperature_k": 344.8})


def assert_dc_identical(reference, outcome) -> None:
    if isinstance(reference, ConvergenceError):
        assert isinstance(outcome, ConvergenceError)
        assert str(outcome) == str(reference)
        return
    assert outcome.node_voltages == reference.node_voltages
    assert outcome.source_currents == reference.source_currents
    assert outcome.iterations == reference.iterations
    assert outcome.strategy == reference.strategy
    assert outcome.operating_points == reference.operating_points


def assert_tran_identical(reference, outcome) -> None:
    if isinstance(reference, ConvergenceError):
        assert isinstance(outcome, ConvergenceError)
        assert str(outcome) == str(reference)
        return
    assert np.array_equal(outcome.waveforms, reference.waveforms)
    assert outcome.newton_iterations == reference.newton_iterations


# ----------------------------------------------------------------------
# Element edge cases against the scalar reference
# ----------------------------------------------------------------------
def diode_load(width: float) -> Circuit:
    """Diode-connected NMOS (gate tied to drain, source at ground) fed by a
    resistor, with a current source and a capacitor on the drain."""
    circuit = Circuit("diode")
    circuit.add_vsource("VDD", "vdd", "0", 1.2, ac=0.5)
    circuit.add_resistor("R", "vdd", "d", 20e3)
    circuit.add_isource("I", "d", "0", 5e-6, ac=1.0)
    circuit.add_mosfet("M", "d", "d", "0", NMOS_65NM, width, L)
    circuit.add_capacitor("C", "d", "0", 50e-15)
    return circuit


def grounded_gate_load(width: float) -> Circuit:
    """A PMOS load whose gate is ground driving a common-source NMOS, a
    floating coupling capacitor and a resistor to ground."""
    circuit = Circuit("cs")
    circuit.add_vsource("VDD", "vdd", "0", 1.2)
    circuit.add_vsource("VIN", "g", "0", 0.5, ac=1.0)
    circuit.add_mosfet("MP", "out", "0", "vdd", PMOS_65NM, 2 * width, L)
    circuit.add_mosfet("MN", "out", "g", "0", NMOS_65NM, width, L)
    circuit.add_resistor("RL", "out", "0", 200e3)
    circuit.add_capacitor("CC", "g", "out", 10e-15)
    return circuit


def resistive(value: float) -> Circuit:
    """No MOSFETs: a divider with a current source and a capacitor."""
    circuit = Circuit("divider")
    circuit.add_vsource("VIN", "in", "0", 1.0, ac=1.0)
    circuit.add_resistor("R1", "in", "mid", value)
    circuit.add_resistor("R2", "mid", "0", 3e3)
    circuit.add_isource("I", "0", "mid", 1e-5)
    circuit.add_capacitor("C", "mid", "0", 1e-12)
    return circuit


@pytest.mark.parametrize(
    "build, values",
    [
        (diode_load, [1e-6, 5e-6, 20e-6]),
        (grounded_gate_load, [1e-6, 4e-6, 9e-6]),
        (resistive, [1e3, 2e3]),
        (lambda _: Circuit("empty"), [0, 1]),
    ],
    ids=["diode-connected", "grounded-terminals", "no-mosfets", "no-unknowns"],
)
def test_edge_case_batch_matches_scalar_reference(build, values):
    circuits = [build(value) for value in values]
    batched = solve_dc_many(circuits)
    for circuit, outcome in zip(circuits, batched, strict=True):
        reference = scalar_reference.solve_dc(circuit)
        assert_dc_identical(reference, outcome)
        system = _MNASystem(circuit)
        residual, _ = scalar_reference.residual_and_jacobian(
            system, system.pack(outcome.node_voltages, outcome.source_currents), 1.0, GMIN
        )
        assert outcome.kcl_residual() == np.max(np.abs(residual[: system.n_nodes]), initial=0.0)
    for method in ("trap", "be"):
        trans = run_tran_many(batched, t_stop=20e-9, n_steps=12, method=method)
        for solution, outcome in zip(batched, trans, strict=True):
            reference = scalar_reference.run_tran(solution, t_stop=20e-9, n_steps=12, method=method)
            assert_tran_identical(reference, outcome)


# ----------------------------------------------------------------------
# A candidate's bits do not depend on its batch
# ----------------------------------------------------------------------
def test_non_preset_temperature_unchanged_by_a_tt_neighbour():
    """At 344.8 K numpy's ``ut**2`` and the C library's ``pow`` disagree in
    the last bit; each candidate's ``Ispec`` must be its own
    ``TechParams.spec_current`` whatever corners share its batch."""
    five_t = topology_by_name("5T-OTA")
    warm = five_t.build_circuit(GOOD_WIDTHS["5T-OTA"], corner=WARM)
    tt = five_t.build_circuit(GOOD_WIDTHS["5T-OTA"], corner="tt")
    guesses = [five_t.initial_guess_for(WARM), five_t.initial_guess_for("tt")]
    (alone,) = solve_dc_many([warm], initial_guess=guesses[:1])
    mixed, _ = solve_dc_many([warm, tt], initial_guess=guesses)
    assert_dc_identical(alone, mixed)
    assert_dc_identical(scalar_reference.solve_dc(warm, guesses[0]), mixed)
    (tran_alone,) = run_tran_many([alone], **five_t._tran_testbench())
    tran_mixed, _ = run_tran_many([mixed, solve_dc_many([tt])[0]], **five_t._tran_testbench())
    assert_tran_identical(tran_alone, tran_mixed)


#: DC iteration cap of the invariance property: at 5 the pool below ends
#: in plain Newton, source stepping and failure of every strategy inside
#: the same structure groups.
MAX_ITERATIONS = 5
TRAN = {"t_stop": 60e-9, "n_steps": 24}


def _pool():
    members = []
    for name, corners in (
        ("5T-OTA", ("tt", "ss", "ff", WARM)),
        ("CM-OTA", ("tt", WARM)),
        ("TELE-OTA", ("tt", "ss", WARM)),
    ):
        topology = topology_by_name(name)
        for corner in corners:
            members.append((topology, GOOD_WIDTHS[name], corner))
    five_t, tele = topology_by_name("5T-OTA"), topology_by_name("TELE-OTA")
    members.append((five_t, make_population(five_t, 1, seed=4)[0], "ss"))
    members.append((tele, make_population(tele, 3, seed=4)[2], "tt"))
    return [
        (topology.build_circuit(widths, corner=corner), topology.initial_guess_for(corner))
        for topology, widths, corner in members
    ]


POOL = _pool()


@pytest.fixture(scope="module")
def alone():
    """Each pool member's DC and transient outcome as a batch of one."""
    outcomes = []
    for circuit, guess in POOL:
        (dc,) = solve_dc_many([circuit], initial_guess=[guess], max_iterations=MAX_ITERATIONS)
        tran = dc if isinstance(dc, ConvergenceError) else run_tran_many([dc], **TRAN)[0]
        outcomes.append((dc, tran))
    return outcomes


def test_pool_covers_every_dc_outcome(alone):
    kinds = {"failed" if isinstance(dc, ConvergenceError) else dc.strategy for dc, _ in alone}
    assert kinds == {"newton", "source-stepping", "failed"}


@settings(max_examples=25, deadline=None)
@given(
    members=st.lists(
        st.integers(min_value=0, max_value=len(POOL) - 1),
        min_size=1,
        max_size=len(POOL),
        unique=True,
    )
)
def test_outcome_is_independent_of_batch_composition(alone, members):
    """Any subset of the pool, in any order: every candidate's DC solve
    and step response equal its batch-of-one outcome bit for bit."""
    circuits = [POOL[i][0] for i in members]
    guesses = [POOL[i][1] for i in members]
    dcs = solve_dc_many(circuits, initial_guess=guesses, max_iterations=MAX_ITERATIONS)
    for i, dc in zip(members, dcs, strict=True):
        assert_dc_identical(alone[i][0], dc)
    solved = [
        (i, dc) for i, dc in zip(members, dcs, strict=True) if not isinstance(dc, ConvergenceError)
    ]
    trans = run_tran_many([dc for _, dc in solved], **TRAN)
    for (i, _), tran in zip(solved, trans, strict=True):
        assert_tran_identical(alone[i][1], tran)


# ----------------------------------------------------------------------
# Shape of the kernel
# ----------------------------------------------------------------------
def test_one_device_evaluation_per_newton_iteration(monkeypatch):
    """A structure group's Newton iteration makes one fused device call,
    and no kernel calls the per-device ``EKVModel`` methods."""
    calls = []

    def counting(*args):
        calls.append(args[0].shape)
        return stamp_terms(*args)

    def forbidden(*_args, **_kwargs):
        raise AssertionError("the kernels evaluate devices through stamp_terms")

    stamp_terms = plan_module.stamp_terms
    monkeypatch.setattr(plan_module, "stamp_terms", counting)
    for method in ("drain_current", "transconductance", "output_conductance", "evaluate_all"):
        monkeypatch.setattr(EKVModel, method, forbidden)
    five_t = topology_by_name("5T-OTA")
    population = make_population(five_t, 6, seed=2)
    corners = ("tt", "ff")
    circuits = [five_t.build_circuit(w, corner=c) for w in population for c in corners]
    guesses = [five_t.initial_guess_for(c) for _ in population for c in corners]
    dcs = solve_dc_many(circuits, initial_guess=guesses)
    assert {dc.strategy for dc in dcs} == {"newton"}
    assert len(calls) == max(dc.iterations for dc in dcs)
    assert calls[0] == (len(circuits[0].mosfets), len(circuits))
    calls.clear()
    trans = run_tran_many(dcs, t_stop=40e-9, n_steps=8)
    # Each step iterates until its slowest candidate converges.
    iterations = [tran.newton_iterations for tran in trans]
    assert max(iterations) <= len(calls) <= sum(iterations)
