"""The compiled stamp plan behind the batched DC, AC and transient kernels.

Every test compares a batched outcome with another outcome of the same
candidate, bit for bit: the scalar reference in ``tests/scalar_reference.py``
or the candidate's own batch of one.  The reference shares no assembly
code with the plan (:func:`test_scalar_reference_shares_no_kernel_code`).
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.spice.ac as ac_module
import repro.spice.plan as plan_module
from repro.devices import NMOS_65NM, PMOS_65NM, EKVModel, resolve_corner
from repro.spice import (
    Circuit,
    ConvergenceError,
    linsolve,
    run_ac_many,
    run_tran_many,
    solve_dc_many,
)
from repro.spice.dc import GMIN
from repro.topologies import available_topologies, topology_by_name

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


def assert_ac_identical(reference, outcome) -> None:
    assert outcome.node_names == reference.node_names
    assert np.array_equal(outcome.frequencies, reference.frequencies)
    # array_equal would call +0.0 and -0.0 equal; the raw bytes would not.
    assert outcome.phasors.tobytes() == reference.phasors.tobytes()


# ----------------------------------------------------------------------
# The reference is independent of the kernels it checks
# ----------------------------------------------------------------------
#: Private ``repro.spice`` names the reference may share: the transient's
#: time grid and step coefficient, which build no matrix.
SHARED_PRIVATE = {"_grid", "_step_coef"}
KERNEL_NAMES = {"stamp_terms", "operating_point_arrays", "DeviceArrays"}


def test_scalar_reference_shares_no_kernel_code():
    """A parity test whose reference imports the kernel's own assembly
    compares the kernel with itself: the reference imports no stamp plan,
    no fused device kernel and no private ``repro.spice`` name beyond
    :data:`SHARED_PRIVATE`."""
    tree = ast.parse((Path(__file__).parent / "scalar_reference.py").read_text())
    imported = []  # (module, imported name, local name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(alias.name, alias.name, alias.asname) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [
                (node.module or "", alias.name, alias.asname or alias.name) for alias in node.names
            ]
    assert imported
    spice_locals = set()
    for module, name, local in imported:
        assert not module.startswith("repro.spice.plan") and name != "plan", (module, name)
        assert name.rsplit(".", 1)[-1] not in KERNEL_NAMES, (module, name)
        if module.startswith("repro.spice"):
            assert not name.startswith("_") or name in SHARED_PRIVATE, (module, name)
            spice_locals.add(local)
    # Nor does it reach a private name through an imported module or class.
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in spice_locals and node.attr.startswith("_"):
                assert node.attr in SHARED_PRIVATE, (node.value.id, node.attr)


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
        system = scalar_reference.MNASystem(circuit)
        residual, _ = scalar_reference.residual_and_jacobian(
            system, system.pack(outcome.node_voltages, outcome.source_currents), 1.0, GMIN
        )
        assert outcome.kcl_residual() == np.max(np.abs(residual[: system.n_nodes]), initial=0.0)
    for solution, outcome in zip(batched, run_ac_many(batched), strict=True):
        assert_ac_identical(scalar_reference.run_ac(solution), outcome)
    for method in ("trap", "be"):
        trans = run_tran_many(batched, t_stop=20e-9, n_steps=12, method=method)
        for solution, outcome in zip(batched, trans, strict=True):
            reference = scalar_reference.run_tran(solution, t_stop=20e-9, n_steps=12, method=method)
            assert_tran_identical(reference, outcome)


def test_voltage_source_names_are_structure():
    """The plan names each branch current after its group's voltage
    sources, so circuits that differ only in a source's name never share
    a group."""
    circuits = [grounded_gate_load(2e-6), grounded_gate_load(2e-6)]
    renamed = circuits[1].vsource("VIN")
    renamed.name = "VX"
    first, second = solve_dc_many(circuits)
    assert set(first.source_currents) == {"VDD", "VIN"}
    assert set(second.source_currents) == {"VDD", "VX"}
    assert second.source_currents["VX"] == first.source_currents["VIN"]


# ----------------------------------------------------------------------
# AC assembly against the reference
# ----------------------------------------------------------------------
CORNERS = ("tt", "ss", "ff")


def _linearized_pool():
    """Every registered topology at tt/ss/ff, over its known-good widths
    and a few random ones, solved by the batched DC kernel."""
    solutions = []
    for name in available_topologies():
        topology = topology_by_name(name)
        population = [GOOD_WIDTHS[name], *make_population(topology, 11, seed=5)]
        circuits = [topology.build_circuit(w, corner=c) for w in population for c in CORNERS]
        guesses = [topology.initial_guess_for(c) for _ in population for c in CORNERS]
        solutions += [
            dc
            for dc in solve_dc_many(circuits, initial_guess=guesses)
            if not isinstance(dc, ConvergenceError)
        ]
    return solutions


def test_ac_matches_scalar_reference_on_every_topology_and_corner():
    """The AC contract: the stacked sweep of every topology x corner equals
    the reference's element-by-element stamps and per-candidate sweep, bit
    for bit.  The digests cannot see the order of ``G``'s and ``C``'s
    terms (a design's metrics rarely move by one ulp), so this test is
    what pins it."""
    solutions = _linearized_pool()
    assert len(solutions) == len(available_topologies()) * len(CORNERS) * 12
    for solution, outcome in zip(solutions, run_ac_many(solutions), strict=True):
        assert_ac_identical(scalar_reference.run_ac(solution), outcome)


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
    """Each pool member's DC, AC and transient outcome as a batch of one."""
    outcomes = []
    for circuit, guess in POOL:
        (dc,) = solve_dc_many([circuit], initial_guess=[guess], max_iterations=MAX_ITERATIONS)
        if isinstance(dc, ConvergenceError):
            outcomes.append((dc, dc, dc))
        else:
            outcomes.append((dc, run_ac_many([dc])[0], run_tran_many([dc], **TRAN)[0]))
    return outcomes


def test_pool_covers_every_dc_outcome(alone):
    kinds = {"failed" if isinstance(dc, ConvergenceError) else dc.strategy for dc, _, _ in alone}
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
    """Any subset of the pool, in any order: every candidate's DC solve,
    AC sweep and step response equal its batch-of-one outcome bit for
    bit."""
    circuits = [POOL[i][0] for i in members]
    guesses = [POOL[i][1] for i in members]
    dcs = solve_dc_many(circuits, initial_guess=guesses, max_iterations=MAX_ITERATIONS)
    for i, dc in zip(members, dcs, strict=True):
        assert_dc_identical(alone[i][0], dc)
    solved = [
        (i, dc) for i, dc in zip(members, dcs, strict=True) if not isinstance(dc, ConvergenceError)
    ]
    acs = run_ac_many([dc for _, dc in solved])
    for (i, _), ac in zip(solved, acs, strict=True):
        assert_ac_identical(alone[i][1], ac)
    trans = run_tran_many([dc for _, dc in solved], **TRAN)
    for (i, _), tran in zip(solved, trans, strict=True):
        assert_tran_identical(alone[i][2], tran)


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


def test_one_plan_and_one_stacked_solve_per_ac_structure(monkeypatch):
    """One ``run_ac_many`` call over candidates of one structure compiles
    one linearized plan, assembles every candidate's ``G`` and ``C`` in one
    call, and solves one stack: no candidate is assembled on its own."""
    plans, assemblies, stacks = [], [], []

    class CountingPlan(plan_module.StampPlan):
        def __init__(self, circuits, solutions=None):
            plans.append(len(circuits))
            super().__init__(circuits, solutions)

        def small_signal_matrices(self):
            matrices = super().small_signal_matrices()
            assemblies.append(matrices[0].shape)
            return matrices

    solve_stacked = linsolve.solve_stacked

    def counting_solve(jac, rhs):
        stacks.append(jac.shape)
        return solve_stacked(jac, rhs)

    five_t = topology_by_name("5T-OTA")
    population = make_population(five_t, 6, seed=2)
    circuits = [five_t.build_circuit(w, corner=c) for w in population for c in CORNERS]
    guesses = [five_t.initial_guess_for(c) for _ in population for c in CORNERS]
    dcs = solve_dc_many(circuits, initial_guess=guesses)
    monkeypatch.setattr(ac_module, "StampPlan", CountingPlan)
    monkeypatch.setattr(linsolve, "solve_stacked", counting_solve)
    frequencies = np.logspace(0, 10, 21)
    results = run_ac_many(dcs, frequencies)
    size = len(results[0].node_names) + len(circuits[0].vsources)
    assert plans == [len(circuits)]
    assert assemblies == [(len(circuits), size, size)]
    assert stacks == [(len(circuits), len(frequencies), size, size)]
