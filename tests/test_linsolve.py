"""Tests of the one linear-solve entry point (``repro.spice.linsolve``).

Two layers of guarantees:

* :func:`solve_stacked` is one stacked ``np.linalg.solve`` -- bit for bit,
  at any size, real or complex -- with a per-item ``lstsq`` recovery on
  singular batches;
* every analysis engine reaches LAPACK only through it (a single DC
  solve included, as a stack of one), and the batched measurement path
  reproduces the scalar reference (``tests/scalar_reference.py``) bit for
  bit for every registered topology at every PVT corner across all three
  analyses.
"""

import numpy as np
import pytest

import repro.spice.linsolve as linsolve
from repro.spice import solve_dc, solve_dc_many, solve_stacked
from repro.topologies import available_topologies, topology_by_name

from tests import scalar_reference
from tests.conftest import GOOD_WIDTHS, assert_measurements_identical


def _well_conditioned(shape, size, rng, complex_=False):
    """A diagonally dominated random stack: never singular, cond ~ O(1)."""
    jac = rng.standard_normal(shape + (size, size))
    if complex_:
        jac = jac + 1j * rng.standard_normal(shape + (size, size))
    jac = jac + size * np.eye(size)
    rhs = rng.standard_normal(shape + (size,))
    if complex_:
        rhs = rhs + 1j * rng.standard_normal(shape + (size,))
    return jac, rhs


class TestDenseBackend:
    def test_matches_numpy_bitwise(self, rng):
        jac, rhs = _well_conditioned((3, 4), 9, rng)
        expected = np.linalg.solve(jac, rhs[..., None])[..., 0]
        assert np.array_equal(solve_stacked(jac, rhs), expected)

    def test_dense_mode_pins_reference_at_any_size(self, rng):
        """Well past every registered topology's MNA size the solve is
        still the stacked ``np.linalg.solve`` reference."""
        size = 80
        jac, rhs = _well_conditioned((2,), size, rng)
        expected = np.linalg.solve(jac, rhs[..., None])[..., 0]
        assert np.array_equal(solve_stacked(jac, rhs), expected)

    def test_singular_batch_falls_back_per_item(self, rng):
        """One singular item must not poison the batch: the healthy items
        keep their ``np.linalg.solve`` answers, the singular one gets the
        scalar path's ``lstsq`` minimum-norm solution."""
        jac, rhs = _well_conditioned((3,), 4, rng)
        jac[1, 2] = 0.0  # zero row: an exact zero pivot for every draw
        out = solve_stacked(jac, rhs)
        for k in (0, 2):
            assert np.array_equal(out[k], np.linalg.solve(jac[k], rhs[k]))
        expected = np.linalg.lstsq(jac[1], rhs[1], rcond=None)[0]
        assert np.array_equal(out[1], expected)

    def test_complex_systems_supported(self, rng):
        jac, rhs = _well_conditioned((2, 3), 7, rng, complex_=True)
        expected = np.linalg.solve(jac, rhs[..., None])[..., 0]
        assert np.array_equal(solve_stacked(jac, rhs), expected)


class TestSolveEntryPoint:
    def test_scalar_newton_solves_through_solve_stacked(self, monkeypatch):
        """A single-candidate DC solve is a batch of one: one
        ``solve_stacked`` call per Newton iteration, on a stack of one."""
        calls = []
        real = linsolve.solve_stacked

        def spy(jac, rhs):
            calls.append(jac.shape)
            return real(jac, rhs)

        monkeypatch.setattr(linsolve, "solve_stacked", spy)
        topology = topology_by_name("5T-OTA")
        solution = solve_dc(
            topology.build(GOOD_WIDTHS["5T-OTA"]), initial_guess=topology.initial_guess()
        )
        assert solution.strategy == "newton"
        size = calls[0][-1]
        assert calls == [(1, size, size)] * solution.iterations


# ----------------------------------------------------------------------
# End-to-end parity: every topology x corner x analysis, batched vs scalar
# ----------------------------------------------------------------------
class TestTopologyParity:
    """The engines' contract with the solve entry point: the batched
    path (stacked DC Newton, the stacked AC sweep, candidate-vectorized
    transient stepping) reproduces the scalar reference ``measure`` bit
    for bit for every registered topology at every PVT corner."""

    @pytest.mark.parametrize("corner", ["tt", "ss", "ff"])
    @pytest.mark.parametrize("name", sorted(available_topologies()))
    def test_measurement_parity(self, name, corner):
        topology = topology_by_name(name)
        widths = GOOD_WIDTHS[name]
        analyses = ("dc", "ac", "tran")
        reference = scalar_reference.measure(topology, widths, corner=corner, analyses=analyses)
        sweep = topology.measure_many([widths], corners=(corner,), analyses=analyses)[0]
        assert sweep.ok
        assert_measurements_identical(reference, sweep.outcomes[0].result)


# ----------------------------------------------------------------------
# Mixed-size structure grouping through the bulk DC path
# ----------------------------------------------------------------------
class TestMixedSizeBatches:
    def test_auto_mode_bulk_path_bit_identical(self):
        """One bulk call over circuits of three different MNA sizes (plus
        a structure-sharing duplicate) solves each group on its own, bit
        for bit equal to the scalar solve of every circuit."""
        five_t = topology_by_name("5T-OTA")
        fc = topology_by_name("FC-OTA")
        tele = topology_by_name("TELE-OTA")
        wider = dict(GOOD_WIDTHS["5T-OTA"], M3=20e-6)
        plans = [
            (five_t, GOOD_WIDTHS["5T-OTA"]),
            (fc, GOOD_WIDTHS["FC-OTA"]),
            (tele, GOOD_WIDTHS["TELE-OTA"]),
            (five_t, wider),
        ]
        circuits = [topo.build(w) for topo, w in plans]
        guesses = [topo.initial_guess() for topo, _ in plans]
        references = [
            scalar_reference.solve_dc(topo.build(w), initial_guess=topo.initial_guess())
            for topo, w in plans
        ]
        solutions = solve_dc_many(circuits, initial_guess=guesses)

        sizes = {len(sol.node_voltages) for sol in solutions}
        assert len(sizes) == 3  # three distinct structures went through
        for reference, solution in zip(references, solutions, strict=True):
            assert reference.node_voltages == solution.node_voltages
