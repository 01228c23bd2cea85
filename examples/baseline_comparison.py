"""Compare SPICE-in-the-loop optimizers on a 5T-OTA sizing task.

Reproduces the qualitative Table IX story quantitatively on one spec
through the unified solver API: the stochastic baselines (SA / PSO / DE)
each need tens to hundreds of SPICE simulations to satisfy the same
specification the trained flow (``SizingEngine``, method ``copilot``)
satisfies with one verification simulation.  Populations are evaluated through the batched backend
(vectorized AC, amortized DC Newton) — identical results, fewer seconds.

Usage::

    python examples/baseline_comparison.py
"""

import numpy as np

from repro import solvers
from repro.core import DesignSpec
from repro.topologies import topology_by_name


def main() -> None:
    topology = topology_by_name("5T-OTA")
    # A moderately demanding spec inside the feasible region.
    reference = topology.measure({"M1": 1.0e-6, "M3": 20e-6, "M5": 5e-6}).metrics
    spec = DesignSpec(reference.gain_db, reference.f3db_hz, reference.ugf_hz)
    print(f"spec: gain >= {spec.gain_db:.1f} dB, BW >= {spec.f3db_hz / 1e6:.2f} MHz, "
          f"UGF >= {spec.ugf_hz / 1e6:.1f} MHz")
    print(f"registered solvers: {', '.join(solvers.available_solvers())}\n")

    print(f"{'solver':10s} {'success':8s} {'SPICE calls':12s} {'time [s]':10s} {'residual':10s}")
    for name in ("sa", "pso", "de"):
        solver = solvers.get(name)(topology)
        result = solver.solve(spec, budget=400, rng=np.random.default_rng(0))
        print(f"{name:10s} {str(result.success):8s} {result.spice_calls:<12d} "
              f"{result.wall_time_s:<10.2f} {result.best_value:<10.4f}")
    print("\nThe trained transformer flow is not a solver: SizingEngine serves it as "
          "method 'copilot', one size_batch request per spec, and it satisfies "
          "comparable specs with a single verification simulation "
          "(see benchmarks/bench_table9_comparison.py).")


if __name__ == "__main__":
    main()
