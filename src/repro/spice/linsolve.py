"""The one linear-solve entry point of the MNA kernels.

Every analysis engine (DC Newton, the AC ``Y(jw)`` sweep, transient time
stepping) bottoms out in the same operation: solve a stack of square MNA
systems that share one structure while only the matrix values differ --
across candidates, Newton iterations, time steps and the whole frequency
grid.  :func:`solve_stacked` owns that operation so the engines never
touch a LAPACK call directly: one stacked ``np.linalg.solve``, with a
per-item ``lstsq`` recovery when the batch holds a singular system.
"""

from __future__ import annotations

import numpy as np

__all__ = ["solve_stacked"]


def solve_stacked(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``jac @ x = rhs`` over arbitrary leading stack dimensions.

    ``jac`` has shape ``(..., size, size)`` and ``rhs`` the matching
    ``(..., size)``; real and complex systems are both supported.  A
    singular item must not poison the batch: on ``LinAlgError`` every
    item is solved on its own, and the singular ones get the
    minimum-norm ``lstsq`` solution.
    """
    try:
        return np.linalg.solve(jac, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        size = jac.shape[-1]
        flat_jac = jac.reshape(-1, size, size)
        flat_rhs = rhs.reshape(-1, size)
        out = np.empty_like(flat_rhs)
        for k in range(flat_jac.shape[0]):
            try:
                out[k] = np.linalg.solve(flat_jac[k], flat_rhs[k])
            except np.linalg.LinAlgError:
                out[k] = np.linalg.lstsq(flat_jac[k], flat_rhs[k], rcond=None)[0]
        return out.reshape(rhs.shape)
