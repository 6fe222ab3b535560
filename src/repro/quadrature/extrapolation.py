"""1-D polynomial extrapolation stencils for the check-point scheme.

Step 5 of the singular/near-singular quadrature (paper Sec. 3.1) extrapolates
velocities from the check points ``c_i = y - (R + i r) n`` back to the target
``x`` at (signed) distance ``d`` from the surface along the same normal. With
check points at parameters ``t_i = R + i r`` and the target at ``t = d``,
the weights ``e_q`` are those of Lagrange extrapolation.
"""
from __future__ import annotations

import numpy as np

from .interpolation import barycentric_matrix, barycentric_weights


def extrapolation_weights(R: float, r: float, p: int,
                          target_t: "float | np.ndarray" = 0.0) -> np.ndarray:
    """Weights ``e_q`` of the (p+1)-point extrapolation to ``target_t``.

    Check points live at ``t_i = R + i * r`` for ``i = 0..p``; the target is
    at parameter ``target_t`` (0 for an on-surface target; positive values
    are points between the surface and the first check point). The returned
    weights satisfy ``u(target) = sum_q e_q u(c_q)`` exactly for polynomials
    of degree ``p``. An array ``target_t`` of shape ``(m,)`` gives one row
    of weights per target, shape ``(m, p+1)``. The weights depend only on
    ``r / R`` and ``target_t / R``, so targets at different scales share
    one call through ``extrapolation_weights(1, r / R, p, target_t / R)``.
    """
    if p < 0:
        raise ValueError("extrapolation order p must be non-negative")
    t = R + r * np.arange(p + 1, dtype=float)
    M = barycentric_matrix(t, np.atleast_1d(np.asarray(target_t, float)),
                           barycentric_weights(t))
    return M[0] if np.ndim(target_t) == 0 else M
