"""Spherical-harmonic substrate for RBC surface representation.

RBC surfaces are closed genus-0 surfaces represented by spherical-harmonic
(SH) expansions of the three coordinate functions, sampled on a standard
latitude-longitude grid (paper Sec. 2.2: Gauss-Legendre colatitudes x uniform
longitudes). This subpackage provides

- :class:`SphGrid` — the (p+1) x (2p+2) sampling grid with quadrature
  weights exact for band-limited integrands,
- forward/inverse spherical-harmonic transforms (:class:`SHTransform`),
- spectral differentiation in both angles,
- synthesis at arbitrary points on the sphere (used by the rotation-based
  singular quadrature of [48]/[14] cited in the paper),
- band-limited upsampling between grids of different order.
"""
from .grid import SphGrid
from .alp import normalized_alp, normalized_alp_theta_derivative
from .transform import SHTransform, get_transform
from .rotation import rotated_sphere_points, rotation_matrix_to_pole

__all__ = [
    "SphGrid",
    "SHTransform",
    "get_transform",
    "normalized_alp",
    "normalized_alp_theta_derivative",
    "rotated_sphere_points",
    "rotation_matrix_to_pole",
]
