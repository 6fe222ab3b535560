"""Tensor-product polynomial patch infrastructure for the vessel boundary.

The domain boundary Gamma is a collection of non-overlapping high-order
tensor-product polynomial patches P_i : [-1,1]^2 -> R^3 (paper Sec. 3.1),
each sampled at Clenshaw-Curtis quadrature points. This subpackage provides
the patch representation (:class:`ChebPatch`), assembled surfaces
(:class:`PatchSurface`), closed-geometry builders (cube-sphere, torus,
deformed tubes), exact polynomial subdivision (the fine discretization and
weak-scaling refinement), the p4est-substitute forest of quadtrees, and the
batched Newton closest-point search of Sec. 3.3.
"""
from .patch import ChebPatch, cheb_diff_matrix
from .surface import PatchSurface
from .builders import (
    cube_sphere,
    torus_surface,
    deformed_sphere,
    capsule_tube,
)
from .closest_point import closest_point_on_patch, ClosestPointResult, surface_closest_point
from .forest import QuadForest, PatchNode

__all__ = [
    "ChebPatch",
    "cheb_diff_matrix",
    "PatchSurface",
    "cube_sphere",
    "torus_surface",
    "deformed_sphere",
    "capsule_tube",
    "closest_point_on_patch",
    "surface_closest_point",
    "ClosestPointResult",
    "QuadForest",
    "PatchNode",
]
