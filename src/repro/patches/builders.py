"""Closed patch-surface builders.

The BIE convergence experiments (paper Fig. 9) need smooth closed surfaces
with controllable patch sizes; the flow examples need tube-like vessels.
All builders return :class:`PatchSurface` objects with outward normals.

- :func:`cube_sphere` — the unit sphere from 6 * 4**k projected cube faces.
- :func:`torus_surface` — torus from an nu x nv parametric grid.
- :func:`deformed_sphere` — apply a smooth diffeomorphism to a cube-sphere;
  with the default stretch map this produces the pill/tube vessel segments
  used by the flow examples.
- :func:`capsule_tube` — convenience wrapper: an elongated tube of given
  length/radius along an axis (a single smooth vessel segment).
"""
from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..config import NumericsOptions
from .patch import ChebPatch
from .surface import PatchSurface

_FACES = (
    # (axis that is +-1, sign, u-axis, v-axis) chosen so Xu x Xv points outward.
    (0, +1, 1, 2),
    (0, -1, 2, 1),
    (1, +1, 2, 0),
    (1, -1, 0, 2),
    (2, +1, 0, 1),
    (2, -1, 1, 0),
)


def _cube_face_patch_fn(axis: int, sign: int, ua: int, va: int,
                        lo_u: float, hi_u: float, lo_v: float, hi_v: float,
                        radius: float, center: np.ndarray,
                        warp: Optional[Callable[[np.ndarray], np.ndarray]] = None):
    def fn(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        # Map patch params to the face subsquare.
        s = lo_u + (u + 1.0) * 0.5 * (hi_u - lo_u)
        t = lo_v + (v + 1.0) * 0.5 * (hi_v - lo_v)
        pts = np.zeros((u.size, 3))
        pts[:, axis] = sign
        pts[:, ua] = s
        pts[:, va] = t
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        pts = radius * pts
        if warp is not None:
            pts = warp(pts)
        return pts + center
    return fn


def cube_sphere(refine: int = 0, radius: float = 1.0, center=(0.0, 0.0, 0.0),
                options: Optional[NumericsOptions] = None,
                warp: Optional[Callable[[np.ndarray], np.ndarray]] = None
                ) -> PatchSurface:
    """Sphere from 6 * 4**refine patches (gnomonic cube projection).

    Each cube face is split into 2**refine x 2**refine subsquares before
    projection, so the maximum patch size L decreases ~2x per refinement —
    the knob the Fig. 9 convergence study turns. ``warp`` post-composes a
    smooth map R^3 -> R^3 (applied before recentering).
    """
    opts = options or NumericsOptions()
    n = opts.patch_quad
    k = 2 ** refine
    center = np.asarray(center, float)
    patches = []
    edges = np.linspace(-1.0, 1.0, k + 1)
    for axis, sign, ua, va in _FACES:
        for i in range(k):
            for j in range(k):
                fn = _cube_face_patch_fn(axis, sign, ua, va,
                                         edges[i], edges[i + 1],
                                         edges[j], edges[j + 1],
                                         radius, center, warp)
                patches.append(ChebPatch.from_function(fn, n))
    surf = PatchSurface(patches, opts)
    if surf.volume() < 0:
        surf = surf.flip_orientation()
    return surf


def torus_surface(R: float = 2.0, r: float = 0.7, nu: int = 8, nv: int = 4,
                  center=(0.0, 0.0, 0.0),
                  options: Optional[NumericsOptions] = None) -> PatchSurface:
    """Torus split into nu x nv patches over its periodic parametrization.
    Test oracle for the patch quadrature (analytic area and volume)."""
    opts = options or NumericsOptions()
    n = opts.patch_quad
    center = np.asarray(center, float)
    patches = []
    ue = np.linspace(0.0, 2.0 * np.pi, nu + 1)
    ve = np.linspace(0.0, 2.0 * np.pi, nv + 1)

    def make(i, j):
        def fn(u, v):
            a = ue[i] + (u + 1.0) * 0.5 * (ue[i + 1] - ue[i])
            b = ve[j] + (v + 1.0) * 0.5 * (ve[j + 1] - ve[j])
            x = (R + r * np.cos(b)) * np.cos(a)
            y = (R + r * np.cos(b)) * np.sin(a)
            z = r * np.sin(b)
            return np.column_stack([x, y, z]) + center
        return fn

    for i in range(nu):
        for j in range(nv):
            patches.append(ChebPatch.from_function(make(i, j), n))
    surf = PatchSurface(patches, opts)
    if surf.volume() < 0:
        surf = surf.flip_orientation()
    return surf


def deformed_sphere(refine: int = 0, radius: float = 1.0,
                    stretch=(1.0, 1.0, 1.0), center=(0.0, 0.0, 0.0),
                    bend: float = 0.0,
                    options: Optional[NumericsOptions] = None) -> PatchSurface:
    """Cube-sphere composed with an affine stretch and an optional bend.

    ``stretch`` scales the axes (an ellipsoid / elongated tube); ``bend``
    adds the smooth shear x += bend * z^2, producing a curved vessel
    segment reminiscent of the capillaries in the paper's Fig. 1 geometry.
    """
    stretch = np.asarray(stretch, float)

    def warp(pts: np.ndarray) -> np.ndarray:
        out = pts * stretch
        if bend != 0.0:
            out = out.copy()
            out[:, 0] = out[:, 0] + bend * out[:, 2] ** 2
        return out

    return cube_sphere(refine=refine, radius=radius, center=center,
                       options=options, warp=warp)


def capsule_tube(length: float = 6.0, radius: float = 1.0, refine: int = 1,
                 axis: int = 2, center=(0.0, 0.0, 0.0), bend: float = 0.0,
                 options: Optional[NumericsOptions] = None) -> PatchSurface:
    """A smooth elongated vessel segment (pill shape) along ``axis``.

    Built as a deformed sphere: the smooth profile map z -> (L/2) z keeps
    the surface a polynomial-friendly diffeomorphic image of the sphere,
    with hemispherical-ish ends where inlet/outlet boundary conditions are
    prescribed by :mod:`repro.vessel.boundary_conditions`.
    """
    stretch = np.ones(3)
    stretch[axis] = 0.5 * length / radius
    return deformed_sphere(refine=refine, radius=radius, stretch=stretch,
                           center=center, bend=bend, options=options)
