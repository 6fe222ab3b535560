"""Closed genus-0 spectral surfaces (RBC membranes).

:class:`SpectralSurface` wraps a spherical-harmonic position field with
differential-geometry quantities (metric, normals, curvatures, surface
differential operators) computed spectrally with 2x anti-aliasing.
:mod:`repro.surfaces.shapes` provides the reference shapes used in the
paper's experiments (spheres of varied radii from the filling algorithm,
the biconcave RBC rest shape, ellipsoids for convergence studies).
"""
from .spectral_surface import (SpectralSurface, SurfaceGeometry,
                               seed_geometry, seed_upsampled, stacked_coeffs)
from .shapes import biconcave_rbc, ellipsoid, unit_sphere, sphere

__all__ = [
    "SpectralSurface",
    "SurfaceGeometry",
    "biconcave_rbc",
    "ellipsoid",
    "unit_sphere",
    "sphere",
    "seed_geometry",
    "seed_upsampled",
    "stacked_coeffs",
]
