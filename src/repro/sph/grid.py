"""Latitude-longitude sampling grid for spherical-harmonic surfaces."""
from __future__ import annotations

import numpy as np

from ..analysis.guard import (PER_ORDER_CACHE_SIZE, freeze_attributes,
                              locked_cache)
from ..quadrature import gauss_legendre


class SphGrid:
    """The standard SH sampling grid of order ``p``.

    ``nlat = p + 1`` Gauss-Legendre nodes in ``cos(theta)`` (theta is the
    colatitude, 0 at the north pole) and ``nphi = 2 p + 2`` uniform
    longitudes. Quadrature with the stored weights is exact for spherical
    polynomials of degree ``<= 2p + 1`` in theta and band limit ``p + 1`` in
    phi, which makes the forward transform of band-limited data exact.

    Fields on the grid are stored as arrays of shape ``(nlat, nphi)`` (theta
    index first); point clouds are the row-major flattening of that layout.
    """

    def __init__(self, order: int):
        if order < 1:
            raise ValueError("SH order must be >= 1")
        self.order = int(order)
        self.nlat = self.order + 1
        self.nphi = 2 * self.order + 2
        x, w = gauss_legendre(self.nlat)
        # Descending in x = cos(theta) => ascending in theta from pole.
        idx = np.argsort(-x)
        self.cos_theta = x[idx]
        self.glw = w[idx]
        self.theta = np.arccos(np.clip(self.cos_theta, -1.0, 1.0))
        self.sin_theta = np.sin(self.theta)
        self.phi = 2.0 * np.pi * np.arange(self.nphi) / self.nphi
        #: quadrature weight of each grid point for integration over S^2
        #: with the standard measure sin(theta) dtheta dphi; the sin(theta)
        #: Jacobian is already folded into the Gauss-Legendre weights since
        #: they integrate in x = cos(theta).
        self.weights = np.outer(self.glw, np.full(self.nphi, 2.0 * np.pi / self.nphi))
        # Instances are shared through get_grid's cache: mark every table
        # read-only so a caller mutating one would fail loudly instead of
        # corrupting all other users of this order.
        freeze_attributes(self)

    @property
    def n_points(self) -> int:
        return self.nlat * self.nphi

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """Return (theta, phi) meshgrid arrays of shape (nlat, nphi)."""
        return np.meshgrid(self.theta, self.phi, indexing="ij")

    def points_unit_sphere(self) -> np.ndarray:
        """Cartesian coordinates of the grid points on the unit sphere,
        shape ``(n_points, 3)`` in row-major (theta-first) order."""
        T, P = self.mesh()
        st = np.sin(T)
        pts = np.stack([st * np.cos(P), st * np.sin(P), np.cos(T)], axis=-1)
        return pts.reshape(-1, 3)

    def integrate(self, f: np.ndarray) -> float | np.ndarray:
        """Integrate a field over the unit sphere measure.

        ``f`` may have shape ``(nlat, nphi)`` or ``(nlat, nphi, k)``.
        """
        f = np.asarray(f)
        if f.shape[:2] != (self.nlat, self.nphi):
            raise ValueError("field shape does not match grid")
        return np.tensordot(self.weights, f, axes=([0, 1], [0, 1]))


@locked_cache(maxsize=PER_ORDER_CACHE_SIZE)
def get_grid(order: int) -> SphGrid:
    """Cached grid accessor (grids are immutable; bound and build-locking
    per the shared-table cache policy in :mod:`repro.analysis.guard`)."""
    return SphGrid(order)
