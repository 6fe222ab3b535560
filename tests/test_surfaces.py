"""Differential-geometry tests on spectral surfaces."""
import dataclasses

import numpy as np
import pytest

from repro.sph import get_transform
from repro.surfaces import (SpectralSurface, biconcave_rbc, ellipsoid,
                            seed_geometry, seed_upsampled, sphere,
                            stacked_coeffs, unit_sphere)


class TestSphereGeometry:
    def test_area_volume_exact(self):
        s = sphere(2.5, order=10)
        assert np.isclose(s.area(), 4 * np.pi * 2.5 ** 2, rtol=1e-12)
        assert np.isclose(s.volume(), 4 / 3 * np.pi * 2.5 ** 3, rtol=1e-12)

    def test_curvatures(self):
        s = sphere(2.0, order=8)
        g = s.geometry()
        assert np.allclose(g.H, -0.5, atol=1e-11)
        assert np.allclose(g.K, 0.25, atol=1e-11)

    def test_normals_outward_unit(self):
        s = sphere(1.0, center=(1.0, -1.0, 2.0), order=8)
        g = s.geometry()
        rad = (s.X - np.array([1.0, -1.0, 2.0]))
        rad /= np.linalg.norm(rad, axis=-1, keepdims=True)
        assert np.allclose(np.einsum("ijk,ijk->ij", g.normal, rad), 1.0,
                           atol=1e-10)

    def test_centroid(self):
        s = sphere(1.3, center=(0.5, 0.25, -2.0), order=10)
        assert np.allclose(s.centroid(), [0.5, 0.25, -2.0], atol=1e-10)

    def test_reduced_volume_one(self):
        assert np.isclose(unit_sphere(8).reduced_volume(), 1.0, atol=1e-12)


class TestOperators:
    def test_laplace_beltrami_eigenfunctions(self):
        R = 1.7
        s = sphere(R, order=10)
        for f, lam in [(s.X[:, :, 2], 2.0), (s.X[:, :, 0], 2.0),
                       (s.X[:, :, 0] * s.X[:, :, 1], 6.0)]:
            lb = s.laplace_beltrami(f)
            assert np.abs(lb + lam * f / R ** 2).max() < 1e-9

    def test_divergence_of_position_is_two(self):
        e = ellipsoid(1.0, 1.4, 0.8, order=12)
        dv = e.surface_divergence(e.X)
        assert np.abs(dv - 2.0).max() < 1e-9

    def test_gradient_tangent_to_surface(self):
        e = ellipsoid(1.0, 1.2, 0.9, order=10)
        g = e.geometry()
        grad = e.surface_gradient(e.X[:, :, 2])
        dot = np.einsum("ijk,ijk->ij", grad, g.normal)
        assert np.abs(dot).max() < 1e-4

    def test_integral_of_lb_vanishes(self):
        # int_Gamma Delta_gamma f dS = 0 on closed surfaces; spectral
        # convergence in the order (9.6e-6 at p=20, 0.027 at p=8).
        rbc = biconcave_rbc(order=16)
        w = rbc.quadrature_weights()
        lb = rbc.laplace_beltrami(rbc.X[:, :, 0] ** 2)
        assert abs((w * lb).sum()) < 1e-3

    def test_gradient_of_constant_zero(self):
        s = sphere(1.0, order=6)
        grad = s.surface_gradient(np.ones((s.grid.nlat, s.grid.nphi)))
        assert np.abs(grad).max() < 1e-10
        n = s.n_points
        assert s.surface_gradient_matrix().shape == (3 * n, n)
        assert s.surface_divergence_matrix().shape == (n, 3 * n)
        assert s.laplace_beltrami_matrix().shape == (n, n)


class TestShapes:
    def test_rbc_reduced_volume(self):
        rbc = biconcave_rbc(order=16)
        nu = rbc.reduced_volume()
        assert 0.55 < nu < 0.75  # biconcave discocyte ballpark

    def test_rbc_scales(self):
        r1 = biconcave_rbc(radius=1.0, order=8)
        r2 = biconcave_rbc(radius=2.0, order=8)
        assert np.isclose(r2.volume() / r1.volume(), 8.0, rtol=1e-10)

    def test_ellipsoid_volume(self):
        e = ellipsoid(1.0, 2.0, 3.0, order=12)
        assert np.isclose(e.volume(), 4 / 3 * np.pi * 6.0, rtol=1e-10)


class TestTransformsOfSurfaces:
    def test_translation(self):
        s = unit_sphere(6)
        t = s.translated([1.0, 2.0, 3.0])
        assert np.allclose(t.centroid(), [1, 2, 3], atol=1e-10)
        assert np.isclose(t.area(), s.area())

    def test_rotation_preserves_geometry(self):
        rbc = biconcave_rbc(order=10)
        th = 0.7
        R = np.array([[np.cos(th), -np.sin(th), 0],
                      [np.sin(th), np.cos(th), 0], [0, 0, 1.0]])
        r = rbc.rotated(R)
        assert np.isclose(r.area(), rbc.area(), rtol=1e-10)
        assert np.isclose(r.volume(), rbc.volume(), rtol=1e-10)

    def test_scaling(self):
        s = SpectralSurface(2.0 * unit_sphere(6).X, 6)
        assert np.isclose(s.volume(), 4 / 3 * np.pi * 8, rtol=1e-10)

    def test_upsample_exact(self):
        rbc = biconcave_rbc(order=8)
        up = rbc.upsampled(16)
        assert np.isclose(up.area(), rbc.area(), rtol=1e-4)
        assert np.isclose(up.volume(), rbc.volume(), rtol=1e-4)

    def test_set_positions_invalidates_cache(self):
        s = unit_sphere(6)
        a0 = s.area()
        s.set_positions(2.0 * s.X)
        assert np.isclose(s.area(), 4 * a0, rtol=1e-10)

    def test_quadrature_weights_integrate_area(self):
        e = ellipsoid(1.0, 1.1, 0.9, order=10)
        assert np.isclose(e.quadrature_weights().sum(), e.area(), rtol=1e-12)

    def test_point_cloud_roundtrip(self):
        s = unit_sphere(5)
        s2 = SpectralSurface(s.points, order=5)
        assert np.allclose(s2.X, s.X)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            SpectralSurface(np.zeros((4, 9, 3)), order=5)


def _stack(p, k, seed=0):
    """k perturbed, shifted RBCs of order p (distinct, non-symmetric)."""
    rng = np.random.default_rng(seed + 100 * p + k)
    base = biconcave_rbc(order=p)
    return [SpectralSurface(
        base.X * (1.0 + 0.05 * rng.standard_normal())
        + 0.02 * rng.standard_normal(base.X.shape)
        + rng.standard_normal(3), p) for _ in range(k)]


def _geometry_equal(a, b):
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name))
               for f in dataclasses.fields(a))


def _percell_fine(X, p, q):
    """The single-surface operation order, spelled out on raw transforms:
    forward SHT, padded resample, forward SHT at q, geometry."""
    T, Tq = get_transform(p), get_transform(q)
    c = T.forward(np.moveaxis(X, -1, 0))
    Xq = np.moveaxis(T.resample(c, q), 0, -1).copy()
    cq = Tq.forward(np.moveaxis(Xq, -1, 0))
    g = SpectralSurface._geometry_from_transform(Tq, cq)
    return c, Xq, cq, g, Tq.grid.weights * g.area_ratio


@pytest.mark.parametrize("p", [3, 4, 8])
@pytest.mark.parametrize("k", [1, 2, 64])
class TestStackedSeeding:
    """The stacked passes stack only batch-invariant operations, so a
    seeded cache is bit-identical to the per-cell computation (the
    64-cell benchmark scene amplifies a last-bit difference past its
    trajectory pin)."""

    def test_stacked_geometry_matches_per_cell(self, p, k):
        cells = _stack(p, k)
        T = get_transform(p)
        stacked = SpectralSurface._geometry_from_transform(
            T, stacked_coeffs(cells))
        for i, c in enumerate(cells):
            cold = SpectralSurface(c.X, p)
            assert np.array_equal(cold.coeffs(), c.coeffs())
            assert _geometry_equal(stacked.cell(i), cold.geometry())

    def test_stacked_fine_pass_matches_per_cell(self, p, k):
        cells = _stack(p, k)
        seed_upsampled(cells)
        for c in cells:
            coarse, Xq, cq, g, w = _percell_fine(c.X, p, 2 * p)
            fine = c.upsampled(2 * p)
            assert fine is c.upsampled(2 * p)        # seeded, not rebuilt
            assert np.array_equal(c.coeffs(), coarse)
            assert np.array_equal(fine.X, Xq)
            assert np.array_equal(fine.coeffs(), cq)
            assert _geometry_equal(fine.geometry(), g)
            assert np.array_equal(fine.quadrature_weights(), w)
            # ... and the stack of one goes the same way
            solo = SpectralSurface(c.X, p).upsampled(2 * p)
            assert np.array_equal(solo.X, Xq)
            assert np.array_equal(solo.quadrature_weights(), w)

    def test_seed_geometry_matches_lazy_fills(self, p, k):
        cells = _stack(p, k)
        seed_geometry(cells)
        seed_geometry(cells, aliased=True)
        for c in cells:
            assert c._geom is not None and c._up_tables is not None
            cold = SpectralSurface(c.X, p)
            assert _geometry_equal(c._geom, cold.geometry())
            Tq, gq = cold._upsampled_tables()
            assert c._up_tables[0] is Tq
            assert _geometry_equal(c._up_tables[1], gq)


class TestSeededCaches:
    def test_set_positions_drops_the_seeded_fine_surface(self):
        s = biconcave_rbc(order=4)
        fine = s.upsampled(8)
        s.set_positions(1.5 * s.X)
        assert s.upsampled(8) is not fine
        assert np.isclose(s.upsampled(8).area(), 2.25 * fine.area(),
                          rtol=1e-12)

    def test_other_order_replaces_the_cached_resampling(self):
        s = biconcave_rbc(order=4)
        assert s.upsampled(8).order == 8
        assert s.upsampled(6).order == 6

    def test_adopt_caches_only_at_identical_positions(self):
        a, b = biconcave_rbc(order=4), biconcave_rbc(order=4)
        seed_upsampled([a])
        assert b.adopt_caches(a)
        assert b.upsampled(8) is a.upsampled(8) and b._coeffs is a._coeffs
        moved = SpectralSurface(a.X + 1e-13, 4)
        assert not moved.adopt_caches(a)
        assert moved._coeffs is None and moved._fine is None

    def test_mixed_orders_are_grouped(self):
        cells = _stack(3, 2) + _stack(4, 3) + _stack(3, 1, seed=7)
        seed_upsampled(cells)
        for c in cells:
            assert c.upsampled(2 * c.order).order == 2 * c.order
            assert np.array_equal(
                c.upsampled(2 * c.order).X,
                _percell_fine(c.X, c.order, 2 * c.order)[1])
