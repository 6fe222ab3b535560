"""Spherical-harmonic transform tests (exactness against scipy)."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import sph_harm_y

from repro.sph import SHTransform, get_transform
from repro.sph.alp import (
    normalized_alp,
    normalized_alp_theta_derivative,
    normalized_alp_theta_derivative2,
)
from repro.sph.grid import SphGrid
from repro.sph.rotation import rotated_sphere_points, rotation_matrix_to_pole


def random_real_coeffs(p, seed=0):
    rng = np.random.default_rng(seed)
    c = np.zeros((p + 1, 2 * p + 1), dtype=complex)
    for l in range(p + 1):
        c[l, p] = rng.normal()
        for m in range(1, l + 1):
            c[l, p + m] = rng.normal() + 1j * rng.normal()
            c[l, p - m] = (-1) ** m * np.conj(c[l, p + m])
    return c


class TestGrid:
    def test_shape_and_weights(self):
        g = SphGrid(8)
        assert g.nlat == 9 and g.nphi == 18
        assert np.isclose(g.weights.sum(), 4 * np.pi)

    def test_quadrature_exact_for_harmonics(self):
        g = SphGrid(6)
        T, P = g.mesh()
        # int Y_2^0 over sphere = 0; int |Y_2^1|^2 = 1
        Y = sph_harm_y(2, 1, T, P)
        assert np.isclose(g.integrate(np.abs(Y) ** 2), 1.0)
        assert np.isclose(g.integrate(sph_harm_y(2, 0, T, P).real), 0.0,
                          atol=1e-14)

    def test_points_on_unit_sphere(self):
        g = SphGrid(5)
        pts = g.points_unit_sphere()
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            SphGrid(0)


class TestALP:
    def test_against_scipy(self):
        x = np.array([-0.7, 0.0, 0.31, 0.9])
        P = normalized_alp(5, x)
        theta = np.arccos(x)
        for l in range(6):
            for m in range(l + 1):
                ref = sph_harm_y(l, m, theta, np.zeros_like(theta)).real
                assert np.allclose(P[l, m], ref, atol=1e-12), (l, m)

    def test_theta_derivative_fd(self):
        x = np.array([0.3])
        theta = float(np.arccos(x)[0])
        _, dP = normalized_alp_theta_derivative(6, x)
        h = 1e-6
        Pp = normalized_alp(6, np.array([np.cos(theta + h)]))
        Pm = normalized_alp(6, np.array([np.cos(theta - h)]))
        fd = (Pp - Pm) / (2 * h)
        assert np.allclose(dP, fd, atol=1e-6)

    def test_second_derivative_fd(self):
        x = np.array([0.12])
        theta = float(np.arccos(x)[0])
        _, _, d2P = normalized_alp_theta_derivative2(5, x)
        h = 1e-4
        P0 = normalized_alp(5, np.array([np.cos(theta)]))
        Pp = normalized_alp(5, np.array([np.cos(theta + h)]))
        Pm = normalized_alp(5, np.array([np.cos(theta - h)]))
        fd = (Pp - 2 * P0 + Pm) / h ** 2
        assert np.allclose(d2P, fd, atol=1e-5)

    def test_pole_rejected_for_derivatives(self):
        with pytest.raises(ValueError):
            normalized_alp_theta_derivative(3, np.array([1.0]))


class TestTransform:
    @pytest.mark.parametrize("p", [4, 8, 12])
    def test_roundtrip(self, p):
        c = random_real_coeffs(p)
        T = SHTransform(p)
        assert np.abs(T.forward(T.inverse(c)) - c).max() < 1e-12

    def test_single_harmonic_isolated(self):
        p = 7
        T = SHTransform(p)
        TH, PH = T.grid.mesh()
        Y = sph_harm_y(3, -2, TH, PH)
        c = T.forward(Y.real) + 1j * T.forward(Y.imag)
        expect = np.zeros_like(c)
        expect[3, p - 2] = 1.0
        assert np.abs(c - expect).max() < 1e-12
        assert T.forward(Y.real).dtype == np.complex128
        with pytest.raises(ValueError):
            T.forward(np.ones(7))

    def test_evaluate_matches_grid(self):
        p = 6
        T = SHTransform(p)
        c = random_real_coeffs(p, seed=3)
        f = T.inverse(c)
        TH, PH = T.grid.mesh()
        vals = T.evaluate(c, TH.ravel(), PH.ravel())
        assert np.allclose(vals, f.ravel(), atol=1e-11)

    @pytest.mark.parametrize("which", ["theta", "phi", "theta2", "thetaphi", "phi2"])
    def test_derivative_grid_fd(self, which):
        p = 6
        T = SHTransform(p)
        c = random_real_coeffs(p, seed=5)
        TH, PH = T.grid.mesh()
        d = T.derivative_grid(c, which).ravel()
        h = 1e-5
        def ev(th, ph):
            return T.evaluate(c, th, ph)
        th, ph = TH.ravel(), PH.ravel()
        if which == "theta":
            fd = (ev(th + h, ph) - ev(th - h, ph)) / (2 * h)
        elif which == "phi":
            fd = (ev(th, ph + h) - ev(th, ph - h)) / (2 * h)
        elif which == "theta2":
            fd = (ev(th + h, ph) - 2 * ev(th, ph) + ev(th - h, ph)) / h ** 2
        elif which == "phi2":
            fd = (ev(th, ph + h) - 2 * ev(th, ph) + ev(th, ph - h)) / h ** 2
        else:
            fd = (ev(th + h, ph + h) - ev(th + h, ph - h)
                  - ev(th - h, ph + h) + ev(th - h, ph - h)) / (4 * h * h)
        assert np.abs(d - fd).max() < 2e-4

    def test_upsample_preserves_coeffs(self):
        p = 5
        c = random_real_coeffs(p, seed=7)
        T = SHTransform(p)
        f16 = T.resample(c, 11)
        c16 = SHTransform(11).forward(f16)
        assert np.abs(c16[:p + 1, 11 - p:11 + p + 1] - c).max() < 1e-12

    @given(st.integers(min_value=2, max_value=9))
    @settings(max_examples=10, deadline=None)
    def test_property_roundtrip_any_order(self, p):
        c = random_real_coeffs(p, seed=p)
        T = SHTransform(p)
        assert np.abs(T.forward(T.inverse(c)) - c).max() < 1e-11

    def test_get_transform_cached_identity_and_roundtrip(self):
        T = get_transform(7)
        assert T is get_transform(7)
        assert T.grid is get_transform(7).grid
        c = random_real_coeffs(7, seed=13)
        assert np.abs(T.forward(T.inverse(c)) - c).max() < 1e-12

    def test_batched_transforms_match_per_field(self, rng):
        p = 6
        T = get_transform(p)
        f = rng.normal(size=(3, p + 1, 2 * p + 2))
        cb = T.forward(f)
        for k in range(3):
            assert np.abs(cb[k] - T.forward(f[k])).max() < 1e-14
        gb = T.derivative_grid(cb, "theta")
        rb = T.resample(cb, p + 3)
        for k in range(3):
            assert np.abs(gb[k] - T.derivative_grid(cb[k], "theta")).max() < 1e-14
            assert np.abs(rb[k] - T.resample(cb[k], p + 3)).max() < 1e-14

    def test_dense_matrices_match_transforms(self, rng):
        p = 5
        T = get_transform(p)
        f = rng.normal(size=(p + 1, 2 * p + 2))
        A = T.analysis_matrix()
        assert np.abs((A @ f.ravel()).reshape(p + 1, 2 * p + 1)
                      - T.forward(f)).max() < 1e-13
        c = random_real_coeffs(p, seed=4)
        S = T.synthesis_matrix()
        assert np.abs((S @ c.ravel()).real.reshape(p + 1, 2 * p + 2)
                      - T.inverse(c)).max() < 1e-13


class TestRotation:
    def test_matrix_maps_pole(self):
        R = rotation_matrix_to_pole(0.7, 1.3)
        pole = R @ np.array([0.0, 0.0, 1.0])
        expect = np.array([np.sin(0.7) * np.cos(1.3),
                           np.sin(0.7) * np.sin(1.3), np.cos(0.7)])
        assert np.allclose(pole, expect)

    def test_matrix_orthogonal(self):
        R = rotation_matrix_to_pole(2.1, 4.0)
        assert np.allclose(R @ R.T, np.eye(3), atol=1e-13)

    def test_rotated_points_distance_preserved(self):
        # Points at colatitude psi from the rotated pole must be at
        # angular distance psi from the pole direction.
        theta0, phi0 = 1.1, 0.4
        psi = np.array([0.3, 0.9, 2.0])
        alpha = np.array([0.0, 2.0, 5.0])
        th, ph = rotated_sphere_points(theta0, phi0, psi, alpha)
        pole = np.array([np.sin(theta0) * np.cos(phi0),
                         np.sin(theta0) * np.sin(phi0), np.cos(theta0)])
        pts = np.column_stack([np.sin(th) * np.cos(ph),
                               np.sin(th) * np.sin(ph), np.cos(th)])
        ang = np.arccos(np.clip(pts @ pole, -1, 1))
        assert np.allclose(ang, psi, atol=1e-12)
