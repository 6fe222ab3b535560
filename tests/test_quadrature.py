"""Unit and property tests for the 1-D quadrature building blocks."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.quadrature import (
    barycentric_matrix,
    barycentric_weights,
    chebyshev_lobatto_nodes,
    clenshaw_curtis,
    extrapolation_weights,
    gauss_legendre,
    interp_matrix_2d,
    tensor_clenshaw_curtis,
)


class TestClenshawCurtis:
    def test_weights_sum_to_interval_length(self):
        for n in (2, 5, 9, 16, 33):
            _, w = clenshaw_curtis(n)
            assert np.isclose(w.sum(), 2.0)

    def test_nodes_ascending_in_interval(self):
        x, _ = clenshaw_curtis(11)
        assert np.all(np.diff(x) > 0)
        assert x[0] == -1.0 and x[-1] == 1.0

    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_polynomial_exactness(self, n):
        x, w = clenshaw_curtis(n)
        for deg in range(n):
            exact = (1.0 - (-1.0) ** (deg + 1)) / (deg + 1)
            assert np.isclose(w @ x ** deg, exact, atol=1e-13), deg

    def test_smooth_function_convergence(self):
        exact = np.sin(1.0) * 2  # integral of cos on [-1,1]
        errs = []
        for n in (5, 9, 17):
            x, w = clenshaw_curtis(n)
            errs.append(abs(w @ np.cos(x) - exact))
        assert errs[-1] < 1e-12

    def test_tensor_rule(self):
        nodes, w = tensor_clenshaw_curtis(6)
        assert nodes.shape == (36, 2)
        assert np.isclose(w.sum(), 4.0)
        # integrate x^2 * y^3 -> (2/3) * 0
        val = w @ (nodes[:, 0] ** 2 * nodes[:, 1] ** 3)
        assert np.isclose(val, 0.0, atol=1e-13)
        val = w @ (nodes[:, 0] ** 2 * nodes[:, 1] ** 2)
        assert np.isclose(val, 4.0 / 9.0)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            clenshaw_curtis(0)


class TestGaussLegendre:
    def test_exactness_degree_2n_minus_1(self):
        x, w = gauss_legendre(6)
        for deg in range(12):
            exact = (1.0 - (-1.0) ** (deg + 1)) / (deg + 1)
            assert np.isclose(w @ x ** deg, exact, atol=1e-13)

    def test_interval_mapping(self):
        x, w = gauss_legendre(8, 0.0, np.pi)
        assert np.isclose(w.sum(), np.pi)
        assert np.isclose(w @ np.sin(x), 2.0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            gauss_legendre(0)


class TestBarycentric:
    def test_interpolates_nodes_exactly(self):
        nodes = chebyshev_lobatto_nodes(9)
        M = barycentric_matrix(nodes, nodes)
        assert np.allclose(M, np.eye(9))

    def test_polynomial_reproduction(self):
        nodes = chebyshev_lobatto_nodes(7)
        t = np.linspace(-1, 1, 33)
        M = barycentric_matrix(nodes, t)
        f = 3 * nodes ** 5 - nodes ** 2 + 0.5
        exact = 3 * t ** 5 - t ** 2 + 0.5
        assert np.allclose(M @ f, exact, atol=1e-12)

    @given(st.integers(min_value=3, max_value=10),
           st.floats(min_value=-1.0, max_value=1.0))
    @settings(max_examples=30, deadline=None)
    def test_property_partition_of_unity(self, n, t):
        nodes = chebyshev_lobatto_nodes(n)
        M = barycentric_matrix(nodes, np.array([t]))
        assert np.isclose(M.sum(), 1.0, atol=1e-9)

    def test_2d_tensor_interpolation(self):
        n = 6
        nodes = chebyshev_lobatto_nodes(n)
        U, V = np.meshgrid(nodes, nodes, indexing="ij")
        f = (U ** 2 * V + 0.3 * V ** 3).ravel()
        targets = np.array([[0.21, -0.43], [0.9, 0.9], [-1.0, 1.0]])
        M = interp_matrix_2d(n, targets)
        exact = targets[:, 0] ** 2 * targets[:, 1] + 0.3 * targets[:, 1] ** 3
        assert np.allclose(M @ f, exact, atol=1e-12)


class TestExtrapolation:
    def test_polynomial_exact(self):
        R, r, p = 0.3, 0.1, 5
        e = extrapolation_weights(R, r, p)
        t = R + r * np.arange(p + 1)
        for deg in range(p + 1):
            vals = t ** deg
            target = 0.0 ** deg if deg > 0 else 1.0
            assert np.isclose(e @ vals, target, atol=1e-9), deg

    def test_scale_invariance(self):
        e1 = extrapolation_weights(1.0, 1.0, 6)
        e2 = extrapolation_weights(0.01, 0.01, 6)
        assert np.allclose(e1, e2, atol=1e-6)

    def test_interpolation_inside_range(self):
        e = extrapolation_weights(0.1, 0.1, 4, target_t=0.25)
        t = 0.1 + 0.1 * np.arange(5)
        vals = 2.0 * t - 1.0
        assert np.isclose(e @ vals, 2 * 0.25 - 1)

    def test_array_targets_match_scalar_rows(self):
        # includes a target sitting exactly on a check point
        t = np.array([0.0, 0.03, 0.1, 0.17, 0.25, -0.02])
        E = extrapolation_weights(0.1, 0.05, 4, t)
        assert E.shape == (t.size, 5)
        for row, ti in zip(E, t):
            assert np.array_equal(row, extrapolation_weights(0.1, 0.05, 4,
                                                             float(ti)))
        assert extrapolation_weights(0.1, 0.05, 4, t[:0]).shape == (0, 5)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            extrapolation_weights(0.1, 0.1, -1)


class TestBarycentricWeights:
    @given(st.integers(min_value=2, max_value=8))
    @settings(max_examples=20, deadline=None)
    def test_property_weights_alternate_sign_on_sorted_nodes(self, n):
        nodes = np.sort(np.random.default_rng(n).uniform(-1, 1, n))
        w = barycentric_weights(nodes)
        assert np.all(np.sign(w[:-1]) == -np.sign(w[1:]))
