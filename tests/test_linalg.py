"""Tests for the GMRES implementation and the LU layers."""
import numpy as np
import pytest

from repro.linalg import LUFactorization, StackedLUFactorization, gmres


class TestStackedLU:
    def test_bit_identical_to_per_slice_lu(self, rng):
        A = rng.normal(size=(4, 30, 30)) + 30.0 * np.eye(30)
        b = rng.normal(size=(4, 30))
        stacked = StackedLUFactorization(A)
        per = [LUFactorization(A[i]) for i in range(4)]
        x = stacked.solve(b)
        assert x.shape == (4, 30) and x.dtype == np.float64
        for i in range(4):
            # same getrf/getrs kernels on the same matrices: exact, not
            # merely close
            assert np.array_equal(x[i], per[i].solve(b[i]))
            assert np.array_equal(stacked.handle(i).solve(b[i]),
                                  per[i].solve(b[i]))

    def test_multiple_right_hand_sides(self, rng):
        A = rng.normal(size=(2, 12, 12)) + 12.0 * np.eye(12)
        B = rng.normal(size=(12, 5))
        stacked = StackedLUFactorization([A[0], A[1]])
        assert np.array_equal(stacked.solve_one(1, B),
                              LUFactorization(A[1]).solve(B))

    def test_singular_slice_warns_like_lu_factor(self, rng):
        # scipy's lu_factor warns (LinAlgWarning) on an exactly-singular
        # matrix and keeps going; the stacked path must match so a
        # singular slice never decides whether a run completes
        scipy_linalg = pytest.importorskip("scipy.linalg")
        A = rng.normal(size=(2, 6, 6)) + 6.0 * np.eye(6)
        A[1, 0, :] = 0.0
        A[1, :, 0] = 0.0
        with pytest.warns(scipy_linalg.LinAlgWarning):
            stacked = StackedLUFactorization(A)
        b = rng.normal(size=6)
        # healthy slices are unaffected
        assert np.array_equal(stacked.solve_one(0, b),
                              LUFactorization(A[0]).solve(b))

    def test_shape_validation(self, rng):
        with pytest.raises(ValueError):
            StackedLUFactorization(rng.normal(size=(3, 4, 5)))
        with pytest.raises(ValueError):
            StackedLUFactorization(rng.normal(size=(4, 4)))
        st_ = StackedLUFactorization(np.eye(3)[None].repeat(2, axis=0))
        with pytest.raises(ValueError):
            st_.solve(np.zeros((3, 3)))
        assert len(st_) == 2


class TestGMRES:
    def test_matches_direct_solve(self, rng):
        n = 40
        A = np.eye(n) + 0.1 * rng.normal(size=(n, n))
        b = rng.normal(size=n)
        res = gmres(lambda x: A @ x, b, tol=1e-12, max_iter=n)
        assert res.converged
        assert np.allclose(res.x, np.linalg.solve(A, b), atol=1e-8)

    def test_iteration_cap_respected(self, rng):
        n = 60
        A = np.eye(n) + 0.5 * rng.normal(size=(n, n))
        b = rng.normal(size=n)
        res = gmres(lambda x: A @ x, b, tol=1e-14, max_iter=5)
        assert res.iterations <= 5
        assert not res.converged or res.final_residual <= 1e-14

    def test_zero_rhs(self):
        res = gmres(lambda x: x, np.zeros(7))
        assert res.converged
        assert np.all(res.x == 0)
        assert res.iterations == 0

    def test_identity_converges_in_one(self, rng):
        b = rng.normal(size=12)
        res = gmres(lambda x: x, b, tol=1e-12, max_iter=5)
        assert res.converged
        assert res.iterations <= 1
        assert np.allclose(res.x, b)

    def test_restart_still_converges(self, rng):
        n = 30
        A = np.diag(np.linspace(1, 3, n))
        b = rng.normal(size=n)
        res = gmres(lambda x: A @ x, b, tol=1e-10, max_iter=100, restart=7)
        assert res.converged
        assert np.allclose(A @ res.x, b, atol=1e-8)

    def test_initial_guess_used(self, rng):
        n = 25
        A = np.eye(n) * 2.0
        b = rng.normal(size=n)
        res = gmres(lambda x: A @ x, b, x0=b / 2.0, tol=1e-12)
        assert res.converged
        assert res.iterations == 0

    def test_residual_history_monotone_within_cycle(self, rng):
        n = 50
        A = np.eye(n) + 0.2 * rng.normal(size=(n, n))
        b = rng.normal(size=n)
        res = gmres(lambda x: A @ x, b, tol=1e-13, max_iter=n)
        r = np.array(res.residuals)
        assert np.all(np.diff(r[:-1]) <= 1e-12)

    def test_callback_invoked(self, rng):
        calls = []
        A = np.diag(np.arange(1.0, 11.0))
        gmres(lambda x: A @ x, np.ones(10), tol=1e-12,
              callback=lambda k, r: calls.append((k, r)))
        assert calls and calls[0][0] == 1

    def test_spd_large_spectrum(self, rng):
        n = 80
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        A = Q @ np.diag(np.linspace(0.5, 10.0, n)) @ Q.T
        b = rng.normal(size=n)
        res = gmres(lambda x: A @ x, b, tol=1e-10, max_iter=n)
        assert res.converged
