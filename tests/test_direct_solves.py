"""Direct (factorized) per-cell solves vs the iterative reference paths,
and the amortized self-interaction refresh policy."""
import numpy as np
import pytest

from repro.config import NumericsOptions, ReproConfig
from repro.core.simulation import Simulation
from repro.core.stepper import TimeStepper
from repro.physics import (linearized_bending_apply, linearized_bending_matrix,
                           tension_force, tension_operator_matrix)
from repro.physics.tension import TensionSolver
from repro.physics.terms import Bending, Gravity, Tension
from repro.surfaces import biconcave_rbc, ellipsoid
from repro.surfaces.spectral_surface import bandlimit_projector
from repro.vesicle import SingularSelfInteraction


@pytest.fixture(scope="module")
def cell():
    return biconcave_rbc(1.0, order=6)


@pytest.fixture(scope="module")
def selfop(cell):
    return SingularSelfInteraction(cell)


class TestDenseOperatorMatrices:
    def test_gradient_matrix_matches_function(self, cell):
        rng = np.random.default_rng(0)
        f = rng.standard_normal((cell.grid.nlat, cell.grid.nphi))
        ref = cell.surface_gradient(f).ravel()
        got = cell.surface_gradient_matrix() @ f.ravel()
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_divergence_matrix_matches_function(self, cell):
        rng = np.random.default_rng(1)
        v = rng.standard_normal((cell.grid.nlat, cell.grid.nphi, 3))
        ref = cell.surface_divergence(v).ravel()
        got = cell.surface_divergence_matrix() @ v.ravel()
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_laplace_beltrami_matrix_matches_function(self, cell):
        rng = np.random.default_rng(2)
        f = rng.standard_normal((cell.grid.nlat, cell.grid.nphi))
        ref = cell.laplace_beltrami(f).ravel()
        got = cell.laplace_beltrami_matrix() @ f.ravel()
        assert np.abs(got - ref).max() <= 1e-11 * np.abs(ref).max()

    def test_matrices_invalidated_on_move(self):
        s = ellipsoid(1.0, 1.0, 1.3, order=4)
        g0 = s.surface_gradient_matrix().copy()
        s.set_positions(s.X * 1.1)
        assert np.abs(s.surface_gradient_matrix() - g0).max() > 1e-6

    def test_tension_operator_matrix(self, cell):
        rng = np.random.default_rng(3)
        sig = rng.standard_normal((cell.grid.nlat, cell.grid.nphi))
        ref = tension_force(cell, sig).ravel()
        got = tension_operator_matrix(cell) @ sig.ravel()
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_linearized_bending_matrix(self, cell):
        rng = np.random.default_rng(4)
        dX = rng.standard_normal((cell.grid.nlat, cell.grid.nphi, 3))
        ref = linearized_bending_apply(cell, dX, kappa=0.02).ravel()
        got = linearized_bending_matrix(cell, kappa=0.02) @ dX.ravel()
        assert np.abs(got - ref).max() <= 1e-11 * max(1.0, np.abs(ref).max())

    def test_bandlimit_projector_idempotent(self, cell):
        P = bandlimit_projector(cell.order)
        assert np.abs(P @ P - P).max() <= 1e-12


class TestDirectTension:
    def test_dense_schur_matches_tight_gmres(self, cell, selfop):
        """The factorized Schur solve equals the Krylov solution of the
        same (band-limited) problem to well below solver tolerance."""
        solver = TensionSolver(cell, selfop.apply, self_matrix=selfop.matrix,
                               tol=1e-13, max_iter=200)
        assert solver.direct
        rng = np.random.default_rng(5)
        u = rng.standard_normal((cell.grid.nlat, cell.grid.nphi, 3))
        sigma_d, it_d = solver.solve(u)
        sigma_i, _ = solver.solve_iterative(u)
        assert it_d == 0
        assert np.abs(sigma_d - sigma_i).max() <= 1e-10

    def test_schur_matrix_matches_operator(self, cell, selfop):
        solver = TensionSolver(cell, selfop.apply)
        A = solver.schur_matrix(selfop.matrix)
        rng = np.random.default_rng(6)
        x = rng.standard_normal(cell.grid.n_points)
        assert np.abs(A @ x - solver.operator(x)).max() <= 1e-12

    def test_solution_is_band_limited(self, cell, selfop):
        solver = TensionSolver(cell, selfop.apply, self_matrix=selfop.matrix)
        rng = np.random.default_rng(7)
        u = rng.standard_normal((cell.grid.nlat, cell.grid.nphi, 3))
        sigma, _ = solver.solve(u)
        P = bandlimit_projector(cell.order)
        assert np.abs(P @ sigma.ravel() - sigma.ravel()).max() <= 1e-9

    def test_without_matrix_falls_back_to_gmres(self, cell, selfop):
        solver = TensionSolver(cell, selfop.apply)
        assert not solver.direct
        rng = np.random.default_rng(8)
        u = rng.standard_normal((cell.grid.nlat, cell.grid.nphi, 3))
        _, iters = solver.solve(u)
        assert iters > 0


def _scene(**numopts):
    cells = [biconcave_rbc(1.0, center=(2.4 * i, 0.0, 0.15 * (-1.0) ** i),
                           order=6) for i in range(2)]
    cfg = ReproConfig(dt=0.05,
                      forces=[Bending(0.01), Tension(),
                              Gravity(0.5, (0.0, 0.0, -1.0))],
                      backend="direct", with_collisions=True,
                      numerics=NumericsOptions(**numopts))
    return Simulation(cells, config=cfg)


class TestDirectVsIterativeTrajectories:
    def test_direct_reports_zero_inner_iterations(self):
        sim = _scene()
        rep = sim.step()
        assert all(n == 0 for n in rep.implicit_iterations)

    def test_dt_change_falls_back_to_gmres(self):
        """A mid-run dt change at frozen geometry must not reuse the
        factorization built for the old dt."""
        cells = [ellipsoid(1.0, 1.0, 1.4, order=4)]
        stepper = TimeStepper(cells, forces=[Bending(0.05)])
        b = np.zeros(cells[0].X.shape)
        stepper._prepare_implicit(0.05)
        X1, it1, conv1 = stepper._implicit_update(0, b, 0.05)
        assert it1 == 0 and conv1            # factorized for dt=0.05
        X2, it2, conv2 = stepper._implicit_update(0, b, 0.025)
        assert it2 > 0 and conv2             # GMRES fallback, not stale LU
        # and the fallback solves the dt=0.025 problem, not the old one
        ref_stepper = TimeStepper([ellipsoid(1.0, 1.0, 1.4, order=4)],
                                  forces=[Bending(0.05)])
        ref_stepper._prepare_implicit(0.025)
        X2_ref, _, _ = ref_stepper._implicit_update(0, b, 0.025)
        assert np.abs(X2 - X2_ref).max() <= 1e-7


class TestAmortizedSelfOpRefresh:
    def test_interval_one_reproduces_default_exactly(self):
        base = _scene()
        k1 = _scene(selfop_refresh_interval=1)
        base.run(3)
        k1.run(3)
        err = max(np.abs(a.X - b.X).max()
                  for a, b in zip(base.cells, k1.cells))
        assert err == 0.0

    def test_translation_is_corrected_exactly(self):
        s = biconcave_rbc(1.0, order=6)
        op = SingularSelfInteraction(s, refresh_interval=10)
        s.set_positions(s.X + np.array([0.4, -0.3, 0.2]))
        full = op.refresh()
        assert not full                     # intermediate, corrected
        exact = SingularSelfInteraction(biconcave_rbc(1.0, order=6)
                                        .translated([0.4, -0.3, 0.2])).matrix
        assert np.abs(op.matrix - exact).max() <= 1e-12 * np.abs(exact).max()

    def test_uniform_dilation_is_corrected_exactly(self):
        s = biconcave_rbc(1.0, order=6)
        op = SingularSelfInteraction(s, refresh_interval=10)
        s.set_positions(1.05 * s.X)
        op.refresh()
        ref = biconcave_rbc(1.0, order=6)
        ref.set_positions(1.05 * ref.X)
        exact = SingularSelfInteraction(ref).matrix
        assert np.abs(op.matrix - exact).max() <= 1e-12 * np.abs(exact).max()

    def test_rigid_rotation_is_corrected_exactly(self):
        """The Kabsch + kernel-conjugation term makes the intermediate
        refresh exact for rigid rotations (the deviatoric-refresh item):
        the corrected operator matches a fresh assembly on the rotated
        geometry to roundoff."""
        s = biconcave_rbc(1.0, order=6)
        op = SingularSelfInteraction(s, refresh_interval=10)
        th = 0.35
        R = np.array([[np.cos(th), -np.sin(th), 0.0],
                      [np.sin(th), np.cos(th), 0.0],
                      [0.0, 0.0, 1.0]])
        c = s.centroid()
        s.set_positions(((s.points - c) @ R.T + c).reshape(s.X.shape))
        assert op.refresh() is False        # intermediate, corrected
        ref = biconcave_rbc(1.0, order=6)
        cr = ref.centroid()
        ref.set_positions(((ref.points - cr) @ R.T + cr).reshape(ref.X.shape))
        exact = SingularSelfInteraction(ref).matrix
        assert np.abs(op.matrix - exact).max() <= 1e-12 * np.abs(exact).max()

    def test_similarity_motion_is_corrected_exactly(self):
        """Rotation + translation + dilation composed: still exact."""
        s = biconcave_rbc(1.0, order=5)
        op = SingularSelfInteraction(s, refresh_interval=10)
        th = -0.2
        R = np.array([[1.0, 0.0, 0.0],
                      [0.0, np.cos(th), -np.sin(th)],
                      [0.0, np.sin(th), np.cos(th)]])
        c = s.centroid()
        moved = 1.07 * ((s.points - c) @ R.T) + c + np.array([0.3, -0.1, 0.2])
        s.set_positions(moved.reshape(s.X.shape))
        op.refresh()
        ref = biconcave_rbc(1.0, order=5)
        ref.set_positions(moved.reshape(ref.X.shape))
        exact = SingularSelfInteraction(ref).matrix
        assert np.abs(op.matrix - exact).max() <= 1e-11 * np.abs(exact).max()

    def test_subthreshold_rotation_keeps_scale_only_correction(self):
        """Below the KABSCH_MIN_ANGLE gate (the deformation-noise regime
        of non-tumbling cells) the correction must stay the exact
        closed-form rescale — preserving the translation-dominated
        behavior the frozen factorized solvers were built against."""
        s = biconcave_rbc(1.0, order=5)
        op = SingularSelfInteraction(s, refresh_interval=10)
        ref_matrix = op.matrix.copy()
        th = 1e-4                           # << KABSCH_MIN_ANGLE
        R = np.array([[np.cos(th), -np.sin(th), 0.0],
                      [np.sin(th), np.cos(th), 0.0],
                      [0.0, 0.0, 1.0]])
        c = s.centroid()
        s.set_positions(((s.points - c) @ R.T + c).reshape(s.X.shape))
        op.refresh()
        scale = np.sqrt(s.area() / op._ref_area)
        assert np.array_equal(op.matrix, scale * ref_matrix)

    def test_full_refresh_cycle(self):
        s = biconcave_rbc(1.0, order=6)
        op = SingularSelfInteraction(s, refresh_interval=3)
        # init was full; two corrected refreshes, then full again
        assert op.refresh() is False
        assert op.refresh() is False
        assert op.refresh() is True
        # forcing restarts the cycle
        assert op.refresh(full=True) is True
        assert op.refresh() is False

    def test_deviation_bounded_and_shrinks_with_interval(self):
        """Trajectory error of the amortized operator is small and does
        not improve when the refresh interval grows."""
        exact = _scene()
        exact.run(4)
        devs = {}
        for k in (2, 4):
            sim = _scene(selfop_refresh_interval=k)
            sim.run(4)
            devs[k] = max(np.abs(a.X - b.X).max()
                          for a, b in zip(exact.cells, sim.cells))
        assert devs[2] <= 1e-4              # first-order-correction regime
        assert devs[2] <= devs[4] + 1e-12   # more refreshes, less error

    def test_validation_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            ReproConfig(numerics=NumericsOptions(selfop_refresh_interval=0))
        with pytest.raises(ValueError):
            SingularSelfInteraction(biconcave_rbc(1.0, order=4),
                                    refresh_interval=0)

    def test_apply_reference_is_exact_after_corrected_refresh(self):
        """After an intermediate refresh only the operator matrix is
        corrected; the seed-path reference rotates the current geometry
        itself, so it still equals a fresh assembly there."""
        s = biconcave_rbc(1.0, order=5)
        op = SingularSelfInteraction(s, refresh_interval=4)
        s.set_positions(s.X * np.array([1.05, 1.0, 0.97]) + 0.1)
        assert op.refresh() is False        # corrected, not reassembled
        f = np.random.default_rng(7).standard_normal(
            (s.grid.nlat, s.grid.nphi, 3))
        fresh = SingularSelfInteraction(s).apply(f)
        assert np.abs(op.apply_reference(f) - fresh).max() <= 1e-12
        assert np.abs(op.apply(f) - fresh).max() > 1e-6

    def test_refresh_cell_forces_full_reassembly(self):
        sim = _scene(selfop_refresh_interval=100)
        sim.run(2)                          # operators now corrected-only
        i = 0
        op = sim.stepper._self_ops[i]
        # an out-of-band move (e.g. recycling) must fully reassemble
        sim.cells[i].set_positions(sim.cells[i].X + 0.5)
        sim.stepper.refresh_cell(i)
        fresh = SingularSelfInteraction(sim.cells[i])
        assert np.abs(op.matrix - fresh.matrix).max() <= \
            1e-12 * np.abs(fresh.matrix).max()
