"""Operator-equivalence suite for the singular self-interaction.

The dense self-interaction operator is assembled by the FFT-diagonalized
block-circulant route and pinned here against the independently
implemented seed re-synthesis evaluation (``apply_reference``) across
orders and shapes — including a randomly perturbed (non-symmetric)
surface, which exercises the claim that the circulant route's structure
lives in the parametrization, not the geometry — and through the
refresh-amortization policy (dilation rescale + gated Kabsch
conjugation).

It also covers the companions that ride on the same machinery: the
stacked same-order group assembly (``CellBatch.assemble_selfops``), the
stacked getrf/getrs direct solves against per-cell LAPACK, the
cylindrical-frame block circulance of an axisymmetric surface (the
geometric limit of the structure), and an order-12 operator (``slow``
marker; the default CI lane runs ``-m "not slow"``).
"""
import numpy as np
import pytest

from repro.config import ReproConfig
from repro.core.cellbatch import CellBatch
from repro.core.simulation import Simulation
from repro.linalg import LUFactorization
from repro.physics.terms import Bending, Gravity, Tension
from repro.surfaces import SpectralSurface, biconcave_rbc, ellipsoid, sphere
from repro.vesicle import SingularSelfInteraction, assemble_circulant

#: The assembled operator must match the reference evaluation to this.
TOL = 1e-10

SHAPES = ("sphere", "ellipsoid", "rbc", "perturbed")


def order_params():
    """Orders {4, 6, 8, 10}; order 10 only in the full lane."""
    return [pytest.param(o, marks=pytest.mark.slow) if o >= 10 else o
            for o in (4, 6, 8, 10)]


def make_shape(name: str, order: int) -> SpectralSurface:
    if name == "sphere":
        return sphere(1.1, order=order)
    if name == "ellipsoid":
        return ellipsoid(1.0, 1.25, 0.8, order=order)
    if name == "rbc":
        return biconcave_rbc(1.0, order=order)
    assert name == "perturbed"
    # Seeded random band-limited bump of the RBC: no symmetry left, so
    # nothing in the assembly can lean on axisymmetric geometry.
    base = biconcave_rbc(1.0, order=order)
    rng = np.random.default_rng(100 + order)
    lmax = min(3, order)
    c = np.zeros((3, order + 1, 2 * order + 1), dtype=complex)
    for comp in range(3):
        for l in range(lmax + 1):
            for m in range(l + 1):
                z = rng.standard_normal() + 1j * rng.standard_normal()
                if m == 0:
                    z = complex(z.real, 0.0)
                c[comp, l, order + m] = z
                c[comp, l, order - m] = (-1.0) ** m * np.conj(z)
    bump = np.moveaxis(base.transform.inverse(c), 0, -1)
    bump *= 0.08 / np.abs(bump).max()
    return SpectralSurface(base.X + bump, order)


def assert_matches_reference(surf, seed):
    """Assembled (circulant) operator vs the seed re-synthesis
    evaluation on a random density."""
    op = SingularSelfInteraction(surf, viscosity=1.3)
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((surf.grid.nlat, surf.grid.nphi, 3))
    assert np.abs(op.apply(f) - op.apply_reference(f)).max() <= TOL


class TestAssemblyRouteEquivalence:
    @pytest.mark.parametrize("order", order_params())
    @pytest.mark.parametrize("shape", SHAPES)
    def test_routes_agree(self, order, shape):
        assert_matches_reference(make_shape(shape, order), seed=order)

    def test_only_circulant_assembly_accepted(self):
        surf = sphere(1.0, order=4)
        SingularSelfInteraction(surf, assembly="circulant")
        for retired in ("auto", "fused"):
            with pytest.raises(ValueError, match="assembly"):
                SingularSelfInteraction(surf, assembly=retired)


class TestCylindricalCirculance:
    def test_surface_of_revolution_operator_is_block_circulant(self):
        """The geometric limit the issue names: in cylindrical vector
        components about the polar axis, the operator of a surface of
        revolution is block-circulant in the *target* longitude (moving
        the target around its ring is a symmetry of the whole geometry).
        The general-shape assembly never relies on this — the ellipsoid
        control below breaks it — but it must hold on a sphere."""
        surf = sphere(1.2, order=6)
        Mc = self._cylindrical_blocks(surf)
        nphi = surf.grid.nphi
        for t in range(1, nphi):
            rolled = np.roll(Mc[:, 0], shift=t, axis=3)
            assert np.abs(Mc[:, t] - rolled).max() <= TOL

    def test_nonaxisymmetric_control_is_not_circulant(self):
        surf = ellipsoid(1.0, 1.4, 0.8, order=6)
        Mc = self._cylindrical_blocks(surf)
        t = surf.grid.nphi // 3
        rolled = np.roll(Mc[:, 0], shift=t, axis=3)
        assert np.abs(Mc[:, t] - rolled).max() > 1e-3

    @staticmethod
    def _cylindrical_blocks(surf):
        op = SingularSelfInteraction(surf)
        grid = surf.grid
        n = grid.n_points
        M = op.matrix.reshape(grid.nlat, grid.nphi, 3, grid.nlat,
                              grid.nphi, 3)
        U = surf.cylindrical_frames()
        return np.einsum("itak,itkjslb->itajsb", U,
                         np.einsum("itkjsl,jsbl->itkjslb", M, U),
                         optimize=True)


class TestRefreshPolicy:
    @staticmethod
    def _fresh_matrix(op):
        return SingularSelfInteraction(
            SpectralSurface(op.surface.X, op.surface.order)).matrix

    def test_amortization_schedule_and_kabsch_correction(self):
        op = SingularSelfInteraction(biconcave_rbc(1.0, order=5),
                                     refresh_interval=3)
        angle = 0.04                      # > KABSCH_MIN_ANGLE: conjugates
        R = np.array([[np.cos(angle), -np.sin(angle), 0.0],
                      [np.sin(angle), np.cos(angle), 0.0],
                      [0.0, 0.0, 1.0]])
        rng = np.random.default_rng(3)
        noise = 1e-3 * rng.standard_normal((6, 12, 3))
        motions = [
            lambda X: 1.03 * X + np.array([0.2, -0.1, 0.05]),  # scale+shift
            lambda X: (X - X.mean((0, 1))) @ R.T + X.mean((0, 1)) + noise,
            lambda X: X + np.array([0.0, 0.3, 0.0]),   # due: full reassembly
            lambda X: X * 0.99,
        ]
        # the correction is exact for a similarity of the last full
        # assembly; the noisy rotation is only close to one (the operator
        # entries are ~7e-2, the stale-geometry error ~3e-4)
        tols = [TOL, 1e-3, TOL, TOL]
        fulls = []
        for k, (motion, tol) in enumerate(zip(motions, tols)):
            op.surface.set_positions(motion(op.surface.X))
            fulls.append(op.refresh())
            err = np.abs(op.matrix - self._fresh_matrix(op)).max()
            assert err <= tol, f"refresh {k}"
        assert fulls == [False, False, True, False]

    def test_forced_full_reassembles(self):
        op = SingularSelfInteraction(biconcave_rbc(1.0, order=5),
                                     refresh_interval=4)
        op.surface.set_positions(op.surface.X * 1.1)
        assert op.refresh(full=True) is True
        assert np.array_equal(op.matrix, self._fresh_matrix(op))


class TestStackedGroupAssembly:
    def _cells(self, n=3, order=6):
        return [biconcave_rbc(1.0, center=(2.3 * k, 0.1 * k, 0.0),
                              order=order) for k in range(n)]

    def test_stacked_slices_match_per_cell(self):
        cells = self._cells()
        ops = [SingularSelfInteraction(c) for c in cells]
        M, X_rot, w_rot = assemble_circulant(ops[0].tables, cells, 1.0)
        for i, op in enumerate(ops):
            _, X1, w1 = assemble_circulant(op.tables, [cells[i]], 1.0)
            assert np.abs(M[i] - op.matrix).max() <= 1e-14
            assert np.abs(X_rot[i] - X1[0]).max() <= 1e-14
            assert np.abs(w_rot[i] - w1[0]).max() <= 1e-14

    def test_order_mismatch_rejected(self):
        cells = self._cells(2)
        op = SingularSelfInteraction(cells[0])
        with pytest.raises(ValueError, match="order"):
            assemble_circulant(op.tables, [sphere(1.0, order=4)], 1.0)

    def test_install_consumed_by_next_refresh(self):
        cells = self._cells()
        ops = [SingularSelfInteraction(c) for c in cells]
        batch = CellBatch(cells)
        for c in cells:
            c.set_positions(c.X * 1.01)
        due = [i for i, op in enumerate(ops) if op.due_full()]
        assert due == [0, 1, 2]
        batch.assemble_selfops(ops, due)
        installed = [op.matrix for op in ops]
        for op in ops:
            assert op.refresh() is True          # consumes, no reassembly
        for op, mat in zip(ops, installed):
            assert op.matrix is mat
        # the flag is one-shot: the next full refresh reassembles
        for op in ops:
            assert not op._pending_install

    def test_mixed_order_groups(self):
        cells = self._cells(2, order=6) + self._cells(1, order=5)
        ops = [SingularSelfInteraction(c) for c in cells]
        batch = CellBatch(cells)
        expected = [op.matrix.copy() for op in ops]
        batch.assemble_selfops(ops, [0, 1, 2])
        for op, ref in zip(ops, expected):
            assert np.abs(op.matrix - ref).max() <= 1e-14


def _scene(ncells=3, order=5):
    cells = [biconcave_rbc(1.0, center=(2.35 * (k % 2), 2.35 * (k // 2),
                                        0.1 * k), order=order)
             for k in range(ncells)]
    cfg = ReproConfig(
        dt=0.05, viscosity=1.0,
        forces=[Bending(0.01), Tension(), Gravity(0.4, (0.0, 0.0, -1.0))],
        backend="direct", with_collisions=False)
    return Simulation(cells, config=cfg)


def _per_cell_lu(self, systems):
    """Test oracle for ``CellBatch.factorize_lu``: one LAPACK
    factorization per cell instead of the stacked getrf pass."""
    return [None if A is None else LUFactorization(A) for A in systems]


class TestBatchedLU:
    def test_trajectories_bit_identical(self, monkeypatch):
        """The stacked getrf/getrs path drives the same LAPACK kernels on
        the same matrices as per-cell lu_factor/lu_solve, so the
        trajectories must agree bit for bit — not merely to tolerance."""
        stacked = _scene()
        stacked.run(2)
        monkeypatch.setattr(CellBatch, "factorize_lu", _per_cell_lu)
        per_cell = _scene()
        per_cell.run(2)
        for a, b in zip(stacked.cells, per_cell.cells):
            assert np.array_equal(a.X, b.X)
        for sa, sb in zip(stacked.stepper.sigmas, per_cell.stepper.sigmas):
            assert np.array_equal(sa, sb)

    def test_mixed_order_scene_bit_identical(self, monkeypatch):
        def scene():
            cells = [biconcave_rbc(1.0, center=(2.4 * k, 0.0, 0.0),
                                   order=5 + (k % 2)) for k in range(3)]
            cfg = ReproConfig(dt=0.05,
                              forces=[Bending(0.01), Tension()],
                              with_collisions=False)
            return Simulation(cells, config=cfg)

        stacked = scene()                     # two equal-shape groups
        stacked.run(2)
        monkeypatch.setattr(CellBatch, "factorize_lu", _per_cell_lu)
        per_cell = scene()
        per_cell.run(2)
        for a, b in zip(stacked.cells, per_cell.cells):
            assert np.array_equal(a.X, b.X)


@pytest.mark.slow
class TestHighOrderRegression:
    def test_order12_operator_matches_reference(self):
        """Order 12 — beyond what any per-target table could hold in
        memory — assembles under the circulant route and matches the
        reference evaluation like the lower orders do."""
        assert_matches_reference(biconcave_rbc(1.0, order=12), seed=12)
