"""Integration tests of the simulation platform."""
import dataclasses

import numpy as np
import pytest

from repro.config import NumericsOptions, ReproConfig
from repro.core import ComponentTimers, Simulation
from repro.patches import capsule_tube
from repro.physics import bending_energy
from repro.physics.terms import BackgroundFlow, Bending, Gravity
from repro.surfaces import SpectralSurface, biconcave_rbc, ellipsoid, sphere
from repro.vessel import capsule_inlet_outlet_bc
from repro.vessel.recycling import OutletRecycler, Region


class TestTimers:
    def test_categories_exclusive(self):
        import time
        t = ComponentTimers()
        with t.scope("Other"):
            with t.scope("COL"):
                time.sleep(0.01)
        assert t.seconds["COL"] >= 0.01
        assert t.seconds["Other"] < 0.01
        assert t.total() >= 0.01

    def test_unknown_category(self):
        t = ComponentTimers()
        with pytest.raises(ValueError):
            with t.scope("nope"):
                pass

    def test_breakdown_keys(self):
        t = ComponentTimers()
        bd = t.breakdown()
        assert set(bd) == {"COL", "BIE-solve", "BIE-FMM", "Other-FMM",
                           "Tension", "Implicit", "Other"}


class TestFreeSpaceSimulation:
    def test_relaxation_decreases_bending_energy(self):
        e = ellipsoid(1.0, 1.0, 1.4, order=6)
        cfg = ReproConfig(dt=0.05, forces=[Bending(0.05)],
                          with_collisions=False)
        sim = Simulation([e], config=cfg)
        E0 = bending_energy(sim.cells[0], cfg.bending_modulus)
        sim.run(3)
        assert bending_energy(sim.cells[0], cfg.bending_modulus) < E0

    def test_shear_flow_advects_cells(self):
        c = biconcave_rbc(radius=1.0, order=5, center=(0.0, 0.0, 1.0))
        def shear(pts):
            u = np.zeros_like(pts)
            u[:, 0] = pts[:, 2]
            return u
        cfg = ReproConfig(dt=0.1,
                          forces=[Bending(), BackgroundFlow(shear)],
                          with_collisions=False)
        sim = Simulation([c], config=cfg)
        x0 = sim.centroids()[0, 0]
        sim.run(2)
        x1 = sim.centroids()[0, 0]
        # centroid at z=1 moves in +x with speed ~1
        assert 0.1 < (x1 - x0) < 0.3

    def test_area_approximately_conserved(self):
        c = sphere(1.0, order=6)
        def shear(pts):
            u = np.zeros_like(pts)
            u[:, 0] = 0.2 * pts[:, 2]
            return u
        cfg = ReproConfig(dt=0.05,
                          forces=[Bending(0.02), BackgroundFlow(shear)],
                          with_collisions=False)
        sim = Simulation([c], config=cfg)
        A0 = sim.total_cell_area()
        sim.run(3)
        assert abs(sim.total_cell_area() - A0) / A0 < 0.05

    def test_collision_keeps_cells_apart(self):
        # Two spheres driven together by opposing flows.
        s1 = sphere(0.8, center=(-1.0, 0, 0), order=5)
        s2 = sphere(0.8, center=(1.0, 0, 0), order=5)
        def squeeze(pts):
            u = np.zeros_like(pts)
            u[:, 0] = -1.5 * np.sign(pts[:, 0])
            return u
        cfg = ReproConfig(dt=0.1,
                          forces=[Bending(), BackgroundFlow(squeeze)],
                          with_collisions=True)
        sim = Simulation([s1, s2], config=cfg)
        reports = sim.run(3)
        assert any(r.ncp is not None and r.ncp.contact_active
                   for r in reports)
        c = sim.centroids()
        # cells must not have passed through each other
        assert c[0, 0] < c[1, 0]

    def test_sedimentation_moves_down(self):
        s = sphere(1.0, center=(0, 0, 0), order=6)
        cfg = ReproConfig(dt=0.1,
                          forces=[Bending(), Gravity(1.0, (0, 0, -1.0))],
                          with_collisions=False)
        sim = Simulation([s], config=cfg)
        z0 = sim.centroids()[0, 2]
        sim.run(3)
        assert sim.centroids()[0, 2] < z0

    def test_history_and_reports(self):
        s = sphere(1.0, order=5)
        sim = Simulation([s], config=ReproConfig(
            dt=0.05, with_collisions=False))
        rep = sim.step()
        assert rep.t == 0.0 and sim.t == 0.05
        assert len(sim.history) == 1
        assert rep.implicit_iterations[0] >= 0


def _vessel_sim(executor="serial", workers=1):
    opts = NumericsOptions(patch_quad=7, check_order=4, upsample_eta=1,
                           check_r_factor=0.25, gmres_max_iter=20,
                           executor=executor, workers=workers)
    vessel = capsule_tube(length=8.0, radius=1.6, refine=0, options=opts)
    g = capsule_inlet_outlet_bc(vessel, axis=2, flux=2.0)
    cells = [sphere(0.5, center=(0.0, 0.0, -1.0), order=5),
             sphere(0.5, center=(0.5, 0.3, 1.2), order=5)]
    cfg = ReproConfig(dt=0.05, numerics=opts)
    return Simulation(cells, vessel=vessel, boundary_bc=g, config=cfg)


class TestVesselSimulation:
    @pytest.fixture(scope="class")
    def vessel_sim(self):
        return _vessel_sim()

    def test_executors_bit_identical(self):
        """The batched wall evaluation (one closest-point search and one
        check-point DLP for all cell points) under every executor: serial
        == thread == checked, deviation exactly 0.0."""
        runs = {}
        for executor, workers in (("serial", 1), ("thread", 2),
                                  ("checked", 2)):
            sim = _vessel_sim(executor, workers)
            sim.run(2)
            runs[executor] = np.concatenate([c.X.ravel() for c in sim.cells])
        assert np.array_equal(runs["serial"], runs["thread"])
        assert np.array_equal(runs["serial"], runs["checked"])

    def test_step_runs_and_reports(self, vessel_sim):
        rep = vessel_sim.step()
        assert rep.bie_iterations > 0
        assert vessel_sim.timers.seconds.get("BIE-solve", 0) > 0

    def test_cells_stay_inside_vessel(self, vessel_sim):
        for cell in vessel_sim.cells:
            r = np.linalg.norm(cell.points[:, :2], axis=1)
            assert r.max() < 1.65

    def test_flow_advects_along_axis(self, vessel_sim):
        z0 = vessel_sim.centroids()[:, 2].copy()
        vessel_sim.step()
        z1 = vessel_sim.centroids()[:, 2]
        assert np.all(z1 > z0 - 1e-3)  # inflow at -z pushes toward +z

    def test_volume_fraction_and_dof(self, vessel_sim):
        vf = vessel_sim.volume_fraction()
        assert 0 < vf < 0.5
        assert vessel_sim.n_dof() > 0

    def test_recycler_integration(self):
        opts = NumericsOptions(patch_quad=7, check_order=4, upsample_eta=1,
                               check_r_factor=0.25, gmres_max_iter=10)
        cells = [sphere(0.4, center=(0.0, 0.0, 5.0), order=5)]
        rec = OutletRecycler(
            inlets=[Region(center=np.array([0.0, 0, -5.0]), radius=1.0)],
            outlets=[Region(center=np.array([0.0, 0, 5.0]), radius=1.0)])
        sim = Simulation(cells, config=ReproConfig(
            dt=0.01, with_collisions=False, numerics=opts), recycler=rec)
        rep = sim.step()
        assert rep.recycled == [0]
        assert sim.centroids()[0, 2] < 0


class TestSeededStep:
    def test_mixed_order_step_seeds_match_cold_recomputation(self):
        """After a step every cache the stacked passes seeded equals a
        cold per-cell recomputation from the stepped positions alone,
        bit for bit (orders 4, 6, 4: two order groups, and the order-6
        cell's near-evaluator grid differs from the collision grid)."""
        cells = [biconcave_rbc(radius=1.0, order=p, center=(2.6 * k, 0, 0))
                 for k, p in enumerate((4, 6, 4))]
        sim = Simulation(cells, config=ReproConfig(
            dt=0.05, forces=[Bending(0.05), Gravity(0.5, (0, 0, -1.0))]))
        rep = sim.step()
        assert rep.ncp is not None
        for cell, ev in zip(sim.cells, sim.backend.evaluators):
            assert cell._coeffs is not None and cell._geom is not None
            assert cell._up_tables is not None
            cold = SpectralSurface(cell.X, cell.order)
            assert np.array_equal(cell._coeffs, cold.coeffs())
            for seeded, lazy in ((cell._geom, cold.geometry()),
                                 (cell._up_tables[1],
                                  cold._upsampled_tables()[1])):
                for f in dataclasses.fields(seeded):
                    assert np.array_equal(getattr(seeded, f.name),
                                          getattr(lazy, f.name)), f.name
            fine = cold.upsampled(2 * cell.order)
            assert ev._fine is cell.upsampled(2 * cell.order)
            assert np.array_equal(ev._fine.X, fine.X)
            assert np.array_equal(ev._fine_w, fine.quadrature_weights())
