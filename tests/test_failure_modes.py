"""Failure-injection and edge-case tests across modules."""
import json

import numpy as np
import pytest

from repro.analysis.faultinject import force_unresolved_contact, inject_nan
from repro.bie import BoundarySolver
from repro.collision import NCPSolver, solve_lcp
from repro.config import NumericsOptions, ReproConfig, ResilienceOptions
from repro.core import Simulation
from repro.fmm import Octree
from repro.patches import cube_sphere
from repro.physics.terms import Bending, Tension
from repro.resilience import load_checkpoint, save_checkpoint
from repro.surfaces import SpectralSurface, sphere
from repro.surfaces.shapes import biconcave_rbc
from repro.vesicle import SingularSelfInteraction


class TestDegenerateInputs:
    def test_octree_coincident_points(self):
        pts = np.zeros((50, 3))
        tree = Octree(pts, max_leaf=8, max_level=4)
        # coincident points cannot be split; the level cap must stop it
        assert tree.depth() <= 4
        seen = np.concatenate([tree.nodes[l].indices for l in tree.leaves()])
        assert seen.size == 50

    def test_lcp_all_separated(self):
        # strictly positive q: lambda = 0 is the solution
        res = solve_lcp(lambda x: 2 * x, np.array([0.5, 1.0, 0.2]))
        assert res.converged
        assert np.allclose(res.lam, 0.0)

    def test_ncp_empty_cell_list(self):
        ncp = NCPSolver(boundary_meshes=[])
        out, rep = ncp.project([], [], [], dt=0.1)
        assert out == [] and not rep.contact_active

    def test_simulation_volume_fraction_requires_lumen(self):
        sim = Simulation([sphere(1.0, order=4)],
                         config=ReproConfig(with_collisions=False))
        with pytest.raises(ValueError):
            sim.volume_fraction()
        assert sim.volume_fraction(lumen_volume=100.0) > 0

    def test_surface_wrong_order_grid(self):
        s = sphere(1.0, order=6)
        with pytest.raises(ValueError):
            SpectralSurface(s.X, order=8)


class TestSolverRobustness:
    def test_bie_zero_rhs_zero_solution(self):
        opts = NumericsOptions(patch_quad=7, check_order=4, upsample_eta=1)
        s = cube_sphere(refine=0, options=opts)
        solver = BoundarySolver(s, kernel="laplace", options=opts)
        phi, rep = solver.solve(np.zeros(solver.N))
        assert rep.converged
        assert np.abs(phi).max() < 1e-12

    def test_bie_linearity(self, rng):
        opts = NumericsOptions(patch_quad=7, check_order=4, upsample_eta=1)
        s = cube_sphere(refine=0, options=opts)
        solver = BoundarySolver(s, kernel="laplace", options=opts)
        x1 = rng.normal(size=solver.N)
        x2 = rng.normal(size=solver.N)
        a1 = solver.apply((2 * x1 - 3 * x2)[:, None]).ravel()
        a2 = 2 * solver.apply(x1[:, None]).ravel() - \
            3 * solver.apply(x2[:, None]).ravel()
        assert np.abs(a1 - a2).max() < 1e-10

    def test_self_interaction_zero_density(self):
        s = sphere(1.0, order=5)
        op = SingularSelfInteraction(s)
        u = op.apply(np.zeros((6, 12, 3)))
        assert np.abs(u).max() == 0.0

    def test_stepper_zero_dt_is_identity_up_to_contact(self):
        s = sphere(1.0, order=5)
        sim = Simulation([s], config=ReproConfig(
            dt=0.0, with_collisions=False))
        X0 = sim.cells[0].X.copy()
        sim.step()
        assert np.abs(sim.cells[0].X - X0).max() < 1e-10


def _resilient_scene(with_collisions=False, backend="direct",
                     resilience=None):
    cfg = ReproConfig(dt=0.05, forces=[Bending(0.01), Tension()],
                      with_collisions=with_collisions, backend=backend,
                      resilience=resilience or ResilienceOptions())
    cells = [biconcave_rbc(order=6).translated([0.0, 0.0, 3.0 * i])
             for i in range(2)]
    return Simulation(cells, config=cfg)


class TestFaultInjectedRecovery:
    """The three recovery paths of :mod:`repro.resilience`, each driven
    end-to-end by :mod:`repro.analysis.faultinject`."""

    def test_nan_farfield_degrades_backend_and_run_stays_healthy(self):
        # NaN in the fast backend's far-field output -> graceful
        # degradation fmm -> direct, sticky for the rest of the run.
        sim = _resilient_scene(backend="fmm")
        with inject_nan(sim.backend, "cell_cell") as counter:
            rep = sim.step()
        assert counter.fired == 1
        assert rep.backend_degraded_to == "direct"
        assert rep.health.healthy and rep.retries == 0
        rep2 = sim.step()  # no re-probe of the failed backend
        assert rep2.backend_degraded_to == "direct"
        assert all(np.isfinite(c.X).all() for c in sim.cells)

    def test_forced_ncp_nonconvergence_triggers_dt_backoff(self):
        # An unresolved contact projection rejects the step; the retry
        # runs two dt/2 sub-steps landing back on the nominal grid.
        sim = _resilient_scene(with_collisions=True)
        with force_unresolved_contact(sim.stepper.ncp) as counter:
            rep = sim.step()
        assert counter.fired == 1
        assert rep.retries == 1
        assert len(rep.substeps) == 2
        assert all(s.dt == pytest.approx(sim.config.dt / 2)
                   for s in rep.substeps)
        assert sim.t == pytest.approx(sim.config.dt)
        assert rep.health.healthy

    def test_kill_mid_run_then_resume_is_bit_identical(self, tmp_path):
        # Reference: 6 uninterrupted steps. Crash run: checkpoint at
        # step 3, drop the simulation ("kill"), resume from disk.
        ref = _resilient_scene(with_collisions=True)
        for _ in range(6):
            ref.step()
        sim = _resilient_scene(with_collisions=True)
        for _ in range(3):
            sim.step()
        path = save_checkpoint(sim, str(tmp_path / "mid"))
        del sim  # the "kill": only the on-disk checkpoint survives
        resumed = load_checkpoint(path)
        assert resumed.t == pytest.approx(3 * 0.05)
        for _ in range(3):
            resumed.step()
        assert resumed.t == ref.t
        for a, b in zip(ref.cells, resumed.cells):
            assert np.array_equal(a.X, b.X)
        for a, b in zip(ref.stepper.sigmas, resumed.stepper.sigmas):
            assert np.array_equal(a, b)


class TestCheckpointForwardCompat:
    def test_unknown_manifest_keys_and_arrays_are_ignored(self, tmp_path):
        # A same-version checkpoint written by a *newer* minor revision
        # may carry extra manifest keys and extra arrays; loading must
        # ignore them rather than crash.
        sim = _resilient_scene()
        path = save_checkpoint(sim, str(tmp_path / "fw"))
        with np.load(path, allow_pickle=False) as data:
            payload = {k: data[k] for k in data.files}
        manifest = json.loads(str(payload["manifest"]))
        manifest["future_policy"] = {"knob": 1}
        for entry in manifest["cells"]:
            entry["future_cell_field"] = "x"
        payload["manifest"] = np.array(json.dumps(manifest))
        payload["future_array"] = np.zeros(3)
        np.savez(path, **payload)
        resumed = load_checkpoint(path)
        for a, b in zip(sim.cells, resumed.cells):
            assert np.array_equal(a.X, b.X)

    def test_retired_numerics_keys_are_rejected(self, tmp_path):
        # A checkpoint written before the route consolidation carries
        # numerics knobs that no longer exist; it must fail as data (the
        # ReproConfig ValueError naming the keys), not load as if the
        # retired knobs had been at their defaults.
        sim = _resilient_scene()
        path = save_checkpoint(sim, str(tmp_path / "old"))
        with np.load(path, allow_pickle=False) as data:
            payload = {k: data[k] for k in data.files}
        manifest = json.loads(str(payload["manifest"]))
        manifest["config"]["numerics"].update(
            selfop_assembly="fused", direct_tension=False)
        payload["manifest"] = np.array(json.dumps(manifest))
        np.savez(path, **payload)
        with pytest.raises(ValueError, match="invalid ReproConfig.*"
                           "direct_tension.*selfop_assembly"):
            load_checkpoint(path)

    def test_process_executor_manifest_is_rejected(self, tmp_path):
        # A checkpoint written while "process" was a per-scene executor
        # must fail as data, pointing at the sweep runner — not resume
        # with every stage running inline behind an idle pool.
        sim = _resilient_scene()
        path = save_checkpoint(sim, str(tmp_path / "proc"))
        with np.load(path, allow_pickle=False) as data:
            payload = {k: data[k] for k in data.files}
        manifest = json.loads(str(payload["manifest"]))
        manifest["config"]["numerics"]["executor"] = "process"
        payload["manifest"] = np.array(json.dumps(manifest))
        np.savez(path, **payload)
        with pytest.raises(ValueError, match=r"invalid ReproConfig.*"
                           r"SweepRunner\(executor='process'\)"):
            load_checkpoint(path)
