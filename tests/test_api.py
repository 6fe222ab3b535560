"""Tests of the composable scenario API: ReproConfig serialization,
presets, the ScenarioBuilder and interaction backends."""
import dataclasses
import importlib.util

import numpy as np
import pytest

import repro.analysis
import repro.runtime
from repro import NumericsOptions, ReproConfig, Scenario, presets
from repro.core import DirectBackend, Simulation, make_backend
from repro.core.interactions import BACKENDS, FMMBackend
from repro.physics.terms import (BackgroundFlow, Bending, ForceTerm, Gravity,
                                 ShearFlow, Tension, force_term_from_dict,
                                 register_force_term)
from repro.runtime.executor import EXECUTORS
from repro.surfaces import sphere
from repro.vessel.recycling import OutletRecycler, Region


class TestReproConfig:
    def test_json_round_trip(self):
        cfg = ReproConfig(
            dt=0.02, viscosity=2.0,
            forces=[Bending(0.03), Tension(),
                    Gravity(1.5, (0.0, 0.0, -1.0)), ShearFlow(0.7)],
            backend="fmm", backend_options={"mac": 4.0},
            with_collisions=False,
            numerics=NumericsOptions(patch_quad=7, gmres_max_iter=12))
        assert ReproConfig.from_dict(cfg.to_dict()) == cfg
        assert ReproConfig.from_json(cfg.to_json()) == cfg

    def test_all_presets_validate_and_round_trip(self):
        assert len(presets.ALL) >= 4
        for name, fn in presets.ALL.items():
            cfg = fn()
            cfg.validate()
            assert ReproConfig.from_dict(cfg.to_dict()) == cfg, name

    def test_partial_dict_gets_constructor_defaults(self):
        cfg = ReproConfig.from_dict({"dt": 0.1})
        assert cfg == ReproConfig(dt=0.1)
        assert cfg.bending_modulus == ReproConfig().bending_modulus > 0

    def test_invalid_config_rejected_on_construction(self):
        with pytest.raises(ValueError, match="dt"):
            ReproConfig(dt=-1.0)
        with pytest.raises(ValueError, match="backend"):
            ReproConfig(backend="nope")
        with pytest.raises(ValueError, match="gmres_max_iter"):
            ReproConfig(numerics=NumericsOptions(gmres_max_iter=0))
        with pytest.raises(ValueError, match="ForceTerm"):
            ReproConfig(forces=["bending"])

    def test_raw_callable_flow_not_serializable(self):
        cfg = ReproConfig(forces=[Bending(), BackgroundFlow(lambda p: p)])
        with pytest.raises(ValueError, match="serial"):
            cfg.to_dict()

    def test_custom_registered_term_round_trips(self):
        @register_force_term
        class Pull(ForceTerm):
            name = "test_pull"

            def __init__(self, strength=1.0):
                self.strength = float(strength)

            def velocity(self, points):
                u = np.zeros_like(np.asarray(points, float))
                u[:, 2] = self.strength
                return u

            def params(self):
                return {"strength": self.strength}

        cfg = ReproConfig(forces=[Bending(), Pull(0.25)])
        back = ReproConfig.from_dict(cfg.to_dict())
        assert back == cfg
        assert isinstance(force_term_from_dict({"term": "test_pull"}), Pull)

    def test_duplicate_singleton_terms_rejected(self):
        with pytest.raises(ValueError, match="at most one Bending"):
            ReproConfig(forces=[Bending(0.05), Bending(0.1)])
        with pytest.raises(ValueError, match="at most one Tension"):
            ReproConfig(forces=[Bending(), Tension(), Tension()])
        # including via the builder's force() stage
        with pytest.raises(ValueError, match="at most one Bending"):
            (Scenario.builder().config(presets.relaxation())
             .cell(sphere(1.0, order=5)).force(Bending(0.1)).build())

    def test_tension_solve_sees_other_tractions(self):
        # The inextensibility solve must include gravity in its
        # background velocity: with gravity the computed tension field
        # differs from the bending-only one.
        def sigma_after_step(with_gravity):
            forces = [Bending(0.02), Tension()]
            if with_gravity:
                forces.append(Gravity(2.0, (0.0, 0.0, -1.0)))
            cfg = ReproConfig(dt=0.05, forces=forces, with_collisions=False)
            sim = Simulation([sphere(1.0, order=5)], config=cfg)
            sim.step()
            return sim.stepper.sigmas[0]

        s0 = sigma_after_step(False)
        s1 = sigma_after_step(True)
        assert not np.allclose(s0, s1)

    def test_bending_modulus_helper(self):
        assert presets.relaxation(bending_modulus=0.07).bending_modulus == 0.07
        assert ReproConfig(forces=[Tension()]).bending_modulus == 0.0

    def test_with_force_copies(self):
        cfg = presets.relaxation()
        cfg2 = cfg.with_force(Gravity(2.0))
        assert len(cfg2.forces) == len(cfg.forces) + 1
        assert all(not isinstance(t, Gravity) for t in cfg.forces)

    def test_numerics_not_mutated_by_simulation(self):
        opts = NumericsOptions(gmres_max_iter=17)
        before = dataclasses.asdict(opts)
        cfg = ReproConfig(viscosity=3.0, with_collisions=False,
                          numerics=opts)
        sim = Simulation([sphere(1.0, order=5)], config=cfg)
        assert sim.stepper.viscosity == 3.0
        assert dataclasses.asdict(opts) == before
        assert cfg.numerics is opts

    def test_knobs_and_routes_are_pinned(self):
        """A new numerics knob, interaction route, preset or runtime export
        is a deliberate, reviewed diff of this list."""
        assert [f.name for f in dataclasses.fields(NumericsOptions)] == [
            "patch_quad", "check_order", "check_r_factor", "upsample_eta",
            "gmres_max_iter", "gmres_tol", "ncp_max_lcp",
            "selfop_refresh_interval", "executor", "workers"]
        assert sorted(BACKENDS) == ["direct", "fmm"]
        assert sorted(EXECUTORS) == ["checked", "process", "serial", "thread"]
        assert sorted(presets.ALL) == ["relaxation", "sedimentation", "shear",
                                       "vessel_flow"]
        assert repro.runtime.__all__ == [
            "warm_caches", "Executor", "SerialExecutor", "ThreadPoolExecutor",
            "ProcessPoolExecutor", "ProcessTask", "EXECUTORS",
            "make_executor", "register_executor", "resolve_workers",
            "SpatialHash", "morton_keys_3d", "morton_decode_3d"]
        assert importlib.util.find_spec(".scaling", package="repro") is None
        assert repro.analysis.__all__ == [
            "DeterminismError", "freeze", "freeze_attributes",
            "iter_shared_arrays", "register_shared", "tables_frozen",
            "InjectedFault", "inject_nan", "force_nonconvergence",
            "force_unresolved_contact", "raise_in_task"]

    def test_retired_numerics_keys_rejected_by_name(self):
        """A config written before the route consolidation serialized
        seven more numerics fields, one written before the array
        contracts went carries ``debug_checks`` and one written before
        the single-precision far field went carries ``farfield_dtype``;
        loading one must fail as data, naming the keys — never a bare
        TypeError, never a silent drop."""
        retired = {"sph_order": 8, "patch_order": 8, "viscosity": 1.0,
                   "selfop_assembly": "fused", "batched_lu": True,
                   "direct_tension": False, "direct_implicit": True,
                   "debug_checks": True, "farfield_dtype": "float32"}
        d = ReproConfig().to_dict()
        d["numerics"].update(retired)
        with pytest.raises(ValueError, match="invalid ReproConfig") as exc:
            ReproConfig.from_dict(d)
        for key in retired:
            assert key in str(exc.value)

    def test_scene_executor_values(self):
        """One scene steps on "serial", "thread" or "checked". "process"
        would run every stage inline behind an idle pool, so it is
        rejected with a pointer to the sweep runner, where process
        parallelism pays; any other name is unknown."""
        for name in ("serial", "thread", "checked"):
            ReproConfig(numerics=NumericsOptions(executor=name))
        with pytest.raises(ValueError, match=r"SweepRunner\(executor='process'\)"):
            ReproConfig(numerics=NumericsOptions(executor="process"))
        d = ReproConfig().to_dict()
        d["numerics"]["executor"] = "gpu"
        with pytest.raises(ValueError, match=r"unknown executor 'gpu'; choose "
                           r"from \['checked', 'serial', 'thread'\]"):
            ReproConfig.from_dict(d)


class TestScenarioBuilder:
    def test_minimal_free_space_build(self):
        sim = (Scenario.builder()
               .config(presets.relaxation())
               .cell(sphere(1.0, order=5))
               .build())
        rep = sim.step()
        assert len(sim.history) == 1 and rep.ncp is None

    def test_build_without_cells_raises(self):
        with pytest.raises(ValueError, match="no cells"):
            Scenario.builder().config(presets.relaxation()).build()

    def test_bc_without_vessel_raises(self):
        b = (Scenario.builder().cell(sphere(1.0, order=5))
             .boundary_condition(np.zeros((4, 3))))
        with pytest.raises(ValueError, match="vessel"):
            b.build()

    def test_force_and_backend_override(self):
        sim = (Scenario.builder()
               .config(presets.relaxation())
               .cell(sphere(1.0, order=5))
               .force(Gravity(2.0, (0.0, 0.0, -1.0)))
               .backend("fmm", mac=4.0)
               .build())
        assert isinstance(sim.backend, FMMBackend)
        assert sim.backend.mac == 4.0
        assert any(isinstance(t, Gravity) for t in sim.config.forces)
        z0 = sim.centroids()[0, 2]
        sim.step()
        assert sim.centroids()[0, 2] < z0  # gravity term acts

    def test_builder_does_not_mutate_preset(self):
        cfg = presets.relaxation()
        n = len(cfg.forces)
        (Scenario.builder().config(cfg).cell(sphere(1.0, order=5))
         .force(Gravity(1.0)).build())
        assert len(cfg.forces) == n

    def test_prebuilt_backend_instance(self):
        be = DirectBackend()
        sim = (Scenario.builder()
               .config(presets.relaxation())
               .cell(sphere(1.0, order=5))
               .backend(be)
               .build())
        assert sim.backend is be and be.bound

    def test_vessel_and_fill_path(self):
        from repro.patches import capsule_tube
        opts = NumericsOptions(patch_quad=7, check_order=4, upsample_eta=1,
                               check_r_factor=0.25, gmres_max_iter=10)
        vessel = capsule_tube(length=8.0, radius=1.6, refine=0, options=opts)

        def sd(pts):
            z = np.clip(pts[:, 2], -2.4, 2.4)
            ax = np.column_stack([np.zeros(len(pts)), np.zeros(len(pts)), z])
            return np.linalg.norm(pts - ax, axis=1) - 1.6

        cfg = dataclasses.replace(presets.vessel_flow(), numerics=opts)
        sim = (Scenario.builder()
               .config(cfg)
               .vessel(vessel)
               .fill(sd, (np.array([-1.6, -1.6, -4.0]),
                          np.array([1.6, 1.6, 4.0])),
                     spacing=1.6, order=5, shape="sphere", seed=1)
               .build())
        assert sim.vessel is vessel and len(sim.cells) > 0
        assert 0 < sim.volume_fraction() < 0.7

    def test_recycler_path(self):
        opts = NumericsOptions(patch_quad=7, check_order=4, upsample_eta=1,
                               check_r_factor=0.25, gmres_max_iter=10)
        rec = OutletRecycler(
            inlets=[Region(center=np.array([0.0, 0.0, -5.0]), radius=1.0)],
            outlets=[Region(center=np.array([0.0, 0.0, 5.0]), radius=1.0)])
        cfg = ReproConfig(dt=0.01, forces=[Bending(0.01)],
                          with_collisions=False, numerics=opts)
        sim = (Scenario.builder()
               .config(cfg)
               .cell(sphere(0.4, center=(0.0, 0.0, 5.0), order=5))
               .recycler(rec)
               .build())
        rep = sim.step()
        assert rep.recycled == [0]
        assert sim.centroids()[0, 2] < 0


class TestInteractionBackends:
    @pytest.fixture(scope="class")
    def three_cell_scene(self):
        cells = [sphere(0.7, center=(-2.0, 0.0, 0.0), order=5),
                 sphere(0.7, center=(2.0, 0.0, 0.3), order=5),
                 sphere(0.7, center=(0.0, 2.2, -0.2), order=5)]
        rng = np.random.default_rng(3)
        forces = [rng.normal(size=(c.grid.nlat, c.grid.nphi, 3))
                  for c in cells]
        return cells, forces

    def test_backend_equivalence_cell_cell(self, three_cell_scene):
        cells, forces = three_cell_scene
        direct = DirectBackend().bind(cells, 1.0)
        fmm = FMMBackend().bind(cells, 1.0)
        direct.prepare(forces)
        fmm.prepare(forces)
        bd, bt = direct.cell_cell(), fmm.cell_cell()
        for i in range(len(cells)):
            rel = (np.linalg.norm(bd[i] - bt[i])
                   / np.linalg.norm(bd[i]))
            assert rel < 5e-3, f"cell {i}: rel diff {rel:.2e}"

    def test_backend_equivalence_external_targets(self, three_cell_scene):
        cells, forces = three_cell_scene
        direct = DirectBackend().bind(cells, 1.0)
        fmm = FMMBackend().bind(cells, 1.0)
        direct.prepare(forces)
        fmm.prepare(forces)
        targets = np.array([[0.0, 0.0, 4.0], [3.0, 0.0, 0.0],
                            [-1.2, 0.1, 0.0]])
        ud, ut = direct.evaluate_at(targets), fmm.evaluate_at(targets)
        assert np.linalg.norm(ud - ut) / np.linalg.norm(ud) < 5e-3

    def test_cached_density_matches_fresh(self, three_cell_scene):
        cells, forces = three_cell_scene
        be = DirectBackend().bind(cells, 1.0)
        be.prepare(forces)
        fresh = be.evaluators[0].evaluate(forces[0], cells[1].points)
        cached = be.evaluators[0].evaluate(forces[0], cells[1].points,
                                           fine_weighted=be._weighted(0))
        assert np.allclose(fresh, cached, rtol=0, atol=1e-14)

    def test_make_backend_registry(self):
        assert isinstance(make_backend("direct"), DirectBackend)
        assert isinstance(make_backend("fmm", mac=5.0), FMMBackend)
        with pytest.raises(ValueError, match="unknown"):
            make_backend("bogus")

    def test_refresh_cell_public_api(self):
        cells = [sphere(0.8, center=(-1.2, 0.0, 0.0), order=5),
                 sphere(0.8, center=(1.2, 0.0, 0.0), order=5)]
        cfg = ReproConfig(dt=0.05, with_collisions=False)
        sim = Simulation(cells, config=cfg)
        moved = cells[0].X + np.array([0.0, 0.0, 0.5])
        cells[0].set_positions(moved)
        sim.stepper.refresh_cell(0)
        ev = sim.backend.evaluators[0]
        # the cached evaluator now agrees with a freshly built one
        from repro.vesicle import CellNearEvaluator
        ref = CellNearEvaluator(cells[0], viscosity=1.0)
        assert np.allclose(ev._fine.points, ref._fine.points)

    def test_prebound_backend_not_shared_across_simulations(self):
        be = DirectBackend()
        sim_a = (Scenario.builder().config(presets.relaxation())
                 .cell(sphere(1.0, order=5)).backend(be).build())
        # reusing the instance for a second simulation would corrupt the
        # first one's cached state -> refused
        with pytest.raises(ValueError, match="fresh backend"):
            (Scenario.builder().config(presets.relaxation())
             .cells([sphere(0.8, center=(-1.5, 0.0, 0.0), order=5),
                     sphere(0.8, center=(1.5, 0.0, 0.0), order=5)])
             .backend(be).build())
        sim_a.step()  # first simulation is unharmed

    def test_backend_instance_recorded_in_config(self):
        sim = (Scenario.builder()
               .config(presets.relaxation())
               .cell(sphere(1.0, order=5))
               .backend(FMMBackend(mac=4.0))
               .build())
        d = sim.config.to_dict()
        assert d["backend"] == "fmm"
        assert d["backend_options"]["mac"] == 4.0
        # also via the plain Simulation entry point
        sim2 = Simulation([sphere(1.0, order=5)],
                          config=presets.relaxation(),
                          backend=FMMBackend(mac=5.0))
        assert sim2.config.to_dict()["backend_options"]["mac"] == 5.0

    def test_backend_call_overrides_previous_selection(self):
        sim = (Scenario.builder()
               .config(presets.relaxation())
               .cell(sphere(1.0, order=5))
               .backend(FMMBackend(mac=4.0))
               .backend("direct")
               .build())
        assert isinstance(sim.backend, DirectBackend)
        assert sim.config.backend == "direct"

    def test_unregistered_custom_backend_instance(self):
        class MyBackend(DirectBackend):
            name = "custom_unregistered"

        be = MyBackend()
        sim = (Scenario.builder()
               .config(presets.relaxation())
               .cell(sphere(1.0, order=5))
               .backend(be)
               .build())
        assert sim.backend is be
        sim.step()

    def test_boundary_only_simulation_still_runs(self):
        from repro.patches import capsule_tube
        from repro.vessel import capsule_inlet_outlet_bc
        opts = NumericsOptions(patch_quad=7, check_order=4, upsample_eta=1,
                               check_r_factor=0.25, gmres_max_iter=10)
        vessel = capsule_tube(length=8.0, radius=1.6, refine=0, options=opts)
        g = capsule_inlet_outlet_bc(vessel, axis=2, flux=2.0)
        for name in ("direct", "fmm"):
            cfg = ReproConfig(dt=0.05, backend=name, with_collisions=False,
                              numerics=opts)
            sim = Simulation([], vessel=vessel, boundary_bc=g, config=cfg)
            rep = sim.step()
            assert rep.bie_iterations > 0

    def test_refresh_invalidates_prepared_state(self, three_cell_scene):
        cells, forces = three_cell_scene
        be = DirectBackend().bind(cells, 1.0)
        be.prepare(forces)
        be.cell_cell()
        be.refresh(0)
        with pytest.raises(RuntimeError, match="prepare"):
            be.cell_cell()
        with pytest.raises(RuntimeError, match="prepare"):
            be.evaluate_at(np.zeros((1, 3)))
        be.prepare(forces)  # re-preparing restores evaluation
        be.cell_cell()

    def test_simulation_with_fmm_backend_steps(self):
        cells = [sphere(0.7, center=(-1.6, 0.0, 0.3), order=5),
                 sphere(0.7, center=(1.6, 0.0, -0.3), order=5)]
        cfg = ReproConfig(dt=0.05, forces=[Bending(0.02), ShearFlow(1.0)],
                          backend="fmm", with_collisions=False)
        sim = Simulation(cells, config=cfg)
        x0 = sim.centroids()[0, 0]
        sim.run(2)
        assert sim.centroids()[0, 0] != pytest.approx(x0)
