"""The resilience layer: sentinel, rollback/retry, checkpoint/restart.

The two pinned properties everything else rides on:

- healthy runs with the sentinel on are *bit-identical* to runs with the
  layer disabled, and
- a checkpoint saved mid-run resumes *bit-identically* to the
  uninterrupted trajectory.
"""
import dataclasses
import json

import numpy as np
import pytest

from repro.analysis.faultinject import (InjectedFault,
                                        force_unresolved_contact,
                                        inject_nan, raise_in_task)
from repro.config import NumericsOptions, ReproConfig, ResilienceOptions
from repro.core import Simulation
from repro.linalg.dense import (LUFactorization, StackedLUFactorization)
from repro.physics.terms import Bending, Tension
from repro.resilience import (CHECKPOINT_VERSION, HealthSentinel,
                              StepRejectedError, WarnOnceRegistry,
                              capture_state, load_checkpoint,
                              restore_state, save_checkpoint)
from repro.surfaces.shapes import biconcave_rbc, sphere


def _scene(ncell=2, order=6, dt=0.05, resilience=None, **cfg_kw):
    cfg = ReproConfig(dt=dt, forces=[Bending(0.01), Tension()],
                      with_collisions=False,
                      resilience=resilience or ResilienceOptions(),
                      **cfg_kw)
    cells = [biconcave_rbc(order=order).translated([0.0, 0.0, 2.5 * i])
             for i in range(ncell)]
    return Simulation(cells, config=cfg)


def _state(sim):
    return ([c.X.copy() for c in sim.cells],
            [s.copy() for s in sim.stepper.sigmas])


def _states_equal(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a[0], b[0])) and \
        all(np.array_equal(x, y) for x, y in zip(a[1], b[1]))


class TestWarnOnceRegistry:
    def test_registries_do_not_suppress_each_other(self):
        a, b = WarnOnceRegistry(), WarnOnceRegistry()
        assert a.warn_once("k", "m")
        assert b.warn_once("k", "m")        # same key, other run: fires
        assert not a.warn_once("k", "m")
        assert a.run_id != b.run_id         # keys carry run identity

    def test_reset_is_scoped(self):
        a, b = WarnOnceRegistry(), WarnOnceRegistry()
        a.warn_once("k", "m")
        b.warn_once("k", "m")
        a.reset()
        assert a.warn_once("k", "m")        # a forgot
        assert not b.warn_once("k", "m")    # b did not

    def test_degradation_warning_fires_once_per_simulation(self, caplog):
        """Regression: pre-PR the first simulation to degrade its
        backend silenced that warning for every other simulation in the
        process (one process-global warn_once registry)."""
        import logging
        with caplog.at_level(logging.WARNING,
                             logger="repro.resilience.health"):
            for _ in range(2):
                sim = _scene(ncell=2, backend="fmm")
                with inject_nan(sim.backend, "cell_cell"):
                    rep = sim.step()
                assert rep.backend_degraded_to == "direct"
        degraded = [r for r in caplog.records
                    if "degrading to" in r.getMessage()]
        assert len(degraded) == 2

    def test_record_only_findings_log_exactly_one_record(self, caplog,
                                                         monkeypatch):
        """Regression: a capped BIE solve and a singular LU slice were
        each logged twice per run, once by the stepper and once by the
        sentinel under a second warn-once key."""
        import logging
        from repro.patches import capsule_tube
        from repro.vessel import capsule_inlet_outlet_bc
        opts = NumericsOptions(patch_quad=5, check_order=3, upsample_eta=1,
                               check_r_factor=0.25, gmres_max_iter=2)
        vessel = capsule_tube(length=8.0, radius=1.6, refine=0, options=opts)
        sim = Simulation(
            [sphere(0.5, order=3)], vessel=vessel,
            boundary_bc=capsule_inlet_outlet_bc(vessel, axis=2, flux=2.0),
            config=ReproConfig(dt=0.05, numerics=opts))
        assert sim.config.resilience.enabled      # the sentinel runs too
        monkeypatch.setattr(sim.stepper, "_singular_lu_cells", lambda: [0])
        with caplog.at_level(logging.WARNING, logger="repro"):
            reports = [sim.step() for _ in range(2)]
        assert not any(r.bie_converged for r in reports)
        assert all(r.lu_singular == [0] for r in reports)
        messages = [r.getMessage() for r in caplog.records]
        assert sum("iteration cap" in m for m in messages) == 1
        assert sum("singular" in m for m in messages) == 1


class TestSentinelBitIdentity:
    def test_healthy_run_identical_with_sentinel_on_and_off(self):
        on = _scene()
        off = _scene(resilience=ResilienceOptions(enabled=False))
        for _ in range(3):
            on.step()
            off.step()
        assert _states_equal(_state(on), _state(off))
        assert on.t == off.t
        # the on-run carried a healthy verdict on every report
        assert all(r.health is not None and r.health.healthy
                   for r in on.history)
        assert all(r.health is None for r in off.history)


class TestSnapshotRollback:
    def test_restore_then_restep_is_bit_identical(self):
        sim = _scene()
        sim.step()
        snap = capture_state(sim.stepper, sim.t)
        before = _state(sim)
        sim.stepper.step(sim.t, sim.config.dt)
        stepped = _state(sim)
        assert not _states_equal(before, stepped)
        restore_state(sim.stepper, snap)
        assert _states_equal(_state(sim), before)
        # re-running the identical step after rollback reproduces it
        sim.stepper.step(sim.t, sim.config.dt)
        assert _states_equal(_state(sim), stepped)

    def test_rollback_restores_the_amortized_refresh_cycle(self):
        """Under ``selfop_refresh_interval > 1`` the refresh phase is
        state too: after a rollback the re-stepped run reaches its next
        full reassembly on the same step as the original run."""
        sim = _scene(numerics=NumericsOptions(selfop_refresh_interval=4))
        for _ in range(2):
            sim.step()
        snap = capture_state(sim.stepper, sim.t)
        runs = []
        for _ in range(2):
            restore_state(sim.stepper, snap)
            for _ in range(3):
                sim.stepper.step(sim.t, sim.config.dt)
            runs.append(_state(sim))
        assert _states_equal(*runs)

    def test_snapshot_survives_multiple_restores(self):
        sim = _scene(ncell=1)
        snap = capture_state(sim.stepper, sim.t)
        before = _state(sim)
        for _ in range(2):
            sim.stepper.step(sim.t, sim.config.dt)
            restore_state(sim.stepper, snap)
            assert _states_equal(_state(sim), before)


class TestHealthSentinel:
    def test_nonfinite_positions_fail(self):
        sim = _scene(ncell=1)
        snap = capture_state(sim.stepper, sim.t)
        rep = sim.stepper.step(sim.t, sim.config.dt)
        sentinel = HealthSentinel(sim.config.resilience)
        assert sentinel.evaluate(sim.stepper, rep, snap).healthy
        X = sim.cells[0].X.copy()
        X.reshape(-1)[0] = np.nan
        sim.cells[0].set_positions(X)
        health = sentinel.evaluate(sim.stepper, rep, snap)
        assert not health
        assert health.nonfinite_cells == [0]

    def test_area_drift_bound(self):
        sim = _scene(ncell=1)
        snap = capture_state(sim.stepper, sim.t)
        rep = sim.stepper.step(sim.t, sim.config.dt)
        strict = HealthSentinel(dataclasses.replace(
            sim.config.resilience, max_area_drift=1e-30,
            max_volume_drift=1e-30))
        health = strict.evaluate(sim.stepper, rep, snap)
        assert not health.healthy
        assert any("drift" in f for f in health.failures)

    def test_nonconverged_implicit_rejects(self):
        sim = _scene(ncell=1)
        snap = capture_state(sim.stepper, sim.t)
        rep = sim.stepper.step(sim.t, sim.config.dt)
        rep = dataclasses.replace(rep, implicit_converged=[False])
        sentinel = HealthSentinel(sim.config.resilience)
        assert not sentinel.evaluate(sim.stepper, rep, snap)
        lax = HealthSentinel(dataclasses.replace(
            sim.config.resilience, reject_nonconverged_implicit=False))
        assert lax.evaluate(sim.stepper, rep, snap).healthy


class TestRetryAndRejection:
    def test_task_crash_triggers_rollback_and_retry(self):
        sim = _scene(ncell=1)
        with raise_in_task(sim.executor) as counter:
            rep = sim.step()
        assert counter.fired == 1
        assert rep.retries == 1
        # the retried sub-steps land back on the nominal grid
        assert rep.dt == sim.config.dt
        assert sum(s.dt for s in rep.substeps) == pytest.approx(rep.dt)
        assert sim.t == pytest.approx(sim.config.dt)

    def test_dt_backoff_converges_back_to_nominal_grid(self):
        sim = _scene(ncell=1)
        # fail the first two attempts -> dt/4 sub-steps, 4 of them
        with raise_in_task(sim.executor, start=0, count=2):
            rep = sim.step()
        assert rep.retries == 2
        assert len(rep.substeps) == 4
        assert all(s.dt == pytest.approx(sim.config.dt / 4)
                   for s in rep.substeps)
        assert sim.t == pytest.approx(sim.config.dt)
        # sub-step start times tile the nominal interval exactly
        assert [s.t for s in rep.substeps] == pytest.approx(
            [k * sim.config.dt / 4 for k in range(4)])

    def test_exhausted_retry_budget_raises_and_rolls_back(self):
        sim = _scene(ncell=1, resilience=ResilienceOptions(max_retries=1))
        before = _state(sim)
        with raise_in_task(sim.executor, count=99):
            with pytest.raises(StepRejectedError):
                sim.step()
        assert _states_equal(_state(sim), before)
        assert sim.t == 0.0
        assert sim.history == []

    def test_dt_floor_stops_halving(self):
        sim = _scene(ncell=1, resilience=ResilienceOptions(
            max_retries=50, dt_floor_factor=0.3))
        with raise_in_task(sim.executor, count=99):
            with pytest.raises(StepRejectedError, match="floor"):
                sim.step()

    def test_disabled_layer_propagates_the_crash(self):
        sim = _scene(ncell=1,
                     resilience=ResilienceOptions(enabled=False))
        with raise_in_task(sim.executor, count=99):
            with pytest.raises(InjectedFault):
                sim.step()

    def test_unresolved_contact_rejects_under_policy(self):
        sim = _scene(ncell=1)  # no collisions: fabricate the NCP flags
        snap = capture_state(sim.stepper, sim.t)
        rep = sim.stepper.step(sim.t, sim.config.dt)
        from repro.collision.ncp import NCPReport
        bad = NCPReport(n_candidates=1, n_components=1, lcp_solves=7,
                        max_penetration_before=1.0,
                        max_penetration_after=0.5, contact_active=True,
                        lambdas=np.zeros(0), resolved=False)
        rep = dataclasses.replace(rep, ncp=bad)
        sentinel = HealthSentinel(sim.config.resilience)
        assert not sentinel.evaluate(sim.stepper, rep, snap)
        lax = HealthSentinel(dataclasses.replace(
            sim.config.resilience, reject_unresolved_contact=False))
        assert lax.evaluate(sim.stepper, rep, snap).healthy


class TestBackendDegradation:
    def test_nan_farfield_degrades_to_next_backend(self):
        sim = _scene(ncell=2, backend="fmm")
        ref = _scene(ncell=2, backend="direct")
        with inject_nan(sim.backend, "cell_cell") as counter:
            rep = sim.step()
        ref.step()
        assert counter.fired == 1
        assert rep.backend_degraded_to == "direct"
        assert sim.backend.name == "direct"
        assert rep.health.healthy
        # the degraded step ran on the exact backend: bit-identical to
        # a direct-backend run of the same scene
        assert _states_equal(_state(sim), _state(ref))
        # sticky: the next step stays on the fallback
        rep2 = sim.step()
        assert rep2.backend_degraded_to == "direct"

    def test_exhausted_chain_falls_through_to_dt_retry(self):
        sim = _scene(ncell=2, resilience=ResilienceOptions(
            max_retries=1))
        # active backend is "direct": no fallback exists, so a persistent
        # NaN goes down the dt-retry path and exhausts the budget
        with inject_nan(sim.backend, "cell_cell", count=99):
            with pytest.raises(StepRejectedError):
                sim.step()
        assert sim.backend.name == "direct"


class TestCheckpoint:
    def test_mid_run_resume_is_bit_identical(self, tmp_path):
        full = _scene()
        for _ in range(2):
            full.step()
        path = save_checkpoint(full, str(tmp_path / "ckpt"))
        for _ in range(2):
            full.step()
        resumed = load_checkpoint(path)
        assert resumed.t == pytest.approx(2 * full.config.dt)
        for _ in range(2):
            resumed.step()
        assert _states_equal(_state(full), _state(resumed))
        assert full.t == resumed.t

    def test_resume_mid_refresh_cycle_is_bit_identical(self, tmp_path):
        full = _scene(
            numerics=NumericsOptions(selfop_refresh_interval=3))
        for _ in range(2):   # checkpoint lands mid-cycle (since_full=2)
            full.step()
        ops = full.stepper._self_ops
        assert any(op._since_full > 1 for op in ops)
        path = save_checkpoint(full, str(tmp_path / "ckpt"))
        for _ in range(3):
            full.step()
        resumed = load_checkpoint(path)
        for _ in range(3):
            resumed.step()
        assert _states_equal(_state(full), _state(resumed))

    def test_rng_round_trip(self, tmp_path):
        sim = _scene(ncell=1)
        rng = np.random.default_rng(1234)
        rng.normal(size=7)  # advance past the seed state
        path = save_checkpoint(sim, str(tmp_path / "c"), rng=rng)
        expect = rng.normal(size=5)
        rng2 = np.random.default_rng(0)
        load_checkpoint(path, rng=rng2)
        assert np.array_equal(rng2.normal(size=5), expect)

    def test_config_round_trips_through_manifest(self, tmp_path):
        sim = _scene(resilience=ResilienceOptions(
            max_retries=7, degradation_order=("direct",)))
        path = save_checkpoint(sim, str(tmp_path / "c"))
        resumed = load_checkpoint(path)
        assert resumed.config.to_dict() == sim.config.to_dict()
        assert resumed.config.resilience.max_retries == 7
        assert resumed.config.resilience.degradation_order == ("direct",)

    def test_vessel_and_recycler_refuse(self):
        sim = _scene(ncell=1)
        sim.recycler = object()
        with pytest.raises(NotImplementedError):
            save_checkpoint(sim, "nope")

    def test_newer_version_refuses_to_load(self, tmp_path):
        sim = _scene(ncell=1)
        path = save_checkpoint(sim, str(tmp_path / "c"))
        with np.load(path, allow_pickle=False) as data:
            payload = {k: data[k] for k in data.files}
        manifest = json.loads(str(payload["manifest"]))
        manifest["version"] = CHECKPOINT_VERSION + 1
        payload["manifest"] = np.array(json.dumps(manifest))
        np.savez(path, **payload)
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)


class TestSingularLUFallback:
    def test_singular_matrix_solves_finite_via_gmres(self):
        A = np.eye(4)
        A[2, 2] = 0.0
        with pytest.warns(Warning, match="singular"):
            lu = LUFactorization(A)
        assert lu.singular
        rhs = np.array([1.0, 2.0, 0.0, 3.0])
        x = lu.solve(rhs)
        assert np.isfinite(x).all()
        assert np.allclose(A @ x, rhs)

    def test_stacked_singular_slice_isolated(self):
        good = np.diag([1.0, 2.0, 3.0])
        bad = np.diag([1.0, 0.0, 3.0])
        with pytest.warns(Warning, match="singular"):
            st = StackedLUFactorization(np.stack([good, bad]))
        assert st.singular == (1,)
        assert not st.handle(0).singular
        assert st.handle(1).singular
        x0 = st.solve_one(0, np.ones(3))
        assert np.allclose(good @ x0, np.ones(3))
        assert np.isfinite(st.solve_one(1, np.array([1.0, 0.0, 2.0]))).all()

    def test_factor_round_trip_is_bit_identical(self, rng):
        A = rng.normal(size=(12, 12)) + 12.0 * np.eye(12)
        lu = LUFactorization(A)
        clone = LUFactorization.from_factors(*lu.factors)
        rhs = rng.normal(size=12)
        assert np.array_equal(lu.solve(rhs), clone.solve(rhs))

    def test_stacked_handle_factors_match_per_cell(self, rng):
        A = rng.normal(size=(3, 8, 8)) + 8.0 * np.eye(8)
        st = StackedLUFactorization(A)
        rhs = rng.normal(size=8)
        for i in range(3):
            clone = LUFactorization.from_factors(*st.handle(i).factors)
            assert np.array_equal(st.solve_one(i, rhs), clone.solve(rhs))


class TestResilienceOptionsSerialization:
    def test_from_dict_ignores_unknown_keys(self):
        opts = ResilienceOptions.from_dict(
            {"max_retries": 2, "future_knob": "whatever"})
        assert opts.max_retries == 2

    def test_config_json_round_trip(self):
        cfg = ReproConfig(resilience=ResilienceOptions(
            max_retries=9, degradation_order=("direct",)))
        back = ReproConfig.from_json(cfg.to_json())
        assert back.resilience == cfg.resilience
        assert isinstance(back.resilience.degradation_order, tuple)
