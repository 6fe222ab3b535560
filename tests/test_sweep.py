"""The many-scene sweep engine (:mod:`repro.sweep`) and the
cross-simulation global-state fixes it depends on."""
import dataclasses
import threading
import time

import numpy as np
import pytest

from repro import ReproConfig, presets
from repro.analysis.guard import HEAVY_TABLE_CACHE_SIZE, PER_ORDER_CACHE_SIZE
from repro.config import ResilienceOptions
from repro.core import Simulation
from repro.physics.terms import Bending, Tension
from repro.runtime import warm_caches
from repro.surfaces import biconcave_rbc
from repro.sweep import SceneJob, SceneResult, SweepRunner, run_scene


def _job(job_id, n_steps=3, order=6, kappa=0.05, dt=0.05, **kw):
    cfg = presets.relaxation(dt=dt, bending_modulus=kappa)
    return SceneJob.from_cells(
        job_id, cfg, [biconcave_rbc(radius=1.0, order=order)],
        n_steps=n_steps, **kw)


def _jobs(n=3, **kw):
    # distinct physics per job so a cross-job mixup cannot cancel out
    return [_job(f"job{i}", kappa=0.03 + 0.01 * i, **kw) for i in range(n)]


def _positions_equal(a, b):
    return all(x.shape == y.shape and x.tobytes() == y.tobytes()
               for x, y in zip(a, b))


class TestSceneJob:
    def test_from_cells_copies_state(self):
        cell = biconcave_rbc(order=6)
        job = SceneJob.from_cells("a", presets.relaxation(), [cell], 2)
        cell.set_positions(cell.X + 1.0)
        sim = job.make_simulation()
        assert not np.allclose(sim.cells[0].X, cell.X)

    def test_requires_state_or_builder(self):
        job = SceneJob("empty", presets.relaxation(), n_steps=1)
        with pytest.raises(ValueError):
            job.make_simulation()
        # via run_scene the same defect is a failed result, not a raise
        res = run_scene(job)
        assert res.status == "failed" and "empty" in res.error

    def test_run_scene_completes(self):
        res = run_scene(_job("a", n_steps=2))
        assert res.completed and res.steps_done == 2
        assert res.t == pytest.approx(2 * 0.05)
        assert res.positions and np.isfinite(res.positions[0]).all()
        assert not res.resumable          # no checkpoint path given

    def test_timeout_is_a_status_not_an_error(self, tmp_path):
        job = _job("slow", n_steps=50, timeout=1e-6,
                   checkpoint_path=str(tmp_path / "slow"))
        res = run_scene(job)
        assert res.status == "timeout"
        assert res.steps_done < 50
        assert res.resumable and res.checkpoint_path.endswith(".npz")

    def test_timeout_then_resume_matches_uninterrupted(self, tmp_path):
        ref = run_scene(_job("ref", n_steps=4))
        job = _job("ref", n_steps=4, timeout=1e-6,
                   checkpoint_path=str(tmp_path / "ref"))
        attempts = 0
        res = run_scene(job)
        while res.status == "timeout":
            attempts += 1
            assert attempts < 60
            # each retry gets a fresh budget and resumes the frontier
            res = run_scene(dataclasses.replace(job, timeout=30.0))
        assert res.completed
        assert _positions_equal(res.positions, ref.positions)


class TestSweepBitIdentity:
    """Per-job trajectories must be bit-identical to running each job
    alone serially, on every executor (the sweep acceptance gate)."""

    @pytest.mark.parametrize("executor,workers", [
        ("serial", 1), ("thread", 2), ("process", 2)])
    def test_sweep_matches_job_by_job_serial(self, executor, workers):
        ref = [run_scene(j) for j in _jobs(3)]
        report = SweepRunner(_jobs(3), executor=executor,
                             workers=workers).run()
        assert [r.status for r in report.results] == ["completed"] * 3
        for a, b in zip(ref, report.results):
            assert a.job_id == b.job_id
            assert _positions_equal(a.positions, b.positions)

    def test_results_in_input_order(self):
        report = SweepRunner(_jobs(4), executor="thread", workers=2,
                             max_inflight=2).run()
        assert [r.job_id for r in report.results] == \
            [f"job{i}" for i in range(4)]


def _poisoned_build(job):
    """Scene whose far field turns non-finite with no degradation path:
    the retry budget exhausts and step() raises StepRejectedError."""
    from repro.analysis.faultinject import inject_nan
    sim = dataclasses.replace(job, build=None).make_simulation()
    ctx = inject_nan(sim.backend, "cell_cell", start=0, count=99)
    ctx.__enter__()
    sim._fault_ctx = ctx     # pin the suspended context manager
    return sim


class TestFailureIsolation:
    @pytest.mark.parametrize("executor,workers", [
        ("serial", 1), ("process", 2)])
    def test_step_rejected_lands_as_failed_result(self, executor, workers):
        jobs = _jobs(3)
        pol = ResilienceOptions(max_retries=1)
        jobs[1] = dataclasses.replace(
            jobs[1],
            config=dataclasses.replace(jobs[1].config, resilience=pol),
            build=_poisoned_build)
        report = SweepRunner(jobs, executor=executor, workers=workers).run()
        statuses = {r.job_id: r.status for r in report.results}
        assert statuses == {"job0": "completed", "job1": "failed",
                            "job2": "completed"}
        failed = report.results[1]
        assert "StepRejectedError" in failed.error
        # the failed job's state is the rolled-back frontier, not NaNs
        assert np.isfinite(failed.positions[0]).all()
        # the healthy jobs are untouched by their neighbor's failure
        for i in (0, 2):
            solo = run_scene(_jobs(3)[i])
            assert _positions_equal(solo.positions,
                                    report.results[i].positions)


class _QuietRecycler:
    def recycle(self, cells):
        return []


def _recycling_build(job):
    sim = dataclasses.replace(job, build=None).make_simulation()
    sim.recycler = _QuietRecycler()
    return sim


class TestNonCheckpointableJobs:
    def test_marked_non_resumable_and_sweep_continues(self, tmp_path):
        jobs = _jobs(2)
        jobs[0] = dataclasses.replace(jobs[0], build=_recycling_build)
        report = SweepRunner(jobs, executor="serial",
                             workdir=str(tmp_path)).run()
        rec, plain = report.results
        assert rec.completed and not rec.resumable
        assert rec.checkpoint_path is None
        assert plain.completed and plain.resumable

    def test_save_checkpoint_still_refuses_via_capability(self):
        from repro.resilience import save_checkpoint
        sim = _recycling_build(_job("r"))
        assert not sim.checkpointable
        with pytest.raises(NotImplementedError):
            save_checkpoint(sim, "/tmp/never-written")


class TestKillResume:
    def test_interrupted_sweep_resumes_exactly_unfinished(self, tmp_path):
        ref = [run_scene(j) for j in _jobs(4)]
        # First attempt: tiny per-job budget for all but job0 — a mix of
        # completed and timed-out jobs survives the "kill".
        mixed = _jobs(4)
        mixed[0] = dataclasses.replace(mixed[0], timeout=300.0)
        first = SweepRunner(mixed, executor="serial",
                            workdir=str(tmp_path), timeout=1e-6).run()
        unfinished = [r.job_id for r in first.results if not r.completed]
        assert unfinished, "timeout budget unexpectedly sufficed"
        assert first.results[0].completed
        # Resume: full budget. Completed jobs are restored verbatim,
        # unfinished ones resume from their checkpoint frontier.
        second = SweepRunner(_jobs(4), executor="serial",
                             workdir=str(tmp_path)).run()
        assert [r.status for r in second.results] == ["completed"] * 4
        assert set(second.restored) == \
            {r.job_id for r in first.results if r.completed}
        for a, b in zip(ref, second.results):
            assert _positions_equal(a.positions, b.positions)
        # Third run: everything restored, nothing recomputed or repeated.
        third = SweepRunner(_jobs(4), executor="serial",
                            workdir=str(tmp_path)).run()
        assert sorted(third.restored) == [f"job{i}" for i in range(4)]
        for a, b in zip(ref, third.results):
            assert _positions_equal(a.positions, b.positions)

    def test_duplicate_job_ids_rejected(self):
        with pytest.raises(ValueError):
            SweepRunner([_job("x"), _job("x")], executor="serial")


class TestWarmCaches:
    def test_idempotent_and_shared(self):
        from repro.sph.transform import get_transform
        warmed = warm_caches([6])
        assert 6 in warmed
        t = get_transform(6)
        warm_caches([6])
        assert get_transform(6) is t

    def test_mixed_order_sweep_does_not_evict_live_tables(self):
        from repro.sph.transform import get_transform
        t = get_transform(6)
        # a wide mixed-order batch (old bound: 8-32 entries) must not
        # evict a table another live scene still holds
        warm_caches(range(3, 19))
        assert get_transform(6) is t
        assert PER_ORDER_CACHE_SIZE >= 128
        assert HEAVY_TABLE_CACHE_SIZE >= 32


class TestConcurrentCacheBuilds:
    def test_concurrent_first_build_builds_once(self, monkeypatch):
        """Regression (pre-PR: both threads miss the lru_cache and each
        builds the table; one object wins, one is dropped)."""
        import repro.sph.transform as tr
        order = 23              # touched by nothing else in the suite
        assert tr.get_transform.cache_info().maxsize >= PER_ORDER_CACHE_SIZE
        builds = []
        orig = tr._TransformTables.__init__

        def slow_init(self, p):
            builds.append(p)
            time.sleep(0.05)    # widen the race window
            orig(self, p)

        monkeypatch.setattr(tr._TransformTables, "__init__", slow_init)
        barrier = threading.Barrier(2)
        results = [None, None]

        def build(i):
            barrier.wait()
            results[i] = tr.get_transform(order)

        threads = [threading.Thread(target=build, args=(i,))
                   for i in range(2)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert builds == [order]
        assert results[0] is results[1]


class TestConcurrentSimulations:
    def test_two_sims_two_threads_bit_identical(self):
        """Two independent simulations of the same (fresh) order stepped
        concurrently must match their serial selves bit-for-bit — the
        shared-table caches they race on are build-locked now."""
        def scene(kappa):
            cfg = ReproConfig(dt=0.05, forces=[Bending(kappa), Tension()],
                              with_collisions=False)
            cells = [biconcave_rbc(order=7).translated([0, 0, 2.5 * i])
                     for i in range(2)]
            return Simulation(cells, config=cfg)

        serial = []
        for kappa in (0.01, 0.02):
            sim = scene(kappa)
            for _ in range(2):
                sim.step()
            serial.append([c.X.copy() for c in sim.cells])

        sims = [scene(0.01), scene(0.02)]
        errors = []

        def drive(sim):
            try:
                for _ in range(2):
                    sim.step()
            except Exception as exc:             # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=drive, args=(s,)) for s in sims]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert not errors
        for ref, sim in zip(serial, sims):
            assert all(x.tobytes() == c.X.tobytes()
                       for x, c in zip(ref, sim.cells))


class TestResultRoundTrip:
    def test_npz_round_trip(self, tmp_path):
        from repro.sweep.job import result_from_npz, result_to_npz
        res = run_scene(_job("rt", n_steps=1))
        path = result_to_npz(res, str(tmp_path / "rt"))
        back = result_from_npz(path)
        assert back.meta_dict() == res.meta_dict()
        assert _positions_equal(back.positions, res.positions)

    def test_failed_build_round_trips_without_positions(self, tmp_path):
        res = SceneResult(job_id="x", status="failed", steps_done=0,
                          t=0.0, error="boom")
        from repro.sweep.job import result_from_npz, result_to_npz
        back = result_from_npz(result_to_npz(res, str(tmp_path / "x")))
        assert back.positions is None and back.error == "boom"
