"""Quickstart: one red blood cell relaxing in quiescent fluid.

Tour of the public API: build a biconcave RBC surface, inspect its
geometry, then assemble a scenario with the fluent builder — a
:class:`repro.ReproConfig` preset plus composable force terms — and run
a few locally-implicit time steps of pure bending relaxation (no
background flow, no walls). The Helfrich energy must decrease
monotonically.

The configuration is a single serializable object: ``cfg.to_json()``
round-trips through ``ReproConfig.from_json``, so a run's physics and
numerics can be archived next to its outputs.

Run:  python examples/quickstart.py
"""
import os
import tempfile

from repro import ReproConfig, Scenario, load_checkpoint, presets, \
    save_checkpoint
from repro.physics import bending_energy
from repro.surfaces import biconcave_rbc


def main() -> None:
    # An RBC surface is a spectral (spherical-harmonic) closed surface.
    cell = biconcave_rbc(radius=1.0, order=8)
    print("=== the cell ===")
    print(f"surface points : {cell.n_points}")
    print(f"area           : {cell.area():.4f}")
    print(f"volume         : {cell.volume():.4f}")
    print(f"reduced volume : {cell.reduced_volume():.3f}  (sphere = 1, RBC ~ 0.64)")

    # A scenario couples membrane mechanics to the Stokes mobility; the
    # relaxation preset is just bending, no collisions.
    cfg = presets.relaxation(dt=0.05, bending_modulus=0.05)
    assert ReproConfig.from_json(cfg.to_json()) == cfg  # archivable
    sim = Scenario.builder().config(cfg).cell(cell).build()

    # The per-cell solves (tension Schur complement, implicit bending)
    # are direct: the operators are assembled as dense matrices and
    # LU-factorized once per refresh, one stacked getrf pass per
    # equal-order cell group. Setting
    # cfg.numerics.selfop_refresh_interval = k reassembles the singular
    # self-interaction operator (and those factorizations) only every
    # k-th step, applying a first-order
    # geometric correction (exact for rigid motion: translation,
    # rotation, dilation) in between — about 2x faster stepping at
    # ~1e-5 trajectory deviation on the benchmark scene; k = 1 (the
    # default) reproduces the exact per-step path.
    #
    # Every per-cell stage (operator refresh, factorize-and-solve,
    # per-source interaction sums) is an independent task mapped over a
    # pluggable executor, bit-identical to the serial default (results
    # are gathered by cell index).
    #
    # === Scaling out ====================================================
    # In one scene, use cfg.numerics.executor = "thread" with
    # cfg.numerics.workers = N (or "auto" = min(cpu_count, ncells)).
    # Across scenes, use SweepRunner(executor="process") (see "Running
    # sweeps" below). On a 2-vCPU host, two threads step the 6-cell
    # order-8 scene at 174 ms instead of 222 ms. Two processes run 24
    # small scenes at 14.5 jobs/s instead of 8.7.
    #
    # Determinism contract & tooling: per-cell tasks may only write
    # state owned by their own cell, and every lru-cached numpy table
    # (quadrature nodes, Legendre/rotation tables, operator matrices)
    # is frozen read-only at construction — that is what makes the
    # threaded schedule bit-identical to serial. The contract is
    # enforced two ways: statically by `python -m repro_lint src/`
    # (an AST pass over every executor.map call site, run in CI); and
    # dynamically by cfg.numerics.executor = "checked", which wraps the
    # real executor, holds all shared tables non-writeable during each
    # map and re-runs a sample of tasks to confirm bit-identical
    # results.
    #
    # Multi-cell scenes choose the cell-cell summation backend with
    # cfg.backend (or .backend("name", **knobs) on the builder). Both
    # agree to the stated accuracy and share the near-singular
    # pipeline; they differ in how the smooth far field is summed.
    # Guidance by cell count (one core; wall-clock is prepare +
    # cell_cell per step, recorded in benchmarks/BENCH_step.json):
    #
    #   ncell    backend     why
    #   -------  ----------  ------------------------------------------
    #   < ~16    "direct"    exact O(ncell^2) pairwise sums; lowest
    #                        constant, nothing to tune (16 cells order
    #                        6: direct 329 ms vs fmm 293 ms)
    #   ~16+     "fmm"       one global octree, two-pass kernel-
    #                        independent FMM, O(N): 1429 ms vs direct
    #                        7460 ms at 64 cells order 8, rel error 3e-5
    #
    # The fmm backend's equiv_points_per_edge knob trades speed for
    # accuracy (4 -> ~2e-4, 5 (default) -> ~1e-5, 8 -> ~1e-7 relative
    # to direct); max_leaf (default 400) trades near-field P2P against
    # translation work and rarely needs touching.
    #
    # The singular self-interaction operator is assembled by the
    # FFT-diagonalized block-circulant route: exact for arbitrary
    # shapes, same-order cell groups assembled as one stacked pass, and
    # no memory gate, so spherical-harmonic orders of 12 and beyond are
    # practical.
    n = cfg.numerics
    print(f"amortization   : "
          f"selfop_refresh_interval={n.selfop_refresh_interval}")
    print(f"execution      : executor={n.executor!r} workers={n.workers}")

    kappa = cfg.bending_modulus
    print("\n=== bending relaxation ===")
    print(f"{'step':>4} {'t':>6} {'energy':>12} {'area':>10} {'volume':>10}")
    for k in range(6):
        E = bending_energy(sim.cells[0], kappa)
        print(f"{k:>4} {sim.t:>6.2f} {E:>12.6f} "
              f"{sim.cells[0].area():>10.5f} {sim.cells[0].volume():>10.5f}")
        sim.step()
    E = bending_energy(sim.cells[0], kappa)
    print(f"{6:>4} {sim.t:>6.2f} {E:>12.6f}")
    print("\nbending energy decreases as the biconcave shape relaxes; "
          "area/volume drift is the (first-order) time-stepping error.")

    # === Resilience & checkpointing =====================================
    # Every sim.step() above was already a *transaction*: the mutable
    # per-cell state is snapshotted, the stepped state is validated by a
    # health sentinel (finite positions/tensions, per-cell area/volume
    # drift bounds, the solver convergence flags the step computed
    # anyway), and a failed — or crashed — step is rolled back and
    # retried at half the time step, sub-stepping back onto the nominal
    # time grid. Healthy steps are bit-identical to stepping with the
    # layer off, and the sentinel's cost is gated at <3% of ms/step by
    # benchmarks/bench_step_breakdown.py. The policy lives in
    # cfg.resilience (a repro.ResilienceOptions): the retry budget
    # (max_retries), the smallest sub-step (dt_floor_factor), the drift
    # bounds, which findings reject a step, and the backend degradation
    # chain — on non-finite far-field output the fast summation backend
    # is permanently degraded along degradation_order
    # (fmm -> direct) instead of failing the run. When the
    # budget or the dt floor is exhausted, step() raises
    # repro.StepRejectedError with the state rolled back, and
    # report.health / report.retries / report.substeps record what
    # happened on every accepted step.
    r = cfg.resilience
    print("\n=== resilience & checkpointing ===")
    print(f"policy         : enabled={r.enabled} max_retries={r.max_retries} "
          f"dt_floor_factor={r.dt_floor_factor:g}")
    print(f"drift bounds   : area={r.max_area_drift:g} "
          f"volume={r.max_volume_drift:g}")
    print(f"degradation    : {' -> '.join(r.degradation_order)} "
          f"(backend_degradation={r.backend_degradation})")
    health = sim.history[-1].health
    print(f"last step      : healthy={health.healthy} "
          f"area_drift={health.area_drift:.2e} "
          f"volume_drift={health.volume_drift:.2e} "
          f"retries={sim.history[-1].retries}")

    # A checkpoint serializes everything the trajectory depends on —
    # positions, spectral coefficients, tensions, the factorized
    # per-cell operators mid-refresh-cycle, the full config — so a
    # resumed run is *bit-identical* to one that never stopped (pinned
    # by tests/test_resilience.py and the nightly kill/resume smoke).
    with tempfile.TemporaryDirectory() as tmp:
        path = save_checkpoint(sim, os.path.join(tmp, "quickstart"))
        resumed = load_checkpoint(path)
        resumed.step()
        sim.step()
        same = (resumed.cells[0].X == sim.cells[0].X).all()
        print(f"checkpoint     : saved at t={resumed.t - cfg.dt:.2f}, "
              f"resumed one step bit-identical: {bool(same)}")

    # === Running sweeps =================================================
    # The production workload is rarely one big scene — it is many
    # *independent* scenes (a parameter sweep, per-patient configs).
    # repro.sweep makes one scene a serializable, schedulable unit:
    # a SceneJob is just a ReproConfig + initial cell state + duration,
    # and SweepRunner multiplexes N of them over an executor of the
    # registry ("serial" / "thread" / "process"), one whole scene per
    # task. The guarantees, in order of importance:
    #
    # - bit-identity: every job runs through the same pure run_scene(),
    #   so an N-job process sweep's trajectories are bit-identical to
    #   running each job alone (gated by the CI sweep-smoke lane);
    # - failure isolation: one scene's StepRejectedError (or crash)
    #   lands as a "failed" SceneResult; the rest of the sweep runs on;
    # - kill/resume: give the runner a workdir and each job checkpoints
    #   periodically while completed jobs land in an atomically-updated
    #   manifest — re-running an interrupted sweep restores finished
    #   jobs verbatim and resumes the rest from their frontier
    #   (vessel/recycler scenes, where Simulation.checkpointable is
    #   False, degrade to non-resumable jobs instead of aborting);
    # - warm caches: the geometry-independent per-order tables every
    #   scene of the same order shares are pre-built once in the parent
    #   (repro.runtime.warm_caches), so forked workers inherit them
    #   copy-on-write instead of rebuilding them per job.
    #
    # Throughput vs one-at-a-time is measured (and the bit-identity
    # gate enforced) by benchmarks/bench_sweep_throughput.py, which
    # writes the committed benchmarks/BENCH_sweep.json.
    from repro.sweep import SceneJob, SweepRunner
    jobs = [SceneJob.from_cells(
        f"kappa={kappa:g}", presets.relaxation(dt=0.05,
                                               bending_modulus=kappa),
        [biconcave_rbc(radius=1.0, order=6)], n_steps=2)
        for kappa in (0.03, 0.05, 0.08)]
    report = SweepRunner(jobs, executor="process", workers="auto").run()
    print("\n=== parameter sweep (3 scenes, process executor) ===")
    for res in report.results:
        print(f"{res.job_id:>12} : {res.status}  t={res.t:.2f}  "
              f"steps={res.steps_done}")


if __name__ == "__main__":
    main()
