"""Per-component time breakdown of the reference 6-cell order-8 scene.

This is the perf-trajectory benchmark: it times full `Simulation.step`
calls on the standard 6-cell order-8 free-space `DirectBackend` scene
(bending + tension + gravity, collisions on) and writes ``BENCH_step.json``
with the measured ms/step, the :class:`ComponentTimers` per-category
breakdown — including the ``Tension`` / ``Implicit`` per-cell solve
categories — and the recorded baselines from earlier PRs so speedups are
visible across the repo history.

Each scene is run twice: at the default numerics (exact per-step operator
reassembly, ``selfop_refresh_interval=1``) and at the amortized profile
(``selfop_refresh_interval=4``: full reassembly of the singular self-op
and of the factorized tension/implicit operators every 4th step, the
first-order geometric correction in between). The amortized row reports
the max trajectory deviation against the default run over the same steps
so the speed/accuracy trade is recorded next to the timing.

Run:  PYTHONPATH=src python benchmarks/bench_step_breakdown.py
      [--steps N] [--reduced | --all] [--out PATH] [--workers N]
      [--workers-sweep] [--backends] [--check-against BASELINE.json]

``--reduced`` runs a 2-cell order-6 variant for CI smoke runs; ``--all``
runs both variants into one file (the committed-baseline format).

``--workers N`` adds a threaded-executor row per scene (default
numerics on the ``"thread"`` executor with N workers) and records its
trajectory deviation against the serial run — the executor contract
makes that deviation exactly 0.0, so the row doubles as a determinism
check. ``--workers-sweep`` times the ``thread`` executor at workers in
{1, 2, 4, 8} and records ms/step per worker count — the data behind
the ``NumericsOptions.workers`` policy (``workers="auto"`` resolves to
``min(cpu_count, ncells)``; see the field's docstring). ``--backends``
adds an
interaction-backend comparison row (``backend_compare``): the stacked
``cell_cell`` sum of a many-cell lattice timed under ``direct`` and
``fmm`` with the accelerated backend's relative error against
``direct`` — 64 cells at order 8 on the full variant, 16 cells
at order 6 on the reduced (CI) variant. ``--check-against`` compares the
default-config (serial) ms/step of the matching scene against a
previously committed ``BENCH_step.json`` and exits nonzero on a
regression beyond ``REGRESSION_TOLERANCE``; the ``fmm`` comparison time
is gated the same way (the O(N) backend must not quietly regress), while
the threaded and workers-sweep rows are informational and never gated
(thread scaling is host-dependent).

Each scene also records a ``resilience_overhead`` row: ms/step with the
transactional-stepping layer (snapshot + health sentinel,
``ResilienceOptions.enabled``) off vs a second warm run with it on.
Under ``--check-against`` the overhead is gated *absolutely* (no
baseline entry needed) at ``RESILIENCE_OVERHEAD_LIMIT`` (3%) of the raw
ms/step, and the on/off trajectory deviation — pinned bit-identical for
healthy runs — must be exactly 0.0.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro.config import NumericsOptions, ReproConfig, ResilienceOptions
from repro.core.simulation import Simulation
from repro.physics.terms import Bending, Gravity, Tension
from repro.surfaces import biconcave_rbc

#: ms/step measured for this scene at the end of PR 1 (DirectBackend,
#: evaluator caching in place but the per-call synthesis hot loops
#: intact) on PR 1's benchmark host.
PR1_BASELINE_MS = 406.0

#: The PR 1 code measured on the PR 2 container (5 steps) — the
#: like-for-like "before" of the PR 2 operator-precomputation work.
PR2_BEFORE = {
    "ms_per_step": 2384.7,
    "breakdown_ms_per_step": {"COL": 83.0, "BIE-solve": 0.0, "BIE-FMM": 0.0,
                              "Other-FMM": 300.9, "Other": 2000.5},
}

#: The PR 2 code measured on the PR 3 container (5 steps) — the
#: like-for-like "before" of the PR 3 direct-solve / amortized-refresh
#: work, with its per-component breakdown.
BEFORE = {
    "ms_per_step": 396.4,
    "breakdown_ms_per_step": {"COL": 30.3, "BIE-solve": 0.0, "BIE-FMM": 0.0,
                              "Other-FMM": 91.2, "Other": 274.8},
}

#: --check-against fails when ms/step exceeds the committed baseline by
#: more than this factor.
REGRESSION_TOLERANCE = 1.25

#: selfop/factorization refresh interval of the amortized profile.
AMORTIZED_INTERVAL = 4


def build_scene(order: int = 8, ncells: int = 6,
                selfop_refresh_interval: int = 1,
                executor: str = "serial", workers: int = 1,
                resilience_on: bool = True) -> Simulation:
    """The reference scene: ``ncells`` RBCs on a close-packed lattice
    (spacing 2.4: equatorial radius 1.0 -> neighbours in the near zone)."""
    cells = _scene_cells(order, ncells)
    cfg = ReproConfig(dt=0.05, viscosity=1.0,
                      forces=[Bending(0.01), Tension(),
                              Gravity(0.5, (0.0, 0.0, -1.0))],
                      backend="direct", with_collisions=True,
                      resilience=ResilienceOptions(enabled=resilience_on),
                      numerics=NumericsOptions(
                          selfop_refresh_interval=selfop_refresh_interval,
                          executor=executor, workers=workers))
    return Simulation(cells, config=cfg)


def _scene_cells(order: int, ncells: int):
    spacing = 2.4
    return [biconcave_rbc(
        1.0, center=(spacing * (k // 2), spacing * (k % 2),
                     0.15 * (-1.0) ** k), order=order)
        for k in range(ncells)]


#: Worker counts of the ``--workers-sweep`` rows.
WORKERS_SWEEP = (1, 2, 4, 8)


def _resilience_overhead(order: int, ncells: int, steps: int) -> dict:
    """Cost of the transactional step on a healthy run: ms/step with the
    resilience layer off, then a *second warm* run with it on (the
    ordering keeps both measurements on fully warmed library/OS caches;
    the scene's first on-run already ran above). Healthy transactional
    steps are pinned bit-identical to raw stepping, so the row also
    records the trajectory deviation — exactly 0.0 by contract."""
    sim_off, ms_off, _ = _timed_run(order, ncells, steps, 1,
                                    resilience_on=False)
    sim_on, ms_on, _ = _timed_run(order, ncells, steps, 1)
    deviation = max(float(np.abs(a.X - b.X).max())
                    for a, b in zip(sim_off.cells, sim_on.cells))
    overhead = ms_on - ms_off
    return {
        "ms_per_step_off": ms_off,
        "ms_per_step_on": ms_on,
        "overhead_ms": round(overhead, 2),
        "overhead_frac": round(overhead / ms_off, 4),
        "limit_frac": RESILIENCE_OVERHEAD_LIMIT,
        "max_traj_deviation_vs_off": deviation,
    }


def backend_compare(order: int, ncells: int, seed: int = 3) -> dict:
    """Time ``prepare + cell_cell`` of every interaction backend on an
    ``ncells``-cell lattice with a fixed random force density, and
    measure the accelerated backend's error against ``direct``."""
    from repro.core.interactions import make_backend

    rng = np.random.default_rng(seed)
    spacing = 2.4
    cells = [biconcave_rbc(
        1.0, center=(spacing * (k % 4), spacing * ((k // 4) % 4),
                     spacing * (k // 16) + 0.05 * (-1.0) ** k),
        order=order) for k in range(ncells)]
    forces = [rng.normal(size=(c.n_points, 3)) for c in cells]
    out = {"order": order, "ncells": ncells}
    results = {}
    for name in ("direct", "fmm"):
        be = make_backend(name).bind(cells, 1.0)
        be.prepare(forces)          # warm the per-cell evaluator caches
        t0 = time.perf_counter()
        be.prepare(forces)
        results[name] = be.cell_cell()
        out[name + "_ms"] = round(1e3 * (time.perf_counter() - t0), 1)
    ref = results["direct"]
    norm = sum(float(np.linalg.norm(y)) ** 2 for y in ref) ** 0.5
    err = sum(float(np.linalg.norm(x - y)) ** 2
              for x, y in zip(results["fmm"], ref)) ** 0.5
    out["fmm_rel_vs_direct"] = float(err / norm)
    return out


#: the sentinel-overhead gate: the transactional step (snapshot +
#: health sentinel) may cost at most this fraction of the raw ms/step,
#: with RESILIENCE_ABS_SLACK_MS of absolute headroom for scenes so small
#: the difference of two timings is noise-level.
RESILIENCE_OVERHEAD_LIMIT = 0.03
RESILIENCE_ABS_SLACK_MS = 0.5


def _timed_run(order: int, ncells: int, steps: int, interval: int,
               executor: str = "serial", workers: int = 1,
               resilience_on: bool = True):
    sim = build_scene(order=order, ncells=ncells,
                      selfop_refresh_interval=interval,
                      executor=executor, workers=workers,
                      resilience_on=resilience_on)
    t0 = time.perf_counter()
    sim.run(steps)
    elapsed = time.perf_counter() - t0
    breakdown = {k: round(1e3 * v / steps, 2)
                 for k, v in sim.timers.breakdown().items()}
    return sim, round(1e3 * elapsed / steps, 2), breakdown


def run_scene(steps: int, reduced: bool, workers: int = 0,
              workers_sweep: bool = False, backends: bool = False) -> dict:
    order, ncells = (6, 2) if reduced else (8, 6)
    sim, ms, breakdown = _timed_run(order, ncells, steps, 1)
    sim_a, ms_a, breakdown_a = _timed_run(order, ncells, steps,
                                          AMORTIZED_INTERVAL)
    deviation = max(float(np.abs(a.X - b.X).max())
                    for a, b in zip(sim.cells, sim_a.cells))
    out = {
        "scene": {"order": order, "ncells": ncells, "backend": "direct",
                  "steps": steps, "reduced": reduced},
        "ms_per_step": ms,
        "breakdown_ms_per_step": breakdown,
        "amortized": {
            "selfop_refresh_interval": AMORTIZED_INTERVAL,
            "ms_per_step": ms_a,
            "breakdown_ms_per_step": breakdown_a,
            "max_traj_deviation_vs_default": deviation,
        },
        "final_centroids": [c.centroid().tolist() for c in sim.cells],
        "resilience_overhead": _resilience_overhead(order, ncells, steps),
    }
    if workers > 0:
        sim_t, ms_t, breakdown_t = _timed_run(order, ncells, steps, 1,
                                              executor="thread",
                                              workers=workers)
        dev_t = max(float(np.abs(a.X - b.X).max())
                    for a, b in zip(sim.cells, sim_t.cells))
        out["threaded"] = {
            "workers": workers,
            "ms_per_step": ms_t,
            "breakdown_ms_per_step": breakdown_t,
            # the executor contract: gathered-by-index per-cell tasks
            # make the threaded trajectory bit-identical to serial.
            "max_traj_deviation_vs_serial": dev_t,
        }
    if workers_sweep:
        row = {}
        for w in WORKERS_SWEEP:
            _, ms_w, _ = _timed_run(order, ncells, steps, 1,
                                    executor="thread", workers=w)
            row[str(w)] = ms_w
        out["workers_sweep_ms_per_step"] = {"thread": row}
    if backends:
        out["backend_compare"] = backend_compare(
            *((6, 16) if reduced else (8, 64)))
    return out


def run(steps: int, variants: list[bool], out_path: str,
        workers: int = 0, workers_sweep: bool = False,
        backends: bool = False) -> dict:
    result = {
        "pr1_baseline_ms_per_step": PR1_BASELINE_MS,
        "pr2_before": PR2_BEFORE,
        "before": BEFORE,
        "runs": {},
    }
    for reduced in variants:
        key = "reduced" if reduced else "full"
        result["runs"][key] = run_scene(steps, reduced, workers=workers,
                                        workers_sweep=workers_sweep,
                                        backends=backends)
    full = result["runs"].get("full")
    if full is not None:
        result["speedup_vs_before_default"] = round(
            BEFORE["ms_per_step"] / full["ms_per_step"], 2)
        result["speedup_vs_before_amortized"] = round(
            BEFORE["ms_per_step"] / full["amortized"]["ms_per_step"], 2)
    with open(out_path, "w") as fh:
        json.dump(result, fh, indent=2)
    return result


def check_against(result: dict, baseline_path: str,
                  tolerance: float = REGRESSION_TOLERANCE) -> int:
    """Regression gate: compare each run against the committed baseline.

    The committed numbers are host-specific, so the gate is only
    meaningful on hosts comparable to the one that wrote the baseline;
    ``tolerance`` (``--tolerance``) is the knob for noisier runners.
    """
    with open(baseline_path) as fh:
        baseline = json.load(fh)
    failures = []
    for key, run_ in result["runs"].items():
        base = baseline.get("runs", {}).get(key)
        if base is None:
            print(f"[check] no baseline for scene {key!r}; skipping")
            continue
        limit = tolerance * base["ms_per_step"]
        ok = run_["ms_per_step"] <= limit
        print(f"[check] {key}: {run_['ms_per_step']:.1f} ms/step vs "
              f"baseline {base['ms_per_step']:.1f} (limit {limit:.1f}) "
              f"{'OK' if ok else 'REGRESSION'}")
        if not ok:
            failures.append(key)
        ro = run_.get("resilience_overhead")
        if ro is not None:
            # absolute gate (no baseline needed): the sentinel may cost
            # at most RESILIENCE_OVERHEAD_LIMIT of the raw ms/step, with
            # a small absolute slack for noise-level scenes.
            limit = max(RESILIENCE_OVERHEAD_LIMIT * ro["ms_per_step_off"],
                        RESILIENCE_ABS_SLACK_MS)
            ok = ro["overhead_ms"] <= limit
            print(f"[check] {key} resilience overhead: "
                  f"{ro['overhead_ms']:+.2f} ms/step on "
                  f"{ro['ms_per_step_off']:.1f} (limit {limit:.2f}) "
                  f"{'OK' if ok else 'REGRESSION'}")
            if not ok:
                failures.append(f"{key}:resilience_overhead")
            if ro["max_traj_deviation_vs_off"] != 0.0:
                print(f"[check] {key} resilience bit-identity: deviation "
                      f"{ro['max_traj_deviation_vs_off']:.1e} != 0 "
                      "REGRESSION")
                failures.append(f"{key}:resilience_bit_identity")
        bc, bc_base = run_.get("backend_compare"), base.get("backend_compare")
        if bc is not None and bc_base is not None:
            limit = tolerance * bc_base["fmm_ms"]
            ok = bc["fmm_ms"] <= limit
            print(f"[check] {key} fmm backend_compare: "
                  f"{bc['fmm_ms']:.0f} ms vs baseline "
                  f"{bc_base['fmm_ms']:.0f} (limit {limit:.0f}) "
                  f"{'OK' if ok else 'REGRESSION'}")
            if not ok:
                failures.append(f"{key}:fmm_backend")
    return 1 if failures else 0


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", type=int, default=5)
    ap.add_argument("--reduced", action="store_true",
                    help="2-cell order-6 smoke variant (CI)")
    ap.add_argument("--all", action="store_true",
                    help="run both variants (committed-baseline format)")
    ap.add_argument("--out", default="BENCH_step.json")
    ap.add_argument("--workers", type=int, default=0, metavar="N",
                    help="also time a thread-executor row with N workers "
                         "(0 = skip); records its (zero) trajectory "
                         "deviation vs serial, never gated")
    ap.add_argument("--workers-sweep", action="store_true",
                    help="time the thread executor at workers "
                         f"in {WORKERS_SWEEP} (informational, never gated)")
    ap.add_argument("--backends", action="store_true",
                    help="add the direct/fmm cell_cell "
                         "comparison row (64 cells full / 16 reduced)")
    ap.add_argument("--check-against", default=None, metavar="BASELINE",
                    help="fail if ms/step regresses beyond --tolerance x "
                         "this BENCH_step.json")
    ap.add_argument("--tolerance", type=float, default=REGRESSION_TOLERANCE,
                    help="regression-gate factor (default %(default)s)")
    args = ap.parse_args()
    variants = [False, True] if args.all else [args.reduced]
    result = run(args.steps, variants, args.out, workers=args.workers,
                 workers_sweep=args.workers_sweep, backends=args.backends)
    print(json.dumps(result, indent=2))
    full = result["runs"].get("full")
    if full is not None:
        print(f"\ndefault {full['ms_per_step']:.0f} ms/step, amortized "
              f"(k={AMORTIZED_INTERVAL}) "
              f"{full['amortized']['ms_per_step']:.0f} ms/step "
              f"(PR 2 code on this host: {BEFORE['ms_per_step']:.0f}; "
              f"{result['speedup_vs_before_default']:.2f}x / "
              f"{result['speedup_vs_before_amortized']:.2f}x)")
    for key, run_ in result["runs"].items():
        threaded = run_.get("threaded")
        if threaded is not None:
            print(f"threaded[{key}] workers={threaded['workers']}: "
                  f"{threaded['ms_per_step']:.0f} ms/step, deviation vs "
                  f"serial {threaded['max_traj_deviation_vs_serial']:.1e}")
        ro = run_.get("resilience_overhead")
        if ro is not None:
            print(f"resilience overhead[{key}]: "
                  f"{ro['ms_per_step_off']:.1f} ms/step raw -> "
                  f"{ro['ms_per_step_on']:.1f} transactional "
                  f"({ro['overhead_ms']:+.2f} ms, "
                  f"{100 * ro['overhead_frac']:+.2f}%), deviation "
                  f"{ro['max_traj_deviation_vs_off']:.1e}")
        sweep = run_.get("workers_sweep_ms_per_step")
        if sweep is not None:
            for executor, row in sweep.items():
                print(f"workers sweep[{key}][{executor}]: " + ", ".join(
                    f"{w}: {ms:.0f} ms/step" for w, ms in row.items()))
        bc = run_.get("backend_compare")
        if bc is not None:
            print(f"backends[{key}] ({bc['ncells']} cells, order "
                  f"{bc['order']}): direct {bc['direct_ms']:.0f} ms, "
                  f"fmm {bc['fmm_ms']:.0f} ms "
                  f"(rel {bc['fmm_rel_vs_direct']:.1e})")
    if args.check_against:
        sys.exit(check_against(result, args.check_against, args.tolerance))


if __name__ == "__main__":
    main()
