"""One measurement in one fresh process.

    python bench/child.py <workload> --seed S --timed K [--setup-only|--trace]

Builds the workload's scene from the seed's inputs, runs the cold step
(or, for the sweep, builds the jobs and warms the tables), the warm-up
steps and then K timed steps, and prints one JSON object as its last
line of output. The driver (`run.py`) sets the environment; this file
refuses to measure under any other.
"""
from __future__ import annotations

import time

_T_ENTER = time.time()      # before any heavy import: part of set-up

import argparse             # noqa: E402
import gc                   # noqa: E402
import json                 # noqa: E402
import os                   # noqa: E402
import resource             # noqa: E402
import shutil               # noqa: E402
import sys                  # noqa: E402
import tempfile             # noqa: E402

import workloads as wl       # noqa: E402

#: what `run.py` pins before the interpreter starts, and why: one BLAS
#: thread (two made step times bimodal on 2 vCPUs), fixed hash seed.
REQUIRED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")


def _launch_time() -> float:
    """When the driver launched this process (so interpreter start-up
    counts as set-up); falls back to this module's first line."""
    return float(os.environ.get("BENCH_LAUNCH_TIME", _T_ENTER))


def _step_health(rep) -> dict:
    health = rep.health
    return {
        "retries": int(rep.retries),
        "accepted": bool(health.healthy) if health is not None else True,
        "degraded": rep.backend_degraded_to,
        "implicit_ok": all(rep.implicit_converged),
        "tension_ok": bool(rep.tension_converged),
        "bie_ok": bool(rep.bie_converged),
        "lu_singular": len(rep.lu_singular),
    }


def run_steps(name: str, seed: int, timed: int, setup_only: bool,
              tracer) -> dict:

    sim = wl.build_simulation(name, wl.make_inputs(name, seed))
    before = wl.cell_summary(sim.cells)
    reports = [sim.step()]
    out = {"setup_s": time.time() - _launch_time(), "n_dof": sim.n_dof()}
    if setup_only:
        return out
    for _ in range(wl.WORKLOADS[name].warm):
        reports.append(sim.step())
    # Nothing allocated so far is garbage; keep the collector from
    # walking it inside a timed step.
    gc.collect()
    gc.freeze()
    if tracer is not None:
        tracer.counters.clear()     # count the timed steps only
    step_s = []
    t_first = time.perf_counter()
    for _ in range(timed):
        t0 = time.perf_counter()
        rep = sim.step()
        step_s.append(time.perf_counter() - t0)
        reports.append(rep)
    window = (t_first, time.perf_counter())
    after = wl.cell_summary(sim.cells)
    out.update({
        "step_s": step_s,
        "window": window,
        "health": [_step_health(r) for r in reports],
        "summary": wl.totals(after),
        "drift": wl.max_drift(before, after),
        "cell_steps": len(reports),
        "outside_lumen": (sum(wl.outside_lumen(c.points) for c in sim.cells)
                          if sim.vessel is not None else 0),
        "digest": wl.positions_digest([c.X for c in sim.cells]),
    })
    return out


def run_sweep(name: str, seed: int, setup_only: bool, tracer) -> dict:
    from repro.surfaces import SpectralSurface
    from repro.sweep import SweepRunner, warm_caches

    jobs = wl.build_sweep_jobs(wl.make_inputs(name, seed))
    warm_caches(sorted({o for j in jobs for o in j.scene_orders()}))
    dofs = [wl.job_dof(j) for j in jobs]
    out = {"setup_s": time.time() - _launch_time(), "n_dof": sum(dofs)}
    if setup_only:
        return out

    def summarize(position_lists, orders):
        return wl.cell_summary([SpectralSurface(X, p)
                                for Xs, ps in zip(position_lists, orders)
                                for X, p in zip(Xs, ps)])

    orders = [j.orders for j in jobs]
    before = summarize([j.positions for j in jobs], orders)
    gc.collect()
    gc.freeze()
    if tracer is not None:
        tracer.counters.clear()     # count the sweep run only
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=OUT, prefix="sweep_")
    try:
        t0 = time.perf_counter()
        report = SweepRunner(jobs, executor="serial", workers=1,
                             workdir=workdir, checkpoint_interval=2).run()
        t1 = time.perf_counter()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    results = report.results
    done = [r for r in results if r.completed and r.positions is not None]
    ok = len(done) == len(jobs)
    after = summarize([r.positions for r in results], orders) if ok else None
    out.update({
        "step_s": [r.elapsed / max(r.steps_done, 1) for r in results],
        "window": (t0, t1),
        "run_wall_s": t1 - t0,
        "job_elapsed_s": sum(r.elapsed for r in results),
        "job_steps": [r.steps_done for r in results],
        "dof_steps": sum(d * r.steps_done for d, r in zip(dofs, results)),
        "health": [{"accepted": r.completed, "status": r.status,
                    "error": r.error, "steps_done": r.steps_done}
                   for r in results],
        "summary": wl.totals(after) if ok else None,
        "drift": wl.max_drift(before, after) if ok else float("inf"),
        "cell_steps": wl.SWEEP_STEPS,
        "outside_lumen": 0,
        "digest": wl.positions_digest(
            [X for r in done for X in r.positions]),
    })
    return out


def versions() -> dict:
    import numpy
    import scipy
    blas = "unknown"
    try:
        cfg = numpy.show_config(mode="dicts")
        dep = cfg["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (KeyError, TypeError):
        pass
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--timed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    wrong = {k: os.environ.get(k) for k, v in REQUIRED_ENV.items()
             if os.environ.get(k) != v}
    if wrong:
        print(f"child.py: refusing to measure, environment not pinned: "
              f"{wrong} (launch through bench/run.py)", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        import trace
        tracer = trace.Tracer()
        trace.install(tracer)

    if args.workload == wl.SWEEP:
        out = run_sweep(args.workload, args.seed, args.setup_only, tracer)
    else:
        out = run_steps(args.workload, args.seed, args.timed,
                        args.setup_only, tracer)

    if tracer is not None and not args.setup_only:
        spans = tracer.spans()
        window = tuple(out["window"])
        out["layers"] = trace.layer_metrics(spans, tracer.counters, window)
        os.makedirs(OUT, exist_ok=True)
        trace.write(os.path.join(OUT, f"trace_{args.workload}.json"),
                    spans, tracer.counters, window,
                    {"workload": args.workload, "seed": args.seed})

    out.update({
        "workload": args.workload, "seed": args.seed,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "env": {k: os.environ.get(k) for k in REQUIRED_ENV},
        "versions": versions(),
    })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
