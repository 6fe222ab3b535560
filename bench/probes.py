"""Isolated layer probes, at the shapes the workloads hit.

    python bench/probes.py      (launched by run.py with the pinned env)

Each figure is the best of `REPS` repetitions in this one process,
taken after everything else so it cannot disturb a timed step. The host
probes (GEMM rate, stream bandwidth, interpreter loop) are the yardstick
the kernel figures are read against, measured in the same run.
Prints one JSON object as its last line.
"""
from __future__ import annotations

import glob
import json
import os
import shutil
import sys
import tempfile
import time

import numpy as np

from repro.runtime.executor import ProcessTask, make_executor

REPS = 5
#: stream arrays: 64 MB each, at least four times any last-level cache
#: this benchmark has met (sizes printed beside the result).
STREAM_BYTES = 64 * 2 ** 20
GEMM_N = 1024
SLP_POINTS = 972            # 6 cells x 162 points: the reference scene

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")


def best(fn, reps: int = REPS) -> float:
    """Fastest of ``reps`` calls, seconds."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def cache_sizes() -> dict:
    sizes = {}
    for index in sorted(glob.glob(
            "/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(index, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(index, "size")) as fh:
                sizes[f"L{level}{kind[0].lower()}"] = fh.read().strip()
        except OSError:
            continue
    return sizes


def host_probes() -> dict:
    rng = np.random.default_rng(0)
    a = rng.standard_normal((GEMM_N, GEMM_N))
    b = rng.standard_normal((GEMM_N, GEMM_N))
    gemm_s = best(lambda: a @ b)
    n = STREAM_BYTES // 8
    x, y, z = np.ones(n), np.ones(n), np.empty(n)
    stream_s = best(lambda: np.add(x, y, out=z))

    def pyloop():
        acc = 0
        for i in range(1_000_000):
            acc += i & 3
        return acc

    return {"host.gemm_gflops": 2.0 * GEMM_N ** 3 / gemm_s / 1e9,
            "host.stream_gbs": 3.0 * STREAM_BYTES / stream_s / 1e9,
            "host.pyloop_ms": 1e3 * best(pyloop)}


def slp_probes(gemm_gflops: float) -> dict:
    from repro.kernels import stokes_slp_apply
    from trace import SLP_FLOPS_PER_PAIR
    rng = np.random.default_rng(1)
    src = rng.standard_normal((SLP_POINTS, 3))
    trg = rng.standard_normal((SLP_POINTS, 3)) + 0.5
    den = rng.standard_normal((SLP_POINTS, 3))
    f64 = best(lambda: stokes_slp_apply(src, den, trg))
    f32 = best(lambda: stokes_slp_apply(src, den, trg, dtype="float32"))
    gflops = SLP_FLOPS_PER_PAIR * SLP_POINTS ** 2 / f64 / 1e9
    return {"kernels.slp_probe_ms.f64": 1e3 * f64,
            "kernels.slp_probe_ms.f32": 1e3 * f32,
            "kernels.slp_probe_peak_frac": gflops / gemm_gflops}


def assemble_probes() -> dict:
    """Stacked self-operator assembly, per cell, at four stack depths:
    does a cell cost more inside a deep stack?"""
    import workloads as wl
    from repro.core.cellbatch import CellBatch
    from repro.surfaces import biconcave_rbc
    from repro.vesicle import SingularSelfInteraction
    centres = wl.make_inputs("lattice64_fmm", 0)["centres"]
    out = {}
    for order, k in ((8, 1), (8, 6), (8, 32), (4, 64)):
        cells = [biconcave_rbc(1.0, center=tuple(c), order=order)
                 for c in centres[:k]]
        ops = [SingularSelfInteraction(c, assembly="circulant")
               for c in cells]
        batch = CellBatch(cells)
        t = best(lambda: batch.assemble_selfops(ops, range(k)),
                 reps=3 if k >= 32 else REPS)
        out[f"vesicle.assemble_per_cell_ms.p{order}k{k}"] = 1e3 * t / k
    return out


def lu_probes() -> dict:
    from repro.linalg import StackedLUFactorization
    rng = np.random.default_rng(2)
    n = 3 * 162                 # order 8: 9 x 18 points, 3 components
    mats = rng.standard_normal((6, n, n)) + n * np.eye(n)
    rhs = rng.standard_normal((6, n))
    factor_s = best(lambda: StackedLUFactorization(mats))
    lu = StackedLUFactorization(mats)
    solve_s = best(lambda: lu.solve(rhs))
    return {"linalg.lu_factor_probe_ms.p8k6": 1e3 * factor_s,
            "linalg.lu_solve_probe_ms.p8k6": 1e3 * solve_s}


def sph_probes() -> dict:
    from repro.sph.transform import get_transform
    T = get_transform(8)
    f = np.random.default_rng(3).standard_normal(
        (T.grid.nlat, T.grid.nphi))
    c = T.forward(f)

    def many(fn, arg, n=200):
        return lambda: [fn(arg) for _ in range(n)]

    return {"sph.forward_probe_us.p8": 1e6 * best(many(T.forward, f)) / 200,
            "sph.inverse_probe_us.p8": 1e6 * best(many(T.inverse, c)) / 200}


def checkpoint_probe() -> dict:
    import workloads as wl
    from repro.resilience import load_checkpoint, save_checkpoint
    name = "freespace6_direct"
    sim = wl.build_simulation(name, wl.make_inputs(name, 0))
    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=OUT, prefix="ckpt_")
    try:
        path = os.path.join(tmp, "probe.npz")

        def roundtrip():
            load_checkpoint(save_checkpoint(sim, path))

        t = best(roundtrip)
        size = os.path.getsize(path)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {"resilience.checkpoint_roundtrip_ms": 1e3 * t,
            "resilience.checkpoint_roundtrip_bytes": size}


class TrivialTask(ProcessTask):
    """Module-level so the process pool can ship it by reference."""

    def __call__(self, item):
        return item + 1


def dispatch_probe() -> dict:
    """The only parallel-path number, informational: 8 trivial tasks
    through the warm 2-worker process pool."""
    pool = make_executor("process", 2)
    try:
        task = TrivialTask()
        pool.map(task, range(8))            # forks the pool
        t = best(lambda: pool.map(task, range(8)))
    finally:
        pool.close()
    return {"runtime.process_dispatch_ms": 1e3 * t}


def main() -> int:
    out = host_probes()
    out.update(slp_probes(out["host.gemm_gflops"]))
    out.update(assemble_probes())
    out.update(lu_probes())
    out.update(sph_probes())
    out.update(checkpoint_probe())
    out.update(dispatch_probe())
    info = {"stream_array_mb": STREAM_BYTES / 2 ** 20,
            "cache_sizes": cache_sizes(), "gemm_n": GEMM_N, "reps": REPS}
    print(json.dumps({"metrics": out, "info": info}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
