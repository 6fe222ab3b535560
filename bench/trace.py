"""Span tracing from outside the program: wrappers around the public
entry points of each `src/repro` layer, installed at class or namespace
level by the traced child only. Untraced children never import this.

A span is ``{name, start, end, parent}``; spans live in memory (a
thread-local stack gives each its parent) and are written once, at the
end, to ``bench/out/trace_<workload>.json``. Reading such a file:
``spans[i]["parent"]`` indexes the same list (``null`` for a root),
times are `perf_counter` seconds, ``window`` brackets the timed steps,
and `stats.self_times` gives each span's duration minus what its
children cover.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from typing import Callable, Dict, List, Optional

import stats

#: nominal flops of one Stokeslet source-target pair in the
#: GEMM-factored `stokes_slp_apply` (three rank-3 products, r^-1 and
#: r^-3, the combine) — a computed figure, not a hardware count.
SLP_FLOPS_PER_PAIR = 36


class Tracer:
    def __init__(self) -> None:
        self._done: List[list] = []     # [name, start, end, parent-record]
        self._local = threading.local()
        self._lock = threading.Lock()
        self.counters: Dict[str, float] = {}

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def add(self, counts: Dict[str, float]) -> None:
        with self._lock:
            for key, value in counts.items():
                self.counters[key] = self.counters.get(key, 0) + value

    def wrap(self, func: Callable, name: str,
             count: Optional[Callable] = None) -> Callable:
        """``func`` recorded as a span called ``name``; ``count(args,
        kwargs, result)`` may return counter increments measured at the
        same boundary."""
        done, stack_of, clock = self._done, self._stack, time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = stack_of()
            rec = [name, clock(), 0.0, stack[-1] if stack else None]
            stack.append(rec)
            try:
                result = func(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                done.append(rec)
            if count is not None:
                self.add(count(args, kwargs, result))
            return result
        return traced

    def counting(self, func: Callable, key: str) -> Callable:
        """``func`` with a call counter only (no span): for boundaries
        crossed too often, or too generic, to be worth a span each."""
        @functools.wraps(func)
        def counted(*args, **kwargs):
            self.add({key: 1})
            return func(*args, **kwargs)
        return counted

    def spans(self) -> List[dict]:
        """Finished spans, parents as indices into the returned list."""
        index = {id(rec): i for i, rec in enumerate(self._done)}
        return [{"name": n, "start": a, "end": b,
                 "parent": None if p is None else index.get(id(p))}
                for n, a, b, p in self._done]


# -- installation ------------------------------------------------------------

def _patch_method(tracer: Tracer, cls, attr: str, name: str,
                  count=None, subclasses: bool = False) -> None:
    owners = [cls]
    if subclasses:
        todo = list(cls.__subclasses__())
        while todo:
            sub = todo.pop()
            owners.append(sub)
            todo.extend(sub.__subclasses__())
    for owner in owners:
        if attr in vars(owner):
            setattr(owner, attr, tracer.wrap(vars(owner)[attr], name, count))


def _patch_function(func: Callable, replacement: Callable) -> None:
    """Rebind every ``repro`` namespace that holds ``func`` (modules do
    ``from x import f``, so the defining module alone is not enough)."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "repro"
                               or modname.startswith("repro.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is func:
                setattr(mod, attr, replacement)


def _slp_pairs(args, kwargs, result) -> dict:
    src = args[0] if args else kwargs["src"]
    trg = args[2] if len(args) > 2 else kwargs["trg"]
    n_src = int(getattr(src, "size", len(src))) // 3
    n_trg = int(getattr(trg, "size", len(trg))) // 3
    return {"kernels.slp_pairs": n_src * n_trg}


def _checkpoint_bytes(args, kwargs, result) -> dict:
    return {"resilience.checkpoint_bytes": os.path.getsize(result)}


def _fmm_leaves(args, kwargs, result) -> dict:
    return {"fmm.leaves": len(args[0].tree.leaves())}


def _step_counters(args, kwargs, rep) -> dict:
    """What one accepted step's `StepReport` and `FMMBackend.stats`
    say the solvers did."""
    ncp = rep.ncp
    fmm = getattr(args[0].backend, "stats", None) or {}
    return {
        "linalg.gmres_iters": (sum(rep.implicit_iterations)
                               + sum(rep.tension_iterations)),
        "linalg.lu_singular_cells": len(rep.lu_singular),
        "bie.gmres_iters": int(rep.bie_iterations),
        "collision.contacts": ncp.n_components if ncp is not None else 0,
        "collision.lcp_iters": ncp.lcp_solves if ncp is not None else 0,
        "resilience.retries": int(rep.retries),
        "fmm.p2p_pairs": fmm.get("p2p", 0),
        "fmm.m2l_count": fmm.get("m2l", 0),
    }


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries. Call after importing ``repro`` and
    before building the scene."""
    import repro.sweep  # noqa: F401 — load every namespace to patch
    from repro.bie.solver import BoundarySolver
    from repro.collision.mesh import cell_collision_mesh
    from repro.collision.ncp import NCPSolver
    from repro.core.cellbatch import CellBatch
    from repro.core.interactions import InteractionBackend
    from repro.core.simulation import Simulation
    from repro.core.stepper import TimeStepper
    from repro.fmm.kifmm import GlobalKIFMM
    from repro.kernels.stokes import stokes_slp_apply
    from repro.linalg.dense import (LUFactorization, StackedLUFactorization,
                                    StackedLUHandle)
    from repro.patches.closest_point import surface_closest_point
    from repro.physics.bending import implicit_operator_matrix
    from repro.physics.tension import TensionSolver
    from repro.resilience.checkpoint import save_checkpoint
    from repro.resilience.snapshot import capture_state
    from repro.runtime.caches import warm_caches
    from repro.runtime.executor import SerialExecutor
    from repro.sph.transform import SHTransform
    from repro.surfaces.spectral_surface import SpectralSurface
    from repro.sweep.job import SceneJob, result_to_npz, run_scene
    from repro.sweep.runner import SweepRunner
    from repro.vesicle.near_singular import CellNearEvaluator
    from repro.vesicle.self_interaction import SingularSelfInteraction

    methods = [
        (TimeStepper, "step", "core.stepper"),
        (TimeStepper, "interfacial_force", "core.interfacial_force"),
        (CellBatch, "assemble_selfops", "vesicle.selfop_assemble"),
        (CellBatch, "apply_matrices", "vesicle.selfop_apply"),
        (CellBatch, "factorize_lu", "linalg.lu_factor"),
        (SingularSelfInteraction, "refresh", "vesicle.selfop_refresh"),
        (SingularSelfInteraction, "apply", "vesicle.selfop_apply"),
        (CellNearEvaluator, "evaluate", "vesicle.near_evaluate"),
        (CellNearEvaluator, "near_correction", "vesicle.near_correction"),
        (CellNearEvaluator, "refresh", "vesicle.near_refresh"),
        (TensionSolver, "schur_system", "physics.tension_assemble"),
        (TensionSolver, "solve_report", "physics.tension_solve"),
        (SpectralSurface, "surface_gradient_matrix",
         "surfaces.dense_operators"),
        (SpectralSurface, "surface_divergence_matrix",
         "surfaces.dense_operators"),
        (SpectralSurface, "laplace_beltrami_matrix",
         "surfaces.dense_operators"),
        (SpectralSurface, "geometry", "surfaces.geometry"),
        (SHTransform, "forward", "sph.transform"),
        (SHTransform, "inverse", "sph.transform"),
        (SHTransform, "derivative_grid", "sph.transform"),
        (LUFactorization, "solve", "linalg.lu_solve"),
        (StackedLUFactorization, "solve", "linalg.lu_solve"),
        (StackedLUFactorization, "solve_one", "linalg.lu_solve"),
        (StackedLUHandle, "solve", "linalg.lu_solve"),
        (GlobalKIFMM, "evaluate", "fmm.evaluate"),
        (BoundarySolver, "solve", "bie.solve"),
        (BoundarySolver, "evaluate", "bie.evaluate"),
        (NCPSolver, "project", "collision.ncp_project"),
        (SceneJob, "make_simulation", "sweep.job_build"),
        (SweepRunner, "run", "sweep.run"),
    ]
    for cls, attr, name in methods:
        _patch_method(tracer, cls, attr, name)
    _patch_method(tracer, Simulation, "step", "core.resilience",
                  _step_counters)
    _patch_method(tracer, GlobalKIFMM, "__init__", "fmm.build", _fmm_leaves)
    for attr in ("prepare", "cell_cell", "evaluate_at"):
        _patch_method(tracer, InteractionBackend, attr,
                      f"core.backend_{attr}", subclasses=True)
    SerialExecutor.map = tracer.counting(SerialExecutor.map,
                                         "runtime.executor_map_calls")

    functions = [
        (stokes_slp_apply, "kernels.slp_apply", _slp_pairs),
        (implicit_operator_matrix, "physics.implicit_assemble", None),
        (surface_closest_point, "patches.closest_point", None),
        (cell_collision_mesh, "collision.mesh_build", None),
        (capture_state, "resilience.snapshot", None),
        (save_checkpoint, "resilience.checkpoint_save", _checkpoint_bytes),
        (result_to_npz, "sweep.result_write", None),
        (run_scene, "sweep.run_scene", None),
        (warm_caches, "runtime.warm_caches", None),
    ]
    for func, name, count in functions:
        _patch_function(func, tracer.wrap(func, name, count))


# -- reduction ---------------------------------------------------------------

#: per-layer metric -> (span name, which figure of it)
SPAN_METRICS = {
    "core.stepper_self_ms": ("core.stepper", "self"),
    "core.resilience_self_ms": ("core.resilience", "self"),
    "core.interfacial_force_ms": ("core.interfacial_force", "ms"),
    "core.backend_prepare_ms": ("core.backend_prepare", "ms"),
    "core.backend_cell_cell_ms": ("core.backend_cell_cell", "ms"),
    "core.backend_evaluate_at_ms": ("core.backend_evaluate_at", "ms"),
    "vesicle.selfop_assemble_ms": ("vesicle.selfop_assemble", "ms"),
    "vesicle.selfop_refresh_ms": ("vesicle.selfop_refresh", "ms"),
    "vesicle.selfop_apply_ms": ("vesicle.selfop_apply", "ms"),
    "vesicle.near_evaluate_ms": ("vesicle.near_evaluate", "ms"),
    "vesicle.near_correction_ms": ("vesicle.near_correction", "ms"),
    "vesicle.near_refresh_ms": ("vesicle.near_refresh", "ms"),
    "physics.tension_assemble_ms": ("physics.tension_assemble", "ms"),
    "physics.tension_solve_ms": ("physics.tension_solve", "ms"),
    "physics.implicit_assemble_ms": ("physics.implicit_assemble", "ms"),
    "surfaces.dense_operators_ms": ("surfaces.dense_operators", "ms"),
    "surfaces.geometry_ms": ("surfaces.geometry", "ms"),
    "sph.transform_ms": ("sph.transform", "ms"),
    "sph.transform_calls": ("sph.transform", "calls"),
    "linalg.lu_factor_ms": ("linalg.lu_factor", "ms"),
    "linalg.lu_solve_ms": ("linalg.lu_solve", "ms"),
    "kernels.slp_apply_ms": ("kernels.slp_apply", "ms"),
    "fmm.build_ms": ("fmm.build", "ms"),
    "fmm.evaluate_ms": ("fmm.evaluate", "ms"),
    "bie.solve_ms": ("bie.solve", "ms"),
    "bie.evaluate_ms": ("bie.evaluate", "ms"),
    "patches.closest_point_ms": ("patches.closest_point", "ms"),
    "patches.closest_point_calls": ("patches.closest_point", "calls"),
    "collision.ncp_project_ms": ("collision.ncp_project", "ms"),
    "collision.mesh_builds": ("collision.mesh_build", "calls"),
    "resilience.snapshot_ms": ("resilience.snapshot", "ms"),
    "resilience.checkpoint_save_ms": ("resilience.checkpoint_save", "ms"),
    "sweep.job_build_ms": ("sweep.job_build", "ms"),
    "sweep.result_write_ms": ("sweep.result_write", "ms"),
}

#: counters reported per step, from the wrappers or the child's
#: per-step reading of `StepReport` / `FMMBackend.stats`.
COUNTER_METRICS = (
    "kernels.slp_pairs", "fmm.p2p_pairs", "fmm.m2l_count", "fmm.leaves",
    "linalg.gmres_iters", "linalg.lu_singular_cells", "bie.gmres_iters",
    "collision.contacts", "collision.lcp_iters", "resilience.retries",
    "resilience.checkpoint_bytes", "runtime.executor_map_calls",
)


#: figures `layer_metrics` forms from more than one span or counter.
TRACE_METRICS = ("kernels.slp_gflops", "runtime.warm_caches_ms",
                 "trace.coverage_frac")


def layer_metrics(spans: List[dict], counters: Dict[str, float],
                  window: tuple) -> Dict[str, float]:
    """Per-step figures of every layer from the spans that started
    inside ``window`` (the timed steps): ms inclusive unless ``_self``,
    counts per step. Absent layers read 0."""
    lo, hi = window
    keep = [i for i, s in enumerate(spans) if lo <= s["start"] <= hi]
    renumber = {old: new for new, old in enumerate(keep)}
    inside = [dict(spans[i], parent=renumber.get(spans[i]["parent"]))
              for i in keep]
    inclusive = stats.inclusive_by_name(inside)
    own = stats.self_by_name(inside)
    steps = inclusive.get("core.resilience", (0.0, 0))[1]
    if steps == 0:
        raise ValueError("no Simulation.step span inside the timed window")
    out: Dict[str, float] = {}
    for metric, (span, figure) in SPAN_METRICS.items():
        total, calls = inclusive.get(span, (0.0, 0))
        if figure == "ms":
            out[metric] = 1e3 * total / steps
        elif figure == "self":
            out[metric] = 1e3 * own.get(span, 0.0) / steps
        else:
            out[metric] = calls / steps
    for metric in COUNTER_METRICS:
        out[metric] = counters.get(metric, 0) / steps
    slp_s = inclusive.get("kernels.slp_apply", (0.0, 0))[0]
    out["kernels.slp_gflops"] = (
        SLP_FLOPS_PER_PAIR * counters.get("kernels.slp_pairs", 0)
        / slp_s / 1e9 if slp_s > 0.0 else 0.0)
    step_wall = inclusive["core.resilience"][0]
    uncovered = own.get("core.resilience", 0.0) + own.get("core.stepper", 0.0)
    out["trace.coverage_frac"] = 1.0 - uncovered / step_wall
    # The cold table build happens during set-up, before the window.
    cold = min((s for s in spans if s["name"] == "runtime.warm_caches"),
               key=lambda s: s["start"], default=None)
    out["runtime.warm_caches_ms"] = (
        1e3 * (cold["end"] - cold["start"]) if cold else 0.0)
    return out


def write(path: str, spans: List[dict], counters: Dict[str, float],
          window: tuple, meta: dict) -> None:
    with open(path, "w") as fh:
        json.dump({"meta": meta, "window": list(window),
                   "counters": counters, "spans": spans}, fh)
