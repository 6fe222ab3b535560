"""Checkpoint/restart of a free-space simulation, bit-identical on resume.

A checkpoint is one ``.npz`` file: a JSON manifest (config, time, the
per-cell scalar bookkeeping) plus the raw arrays. The guiding constraint
is *bit-identical resume*: a run killed mid-way and resumed from its
last checkpoint must produce exactly the trajectory of the uninterrupted
run. That rules out "save positions, rebuild everything":

- Spectral coefficients are saved and re-seeded rather than recomputed —
  the live run seeds them through the *stacked* forward SHT of
  :class:`~repro.core.cellbatch.CellBatch`, which agrees with the
  per-cell transform only to roundoff, not bitwise.
- The factorized tension/implicit solvers are serialized as their raw
  LAPACK ``(lu, piv)`` factors (:attr:`repro.linalg.LUFactorization.
  factors`) rather than reassembled: ``getrs`` against identical factor
  arrays is bit-identical regardless of whether they came from a
  per-cell ``lu_factor`` or a slice of a stacked ``getrf`` pass, while
  refactorizing at the *corrected* operator of a mid-cycle geometry
  would not reproduce the factors built at the reference geometry.
- The self-interaction operator's reference configuration
  (``_ref_matrix`` and friends) is saved; when the refresh cycle is
  mid-way (``since_full > 1``) the current operator is regenerated by
  re-running the deterministic first-order correction at the restored
  geometry, which reproduces the live matrix bit-exactly.

Vessel-bounded scenes and recycling are not checkpointable yet (their
boundary solver and recycler state are not serialized); ``save``
refuses rather than writing a checkpoint that would not resume
faithfully. Step history and timers restart empty — they are
diagnostics, not simulation state.
"""
from __future__ import annotations

import json
import warnings

import numpy as np

from ..linalg.dense import LUFactorization, StackedLUHandle

#: format version written to the manifest; newer files refuse to load
#: (older files load — readers ignore manifest keys they do not know).
CHECKPOINT_VERSION = 1


def _pack_factorization(f, arrays: dict, prefix: str):
    """Serialize a factorization into ``arrays``; returns its kind tag.

    Regular factorizations store their ``(lu, piv)`` LAPACK factors. A
    *singular* one solves through GMRES against its retained matrix, so
    the matrix itself is stored; refactorizing it at load re-detects the
    zero pivot and the GMRES fallback against the identical matrix is
    bit-identical.
    """
    if f is None:
        return None
    if getattr(f, "singular", False):
        if isinstance(f, StackedLUHandle):
            mat = f._stacked._singular_matrices[f._index]
        else:
            mat = f._matrix
        arrays[prefix + "_mat"] = np.asarray(mat)
        return "matrix"
    lu, piv = f.factors
    arrays[prefix + "_lu"] = np.asarray(lu)
    arrays[prefix + "_piv"] = np.asarray(piv)
    return "factors"


def _unpack_factorization(kind, data, prefix: str):
    if kind is None:
        return None
    if kind == "matrix":
        with warnings.catch_warnings():
            # re-detecting the recorded singularity is expected; the
            # original warning already fired when it first occurred
            warnings.simplefilter("ignore")
            return LUFactorization(data[prefix + "_mat"])
    return LUFactorization.from_factors(data[prefix + "_lu"],
                                        data[prefix + "_piv"])


def save_checkpoint(sim, path: str, rng=None) -> str:
    """Write ``sim``'s state to ``path`` (``.npz`` appended if missing).

    Call between steps (it snapshots the inter-step state the next
    :meth:`~repro.core.simulation.Simulation.step` consumes). ``rng``
    optionally persists a :class:`numpy.random.Generator`'s state
    alongside, for drivers that randomize forcing between steps.
    Returns the path actually written.

    Raises ``NotImplementedError`` for scenes the format does not cover;
    probe :attr:`repro.core.Simulation.checkpointable` first to degrade
    gracefully (the sweep runner marks such jobs non-resumable instead
    of aborting the batch).
    """
    if not getattr(sim, "checkpointable", True):
        raise NotImplementedError(
            "checkpointing vessel-bounded or recycling simulations is not "
            "supported yet (their boundary-solver/recycler state is not "
            "serialized)")
    st = sim.stepper
    arrays: dict = {}
    cells_info = []
    for i, c in enumerate(st.cells):
        op = st._self_ops[i]
        pre = f"c{i}"
        arrays[pre + "_X"] = c.X
        arrays[pre + "_coeffs"] = np.asarray(c.coeffs())
        arrays[pre + "_sigma"] = st.sigmas[i]
        arrays[pre + "_ref_matrix"] = op._ref_matrix
        arrays[pre + "_ref_points"] = op._ref_points
        arrays[pre + "_ref_weights"] = op._ref_weights
        solver = st._tension_solvers[i]
        tension = _pack_factorization(
            getattr(solver, "_schur", None), arrays, pre + "_ten")
        cached = st._impl_lu[i]
        implicit = None
        if cached is not None:
            impl_dt, lu, core, nrm = cached
            implicit = {"dt": impl_dt,
                        "kind": _pack_factorization(lu, arrays, pre + "_imp")}
            arrays[pre + "_imp_core"] = np.asarray(core)
            arrays[pre + "_imp_nrm"] = np.asarray(nrm)
        cells_info.append({
            "order": c.order,
            "since_full": op._since_full,
            "ref_area": op._ref_area,
            # a solver may exist without a factorization (matrix-free
            # tension); it holds no state, the stepper recreates it
            "tension_solver": solver is not None,
            "tension": tension,
            "implicit": implicit,
        })
    manifest = {
        "version": CHECKPOINT_VERSION,
        "t": float(sim.t),
        "config": sim.config.to_dict(),
        "cells": cells_info,
        "backend_degraded_to": st.backend_degraded_to,
    }
    if rng is not None:
        manifest["rng_state"] = rng.bit_generator.state
    path = str(path)
    if not path.endswith(".npz"):
        path += ".npz"
    with open(path, "wb") as fh:
        np.savez(fh, manifest=np.array(json.dumps(manifest)), **arrays)
    return path


def load_checkpoint(path: str, rng=None):
    """Rebuild the :class:`~repro.core.simulation.Simulation` saved at
    ``path``; the resumed run is bit-identical to the uninterrupted one.

    Unknown manifest keys are ignored (a file written by a newer minor
    revision still loads as long as its ``version`` matches); a file
    whose ``version`` exceeds :data:`CHECKPOINT_VERSION` refuses with
    ``ValueError``. Pass the same kind of ``rng`` given to
    :func:`save_checkpoint` to restore its state in place.
    """
    from ..config import ReproConfig
    from ..core.simulation import Simulation
    from ..surfaces import SpectralSurface

    with np.load(path, allow_pickle=False) as data:
        manifest = json.loads(str(data["manifest"]))
        version = manifest.get("version", 0)
        if version > CHECKPOINT_VERSION:
            raise ValueError(
                f"checkpoint version {version} is newer than this "
                f"build's {CHECKPOINT_VERSION}; upgrade to load it")
        config = ReproConfig.from_dict(manifest["config"])
        cells_info = manifest["cells"]
        cells = [SpectralSurface(data[f"c{i}_X"], info["order"])
                 for i, info in enumerate(cells_info)]
        # The constructor assembles operators at the saved positions
        # from *per-cell* coefficient transforms; everything
        # trajectory-relevant is overwritten below with the saved state.
        sim = Simulation(cells, config=config)
        st = sim.stepper
        sim.t = manifest["t"]
        for i, info in enumerate(cells_info):
            pre = f"c{i}"
            c = st.cells[i]
            c.set_positions(data[pre + "_X"])
            c.seed_coeffs(data[pre + "_coeffs"].copy())
            st.sigmas[i] = data[pre + "_sigma"].copy()
            op = st._self_ops[i]
            op._ref_matrix = data[pre + "_ref_matrix"].copy()
            op._ref_points = data[pre + "_ref_points"].copy()
            op._ref_weights = data[pre + "_ref_weights"].copy()
            op._ref_area = info["ref_area"]
            op._since_full = info["since_full"]
            op._pending_install = False
            if info["since_full"] > 1:
                # mid-refresh-cycle: regenerate the corrected operator
                # by the same deterministic correction the live run
                # applied at this geometry
                op._correct_matrix()
            else:
                op._matrix = op._ref_matrix
            solver = None
            if info["tension_solver"]:
                from ..physics.tension import TensionSolver
                solver = TensionSolver(c, op.apply)
                f = _unpack_factorization(info["tension"], data,
                                          pre + "_ten")
                if f is not None:
                    solver.install_factorization(f)
            st._tension_solvers[i] = solver
            impl = info["implicit"]
            if impl is None:
                st._impl_lu[i] = None
            else:
                st._impl_lu[i] = (
                    impl["dt"],
                    _unpack_factorization(impl["kind"], data, pre + "_imp"),
                    data[pre + "_imp_core"].copy(),
                    data[pre + "_imp_nrm"].copy())
            st._f_ext[i] = None
            st.backend.refresh(i)
        degraded = manifest.get("backend_degraded_to")
        if degraded:
            from ..core.interactions import make_backend
            st.backend = make_backend(degraded).bind(st.cells,
                                                     st.viscosity)
            st.backend.executor = st.executor
            st.backend_degraded_to = degraded
        if rng is not None and "rng_state" in manifest:
            rng.bit_generator.state = manifest["rng_state"]
    return sim
