"""Worker-side shard execution for the ``"process"`` executor.

The interaction backends cut their per-source ``cell_cell`` fan-out into
Morton shards (see ``InteractionBackend._source_shards``) and map
:data:`RUN_SHARD` — a module-level :class:`ProcessTask` — over the shard
payloads defined here. The serialization story is deliberately minimal:

- Only coefficients, positions, and densities cross the process
  boundary (:class:`CellPayload`). The expensive per-order machinery —
  circulant mode symbols, Legendre/rotation/quadrature tables, the
  near-evaluator's rotation rule — is *geometry independent*, so each
  worker rebuilds it locally through the same module lru caches the
  parent uses; it is never pickled and persists inside the worker across
  tasks and steps.
- The parent's spherical-harmonic coefficients are shipped and *seeded*
  into the rebuilt surface, never recomputed: the stacked forward SHT of
  :class:`repro.core.cellbatch.CellBatch` agrees with the per-cell
  transform only to roundoff, and the contract is bit-identity, not
  numeric closeness.
- Each shard's result list is ordered by its own source order; the
  backend regroups results by global source index and folds them in
  ascending source order, exactly like the serial loop — so process ==
  thread == serial bit-identical.

Every shard type mirrors one backend's inline per-source task
verbatim — same target stacking, same masks, same kernel calls — which
is what makes the ``"checked"`` executor's inline rerun of a shard a
meaningful cross-process bit-identity check.
"""
from __future__ import annotations

import dataclasses
from typing import ClassVar, List, Tuple

import numpy as np

from ..kernels import stokes_slp_apply
from ..runtime.executor import ProcessTask, worker_timers
from ..surfaces import SpectralSurface
from ..vesicle import CellNearEvaluator

_FLOAT_BYTES = 8


@dataclasses.dataclass
class CellPayload:
    """Everything a worker needs to rebuild one source cell.

    Grid positions, the parent's SH coefficients, the coarse force
    density, and the quadrature-weighted fine density — a few arrays per
    cell. The coefficients are seeded (not recomputed) in the worker;
    the weighted fine density is shipped precomputed because the parent
    needed it anyway and recomputing it is the single most expensive
    per-cell prepare step.
    """

    index: int                  # global source-cell index
    X: np.ndarray               # (nlat, nphi, 3) grid positions
    coeffs: np.ndarray          # (3, p+1, 2p+1) parent-side SH coeffs
    force: np.ndarray           # coarse force density
    fine_weighted: np.ndarray   # quadrature-weighted fine density
    viscosity: float
    farfield_dtype: str
    aliasing_factor: int


def payload_for(index: int, evaluator: CellNearEvaluator,
                force: np.ndarray,
                fine_weighted: np.ndarray) -> CellPayload:
    """Snapshot one bound cell into a shippable :class:`CellPayload`."""
    surface = evaluator.surface
    return CellPayload(index=int(index), X=surface.X,
                       coeffs=np.asarray(surface.coeffs()),
                       force=np.asarray(force),
                       fine_weighted=np.asarray(fine_weighted),
                       viscosity=evaluator.viscosity,
                       farfield_dtype=evaluator.farfield_dtype,
                       aliasing_factor=surface.aliasing_factor)


def rebuild_evaluator(payload: CellPayload) -> CellNearEvaluator:
    """Worker-side rebuild of a cell's near evaluator from its payload.

    Same idiom as checkpoint restore: construct the surface from the
    grid positions, seed the parent's coefficients *before* anything
    consumes them (the evaluator's constructor runs ``refresh``, which
    upsamples through the coefficients), then build the evaluator with
    the parent's options. All per-order tables repopulate this process's
    own caches on first use.
    """
    surface = SpectralSurface(payload.X, payload.X.shape[0] - 1,
                              payload.aliasing_factor)
    surface.seed_coeffs(payload.coeffs)
    return CellNearEvaluator(surface, viscosity=payload.viscosity,
                             farfield_dtype=payload.farfield_dtype)


def _keep_mask(n_total: int, own: Tuple[int, int]) -> np.ndarray:
    keep = np.ones(n_total, dtype=bool)
    keep[own[0]:own[1]] = False
    return keep


@dataclasses.dataclass
class DirectShard:
    """One Morton shard of :class:`DirectBackend`'s per-source fan-out.

    ``allpts`` is the full stacked target cloud; each source's own block
    (``own`` = its ``(start, stop)`` in ``allpts``) is excluded from its
    targets, mirroring the serial task's "all other cells" stacking
    bit-for-bit. The non-owned part of ``allpts`` is the shard's
    far-field ghost region (:attr:`ghost_nbytes` prices it).
    """

    phase: ClassVar[str] = "Other-FMM"

    sources: List[CellPayload]
    allpts: np.ndarray
    own: List[Tuple[int, int]]

    @property
    def ghost_nbytes(self) -> int:
        owned = sum(hi - lo for lo, hi in self.own)
        return (self.allpts.shape[0] - owned) * 3 * _FLOAT_BYTES

    def run(self) -> List[np.ndarray]:
        out = []
        for payload, own in zip(self.sources, self.own):
            evaluator = rebuild_evaluator(payload)
            keep = _keep_mask(self.allpts.shape[0], own)
            out.append(evaluator.evaluate(
                payload.force, self.allpts[keep],
                fine_weighted=payload.fine_weighted))
        return out


@dataclasses.dataclass
class FMMShard:
    """One Morton shard of :class:`FMMBackend`'s correction fan-out.

    The single global tree evaluation stays in the parent; the shard
    computes each source's exact float64 self subtraction (over its own
    block's points) and its near-scheme deltas (over the parent-selected
    candidate targets), returning ``(self_u, global indices, deltas)``
    per source just like the inline task.
    """

    phase: ClassVar[str] = "Other-FMM"

    sources: List[CellPayload]
    own_points: List[np.ndarray]    # per-source own-block target points
    cand_idx: List[np.ndarray]      # per-source global candidate indices
    cand_points: List[np.ndarray]   # per-source candidate target points

    @property
    def ghost_nbytes(self) -> int:
        # The candidate targets are other cells' points — the only
        # non-owned geometry this shard receives.
        return sum(pts.shape[0] for pts in self.cand_points) * 3 * _FLOAT_BYTES

    def run(self) -> List[tuple]:
        out = []
        for payload, own, cidx, cpts in zip(self.sources, self.own_points,
                                            self.cand_idx, self.cand_points):
            evaluator = rebuild_evaluator(payload)
            self_u = stokes_slp_apply(evaluator._fine.points,
                                      payload.fine_weighted.reshape(-1, 3),
                                      own, payload.viscosity)
            if cidx.size == 0:
                out.append((self_u, cidx, np.zeros((0, 3))))
                continue
            idx, delta = evaluator.near_correction(
                payload.force, cpts, fine_weighted=payload.fine_weighted)
            out.append((self_u, cidx[idx], delta))
        return out


class _RunShard(ProcessTask):
    """The one process-safe entry point every shard map uses: executes a
    shard under a worker-side timer scope named by the shard's stage
    category (the deltas travel back with the results and fold into the
    parent's accumulators)."""

    def __call__(self, shard):
        with worker_timers().scope(shard.phase):
            return shard.run()


#: Module-level task instance — picklable by reference, as the
#: ``picklable-task`` lint pass requires.
RUN_SHARD = _RunShard()
