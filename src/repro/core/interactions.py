"""Pluggable cell-cell interaction backends.

The explicit part of each time step needs the velocity induced by every
cell's single layer on every *other* cell (and on the vessel wall). How
that N-body sum is computed is a performance policy, not physics, so it
lives behind the :class:`InteractionBackend` protocol:

- :class:`DirectBackend` — the near-singular-aware pairwise loop, O(n^2)
  in the number of cells but exact up to quadrature error.
- :class:`FMMBackend` — a single global two-pass KIFMM over all cells'
  sources (:class:`repro.fmm.GlobalKIFMM`), with exact float64 self
  subtraction and near-scheme deltas layered on top (the paper's FMM +
  near-correction split); the O(N) choice once the suspension outgrows
  a dozen cells.

Both cache one :class:`~repro.vesicle.CellNearEvaluator` per cell across
steps (rebuilding them every step was a measurable hot-path cost) and
upsample each cell's force density to the fine grid once per step,
reusing it for every target batch.

The per-source sums are independent tasks, so every source loop maps
over the backend's :attr:`~InteractionBackend.executor` (assigned by the
time stepper, serial by default) and the per-target accumulations are
folded afterwards in fixed source order — the threaded schedule is
bit-identical to the serial one.
"""
from __future__ import annotations

from typing import ClassVar, Dict, List, Optional, Sequence, Type

import numpy as np

from ..fmm import GlobalKIFMM
from ..kernels import stokes_slp_apply
from ..runtime.executor import Executor, SerialExecutor
from ..surfaces import SpectralSurface
from ..vesicle import CellNearEvaluator


class InteractionBackend:
    """Computes all-pairs single-layer velocities for the explicit step.

    Lifecycle: :meth:`bind` once to a cell list, :meth:`prepare` once per
    step with that step's force densities, then any number of
    :meth:`cell_cell` / :meth:`evaluate_at` calls; :meth:`refresh` after
    cell ``i`` moves.
    """

    name: ClassVar[str] = ""

    def __init__(self) -> None:
        self.cells: List[SpectralSurface] = []
        self.viscosity = 1.0
        self.evaluators: List[CellNearEvaluator] = []
        #: executor the per-source tasks are mapped over (the stepper
        #: installs its own, so backend and stages share one policy).
        self.executor: Executor = SerialExecutor()
        self._bound = False
        self._prepared = False
        self._fw: List[np.ndarray] = []
        self._forces: List[np.ndarray] = []

    def bind(self, cells: Sequence[SpectralSurface],
             viscosity: float) -> "InteractionBackend":
        # Copy: a caller mutating its own list must not desynchronize
        # cells from their evaluators.
        self.cells = list(cells)
        self.viscosity = float(viscosity)
        self.evaluators = [CellNearEvaluator(c, viscosity=self.viscosity)
                           for c in self.cells]
        self._bound = True
        self._prepared = False
        return self

    @property
    def bound(self) -> bool:
        return self._bound

    def options(self) -> dict:
        """JSON-safe constructor options (for config serialization)."""
        return {}

    def refresh(self, i: int) -> None:
        """Rebuild the cached evaluator state of cell ``i`` after it moved.

        Also discards any prepared step state: force densities weighted
        on the pre-move geometry would silently misrepresent the new
        configuration, so :meth:`prepare` must be called again before
        the next evaluation.
        """
        self.evaluators[i].refresh()
        self._prepared = False
        self._fw = []
        self._forces = []

    def _require_prepared(self) -> None:
        if not self._prepared:
            raise RuntimeError(
                "backend has no prepared step state; call prepare(forces) "
                "(again after any refresh) before evaluating")

    def prepare(self, forces: Sequence[np.ndarray]) -> None:
        """Cache this step's force densities for reuse across targets.

        Densities are normalized to C-contiguous layout: numpy's
        reductions take layout-dependent (ulp-different) paths, and the
        result must not depend on the layout a caller hands in.
        """
        self._forces = [np.ascontiguousarray(f) for f in forces]
        if len(self._forces) != len(self.evaluators):
            raise ValueError(f"got {len(self._forces)} force densities for "
                             f"{len(self.evaluators)} bound cells")
        self._fw = [None] * len(self._forces)
        self._prepared = True

    def _weighted(self, j: int) -> np.ndarray:
        """Cell j's quadrature-weighted fine density, upsampled lazily
        once per step (a single-cell free-space run never needs it).
        C-contiguous for the same reason as :meth:`prepare`."""
        if self._fw[j] is None:
            self._fw[j] = np.ascontiguousarray(
                self.evaluators[j].weighted_fine_density(self._forces[j]))
        return self._fw[j]

    def _source_velocity(self, j: int, targets: np.ndarray) -> np.ndarray:
        """Cell j's single-layer velocity at arbitrary targets."""
        raise NotImplementedError

    def cell_cell(self) -> List[np.ndarray]:
        """``b_i = sum_{j != i} S_j f_j`` at cell i's points, per cell.

        All other cells' points are stacked into one target batch per
        source cell, so the near-singular pipeline and the far kernel run
        once per source instead of once per (source, target-cell) pair.
        The per-source batches are independent tasks mapped over the
        executor; the accumulation folds in fixed source order.
        """
        self._require_prepared()
        cells = self.cells
        ncell = len(cells)
        b = [np.zeros((c.n_points, 3)) for c in cells]

        def task(j: int) -> Optional[np.ndarray]:
            others = [i for i in range(ncell) if i != j]
            if not others:
                return None
            targets = np.concatenate([cells[i].points for i in others])
            return self._source_velocity(j, targets)

        vals_per_source = self.executor.map(task, range(ncell))
        for j, vals in enumerate(vals_per_source):
            if vals is None:
                continue
            at = 0
            for i in range(ncell):
                if i == j:
                    continue
                n = cells[i].n_points
                b[i] += vals[at:at + n]
                at += n
        return b

    def evaluate_at(self, targets: np.ndarray) -> np.ndarray:
        """``sum_j S_j f_j`` at external targets (e.g. the vessel wall)."""
        self._require_prepared()
        targets = np.atleast_2d(np.asarray(targets, float))
        out = np.zeros((targets.shape[0], 3))
        vals = self.executor.map(
            lambda j: self._source_velocity(j, targets),
            range(len(self.cells)))
        for v in vals:
            out += v
        return out


# repro-lint: disable=global-mutable — class registry written once at import time by @register_backend, read-only afterwards
BACKENDS: Dict[str, Type[InteractionBackend]] = {}


def register_backend(cls: Type[InteractionBackend]) -> Type[InteractionBackend]:
    """Class decorator adding a backend to the :data:`BACKENDS` registry."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} must define a non-empty name")
    BACKENDS[cls.name] = cls
    return cls


def make_backend(name: str, **options) -> InteractionBackend:
    """Instantiate a registered backend by name."""
    try:
        cls = BACKENDS[name]
    except KeyError:
        raise ValueError(f"unknown interaction backend {name!r}; "
                         f"registered: {sorted(BACKENDS)}") from None
    return cls(**options)


@register_backend
class DirectBackend(InteractionBackend):
    """Exact pairwise near-singular evaluation, O(ncell^2) pairs."""

    name = "direct"

    def _source_velocity(self, j: int, targets: np.ndarray) -> np.ndarray:
        return self.evaluators[j].evaluate(self._forces[j], targets,
                                           fine_weighted=self._weighted(j))


@register_backend
class FMMBackend(InteractionBackend):
    """One global kernel-independent FMM over *all* cells' sources.

    Every cell's fine quadrature sources are stacked into a single
    :class:`repro.fmm.GlobalKIFMM` per step: one upward + downward pass,
    then each target batch costs one O(N) evaluation regardless of cell
    count — the crossover against :class:`DirectBackend` is around 16
    cells (see ``examples/quickstart.py`` for the table).

    A global tree mixes every cell's contribution, so two corrections
    restore the pairwise semantics:

    - **Self term**: cell ``i``'s own sources are subtracted through the
      *exact float64 smooth* sum at ``i``'s points. The FMM computed those
      same sources through exact float64 P2P (adjacent boxes) plus
      far-field translations, so the difference is far-field FMM error
      only — the catastrophic cancellation that ruled out a global tree
      for a naive smooth-minus-smooth scheme does not occur because both
      sides carry identical singular near terms.
    - **Near pairs**: targets inside another cell's near zone (a
      conservative prefilter — inside the cell's bounding sphere
      inflated by ``near_safety`` times its near-scheme distance — then
      the evaluator's exact near scan) get
      :meth:`~repro.vesicle.CellNearEvaluator.near_correction` added —
      near-scheme value minus the same exact smooth sum the FMM's P2P
      route already delivered.

    ``equiv_points_per_edge`` is the accuracy knob (rel error ~1e-4 vs
    Direct at 5, ~1e-6 at 8); ``max_leaf`` trades P2P against
    translation work — the 400 default keeps leaves at roughly one
    cell's near cluster, which measured ~3x faster than a 64..128
    regime on dense suspensions (deep trees over lattice-packed cells
    explode the M2L pair count); ``mac`` only steers the fallback
    descent for targets outside the source cube (vessel walls).
    """

    name = "fmm"

    def __init__(self, mac: float = 3.0, equiv_points_per_edge: int = 5,
                 max_leaf: int = 400, near_safety: float = 1.5):
        super().__init__()
        self.mac = float(mac)
        self.equiv_points_per_edge = int(equiv_points_per_edge)
        self.max_leaf = int(max_leaf)
        self.near_safety = float(near_safety)
        self._fmm: Optional[GlobalKIFMM] = None
        self._centers: Optional[np.ndarray] = None
        self._radii: Optional[np.ndarray] = None

    def options(self) -> dict:
        return {"mac": self.mac,
                "equiv_points_per_edge": self.equiv_points_per_edge,
                "max_leaf": self.max_leaf,
                "near_safety": self.near_safety}

    @property
    def stats(self) -> dict:
        """Interaction counters of the current step's tree (see
        :attr:`repro.fmm.GlobalKIFMM.stats`)."""
        return {} if self._fmm is None else dict(self._fmm.stats)

    def _bounding_spheres(self) -> None:
        centers, radii = [], []
        for c in self.cells:
            pts = c.points
            ctr = pts.mean(axis=0)
            centers.append(ctr)
            radii.append(float(np.linalg.norm(pts - ctr, axis=1).max()))
        self._centers = np.asarray(centers)
        self._radii = np.asarray(radii)

    def _near_cutoffs(self) -> np.ndarray:
        """Per-source near-zone radius (bounding sphere + near distance)."""
        return self._radii + self.near_safety * np.array(
            [ev.near_distance for ev in self.evaluators])

    def _near_mask(self, j: int, targets: np.ndarray) -> np.ndarray:
        """Targets that may fall in source cell j's near-evaluation zone."""
        d = np.linalg.norm(targets - self._centers[j], axis=1)
        return d < self._near_cutoffs()[j]

    def prepare(self, forces: Sequence[np.ndarray]) -> None:
        super().prepare(forces)
        if not self.cells:      # wall-only scene: no sources, no tree
            self._fmm = None
            return
        self._bounding_spheres()
        # Upsample every cell once (independent tasks), then build the
        # one global tree; its per-box stages fan out over the same
        # executor internally.
        fws = self.executor.map(self._weighted, range(len(self.cells)))
        src = np.concatenate(
            [ev._fine.points for ev in self.evaluators])
        den = np.concatenate([fw.reshape(-1, 3) for fw in fws])
        self._fmm = GlobalKIFMM(
            src, den, "stokes_slp", self.viscosity,
            max_leaf=self.max_leaf,
            equiv_points_per_edge=self.equiv_points_per_edge,
            mac=self.mac, executor=self.executor)

    def _self_smooth(self, j: int, targets: np.ndarray) -> np.ndarray:
        """Exact float64 smooth sum of cell j's own fine sources."""
        return stokes_slp_apply(self.evaluators[j]._fine.points,
                                self._weighted(j).reshape(-1, 3),
                                targets, self.viscosity)

    def _near_deltas(self, j: int, targets: np.ndarray,
                     candidates: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Near-scheme corrections of source j at the candidate targets,
        as (global target indices, velocity deltas)."""
        if candidates.size == 0:
            return candidates, np.zeros((0, 3))
        idx, delta = self.evaluators[j].near_correction(
            self._forces[j], targets[candidates],
            fine_weighted=self._weighted(j))
        return candidates[idx], delta

    def cell_cell(self) -> List[np.ndarray]:
        """Global-tree specialization: one FMM evaluation at the stacked
        points, then per-source self subtraction and near corrections
        (independent tasks, folded in fixed source order)."""
        self._require_prepared()
        cells = self.cells
        ncell = len(cells)
        counts = [c.n_points for c in cells]
        if ncell <= 1:
            return [np.zeros((n, 3)) for n in counts]
        offsets = np.concatenate([[0], np.cumsum(counts)])
        allpts = np.concatenate([c.points for c in cells])
        u = self._fmm.evaluate(allpts)
        d = np.linalg.norm(allpts[:, None, :] - self._centers[None, :, :],
                           axis=2)
        near = d < self._near_cutoffs()[None, :]

        def task(j: int) -> tuple:
            own = slice(offsets[j], offsets[j + 1])
            cand = near[:, j].copy()
            cand[own] = False      # self handled by the subtraction
            gidx, delta = self._near_deltas(j, allpts, np.nonzero(cand)[0])
            return self._self_smooth(j, allpts[own]), gidx, delta

        corrections = self.executor.map(task, range(ncell))
        for j, (self_u, gidx, delta) in enumerate(corrections):
            u[offsets[j]:offsets[j + 1]] -= self_u
            u[gidx] += delta
        return [u[offsets[i]:offsets[i + 1]].copy() for i in range(ncell)]

    def evaluate_at(self, targets: np.ndarray) -> np.ndarray:
        """One FMM evaluation plus near corrections (no self terms:
        external targets belong to no cell)."""
        self._require_prepared()
        targets = np.atleast_2d(np.asarray(targets, float))
        if self._fmm is None:
            return np.zeros((targets.shape[0], 3))
        u = self._fmm.evaluate(targets)

        def task(j: int) -> tuple:
            cand = np.nonzero(self._near_mask(j, targets))[0]
            return self._near_deltas(j, targets, cand)

        for gidx, delta in self.executor.map(task,
                                             range(len(self.cells))):
            u[gidx] += delta
        return u
