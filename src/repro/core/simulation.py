"""Top-level simulation driver: the public entry point of the platform."""
from __future__ import annotations

import dataclasses
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from ..bie import BoundarySolver
from ..collision import NCPSolver, patch_collision_mesh
from ..config import ReproConfig
from ..patches import PatchSurface
from ..resilience import (HealthSentinel, StepRejectedError, capture_state,
                          restore_state)
from ..surfaces import SpectralSurface
from ..vessel.recycling import OutletRecycler
from .interactions import BACKENDS, InteractionBackend, make_backend
from .stepper import StepReport, TimeStepper
from .timers import ComponentTimers

#: exception classes the transactional step treats as a *recoverable*
#: step failure (rolled back and retried at smaller dt): numerical
#: breakdowns and the runtime errors solver layers raise on corrupted
#: input. Programming errors (TypeError, AttributeError, ...) propagate.
RECOVERABLE_ERRORS = (ArithmeticError, ValueError, RuntimeError,
                      np.linalg.LinAlgError)


class Simulation:
    """A confined (or free-space) RBC flow simulation.

    Parameters
    ----------
    cells:
        Initial cell surfaces (see :func:`repro.vessel.fill_with_rbcs`).
    vessel:
        Optional closed patch surface (outward normals, fluid inside).
    boundary_bc:
        Dirichlet data at the vessel's coarse nodes (see
        :mod:`repro.vessel.boundary_conditions`); zero means no-slip
        everywhere.
    config:
        A :class:`repro.config.ReproConfig` (see :mod:`repro.presets`
        for paper scenarios).
    recycler:
        Optional inlet/outlet cell recycler.
    backend:
        Optional pre-built :class:`InteractionBackend` instance
        overriding ``config.backend``.
    """

    def __init__(self, cells: Sequence[SpectralSurface],
                 vessel: Optional[PatchSurface] = None,
                 boundary_bc: Optional[np.ndarray] = None,
                 config: Optional[ReproConfig] = None,
                 recycler: Optional[OutletRecycler] = None,
                 backend: Optional[InteractionBackend] = None):
        self.config = config or ReproConfig()
        if backend is not None and backend.name in BACKENDS:
            # Keep the archived config faithful to the run when a
            # pre-built backend instance overrides config.backend.
            self.config = dataclasses.replace(
                self.config, backend=backend.name,
                backend_options=backend.options())
        self.cells = list(cells)
        self.vessel = vessel
        self.recycler = recycler
        self.timers = ComponentTimers()
        opts = self.config.numerics

        solver = None
        if vessel is not None:
            solver = BoundarySolver(vessel, kernel="stokes",
                                    viscosity=self.config.viscosity,
                                    options=opts)

        ncp = None
        if self.config.with_collisions:
            boundary_meshes = []
            if vessel is not None:
                m = self.config.collision_points_per_patch_edge
                for k, patch in enumerate(vessel.patches):
                    boundary_meshes.append(
                        patch_collision_mesh(patch, object_id=k, m=m))
            ncp = NCPSolver(boundary_meshes=boundary_meshes, options=opts)

        if backend is None:
            backend = make_backend(self.config.backend,
                                   **self.config.backend_options)

        self.stepper = TimeStepper(
            self.cells, options=opts, boundary_solver=solver,
            boundary_bc=boundary_bc, forces=self.config.forces,
            backend=backend, ncp_solver=ncp, timers=self.timers,
            resilience=self.config.resilience,
            viscosity=self.config.viscosity)

        self.t = 0.0
        self.history: list[StepReport] = []

    @property
    def boundary_solver(self) -> Optional[BoundarySolver]:
        return self.stepper.boundary_solver

    @property
    def backend(self) -> InteractionBackend:
        return self.stepper.backend

    @property
    def executor(self):
        """The per-cell stage executor (see ``NumericsOptions.executor`` /
        ``workers``); ``sim.executor.close()`` releases worker threads
        early when a threaded simulation is discarded mid-run."""
        return self.stepper.executor

    @property
    def checkpointable(self) -> bool:
        """Whether :func:`repro.resilience.save_checkpoint` supports this
        scene. Vessel-bound and recycling scenes are not yet serializable
        (the checkpoint format covers free-space cell state only), so
        callers that checkpoint opportunistically — the sweep runner
        above all — consult this instead of catching the
        ``NotImplementedError`` the save would raise."""
        return self.vessel is None and self.recycler is None

    # -- driving ------------------------------------------------------------
    def step(self) -> StepReport:
        """Advance one *nominal* time step, transactionally.

        With ``config.resilience.enabled`` (the default) the step is a
        transaction: the mutable per-cell state is snapshotted, the
        stepped state is validated by the health sentinel (finiteness,
        area/volume drift, the solver convergence flags the step already
        computed), and a failed — or crashed — step is rolled back and
        retried at half the time step, sub-stepping back onto the
        nominal time grid. The returned report always spans exactly
        ``config.dt`` (sub-step reports ride along on
        ``StepReport.substeps``), so accepted trajectories live on
        multiples of the nominal dt regardless of retries; healthy steps
        are bit-identical to stepping with resilience disabled. Raises
        :class:`~repro.resilience.StepRejectedError` when the retry
        budget or the dt floor is exhausted, with the simulation rolled
        back to the last accepted sub-step.

        Recycling (if configured) runs once per accepted nominal step.
        """
        pol = self.config.resilience
        if pol is None or not pol.enabled:
            report = self.stepper.step(self.t, self.config.dt)
            self.t += self.config.dt
        else:
            report = self._transactional_step(pol)
            self.t += self.config.dt
        if self.recycler is not None:
            report.recycled = self.recycler.recycle(self.cells)
            for i in report.recycled:
                self.stepper.refresh_cell(i)
        self.history.append(report)
        return report

    def _transactional_step(self, pol) -> StepReport:
        """One nominal step as a rollback transaction (see :meth:`step`).

        Sub-step bookkeeping uses exact :class:`~fractions.Fraction`
        arithmetic over the *fraction of the nominal dt* — halving and
        re-summing dyadic floats directly (``dt - dt/2 - dt/4 ...``)
        accumulates rounding, which would knock the sub-step sizes (and
        with them the trajectory) off the exact halves the retries are
        defined on.
        """
        dt_nominal = self.config.dt
        sentinel = HealthSentinel(pol)
        t0 = self.t
        remaining = Fraction(1)     # of the nominal step, still to cover
        frac = Fraction(1)          # current sub-step size
        retries = 0
        substeps: list[StepReport] = []
        while remaining > 0:
            frac = min(frac, remaining)
            done = Fraction(1) - remaining
            # float(done/frac) is exact for dyadic fractions, so this
            # rounds once — matching the raw path's t arithmetic when
            # the step is clean.
            t_sub = t0 + dt_nominal * float(done)
            dt_sub = dt_nominal * float(frac)
            snapshot = capture_state(self.stepper, t_sub)
            failure = None
            health = None
            report = None
            try:
                report = self.stepper.step(t_sub, dt_sub)
            except RECOVERABLE_ERRORS as exc:
                failure = f"step raised {type(exc).__name__}: {exc}"
            if report is not None:
                health = sentinel.evaluate(self.stepper, report, snapshot)
                report.health = health
                if not health:
                    failure = "; ".join(health.failures)
            if failure is None:
                substeps.append(report)
                remaining -= frac
                continue
            restore_state(self.stepper, snapshot)
            retries += 1
            if retries > pol.max_retries:
                raise StepRejectedError(
                    f"step at t={t_sub:.6g} rejected after "
                    f"{pol.max_retries} retries ({failure}); state rolled "
                    "back to the last accepted sub-step", health=health)
            if float(frac) / 2.0 < pol.dt_floor_factor:
                raise StepRejectedError(
                    f"step at t={t_sub:.6g} still failing at dt = "
                    f"{float(frac):g} x nominal; halving again would cross "
                    f"the dt floor ({pol.dt_floor_factor:g} x nominal). "
                    f"Last failure: {failure}", health=health)
            frac = frac / 2
        if len(substeps) == 1 and retries == 0:
            return substeps[0]
        final = dataclasses.replace(substeps[-1], t=t0, dt=dt_nominal,
                                    substeps=substeps, retries=retries)
        return final

    def run(self, n_steps: int,
            callback: Optional[Callable[[int, StepReport], None]] = None
            ) -> list[StepReport]:
        out = []
        for k in range(n_steps):
            rep = self.step()
            out.append(rep)
            if callback is not None:
                callback(k, rep)
        return out

    # -- diagnostics ---------------------------------------------------------
    def centroids(self) -> np.ndarray:
        return np.array([c.centroid() for c in self.cells])

    def total_cell_volume(self) -> float:
        return float(sum(c.volume() for c in self.cells))

    def total_cell_area(self) -> float:
        return float(sum(c.area() for c in self.cells))

    def volume_fraction(self, lumen_volume: Optional[float] = None) -> float:
        if lumen_volume is None:
            if self.vessel is None:
                raise ValueError("need lumen_volume without a vessel")
            lumen_volume = self.vessel.volume()
        return self.total_cell_volume() / lumen_volume

    def n_dof(self) -> int:
        """Unknowns per time step: cell positions (+ tension) + boundary
        density, the count reported in the paper's scaling tables."""
        per_cell = 3 + (1 if self.stepper.with_tension else 0)
        n = sum(per_cell * c.n_points for c in self.cells)
        if self.vessel is not None:
            n += 3 * self.vessel.coarse().points.shape[0]
        return n
