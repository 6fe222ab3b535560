"""The locally-implicit time step (paper Sec. 2.2).

Per step, from state (X, sigma, lambda):

1. explicit part b_i:
   (a) u_fr on Gamma from all cells'  single layers,
   (b) GMRES solve of the boundary equation for phi,
   (c) u_Gamma_i = D phi at the cell points,
   (d) contributions of the *other* cells b_c_i = sum_{j != i} S_j f_j,
   (e) b_i = u_Gamma_i + b_c_i (+ any imposed-velocity force terms);
2. implicit part: solve X+ = X + dt (b + S_i f_i(X+)) per cell with the
   frozen-geometry linearized bending operator, by a factorized direct
   solve;
3. contact projection: the NCP loop renders (X+, lambda+) contact-free.

Interactions with the vessel and between cells are explicit; the cell's
self-interaction is implicit — exactly the paper's splitting. The
physics of step 1 is an open list of :class:`~repro.physics.terms.ForceTerm`
objects, and the cell-cell summation of (d) is delegated to an
:class:`~repro.core.interactions.InteractionBackend`.

Every per-cell stage — force evaluation, the tension and implicit
factorize-and-solve, the operator refreshes — is expressed as an
independent task per cell and mapped over the
:class:`~repro.runtime.executor.Executor` selected by
``NumericsOptions.executor`` / ``workers``; results are gathered by cell
index, so the threaded schedule is bit-identical to the serial one.
Same-order cells additionally share stacked GEMMs (the
:class:`~repro.core.cellbatch.CellBatch` layer) for the self-interaction
applies and the post-step forward SHTs.
"""
from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

import numpy as np

from ..config import NumericsOptions
from ..linalg import gmres
from ..physics import linearized_bending_apply
from ..physics.bending import implicit_operator_matrix
from ..physics.tension import TensionSolver
from ..physics.terms import Bending, CellState, ForceTerm, Tension
from ..resilience.health import WarnOnceRegistry
from ..runtime.executor import make_executor, resolve_workers
from ..surfaces import SpectralSurface, seed_upsampled
from ..vesicle import SingularSelfInteraction
from ..collision import NCPSolver, NCPReport
from .cellbatch import CellBatch
from .interactions import DirectBackend, InteractionBackend
from .timers import ComponentTimers


@dataclasses.dataclass
class StepReport:
    """Diagnostics of one time step.

    The defaulted tail fields carry the solver convergence flags and the
    resilience layer's verdict; they default so report construction
    stays source-compatible with pre-resilience callers.
    """

    t: float
    dt: float
    bie_iterations: int
    implicit_iterations: list[int]
    ncp: Optional[NCPReport]
    recycled: list[int]
    #: whether the boundary-integral GMRES met tolerance (record-only:
    #: the paper caps that solve's iterations by design).
    bie_converged: bool = True
    #: final relative residual of that solve (0.0 without a vessel).
    bie_residual: float = 0.0
    #: per-cell convergence of the implicit update (the direct LU path
    #: always reports converged; the GMRES fallback surfaces its flag).
    implicit_converged: list[bool] = dataclasses.field(default_factory=list)
    #: per-cell inner iterations of the tension solve (0 on the direct
    #: path), empty when tension is off.
    tension_iterations: list[int] = dataclasses.field(default_factory=list)
    #: AND of the per-cell tension convergence flags.
    tension_converged: bool = True
    #: cells whose factorized tension/implicit operator hit a singular
    #: pivot this step (their solves run the GMRES fallback).
    lu_singular: list[int] = dataclasses.field(default_factory=list)
    #: name of the backend the degradation policy fell back to (sticky;
    #: ``None`` while the configured backend is active).
    backend_degraded_to: Optional[str] = None
    #: the health sentinel's verdict (``None`` when resilience is off).
    health: Optional["StepHealth"] = None  # noqa: F821
    #: reports of the dt-halved sub-steps a rejected step was re-run as
    #: (empty for a clean single step).
    substeps: list = dataclasses.field(default_factory=list)
    #: number of rejected attempts before this step was accepted.
    retries: int = 0


class TimeStepper:
    """Advances a list of cells through one locally-implicit step.

    The physics is ``forces`` (a list of :class:`ForceTerm`, default
    ``[Bending()]`` as in :class:`repro.config.ReproConfig`) and the
    cell-cell summation ``backend`` (an :class:`InteractionBackend`,
    default :class:`DirectBackend`).
    """

    def __init__(self, cells: Sequence[SpectralSurface],
                 options: Optional[NumericsOptions] = None,
                 boundary_solver=None,
                 boundary_bc: Optional[np.ndarray] = None,
                 ncp_solver: Optional[NCPSolver] = None,
                 timers: Optional[ComponentTimers] = None,
                 implicit_tol: float = 1e-8,
                 implicit_max_iter: int = 60,
                 forces: Optional[Sequence[ForceTerm]] = None,
                 backend: Optional[InteractionBackend] = None,
                 resilience=None,
                 viscosity: float = 1.0):
        self.cells = list(cells)
        self.options = options or NumericsOptions()
        #: transactional-stepping policy (a
        #: :class:`repro.config.ResilienceOptions` or ``None``): while it
        #: is enabled, non-finite cell-cell output from ``"fmm"`` rebinds
        #: ``"direct"`` in its place (see :meth:`_degrade_backend`).
        self.resilience = resilience
        #: name of the backend the degradation fell back to, or ``None``.
        self.backend_degraded_to: Optional[str] = None
        self.boundary_solver = boundary_solver
        self.boundary_bc = boundary_bc
        self.ncp = ncp_solver
        self.timers = timers or ComponentTimers()
        #: per-run once-only warning registry: recurring findings (capped
        #: BIE, degraded backend) log once per *simulation*, so concurrent
        #: runs in one process never suppress each other's warnings.
        self.warnings = WarnOnceRegistry()
        self.implicit_tol = implicit_tol
        self.implicit_max_iter = implicit_max_iter
        self.viscosity = viscosity
        #: executor the per-cell stage tasks are mapped over.
        #: ``workers="auto"`` resolves against the cell count here — a
        #: pool wider than the per-cell work would only sit idle.
        self.executor = make_executor(
            self.options.executor,
            resolve_workers(self.options.workers, len(self.cells)))
        #: order-grouped SoA view used for the stacked-GEMM paths.
        self.batch = CellBatch(self.cells)
        self.seed_caches()

        self.forces: List[ForceTerm] = (list(forces) if forces is not None
                                        else [Bending()])
        #: modulus of the linearized implicit bending operator.
        self.kappa = next((t.modulus for t in self.forces
                           if isinstance(t, Bending)), 0.0)
        self._tension_term = next((t for t in self.forces
                                   if isinstance(t, Tension)), None)
        self.with_tension = self._tension_term is not None
        # Per-cell cache of the summed non-tension traction: within a step
        # only the tension field changes, so the expensive geometric terms
        # (bending above all) are computed once per cell per step instead
        # of once per consumer (explicit rhs, tension solve, implicit rhs).
        self._f_ext: list[Optional[np.ndarray]] = [None] * len(self.cells)

        self.backend: InteractionBackend = backend or DirectBackend()
        # A backend instance is per-simulation state: rebinding one that
        # another simulation still holds would corrupt that simulation,
        # so a mismatched pre-bound backend is an error, not a rebind.
        if not self.backend.bound:
            self.backend.bind(self.cells, self.viscosity)
        elif (self.backend.viscosity != self.viscosity
              or len(self.backend.cells) != len(self.cells)
              or any(a is not b for a, b in zip(self.backend.cells,
                                                self.cells))):
            raise ValueError(
                "interaction backend is already bound to a different "
                "simulation's cells; create a fresh backend instance per "
                "simulation")
        # The backend's per-source loops run on the same executor as the
        # per-cell stages (one scheduling policy per simulation).
        self.backend.executor = self.executor

        self._self_ops: list[SingularSelfInteraction] = [
            SingularSelfInteraction(
                c, viscosity=self.viscosity,
                refresh_interval=self.options.selfop_refresh_interval)
            for c in self.cells]
        self.sigmas: list[np.ndarray] = [
            np.zeros((c.grid.nlat, c.grid.nphi)) for c in self.cells]
        # Per-cell direct-solve state, rebuilt after each full refresh:
        # the factorized tension Schur complement and the factorized
        # implicit operator I - dt S L (keyed by the dt it was built for).
        self._tension_solvers: list[Optional[TensionSolver]] = \
            [None] * len(self.cells)
        #: per cell: (dt, LU of I - dt S L, bending core, normals) or None.
        self._impl_lu: list[Optional[tuple]] = [None] * len(self.cells)

    # -- cached-state maintenance -----------------------------------------
    def seed_caches(self) -> None:
        """Fill the cells' empty position-dependent caches (coefficients,
        the fine resampling the near evaluators read, native and
        anti-aliasing geometry): one stacked pass per order over however
        many cells moved, bit-identical to the per-cell lazy fills."""
        seed_upsampled(self.cells)
        self.batch.seed_geometry()

    def refresh_cell(self, i: int) -> None:
        """Rebuild the cached operators of cell ``i`` after it moved.

        Covers the singular self-interaction tables (a forced full
        reassembly — out-of-band changes like recycling are too large for
        the amortized first-order correction), the interaction backend's
        near evaluator, and the factorized per-cell solve operators; call
        after any out-of-band position change (the recycler, external
        steering, ...).
        """
        self.seed_caches()
        self._self_ops[i].refresh(full=True)
        self._invalidate_cell(i)

    def _refresh_after_step(self, i: int,
                            full: Optional[bool] = None) -> None:
        """Per-step refresh of cell ``i``: the self-interaction follows
        the ``selfop_refresh_interval`` amortization policy, unless
        ``full=True`` forces a reassembly (a cell the contact projection
        moved: the amortized correction covers only the small per-step
        motion).

        The factorized tension Schur and implicit operators are rebuilt
        only on the interval's *full* reassemblies (the "factorize once
        per refresh, reuse across solves" amortization): on intermediate
        steps they stay frozen at the reference geometry — consistent
        with the first-order-corrected self-interaction they were built
        from — while everything explicit (forces, near-singular
        inter-cell terms, collision meshes) tracks the true geometry.
        With the default interval of 1 every step is a full rebuild.
        """
        was_full = self._self_ops[i].refresh(full)
        self.backend.refresh(i)
        self._f_ext[i] = None
        if was_full:
            self._tension_solvers[i] = None
            self._impl_lu[i] = None

    def _invalidate_cell(self, i: int) -> None:
        self.backend.refresh(i)
        self._f_ext[i] = None
        self._tension_solvers[i] = None
        self._impl_lu[i] = None

    # -- forces -----------------------------------------------------------
    def _cell_state(self, i: int) -> CellState:
        return CellState(index=i,
                         sigma=self.sigmas[i] if self.with_tension else None)

    def _external_force(self, i: int) -> np.ndarray:
        """Summed sigma-independent traction at the current geometry.

        Cached until cell ``i`` moves (see :meth:`refresh_cell`): within a
        step only the tension field changes, and terms declare via
        :attr:`ForceTerm.sigma_dependent` whether they consult it. Internal
        callers must not mutate the returned array.
        """
        if self._f_ext[i] is None:
            cell = self.cells[i]
            state = self._cell_state(i)
            f = np.zeros_like(cell.X)
            for term in self.forces:
                if term.sigma_dependent:
                    continue
                tr = term.traction(cell, state)
                if tr is not None:
                    f = f + tr
            self._f_ext[i] = f
        return self._f_ext[i]

    def interfacial_force(self, i: int,
                          include_tension: bool = True) -> np.ndarray:
        """Summed traction of the force terms for cell i at current state.

        ``include_tension=False`` gives the external forcing the tension
        solve balances against (everything but the tension itself). The
        sigma-independent part is computed once per cell per step and
        shared by the explicit pipeline, the tension solve, and the
        implicit solve; sigma-dependent terms are evaluated fresh here.
        Always returns a new array the caller may freely mutate.
        """
        f = self._external_force(i)
        fresh = False
        for term in self.forces:
            if not term.sigma_dependent:
                continue
            if not include_tension and isinstance(term, Tension):
                continue
            tr = term.traction(self.cells[i], self._cell_state(i))
            if tr is not None:
                f = f + tr
                fresh = True
        return f if fresh else f.copy()

    def _imposed_velocity(self, points: np.ndarray) -> Optional[np.ndarray]:
        """Summed imposed velocity of all force terms (None when absent)."""
        u = None
        for term in self.forces:
            v = term.velocity(points)
            if v is not None:
                u = v if u is None else u + v
        return u

    # -- the explicit pipeline ------------------------------------------------
    def _next_degraded_backend(self) -> Optional[str]:
        """``"direct"`` when the resilience layer is on and the active
        backend is ``"fmm"``; otherwise ``None`` (layer off, or already
        on the exact pairwise sum, which has nowhere to fall back to)."""
        pol = self.resilience
        if pol is not None and pol.enabled and self.backend.name == "fmm":
            return "direct"
        return None

    def _degrade_backend(self, forces: Sequence[np.ndarray],
                         contrib: list) -> list:
        """Graceful degradation of the cell-cell summation: while the
        active backend's output contains non-finite values and the
        policy names a fallback, permanently rebind it (fmm -> direct) and
        re-evaluate. Sticky: later steps keep the degraded backend (the
        fast backend already proved unreliable on this scene). When the
        chain is exhausted the poisoned result is returned unchanged and
        the health sentinel's finiteness check takes over (dt-retry
        path)."""
        while not all(np.isfinite(c).all() for c in contrib):
            nxt = self._next_degraded_backend()
            if nxt is None:
                break
            from .interactions import make_backend
            self.warnings.warn_once(
                f"backend-degraded:{self.backend.name}->{nxt}",
                f"interaction backend {self.backend.name!r} produced "
                f"non-finite velocities; degrading to {nxt!r} for the "
                "rest of the run")
            self.backend = make_backend(nxt).bind(self.cells,
                                                  self.viscosity)
            self.backend.executor = self.executor
            self.backend_degraded_to = nxt
            with self.timers.scope("Other-FMM"):
                self.backend.prepare(forces)
                contrib = self.backend.cell_cell()
        return contrib

    def _explicit_velocities(self
                             ) -> tuple[list[np.ndarray], int, bool, float]:
        cells = self.cells
        ncell = len(cells)
        forces = self.executor.map(self.interfacial_force, range(ncell))
        bie_iters = 0
        bie_converged = True
        bie_residual = 0.0

        # (d) cell-cell contributions (near-singular-aware), via the
        # pluggable backend; evaluators are cached across steps.
        with self.timers.scope("Other-FMM"):
            self.backend.prepare(forces)
            contrib = self.backend.cell_cell()
        if self.resilience is not None:
            contrib = self._degrade_backend(forces, contrib)
        b = [contrib[i].reshape(cells[i].X.shape) for i in range(ncell)]

        if self.boundary_solver is not None:
            solver = self.boundary_solver
            # (a) u_fr on Gamma.
            with self.timers.scope("Other-FMM"):
                ufr = self.backend.evaluate_at(solver.coarse.points)
            # (b) solve for phi.
            g = (self.boundary_bc if self.boundary_bc is not None
                 else np.zeros((solver.N, 3))) - ufr
            with self.timers.scope("BIE-solve"):
                phi, rep = solver.solve(g.ravel())
                bie_iters = rep.iterations
                bie_converged = bool(getattr(rep, "converged", True))
                bie_residual = float(getattr(rep, "residual", 0.0))
            # (c) u_Gamma at all cell points, one batched evaluation.
            with self.timers.scope("BIE-FMM"):
                if ncell:
                    pts = [c.points for c in cells]
                    vals = solver.evaluate(phi, np.concatenate(pts))
                    ends = np.cumsum([len(x) for x in pts])
                    for i, v in enumerate(np.split(vals, ends[:-1])):
                        b[i] += v.reshape(cells[i].X.shape)

        imposed = self.executor.map(
            lambda i: self._imposed_velocity(cells[i].points), range(ncell))
        for i in range(ncell):
            if imposed[i] is not None:
                b[i] += imposed[i].reshape(cells[i].X.shape)
        return b, bie_iters, bie_converged, bie_residual

    # -- tension update ---------------------------------------------------------
    def _update_tensions(self, b: list[np.ndarray]
                         ) -> tuple[list[int], bool]:
        """Solve the inextensibility constraint cell by cell (explicit in
        the inter-cell coupling, as the paper's splitting).

        The background velocity includes every non-tension traction
        (bending, gravity, user terms) through the self-interaction, so
        the computed tension is consistent with the forcing actually
        applied.

        The per-cell Schur complement is assembled and LU-factorized on
        first use after each refresh and the solve is a direct
        back-substitution.

        Batched in three stages: the self-interaction applies of all
        same-order cells collapse into one stacked GEMM (CellBatch),
        missing Schur factorizations are rebuilt — assembled as per-cell
        executor tasks, then factorized as one stacked getrf pass per
        equal-order group — and the per-cell solve tasks map over the
        executor.
        """
        ncell = len(self.cells)
        f_bg = self.executor.map(
            lambda i: self.interfacial_force(i, include_tension=False),
            range(ncell))
        applied = self.batch.apply_matrices(
            [op.matrix for op in self._self_ops], f_bg)
        self._ensure_tension_solvers()

        def task(i: int) -> tuple[np.ndarray, int, bool]:
            u_bg = b[i] + applied[i].reshape(self.cells[i].X.shape)
            # solve_report returns the convergence flag the plain solve()
            # drops (false only on the singular-LU GMRES fallback).
            return self._tension_solvers[i].solve_report(u_bg)

        solved = self.executor.map(task, range(ncell))
        self.sigmas = [sigma for sigma, _, _ in solved]
        return ([iters for _, iters, _ in solved],
                all(conv for _, _, conv in solved))

    def _ensure_tension_solvers(self) -> None:
        """Rebuild missing direct tension solvers with one stacked
        factorization per equal-order group: the Schur systems are
        assembled as independent per-cell executor tasks, gathered, and
        getrf-factorized through ``CellBatch.factorize_lu``."""
        ncell = len(self.cells)
        todo = [i for i in range(ncell) if self._tension_solvers[i] is None]
        if not todo:
            return

        def build(i: int):
            solver = TensionSolver(self.cells[i], self._self_ops[i].apply)
            return solver, solver.schur_system(self._self_ops[i].matrix)

        built = self.executor.map(build, todo)
        systems: list[Optional[np.ndarray]] = [None] * ncell
        for (_, A), i in zip(built, todo):
            systems[i] = A
        handles = self.batch.factorize_lu(systems)
        for (solver, _), i in zip(built, todo):
            solver.install_factorization(handles[i])
            self._tension_solvers[i] = solver

    # -- implicit update ----------------------------------------------------------
    def _prepare_implicit(self, dt: float) -> None:
        """Rebuild missing implicit factorizations ``I - dt S L`` with
        one stacked getrf pass per equal-order group (mirrors
        :meth:`_ensure_tension_solvers`): assembly fans out as per-cell
        executor tasks, factorization runs stacked via
        ``CellBatch.factorize_lu``."""
        ncell = len(self.cells)
        todo = [i for i in range(ncell) if self._impl_lu[i] is None]
        if not todo:
            return
        built = self.executor.map(
            lambda i: implicit_operator_matrix(
                self.cells[i], self._self_ops[i].matrix, self.kappa, dt),
            todo)
        systems: list[Optional[np.ndarray]] = [None] * ncell
        for (A, _, _), i in zip(built, todo):
            systems[i] = A
        handles = self.batch.factorize_lu(systems)
        for (_, core, nrm), i in zip(built, todo):
            self._impl_lu[i] = (dt, handles[i], core, nrm)

    def _implicit_update(self, i: int, b: np.ndarray, dt: float
                         ) -> tuple[np.ndarray, int, bool]:
        """Solve X+ = X + dt (b + S_i f_i(X+)) with linearized bending;
        returns ``(X+, iterations, converged)``.

        The dense operator ``I - dt S L`` is assembled and LU-factorized
        per (cell, dt) by :meth:`_prepare_implicit` on first use after
        each refresh, and the update is a single back-substitution (0
        reported iterations, always converged). If ``dt`` differs from
        the factorization already cached for this geometry — adaptive
        stepping mid-run, including the resilience layer's dt-halved
        retries — the solve falls back to GMRES rather than thrashing
        refactorizations, and surfaces that solve's convergence flag.
        """
        cell = self.cells[i]
        op = self._self_ops[i]
        shape = cell.X.shape
        f_now = self.interfacial_force(i)

        cached_dt, lu, core, nrm = self._impl_lu[i]
        if cached_dt == dt:
            w = np.einsum("mj,mj->m", cell.points, nrm)
            LX = ((core @ w)[:, None] * nrm).reshape(shape)
            rhs = (cell.X + dt * (b.reshape(shape)
                                  + op.apply(f_now - LX))).ravel()
            return lu.solve(rhs).reshape(shape), 0, True

        def L_apply(dX_flat: np.ndarray) -> np.ndarray:
            dX = dX_flat.reshape(shape)
            return linearized_bending_apply(cell, dX, self.kappa)

        def matvec(y: np.ndarray) -> np.ndarray:
            Y = y.reshape(shape)
            return (Y - dt * op.apply(L_apply(y))).ravel()

        rhs = (cell.X + dt * (b + op.apply(f_now
                                           - L_apply(cell.X.ravel())))).ravel()
        res = gmres(matvec, rhs, x0=cell.X.ravel(),
                    tol=self.implicit_tol, max_iter=self.implicit_max_iter)
        return res.x.reshape(shape), res.iterations, res.converged

    # -- one step ----------------------------------------------------------------
    def _singular_lu_cells(self) -> list[int]:
        """Cells whose factorized tension or implicit operator hit a
        singular pivot (their solves run the GMRES fallback of
        :mod:`repro.linalg.dense`)."""
        out = []
        for i in range(len(self.cells)):
            solver = self._tension_solvers[i]
            schur = getattr(solver, "_schur", None) if solver else None
            cached = self._impl_lu[i]
            if ((schur is not None and getattr(schur, "singular", False))
                    or (cached is not None
                        and getattr(cached[1], "singular", False))):
                out.append(i)
        return out

    def step(self, t: float, dt: float) -> StepReport:
        with self.timers.scope("Other"):
            b, bie_iters, bie_conv, bie_res = self._explicit_velocities()
            tension_iters: list[int] = []
            tension_conv = True
            if self.with_tension:
                with self.timers.scope("Tension"):
                    # tensions folded via forces
                    tension_iters, tension_conv = self._update_tensions(b)

            with self.timers.scope("Implicit"):
                self._prepare_implicit(dt)
                results = self.executor.map(
                    lambda i: self._implicit_update(i, b[i], dt),
                    range(len(self.cells)))
            candidates = [Xp for Xp, _, _ in results]
            impl_iters = [iters for _, iters, _ in results]
            impl_conv = [conv for _, _, conv in results]
            lu_singular = self._singular_lu_cells()
            if not bie_conv:
                self.warnings.warn_once(
                    "stepper:bie-nonconverged",
                    "boundary-integral GMRES hit its iteration cap "
                    f"at relative residual {bie_res:.3g}, short of "
                    "tolerance (recorded on StepReport.bie_converged / "
                    "bie_residual)")
            if not all(impl_conv):
                self.warnings.warn_once(
                    "stepper:implicit-nonconverged",
                    "implicit GMRES fallback did not converge on "
                    "cells %s (recorded on "
                    "StepReport.implicit_converged)" % [
                        i for i, ok in enumerate(impl_conv) if not ok])
            if not tension_conv:
                self.warnings.warn_once(
                    "stepper:tension-nonconverged",
                    "tension GMRES solve did not converge (recorded "
                    "on StepReport.tension_converged)")
            if lu_singular:
                self.warnings.warn_once(
                    "stepper:lu-singular",
                    "singular factorized operator on cells %s; "
                    "solves routed through the GMRES fallback"
                    % lu_singular)
            # One stacked fine-grid pass over the candidates, shared by
            # the collision meshes and by every cell (coefficients, near
            # evaluator) the contact projection leaves where it is.
            cand = [SpectralSurface(X, c.order, c.aliasing_factor)
                    for X, c in zip(candidates, self.cells)]
            seed_upsampled(cand)

        ncp_report = None
        if self.ncp is not None:
            with self.timers.scope("COL"):
                mobilities = [op.apply for op in self._self_ops]
                newpos, ncp_report = self.ncp.project(
                    self.cells, candidates, mobilities, dt, surfaces=cand)
        else:
            newpos = candidates

        with self.timers.scope("Other"):
            # adopt_caches is refused by the cells NCP moved; those get a
            # full self-op refresh and fresh factors.
            force: list[Optional[bool]] = [None] * len(self.cells)
            for i, (cell, X, s) in enumerate(zip(self.cells, newpos, cand)):
                cell.set_positions(X)
                if not cell.adopt_caches(s):
                    force[i] = True
            # The rest (moved cells, everyone's geometry) is seeded
            # stacked before the per-cell refresh tasks (self-op
            # reassembly, evaluator rebuilds) fan out over the executor.
            self.seed_caches()
            # Cells due a full block-circulant reassembly this step are
            # assembled as one stacked pass per same-order group; their
            # refresh tasks below consume the installed operators.
            due = [i for i, op in enumerate(self._self_ops)
                   if force[i] or op.due_full()]
            if len(due) > 1:
                self.batch.assemble_selfops(self._self_ops, due)
            self.executor.map(lambda i: self._refresh_after_step(i, force[i]),
                              range(len(self.cells)))
        return StepReport(t=t, dt=dt, bie_iterations=bie_iters,
                          implicit_iterations=impl_iters, ncp=ncp_report,
                          recycled=[], bie_converged=bie_conv,
                          bie_residual=bie_res,
                          implicit_converged=impl_conv,
                          tension_iterations=tension_iters,
                          tension_converged=tension_conv,
                          lu_singular=lu_singular,
                          backend_degraded_to=self.backend_degraded_to)
