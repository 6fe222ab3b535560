"""Global configuration and numerical policy for the repro package.

All floating point work is done in float64. Tolerances collected here are the
single source of truth used across modules so that tests, benchmarks and the
library agree on what "converged" and "touching" mean.

:class:`ReproConfig` is the single serializable configuration of a
simulation: time step, fluid, composable force terms, interaction
backend, collision handling and the :class:`NumericsOptions` bundle. It
validates on construction and round-trips through ``to_dict`` /
``from_dict`` / JSON; :mod:`repro.presets` ships named instances for the
paper's scenarios.
"""
from __future__ import annotations

import dataclasses
import json

#: Working dtype for all geometry / density / velocity arrays.
DTYPE = "float64"

#: Machine-epsilon-scale guard used when normalising vectors.
EPS = 1e-14

#: Default fluid viscosity (paper uses unit viscosity with no contrast).
DEFAULT_VISCOSITY = 1.0

#: Default spherical harmonic order for RBC surfaces. Order 8 gives the
#: paper's 544-point discretization: (p+1) Gauss-Legendre colatitudes times
#: (2p+2) uniform longitudes = 9 * 18 = 162 for p=8 on our grid; the paper's
#: 544 corresponds to p=16 (17*34=578) with pole handling. We default to 8
#: for speed and expose the order everywhere.
DEFAULT_SPH_ORDER = 8

#: Default per-patch quadrature size (paper: 8th-order patches, 11x11
#: Clenshaw-Curtis quadrature points per patch -> q = 10 panel order).
DEFAULT_PATCH_QUAD = 11

#: Near-singular evaluation defaults (paper Sec. 5.1): p+1 check points at
#: distances R + i*r along the inward normal with R = r = 0.15 L for strong
#: scaling runs, 0.1 L for weak scaling runs.
DEFAULT_CHECK_ORDER = 8
DEFAULT_CHECK_R_FACTOR = 0.15
DEFAULT_UPSAMPLE_ETA = 1

#: GMRES policy: the paper caps iterations at 30 to emulate typical
#: steady-state time-step work.
GMRES_MAX_ITER = 30
GMRES_TOL = 1e-10

#: Collision handling: maximum LCP linearizations per NCP solve (paper: ~7).
NCP_MAX_LCP = 7

#: Contact activation distance, as a fraction of local mesh edge length.
CONTACT_EPS_FACTOR = 0.5

#: Executors one scene may step on (keys of
#: :data:`repro.runtime.executor.EXECUTORS`; ``"process"`` is for sweeps).
_SCENE_EXECUTORS = ("serial", "thread", "checked")


@dataclasses.dataclass
class NumericsOptions:
    """Bundle of numerical parameters threaded through the simulation.

    Attributes mirror the symbols used in the paper: ``patch_quad`` is the
    per-patch Clenshaw-Curtis rule size, ``check_order`` the extrapolation
    order ``p`` of the singular quadrature scheme, ``upsample_eta`` the
    fine-grid subdivision depth (each coarse patch splits into ``4**eta``
    subpatches), and ``check_r_factor`` the check point spacing
    ``R = r = factor * L``.
    """

    patch_quad: int = DEFAULT_PATCH_QUAD
    check_order: int = DEFAULT_CHECK_ORDER
    check_r_factor: float = DEFAULT_CHECK_R_FACTOR
    upsample_eta: int = DEFAULT_UPSAMPLE_ETA
    gmres_max_iter: int = GMRES_MAX_ITER
    gmres_tol: float = GMRES_TOL
    ncp_max_lcp: int = NCP_MAX_LCP
    #: Full singular self-interaction reassembly every ``k`` refreshes; the
    #: intermediate ``k - 1`` refreshes apply a first-order geometric
    #: correction (exact for rigid translation and uniform dilation) to the
    #: last assembled operator. ``1`` (the default) reassembles every step,
    #: i.e. the exact per-step behavior. The stepper runs the full
    #: reassemblies of same-order cell groups as one *stacked* assembly
    #: (``CellBatch.assemble_selfops``).
    selfop_refresh_interval: int = 1
    #: Executor of the per-cell stage pipeline: ``"serial"`` (the
    #: default) runs every per-cell task in order on the calling thread;
    #: ``"thread"`` maps them over a pool of ``workers`` threads;
    #: ``"checked"`` wraps serial (``workers=1``) or the thread pool with
    #: the runtime determinism checks (frozen shared tables + sampled
    #: bit-identical task reruns). The per-cell tasks touch disjoint
    #: state and results are always gathered by cell index, so every
    #: executor is bit-identical to serial.
    #:
    #: This knob parallelizes *within* one scene. For many independent
    #: scenes (parameter sweeps), parallelize *across* scenes instead —
    #: :class:`repro.sweep.SweepRunner` with ``executor="process"`` maps
    #: whole scene jobs over a process pool, with each scene's own
    #: executor left ``"serial"``. ``"process"`` is rejected here: within
    #: one scene it would run every stage inline behind an idle pool.
    executor: str = "serial"
    #: Worker count of the ``"thread"``/``"checked"`` executors (ignored
    #: by ``"serial"``). ``workers=1`` still runs tasks on a pool but
    #: produces the same results as the serial executor. ``"auto"`` is
    #: ``min(cpu_count, ncells)`` (resolved in
    #: :func:`repro.runtime.executor.resolve_workers`).
    #:
    #: Measured on a 2-vCPU host with BLAS pinned to one thread
    #: (median ms/step over six fresh-process runs each): ``"thread"`` with
    #: two workers vs ``"serial"`` is 174 vs 222 on the 6-cell order-8
    #: ``direct`` scene and 421 vs 445 on the 64-cell order-4 ``fmm``
    #: lattice. Two worker processes sharding the cell-cell sum measured
    #: 222 and 511 on the same scenes — why ``"process"`` is left to
    #: :class:`~repro.sweep.SweepRunner`, where two processes ran 14.5
    #: vs 8.7 jobs/s.
    workers: "int | str" = 1


@dataclasses.dataclass
class ResilienceOptions:
    """Policy knobs of the transactional stepping layer
    (:mod:`repro.resilience`).

    With ``enabled`` (the default) every :meth:`repro.core.Simulation.step`
    snapshots the mutable per-cell state, validates the stepped state with
    the health sentinel (finite coefficients/velocities, per-cell
    area/volume drift against the pre-step geometry, the solver
    convergence flags), and on a failed check rolls back and retries the
    step at half the time step — sub-stepping back onto the nominal time
    grid, so accepted trajectories always live on multiples of
    ``ReproConfig.dt``. Healthy steps are bit-identical to stepping with
    the layer disabled.
    """

    #: run the health sentinel and reject-and-retry loop around every
    #: step. ``False`` restores the raw, non-transactional stepping.
    enabled: bool = True
    #: retry budget per *nominal* step: how many times the layer may
    #: halve ``dt`` before giving up and raising ``StepRejectedError``.
    max_retries: int = 4
    #: smallest allowed sub-step, as a fraction of the nominal ``dt``
    #: (retries stop when halving would cross below
    #: ``dt_floor_factor * dt``, independent of the retry budget).
    dt_floor_factor: float = 1e-3
    #: reject a step when any cell's surface area drifts by more than
    #: this relative fraction within the step (membranes are
    #: inextensible; large one-step drift flags a corrupted solve).
    max_area_drift: float = 0.05
    #: reject a step when any cell's enclosed volume drifts by more than
    #: this relative fraction within the step.
    max_volume_drift: float = 0.05
    #: treat a non-converged implicit GMRES fallback solve as a health
    #: failure (the direct LU path always reports converged).
    reject_nonconverged_implicit: bool = True
    #: treat an exhausted contact projection (the NCP loop ran out of
    #: LCP linearizations with penetrating volume left, or an inner LCP
    #: failed to converge) as a health failure.
    reject_unresolved_contact: bool = True
    #: on non-finite cell-cell output from a fast summation backend,
    #: permanently degrade the simulation to the next backend of
    #: ``degradation_order`` instead of rejecting the step outright.
    backend_degradation: bool = True
    #: accuracy-ordered backend chain the degradation walks: when the
    #: active backend emits non-finite velocities, the next entry to its
    #: right is bound in its place (the last entry — the exact pairwise
    #: ``"direct"`` sum — has nowhere to fall back to, so a non-finite
    #: direct result goes down the dt-retry path instead).
    degradation_order: tuple = ("fmm", "direct")

    @classmethod
    def from_dict(cls, d: dict) -> "ResilienceOptions":
        """Build from a dict, ignoring unknown keys (forward
        compatibility: configs saved by newer versions with extra policy
        knobs still load) and normalizing ``degradation_order`` back to
        a tuple after a JSON round-trip."""
        known = {f.name for f in dataclasses.fields(cls)}
        kw = {k: v for k, v in d.items() if k in known}
        if "degradation_order" in kw:
            kw["degradation_order"] = tuple(kw["degradation_order"])
        return cls(**kw)


def _default_forces() -> list:
    from .physics.terms import Bending
    return [Bending()]


@dataclasses.dataclass
class ReproConfig:
    """Unified, serializable configuration of a blood-flow simulation.

    Physics composes through ``forces`` (a list of
    :class:`repro.physics.terms.ForceTerm`), the cell-cell summation
    strategy is chosen by ``backend`` (a key of
    :data:`repro.core.interactions.BACKENDS`), all numerical
    tolerances live in the nested ``numerics`` bundle, and the
    transactional-stepping policy (retry budget, dt floor, backend
    degradation order) in the nested ``resilience`` bundle. Instances
    validate on construction and round-trip losslessly through
    :meth:`to_dict` / :meth:`from_dict` (and JSON) provided every force
    term is serializable.

    That serializability is also what makes a config the unit of a
    *sweep*: a :class:`repro.sweep.SceneJob` is one config plus initial
    cell state and a duration, and :class:`repro.sweep.SweepRunner`
    maps N such jobs over the executor registry with failure isolation
    and whole-sweep kill/resume (see "Running sweeps" in
    ``examples/quickstart.py``).
    """

    dt: float = 0.05
    viscosity: float = DEFAULT_VISCOSITY
    forces: list = dataclasses.field(default_factory=_default_forces)
    #: Cell-cell summation strategy (a key of
    #: :data:`repro.core.interactions.BACKENDS`). Guidance by scene
    #: size (see ``examples/quickstart.py`` for measured numbers):
    #: ``"direct"`` — exact O(ncell^2) pairwise sums; the reference,
    #: fastest below ~16 cells. ``"fmm"`` — one global octree with the
    #: full two-pass kernel-independent FMM, O(N); overtakes direct
    #: around 16 cells and is ~5x faster at 64 cells (rel error vs
    #: direct ~3e-5 at defaults, tunable via ``equiv_points_per_edge``).
    backend: str = "direct"
    #: Constructor keywords for the chosen backend (e.g.
    #: ``equiv_points_per_edge``, ``max_leaf`` for ``"fmm"``) — see the
    #: backend classes in :mod:`repro.core.interactions` for the full
    #: knob list.
    backend_options: dict = dataclasses.field(default_factory=dict)
    with_collisions: bool = True
    collision_points_per_patch_edge: int = 12
    numerics: NumericsOptions = dataclasses.field(
        default_factory=NumericsOptions)
    #: transactional-stepping policy (health sentinel, retry budget, dt
    #: floor, backend degradation order); see :class:`ResilienceOptions`.
    resilience: ResilienceOptions = dataclasses.field(
        default_factory=ResilienceOptions)

    def __post_init__(self) -> None:
        self.validate()

    # -- validation ---------------------------------------------------------
    def validate(self) -> None:
        """Raise ``ValueError`` listing every invalid field."""
        from .core.interactions import BACKENDS
        from .physics.terms import ForceTerm

        errors = []
        if not self.dt >= 0:
            errors.append(f"dt must be non-negative, got {self.dt}")
        if not self.viscosity > 0:
            errors.append(f"viscosity must be positive, got {self.viscosity}")
        if self.backend not in BACKENDS:
            errors.append(f"unknown backend {self.backend!r}; "
                          f"registered: {sorted(BACKENDS)}")
        for t in self.forces:
            if not isinstance(t, ForceTerm):
                errors.append(f"forces entries must be ForceTerm, got {t!r}")
        # Bending and Tension are singletons: the implicit operator and
        # the tension solve consult exactly one instance, so duplicates
        # would silently split the physics between code paths.
        from .physics.terms import Bending, Tension
        for singleton in (Bending, Tension):
            n_dup = sum(isinstance(t, singleton) for t in self.forces)
            if n_dup > 1:
                errors.append(f"at most one {singleton.__name__} term is "
                              f"allowed, got {n_dup}")
        if self.collision_points_per_patch_edge < 2:
            errors.append("collision_points_per_patch_edge must be >= 2")
        n = self.numerics
        if not isinstance(n, NumericsOptions):
            errors.append(f"numerics must be NumericsOptions, got {n!r}")
        else:
            if n.patch_quad < 3:
                errors.append(f"patch_quad must be >= 3, got {n.patch_quad}")
            if n.check_order < 2:
                errors.append(f"check_order must be >= 2, got {n.check_order}")
            if not n.check_r_factor > 0:
                errors.append("check_r_factor must be positive")
            if n.upsample_eta < 0:
                errors.append("upsample_eta must be >= 0")
            if n.gmres_max_iter < 1:
                errors.append("gmres_max_iter must be >= 1")
            if not n.gmres_tol > 0:
                errors.append("gmres_tol must be positive")
            if n.ncp_max_lcp < 1:
                errors.append("ncp_max_lcp must be >= 1")
            if n.selfop_refresh_interval < 1:
                errors.append("selfop_refresh_interval must be >= 1, got "
                              f"{n.selfop_refresh_interval}")
            if n.executor == "process":
                errors.append(
                    "executor 'process' does not parallelize one scene; "
                    "run independent scenes through "
                    "SweepRunner(executor='process') instead")
            elif n.executor not in _SCENE_EXECUTORS:
                errors.append(f"unknown executor {n.executor!r}; "
                              f"choose from {sorted(_SCENE_EXECUTORS)}")
            if n.workers != "auto" and (
                    not isinstance(n.workers, int)
                    or isinstance(n.workers, bool) or n.workers < 1):
                errors.append("workers must be >= 1 or 'auto', got "
                              f"{n.workers!r}")
        r = self.resilience
        if not isinstance(r, ResilienceOptions):
            errors.append(f"resilience must be ResilienceOptions, got {r!r}")
        else:
            if r.max_retries < 0:
                errors.append(f"max_retries must be >= 0, got "
                              f"{r.max_retries}")
            if not 0 < r.dt_floor_factor <= 1:
                errors.append("dt_floor_factor must be in (0, 1], got "
                              f"{r.dt_floor_factor}")
            if not r.max_area_drift > 0:
                errors.append("max_area_drift must be positive")
            if not r.max_volume_drift > 0:
                errors.append("max_volume_drift must be positive")
            for name in r.degradation_order:
                if name not in BACKENDS:
                    errors.append(
                        f"unknown backend {name!r} in degradation_order; "
                        f"registered: {sorted(BACKENDS)}")
        if errors:
            raise ValueError("invalid ReproConfig: " + "; ".join(errors))

    # -- convenience --------------------------------------------------------
    @property
    def bending_modulus(self) -> float:
        """Modulus of the first bending term (0.0 when bending is absent)."""
        from .physics.terms import Bending
        for t in self.forces:
            if isinstance(t, Bending):
                return t.modulus
        return 0.0

    def with_force(self, term) -> "ReproConfig":
        """A copy of this config with ``term`` appended to ``forces``."""
        return dataclasses.replace(self, forces=[*self.forces, term])

    # -- serialization ------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "dt": self.dt,
            "viscosity": self.viscosity,
            "forces": [t.to_dict() for t in self.forces],
            "backend": self.backend,
            "backend_options": dict(self.backend_options),
            "with_collisions": self.with_collisions,
            "collision_points_per_patch_edge":
                self.collision_points_per_patch_edge,
            "numerics": dataclasses.asdict(self.numerics),
            "resilience": {
                **dataclasses.asdict(self.resilience),
                "degradation_order":
                    list(self.resilience.degradation_order),
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ReproConfig":
        from .physics.terms import force_term_from_dict
        d = dict(d)
        # Absent keys fall through to the constructor defaults, so a
        # partial dict behaves like the equivalent ReproConfig(...) call.
        if "forces" in d:
            d["forces"] = [force_term_from_dict(t) for t in d["forces"]]
        if "numerics" in d:
            # Retired or misspelt knobs are rejected by name, never
            # dropped: a config saved with a non-default value of a
            # retired knob must not load as something else.
            known = {f.name for f in dataclasses.fields(NumericsOptions)}
            unknown = sorted(set(d["numerics"]) - known)
            if unknown:
                raise ValueError("invalid ReproConfig: unknown numerics "
                                 f"option(s) {unknown}")
            d["numerics"] = NumericsOptions(**d["numerics"])
        if "resilience" in d:
            d["resilience"] = ResilienceOptions.from_dict(d["resilience"])
        return cls(**d)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ReproConfig":
        return cls.from_dict(json.loads(text))
