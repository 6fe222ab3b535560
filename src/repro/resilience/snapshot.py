"""Pre-step snapshot and rollback of the mutable per-cell state.

The transactional step captures everything :meth:`repro.core.stepper.
TimeStepper.step` mutates, so a rejected step can be rolled back and
retried at a smaller ``dt``. Two kinds of state are captured:

- **Copies** of the arrays the step overwrites in place or reseeds:
  positions, spectral coefficients, tensions. Copies are taken so one
  snapshot survives multiple restore/retry cycles.
- **References** to the cached per-cell operator state: the
  ``_f_ext`` force cache, the factorized tension/implicit solvers and
  the self-interaction operator attributes. These are safe to hold by
  reference because the stepper *replaces* them (new arrays, new solver
  objects, new tuples) rather than mutating in place —
  ``SingularSelfInteraction._correct_matrix`` / ``_finalize_full``
  assign fresh arrays, and the solver caches are ``None``-ed and
  rebuilt. Restoring puts the original objects back.

The snapshot also records each cell's pre-step area and volume, which
the health sentinel's drift checks compare against.
"""
from __future__ import annotations

import dataclasses
from typing import List, Optional

#: the attributes of :class:`repro.vesicle.SingularSelfInteraction` that
#: together determine its behavior (operator matrix, reference
#: configuration of the geometric correction, refresh-cycle phase). All
#: array values are replaced — never mutated — by the refresh paths, so
#: reference snapshots suffice.
SELFOP_ATTRS = (
    "_matrix", "_ref_matrix", "_ref_area", "_ref_points", "_ref_weights",
    "_pending_install", "_since_full",
)


@dataclasses.dataclass
class StepSnapshot:
    """Rollback point of one :class:`~repro.core.stepper.TimeStepper`."""

    t: float
    positions: List
    coeffs: List
    sigmas: List
    f_ext: List
    tension_solvers: List
    impl_lu: List
    selfop_state: List
    areas: List[float]
    volumes: List[float]


def capture_state(stepper, t: float) -> StepSnapshot:
    """Snapshot every piece of state :meth:`TimeStepper.step` mutates."""
    cells = stepper.cells
    return StepSnapshot(
        t=float(t),
        positions=[c.X.copy() for c in cells],
        # coeffs() hits the cache seeded by the previous step (or the
        # constructor's operator assembly), so this is a copy, not an SHT.
        coeffs=[c.coeffs().copy() for c in cells],
        sigmas=[s.copy() for s in stepper.sigmas],
        f_ext=list(stepper._f_ext),
        tension_solvers=list(stepper._tension_solvers),
        impl_lu=list(stepper._impl_lu),
        selfop_state=[{a: getattr(op, a) for a in SELFOP_ATTRS}
                      for op in stepper._self_ops],
        areas=[c.area() for c in cells],
        volumes=[c.volume() for c in cells],
    )


def restore_state(stepper, snapshot: StepSnapshot) -> None:
    """Roll ``stepper`` back to ``snapshot``.

    Positions and coefficients are restored from fresh copies (the
    snapshot stays valid for further retries). ``set_positions`` clears
    every position-dependent cache; the coefficients come back from the
    snapshot (a recomputation would be bit-identical — the forward SHT
    is batch-invariant — the copy merely saves the transform), the rest
    is re-seeded by the stepper's stacked pass, and the interaction
    backend's per-cell evaluators are refreshed so no stepped geometry
    survives in a cache.
    """
    for i, c in enumerate(stepper.cells):
        c.set_positions(snapshot.positions[i])
        c.seed_coeffs(snapshot.coeffs[i].copy())
    stepper.seed_caches()
    stepper.sigmas = [s.copy() for s in snapshot.sigmas]
    stepper._f_ext = list(snapshot.f_ext)
    stepper._tension_solvers = list(snapshot.tension_solvers)
    stepper._impl_lu = list(snapshot.impl_lu)
    for op, state in zip(stepper._self_ops, snapshot.selfop_state):
        for attr, value in state.items():
            setattr(op, attr, value)
    for i in range(len(stepper.cells)):
        stepper.backend.refresh(i)
