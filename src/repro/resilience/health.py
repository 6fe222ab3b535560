"""The health sentinel: cheap per-step validation of the stepped state.

Long-horizon contact-rich runs are exactly the regime where a single bad
step — a non-converged contact solve, a near-singular quadrature
blow-up, a NaN from a degenerate close pair — corrupts the trajectory
silently. The sentinel folds the already-computed solver diagnostics
(GMRES ``converged`` flags, LCP/NCP residuals, singular LU slices) and
two cheap state invariants (finiteness, per-cell area/volume drift
against the pre-step snapshot) into one structured :class:`StepHealth`
verdict. Every input is either already on the :class:`~repro.core.stepper.
StepReport` or a cached surface quantity the next step computes anyway,
so the sentinel adds no appreciable per-step cost (gated at <3% by
``benchmarks/bench_step_breakdown.py``).

Which findings *reject* a step is policy, not physics, and lives in
:class:`repro.config.ResilienceOptions`. Two findings are deliberately
record-only: BIE non-convergence (the paper caps the boundary GMRES at
30 iterations by design, so hitting the cap is the expected steady-state
behavior, not a fault) and singular LU slices (already degraded
gracefully to the GMRES fallback by :mod:`repro.linalg.dense`). The
sentinel says nothing about either; :meth:`TimeStepper.step
<repro.core.stepper.TimeStepper.step>`, which sees them with or without a
sentinel, is the one place that logs each once per run.

This module imports nothing from :mod:`repro.core` so the stepper can
import :class:`WarnOnceRegistry` without a cycle.
"""
from __future__ import annotations

import dataclasses
import itertools
import logging
import threading
from typing import List

import numpy as np

_log = logging.getLogger(__name__)


class WarnOnceRegistry:
    """Per-run once-only warning registry.

    Each :class:`~repro.core.stepper.TimeStepper` owns one, so recurring
    per-step conditions (a capped BIE solve, a degraded backend) are
    logged exactly once *per simulation* — not once per process: with a
    process-global registry the first simulation to hit "BIE capped"
    would silence that warning for every other simulation sharing the
    interpreter (a sweep runs many).

    Keys carry run identity: every instance gets a process-unique
    ``run_id`` (stamped into the logged message), and the seen-set is
    per-instance, so two concurrent simulations never suppress each
    other's findings. The registry is lock-guarded because refresh tasks
    may run on the thread pool.
    """

    _ids = itertools.count(1)

    def __init__(self, run_id: "str | None" = None):
        self.run_id = run_id if run_id is not None \
            else f"run-{next(WarnOnceRegistry._ids)}"
        self._seen: set = set()
        self._lock = threading.Lock()

    def warn_once(self, key: str, message: str) -> bool:
        """Emit ``message`` through :mod:`logging` the first time ``key``
        is seen *by this registry*; later calls with the same key are
        silent. Returns whether the warning fired."""
        full_key = (self.run_id, key)
        with self._lock:
            if full_key in self._seen:
                return False
            self._seen.add(full_key)
        _log.warning("[%s] %s", self.run_id, message)
        return True

    def reset(self) -> None:
        """Forget every key this registry has seen."""
        with self._lock:
            self._seen.clear()


class StepRejectedError(RuntimeError):
    """A step failed its health checks and the retry budget (or the dt
    floor) is exhausted; the simulation state has been rolled back to
    the last accepted step. ``health`` carries the final
    :class:`StepHealth` verdict when the failure was a sentinel
    rejection (``None`` when the step raised instead)."""

    def __init__(self, message: str, health: "StepHealth | None" = None):
        super().__init__(message)
        self.health = health


@dataclasses.dataclass
class StepHealth:
    """Structured verdict of one step's sentinel evaluation."""

    #: overall verdict; ``bool(health)`` mirrors it.
    healthy: bool
    #: human-readable reason per failed check (empty when healthy).
    failures: List[str]
    #: cells whose positions or tensions contain non-finite values.
    nonfinite_cells: List[int]
    #: worst relative surface-area drift across cells within the step.
    area_drift: float
    #: worst relative enclosed-volume drift across cells within the step.
    volume_drift: float

    def __bool__(self) -> bool:
        return self.healthy


class HealthSentinel:
    """Evaluates a stepped simulation state against a
    :class:`repro.config.ResilienceOptions` policy."""

    def __init__(self, policy):
        self.policy = policy

    def evaluate(self, stepper, report, snapshot) -> StepHealth:
        """Validate the post-step state of ``stepper`` against the
        pre-step ``snapshot``; ``report`` supplies the solver flags the
        step already computed. Pure observation — never mutates the
        simulation."""
        pol = self.policy
        failures: List[str] = []
        nonfinite: List[int] = []
        for i, c in enumerate(stepper.cells):
            if not np.isfinite(c.X).all():
                nonfinite.append(i)
        for i, s in enumerate(stepper.sigmas):
            if i not in nonfinite and not np.isfinite(s).all():
                nonfinite.append(i)
        nonfinite.sort()
        if nonfinite:
            failures.append(f"non-finite positions/tensions on cells "
                            f"{nonfinite}")

        area_drift = 0.0
        volume_drift = 0.0
        if not nonfinite:
            # area()/volume() read the cached surface geometry the next
            # step needs anyway, so this only front-loads that work.
            for i, c in enumerate(stepper.cells):
                a0, v0 = snapshot.areas[i], snapshot.volumes[i]
                if a0 > 0.0:
                    area_drift = max(area_drift, abs(c.area() / a0 - 1.0))
                if v0 != 0.0:
                    volume_drift = max(volume_drift,
                                       abs(c.volume() / v0 - 1.0))
            if area_drift > pol.max_area_drift:
                failures.append(
                    f"surface area drifted {area_drift:.3g} in one step "
                    f"(bound {pol.max_area_drift:.3g})")
            if volume_drift > pol.max_volume_drift:
                failures.append(
                    f"enclosed volume drifted {volume_drift:.3g} in one "
                    f"step (bound {pol.max_volume_drift:.3g})")

        if pol.reject_nonconverged_implicit:
            bad = [i for i, ok in enumerate(report.implicit_converged)
                   if not ok]
            if bad:
                failures.append(f"implicit solve non-converged on cells "
                                f"{bad}")
            if not report.tension_converged:
                failures.append("tension solve non-converged")
        if (pol.reject_unresolved_contact and report.ncp is not None
                and not (report.ncp.resolved and report.ncp.lcp_converged)):
            failures.append(
                "contact projection unresolved (penetration "
                f"{report.ncp.max_penetration_after:.3g} after "
                f"{report.ncp.lcp_solves} LCP solves, lcp_converged="
                f"{report.ncp.lcp_converged})")

        return StepHealth(healthy=not failures, failures=failures,
                          nonfinite_cells=nonfinite,
                          area_drift=float(area_drift),
                          volume_drift=float(volume_drift))
