"""Correctness tooling: shared-table guards and fault injection.

- :mod:`repro.analysis.guard` — the shared read-only table registry,
  the runtime half of the executor determinism contract whose static
  half is ``tools/repro_lint``: ``freeze`` marks cached numpy tables
  immutable and registers them so the ``"checked"`` executor can hold
  every shared table non-writeable for the duration of each ``map``.
- :mod:`repro.analysis.faultinject` — deterministic fault injection
  (NaN poisoning, forced non-convergence, task crashes) for driving the
  recovery paths of :mod:`repro.resilience` in tests and CI.
"""
from .faultinject import (InjectedFault, force_nonconvergence,
                          force_unresolved_contact, inject_nan,
                          raise_in_task)
from .guard import (DeterminismError, freeze, freeze_attributes,
                    iter_shared_arrays, register_shared, tables_frozen)

__all__ = [
    "DeterminismError", "freeze", "freeze_attributes",
    "iter_shared_arrays", "register_shared", "tables_frozen",
    "InjectedFault", "inject_nan", "force_nonconvergence",
    "force_unresolved_contact", "raise_in_task",
]
