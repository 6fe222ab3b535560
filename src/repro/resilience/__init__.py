"""Resilience layer: health sentinel, transactional stepping, checkpoints.

Long contact-rich runs (the paper's regime: thousands of steps, dozens
of cells) fail in practice through a handful of well-understood modes —
a non-converged contact projection, a fast-summation blow-up, a
degenerate quadrature producing NaNs — and a single corrupted step
silently poisons everything after it. This package makes
:meth:`repro.core.simulation.Simulation.step` transactional:

- :mod:`~repro.resilience.health` folds the solver diagnostics the step
  already computes into one structured :class:`StepHealth` verdict;
- :mod:`~repro.resilience.snapshot` captures/restores the mutable
  per-cell state so a rejected step rolls back bit-exactly;
- :mod:`~repro.resilience.checkpoint` persists a mid-run state to disk
  and resumes it bit-identically.

Policy (what rejects a step, how many dt-halved retries, the backend
degradation chain) lives in :class:`repro.config.ResilienceOptions`.
"""
from .health import (HealthSentinel, StepHealth, StepRejectedError,
                     WarnOnceRegistry)
from .snapshot import StepSnapshot, capture_state, restore_state
from .checkpoint import (CHECKPOINT_VERSION, load_checkpoint,
                         save_checkpoint)

__all__ = [
    "HealthSentinel", "StepHealth", "StepRejectedError",
    "WarnOnceRegistry",
    "StepSnapshot", "capture_state", "restore_state",
    "CHECKPOINT_VERSION", "save_checkpoint", "load_checkpoint",
]
