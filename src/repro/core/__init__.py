"""The simulation platform (paper Sec. 2.2, "Algorithm summary").

:class:`Simulation` couples all subsystems: spectral RBCs with composable
:class:`~repro.physics.terms.ForceTerm` physics, the boundary solver for
the vessel, the pluggable cell-cell interaction backend (steps 1a-1e),
the locally-implicit per-cell update (step 2), and the contact
projection (NCP). :class:`Scenario` / :class:`ScenarioBuilder` are the
fluent front door. :class:`ComponentTimers` accumulates wall-times in
the categories of the paper's per-step breakdown (COL, BIE-solve,
BIE-FMM, Other-FMM, Other).

Per-cell stages run through the :class:`CellBatch` structure-of-arrays
layer (same-order cells share stacked GEMMs) on the executor selected by
``NumericsOptions.executor`` (see :mod:`repro.runtime.executor`).
"""
from .timers import ComponentTimers
from .cellbatch import CellBatch
from .interactions import (BACKENDS, DirectBackend, InteractionBackend,
                           make_backend, register_backend)
from .stepper import TimeStepper, StepReport
from .simulation import Simulation
from .scenario import Scenario, ScenarioBuilder

__all__ = [
    "ComponentTimers",
    "CellBatch",
    "TimeStepper",
    "StepReport",
    "Simulation",
    "Scenario",
    "ScenarioBuilder",
    "InteractionBackend",
    "DirectBackend",
    "BACKENDS",
    "make_backend",
    "register_backend",
]
