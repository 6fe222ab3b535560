"""repro — boundary-integral simulation of red blood cell flows through
vascular networks.

A from-scratch Python reproduction of "Scalable Simulation of Realistic
Volume Fraction Red Blood Cell Flows through Vascular Networks" (Lu,
Morse, Rahimian, Stadler, Zorin — SC '19).

Public API highlights
---------------------
- :class:`repro.Scenario` / :class:`repro.ScenarioBuilder` — the fluent
  front door: ``Scenario.builder().config(presets.shear()).cells([...])
  .backend("fmm").build()`` returns a ready simulation.
- :class:`repro.ReproConfig` — the single serializable configuration
  (time step, fluid, force terms, backend, numerics); validates on
  construction and round-trips through ``to_dict``/``from_dict``/JSON.
- :mod:`repro.presets` — named configs for the paper's scenarios
  (``sedimentation``, ``shear``, ``vessel_flow``, ``relaxation``).
- :mod:`repro.physics.terms` — composable force terms (``Bending``,
  ``Tension``, ``Gravity``, ``ShearFlow``, ``BackgroundFlow``) plus a
  registry for user-defined ones.
- :mod:`repro.core.interactions` — pluggable cell-cell interaction
  backends: ``"direct"`` (exact pairwise) and ``"fmm"`` (one global
  kernel-independent FMM through :mod:`repro.fmm`).
- :class:`repro.core.Simulation` — the simulation platform the builder
  assembles.
- :mod:`repro.resilience` — transactional stepping (health sentinel,
  rollback + dt-halved retries, backend degradation) and bit-identical
  checkpoint/restart (``save_checkpoint`` / ``load_checkpoint``);
  policy in :class:`repro.ResilienceOptions`.
- :class:`repro.bie.BoundarySolver` — the boundary solver (paper
  Sec. 3).
- :class:`repro.collision.NCPSolver` — contact-free time stepping
  (paper Sec. 4).
- :mod:`repro.vessel` — vascular geometry, boundary conditions, the RBC
  filling algorithm.

The paper's Stampede2 scaling runs (Figs. 4-6) are not reproduced: a
single host cannot exhibit them, and nothing here models them.
"""
from . import config
from .config import NumericsOptions, ReproConfig, ResilienceOptions
from . import presets
from .core import Scenario, ScenarioBuilder, Simulation
from .resilience import (StepRejectedError, load_checkpoint,
                         save_checkpoint)

__version__ = "1.2.0"

__all__ = [
    "config",
    "presets",
    "NumericsOptions",
    "ReproConfig",
    "ResilienceOptions",
    "Scenario",
    "ScenarioBuilder",
    "Simulation",
    "StepRejectedError",
    "save_checkpoint",
    "load_checkpoint",
    "__version__",
]
