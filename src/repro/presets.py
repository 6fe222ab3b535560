"""Named, serializable configurations for the paper's scenario family.

Each function returns a fresh :class:`~repro.config.ReproConfig` wired
with the force terms and numerics of one experiment from the paper
(conf_sc_LuMRSZ19); tweak via keyword arguments or
``dataclasses.replace``. All presets round-trip through JSON::

    cfg = presets.sedimentation()
    assert ReproConfig.from_json(cfg.to_json()) == cfg
"""
from __future__ import annotations

from .config import NumericsOptions, ReproConfig
from .physics.terms import Bending, Gravity, ShearFlow


def _light_numerics(**overrides) -> NumericsOptions:
    """Scaled-down numerics used by the runnable mini-experiments."""
    base = dict(patch_quad=7, check_order=4, upsample_eta=1,
                check_r_factor=0.25, gmres_max_iter=20)
    base.update(overrides)
    return NumericsOptions(**base)


def sedimentation(delta_rho: float = 1.5, dt: float = 0.08,
                  bending_modulus: float = 0.02) -> ReproConfig:
    """Gravity-driven settling in a closed container (paper Fig. 7)."""
    return ReproConfig(
        dt=dt,
        forces=[Bending(bending_modulus),
                Gravity(delta_rho, (0.0, 0.0, -1.0))],
        with_collisions=True,
        numerics=_light_numerics(gmres_max_iter=10))


def shear(rate: float = 1.0, dt: float = 0.1,
          bending_modulus: float = 0.02) -> ReproConfig:
    """Cells overtaking each other in linear shear flow (paper Figs. 10/11).

    Free-space scenario: numerics stay at the library defaults so the
    temporal-convergence benchmark keeps its committed baseline fidelity.
    """
    return ReproConfig(
        dt=dt,
        forces=[Bending(bending_modulus), ShearFlow(rate)],
        with_collisions=True,
        numerics=NumericsOptions())


def vessel_flow(dt: float = 0.05, bending_modulus: float = 0.02
                ) -> ReproConfig:
    """Pressure-driven flow of a filled vessel (paper Fig. 1 runs)."""
    return ReproConfig(
        dt=dt,
        forces=[Bending(bending_modulus)],
        with_collisions=True,
        numerics=_light_numerics())


def relaxation(dt: float = 0.05, bending_modulus: float = 0.05
               ) -> ReproConfig:
    """A single cell relaxing in quiescent fluid (the quickstart).

    Free-space scenario: numerics stay at the library defaults.
    """
    return ReproConfig(
        dt=dt,
        forces=[Bending(bending_modulus)],
        with_collisions=False,
        numerics=NumericsOptions())


# repro-lint: disable=global-mutable — name->factory table written once here at import time, read-only afterwards
ALL = {
    "sedimentation": sedimentation,
    "shear": shear,
    "vessel_flow": vessel_flow,
    "relaxation": relaxation,
}
