"""Fluent scenario construction: the front door of the public API.

A scenario is everything a run needs — a :class:`~repro.config.ReproConfig`,
cells (given explicitly and/or grown by the paper's filling algorithm), an
optional vessel with boundary data, a recycler, and the interaction
backend. :class:`ScenarioBuilder` assembles those pieces fluently::

    from repro import Scenario, presets
    from repro.physics.terms import Gravity

    sim = (Scenario.builder()
           .config(presets.sedimentation())
           .vessel(container)
           .fill(signed_distance=sd, bounds=(lo, hi), spacing=1.3)
           .force(Gravity(2.0))
           .backend("fmm")
           .build())
    sim.run(10)
"""
from __future__ import annotations

import dataclasses
from typing import Optional, Sequence, Union

import numpy as np

from ..config import ReproConfig
from ..physics.terms import ForceTerm
from ..surfaces import SpectralSurface
from ..vessel.filling import fill_with_rbcs
from ..vessel.recycling import OutletRecycler
from .interactions import InteractionBackend
from .simulation import Simulation


class ScenarioBuilder:
    """Accumulates scenario pieces; ``build()`` returns a ready
    :class:`~repro.core.Simulation`. Every method returns ``self``."""

    def __init__(self) -> None:
        self._config: Optional[ReproConfig] = None
        self._cells: list[SpectralSurface] = []
        self._vessel = None
        self._bc: Optional[np.ndarray] = None
        self._recycler: Optional[OutletRecycler] = None
        self._backend: Optional[InteractionBackend] = None
        self._backend_name: Optional[str] = None
        self._backend_options: dict = {}
        self._extra_forces: list[ForceTerm] = []
        self._fill_spec: Optional[dict] = None

    # -- configuration -------------------------------------------------------
    def config(self, cfg: ReproConfig) -> "ScenarioBuilder":
        """Base configuration (typically a :mod:`repro.presets` instance).

        The builder works on a copy, so presets are never mutated.
        """
        self._config = dataclasses.replace(cfg, forces=list(cfg.forces))
        return self

    def force(self, term: ForceTerm) -> "ScenarioBuilder":
        """Append a force term to the configuration's list."""
        self._extra_forces.append(term)
        return self

    def backend(self, backend: Union[str, InteractionBackend],
                **options) -> "ScenarioBuilder":
        """Select the interaction backend by registry name (with options)
        or as a pre-built instance."""
        if isinstance(backend, InteractionBackend):
            if options:
                raise ValueError("options only apply to a backend name")
            self._backend = backend
            self._backend_name = None
            self._backend_options = {}
        else:
            self._backend_name = backend
            self._backend_options = dict(options)
            self._backend = None
        return self

    # -- geometry ------------------------------------------------------------
    def cells(self, cells: Sequence[SpectralSurface]) -> "ScenarioBuilder":
        self._cells.extend(cells)
        return self

    def cell(self, cell: SpectralSurface) -> "ScenarioBuilder":
        self._cells.append(cell)
        return self

    def vessel(self, surface, bc: Optional[np.ndarray] = None
               ) -> "ScenarioBuilder":
        """Confine the flow to a patch surface, optionally with Dirichlet
        data at its coarse nodes."""
        self._vessel = surface
        if bc is not None:
            self._bc = np.asarray(bc, float)
        return self

    def boundary_condition(self, bc: np.ndarray) -> "ScenarioBuilder":
        self._bc = np.asarray(bc, float)
        return self

    def recycler(self, rec: OutletRecycler) -> "ScenarioBuilder":
        self._recycler = rec
        return self

    def fill(self, signed_distance, bounds, spacing: float = 1.5,
             volume_fraction: Optional[float] = None,
             lumen_volume: Optional[float] = None,
             max_attempts: int = 5, **kwargs) -> "ScenarioBuilder":
        """Grow RBCs into the domain with the paper's filling algorithm
        (Sec. 5.1).

        ``volume_fraction`` optionally targets a packing fraction by
        shrinking the sampling spacing over up to ``max_attempts``
        fills; ``lumen_volume`` defaults to the vessel's volume.
        """
        self._fill_spec = dict(signed_distance=signed_distance,
                               bounds=bounds, spacing=float(spacing),
                               volume_fraction=volume_fraction,
                               lumen_volume=lumen_volume,
                               max_attempts=int(max_attempts),
                               kwargs=kwargs)
        return self

    # -- assembly ------------------------------------------------------------
    def _run_fill(self) -> list[SpectralSurface]:
        spec = self._fill_spec
        lumen = spec["lumen_volume"]
        if lumen is None:
            if self._vessel is None:
                raise ValueError("fill() needs lumen_volume without a vessel")
            lumen = self._vessel.volume()
        target = spec["volume_fraction"]
        spacing = spec["spacing"]
        fill = fill_with_rbcs(spec["signed_distance"], spec["bounds"],
                              spacing=spacing, lumen_volume=lumen,
                              **spec["kwargs"])
        if target is not None:
            for _ in range(spec["max_attempts"] - 1):
                if fill.volume_fraction >= target:
                    break
                # Cell count scales like spacing^-3; shrink toward target.
                ratio = max(fill.volume_fraction, 1e-3) / target
                spacing *= max(ratio ** (1.0 / 3.0), 0.6)
                fill = fill_with_rbcs(spec["signed_distance"], spec["bounds"],
                                      spacing=spacing, lumen_volume=lumen,
                                      **spec["kwargs"])
        return list(fill.cells)

    def build(self) -> Simulation:
        """Validate and assemble the :class:`Simulation`."""
        cfg = self._config or ReproConfig()
        if self._extra_forces:
            cfg = dataclasses.replace(
                cfg, forces=[*cfg.forces, *self._extra_forces])
        if self._backend_name is not None:
            cfg = dataclasses.replace(cfg, backend=self._backend_name,
                                      backend_options=self._backend_options)
        # (a pre-built backend instance is recorded into the config by
        # Simulation itself, so both public entry points archive
        # faithfully)
        cells = list(self._cells)
        if self._fill_spec is not None:
            cells.extend(self._run_fill())
        if not cells:
            raise ValueError("scenario has no cells; call cells()/cell()/"
                             "fill() before build()")
        if self._bc is not None and self._vessel is None:
            raise ValueError("boundary data given but no vessel; call "
                             "vessel() first")
        return Simulation(cells, vessel=self._vessel, boundary_bc=self._bc,
                          config=cfg, recycler=self._recycler,
                          backend=self._backend)


class Scenario:
    """Entry point of the fluent API: ``Scenario.builder()``."""

    @staticmethod
    def builder() -> ScenarioBuilder:
        return ScenarioBuilder()
