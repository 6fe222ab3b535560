"""Process-wide warm-up of the geometry-independent shared tables.

Every expensive cached table in the library is keyed by spherical-
harmonic order alone (grids, SH transform tables, quadrature rules,
rotation/circulant bundles, dense grid-operator matrices) — nothing in
them depends on a scene's geometry. A sweep that runs many scenes per
process therefore wants those tables built exactly once, *before* the
first job: on a fork-based process pool, tables warmed in the parent are
shared copy-on-write by every worker for free; on any executor, the
first job of each worker otherwise pays seconds of table assembly that
every later job then skips.

:func:`warm_caches` is that warm-up: given the set of orders a batch of
scenes will use, it touches every per-order factory a simulation of
that order touches at step time. It is idempotent (every factory is a
build-locked ``lru_cache`` per the policy in
:mod:`repro.analysis.guard`) and safe to call concurrently.
"""
from __future__ import annotations

import math
from typing import Iterable

__all__ = ["warm_caches"]


def warm_caches(orders: Iterable[int], upsample: float = 1.5,
                aliasing_factor: int = 2) -> dict:
    """Pre-build the geometry-independent per-order tables for ``orders``.

    Touches, per order ``p``: the sampling grid and Gauss-Legendre rule
    (:func:`repro.sph.grid.get_grid`), the SH transform tables at ``p``
    and at the aliasing order ``max(p + 2, aliasing_factor * p)``
    (:func:`repro.sph.transform.get_transform`, including the dense
    analysis/synthesis matrices the operator-assembly paths need), the
    dense grid-operator matrices and band-limit projector
    (:mod:`repro.surfaces.spectral_surface`), and the rotation-quadrature
    bundle at ``q_rot = max(p, ceil(upsample * p))`` with its circulant
    mode symbols (:mod:`repro.vesicle.self_interaction`) — the tables
    the self-interaction assembly consumes.

    ``upsample`` / ``aliasing_factor`` mirror the
    ``SingularSelfInteraction`` / ``SpectralSurface`` constructor
    defaults; pass the values your scenes override them with.

    Returns a small dict mapping each warmed order to the derived
    ``(aliasing_order, q_rot)`` pair, mostly for logging.
    """
    # Imports are local: this module is importable from anywhere in the
    # package (workers import it before the heavy modules), and the
    # heavy imports happen only when warming actually runs.
    from ..sph.grid import get_grid
    from ..sph.transform import get_transform
    from ..surfaces.spectral_surface import (_grid_operator_matrices,
                                             bandlimit_projector)
    from ..vesicle.self_interaction import _rotation_tables

    warmed: dict = {}
    for p in sorted({int(o) for o in orders}):
        get_grid(p)
        T = get_transform(p)
        T.analysis_matrix()
        T.synthesis_matrix()
        q = max(p + 2, int(aliasing_factor) * p)
        get_transform(q)
        _grid_operator_matrices(p, q)
        bandlimit_projector(p)
        q_rot = max(p, int(math.ceil(upsample * p)))
        _rotation_tables(p, q_rot).circulant_tables()
        warmed[p] = (q, q_rot)
    return warmed
