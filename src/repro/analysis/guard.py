"""Shared read-only table registry and the frozen-table context.

Every ``lru_cache``'d numpy-table factory in the library (quadrature
rules, SH transform tables, patch interpolation matrices, FMM cube
surfaces, rotation-quadrature tables, ...) hands the same arrays to
every cell / order / thread that asks. A single in-place write through
any of those references would silently corrupt every other user — the
exact shared-state hazard the executor determinism contract rules out.

:func:`freeze` is the enforcement point: factories pass their arrays
through it before returning, which (a) marks them non-writeable so a
mutating caller gets an immediate ``ValueError`` instead of a silent
corruption, and (b) registers them (by weak reference) in a
process-wide table so the ``"checked"`` executor can flip every known
shared table non-writeable for the duration of each ``map`` via
:func:`tables_frozen` — including arrays some code path unfroze or
registered without freezing.
"""
from __future__ import annotations

import contextlib
import functools
import threading
import weakref

import numpy as np

__all__ = ["DeterminismError", "freeze", "freeze_attributes",
           "register_shared", "iter_shared_arrays", "tables_frozen",
           "locked_cache", "PER_ORDER_CACHE_SIZE", "HEAVY_TABLE_CACHE_SIZE"]

# -- shared-table cache policy ---------------------------------------------
#
# The per-order tables are keyed by spherical-harmonic order (plus an
# aliasing order for some), and realistic sweeps mix at most a few dozen
# distinct orders — but the old bounds (8-32) were sized for a single
# simulation per process, where at most two orders are live. Under a
# mixed-order many-scene sweep, an lru_cache(8) rotation-table factory
# thrashes: scene A's table is evicted while scene A still runs, and the
# next refresh rebuilds it from scratch mid-job. The bounds below are
# the documented policy; both are far above any realistic live-order
# count, and entries are only built on demand, so raising them costs
# nothing for single-scene runs.

#: bound for cheap per-order tables (grids, SH transform tables,
#: quadrature rules): tens of kB per entry, so hundreds of entries are
#: negligible next to one simulation's state.
PER_ORDER_CACHE_SIZE = 128

#: bound for heavy per-order tables (rotation/circulant bundles, dense
#: grid-operator matrices, band-limit projectors): up to tens of MB per
#: entry at high order, so the bound stays moderate — still 4x the old
#: value, covering a 32-distinct-order concurrent sweep without
#: eviction.
HEAVY_TABLE_CACHE_SIZE = 32


def locked_cache(maxsize: int):
    """``lru_cache`` variant whose misses build under a lock.

    CPython's ``lru_cache`` is thread-safe for *lookups*, but two
    threads missing on the same key both call the factory and one
    result wins — for our table factories that means the same table is
    built twice (wasted seconds at high order) and the frozen-table
    registry holds a weakref to a table that is immediately dropped.
    This wrapper serializes the factory call with a re-entrant lock so
    concurrent first calls build exactly once and every caller gets the
    same object. Hits pay one uncontended lock acquire (~100 ns) on top
    of the cache lookup — invisible next to the numpy work all callers
    do with the result.

    ``cache_info`` / ``cache_clear`` are forwarded from the underlying
    ``lru_cache``.
    """
    def deco(fn):
        cached = functools.lru_cache(maxsize=maxsize)(fn)
        lock = threading.RLock()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with lock:
                return cached(*args, **kwargs)

        wrapper.cache_info = cached.cache_info
        wrapper.cache_clear = cached.cache_clear
        wrapper.__wrapped__ = fn
        return wrapper
    return deco


class DeterminismError(RuntimeError):
    """A mapped task violated the executor determinism contract."""


#: weak references to every registered shared table (dead refs are
#: pruned lazily on iteration).
_shared: list = []  # repro-lint: disable=global-mutable — the process-wide shared-table registry is the point of this module; append-only weakrefs


def register_shared(arr: np.ndarray) -> np.ndarray:
    """Register ``arr`` as a shared read-mostly table (no freezing)."""
    _shared.append(weakref.ref(arr))
    return arr


def iter_shared_arrays():
    """Yield the live registered shared tables, pruning dead refs."""
    live = []
    for ref in _shared:
        arr = ref()
        if arr is not None:
            live.append(ref)
            yield arr
    _shared[:] = live


def freeze(*arrays):
    """Mark arrays read-only and register them as shared tables.

    Returns the single array, or the tuple, so factories can ``return
    freeze(x, w)`` directly. Non-array entries (e.g. ``None``) pass
    through untouched.
    """
    out = []
    for a in arrays:
        if isinstance(a, np.ndarray):
            a.setflags(write=False)
            register_shared(a)
        out.append(a)
    return out[0] if len(out) == 1 else tuple(out)


def freeze_attributes(obj) -> None:
    """Freeze every ndarray attribute of ``obj`` (one level deep into
    lists/tuples/dicts) — the class-instance variant of :func:`freeze`
    for cached table bundles like the SH grids and rotation tables."""
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            freeze(value)
        elif isinstance(value, (list, tuple)):
            for item in value:
                if isinstance(item, np.ndarray):
                    freeze(item)
        elif isinstance(value, dict):
            for item in value.values():
                if isinstance(item, np.ndarray):
                    freeze(item)


@contextlib.contextmanager
def tables_frozen():
    """Hold every registered shared table non-writeable for the scope.

    Arrays already read-only (the normal state after :func:`freeze`) are
    left alone; arrays found writable are flipped for the duration and
    restored on exit. Re-entrant: the inner scope restores only what it
    flipped.
    """
    flipped = []
    for arr in iter_shared_arrays():
        if arr.flags.writeable:
            arr.setflags(write=False)
            flipped.append(arr)
    try:
        yield
    finally:
        for arr in flipped:
            arr.setflags(write=True)
