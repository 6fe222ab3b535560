"""Deterministic fault injection for exercising the resilience layer.

The recovery paths of :mod:`repro.resilience` — backend degradation,
dt-halved retries, rollback on a crashed stage — only fire on inputs a
healthy test scene never produces. This module manufactures those
conditions *deterministically*: each injector is a context manager that
wraps one bound method of a live object and perturbs a chosen window of
its calls (``start``-th through ``start + count - 1``-th, counted from
0), then restores the original binding on exit. Call counting makes the
injections reproducible run-to-run — the same step, the same cell, the
same stage — which the recovery tests rely on to assert *which* path
fired.

The wrappers are installed as instance attributes (shadowing the class
method), so only the targeted object is affected and unrelated
simulations in the same process stay clean.
"""
from __future__ import annotations

import contextlib
import dataclasses

import numpy as np


class InjectedFault(RuntimeError):
    """Raised by :func:`raise_in_call`-style injections; a subclass of
    ``RuntimeError`` so the transactional step classifies it as
    recoverable (the point is to test recovery)."""


class _CallCounter:
    """Shared call-window bookkeeping of one injection."""

    def __init__(self, start: int, count: int):
        self.start = int(start)
        self.count = int(count)
        self.calls = 0
        #: how many calls were actually perturbed (assert on this to
        #: verify the injection really fired).
        self.fired = 0

    def active(self) -> bool:
        i = self.calls
        self.calls += 1
        hit = self.start <= i < self.start + self.count
        if hit:
            self.fired += 1
        return hit


def _poison_first_array(result):
    """Overwrite the first float of the first ndarray found in ``result``
    (directly, or inside a list/tuple) with NaN; returns the poisoned
    result."""
    if isinstance(result, np.ndarray):
        out = np.array(result, dtype=float)
        out.reshape(-1)[0] = np.nan
        return out
    if isinstance(result, (list, tuple)):
        items = list(result)
        for k, item in enumerate(items):
            if isinstance(item, np.ndarray):
                items[k] = _poison_first_array(item)
                break
        return type(result)(items) if isinstance(result, tuple) else items
    raise TypeError(f"no ndarray to poison in {type(result).__name__}")


@contextlib.contextmanager
def _wrap_method(obj, method: str, make_wrapper):
    """Install ``make_wrapper(original, counter)`` over ``obj.method``
    for the duration of the block; yields the :class:`_CallCounter`."""
    original = getattr(obj, method)
    counter = make_wrapper.counter
    setattr(obj, method, make_wrapper(original))
    try:
        yield counter
    finally:
        # remove the instance shadow; fall back to deleting when the
        # original was itself an instance attribute
        try:
            delattr(obj, method)
            getattr(obj, method)
        except AttributeError:
            setattr(obj, method, original)


def _injector(start, count, transform):
    def factory(original):
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            if factory.counter.active():
                return transform(result)
            return result
        return wrapper
    factory.counter = _CallCounter(start, count)
    return factory


@contextlib.contextmanager
def inject_nan(obj, method: str, start: int = 0, count: int = 1):
    """Poison the result of ``obj.method`` with a NaN on the chosen call
    window (the first ndarray in the result gets ``result.flat[0] =
    nan``). E.g. ``inject_nan(sim.backend, "cell_cell")`` makes the fast
    backend emit a non-finite velocity — the trigger of the graceful
    backend degradation."""
    with _wrap_method(obj, method,
                      _injector(start, count, _poison_first_array)) as c:
        yield c


@contextlib.contextmanager
def force_unresolved_contact(ncp, start: int = 0, count: int = 1):
    """Mark the :class:`~repro.collision.ncp.NCPReport` of
    ``ncp.project`` unresolved on the chosen call window, as if the LCP
    loop had exhausted its linearizations with penetration left."""

    def transform(result):
        positions, report = result
        return positions, dataclasses.replace(
            report, resolved=False, contact_active=True)

    with _wrap_method(ncp, "project",
                      _injector(start, count, transform)) as c:
        yield c


@contextlib.contextmanager
def raise_in_task(executor, start: int = 0, count: int = 1):
    """Make the first task of ``executor.map`` raise
    :class:`InjectedFault` on the chosen window of ``map`` calls —
    exercises rollback after a crash *inside* a mapped per-cell stage."""

    def factory(original):
        def wrapper(fn, items, *args, **kwargs):
            if factory.counter.active():
                items = list(items)

                def failing(item, _first=items[0] if items else None):
                    if items and item == _first:
                        raise InjectedFault(
                            "injected task failure (faultinject)")
                    return fn(item)
                return original(failing, items, *args, **kwargs)
            return original(fn, items, *args, **kwargs)
        return wrapper
    factory.counter = _CallCounter(start, count)
    with _wrap_method(executor, "map", factory) as c:
        yield c
