"""Pluggable executors for the per-cell stage pipeline.

Every expensive stage of a time step — singular self-interaction
reassembly, the tension/implicit factorize-and-solve, the per-source
interaction sums, force evaluation — is independent across cells, so the
stepper expresses each stage as ``executor.map(task, cells)`` and the
policy of *how* that map runs lives here:

- :class:`SerialExecutor` — a plain in-order loop; the default, and the
  reference semantics every other executor must reproduce.
- :class:`ThreadPoolExecutor` — a persistent worker-thread pool. The
  per-cell tasks are numpy-GEMM-heavy (they release the GIL), so threads
  scale the dense stages on multi-core hosts without any serialization.
- :class:`ProcessPoolExecutor` — a lazy persistent process pool for
  maps whose tasks are whole scenes (:class:`repro.sweep.SweepRunner`
  maps a :class:`ProcessTask` per scene job). Everything else —
  closures, bound methods, anything that mutates parent state — runs
  inline in the parent with exact serial semantics. Within one scene it
  does not pay: sharding a step's cell-cell sum over two worker
  processes measured slower than serial on a 2-vCPU host (the tree
  stays in the parent, every shard pickles its payload and rebuilds its
  evaluators), so ``NumericsOptions.executor`` accepts only
  ``"serial"``, ``"thread"`` and ``"checked"``.
- :class:`CheckedExecutor` — a verifying wrapper around any of the
  above that *enforces* the determinism contract at runtime (see
  below); ``inner=`` selects the wrapped executor.

Determinism contract: :meth:`Executor.map` returns results ordered by
input index, tasks touch disjoint per-cell state, and no executor ever
accumulates across tasks — so the threaded schedule is *bit-identical*
to the serial one regardless of worker count or interleaving. Callers
that reduce over cells (e.g. the interaction backends) gather the mapped
results first and fold them in fixed index order themselves.

The contract is checked two ways. Statically, the ``repro_lint``
determinism pass (``python -m repro_lint src/``) walks every
``executor.map`` call site and verifies the task body only writes state
indexed by the mapped item. Dynamically, ``executor="checked"`` wraps
the real executor: during each ``map`` the shared cached tables
(registered by :func:`repro.analysis.guard.freeze`) are flipped
non-writeable so any task scribbling on cross-cell state raises, and a
deterministic sample of the tasks is re-run afterwards to confirm
bit-identical results. Violations raise
:class:`repro.analysis.guard.DeterminismError`.

Select via :class:`repro.config.NumericsOptions` (``executor`` /
``workers``) or construct directly with :func:`make_executor`.
"""
from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
import threading
import weakref
from typing import Callable, ClassVar, Dict, Iterable, List, Optional, Type, TypeVar, Union

import numpy as np

from ..analysis.guard import DeterminismError, tables_frozen

T = TypeVar("T")
R = TypeVar("R")


class Executor:
    """Maps per-cell tasks over cell indices; results ordered by input.

    Subclasses implement :meth:`map`. Tasks must be independent (they
    may mutate only their own cell's state); exceptions raised by any
    task propagate to the caller.
    """

    #: Registry key; subclasses registered via :func:`register_executor`.
    name: ClassVar[str] = ""

    def __init__(self, workers: int = 1):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        raise NotImplementedError

    def close(self) -> None:
        """Release worker resources (idempotent; a no-op when none)."""

    def options(self) -> dict:
        """JSON-safe descriptor of this executor (for diagnostics)."""
        return {"executor": self.name, "workers": self.workers}

    def __repr__(self) -> str:
        return f"{type(self).__name__}(workers={self.workers})"


#: Registry of named executors (mirrors the interaction-backend registry).
# repro-lint: disable=global-mutable — class registry written once at import time by @register_executor, read-only afterwards
EXECUTORS: Dict[str, Type[Executor]] = {}


def register_executor(cls: Type[Executor]) -> Type[Executor]:
    """Class decorator adding an executor to the :data:`EXECUTORS` registry."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} must define a non-empty name")
    EXECUTORS[cls.name] = cls
    return cls


def resolve_workers(workers: Union[int, str], n_items: Optional[int] = None) -> int:
    """Resolve the ``workers`` knob to a concrete worker count.

    ``"auto"`` means ``min(cpu_count, n_items)`` (floored at 1): one
    worker per core, but never more workers than there are items to
    map — extra pool members would only sit idle while still costing
    start-up/teardown. An integer passes through unchanged (it must be
    >= 1). ``n_items`` is the number of independent work items the
    caller will map (the cell count for the stepper, the job count for
    a sweep); omit it to cap by core count alone.
    """
    if workers == "auto":
        count = os.cpu_count() or 1
        if n_items is not None:
            count = min(count, max(1, n_items))
        return max(1, count)
    count = int(workers)
    if count < 1:
        raise ValueError(f"workers must be >= 1 or 'auto', got {workers!r}")
    return count


def make_executor(name: str, workers: Union[int, str] = 1) -> Executor:
    """Instantiate a registered executor by name.

    ``workers`` accepts the same values as
    :attr:`repro.config.NumericsOptions.workers`, including ``"auto"``
    (resolved against the core count here; callers that know their cell
    count should pre-resolve via :func:`resolve_workers`).
    """
    try:
        cls = EXECUTORS[name]
    except KeyError:
        raise ValueError(f"unknown executor {name!r}; "
                         f"registered: {sorted(EXECUTORS)}") from None
    return cls(workers=resolve_workers(workers))


@register_executor
class SerialExecutor(Executor):
    """In-order single-thread execution (the reference semantics)."""

    name = "serial"

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        return [fn(x) for x in items]


@register_executor
class ThreadPoolExecutor(Executor):
    """Worker-thread pool over a persistent ``concurrent.futures`` pool.

    All tasks are submitted up front and gathered by submission index,
    so results are ordered (and bit-identical to serial) no matter how
    the pool interleaves them. The pool is created lazily on first use
    and its idle threads exit when the executor is garbage collected, so
    short-lived simulations do not leak threads.
    """

    name = "thread"

    def __init__(self, workers: int = 2):
        super().__init__(workers=workers)
        self._pool: concurrent.futures.ThreadPoolExecutor | None = None
        # Guards lazy creation and teardown: concurrent first maps (or a
        # map racing a close) must agree on one pool, never leak a second.
        self._pool_lock = threading.Lock()

    def _ensure_pool(self) -> concurrent.futures.ThreadPoolExecutor:
        """Caller must hold ``_pool_lock``."""
        pool = self._pool
        if pool is None:
            pool = concurrent.futures.ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="repro-cell")
            self._pool = pool
        return pool

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        items = list(items)
        if len(items) <= 1:
            # Nothing to overlap; skip the submission round-trip.
            return [fn(x) for x in items]
        # Submission happens under the lock so a concurrent close() can
        # never shut the pool down mid-submit: it either runs before (we
        # build a fresh pool) or after (shutdown waits for our futures).
        # Only submission is serialized; the tasks overlap freely.
        with self._pool_lock:
            pool = self._ensure_pool()
            futures = [pool.submit(fn, x) for x in items]
        # result() re-raises task exceptions; gather strictly by index.
        return [f.result() for f in futures]

    def close(self) -> None:
        with self._pool_lock:
            pool = self._pool
            self._pool = None
        if pool is not None:
            pool.shutdown(wait=True)


class ProcessTask:
    """Marker base for callables the process executor may ship to workers.

    The process executor only ever dispatches a ``map`` whose callable
    is a ``ProcessTask`` — everything else (closures, bound methods,
    anything that mutates parent state) runs inline in the parent, which
    is what keeps every existing ``map`` call site on its exact serial
    semantics. Subclasses must therefore be module-level (workers
    unpickle them by module path), hold only picklable state, and
    implement ``__call__(item)`` as a pure function of
    ``(self, item)``: no parent state is visible in the worker, and the
    result must be bit-identical to running the same call inline.
    """

    def __call__(self, item):
        raise NotImplementedError


def _terminate_pool(pool) -> None:
    """GC finalizer target (module-level so it never pins an executor)."""
    pool.terminate()
    pool.join()


@register_executor
class ProcessPoolExecutor(Executor):
    """Process-pool executor for maps whose tasks are whole scenes.

    Dispatch policy: a ``map`` goes to the pool only when the callable
    is a :class:`ProcessTask`, there is more than one item, and more
    than one worker — otherwise it runs inline, preserving the serial
    semantics of every closure/bound-method call site. The sweep
    runner's :class:`~repro.sweep.job.SceneTask` is the opt-in site.

    Results are gathered strictly by submission index and exceptions
    re-raise in the parent, so process == thread == serial bit-identical
    under the determinism contract.

    The pool is forked lazily on first dispatch (fork shares the
    parent's warm table caches copy-on-write where the platform allows
    it) and torn down on :meth:`close` or garbage collection.
    """

    name = "process"

    def __init__(self, workers: int = 2):
        super().__init__(workers=workers)
        self._pool = None
        # Guards lazy creation and teardown, exactly like the thread pool.
        self._pool_lock = threading.Lock()

    def _ensure_pool(self):
        """Caller must hold ``_pool_lock``."""
        pool = self._pool
        if pool is None:
            methods = multiprocessing.get_all_start_methods()
            ctx = multiprocessing.get_context(
                "fork" if "fork" in methods else "spawn")
            pool = ctx.Pool(processes=self.workers)
            self._pool = pool
            weakref.finalize(self, _terminate_pool, pool)
        return pool

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        items = list(items)
        if (not isinstance(fn, ProcessTask) or len(items) <= 1
                or self.workers <= 1):
            # Not marked process-safe (or nothing to overlap): the
            # in-order inline loop is the contract's reference semantics.
            return [fn(x) for x in items]
        with self._pool_lock:
            pool = self._ensure_pool()
            handles = [pool.apply_async(fn, (x,)) for x in items]
        # get() re-raises task exceptions; gather strictly by index.
        return [h.get() for h in handles]

    def close(self) -> None:
        with self._pool_lock:
            pool = self._pool
            self._pool = None
        if pool is not None:
            pool.terminate()
            pool.join()


def _bit_identical(a, b) -> bool:
    """Whether two task results are bitwise the same.

    Arrays compare by shape, dtype and raw bytes (NaNs included — the
    contract is *bit* identity, not numeric equality); containers
    recurse; objects without a meaningful equality are skipped (True).
    """
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a = np.asarray(a)
        b = np.asarray(b)
        return (a.shape == b.shape and a.dtype == b.dtype
                and a.tobytes() == b.tobytes())
    if isinstance(a, (tuple, list)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(_bit_identical(x, y) for x, y in zip(a, b)))
    if isinstance(a, dict):
        return (isinstance(b, dict) and a.keys() == b.keys()
                and all(_bit_identical(a[k], b[k]) for k in a))
    if isinstance(a, (bool, int, float, complex, str, bytes, type(None))):
        return a == b or (a != a and b != b)   # NaN floats count as equal
    return True                                 # opaque object: no claim


@register_executor
class CheckedExecutor(Executor):
    """Contract-enforcing wrapper around a real executor.

    Runs every ``map`` through an inner executor (serial for
    ``workers=1``, the thread pool otherwise, or any explicit ``inner``)
    with two runtime checks layered on top:

    1. *Frozen shared tables.* For the duration of the map, every cached
       table registered via :func:`repro.analysis.guard.freeze` is
       flipped non-writeable, so a task that writes shared state through
       a cached array raises immediately instead of silently corrupting
       the other cells. The resulting ``read-only`` ``ValueError`` is
       re-raised as :class:`~repro.analysis.guard.DeterminismError`.
    2. *Rerun sampling.* After the map, a deterministic sample of the
       tasks (first, last, and evenly spaced up to
       :data:`RERUN_SAMPLES`) is executed a second time and the results
       compared bit-for-bit. A task whose repeat diverges depends on
       mutable cross-task state (ordering, accumulation, hidden caches)
       and violates the contract. Only tasks that returned a value are
       re-run: a ``None``-returning task is a stateful mutator (e.g. the
       stepper's refresh stage) whose repeat would advance its own
       amortization counters.

    The overhead is one extra task execution per sampled index — meant
    for validation runs and CI scenes, not production stepping.
    """

    name = "checked"

    #: how many mapped tasks are re-executed per map (deterministic
    #: evenly-spaced sample, capped by the number of eligible tasks).
    RERUN_SAMPLES = 2

    def __init__(self, workers: int = 1, inner: Optional[Executor] = None):
        super().__init__(workers=workers)
        if inner is None:
            inner = (SerialExecutor(workers=1) if workers == 1
                     else ThreadPoolExecutor(workers=workers))
        self.inner = inner

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        items = list(items)
        with tables_frozen():
            try:
                results = self.inner.map(fn, items)
            except ValueError as e:
                if "read-only" in str(e):
                    raise DeterminismError(
                        "task wrote to a frozen shared table during "
                        f"{type(self.inner).__name__}.map — per-cell tasks "
                        "must only write state owned by their own item"
                    ) from e
                raise
            for i in self._sample_indices(results):
                repeat = fn(items[i])
                if not _bit_identical(results[i], repeat):
                    raise DeterminismError(
                        f"task {i} is not deterministic: re-running it "
                        "produced a different result, so the map depends "
                        "on mutable cross-task state")
        return results

    def _sample_indices(self, results: List[R]) -> List[int]:
        eligible = [i for i, r in enumerate(results) if r is not None]
        k = min(self.RERUN_SAMPLES, len(eligible))
        if k == 0:
            return []
        # Evenly spaced over the eligible tasks, endpoints included.
        if k == 1:
            return [eligible[0]]
        pos = [round(j * (len(eligible) - 1) / (k - 1)) for j in range(k)]
        return sorted({eligible[p] for p in pos})

    def close(self) -> None:
        self.inner.close()

    def options(self) -> dict:
        return {"executor": self.name, "workers": self.workers,
                "inner": self.inner.name}
