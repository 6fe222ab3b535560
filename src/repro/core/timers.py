"""Component wall-time accounting in the paper's categories.

Paper Sec. 5.2 decomposes time into COL (collision detection/resolution),
BIE-solve (computing u_Gamma excluding FMM calls), BIE-FMM (FMM calls for
u_Gamma), Other-FMM (FMM calls of other algorithms) and Other. Two finer
categories split the per-cell solves out of Other: Tension (the
inextensibility Schur solve) and Implicit (the locally-implicit position
update), so the benchmark can track the direct-vs-iterative solver work
separately.
"""
from __future__ import annotations

import contextlib
import threading
import time
from collections import defaultdict

CATEGORIES = ("COL", "BIE-solve", "BIE-FMM", "Other-FMM", "Tension",
              "Implicit", "Other")


class ComponentTimers:
    """Accumulates seconds per category; nested scopes attribute time to
    the innermost category.

    Thread-safe: the scope stack is thread-local (nesting is a
    per-thread notion) and the shared accumulators are lock-guarded, so
    executor worker threads may open scopes concurrently with the main
    thread's stage scopes.
    """

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _thread_stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def scope(self, category: str):
        if category not in CATEGORIES:
            raise ValueError(f"unknown category {category!r}")
        stack = self._thread_stack()
        start = time.perf_counter()
        stack.append(category)
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            with self._lock:
                self.seconds[category] += elapsed
                # subtract from the enclosing scope so categories are
                # exclusive (within this thread's nesting)
                if stack:
                    self.seconds[stack[-1]] -= elapsed

    def breakdown(self) -> dict[str, float]:
        return {c: self.seconds.get(c, 0.0) for c in CATEGORIES}
