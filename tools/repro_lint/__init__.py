"""Determinism, frozen-table and hygiene linter for the repro library.

``python -m repro_lint src/`` runs three passes over the library:

1. **Determinism / aliasing** (:mod:`.determinism`) — walks every
   ``executor.map(task, items)`` call site, resolves the task callable
   (bound method, local ``def``, or lambda) and verifies its body — and
   every same-module callee reachable from it — only writes state
   indexed by the mapped item. Writes under a ``with <...lock>:`` block
   and through thread-local storage are the two sanctioned exceptions.
2. **Frozen tables & library hygiene** (:mod:`.hygiene`) —
   ``lru_cache``'d numpy-table factories must return read-only arrays
   (``freeze``/``freeze_attributes``); plus no ``assert`` statements in
   library code, no bare ``except:`` and no mutable default arguments.
3. **Module-level mutable state** (:mod:`.globals_lint`) — a
   module-level mutable container is process-global state shared by
   every simulation in the process (the ``warn_once``-registry bug
   class); it must become per-instance state, an immutable table, or a
   suppressed, documented registry.

Suppress a finding with a trailing (or directly preceding) comment::

    x = build()  # repro-lint: disable=<rule> — <reason>

The reason is mandatory and the rule must be one of :data:`ALL_RULES`;
a suppression that breaks either is itself reported (rule
``bad-suppression``). The package is stdlib-only.
"""
from __future__ import annotations

from .base import ALL_RULES, Violation, collect_files, parse_file
from .suppressions import Suppressions
from .determinism import check_determinism
from .hygiene import check_hygiene
from .globals_lint import check_globals

_PASSES = (check_determinism, check_hygiene, check_globals)


def lint_source(path: str, source: str) -> list[Violation]:
    """Run every pass over one file's source text."""
    tree = parse_file(path, source)
    if tree is None:
        return [Violation(path, 1, "bad-suppression",
                          "file does not parse; skipped")]
    supp = Suppressions(path, source)
    out: list[Violation] = []
    for check in _PASSES:
        out.extend(check(path, tree, source))
    out = [v for v in out if not supp.covers(v)]
    out.extend(supp.violations)
    return out


def lint_paths(paths: list[str]) -> list[Violation]:
    """Lint every ``.py`` file under the given files/directories."""
    out: list[Violation] = []
    for path in collect_files(paths):
        with open(path, encoding="utf-8") as fh:
            out.extend(lint_source(path, fh.read()))
    out.sort(key=lambda v: (v.path, v.line, v.rule))
    return out
