"""Frozen-table and library-hygiene pass.

Rules:

- ``frozen-table`` — an ``lru_cache``'d factory building numpy arrays
  must return them read-only: either directly through
  ``freeze(...)``, or as an instance of a same-module class whose
  ``__init__`` calls ``freeze``/``freeze_attributes``. Cached tables
  are shared by every caller; one in-place mutation corrupts all of
  them silently.
- ``no-assert`` — ``assert`` statements vanish under ``python -O``;
  library invariants must raise real exceptions.
- ``bare-except`` — ``except:`` swallows ``KeyboardInterrupt`` and
  ``SystemExit`` along with the intended error.
- ``mutable-default`` — a mutable default argument is shared across
  calls.
- ``sentinel-suppress`` — health-sentinel machinery
  (``HealthSentinel.evaluate``, ``warn_once``, ``capture_state`` /
  ``restore_state``, ``StepRejectedError``) may not sit under a bare
  ``except:`` or a blanket ``except (Base)Exception`` handler: the whole
  point of the sentinel is that a failed check *propagates* as a
  structured rejection; a catch-all around it silently converts "step
  rejected, rolled back" into "nothing happened". Catch
  ``StepRejectedError`` by name instead (and do something with it —
  swallowing it with a bare ``pass`` is also flagged).
"""
from __future__ import annotations

import ast
from typing import Optional

from .base import ModuleIndex, Violation, terminal_identifier

_NP_CONSTRUCTORS = {
    "array", "asarray", "asanyarray", "ascontiguousarray", "empty",
    "zeros", "ones", "full", "arange", "linspace", "eye", "outer",
    "stack", "vstack", "hstack", "concatenate", "meshgrid", "tile",
    "unique", "round",
}

_FREEZERS = {"freeze", "freeze_attributes"}

#: call/name tokens that mark a statement as sentinel machinery for the
#: ``sentinel-suppress`` rule.
_SENTINEL_TOKENS = {"warn_once", "capture_state", "restore_state",
                    "HealthSentinel", "StepRejectedError"}

#: blanket exception classes a sentinel call may not sit under.
_BLANKET_HANDLERS = {"Exception", "BaseException"}


def _touches_sentinel(nodes) -> Optional[int]:
    """Line of the first sentinel-machinery reference under ``nodes``,
    or None. Matches calls to the sentinel helpers, ``.evaluate`` on a
    receiver whose name mentions 'sentinel', and any use of
    ``StepRejectedError``/``HealthSentinel``."""
    for stmt in nodes:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and node.id in _SENTINEL_TOKENS:
                return node.lineno
            if isinstance(node, ast.Attribute):
                if node.attr in _SENTINEL_TOKENS:
                    return node.lineno
                if node.attr == "evaluate" and \
                        "sentinel" in (terminal_identifier(node.value)
                                       or "").lower():
                    return node.lineno
    return None


def _only_passes(body) -> bool:
    return all(isinstance(s, ast.Pass)
               or (isinstance(s, ast.Expr)
                   and isinstance(s.value, ast.Constant)
                   and s.value.value is Ellipsis) for s in body)


def _check_sentinel_suppress(path: str, node: ast.Try,
                             out: list[Violation]) -> None:
    line = _touches_sentinel(node.body)
    if line is None:
        return
    for handler in node.handlers:
        names = []
        if handler.type is not None:
            types = (handler.type.elts
                     if isinstance(handler.type, ast.Tuple)
                     else [handler.type])
            names = [terminal_identifier(t) for t in types]
        if handler.type is None or \
                any(n in _BLANKET_HANDLERS for n in names):
            out.append(Violation(
                path, handler.lineno, "sentinel-suppress",
                "catch-all handler around health-sentinel machinery "
                "(line %d) silently suppresses step rejection; catch "
                "StepRejectedError by name" % line))
        elif "StepRejectedError" in names and _only_passes(handler.body):
            out.append(Violation(
                path, handler.lineno, "sentinel-suppress",
                "StepRejectedError swallowed with 'pass'; a rejected "
                "step must be surfaced (log, re-raise, or recover "
                "explicitly)"))


def _is_np_call(node: ast.AST) -> bool:
    """A call that plausibly constructs a numpy array (``np.*`` chains)."""
    if not isinstance(node, ast.Call):
        return False
    fn = node.func
    parts = []
    while isinstance(fn, ast.Attribute):
        parts.append(fn.attr)
        fn = fn.value
    if isinstance(fn, ast.Name):
        parts.append(fn.id)
    parts = parts[::-1]
    return bool(parts) and parts[0] in ("np", "numpy") and \
        (parts[-1] in _NP_CONSTRUCTORS or len(parts) > 2)


def _is_lru_decorated(fn: ast.FunctionDef) -> bool:
    for dec in fn.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if terminal_identifier(target) in ("lru_cache", "cache"):
            return True
    return False


def _class_freezes(cls: ast.ClassDef) -> Optional[bool]:
    """True/False whether ``__init__`` freezes; None when it builds no
    arrays (nothing to freeze)."""
    init = next((n for n in cls.body
                 if isinstance(n, ast.FunctionDef) and n.name == "__init__"),
                None)
    if init is None:
        return None
    builds = any(_is_np_call(n) for n in ast.walk(init))
    if not builds:
        return None
    for node in ast.walk(init):
        if isinstance(node, ast.Call) and \
                terminal_identifier(node.func) in _FREEZERS:
            return True
    return False


def _check_frozen_factory(path: str, fn: ast.FunctionDef,
                          index: ModuleIndex,
                          out: list[Violation]) -> None:
    # Names assigned from freeze(...) are safe; names assigned from
    # numpy constructions (and never re-frozen) are not.
    frozen: set[str] = set()
    unfrozen: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            is_freeze = (isinstance(node.value, ast.Call) and
                         terminal_identifier(node.value.func) in _FREEZERS)
            is_np = _is_np_call(node.value) or (
                isinstance(node.value, ast.Tuple)
                and any(_is_np_call(e) for e in node.value.elts))
            for t in node.targets:
                for name in ([t.id] if isinstance(t, ast.Name) else
                             [e.id for e in getattr(t, "elts", [])
                              if isinstance(e, ast.Name)]):
                    if is_freeze:
                        frozen.add(name)
                        unfrozen.discard(name)
                    elif is_np:
                        unfrozen.add(name)
                        frozen.discard(name)

    def returned_unfrozen(expr: ast.AST) -> bool:
        if isinstance(expr, ast.Call):
            tid = terminal_identifier(expr.func)
            if tid in _FREEZERS:
                return False
            if _is_np_call(expr):
                return True
            if tid in index.classes:
                return _class_freezes(index.classes[tid]) is False
            return False
        if isinstance(expr, ast.Name):
            return expr.id in unfrozen
        if isinstance(expr, ast.Tuple):
            return any(returned_unfrozen(e) for e in expr.elts)
        return False

    for node in ast.walk(fn):
        if isinstance(node, ast.Return) and node.value is not None:
            if returned_unfrozen(node.value):
                out.append(Violation(
                    path, node.lineno, "frozen-table",
                    f"lru_cache'd factory '{fn.name}' returns a writable "
                    "array; wrap the tables in repro.analysis.freeze() "
                    "(or freeze_attributes in the returned class) so "
                    "shared cache entries cannot be mutated in place"))


def check_hygiene(path: str, tree: ast.Module,
                  source: str) -> list[Violation]:
    index = ModuleIndex(tree)
    out: list[Violation] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            out.append(Violation(
                path, node.lineno, "no-assert",
                "assert disappears under 'python -O'; raise a real "
                "exception (ValueError/RuntimeError) instead"))
        elif isinstance(node, ast.ExceptHandler) and node.type is None:
            out.append(Violation(
                path, node.lineno, "bare-except",
                "bare 'except:' also catches KeyboardInterrupt/SystemExit; "
                "name the exception types"))
        elif isinstance(node, ast.Try):
            _check_sentinel_suppress(path, node, out)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for default in (node.args.defaults + node.args.kw_defaults):
                if default is None:
                    continue
                mutable = isinstance(default, (ast.List, ast.Dict, ast.Set))
                if isinstance(default, ast.Call) and \
                        isinstance(default.func, ast.Name) and \
                        default.func.id in ("list", "dict", "set"):
                    mutable = True
                if mutable:
                    out.append(Violation(
                        path, default.lineno, "mutable-default",
                        f"mutable default argument in '{node.name}' is "
                        "shared across calls; default to None and build "
                        "inside"))
            if _is_lru_decorated(node):
                _check_frozen_factory(path, node, index, out)
    return out
