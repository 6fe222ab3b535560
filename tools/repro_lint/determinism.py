"""Determinism / aliasing pass (rule ``shared-write``).

The executor contract (``repro.runtime.executor``) promises that a
threaded ``executor.map(task, items)`` is bit-identical to the serial
loop. That holds only when each task writes state *owned by its mapped
item* — anything else (an attribute on the shared stepper, a subscript
with a loop-invariant index, a closure accumulator) races under the
thread pool and silently diverges.

This pass finds every ``<...>executor.map(task, ...)`` call, resolves
``task`` to its definition (a ``self.<method>``, a function local to the
enclosing scope, a module function, or an inline lambda), and walks the
body plus every same-module callee reachable from it (taint following
argument positions, depth-limited, cycle-safe), flagging:

- attribute writes whose target is not derived from the mapped item,
- subscript writes whose index does not involve the mapped item and
  whose base is not derived from it,
- writes to declared ``nonlocal``/``global`` names,
- calls of known container mutators (``append``, ``update``, ...) on
  receivers not derived from the mapped item.

Two sanctioned patterns are recognized and allowed:

- writes inside a ``with <expr>:`` block whose context expression ends
  in an identifier containing ``lock`` (the lazy shared-table builds of
  ``self_interaction.py`` take ``_circ_lock``), and
- writes through thread-local storage, i.e. an access chain with a
  component containing ``local`` (the ``ComponentTimers`` pattern).

Calls that cannot be resolved within the module are assumed pure —
cross-module effects are covered by the runtime ``checked`` executor.
"""
from __future__ import annotations

import ast
from typing import Optional

from .base import (ModuleIndex, Violation, chain_parts, names_in,
                   terminal_identifier)

_MAX_DEPTH = 4

#: method names that mutate their receiver in place.
_MUTATORS = {"append", "extend", "insert", "add", "update", "setdefault",
             "pop", "popitem", "remove", "discard", "clear", "sort",
             "reverse", "setflags", "fill", "resize"}


def _is_lockish(expr: ast.AST) -> bool:
    t = terminal_identifier(expr)
    return t is not None and "lock" in t.lower()


def _is_thread_local(expr: ast.AST) -> bool:
    return any("local" in part.lower() for part in chain_parts(expr)[1:])


class _TaskChecker:
    """Walks one task body, tracking tainted names and lock scope."""

    def __init__(self, path: str, index: ModuleIndex,
                 out: list[Violation], site_line: int):
        self.path = path
        self.index = index
        self.out = out
        self.site_line = site_line
        self._visited: set[int] = set()

    # -- entry points --------------------------------------------------------
    def check_function(self, fn: ast.FunctionDef, tainted: set[str],
                       class_name: Optional[str], depth: int = 0) -> None:
        if id(fn) in self._visited or depth > _MAX_DEPTH:
            return
        self._visited.add(id(fn))
        declared = {n for node in ast.walk(fn)
                    if isinstance(node, (ast.Nonlocal, ast.Global))
                    for n in node.names}
        self._walk(fn.body, set(tainted), declared, class_name,
                   depth, in_lock=False)

    def check_lambda(self, lam: ast.Lambda, class_name: Optional[str]) -> None:
        tainted = {lam.args.args[0].arg} if lam.args.args else set()
        self._resolve_calls(lam.body, tainted, set(), class_name,
                            depth=0, in_lock=False)

    # -- statement walk ------------------------------------------------------
    def _walk(self, body: list[ast.stmt], tainted: set[str],
              declared: set[str], class_name: Optional[str],
              depth: int, in_lock: bool) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue          # nested defs are checked when called
            if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (stmt.targets if isinstance(stmt, ast.Assign)
                           else [stmt.target])
                value = stmt.value
                for t in targets:
                    self._check_target(t, value, tainted, declared,
                                       in_lock)
                if value is not None:
                    self._resolve_calls(value, tainted, declared,
                                        class_name, depth, in_lock)
                continue
            if isinstance(stmt, ast.With):
                locked = in_lock or any(_is_lockish(item.context_expr)
                                        for item in stmt.items)
                for item in stmt.items:
                    self._resolve_calls(item.context_expr, tainted,
                                        declared, class_name, depth,
                                        in_lock)
                self._walk(stmt.body, tainted, declared, class_name,
                           depth, locked)
                continue
            if isinstance(stmt, ast.For):
                if self._tainted_expr(stmt.iter, tainted):
                    tainted |= names_in(stmt.target)
                self._resolve_calls(stmt.iter, tainted, declared,
                                    class_name, depth, in_lock)
                self._walk(stmt.body, tainted, declared, class_name,
                           depth, in_lock)
                self._walk(stmt.orelse, tainted, declared, class_name,
                           depth, in_lock)
                continue
            if isinstance(stmt, (ast.If, ast.While)):
                self._resolve_calls(stmt.test, tainted, declared,
                                    class_name, depth, in_lock)
                self._walk(stmt.body, tainted, declared, class_name,
                           depth, in_lock)
                self._walk(stmt.orelse, tainted, declared, class_name,
                           depth, in_lock)
                continue
            if isinstance(stmt, ast.Try):
                self._walk(stmt.body, tainted, declared, class_name,
                           depth, in_lock)
                for h in stmt.handlers:
                    self._walk(h.body, tainted, declared, class_name,
                               depth, in_lock)
                self._walk(stmt.orelse, tainted, declared, class_name,
                           depth, in_lock)
                self._walk(stmt.finalbody, tainted, declared, class_name,
                           depth, in_lock)
                continue
            if isinstance(stmt, (ast.Expr, ast.Return)):
                if stmt.value is not None:
                    self._resolve_calls(stmt.value, tainted, declared,
                                        class_name, depth, in_lock)
                continue
            # remaining statements (raise, pass, assert, del, ...) carry
            # expressions but no writes we track
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._resolve_calls(child, tainted, declared,
                                        class_name, depth, in_lock)

    # -- write targets -------------------------------------------------------
    def _check_target(self, target: ast.AST, value: Optional[ast.AST],
                      tainted: set[str], declared: set[str],
                      in_lock: bool) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for el in target.elts:
                self._check_target(el, value, tainted, declared, in_lock)
            return
        if isinstance(target, ast.Starred):
            self._check_target(target.value, value, tainted, declared,
                               in_lock)
            return
        if isinstance(target, ast.Name):
            if target.id in declared and not in_lock:
                self._flag(target, f"write to nonlocal/global "
                                   f"{target.id!r} from a mapped task")
            elif value is not None and self._tainted_expr(value, tainted):
                tainted.add(target.id)
            return
        if isinstance(target, ast.Subscript):
            if self._tainted_expr(target.slice, tainted):
                return            # indexed by the mapped item: owned state
            if self._derived_from_item(target.value, tainted):
                return
            if in_lock or _is_thread_local(target.value):
                return
            self._flag(target, "subscript write not indexed by the mapped "
                               "item (shared across tasks)")
            return
        if isinstance(target, ast.Attribute):
            if self._derived_from_item(target.value, tainted):
                return
            if in_lock or _is_thread_local(target.value):
                return
            self._flag(target, f"attribute write to shared state "
                               f"'.{target.attr}' from a mapped task")

    # -- calls ---------------------------------------------------------------
    def _resolve_calls(self, expr: ast.AST, tainted: set[str],
                       declared: set[str], class_name: Optional[str],
                       depth: int, in_lock: bool) -> None:
        for node in ast.walk(expr):
            if isinstance(node, ast.Lambda):
                continue          # deferred, not executed by this task
            if not isinstance(node, ast.Call):
                continue
            fn = node.func
            if isinstance(fn, ast.Attribute):
                recv = fn.value
                if (isinstance(recv, ast.Name) and recv.id == "self"):
                    callees = self.index.resolve_methods(class_name,
                                                         fn.attr)
                    if callees:
                        for callee in callees:
                            self._descend(callee, node, tainted,
                                          class_name, depth)
                        continue
                if fn.attr in _MUTATORS:
                    if not (self._derived_from_item(recv, tainted)
                            or in_lock or _is_thread_local(recv)
                            or isinstance(recv, ast.Name)):
                        self._flag(node,
                                   f"mutating call '.{fn.attr}()' on a "
                                   "receiver shared across tasks")
            elif isinstance(fn, ast.Name):
                callee = self.index.functions.get(fn.id)
                if callee is not None:
                    self._descend(callee, node, tainted, None, depth)

    def _descend(self, callee: ast.FunctionDef, call: ast.Call,
                 tainted: set[str], class_name: Optional[str],
                 depth: int) -> None:
        params = [a.arg for a in callee.args.args]
        if params and params[0] == "self":
            params = params[1:]
        callee_taint: set[str] = set()
        for pos, arg in enumerate(call.args):
            if pos < len(params) and self._tainted_expr(arg, tainted):
                callee_taint.add(params[pos])
        for kw in call.keywords:
            if kw.arg in params and self._tainted_expr(kw.value, tainted):
                callee_taint.add(kw.arg)
        self.check_function(callee, callee_taint, class_name,
                            depth=depth + 1)

    # -- taint helpers -------------------------------------------------------
    def _tainted_expr(self, expr: ast.AST, tainted: set[str]) -> bool:
        return bool(names_in(expr) & tainted)

    def _derived_from_item(self, expr: ast.AST, tainted: set[str]) -> bool:
        """Whether an access chain goes through the mapped item: a tainted
        name, or a subscript indexed by one (``cells[i].foo``)."""
        node = expr
        while True:
            if isinstance(node, ast.Name):
                return node.id in tainted
            if isinstance(node, ast.Attribute):
                node = node.value
            elif isinstance(node, ast.Subscript):
                if self._tainted_expr(node.slice, tainted):
                    return True
                node = node.value
            elif isinstance(node, ast.Call):
                node = node.func
            else:
                return False

    def _flag(self, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", self.site_line)
        self.out.append(Violation(
            self.path, line, "shared-write",
            f"{message} (task mapped at line {self.site_line}; writes "
            "must be owned by the mapped item, held under a lock, or "
            "thread-local)"))


def _local_function(scope: ast.FunctionDef, name: str
                    ) -> Optional[ast.FunctionDef]:
    for node in ast.walk(scope):
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    return None


def check_determinism(path: str, tree: ast.Module,
                      source: str) -> list[Violation]:
    index = ModuleIndex(tree)
    out: list[Violation] = []

    # Enumerate map sites with their enclosing function/class context.
    def visit(node: ast.AST, func: Optional[ast.FunctionDef],
              cls: Optional[str]) -> None:
        if isinstance(node, ast.ClassDef):
            for child in node.body:
                visit(child, func, node.name)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for child in node.body:
                visit(child, node, cls)
            return
        if isinstance(node, ast.Call):
            fn = node.func
            if (isinstance(fn, ast.Attribute) and fn.attr == "map"
                    and (terminal_identifier(fn.value) or ""
                         ).endswith("executor") and node.args):
                _check_site(path, index, out, node, func, cls)
        for child in ast.iter_child_nodes(node):
            visit(child, func, cls)

    for top in tree.body:
        visit(top, None, None)
    return out


def _check_site(path: str, index: ModuleIndex, out: list[Violation],
                call: ast.Call, func: Optional[ast.FunctionDef],
                cls: Optional[str]) -> None:
    task = call.args[0]
    checker = _TaskChecker(path, index, out, call.lineno)
    if isinstance(task, ast.Lambda):
        checker.check_lambda(task, cls)
        return
    if isinstance(task, ast.Attribute) and \
            isinstance(task.value, ast.Name) and task.value.id == "self":
        for fn in index.resolve_methods(cls, task.attr):
            params = [a.arg for a in fn.args.args if a.arg != "self"]
            checker.check_function(fn, set(params[:1]), cls)
        return
    if isinstance(task, ast.Name):
        fn = None
        if func is not None:
            fn = _local_function(func, task.id)
        if fn is None:
            fn = index.functions.get(task.id)
        if fn is not None:
            params = [a.arg for a in fn.args.args if a.arg != "self"]
            checker.check_function(fn, set(params[:1]), cls)
