"""Shared plumbing of the lint passes: rule ids, findings, file walking,
AST helpers."""
from __future__ import annotations

import ast
import dataclasses
import os
from typing import Iterator, Optional

#: every rule id a suppression comment may name.
ALL_RULES = (
    "shared-write",
    "frozen-table",
    "no-assert",
    "bare-except",
    "mutable-default",
    "sentinel-suppress",
    "global-mutable",
    "bad-suppression",
)


@dataclasses.dataclass(frozen=True)
class Violation:
    path: str
    line: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def collect_files(paths: list[str]) -> Iterator[str]:
    for p in paths:
        if os.path.isfile(p):
            if p.endswith(".py"):
                yield p
        else:
            for root, _dirs, files in os.walk(p):
                for name in sorted(files):
                    if name.endswith(".py"):
                        yield os.path.join(root, name)


def parse_file(path: str, source: str) -> Optional[ast.Module]:
    try:
        return ast.parse(source, filename=path)
    except SyntaxError:
        return None


def terminal_identifier(node: ast.AST) -> Optional[str]:
    """Rightmost identifier of a Name/Attribute/Call/Subscript chain."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Call):
        return terminal_identifier(node.func)
    if isinstance(node, ast.Subscript):
        return terminal_identifier(node.value)
    return None


def chain_parts(node: ast.AST) -> list[str]:
    """Dotted-access components of an expression, left to right
    (``self._local.stack`` -> ``["self", "_local", "stack"]``); calls and
    subscripts are looked through."""
    parts: list[str] = []
    while True:
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        elif isinstance(node, (ast.Call,)):
            node = node.func
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Name):
            parts.append(node.id)
            break
        else:
            break
    return parts[::-1]


def names_in(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


class ModuleIndex:
    """Name -> definition lookup for one module's top level."""

    def __init__(self, tree: ast.Module):
        self.functions: dict[str, ast.FunctionDef] = {}
        self.classes: dict[str, ast.ClassDef] = {}
        self.methods: dict[tuple[str, str], ast.FunctionDef] = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions[node.name] = node
            elif isinstance(node, ast.ClassDef):
                self.classes[node.name] = node
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        self.methods[(node.name, item.name)] = item

    def resolve_methods(self, class_name: Optional[str],
                        meth: str) -> list[ast.FunctionDef]:
        """``self.<meth>`` resolution: the enclosing class's definition
        plus every same-module override (base <-> subclass dispatch stays
        within one module in this codebase, and the static pass cannot
        know the dynamic type — so all candidates are checked)."""
        out: list[ast.FunctionDef] = []
        primary = (self.methods.get((class_name, meth))
                   if class_name is not None else None)
        if primary is not None:
            out.append(primary)
        for (_cls, name), fn in self.methods.items():
            if name == meth and fn is not primary:
                out.append(fn)
        return out
