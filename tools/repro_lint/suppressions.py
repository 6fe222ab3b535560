"""``# repro-lint: disable=<rule> — <reason>`` comment handling.

A suppression comment covers the findings of its own line; a standalone
comment line covers the next non-blank line. The reason is mandatory and
every rule named must be one of ``ALL_RULES`` — a suppression without a
reason, or naming an unknown rule, does not apply and is itself
reported as ``bad-suppression``.
"""
from __future__ import annotations

import re

from .base import ALL_RULES, Violation

#: rule list, then a separator (em dash, ``--`` or ``:``) and the reason.
_SUPP_RE = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\- ]*?)"
    r"\s*(?:—|–|--|:)\s*(.*)$")
#: any repro-lint marker at all, for catching malformed ones.
_MARKER_RE = re.compile(r"#\s*repro-lint:")


class Suppressions:
    def __init__(self, path: str, source: str):
        self.violations: list[Violation] = []
        #: line number -> set of suppressed rule ids
        self._by_line: dict[int, set[str]] = {}
        lines = source.splitlines()
        for i, text in enumerate(lines, start=1):
            if not _MARKER_RE.search(text):
                continue
            m = _SUPP_RE.search(text)
            rules = ({r.strip() for r in m.group(1).split(",") if r.strip()}
                     if m else set())
            reason = m.group(2).strip() if m else ""
            if not rules or not reason:
                self.violations.append(Violation(
                    path, i, "bad-suppression",
                    "suppression needs 'disable=<rule> — <reason>' with a "
                    "non-empty rule list and reason"))
                continue
            unknown = sorted(rules.difference(ALL_RULES))
            if unknown:
                self.violations.append(Violation(
                    path, i, "bad-suppression",
                    f"suppression names unknown rule(s) {unknown}"))
                continue
            target = i
            if text.lstrip().startswith("#"):
                # Standalone comment: covers the next non-blank line.
                j = i
                while j < len(lines) and not lines[j].strip():
                    j += 1
                target = j + 1 if j < len(lines) else i
            self._by_line.setdefault(target, set()).update(rules)

    def covers(self, v: Violation) -> bool:
        return v.rule in self._by_line.get(v.line, ())
