"""Fixture-based self-tests of the ``repro_lint`` static-analysis passes.

Each rule gets a seeded violation (must fire), the fixed form (must
pass), and a suppression check. The final test pins the acceptance
criterion: the linter runs clean on the shipped ``src/`` tree.
"""
import pathlib
import sys

import pytest

_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(_ROOT / "tools"))

from repro_lint import lint_paths, lint_source          # noqa: E402
from repro_lint.__main__ import main as lint_main       # noqa: E402


def rules_of(source: str):
    return sorted({v.rule for v in lint_source("fixture.py", source)})


def lines_of(source: str, rule: str):
    return [v.line for v in lint_source("fixture.py", source)
            if v.rule == rule]


class TestDeterminismPass:
    def test_shared_attribute_write_fires(self):
        src = """
class Stepper:
    def run(self):
        return self.executor.map(self._task, range(3))

    def _task(self, i):
        self.count = i
        return i
"""
        assert rules_of(src) == ["shared-write"]

    def test_item_indexed_write_passes(self):
        src = """
class Stepper:
    def run(self):
        return self.executor.map(self._task, range(3))

    def _task(self, i):
        self._state[i] = i * 2.0
        return i
"""
        assert rules_of(src) == []

    def test_loop_invariant_subscript_fires(self):
        src = """
class Stepper:
    def run(self):
        return self.executor.map(self._task, range(3))

    def _task(self, i):
        self._acc[0] = i
        return i
"""
        assert rules_of(src) == ["shared-write"]

    def test_lambda_task_resolves_method(self):
        src = """
class Stepper:
    def run(self):
        return self.executor.map(lambda i: self._upd(i, 2.0), range(3))

    def _upd(self, i, dt):
        self.scale = dt
        return i
"""
        assert rules_of(src) == ["shared-write"]

    def test_local_def_task_and_taint_through_assignment(self):
        src = """
class Stepper:
    def run(self):
        def task(i):
            cell = self.cells[i]
            cell.values = 0.0          # derived from the item: fine
            self.cells[i].flag = True  # ditto
            return cell
        return self.executor.map(task, range(3))
"""
        assert rules_of(src) == []

    def test_write_under_lock_passes(self):
        src = """
class Tables:
    def build(self):
        return self.executor.map(self._get, range(3))

    def _get(self, i):
        if self._fused is None:
            with self._fused_lock:
                self._fused = 1.0
        return self._fused
"""
        assert rules_of(src) == []

    def test_thread_local_write_passes(self):
        src = """
class Timers:
    def run(self):
        return self.executor.map(self._task, range(3))

    def _task(self, i):
        self._local.stack = i
        self._local.frames.append(i)
        return i
"""
        assert rules_of(src) == []

    def test_mutator_call_on_shared_receiver_fires(self):
        src = """
class Stepper:
    def run(self):
        return self.executor.map(self._task, range(3))

    def _task(self, i):
        self.log.append(i)
        return i
"""
        assert rules_of(src) == ["shared-write"]

    def test_closure_nonlocal_accumulator_fires(self):
        src = """
class Stepper:
    def run(self):
        total = 0
        def task(i):
            nonlocal total
            total += i
            return i
        return self.executor.map(task, range(3))
"""
        assert rules_of(src) == ["shared-write"]

    def test_base_class_method_resolution(self):
        """A task in a base class calling an overridden method defined in
        a same-module subclass is followed into the override."""
        src = """
class Backend:
    def run(self):
        return self.executor.map(lambda j: self._vel(j), range(3))

    def _vel(self, j):
        raise NotImplementedError

class Direct(Backend):
    def _vel(self, j):
        self.cache = j          # shared write in the override
        return j
"""
        assert "shared-write" in rules_of(src)


class TestHygienePass:
    def test_unfrozen_lru_table_fires(self):
        src = """
import numpy as np
from functools import lru_cache

@lru_cache(maxsize=4)
def table(n):
    t = np.linspace(0.0, 1.0, n)
    return t
"""
        assert rules_of(src) == ["frozen-table"]

    def test_frozen_lru_table_passes(self):
        src = """
import numpy as np
from functools import lru_cache
from repro.analysis.guard import freeze

@lru_cache(maxsize=4)
def table(n):
    t = np.linspace(0.0, 1.0, n)
    return freeze(t)
"""
        assert rules_of(src) == []

    def test_lru_class_factory_requires_freezing_init(self):
        bad = """
import numpy as np
from functools import lru_cache

class Tables:
    def __init__(self, n):
        self.t = np.linspace(0.0, 1.0, n)

@lru_cache(maxsize=4)
def tables(n):
    return Tables(n)
"""
        good = bad.replace(
            "self.t = np.linspace(0.0, 1.0, n)",
            "self.t = np.linspace(0.0, 1.0, n); freeze_attributes(self)")
        assert rules_of(bad) == ["frozen-table"]
        assert rules_of(good) == []

    def test_assert_and_bare_except_and_mutable_default(self):
        src = """
def f(x=[]):
    try:
        assert x
    except:
        pass
"""
        assert rules_of(src) == ["bare-except", "mutable-default",
                                 "no-assert"]


class TestSentinelSuppressRule:
    def test_blanket_except_around_sentinel_fires(self):
        src = """
def guarded(stepper, report, snapshot, sentinel):
    try:
        return sentinel.evaluate(stepper, report, snapshot)
    except Exception:
        return None
"""
        assert "sentinel-suppress" in rules_of(src)

    def test_bare_except_around_rollback_fires_both_rules(self):
        src = """
def rollback(stepper, snapshot):
    try:
        restore_state(stepper, snapshot)
    except:
        pass
"""
        assert rules_of(src) == ["bare-except", "sentinel-suppress"]

    def test_swallowed_step_rejection_fires(self):
        src = """
def drive(sim):
    try:
        capture_state(sim.stepper, sim.t)
        sim.step()
    except StepRejectedError:
        pass
"""
        assert rules_of(src) == ["sentinel-suppress"]

    def test_named_handling_with_recovery_passes(self):
        src = """
def drive(sim, log):
    try:
        capture_state(sim.stepper, sim.t)
        sim.step()
    except StepRejectedError as exc:
        log.error("step rejected: %s", exc.health)
        raise
"""
        assert rules_of(src) == []

    def test_catchall_without_sentinel_machinery_passes(self):
        src = """
def parse(text):
    try:
        return int(text)
    except Exception:
        return 0
"""
        assert rules_of(src) == []

    def test_suppression_comment_with_reason(self):
        src = """
def guarded(stepper, report, snapshot, sentinel):
    try:
        return sentinel.evaluate(stepper, report, snapshot)
    except Exception:  # repro-lint: disable=sentinel-suppress -- fuzz harness
        return None
"""
        assert rules_of(src) == []


class TestSuppressions:
    SRC = """
def f(x):
    assert x
"""

    def test_inline_suppression_with_reason(self):
        src = self.SRC.replace(
            "assert x",
            "assert x  # repro-lint: disable=no-assert — exercised by "
            "test fixtures only")
        assert rules_of(src) == []

    def test_standalone_suppression_covers_next_line(self):
        src = """
def f(x):
    # repro-lint: disable=no-assert — fixture
    assert x
"""
        assert rules_of(src) == []

    def test_missing_reason_is_itself_a_violation(self):
        src = self.SRC.replace(
            "assert x", "assert x  # repro-lint: disable=no-assert")
        assert rules_of(src) == ["bad-suppression", "no-assert"]

    def test_wrong_rule_does_not_suppress(self):
        src = self.SRC.replace(
            "assert x",
            "assert x  # repro-lint: disable=bare-except — wrong rule")
        assert rules_of(src) == ["no-assert"]

    def test_unknown_rule_is_a_bad_suppression(self):
        src = self.SRC.replace(
            "assert x",
            "assert x  # repro-lint: disable=no-assert,no-asert — typo")
        assert rules_of(src) == ["bad-suppression", "no-assert"]
        src = self.SRC.replace(
            "assert x",
            "assert x  # repro-lint: disable=picklable-task — removed rule")
        assert rules_of(src) == ["bad-suppression", "no-assert"]

    def test_leftover_float32_cast_suppression_is_bad(self):
        """The float32-cast rule is gone; a suppression still naming it
        is reported, and its literal cast no longer is."""
        src = """
import numpy as np

def f(x):
    return x.astype(np.float32)  # repro-lint: disable=float32-cast — old
"""
        assert rules_of(src) == ["bad-suppression"]


class TestGlobalMutablePass:
    def test_module_level_dict_literal_fires(self):
        assert rules_of("REGISTRY = {}\n") == ["global-mutable"]

    def test_module_level_list_and_constructor_fire(self):
        src = "cache = []\nseen = set()\n"
        assert lines_of(src, "global-mutable") == [1, 2]

    def test_annotated_assignment_fires(self):
        src = "from typing import Dict\nB: Dict[str, int] = {}\n"
        assert rules_of(src) == ["global-mutable"]

    def test_comprehension_fires(self):
        assert rules_of("squares = [i * i for i in range(4)]\n") == \
            ["global-mutable"]

    def test_immutable_module_state_passes(self):
        src = ("FACES = ((0, 1), (1, 0))\n"
               "NAMES = frozenset({'a', 'b'})\n"
               "LIMIT = 128\n")
        assert rules_of(src) == []

    def test_dunder_all_exempt(self):
        assert rules_of("__all__ = ['a', 'b']\n") == []

    def test_function_and_class_locals_pass(self):
        src = ("def f():\n    cache = {}\n    return cache\n"
               "class C:\n    def __init__(self):\n"
               "        self.seen = set()\n")
        assert rules_of(src) == []

    def test_suppression_with_reason(self):
        src = ("# repro-lint: disable=global-mutable — import-time "
               "registry, read-only afterwards\nREGISTRY = {}\n")
        assert rules_of(src) == []

    def test_warn_once_bug_shape_fires(self):
        """The exact shape of the bug this rule exists for: a module
        global seen-set shared by every simulation in the process."""
        src = ("_seen = set()\n"
               "def warn_once(key, message):\n"
               "    if key in _seen:\n"
               "        return False\n"
               "    _seen.add(key)\n"
               "    return True\n")
        assert lines_of(src, "global-mutable") == [1]


class TestAcceptance:
    def test_src_tree_is_clean(self):
        assert lint_paths([str(_ROOT / "src")]) == []

    def test_cli_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        dirty = tmp_path / "dirty.py"
        dirty.write_text("assert True\n")
        assert lint_main([str(clean)]) == 0
        assert lint_main([str(dirty)]) == 1
        out = capsys.readouterr().out
        assert "no-assert" in out

    def test_cli_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert out.split() == [
            "shared-write", "frozen-table", "no-assert", "bare-except",
            "mutable-default", "sentinel-suppress", "global-mutable",
            "bad-suppression"]
        for retired in ("contract-dtype", "picklable-task", "float32-cast"):
            assert retired not in out
