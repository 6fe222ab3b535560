"""The call census's recorder and matcher on a package written here."""
import importlib
import pathlib
import sys

_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(_ROOT / "tools"))

from call_census import classify, record_calls          # noqa: E402

SOURCE = '''\
class Cell:
    @property
    def area(self):
        return 1.0


def outer():
    def inner():
        return 2
    return inner()


def only_tests():
    return 3


def never():
    return 4
'''


def test_four_classes(tmp_path, monkeypatch):
    """A decorated function is matched on its decorator's line
    (``co_firstlineno``); matched on its ``def`` line, ``area`` would
    land in "never" although both sources read it."""
    root = tmp_path.resolve() / "census_fixture"
    root.mkdir()
    (root / "__init__.py").write_text("")
    (root / "mod.py").write_text(SOURCE)
    monkeypatch.syspath_prepend(str(root.parent))
    mod = importlib.import_module("census_fixture.mod")
    before = sys.gettrace()
    try:
        with record_calls(str(root)) as tests:
            assert mod.Cell().area == 1.0
            assert mod.only_tests() == 3
        with record_calls(str(root)) as scenes:
            assert mod.Cell().area == 1.0
            assert mod.outer() == 2
    finally:
        del sys.modules["census_fixture.mod"], sys.modules["census_fixture"]
    assert sys.gettrace() is before
    names = {name: [key[2] for key in keys] for name, keys
             in classify(str(root), tests, scenes).items()}
    assert names == {"never": ["never"], "tests only": ["only_tests"],
                     "scenes only": ["outer", "inner"], "both": ["area"]}
