"""Call census: which functions under ``src/repro`` only tests reach.

    python tools/call_census.py

Tier-1 (through pytest) is the tests source; ``bench/child.py <w> --seed
0 --timed 3`` for the four workloads (untraced, ``bench/run.py``'s pinned
environment) and every ``examples/*.py`` are the scenes. Each runs in its
own interpreter under a ``sys.settrace`` / ``threading.settrace`` hook
that returns ``None`` and keeps ``(co_filename, co_firstlineno,
co_name)``; an ``ast`` walk matches every ``def`` to those keys, a
decorated one on its first decorator's line (``co_firstlineno`` on
Python >= 3.8). Prints the counts and per-file lists of four classes.
Limit: a function run only in a process-pool child or another subprocess
is not seen.
"""
import ast
import contextlib
import glob
import json
import os
import runpy
import subprocess
import sys
import tempfile
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")
WORKLOADS = ("freespace6_direct", "vessel_capsule2", "lattice64_fmm",
             "sweep_mixed24")
#: bench/child.py refuses to measure under any other environment
BENCH_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
CLASSES = ("never", "tests only", "scenes only", "both")


@contextlib.contextmanager
def record_calls(root: str):
    """Yield the ``(file, first line, name)`` keys entered under ``root``."""
    root, seen = os.path.realpath(root) + os.sep, set()

    def hook(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(root):
            seen.add((code.co_filename, code.co_firstlineno, code.co_name))
    old, old_thread = sys.gettrace(), threading.gettrace()
    sys.settrace(hook)
    threading.settrace(hook)
    try:
        yield seen
    finally:
        sys.settrace(old)
        threading.settrace(old_thread)


def defs(root: str) -> dict:
    """``(file, key line, name) -> line count`` of each ``def`` in ``root``."""
    out = {}
    for path in glob.glob(f"{os.path.realpath(root)}/**/*.py", recursive=True):
        with open(path) as fh:
            for node in ast.walk(ast.parse(fh.read(), path)):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    line = min([node.lineno] +
                               [d.lineno for d in node.decorator_list])
                    out[(path, line, node.name)] = node.end_lineno - line + 1
    return out


def classify(root: str, tests: set, scenes: set) -> dict:
    """Class name -> sorted keys of the ``def``s under ``root``."""
    out = {c: [] for c in CLASSES}
    for key in sorted(defs(root)):
        out[CLASSES[(key in tests) + 2 * (key in scenes)]].append(key)
    return out


def _record(argv: list, out: str) -> None:
    """Child side: run ``argv`` as ``__main__`` under the hook."""
    sys.path.insert(0, os.path.dirname(argv[0]))
    sys.argv = list(argv)
    run = runpy.run_path if argv[0].endswith(".py") else runpy.run_module
    with record_calls(PACKAGE) as seen, contextlib.suppress(SystemExit):
        run(argv[0], run_name="__main__")
    with open(out, "w") as fh:
        json.dump(sorted(seen), fh)


def main() -> None:
    child = os.path.join(ROOT, "bench", "child.py")
    runs = ([(["pytest", "-q", "-p", "no:cacheprovider"], {})]
            + [([child, w, "--seed", "0", "--timed", "3"], BENCH_ENV)
               for w in WORKLOADS]
            + [([p], {}) for p in sorted(glob.glob(f"{ROOT}/examples/*.py"))])
    seen = [set(), set()]           # tests, scenes
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [SRC, os.path.dirname(os.path.abspath(__file__))])}
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "calls.json")
        for argv, extra in runs:
            print("recording", *argv, file=sys.stderr, flush=True)
            code = f"import call_census; call_census._record({argv!r}, {out!r})"
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                           env={**env, **extra}, stdout=subprocess.DEVNULL)
            with open(out) as fh:
                seen[argv[0] != "pytest"] |= {tuple(k) for k in json.load(fh)}
    sizes = defs(PACKAGE)
    for name, keys in classify(PACKAGE, *seen).items():
        by_file = {}
        for path, line, func in keys:
            by_file.setdefault(os.path.relpath(path, SRC), []).append(
                f"{func}:{line}")
        print(f"== {name}: {len(keys)} of {len(sizes)} functions, "
              f"{sum(sizes[k] for k in keys)} lines", *(
                  f"{f}: {' '.join(v)}" for f, v in sorted(by_file.items())),
              "", sep="\n")


if __name__ == "__main__":
    main()
