"""Which ``src/repro`` functions does the product run?  ``python scripts/census.py``

Under a ``sys.setprofile`` hook it runs the product's entry points (the golden
generator into a temporary directory, which runs the four ``perf/`` worlds at
smoke scale; nine ``repro`` CLI invocations; ``examples/*.py``), then the test
pass (``tests/``, ``benchmarks/`` in ``BENCH_QUICK`` mode, ``perf/``).  Each
function is ``product``, ``tests`` (only the test pass reached it) or ``never``.
Every non-product function and a summary table go to stdout, pytest's progress
to stderr.  A failing test still counts what it reached; a pass that stops
early fails the census.  A function is keyed by ``(file, co_firstlineno,
name)``: a decorated function or property by its first decorator's line.  A
nested function counts on its own, with its own lines.
"""

import ast
import contextlib
import importlib.util
import os
import runpy
import sys
import tempfile
import threading
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLI_RUNS = (
    ["fig1"], ["fig1", "--pipeline"], ["fig2", "--duration", "20"], ["qoe", "--duration", "20"],
    ["fig2", "--duration", "20", "--no-controller"], ["overhead"], ["optimality", "--seeds", "1"],
    ["lie-scaling", "--core-sizes", "4"], ["split-approx", "--samples", "20"],
)


def functions(root: Path) -> dict:
    """``(file, first line, name) -> own lines`` of every function under ``root``."""
    lines = {}
    for path in sorted(root.rglob("*.py")):
        owner = {}
        # ast.walk is breadth-first: a nested function comes later, taking its lines.
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                key = (str(path.resolve()), first, node.name)
                owner.update(dict.fromkeys(range(first, node.end_lineno + 1), key))
        lines.update(Counter(owner.values()))
    return lines


@contextlib.contextmanager
def recording():
    """Collect into the yielded set the key of every function called inside;
    a hook already installed (an enclosing census) is put back on exit."""
    codes, reached = {}, set()
    previous = sys.getprofile(), threading.getprofile()

    def hook(frame, event, arg):
        if event == "call":
            codes[id(frame.f_code)] = frame.f_code

    sys.setprofile(hook)
    threading.setprofile(hook)
    try:
        yield reached
    finally:
        sys.setprofile(previous[0])
        threading.setprofile(previous[1])
        reached.update((os.path.realpath(c.co_filename), c.co_firstlineno, c.co_name)
                       for c in codes.values())


def classify(lines: dict, product: set, tests: set) -> dict:
    return {k: "product" if k in product else "tests" if k in tests else "never" for k in lines}


def run_product() -> None:
    spec = importlib.util.spec_from_file_location("generate", ROOT / "tests/golden/generate.py")
    generate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generate)
    from repro import cli

    with tempfile.TemporaryDirectory() as tmp, open(os.devnull, "w") as sink, \
            contextlib.redirect_stdout(sink):
        generate.GOLDEN_DIR = Path(tmp)
        generate.main()
        for argv in CLI_RUNS:
            if cli.main(argv):
                raise SystemExit(f"repro {' '.join(argv)} failed")
        for script in sorted((ROOT / "examples").glob("*.py")):
            runpy.run_path(str(script), run_name="__main__")


def run_tests() -> None:
    import pytest

    os.environ["BENCH_QUICK"] = "1"
    with contextlib.redirect_stdout(sys.stderr):
        status = pytest.main(["-q", "-p", "no:cacheprovider", "tests", "benchmarks", "perf"])
    if status not in (0, 1):  # 1: some test failed; anything else: the pass did not finish
        raise SystemExit(f"the test pass stopped early (pytest exit status {status})")


def main() -> None:
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    lines = functions(ROOT / "src" / "repro")
    with recording() as product:
        run_product()
    with recording() as tests:
        run_tests()
    status = classify(lines, product, tests)
    for key in sorted(key for key in lines if status[key] != "product"):
        print(f"{status[key]:8} {lines[key]:5}  {os.path.relpath(key[0], ROOT)}:{key[1]} {key[2]}")
    print(f"\n{'':<8} {'functions':>9} {'lines':>6}")
    for name in ("product", "tests", "never"):
        keys = [key for key in lines if status[key] == name]
        print(f"{name:<8} {len(keys):>9} {sum(lines[key] for key in keys):>6}")


if __name__ == "__main__":
    main()
