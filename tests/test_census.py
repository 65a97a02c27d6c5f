"""The rules of ``scripts/census.py``, pinned on a toy module."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

TOY = '''\
import functools


def decorate(function):
    @functools.wraps(function)
    def wrapper(*args):
        return function(*args)
    return wrapper


@decorate
def decorated():
    return 1


class Box:
    @property
    def size(self):
        return 2


def outer():
    def inner():
        return 3
    return inner()


def tested_only():
    return 4


def never_called():
    return 5
'''


def load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


census = load(ROOT / "scripts" / "census.py", "census")


@pytest.fixture
def toy(tmp_path):
    path = tmp_path / "toy.py"
    path.write_text(TOY)
    module = load(path, "toy")
    lines = census.functions(tmp_path)
    with census.recording() as product:
        module.decorated()
        module.Box().size
        module.outer()
    with census.recording() as tests:
        module.decorated()
        module.tested_only()
    status = census.classify(lines, product, tests)
    keys = {key[2]: key for key in lines}
    return TOY.splitlines(), lines, {name: status[key] for name, key in keys.items()}, keys


def line_of(source, text):
    return source.index(text) + 1


def test_decorated_function_and_property_are_keyed_by_their_decorator(toy):
    source, _, status, keys = toy
    assert keys["decorated"][1] == line_of(source, "@decorate")
    assert keys["size"][1] == line_of(source, "    @property")
    assert status["decorated"] == status["size"] == "product"


def test_nested_function_is_counted_on_its_own(toy):
    _, lines, status, keys = toy
    assert status["inner"] == status["outer"] == "product"
    assert lines[keys["inner"]] == 2
    assert lines[keys["outer"]] == 2  # its other two lines are inner's


def test_function_called_only_under_the_test_pass_is_tests(toy):
    _, _, status, _ = toy
    assert status["tested_only"] == "tests"


def test_function_never_called_is_never(toy):
    _, _, status, _ = toy
    assert status["never_called"] == "never"
    # ``decorate`` ran at import, outside both passes.
    assert status["decorate"] == "never"
