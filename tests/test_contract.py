"""The robustness contract: no runtime asserts, and every package error has an exit code."""

import ast
import inspect
import pathlib

from spinhl import exact
from spinhl.cli import INPUT_ERRORS

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "spinhl"


def test_no_assert_statements_in_the_package():
    # python -O strips asserts, so nothing that must hold at runtime may be one
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_every_package_exception_maps_to_exit_2():
    # ConfigError exits 2 as a config error, INPUT_ERRORS as parameter errors
    defined = [
        cls for _, cls in inspect.getmembers(exact, inspect.isclass)
        if issubclass(cls, Exception) and cls.__module__ == exact.__name__
    ]
    assert exact.ConfigError in defined and len(defined) > 1
    assert [c for c in defined if c is not exact.ConfigError and c not in INPUT_ERRORS] == []
