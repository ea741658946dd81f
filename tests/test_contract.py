"""The robustness contract: no runtime asserts, an exit code per error, benchmark imports resolve."""

import ast
import importlib
import inspect
import pathlib

from spinhl import exact
from spinhl.cli import INPUT_ERRORS

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "spinhl"


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


def test_benchmark_imports_resolve():
    # perfbench's own tests run outside tier-1; a renamed package function would break it unseen
    missing, seen = [], 0
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "spinhl":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    seen += 1
                    if not hasattr(module, alias.name):
                        try:
                            importlib.import_module(f"{node.module}.{alias.name}")
                        except ImportError:
                            missing.append(f"{path.name}:{node.lineno} {node.module}.{alias.name}")
    assert seen and missing == []
