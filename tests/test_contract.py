"""The robustness contract: no runtime asserts, an exit code per error, benchmark imports resolve."""

import ast
import importlib
import inspect
import pathlib

import pytest

from spinhl import exact
from spinhl.cli import INPUT_ERRORS
from spinhl.ds6v import ds6v_sample, particle_trajectory
from spinhl.exact import RandomSource
from spinhl.field import sample_field

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


def test_benchmark_spans_each_check_once():
    # the traced verify wraps every callable identities.check_* in a span named
    # after it ("_" -> "-") and reads CHECKS' spans; a check_* helper called by
    # another check would nest spans and move check time into cli.verify_overhead_s
    from spinhl import identities

    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    checks = [ast.literal_eval(node.value) for node in tree.body
              if isinstance(node, ast.Assign)
              and [getattr(t, "id", None) for t in node.targets] == ["CHECKS"]]
    assert len(checks) == 1
    names = [attr[len("check_"):].replace("_", "-") for attr in dir(identities)
             if attr.startswith("check_") and callable(getattr(identities, attr))]
    assert sorted(names) == sorted(checks[0]) and len(set(checks[0])) == len(checks[0])


class _DuckBits:
    """A bit source with only bit() and substream(*key), as the samplers promise to need."""

    def __init__(self, inner, calls):
        self._inner = inner
        self._calls = calls

    def bit(self):
        return self._inner.bit()

    def substream(self, *key):
        self._calls.append(key)
        return _DuckBits(self._inner.substream(*key), self._calls)


@pytest.mark.parametrize("sampler, T", [(sample_field, 8), (ds6v_sample, 12)],
                         ids=["field", "ds6v"])
def test_duck_typed_bit_sources_get_one_substream_per_cell(params, sampler, T):
    # a RandomSource seeds its cells in bands; any other source is asked per cell
    calls = []
    bare = sampler(T, RandomSource(21, 4), params)
    assert sampler(T, _DuckBits(RandomSource(21, 4), calls), params) == bare
    assert sorted(calls) == sorted((i, j) for j in range(1, T + 1) for i in range(1, j + 1))
    calls.clear()
    seq = sampler(T, _DuckBits(RandomSource(21, 4), calls), params, per_cell_streams=False)
    assert seq == sampler(T, RandomSource(21, 4), params, per_cell_streams=False)
    assert calls == []


class _CountingBits:
    """A bit source with only bit() and substream(*key), counting the bits of all its streams."""

    def __init__(self, inner, counts):
        self._inner = inner
        self.counts = counts

    def bit(self):
        self.counts["bits"] += 1
        return self._inner.bit()

    def substream(self, *key):
        self.counts["substreams"] += 1
        return _CountingBits(self._inner.substream(*key), self.counts)


@pytest.mark.parametrize("run", [
    lambda rng, p: sample_field(8, rng, p),
    lambda rng, p: sample_field(8, rng, p, per_cell_streams=False),
    lambda rng, p: ds6v_sample(14, rng, p),
    lambda rng, p: ds6v_sample(14, rng, p, per_cell_streams=False),
    lambda rng, p: particle_trajectory(18, rng, p),
], ids=["field-cell", "field-seq", "ds6v-cell", "ds6v-seq", "particles"])
def test_a_counting_bit_source_gets_the_same_draws(params, run):
    # the bit-by-bit draw on the wrapper reads the bits the word kernel reads from a
    # RandomSource, so the outputs agree and both streams go on in step
    counts = {"bits": 0, "substreams": 0}
    bare, inner = RandomSource(30, 2), RandomSource(30, 2)
    wrapped = _CountingBits(inner, counts)
    assert run(wrapped, params) == run(bare, params)
    assert counts["bits"] + counts["substreams"] > 0
    assert [inner.bit() for _ in range(130)] == [bare.bit() for _ in range(130)]
