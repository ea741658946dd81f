"""Half-space field sampling, path measures, contraction normalization."""

import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from spinhl.cli import INPUT_ERRORS
from spinhl.exact import CellBits, InvalidPath, ModelParams, RandomSource, anti_diagonals
from spinhl.field import (
    check_field_invariants,
    field_from_json,
    field_to_json,
    normalization,
    path_measure,
    sample_field,
    validate_path,
)
from spinhl.identities import cauchy_kernel
from spinhl.partitions import enumerate_partitions, interlaces
from spinhl.transitions import forward_distribution, boundary_forward_distribution


def test_sampled_fields_satisfy_invariants(params):
    for seed in range(6):
        field = sample_field(4, RandomSource(seed, 0), params)
        assert check_field_invariants(field)
        assert all(field[(0, j)] == () for j in range(5))


@pytest.mark.parametrize("field, message", [
    ({(0, 0): (), (0, 1): (1,)}, "boundary column not empty at (0, 1)"),
    ({(1, 1): (2,), (1, 2): (5, 3)}, "vertical interlacing fails at (1, 1)"),
    ({(1, 2): (2,), (2, 2): (5, 3)}, "horizontal interlacing fails at (1, 2)"),
    ({(0, 0): (), (0, 1): (), (1, 1): (0,)}, "not a partition at (1, 1): (0,)"),
    ({(0, 0): (), (0, 1): (), (1, 1): (-1,)}, "not a partition at (1, 1): (-1,)"),
    ({(1, 1): (5, 3), (1, 2): (2, 3)}, "not a partition at (1, 2): (2, 3)"),
    ({(0, 0): (), (5, 2): (1,)},
     "bad lattice data on cell (5, 2): cell (5, 2) is outside 0 <= i <= j"),
    ({(0, 0): (), (1, 1): (1,)}, "bad lattice data: cell (0, 1) of 0 <= i <= j <= 1 is missing"),
], ids=["pinned-column", "vertical", "horizontal", "zero-part", "negative-part", "increasing",
        "outside", "missing"])
def test_field_invariants_raise_on_each_violation(field, message):
    # (2,) does not interlace (5, 3) from below: 2 < 3.  The cells' partitions
    # are checked first (so (2, 3) is named, not the interlacing it breaks),
    # then the per-cell rules, and only then the lattice (exact.check_lattice)
    with pytest.raises(ValueError) as exc:
        check_field_invariants(field)
    assert str(exc.value) == message


def test_sample_field_deterministic_and_schedule_free(params):
    f1 = sample_field(3, RandomSource(9, 1), params)
    f2 = sample_field(3, RandomSource(9, 1), params)
    assert f1 == f2
    # sequential-stream mode gives a (generally different) but valid field
    f3 = sample_field(3, RandomSource(9, 1), params, per_cell_streams=False)
    assert check_field_invariants(f3)


def test_cell_draws_read_on_past_the_first_word(params, monkeypatch):
    # a cell given its first word reads it through exact.CellBits, and draws
    # that need more than its 63 bits read on in substream(i, j)
    import spinhl.field as field

    T, src, reads = 5, RandomSource(12, 3), []

    def reading(*args):  # stands in for both operators; rng is the last but one
        rng = args[-2]
        reads.append((type(rng), [rng.bit() for _ in range(150)]))
        return ()

    monkeypatch.setattr(field, "bulk_forward", reading)
    monkeypatch.setattr(field, "boundary_forward", reading)
    sample_field(T, src, params)
    cells = [src.substream(i, t - i) for t, lo, hi in anti_diagonals(T) for i in range(lo, hi + 1)]
    assert reads == [(CellBits, [cell.bit() for _ in range(150)]) for cell in cells]


def test_t1_corner_law(params):
    x0, x1 = params.x[0], params.x[1]
    dist, _ = boundary_forward_distribution((), (), x0, x1, params, 30)
    expect0 = (1 - x0 * x1) / (1 - params.q * x0 * x1)
    assert dist[()] == expect0
    # Monte Carlo cross-check on the field itself
    n = 4000
    hits = sum(
        1 for k in range(n)
        if sample_field(1, RandomSource(77, 0).substream(k), params)[(1, 1)] == ()
    )
    p = float(expect0)
    assert abs(hits - n * p) < 5 * (n * p * (1 - p)) ** 0.5


def test_field_json_round_trip(params):
    field = sample_field(3, RandomSource(5, 2), params)
    assert field_from_json(field_to_json(field)) == field


POINT = ModelParams.make("1/3", "-1/2", "1/2", [f"1/{i + 4}" for i in range(9)])


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**70), T=st.integers(0, 8), per_cell_streams=st.booleans())
def test_field_json_round_trip_is_the_identity(seed, T, per_cell_streams):
    field = sample_field(T, RandomSource(seed, 0), POINT, per_cell_streams)
    assert field_from_json(field_to_json(field)) == field


def _cells(*cells):
    return json.dumps({"cells": [{"i": i, "j": j, "parts": []} for i, j in cells]})


@pytest.mark.parametrize("text, where", [
    ("", "line 1"),
    ("{}", '"cells"'),
    ("[]", '"cells"'),
    ('{"cells": {}}', '"cells"'),
    ('{"cells":\n[1,', "line 2"),
    ('{"cells": [{"i": 0, "j": 0, "parts": []}, {"i": 1, "j": 1}]}', "cell 1"),
    ('{"cells": [{"i": 0, "j": 0, "parts": [1.5]}]}', "cell 0"),
    ('{"cells": [{"i": true, "j": 0, "parts": []}]}', "cell 0"),
    ('{"cells": [[0, 0]]}', "cell 0"),
    # cells that are not a lattice
    (_cells((0, 0), (0, 1), (1, 1), (0, 1)), r"cell 3: cell \(0, 1\) repeats cell 1"),
    (_cells((0, 0), (1, 0)), r"cell 1: cell \(1, 0\) is outside 0 <= i <= j"),
    (_cells((0, 0), (-1, 1)), r"cell 1: cell \(-1, 1\) is outside"),
    (_cells((0, -1)), r"cell 0: cell \(0, -1\) is outside"),
    (_cells((0, 0), (0, 1), (0, 2), (1, 2), (2, 2)), r"cell \(1, 1\) of 0 <= i <= j <= 2 is missing"),
    (_cells((0, 1), (1, 1)), r"cell \(0, 0\) of 0 <= i <= j <= 1 is missing"),
])
def test_field_json_reader_raises_an_input_error(text, where):
    with pytest.raises(INPUT_ERRORS, match=where):
        field_from_json(text)


def test_validate_path():
    validate_path([(2, 2), (1, 2), (1, 3), (0, 3)])
    with pytest.raises(InvalidPath):
        validate_path([(2, 1)])  # outside the half-space / not diagonal
    with pytest.raises(InvalidPath):
        validate_path([(2, 2), (2, 1)])  # illegal step
    with pytest.raises(InvalidPath):
        validate_path([(2, 2), (1, 2)])  # does not reach i = 0


def test_normalization_examples(params):
    x = params.x
    assert normalization([(0, 0)], params) == 1
    assert normalization([(1, 1), (0, 1)], params) == cauchy_kernel(x[0], x[1], params)
    got = normalization([(2, 2), (1, 2), (0, 2)], params)
    expect = (
        cauchy_kernel(x[1], x[2], params)
        * cauchy_kernel(x[0], x[2], params)
        * cauchy_kernel(x[0], x[1], params)
    )
    assert got == expect


def test_normalization_order_independence(params):
    # contract in randomized order and compare against the library value
    def contract_random(vs, rng):
        z = F(1)
        vs = list(vs)
        while not (len(vs) == 1 or vs[0][0] == 0):
            moves = []
            n = vs[0][0]
            if vs[1][0] == n - 1:
                moves.append(("b", None))
            for idx in range(1, len(vs) - 1):
                (a0, b0), (a1, b1), (a2, b2) = vs[idx - 1], vs[idx], vs[idx + 1]
                if b1 == b0 + 1 and a2 == a1 - 1:
                    moves.append(("a", idx))
            kind, idx = moves[rng.randrange(len(moves))]
            if kind == "b":
                z *= cauchy_kernel(params.spectral(n - 1), params.spectral(n), params)
                vs = [(n - 1, n - 1)] + vs[1:]
            else:
                a1, b1 = vs[idx]
                z *= cauchy_kernel(params.spectral(a1 - 1), params.spectral(b1), params)
                vs = vs[:idx] + [(a1 - 1, b1 - 1)] + vs[idx + 1:]
        return z

    paths = [
        [(3, 3), (2, 3), (1, 3), (1, 4), (0, 4)],
        [(2, 2), (2, 3), (1, 3), (0, 3), (0, 4)],
        [(4, 4), (3, 4), (2, 4), (1, 4), (0, 4)],
        [(3, 3), (3, 4), (2, 4), (2, 5), (1, 5), (0, 5)],
    ]
    rng = random.Random(2)
    for vs in paths:
        expect = normalization(vs, params)
        for _ in range(12):
            assert contract_random(vs, rng) == expect


def all_caudate_paths(max_n, max_j):
    """Every caudate zigzag path with anchor (n, n), n <= max_n, staying below row max_j."""
    out = []

    def rec(vs):
        i, j = vs[-1]
        if i == 0:
            out.append(list(vs))
            return
        if i - 1 >= 0:
            rec(vs + [(i - 1, j)])
        if j + 1 <= max_j:
            rec(vs + [(i, j + 1)])

    for n in range(max_n + 1):
        rec([(n, n)])
    return out


def test_normalization_confluence_exhaustive(params):
    # every contraction order of every small path yields the same constant
    from spinhl.identities import cauchy_kernel as kern

    memo = {}

    def z_all_orders(vs):
        key = tuple(vs)
        if key in memo:
            return memo[key]
        if len(vs) == 1 or vs[0][0] == 0:
            memo[key] = F(1)
            return memo[key]
        results = set()
        n = vs[0][0]
        if vs[1][0] == n - 1:
            results.add(
                kern(params.spectral(n - 1), params.spectral(n), params)
                * z_all_orders([(n - 1, n - 1)] + vs[1:])
            )
        for idx in range(1, len(vs) - 1):
            (a0, b0), (a1, b1), (a2, b2) = vs[idx - 1], vs[idx], vs[idx + 1]
            if b1 == b0 + 1 and a2 == a1 - 1:
                results.add(
                    kern(params.spectral(a1 - 1), params.spectral(b1), params)
                    * z_all_orders(vs[:idx] + [(a1 - 1, b1 - 1)] + vs[idx + 1:])
                )
        assert len(results) == 1, vs
        memo[key] = results.pop()
        return memo[key]

    count = 0
    for vs in all_caudate_paths(3, 5):
        assert z_all_orders(vs) == normalization(vs, params)
        count += 1
    assert count == 26  # all caudate paths with anchor n <= 3 inside rows <= 5


def test_hook_measure_sums_to_one(params):
    x0, x1 = params.x[0], params.x[1]
    hook = [(1, 1), (0, 1)]
    total = F(0)
    for lam in enumerate_partitions(30, 1):
        total += path_measure(hook, {(1, 1): lam, (0, 1): ()}, params)
    # certified residual: the terms decay geometrically with the pair ratio
    from spinhl.exact import convergence_ratio

    r = convergence_ratio(x0, x1, params)
    last = path_measure(hook, {(1, 1): (30,), (0, 1): ()}, params)
    assert abs(total - 1) <= last * r / (1 - r)


def test_hook_measure_matches_sampler_law(params):
    x0, x1 = params.x[0], params.x[1]
    hook = [(1, 1), (0, 1)]
    dist, _ = boundary_forward_distribution((), (), x0, x1, params, 25)
    for lam in enumerate_partitions(6, 1):
        pm = path_measure(hook, {(1, 1): lam, (0, 1): ()}, params)
        assert pm == dist.get(lam, F(0))


def test_path_measure_trivial_and_errors(params):
    assert path_measure([(0, 0)], {(0, 0): ()}, params) == 1
    with pytest.raises(InvalidPath):
        path_measure([(1, 1), (0, 1)], {(1, 1): ()}, params)  # missing assignment
    with pytest.raises(InvalidPath):
        path_measure([(1, 1), (0, 1)], {(1, 1): (), (0, 1): (1,)}, params)


def test_deformation_marginalization(params):
    # summing the corner variable of the longer path reproduces the shorter
    # path's measure times the contraction kernel (exactly, via the
    # certified truncation on both sides)
    x = params.x
    long_path = [(1, 1), (1, 2), (0, 2)]  # corner at (1, 2)
    short_path = [(1, 1), (0, 1), (0, 2)]
    kern = cauchy_kernel(x[0], x[2], params)
    for lam11 in enumerate_partitions(2, 1):
        lhs = F(0)
        for lam12 in enumerate_partitions(40, 2):
            if not interlaces(lam11, lam12):
                continue
            lhs += path_measure(
                long_path, {(1, 1): lam11, (1, 2): lam12, (0, 2): ()}, params,
                normalize=False,
            )
        rhs = kern * path_measure(
            short_path, {(1, 1): lam11, (0, 1): (), (0, 2): ()}, params,
            normalize=False,
        )
        # geometric residual certificate for the truncated corner sum
        from spinhl.exact import convergence_ratio

        r = convergence_ratio(x[0], x[2], params)
        tail_probe = path_measure(
            long_path, {(1, 1): lam11, (1, 2): (40,), (0, 2): ()}, params,
            normalize=False,
        )
        assert abs(lhs - rhs) <= tail_probe * r / (1 - r) * 4


def test_field_marginal_matches_path_measure(params):
    # the exact joint law of (lam^{(1,1)}, lam^{(1,2)}) under the sweep equals
    # the caudate path measure on [(1,1),(1,2),(0,2)] exactly: the boundary
    # law at (1,1) composed with the bulk kernel at (1,2)
    x = params.x
    path = [(1, 1), (1, 2), (0, 2)]
    law11, _ = boundary_forward_distribution((), (), x[0], x[1], params, 12)
    checked = 0
    for lam11, p11 in law11.items():
        cond, _ = forward_distribution((), lam11, (), x[0], x[2], params, 14)
        for lam12, p12 in cond.items():
            pm = path_measure(path, {(1, 1): lam11, (1, 2): lam12, (0, 2): ()}, params)
            assert pm == p11 * p12, (lam11, lam12)
            checked += 1
    assert checked > 100


def test_staircase_marginal_matches_path_measure(params):
    # the deepest marginal consistency at T = 2: marginalizing the interior
    # cell of the sweep reproduces the zigzag measure on the staircase
    # through (2,2), including a nontrivial conjugate-even step on the
    # diagonal; the interior sum is finite, so equality is exact
    x = params.x
    path = [(2, 2), (1, 2), (0, 2)]
    law11, _ = boundary_forward_distribution((), (), x[0], x[1], params, 7)
    marginal = {}
    for lam11, p11 in law11.items():
        cond12, _ = forward_distribution((), lam11, (), x[0], x[2], params, 7)
        for lam12, p12 in cond12.items():
            cond22, _ = boundary_forward_distribution(lam11, lam12, x[1], x[2], params, 9)
            for lam22, p22 in cond22.items():
                key = (lam12, lam22)
                marginal[key] = marginal.get(key, F(0)) + p11 * p12 * p22
    checked = 0
    for (lam12, lam22), p in sorted(marginal.items()):
        pm = path_measure(path, {(2, 2): lam22, (1, 2): lam12, (0, 2): ()}, params)
        assert pm == p, (lam12, lam22)
        checked += 1
    assert checked > 100
