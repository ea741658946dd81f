"""The five weight tables: frozen values, conservation, stochasticity."""

import itertools
from fractions import Fraction as F

import pytest

from spinhl.exact import InvalidParams, ModelParams
from spinhl.identities import cauchy_kernel
from spinhl.weights import (
    INF, L, L_TABLE, M, M_TABLE, MSTAR_TABLE, Mstar, R, R_SLOTS, RSTAR_SLOTS, Rstar, VertexRow,
)


X = F(1, 4)
Y = F(1, 5)


def test_L_examples(params):
    q, s = params.q, params.s
    assert L(0, 0, 0, 0, X, params) == 1
    for I in range(5):
        assert L(I, 0, I, 0, X, params) == (1 - s * X * q**I) / (1 - s * X)
    # hand value: (x - s q^2)/(1 - s x) at (1/3, -1/2, 1/4)
    assert L(2, 1, 2, 1, X, params) == F(22, 81)


def test_M_examples(params):
    q, s = params.q, params.s
    assert M(0, 1, 0, 1, X, params) == 1
    assert M(0, 1, 1, 0, X, params) == X * (1 - q) / (1 - s * X)
    zero_s = ModelParams.make(params.q, 0)
    assert M(0, 0, 0, 0, X, zero_s) == X


def test_Mstar_examples(params):
    q, s = params.q, params.s
    assert Mstar(0, 0, 0, 0, X, params) == 1
    for I in range(4):
        assert Mstar(I + 1, 1, I, 0, X, params) == (1 - s * s * q**I) / (1 - s * X)
    # column-0 sentinel: weight x^l for any incoming bit
    for j in (0, 1):
        for l in (0, 1):
            assert Mstar(INF, j, INF, l, X, params) == X**l
            assert L(INF, j, INF, l, X, params) == X**l


def test_zero_spin_frozen_values(params):
    zero_s = ModelParams.make(params.q, 0)
    q = params.q
    for I in range(5):
        assert L(I, 1, I + 1, 0, X, zero_s) == 1 - q ** (I + 1)
        assert M(I, 1, I + 1, 0, X, zero_s) == X * (1 - q ** (I + 1))


def test_row_tables_conserve(params):
    for I in range(5):
        for K in range(5):
            for j in (0, 1):
                for l in (0, 1):
                    if L(I, j, K, l, X, params) != 0:
                        assert I + j == K + l
                    if M(I, j, K, l, X, params) != 0:
                        assert I + j == K + l
                    if Mstar(I, j, K, l, X, params) != 0:
                        assert K + j == I + l


def test_tables_total_off_table_zero(params):
    assert L(0, 0, 3, 1, X, params) == 0
    assert M(2, 1, 0, 0, X, params) == 0
    assert Mstar(0, 1, 3, 0, X, params) == 0
    assert L(0, 2, 0, 2, X, params) == 0  # horizontal multiplicity > 1
    assert R(0, 0, 1, 1, X, Y, params) == 0  # conservation
    assert L(-1, 0, -1, 0, X, params) == 0


def test_R_examples(params):
    q = params.q
    assert R(0, 1, 0, 1, X, Y, params) == (1 - X * Y) / (1 - q * X * Y)
    assert R(1, 0, 1, 0, X, Y, params) == q * (1 - X * Y) / (1 - q * X * Y)
    assert R(0, 0, 0, 0, X, Y, params) == 1
    assert R(1, 1, 1, 1, X, Y, params) == 1


def test_R_stochastic(all_points):
    for params in all_points:
        for i in (0, 1):
            for j in (0, 1):
                total = sum(R(i, j, k, l, X, Y, params) for k in (0, 1) for l in (0, 1))
                assert total == 1


def test_Rstar_examples(params):
    q = params.q
    assert Rstar(1, 1, 1, 1, X, Y, params) == q
    assert Rstar(0, 0, 0, 0, X, Y, params) == 1
    assert Rstar(1, 0, 1, 0, X, Y, params) == (1 - q * X * Y) / (1 - X * Y)
    assert Rstar(1, 1, 0, 0, X, Y, params) == (1 - q) / (1 - X * Y)
    assert Rstar(0, 0, 1, 1, X, Y, params) == (1 - q) * X * Y / (1 - X * Y)
    # conservation of the difference i - j
    for i in (0, 1):
        for j in (0, 1):
            for k in (0, 1):
                for l in (0, 1):
                    if Rstar(i, j, k, l, X, Y, params) != 0:
                        assert i - j == k - l


def test_Rstar_nonnegative_probabilistic(all_points):
    for params in all_points:
        for x in (F(0), F(1, 8), F(1, 3), F(2, 5)):
            for y in (F(0), F(1, 9), F(1, 2)):
                for i in (0, 1):
                    for j in (0, 1):
                        for k in (0, 1):
                            for l in (0, 1):
                                assert Rstar(i, j, k, l, x, y, params) >= 0


def test_denominator_guards():
    p = ModelParams.make("1/3", 2)
    with pytest.raises(InvalidParams):
        L(0, 0, 0, 0, F(1, 2), p)  # 1 - sx = 0
    p2 = ModelParams.make(4, "-1/2")
    with pytest.raises(InvalidParams):
        R(0, 1, 0, 1, F(1, 2), F(1, 2), p2)  # 1 - qxy = 0
    # the crossing vertices check their denominator before the entry lookup
    with pytest.raises(InvalidParams, match="1 - q x y vanished"):
        R(0, 0, 1, 1, F(1, 2), F(1, 2), p2)
    for entry in ((1, 1, 1, 1), (0, 1, 1, 0)):
        with pytest.raises(InvalidParams, match="1 - x y vanished"):
            Rstar(*entry, F(2), F(1, 2), p2)
    assert R(2, 0, 0, 0, F(1, 2), F(1, 2), p2) == Rstar(0, 0, 0, 2, F(2), F(1, 2), p2) == 0


def test_crossing_entries_are_fractions(all_points):
    # each entry comes alone, as the reduced Fraction of its closed form
    for params in all_points:
        q = params.q
        for x, y in ((X, Y), (F(0), F(2, 3)), (F(3, 7), F(5, 11)), (F(2), F(5, 3))):
            den, dstar = 1 - q * x * y, 1 - x * y
            expect_r = {
                (0, 0, 0, 0): 1, (1, 1, 1, 1): 1,
                (1, 0, 1, 0): q * (1 - x * y) / den, (1, 0, 0, 1): (1 - q) / den,
                (0, 1, 0, 1): (1 - x * y) / den, (0, 1, 1, 0): (1 - q) * x * y / den,
            }
            expect_rstar = {
                (0, 0, 0, 0): 1, (1, 1, 1, 1): q,
                (1, 0, 1, 0): (1 - q * x * y) / dstar, (0, 1, 0, 1): (1 - q * x * y) / dstar,
                (1, 1, 0, 0): (1 - q) / dstar, (0, 0, 1, 1): (1 - q) * x * y / dstar,
            }
            for entry in itertools.product((0, 1), repeat=4):
                for fn, expect in ((R, expect_r), (Rstar, expect_rstar)):
                    got = fn(*entry, x, y, params)
                    assert type(got) is F and got == expect.get(entry, 0), (fn.__name__, entry)


def test_rstar_is_the_cauchy_kernel_times_r(all_points):
    # RSTAR and Pi(x; y) are read off R's row: each RSTAR entry is Pi(x; y)
    # times the R entry of the same r_row slot, also in identity mode at
    # x y > 1, where the kernel's denominator 1 - x y is negative
    r_entry = {slot: entry for entry, slot in R_SLOTS.items()}
    for params in (*all_points, ModelParams.make(3, "1/2")):
        for x, y in ((X, Y), (F(0), F(2, 3)), (F(2), F(5, 3)), (F(3), F(1, 2))):
            kern = cauchy_kernel(x, y, params)
            assert type(kern) is F and kern == (1 - params.q * x * y) / (1 - x * y)
            for entry, slot in RSTAR_SLOTS.items():
                assert Rstar(*entry, x, y, params) == kern * R(*r_entry[slot], x, y, params)
    for x, y in ((F(2), F(1, 2)), (F(3, 4), F(4, 3))):
        with pytest.raises(InvalidParams, match=r"^1 - x y vanished in Cauchy kernel$"):
            cauchy_kernel(x, y, all_points[0])


def test_vertex_row_numerators_at_any_exponent(all_points):
    # num(table, I, j, K, l, e) / (base qd^e) is the entry for every e >= max(I, K)
    for params in all_points:
        for v in (X, F(0), F(5, 6)):
            row = VertexRow(v, params)
            for table, fn in ((L_TABLE, L), (M_TABLE, M), (MSTAR_TABLE, Mstar)):
                for I, K in itertools.product(range(5), repeat=2):
                    for j, l in itertools.product((0, 1), repeat=2):
                        for e in range(max(I, K), max(I, K) + 3):
                            num = row.num(table, I, j, K, l, e)
                            assert F(num, row.base * row.qd**e) == fn(I, j, K, l, v, params)
                    assert F(row.num(table, INF, I % 2, INF, K % 2, 0), row.vd) == v ** (K % 2)
