"""The five weight tables: frozen values, conservation, stochasticity."""

from fractions import Fraction as F

import pytest

from spinhl.exact import InvalidParams, ModelParams
from spinhl.weights import INF, L, M, Mstar, R, Rstar


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
