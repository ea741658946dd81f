"""Identity verifier: local equations exactly, global sums with certified tails."""

import itertools
import math
import random
import re
from fractions import Fraction as F

import pytest

from spinhl.exact import (
    DegenerateVandermonde,
    DimensionMismatch,
    InvalidParams,
    ModelParams,
    NotAdmissible,
    ONE,
    ZERO,
    convergence_ratio,
    default_spectral,
)
from spinhl import identities, weights
from spinhl.identities import (
    FIXTURE_POINTS,
    CheckReport,
    cauchy_kernel,
    check_cauchy_closed_form,
    check_intertwining,
    check_intertwining_star,
    check_r_stochastic,
    check_reflection,
    check_refined_cauchy,
    check_refined_littlewood,
    check_skew_cauchy,
    check_skew_littlewood,
    det_exact,
    exact_tail,
    intertwining_sides,
    intertwining_star_sides,
    pfaffian_exact,
    refined_cauchy_rhs,
    refined_littlewood_rhs,
    reflection_sides,
    run_suite,
)
from spinhl.partitions import (enumerate_partitions, even_cover, even_pair_coefficient,
                               interlacing_below, is_conjugate_even, pairing_factor)
from spinhl.sshl import column_sums, f_one_row, g_skew, tail_weight
from spinhl.transitions import p_bwd, p_fwd
from spinhl.weights import INF, L, M, Mstar, R, Rstar


X = F(1, 4)
Y = F(1, 5)


def test_intertwining_conservation_and_trivial_case(params):
    # net conservation violated (2 paths in, none out): both sides vanish
    lhs, rhs = intertwining_sides(2, 0, 0, 0, 0, 0, X, Y, params)
    assert lhs == rhs == 0
    # all-zero boundary with I=J=0: single empty configuration each side
    lhs, rhs = intertwining_sides(0, 0, 0, 0, 0, 0, X, Y, params)
    expect = (Y - params.s) / (1 - params.s * Y)
    assert lhs == rhs == expect


def test_intertwining_sweeps(all_points):
    for params in all_points:
        assert check_intertwining(params, X, Y, max_occ=6).passed
        assert check_intertwining_star(params, X, Y, max_occ=6).passed


def test_intertwining_star_trivial(params):
    lhs, rhs = intertwining_star_sides(0, 0, 0, 0, 0, 0, X, Y, params)
    assert lhs == rhs == 1
    # conservation-violating boundary vanishes on both sides
    lhs, rhs = intertwining_star_sides(1, 0, 0, 0, 0, 1, X, Y, params)
    assert lhs == rhs == 0


def test_intertwining_star_at_column_0(all_points):
    # both occupancies INF, as at the field's column 0: the sides are the
    # totals of the column's A and B weights (from the Fraction vertex
    # weights here), and each weight over its side is p_bwd's or p_fwd's
    for params in all_points:
        for bits in range(16):
            ip, jp, k, l = b = ((bits >> 3) & 1, (bits >> 2) & 1, (bits >> 1) & 1, bits & 1)
            lhs, rhs = intertwining_star_sides(INF, INF, *b, X, Y, params)
            assert lhs == rhs, b
            wa = {(a, c, INF): Mstar(INF, c, INF, l, X, params) * L(INF, a, INF, k, Y, params)
                  * Rstar(ip, jp, a, c, X, Y, params) for a in (0, 1) for c in (0, 1)}
            wb = {(a, c, INF): L(INF, ip, INF, a, Y, params) * Mstar(INF, jp, INF, c, X, params)
                  * Rstar(a, c, k, l, X, Y, params) for a in (0, 1) for c in (0, 1)}
            assert (lhs, rhs) == (sum(wa.values()), sum(wb.values())), b
            for side, table, w in ((lhs, p_bwd, wa), (rhs, p_fwd, wb)):
                assert {o: p * side for o, p in table(INF, INF, *b, X, Y, params)
                        .as_dict().items()} == {o: v for o, v in w.items() if v}, b


@pytest.mark.parametrize("I, J", [(INF, 0), (3, INF)])
def test_intertwining_star_rejects_one_inf_occupancy(params, I, J):
    with pytest.raises(InvalidParams):
        intertwining_star_sides(I, J, 1, 0, 0, 0, X, Y, params)


# The exchange relations from the Fraction vertex weights: the reference
# the integer checks are compared against, case by case and report by report.

def oracle_intertwining_sides(I, J, i1, i3, j1, j3, x, y, params):
    lhs = ZERO
    for k1 in (0, 1):
        for k3 in (0, 1):
            K = I + k1 - j1
            if K < 0 or K != J + j3 - k3:
                continue
            lhs += (
                R(i3, i1, k3, k1, x, y, params)
                * M(I, k1, K, j1, y, params)
                * L(K, k3, J, j3, x, params)
            )
    rhs = ZERO
    for k1 in (0, 1):
        for k3 in (0, 1):
            K = I + i3 - k3
            if K < 0 or K != J + k1 - i1:
                continue
            rhs += (
                L(I, i3, K, k3, x, params)
                * M(K, i1, J, k1, y, params)
                * R(k3, k1, j3, j1, x, y, params)
            )
    return lhs, rhs


def oracle_intertwining_star_sides(I, J, i_in, j_in, k_out, l_out, x, y, params):
    lhs = ZERO
    for k_p in (0, 1):
        for l_p in (0, 1):
            K = J + k_out - k_p
            if K < 0 or K != I + l_out - l_p:
                continue
            lhs += (
                Rstar(i_in, j_in, k_p, l_p, x, y, params)
                * Mstar(I, l_p, K, l_out, x, params)
                * L(K, k_p, J, k_out, y, params)
            )
    rhs = ZERO
    for i_h in (0, 1):
        for j_h in (0, 1):
            Mv = I + i_in - i_h
            if Mv < 0 or Mv != J + j_in - j_h:
                continue
            rhs += (
                L(I, i_in, Mv, i_h, y, params)
                * Mstar(Mv, j_in, J, j_h, x, params)
                * Rstar(i_h, j_h, k_out, l_out, x, y, params)
            )
    return lhs, rhs


def oracle_report(name, sides, params, x, y, max_occ=6):
    bad = []
    for I in range(max_occ + 1):
        for J in range(max_occ + 1):
            for bits in range(16):
                b = ((bits >> 3) & 1, (bits >> 2) & 1, (bits >> 1) & 1, bits & 1)
                lhs, rhs = sides(I, J, *b, x, y, params)
                if lhs != rhs:
                    bad.append((I, J, *b, lhs, rhs))
    total = (max_occ + 1) ** 2 * 16
    return CheckReport(
        name, "exact", F(total - len(bad)), F(total),
        not bad, detail=f"{total} labelled cases; first failure: {bad[0] if bad else None}",
    )


EXCHANGE = [
    ("intertwining", intertwining_sides, oracle_intertwining_sides, check_intertwining),
    ("intertwining-star", intertwining_star_sides, oracle_intertwining_star_sides,
     check_intertwining_star),
]
# the fixture points at their first spectral pair, and identity-mode points
EXCHANGE_POINTS = [(p, p.x[0], p.x[1]) for p in FIXTURE_POINTS] + [
    (ModelParams.make(q, s), F(x), F(y)) for q, s, x, y in [
        ("3/2", "1/3", "1/4", "-2/5"), ("-2", "5/3", "7/3", "1/9"), ("1/3", "-1/2", "3", "-5/2"),
    ]
]


@pytest.mark.parametrize("max_occ", [0, 1, 6])
@pytest.mark.parametrize("params, x, y", EXCHANGE_POINTS)
@pytest.mark.parametrize("name, sides, oracle, check", EXCHANGE, ids=[e[0] for e in EXCHANGE])
def test_integer_exchange_sides_equal_the_fraction_oracle(name, sides, oracle, check,
                                                           params, x, y, max_occ):
    for I in range(max_occ + 1):
        for J in range(max_occ + 1):
            for bits in range(16):
                b = ((bits >> 3) & 1, (bits >> 2) & 1, (bits >> 1) & 1, bits & 1)
                assert sides(I, J, *b, x, y, params) == oracle(I, J, *b, x, y, params), (I, J, b)
    assert (check(params, x, y, max_occ=max_occ)
            == oracle_report(name, oracle, params, x, y, max_occ=max_occ))


@pytest.mark.parametrize("labels", [
    (0, 0, 2, 0, 0, 0), (1, 2, 0, 1, 0, 2), (-1, 0, 1, 0, 0, 0), (0, -1, 0, 0, 0, 1),
    (-1, -1, 1, 1, 0, 0), (2, 1, 1, 0, -1, 0),
])
@pytest.mark.parametrize("name, sides, oracle, check", EXCHANGE, ids=[e[0] for e in EXCHANGE])
def test_exchange_sides_off_the_lattice_vanish(name, sides, oracle, check, params, labels):
    # a bit other than 0 and 1, or a negative occupancy, has no configuration
    assert sides(*labels, X, Y, params) == oracle(*labels, X, Y, params) == (0, 0)
    if name == "intertwining-star":
        assert sides(INF, INF, 2, 0, 1, 0, X, Y, params) == (0, 0)


@pytest.mark.parametrize("q, s, x, y, messages", [
    ("1/3", "-1/2", "-2", "1/5", ("1 - s x", "1 - s x")),
    ("1/3", "-1/2", "1/5", "-2", ("1 - s x", "1 - s x")),  # 1 - s y vanishes
    ("2", "-1/2", "1", "1/2", ("1 - q x y", None)),
    ("1/3", "-1/2", "2", "1/2", (None, "1 - x y")),
    ("2", "1/2", "2", "1/4", ("1 - q x y", "1 - s x")),  # and 1 - s x
    ("1/3", "1/2", "2", "1/2", ("1 - s x", "1 - x y")),  # and 1 - s x
])
def test_integer_exchange_raises_like_the_oracle(q, s, x, y, messages):
    # (intertwining, starred) at points where denominators vanish: the
    # oracle's InvalidParams text, or its report where none is needed
    params, x, y = ModelParams.make(q, s), F(x), F(y)
    for (name, sides, oracle, check), message in zip(EXCHANGE, messages):
        if message is None:
            assert check(params, x, y) == oracle_report(name, oracle, params, x, y)
            continue
        for run in (lambda: oracle_report(name, oracle, params, x, y),
                    lambda: check(params, x, y),
                    lambda: sides(0, 0, 0, 0, 0, 0, x, y, params)):
            with pytest.raises(InvalidParams, match=f"^{message} vanished$"):
                run()


@pytest.mark.parametrize("table, key, value", [
    ("RSTAR_SLOTS", (1, 0, 1, 0), 2),
    ("RSTAR_SLOTS", (1, 1, 1, 1), 0),
    ("R_SLOTS", (0, 1, 0, 1), 4),
    ("R_SLOTS", (1, 0, 0, 1), 3),
    ("L_TABLE", (0, 0, 0), True),
    ("L_TABLE", (1, 0, 1), True),
])
def test_a_mutated_weight_fails_like_the_oracle(monkeypatch, params, table, key, value):
    # the integer check names the oracle's first failure, with the same Fraction sides
    monkeypatch.setitem(getattr(weights, table), key, value)
    failed = 0
    for name, _, oracle, check in EXCHANGE:
        rep = check(params, X, Y)
        assert rep == oracle_report(name, oracle, params, X, Y)
        failed += not rep.passed
    assert failed


# The reflection relation from the Fraction vertex weights and pairing
# factors: the reference the integer check is compared against.

def oracle_reflection_sides(K, j, l, x, params):
    lhs = ZERO
    two_i = K + l + j - 1  # L(2I, 1-j; K, l) needs 2I + (1-j) = K + l
    if two_i >= 0 and two_i % 2 == 0:
        lhs = pairing_factor(two_i, params) * L(two_i, 1 - j, K, l, x, params)
    rhs = ZERO
    two_i = K + 1 - l - j  # M(2I, j; K, 1-l) needs 2I + j = K + (1-l)
    if two_i >= 0 and two_i % 2 == 0:
        rhs = pairing_factor(two_i, params) * M(two_i, j, K, 1 - l, x, params)
    return lhs, rhs


def oracle_check_reflection(params, x, max_occ=8):
    bad = []
    for K in range(max_occ + 1):
        for j in (0, 1):
            for l in (0, 1):
                lhs, rhs = oracle_reflection_sides(K, j, l, x, params)
                if lhs != rhs:
                    bad.append((K, j, l, lhs, rhs))
    total = (max_occ + 1) * 4
    return CheckReport(
        "reflection", "exact", F(total - len(bad)), F(total),
        not bad, detail=f"{total} cases; first failure: {bad[0] if bad else None}",
    )


REFLECTION_CASES = [(K, j, l) for K in range(-2, 13) for j in (0, 1, 2) for l in (0, 1)]


@pytest.mark.parametrize("params, x, y", EXCHANGE_POINTS)
def test_integer_reflection_equals_the_fraction_oracle(params, x, y):
    for v in (x, y):
        for case in REFLECTION_CASES:
            assert reflection_sides(*case, v, params) == oracle_reflection_sides(
                *case, v, params), case
        for max_occ in (0, 8, 12):
            assert (check_reflection(params, v, max_occ)
                    == oracle_check_reflection(params, v, max_occ))


@pytest.mark.parametrize("table, key, value", [
    ("L_TABLE", (0, 0, 0), True),
    ("L_TABLE", (0, 1, -1), False),
    ("M_TABLE", (1, 0, 1), False),
    ("M_TABLE", (0, 0, 0), False),
])
def test_a_mutated_weight_fails_reflection_like_the_oracle(monkeypatch, params, table, key, value):
    monkeypatch.setitem(getattr(weights, table), key, value)
    # the report equals the oracle's, detail (the first failure's Fractions) included
    rep = check_reflection(params, X)
    assert not rep.passed and rep == oracle_check_reflection(params, X)


def _outcome(run, *args):
    """run(*args), or the text of the InvalidParams it raises."""
    try:
        return run(*args)
    except InvalidParams as exc:
        return f"InvalidParams: {exc}"


@pytest.mark.parametrize("q, s, x, message", [
    ("1/3", "2", "1/2", "1 - s x vanished"),
    ("1/4", "2", "1/4", "1 - s^2 q^1 vanished"),  # s^2 q = 1: pairing factor k = 1
    ("1/4", "8", "1/4", "1 - s^2 q^3 vanished"),  # s^2 q^3 = 1: only k = 2 vanishes
    ("1/4", "2", "1/2", "1 - s x vanished"),  # both; 1 - s x is met first
])
def test_integer_reflection_raises_like_the_oracle(q, s, x, message):
    params, x = ModelParams.make(q, s), F(x)
    for run in (oracle_check_reflection, check_reflection):
        with pytest.raises(InvalidParams, match=f"^{re.escape(message)}$"):
            run(params, x)
    # case by case: the same cases raise, with the same text, and the others agree
    outcomes = [_outcome(oracle_reflection_sides, *case, x, params) for case in REFLECTION_CASES]
    assert f"InvalidParams: {message}" in outcomes
    assert [_outcome(reflection_sides, *case, x, params)
            for case in REFLECTION_CASES] == outcomes


def test_reflection(all_points):
    for params in all_points:
        assert check_reflection(params, X, max_occ=8).passed
    params = all_points[0]
    # parity-infeasible labels: both sides vanish
    lhs, rhs = reflection_sides(0, 0, 0, X, params)
    assert lhs == rhs == 0
    # the single-term K=0 case with a passing path
    lhs, rhs = reflection_sides(0, 1, 0, X, params)
    assert lhs == rhs == 1


def test_r_stochasticity(all_points):
    for params in all_points:
        assert check_r_stochastic(params, X, Y).passed


def oracle_check_r_stochastic(params, x, y):
    bad = []
    for i in (0, 1):
        for j in (0, 1):
            total = sum(R(i, j, k, l, x, y, params) for k in (0, 1) for l in (0, 1))
            if total != ONE:
                bad.append((i, j, total))
    return CheckReport(
        "r-stochastic", "exact", F(4 - len(bad)), F(4),
        not bad, detail=f"failures: {bad}" if bad else "4 input states",
    )


@pytest.mark.parametrize("mutation", [None, ((0, 1, 0, 1), 4), ((1, 0, 0, 1), 3),
                                      ((0, 0, 1, 1), 1), ((1, 1, 0, 0), 2)])
def test_integer_r_stochastic_equals_the_fraction_oracle(monkeypatch, mutation):
    if mutation:
        monkeypatch.setitem(weights.R_SLOTS, *mutation)
    for params, x, y in EXCHANGE_POINTS:
        rep = check_r_stochastic(params, x, y)
        assert rep == oracle_check_r_stochastic(params, x, y)
        assert rep.passed == (mutation is None)
    params, x, y = ModelParams.make("2", "-1/2"), F(1), F(1, 2)  # 1 - q x y = 0
    for run in (oracle_check_r_stochastic, check_r_stochastic):
        with pytest.raises(InvalidParams, match="^1 - q x y vanished$"):
            run(params, x, y)


def test_cauchy_closed_form(all_points):
    for params in all_points:
        rep = check_cauchy_closed_form(X, Y, params)
        assert rep.mode == "exact" and rep.passed


def test_cauchy_closed_form_follows_the_convergence_ratio():
    # s = 1/2: (3/4, 1/4) has the convergent negative ratio -4/35, and
    # (3, 1/4), an admissible pair, the divergent ratio 10/7, which the
    # infinite sum refuses
    params = ModelParams.make("1/3", "1/2")
    assert convergence_ratio(F(3, 4), F(1, 4), params) == F(-4, 35)
    rep = check_cauchy_closed_form(F(3, 4), F(1, 4), params)
    assert rep.mode == "exact" and rep.passed
    assert rep.lhs == rep.rhs == cauchy_kernel(F(3, 4), F(1, 4), params)
    assert convergence_ratio(F(3), F(1, 4), params) == F(10, 7)
    with pytest.raises(NotAdmissible, match="^column limit diverges: self-loop 10/7$"):
        check_cauchy_closed_form(F(3), F(1, 4), params)


@pytest.mark.parametrize("point", range(len(FIXTURE_POINTS)))
def test_exact_tail_is_the_geometric_tail(point):
    # above the largest inner part lo the increments of the partial sums are
    # geometric with the convergence ratio r, so the exact tail (the
    # infinite sum minus the partial sum) is the last increment times
    # r / (1 - r), as a rational
    params = FIXTURE_POINTS[point]
    x, y = params.x[:2]
    for xs, ys, f_inner, g_inner in [
        ((x,), (y,), (), ()),
        ((x,), (y,), (), (1,)),
        ((x, y), (), (), ()),
        ((x,), (y,), (1,), ()),
        ((x,), (y,), (2, 2), (3, 1)),
        ((x, y), (), (3, 1), ()),
    ]:
        r = convergence_ratio(*xs, *ys, params)
        lo = max(f_inner[:1] + g_inner[:1], default=0)
        for cap in sorted({lo + 3, 12, 16, 20, 25}):
            partial, tail = exact_tail("sum", xs, ys, cap, params, f_inner, g_inner)
            before = sum(column_sums(xs, ys, cap - 1, params, f_inner, g_inner).values())
            assert partial == sum(column_sums(xs, ys, cap, params, f_inner, g_inner).values())
            assert tail == (partial - before) * r / (1 - r), (xs, ys, f_inner, g_inner, cap)


def test_skew_cauchy_empty(params):
    rep = check_skew_cauchy((), (), (X,), (Y,), 40, params)
    assert rep.passed
    assert rep.tail_bound < F(1, 10**6)


def test_skew_cauchy_small_shapes(params):
    for lam, mu in [((1,), ()), ((2, 1), (1, 1)), ((3, 1), (2, 2)), ((2,), (3, 1))]:
        rep = check_skew_cauchy(lam, mu, (X,), (Y,), 30, params)
        assert rep.passed, (lam, mu, rep)


def test_skew_cauchy_monotone_certificate(params):
    # increasing the cap never turns pass into fail, and the bound shrinks
    prev = None
    for cap in (12, 16, 20, 24):
        rep = check_skew_cauchy((1,), (), (X,), (Y,), cap, params)
        assert rep.passed
        if prev is not None:
            assert rep.tail_bound < prev
        prev = rep.tail_bound


def test_skew_cauchy_requires_admissible():
    bad = ModelParams.make("1/3", "-1/2")
    with pytest.raises(NotAdmissible):
        check_skew_cauchy((), (), (F(1),), (F(1),), 10, bad)


def test_skew_littlewood_one_variable(params):
    rep = check_skew_littlewood((4, 4, 4, 3, 2, 2, 1), (X,), 0, params)
    assert rep.mode == "exact" and rep.passed
    rep = check_skew_littlewood((), (X,), 0, params)
    assert rep.passed and rep.lhs == rep.rhs == 1


def test_skew_littlewood_two_variables(params):
    rep = check_skew_littlewood((), (X, Y), 25, params)
    assert rep.passed
    # empty shape: right side reduces to the closed kernel
    assert rep.rhs == cauchy_kernel(X, Y, params)
    rep = check_skew_littlewood((2, 1), (X, Y), 25, params)
    assert rep.passed


@pytest.mark.parametrize("cap", range(4))
@pytest.mark.parametrize("which", ["skew-cauchy", "skew-littlewood"])
def test_skew_checks_small_cap(params, which, cap):
    # the tail is exact at every cap, including one below the largest fixed
    # part (lo = 1 for skew Cauchy here), where the partial sum is empty
    if which == "skew-cauchy":
        lo, rep = 1, check_skew_cauchy((1,), (), (X,), (Y,), cap, params)
    else:
        lo, rep = 0, check_skew_littlewood((), (X, Y), cap, params)
    assert rep.passed and rep.tail_bound >= 0
    if cap < lo:  # nothing is retained: the tail is the whole sum
        assert rep.lhs == 0 and rep.tail_bound == rep.rhs


SKEW_SHAPES = [((), ()), ((1,), ()), ((2, 1), (1,)), ((3, 1), (2, 2)), ((2,), (1, 1))]


@pytest.mark.parametrize("point", range(len(FIXTURE_POINTS)))
@pytest.mark.parametrize("nx, ny", [(2, 1), (1, 2), (2, 2)])
def test_skew_cauchy_in_several_variables(point, nx, ny):
    params = FIXTURE_POINTS[point]
    xs, ys = params.x[0:2 * nx:2], params.x[1:2 * ny:2]
    for lam, mu in SKEW_SHAPES:
        rep = check_skew_cauchy(lam, mu, xs, ys, 12, params)
        assert rep.name == f"skew-cauchy[{lam}/{mu}]" and rep.mode == "truncated"
        assert rep.passed, (xs, ys, lam, mu, rep)
        assert type(rep.tail_bound) is F and rep.tail_bound >= 0


@pytest.mark.parametrize("point", range(len(FIXTURE_POINTS)))
@pytest.mark.parametrize("n", [3, 4])
def test_skew_littlewood_in_several_variables(point, n):
    params = FIXTURE_POINTS[point]
    xs = params.x[:n]
    for mu in [(), (1,), (2, 1), (3, 1)]:
        rep = check_skew_littlewood(mu, xs, 12, params)
        assert rep.name == f"skew-littlewood-{n}var[{mu}]" and rep.mode == "truncated"
        assert rep.passed, (xs, mu, rep)
        assert type(rep.tail_bound) is F and rep.tail_bound >= 0


@pytest.mark.parametrize("point", range(len(FIXTURE_POINTS)))
def test_skew_littlewood_two_variables_as_before(point):
    # the two-variable right side summed over the conjugate-even partitions
    # two interlacing steps below mu, and the left side and tail were
    # exact_tail's: the sum over mu's box gives the same three rationals
    params = FIXTURE_POINTS[point]
    xs = params.x[:2]
    for mu in [(), (1,), (2, 1), (3, 1), (2, 2), (3, 2, 1)]:
        rep = check_skew_littlewood(mu, xs, 12, params)
        below = {nu2 for nu in interlacing_below(mu) for nu2 in interlacing_below(nu)
                 if is_conjugate_even(nu2)}
        rhs = cauchy_kernel(*xs, params) * sum(
            even_pair_coefficient(nu, params) * g_skew(nu, mu, xs, params) for nu in below)
        lhs, tail = exact_tail("skew-littlewood", xs, (), 12, params, f_inner=mu)
        assert (rep.lhs, rep.rhs, rep.tail_bound) == (lhs, rhs, tail), mu
        assert rep.name == f"skew-littlewood-2var[{mu}]" and rep.passed


@pytest.mark.parametrize("n", [1, 2, 3])
def test_skew_littlewood_sums_only_the_interlacing_box(params, n):
    # every conjugate-even nu of mu's box that _even_inner drops has
    # g_skew = 0, so the right side is the sum over the whole box
    xs = params.x[:n]
    rng = random.Random(2300 + n)
    shapes = [(), (1,), (1, 1), (2, 1), (3, 1), (2, 2), (3, 2, 1), (4, 4, 4, 3, 2, 2, 1)]
    shapes += [tuple(sorted((rng.randint(1, 5) for _ in range(rng.randint(2, 6))), reverse=True))
               for _ in range(6)]
    for mu in shapes:
        kept = identities._even_inner(mu, n)
        box = [tuple(p for h in half for p in (h, h))
               for half in enumerate_partitions(mu[0] if mu else 0, len(mu) // 2)]
        assert len(set(kept)) == len(kept) and set(kept) <= set(box), mu
        g = {nu: g_skew(nu, mu, xs, params) for nu in box}
        assert all(not w for nu, w in g.items() if nu not in kept), mu
        rhs = sum((even_pair_coefficient(nu, params) * w for nu, w in g.items()), ZERO)
        for x, y in itertools.combinations(xs, 2):
            rhs *= cauchy_kernel(x, y, params)
        assert check_skew_littlewood(mu, xs, 4, params).rhs == rhs, mu


def test_skew_littlewood_one_variable_is_the_sandwich(params):
    # acceptance 6's 200 random shapes: the one-variable report's left side
    # is the even cover's single term and its right side the even core's,
    # sshl.tail_weight, so the report reads as the closed formula did
    rng = random.Random(606)
    for _ in range(200):
        mu = tuple(sorted((rng.randint(1, 8) for _ in range(rng.randint(0, 6))), reverse=True))
        rep = check_skew_littlewood(mu, (X,), 0, params)
        cover = even_cover(mu)
        assert rep.lhs == even_pair_coefficient(cover, params) * f_one_row(mu, cover, X, params)
        assert rep.rhs == tail_weight(mu, X, params)
        assert rep.name == f"skew-littlewood-1var[{mu}]" and rep.mode == "exact" and rep.passed


@pytest.mark.parametrize("xs, ys", [((), (Y,)), ((X,), ()), ((), ())])
def test_skew_cauchy_needs_an_x_and_a_y(params, xs, ys):
    # column_sums reads an empty ys as the Littlewood form, so the check refuses it
    with pytest.raises(InvalidParams, match="^skew Cauchy needs at least one x and one y"):
        check_skew_cauchy((1,), (), xs, ys, 12, params)


def test_skew_littlewood_needs_a_variable(params):
    with pytest.raises(InvalidParams, match="^skew Littlewood needs at least one variable$"):
        check_skew_littlewood((1,), (), 12, params)


@pytest.mark.parametrize("xs", [(F(3), F(1, 4), F(1, 5)), (F(1, 4), F(1, 5), F(3))])
def test_skew_littlewood_refuses_a_divergent_pair(xs):
    # (3, 1/4) is admissible at s = 1/2, but its convergence ratio is 10/7;
    # every pair is checked, so the divergent one may come after a good one
    params = ModelParams.make("1/2", "1/2")
    with pytest.raises(NotAdmissible,
                       match=r"^skew-littlewood: convergence ratio 10/7 not in \[0, 1\)$"):
        check_skew_littlewood((1,), xs, 12, params)


def test_refined_cauchy_n1_closed_form(params):
    u, q = params.u, params.q
    rep = check_refined_cauchy((X,), (Y,), u, 25, params)
    assert rep.passed
    assert rep.rhs == (1 - u * q + (u - 1) * q * X * Y) / (1 - X * Y)


def test_refined_cauchy_n2(params):
    xs = (params.x[0], params.x[2])
    ys = (params.x[1], params.x[3])
    for u in (params.u, F(1)):
        rep = check_refined_cauchy(xs, ys, u, 25, params)
        assert rep.passed, rep.to_json()
        assert rep.tail_bound <= F(1, 10**5)


def test_refined_cauchy_n3_determinant():
    # 3x3 determinant form at a 6-variable point
    params = ModelParams.make("1/3", "-1/2", "1/2", [f"1/{i}" for i in range(4, 10)])
    for u in (params.u, F(1)):
        rep = check_refined_cauchy(params.x[0::2], params.x[1::2], u, 15, params)
        assert rep.passed, rep.to_json()
        assert 0 < rep.tail_bound <= F(1, 10**5)


def test_refined_cauchy_rejects_degenerate(params):
    with pytest.raises(DegenerateVandermonde):
        check_refined_cauchy((X, X), (Y, params.x[2]), params.u, 10, params)


def test_refined_closed_forms_raise_in_order(params):
    # a repeated variable is named before any cell (the cell of 2 and 1/2
    # also vanishes); a vanishing cell names its matrix
    u = params.u
    with pytest.raises(DegenerateVandermonde, match="^repeated x or y value$"):
        refined_cauchy_rhs((F(2), F(2)), (F(1, 2), Y), u, params)
    with pytest.raises(InvalidParams, match="^determinant cell denominator vanished$"):
        refined_cauchy_rhs((X, F(2)), (Y, F(1, 2)), u, params)
    with pytest.raises(DegenerateVandermonde, match="^repeated x value$"):
        refined_littlewood_rhs((F(2), F(1, 2), F(2), X), u, params)
    with pytest.raises(InvalidParams, match="^Pfaffian cell denominator vanished$"):
        refined_littlewood_rhs((F(2), X, F(1, 2), Y), u, params)


def test_refined_littlewood_2n2(params):
    u, q = params.u, params.q
    rep = check_refined_littlewood((X, Y), u, 25, params)
    assert rep.passed
    assert rep.rhs == (1 - u * q + (u - 1) * q * X * Y) / (1 - X * Y)
    # the empty partition contributes (1 - uq): check it is present in the lhs
    assert rep.lhs - (1 - u * q) > 0


def test_refined_littlewood_2n4_pfaffian():
    # 4x4 Pfaffian form at a 6-variable point
    params = ModelParams.make("1/3", "-1/2", "1/2", [f"1/{i}" for i in range(4, 10)])
    for u in (params.u, F(1)):
        rep = check_refined_littlewood(params.x[:4], u, 15, params)
        assert rep.passed, rep.to_json()
        assert 0 < rep.tail_bound <= F(1, 10**5)


@pytest.mark.parametrize("point", FIXTURE_POINTS, ids=["p0", "p1", "p2"])
def test_refined_identities_hold_exactly_outside_the_unit_interval(point):
    # the exact infinite sums equal the determinant (n = 1, 2, 3) and
    # Pfaffian (2m = 2, 4, 6, 8) closed forms at u = -1, 0, 1, ..., m + 1:
    # u outside [0, 1], where no tail bound applies, and as many values as
    # a polynomial of degree m in u needs.  The left side is column_sums'
    # limit by length l, times prod (1 - u q^i) over i = 1, 2, ..., n - l
    # (Cauchy, n = len(xs)) or i = 1, 3, ... <= n - l (Littlewood)
    for m, cauchy in [(n, True) for n in (1, 2, 3)] + [(m, False) for m in (1, 2, 3, 4)]:
        params = ModelParams(point.q, point.s, point.u, default_spectral(2 * m))
        xs, ys = (params.x[0::2], params.x[1::2]) if cauchy else (params.x, ())
        sums = column_sums(xs, ys, math.inf, params)
        for u in map(F, range(-1, m + 2)):
            lhs = ZERO
            for length, term in sums.items():
                for i in range(1, len(xs) - length + 1, 1 if cauchy else 2):
                    term *= 1 - u * params.q**i
                lhs += term
            rhs = (refined_cauchy_rhs(xs, ys, u, params) if cauchy
                   else refined_littlewood_rhs(xs, u, params))
            assert lhs == rhs, (m, cauchy, u)


def test_pfaffian_and_determinant():
    assert det_exact([[F(1), F(0)], [F(0), F(1)]]) == 1
    assert det_exact([]) == 1
    a = F(5, 3)
    assert pfaffian_exact([[F(0), a], [-a, F(0)]]) == a
    rng = random.Random(17)
    for _ in range(10):
        m = [[F(0)] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                v = F(rng.randint(-9, 9), rng.randint(1, 9))
                m[i][j], m[j][i] = v, -v
        assert pfaffian_exact(m) ** 2 == det_exact(m)
    with pytest.raises(DimensionMismatch):
        pfaffian_exact([[F(0)] * 3 for _ in range(3)])
    with pytest.raises(DimensionMismatch):
        pfaffian_exact([[F(1), F(2)], [F(3), F(4)]])


def test_det_exact_zero_pivot_column_and_non_square_matrices():
    # no row can bring a nonzero pivot up: at column 0, and (after one
    # elimination step) at column 1, where the second column is twice the first
    assert det_exact([[F(0), F(1)], [F(0), F(2)]]) == 0
    assert det_exact([[F(1), F(2), F(3)], [F(2), F(4), F(5)], [F(3), F(6), F(7)]]) == 0
    for bad in ([[F(1), F(2)]], [[F(0), F(1)], [F(1)]]):
        with pytest.raises(DimensionMismatch, match="^determinant needs a square matrix$"):
            det_exact(bad)
        with pytest.raises(DimensionMismatch, match="^pfaffian needs a square matrix$"):
            pfaffian_exact(bad)


def cofactor_det(m):
    """The determinant oracle: cofactor expansion along the first row."""
    n = len(m)
    if n == 0:
        return F(1)
    if n == 1:
        return m[0][0]
    total = F(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = m[0][j] * cofactor_det(minor)
        total += term if j % 2 == 0 else -term
    return total


def matching_pfaffian(m):
    """The Pfaffian oracle: expansion over the perfect matchings, (n - 1)!! terms."""
    def rec(idx):
        if not idx:
            return F(1)
        i0, total = idx[0], F(0)
        for pos in range(1, len(idx)):
            if m[i0][idx[pos]]:
                term = m[i0][idx[pos]] * rec(idx[1:pos] + idx[pos + 1:])
                total += term if pos % 2 == 1 else -term
        return total

    return rec(tuple(range(len(m))))


def random_antisymmetric(rng, n, zeros=1 / 3):
    m = [[F(0)] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        if rng.random() >= zeros:
            m[i][j] = F(rng.randint(-9, 9), rng.randint(1, 9))
            m[j][i] = -m[i][j]
    return m


def test_det_exact_against_cofactor_oracle():
    rng = random.Random(23)
    for _ in range(10):
        n = rng.randint(1, 4)
        m = [[F(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(n)] for _ in range(n)]
        assert det_exact(m) == cofactor_det(m)
    # a zero (0, 0) entry moves the first pivot past k + 1; about a third of
    # the entries zero, so some matrices are singular
    rng = random.Random(29)
    for n in range(1, 7):
        for _ in range(6):
            m = [[F(0) if rng.random() < 1 / 3 else F(rng.randint(-6, 6), rng.randint(1, 5))
                  for _ in range(n)] for _ in range(n)]
            m[0][0] = F(0)
            assert det_exact(m) == cofactor_det(m)


def test_pfaffian_exact_against_the_matching_oracle():
    # about a third of the entries zero: pivots past k + 1, and zero rows
    rng = random.Random(31)
    seen_zero = False
    for n in range(0, 11, 2):
        for _ in range(8):
            m = random_antisymmetric(rng, n)
            assert pfaffian_exact(m) == matching_pfaffian(m)
            seen_zero |= pfaffian_exact(m) == 0
    assert seen_zero
    # a zero first row, and a first pivot that needs a swap
    m = random_antisymmetric(random.Random(5), 6, zeros=0)
    for k in range(6):
        m[0][k] = m[k][0] = F(0)
    assert pfaffian_exact(m) == 0 == matching_pfaffian(m)
    m = random_antisymmetric(random.Random(5), 6, zeros=0)
    m[0][1] = m[1][0] = F(0)
    assert pfaffian_exact(m) == matching_pfaffian(m) != 0


def test_pfaffian_exact_is_multiplied_by_det_b_under_congruence():
    # Pf(B A B^T) = det(B) Pf(A), with det(B) the product of a triangular
    # B's diagonal: a 20 x 20 check that needs no (19)!!-term oracle
    rng, n = random.Random(37), 20
    a = random_antisymmetric(rng, n)
    b = [[F(rng.randint(-4, 4), rng.randint(1, 4)) if j < i else F(0) for j in range(n)]
         for i in range(n)]
    for i in range(n):
        b[i][i] = F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
    ba = [[sum((b[i][k] * a[k][j] for k in range(n)), F(0)) for j in range(n)] for i in range(n)]
    bab = [[sum((ba[i][k] * b[j][k] for k in range(n)), F(0)) for j in range(n)]
           for i in range(n)]
    det_b = math.prod((b[i][i] for i in range(n)), start=F(1))
    assert pfaffian_exact(a) != 0
    assert pfaffian_exact(bab) == det_b * pfaffian_exact(a)
    assert det_exact(b) == det_b


def test_run_suite_and_corrupt_hook(monkeypatch):
    reports = run_suite(cap=16)
    assert reports and all(r.passed for r in reports)
    only = run_suite(cap=16, only="reflection")
    assert only and all("reflection" in r.name for r in only)
    # run_suite looks each check up at call time, so a patched check is run
    # and its failing report comes through unchanged
    monkeypatch.setattr(identities, "check_reflection",
                        lambda params, x: CheckReport("reflection", "exact", ONE, ZERO, False))
    bad = run_suite(cap=16, only="reflection")
    assert len(bad) == len(only) and not any(r.passed for r in bad)
