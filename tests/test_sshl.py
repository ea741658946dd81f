"""One-row and skew f/g weights: frozen products, both definitions, symmetry."""

import itertools
import math
import random
from fractions import Fraction as F

import pytest

from spinhl.exact import InvalidParams, ModelParams, NotAdmissible
from spinhl.identities import FIXTURE_POINTS, cauchy_kernel
from spinhl.partitions import (
    enumerate_partitions,
    even_core,
    even_cover,
    even_pair_coefficient,
    interlaces,
    interlacing_above,
    is_conjugate_even,
)
from spinhl import sshl, weights
from spinhl.sshl import (
    column_sums,
    f_one_row,
    f_one_row_def2,
    f_skew,
    g_one_row,
    g_one_row_def2,
    g_skew,
    tail_weight,
)


X = F(1, 4)
Y = F(1, 5)


def closed_form_f_row(k, x, params):
    """Independent closed form for f_{(k)/()}(x): turn entry times k-1 pass entries."""
    q, s = params.q, params.s
    return x * (1 - s * s) / (1 - s * x) * ((x - s) / (1 - s * x)) ** (k - 1)


def closed_form_g_row(k, y, params):
    q, s = params.q, params.s
    return y * (1 - q) / (1 - s * y) * ((y - s) / (1 - s * y)) ** (k - 1)


def test_one_row_base_cases(params):
    assert f_one_row((), (), X, params) == 1
    assert g_one_row((), (), Y, params) == 1
    q, s = params.q, params.s
    assert f_one_row((), (1,), X, params) == X * (1 - s * s) / (1 - s * X)


def test_one_row_column_formulas(params):
    for k in range(1, 9):
        assert f_one_row((), (k,), X, params) == closed_form_f_row(k, X, params)
        assert g_one_row((), (k,), Y, params) == closed_form_g_row(k, Y, params)


def test_one_row_worked_pair(params):
    # the conjugate-even sandwich of (4,4,4,3,2,2,1): both stated products
    q, s = params.q, params.s
    kap = (4, 4, 4, 3, 2, 2, 1)
    g_val = g_one_row((4, 4, 3, 3, 2, 2), kap, X, params)
    assert g_val == X * (1 - q) / (1 - s * X) * (1 - s * X * q**2) / (1 - s * X) \
        * X * (1 - s * s * q) / (1 - s * X) * (1 - q**3) / (1 - s * X)
    f_val = f_one_row(kap, (4, 4, 4, 4, 2, 2, 1, 1), X, params)
    assert f_val == X * (1 - s * s * q) / (1 - s * X) * (1 - s * X * q**2) / (1 - s * X) \
        * (1 - q) * X / (1 - s * X) * (1 - s * s * q**3) / (1 - s * X)


def test_support_iff_interlacing(params):
    ps = enumerate_partitions(4, 3)
    for mu in ps:
        for lam in ps:
            f = f_one_row(mu, lam, X, params)
            g = g_one_row(mu, lam, Y, params)
            assert (f != 0) == interlaces(mu, lam), (mu, lam)
            assert (g != 0) == interlaces(mu, lam), (mu, lam)


def test_definition_equivalence_sweep(all_points):
    # exact equality of both definitions on all pairs with parts <= 5, len <= 4
    ps = enumerate_partitions(5, 4)
    for params in all_points:
        for mu in ps:
            for lam in ps:
                assert f_one_row(mu, lam, X, params) == f_one_row_def2(mu, lam, X, params)
                assert g_one_row(mu, lam, Y, params) == g_one_row_def2(mu, lam, Y, params)


def test_definition_equivalence_worked_examples(all_points):
    lam = (6, 5, 4, 4, 1)
    for params in all_points:
        for mu in [(6, 6, 4, 4, 3), (6, 6, 4, 4, 3, 1)]:
            v1 = f_one_row(lam, mu, X, params)
            v2 = f_one_row_def2(lam, mu, X, params)
            assert v1 == v2 and v1 != 0
    assert f_one_row_def2((), (), X, all_points[0]) == 1


def test_skew_base_and_chain_expansion(params):
    assert f_skew((2, 1), (2, 1), (), params) == 1
    assert f_skew((), (3, 2), (), params) == 0
    x1, x2 = F(1, 4), F(1, 6)
    # two-term chain: () -> nu -> (1) with nu in {(), (1)}
    expect = (
        f_one_row((), (1,), x1, params) * f_one_row((1,), (1,), x2, params)
        + f_one_row((), (), x1, params) * f_one_row((), (1,), x2, params)
    )
    assert f_skew((), (1,), (x1, x2), params) == expect


def test_skew_symmetry(params):
    xs = (F(1, 4), F(1, 6), F(2, 9))
    for outer in enumerate_partitions(4, 3):
        base_f = f_skew((), outer, xs, params)
        base_g = g_skew((), outer, xs, params)
        for perm in itertools.permutations(xs):
            assert f_skew((), outer, perm, params) == base_f
            assert g_skew((), outer, perm, params) == base_g


def test_skew_symmetry_skew_case(params):
    xs = (F(1, 4), F(1, 6))
    inner = (2, 1)
    for outer in [(3, 2), (4, 2, 1), (3, 3, 1)]:
        assert f_skew(inner, outer, xs, params) == f_skew(inner, outer, xs[::-1], params)
        assert g_skew(inner, outer, xs, params) == g_skew(inner, outer, xs[::-1], params)


def test_nonnegative_in_probabilistic_mode(params):
    assert params.is_probabilistic()
    for mu in enumerate_partitions(4, 3):
        for lam in enumerate_partitions(4, 3):
            assert f_one_row(mu, lam, X, params) >= 0
            assert g_one_row(mu, lam, Y, params) >= 0


def test_tail_weight_examples(params):
    q, s = params.q, params.s
    assert tail_weight((), X, params) == 1
    kap = (4, 4, 4, 3, 2, 2, 1)
    expect = ((1 - q) / (1 - s * s * q)) ** 3 * (
        X * (1 - q) * (1 - s * X * q**2) * X * (1 - s * s * q) * (1 - q**3)
        / (1 - s * X) ** 4
    )
    assert tail_weight(kap, X, params) == expect


def test_tail_weight_equals_cover_side(params):
    # the one-variable conjugate-even identity, 200 random shapes
    rng = random.Random(11)
    for _ in range(200):
        kappa = tuple(sorted((rng.randint(1, 8) for _ in range(rng.randint(0, 6))),
                             reverse=True))
        lam = even_cover(kappa)
        cover_side = even_pair_coefficient(lam, params) * f_one_row(kappa, lam, X, params)
        assert tail_weight(kappa, X, params) == cover_side


def _nonzero(sums):
    return {k: v for k, v in sums.items() if v != 0}


def _by_length(terms):
    """{len(lam): sum of the terms}, dropping exact-zero sums."""
    out = {}
    for lam, w in terms:
        out[len(lam)] = out.get(len(lam), 0) + w
    return _nonzero(out)


def _caps(*inner):
    """Caps 0, 1, 5 and the largest inner part up to four above it."""
    top = max((p[0] for p in inner if p), default=0)
    return sorted({0, 1, 5, *range(top, top + 5)})


# (lam, mu) of test_identities.test_skew_cauchy_small_shapes: the outer
# sum there is over kappa of g_{kappa/lam}(y) f_{kappa/mu}(x)
SKEW_CAUCHY_SHAPES = [((1,), ()), ((2, 1), (1, 1)), ((3, 1), (2, 2)), ((2,), (3, 1))]


def _chain_sums(inner, variables, one_row, cap, params):
    """{lam: weight} over lam with lam_1 <= cap, summed over the chains from inner.

    A forward pass over the interlacing chains, one dict of partition ->
    weight per variable: the first variable acts next to inner, as in
    f_skew and g_skew, and one_row(nu, mid, v) weighs one step.  Every
    partition of a chain lies inside lam, so the part cap is exact.
    """
    layer = {tuple(inner): F(1)}
    for v in variables:
        nxt = {}
        for nu, w in layer.items():
            for mid in interlacing_above(nu, cap_part=cap):
                step = one_row(nu, mid, v, params)
                if step:
                    nxt[mid] = nxt.get(mid, 0) + w * step
        layer = nxt
    return layer


def test_chain_sums_match_f_skew_and_g_skew(params):
    xs = params.x[:2]
    for inner in [(), (1,), (2, 1)]:
        f_sums = _chain_sums(inner, xs, f_one_row, 4, params)
        g_sums = _chain_sums(inner, xs, g_one_row, 4, params)
        for lam in enumerate_partitions(4, len(inner) + 2):
            assert f_sums.get(lam, 0) == f_skew(inner, lam, xs, params), (inner, lam)
            assert g_sums.get(lam, 0) == g_skew(inner, lam, xs, params), (inner, lam)


# the fixture points and one point outside the probabilistic regime, where
# q, some 1 - s x and some spectral values are negative: the integer
# kernel's numerators and denominators take both signs
COLUMN_POINTS = FIXTURE_POINTS + (
    ModelParams.make("-2", "5/3", "1/2", ("7/3", "1/9", "-5/2", "1/5")),
)


@pytest.mark.parametrize("point", range(len(COLUMN_POINTS)))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_column_sums_match_chain_enumeration(point, n):
    params = COLUMN_POINTS[point]
    xs, ys = params.x[:n], params.x[::-1][:n]
    # inner partitions with up to two x and two y variables (the skew Cauchy form)
    shapes = [((), ())] + (SKEW_CAUCHY_SHAPES if n <= 2 else [])
    for lam, mu in shapes:
        caps = _caps(lam, mu)
        f_sums = _chain_sums(mu, xs, f_one_row, caps[-1], params)
        g_sums = _chain_sums(lam, ys, g_one_row, caps[-1], params)
        for cap in caps:
            brute = _by_length(
                (kappa, w * g_sums[kappa]) for kappa, w in f_sums.items()
                if kappa in g_sums and (kappa[:1] or (0,))[0] <= cap
            )
            sums = column_sums(xs, ys, cap, params, f_inner=mu, g_inner=lam)
            assert _nonzero(sums) == brute, (n, lam, mu, cap)


@pytest.mark.parametrize("point", range(len(COLUMN_POINTS)))
@pytest.mark.parametrize("n2", [2, 4])
def test_column_sums_littlewood_form(point, n2):
    params = COLUMN_POINTS[point]
    xs = params.x[:n2]
    # inner partitions with two variables (the skew Littlewood form)
    inners = [()] + ([(1,), (2, 1), (3, 1)] if n2 == 2 else [])
    for mu in inners:
        for cap in _caps(mu):
            brute = _by_length(
                (lam, even_pair_coefficient(lam, params) * f_skew(mu, lam, xs, params))
                for lam in enumerate_partitions(cap, len(mu) + n2)
                if is_conjugate_even(lam)
            )
            sums = column_sums(xs, (), cap, params, f_inner=mu)
            assert _nonzero(sums) == brute, (n2, mu, cap)


@pytest.mark.parametrize("point", range(len(COLUMN_POINTS)))
def test_column_sums_limit_is_where_the_sums_at_growing_caps_go(point):
    # cap = math.inf is the limit of the sums at growing caps, length by
    # length; a sum whose partial sums grow without bound is refused
    params = COLUMN_POINTS[point]
    x, y = params.x[:2]
    for xs, ys, f_inner, g_inner in [
        ((x,), (y,), (), ()),
        ((x,), (y,), (), (1,)),
        ((x,), (y,), (3, 1), (2,)),
        ((x, y), (), (), ()),
        ((x, y), (), (3, 1), ()),
        ((x, y), (y, x), (2, 2), (1,)),
    ]:
        sums = [column_sums(xs, ys, cap, params, f_inner, g_inner) for cap in (5, 10, 20, 40)]
        try:
            limit = column_sums(xs, ys, math.inf, params, f_inner, g_inner)
        except NotAdmissible as exc:
            assert str(exc).startswith("column limit diverges: self-loop ")
            assert (point, len(ys)) == (3, 2)  # y = 1/9, s = 5/3: the (y, y) ratio is 441/121
            steps = [abs(sum(b.values()) - sum(a.values())) for a, b in zip(sums, sums[1:])]
            assert steps[0] < steps[1] < steps[2]
            continue
        assert set(limit) == set(sums[-1]), (xs, ys, f_inner, g_inner)
        for length, total in limit.items():
            gaps = [abs(total - partial.get(length, 0)) for partial in sums]
            assert gaps == sorted(gaps, reverse=True) and gaps[-1] < F(1, 10**10)
        gaps = [abs(sum(limit.values()) - sum(partial.values())) for partial in sums]
        assert gaps[0] > gaps[1] > gaps[2] > gaps[3]


IDENTITY_MODE_POINT = ModelParams.make("3", "1/2", "1/2", ("1/4", "1/5", "1/6", "1/7"))


@pytest.mark.parametrize("params", FIXTURE_POINTS + (IDENTITY_MODE_POINT,))
def test_column_sums_limit_is_the_cauchy_and_littlewood_product(params):
    # the infinite sums are exactly prod Pi(x; y) over the x, y pairs
    # (Cauchy, n = 1, 2, 3) and over the pairs x_i, x_j, i < j (Littlewood,
    # 2n = 2, 4), at the fixture points and at an identity-mode point
    xs = params.x
    for n in (1, 2, 3):
        product = math.prod(cauchy_kernel(x, y, params)
                            for x in xs[:n] for y in xs[::-1][:n])
        assert sum(column_sums(xs[:n], xs[::-1][:n], math.inf, params).values()) == product
    for n2 in (2, 4):
        product = math.prod(cauchy_kernel(x, y, params)
                            for x, y in itertools.combinations(xs[:n2], 2))
        assert sum(column_sums(xs[:n2], (), math.inf, params).values()) == product


def test_column_sums_limit_is_refused_where_the_sum_diverges():
    # s = -2: every convergence ratio of the spectral values exceeds 1
    params = ModelParams.make("1/3", "-2", "1/2", ("1/4", "1/5", "1/6", "1/7"))
    xs = params.x
    for f_vars, g_vars in [(xs[:n], xs[::-1][:n]) for n in (1, 2, 3)] + [(xs[:2], ()), (xs, ())]:
        with pytest.raises(NotAdmissible, match="^column limit diverges: self-loop "):
            column_sums(f_vars, g_vars, math.inf, params)


@pytest.mark.parametrize("table, key", [("L_TABLE", (0, 0, 0)), ("M_TABLE", (1, 1, 0))])
def test_column_sums_limit_refuses_a_start_state_that_loses_weight(monkeypatch, table, key):
    # flipping the flag of the pass-through L(0,0;0,0) or M(0,1;0,1) makes it
    # (v - s)/(1 - s v), not 1: the limit is refused, not wrong
    params = FIXTURE_POINTS[0]
    x, y = params.x[:2]
    monkeypatch.setitem(getattr(weights, table), key, not getattr(weights, table)[key])
    with pytest.raises(NotAdmissible, match="start state does not keep its weight"):
        column_sums((x,), (y,), math.inf, params)


def test_limit_refuses_a_cycle_and_a_divergent_self_loop():
    # rows over den = 4: the start state keeps 4 on itself and leads to "a"
    def row(loop, back):
        return lambda bits: {"start": [("start", 4), ("a", 1)],
                             "a": [("a", loop), ("b", 2)],
                             "b": [("b", 1)] + ([("a", 1)] if back else [])}[bits]

    assert sshl._limit("start", row(2, False), 4) == {"start": 1, "a": F(1, 2), "b": F(1, 3)}
    assert sshl._limit("start", row(-3, False), 4) == {"start": 1, "a": F(1, 7), "b": F(2, 21)}
    for loop in (4, -4, 5):
        with pytest.raises(NotAdmissible, match="^column limit diverges: self-loop "):
            sshl._limit("start", row(loop, False), 4)
    with pytest.raises(NotAdmissible, match="^column limit: the uniform column has a cycle$"):
        sshl._limit("start", row(2, True), 4)


@pytest.mark.parametrize("vanishing", ["x", "y"])
def test_column_sums_raise_the_weights_text_when_1_minus_s_x_vanishes(vanishing):
    # s = -1/2 and a spectral value -2: the one-row weights and the kernel
    # raise the same InvalidParams, once there is a column to scan
    params = ModelParams.make("1/3", "-1/2")
    x, y = (F(-2), F(1, 5)) if vanishing == "x" else (F(1, 5), F(-2))
    one_row = f_one_row if vanishing == "x" else g_one_row
    with pytest.raises(InvalidParams, match="^1 - s x vanished$"):
        one_row((), (1,), x if vanishing == "x" else y, params)
    for run in (lambda: column_sums((x,), (y,), 1, params),
                lambda: column_sums((x, y), (), 3, params),
                lambda: column_sums((x,), (y,), 5, params, f_inner=(2,)),
                lambda: column_sums((x,), (y,), math.inf, params),
                lambda: column_sums((x, y), (), math.inf, params, f_inner=(2,))):
        with pytest.raises(InvalidParams, match="^1 - s x vanished$"):
            run()
    assert column_sums((x,), (y,), 0, params) == {0: 1}
    assert column_sums((x,), (y,), 1, params, f_inner=(2,)) == {}


def _q_pochhammer(a, q, m):
    """(a; q)_m = (1 - a)(1 - a q) ... (1 - a q^(m-1))."""
    out = F(1)
    for i in range(m):
        out *= 1 - a * q**i
    return out


def _symmetrized_g(lam, xs, params):
    """g_lam(xs) by the symmetrization formula, lam padded with zeros to len(xs).

    phi_0 = 1 and phi_k(x) = (1-q)x/(1-sx) ((x-s)/(1-sx))^(k-1); g_lam is
    (1-q)^m0/(q;q)_m0 times the sum over permutations sigma of
    sigma(prod_{i<j} (x_i - q x_j)/(x_i - x_j) prod_i phi_{lam_i}(x_i)),
    with m0 the number of zero parts.
    """
    q, s = params.q, params.s
    n = len(xs)
    parts = tuple(lam) + (0,) * (n - len(lam))

    def phi(k, x):
        return F(1) if k == 0 else (1 - q) * x / (1 - s * x) * ((x - s) / (1 - s * x)) ** (k - 1)

    total = F(0)
    for ys in itertools.permutations(xs):
        term = F(1)
        for i, j in itertools.combinations(range(n), 2):
            term *= (ys[i] - q * ys[j]) / (ys[i] - ys[j])
        for k, y in zip(parts, ys):
            term *= phi(k, y)
        total += term
    m0 = n - len(lam)
    return (1 - q) ** m0 / _q_pochhammer(q, q, m0) * total


def _f_over_g(lam, params):
    """prod_{k>=1} (s^2;q)_{m_k}/(q;q)_{m_k}, with m_k the multiplicities of lam."""
    ratio = F(1)
    for k in set(lam):
        m = lam.count(k)
        ratio *= _q_pochhammer(params.s**2, params.q, m) / _q_pochhammer(params.q, params.q, m)
    return ratio


@pytest.mark.parametrize("n, top", [(3, 4), (4, 3)])
def test_f_and_g_match_the_symmetrization_formula(n, top):
    # f_lam = prod_{k>=1} (s^2;q)_{m_k}/(q;q)_{m_k} g_lam, with m_k the
    # multiplicities of lam; this formula is verified here, literally, at the
    # fixture points, for every lam in an n x top box, in n variables
    boxed = enumerate_partitions(top, n)
    assert len(boxed) == math.comb(n + top, n)
    for params in FIXTURE_POINTS:
        xs = params.x[:n]
        for lam in boxed:
            g = _symmetrized_g(lam, xs, params)
            assert g_skew((), lam, xs, params) == g, (lam, params)
            assert f_skew((), lam, xs, params) == _f_over_g(lam, params) * g, (lam, params)


def test_one_row_f_and_g_at_large_parts_match_the_symmetrization_formula():
    # one variable and one part k <= 40: g_(k)(y) = phi_k(y) and
    # f_(k)(x) = (1-s^2)/(1-q) phi_k(x), far past the parts the chain
    # enumerations above reach
    for params in FIXTURE_POINTS:
        q, s = params.q, params.s
        for v in params.x:
            for k in range(41):
                lam = (k,) if k else ()
                g = _symmetrized_g(lam, (v,), params)
                assert g_one_row((), lam, v, params) == g, (k, v, params)
                assert f_one_row((), lam, v, params) == _f_over_g(lam, params) * g, (k, v, params)
                if k:
                    assert _f_over_g(lam, params) == (1 - s * s) / (1 - q)


@pytest.mark.parametrize("point", range(len(FIXTURE_POINTS)))
def test_column_sums_match_the_symmetrization_formula(point):
    # the kernel against an oracle that shares no code with the lattice: f and
    # g by the symmetrization formula, summed by length at every cap 0..8, in
    # the Cauchy form (3 x's against 3 y's) and in the Littlewood form (4 x's,
    # conjugate-even lam weighted by even_pair_coefficient), which pins the
    # pairing factor the kernel uses as its column factor when ys is empty
    params = FIXTURE_POINTS[point]
    xs, ys = params.x[:3], params.x[::-1][:3]
    cauchy = [(lam, _f_over_g(lam, params) * _symmetrized_g(lam, xs, params)
               * _symmetrized_g(lam, ys, params)) for lam in enumerate_partitions(8, 3)]
    littlewood = [(lam, even_pair_coefficient(lam, params) * _f_over_g(lam, params)
                   * _symmetrized_g(lam, params.x[:4], params))
                  for lam in enumerate_partitions(8, 4) if is_conjugate_even(lam)]
    for cap in range(9):
        for (xv, yv), terms in [((xs, ys), cauchy), ((params.x[:4], ()), littlewood)]:
            oracle = _by_length((lam, w) for lam, w in terms if (lam[:1] or (0,))[0] <= cap)
            assert _nonzero(column_sums(xv, yv, cap, params)) == oracle, (len(yv), cap)
