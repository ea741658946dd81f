"""Transition operators: local couplings, normalization, reversibility, projections."""

import gc
import itertools
import weakref
from fractions import Fraction as F

import pytest

from spinhl.ds6v import ds6v_sample, particle_trajectory
from spinhl.exact import (
    CellBits,
    InvalidParams,
    ModelParams,
    NonStochastic,
    NotAdmissible,
    RandomSource,
    ZeroSector,
    _sample_from_cumulative,
    default_spectral,
)
from spinhl.field import field_to_json, sample_field
from spinhl.identities import FIXTURE_POINTS, cauchy_kernel, intertwining_star_sides
from spinhl.partitions import (
    enumerate_partitions,
    even_core,
    even_cover,
    interlaces,
    interlacing_above,
)
from spinhl.sshl import f_one_row, g_one_row, tail_weight
from spinhl.transitions import (
    INF,
    TransitionTable,
    backward_prob,
    boundary_backward,
    boundary_forward,
    boundary_forward_distribution,
    bulk_backward,
    bulk_forward,
    compiled,
    forward_distribution,
    forward_prob,
    jump_coefficients,
    length_patterns,
    length_transition,
    p_bwd,
    p_fwd,
    _walk,
)
from spinhl.weights import L, Mstar, Rstar, VertexRow, column_weights, pair_ints, r_row
from test_exact import _Exhausted, _Replay


X = F(1, 4)
Y = F(1, 5)


# The column weights of the random field from the Fraction vertex weights:
# the reference the integer kernel weights.column_weights is checked against.

def weight_b(I_lam, J_mu, i_prev, j_prev, k_h, l_h, i_h, j_h, x, y, params):
    """Weight of the B-side column configuration with sampled bits (i_h, j_h).

    The middle occupancy is pinned by conservation on both rows; weight is
    zero when the two pins disagree.  Returns (weight, middle_occupancy).
    """
    if I_lam is INF:
        w = (
            L(INF, i_prev, INF, i_h, y, params)
            * Mstar(INF, j_prev, INF, j_h, x, params)
            * Rstar(i_h, j_h, k_h, l_h, x, y, params)
        )
        return w, INF
    M_pin = I_lam + i_prev - i_h
    if M_pin < 0 or M_pin != J_mu + j_prev - j_h:
        return F(0), None
    w = (
        L(I_lam, i_prev, M_pin, i_h, y, params)
        * Mstar(M_pin, j_prev, J_mu, j_h, x, params)
        * Rstar(i_h, j_h, k_h, l_h, x, y, params)
    )
    return w, M_pin


def weight_a(I_lam, J_mu, i_prev, j_prev, k_h, l_h, k_prev, l_prev, x, y, params):
    """Weight of the A-side column configuration with crossing outputs (k_prev, l_prev)."""
    if I_lam is INF:
        w = (
            Rstar(i_prev, j_prev, k_prev, l_prev, x, y, params)
            * Mstar(INF, l_prev, INF, l_h, x, params)
            * L(INF, k_prev, INF, k_h, y, params)
        )
        return w, INF
    K_pin = I_lam + l_h - l_prev
    if K_pin < 0 or K_pin != J_mu + k_h - k_prev:
        return F(0), None
    w = (
        Rstar(i_prev, j_prev, k_prev, l_prev, x, y, params)
        * Mstar(I_lam, l_prev, K_pin, l_h, x, params)
        * L(K_pin, k_prev, J_mu, k_h, y, params)
    )
    return w, K_pin


def test_column0_coupling_is_the_forced_one(params):
    q = params.q
    den = 1 - q * X * Y
    tbl = p_fwd(INF, INF, 1, 0, 0, 0, X, Y, params).as_dict()
    assert tbl == {(0, 0, INF): (1 - X * Y) / den, (1, 1, INF): (1 - q) * X * Y / den}
    tbl = p_fwd(INF, INF, 1, 0, 1, 1, X, Y, params).as_dict()
    assert tbl == {(0, 0, INF): (1 - q) / den, (1, 1, INF): q * (1 - X * Y) / den}
    for k0, l0 in [(0, 1), (1, 0)]:
        tbl = p_fwd(INF, INF, 1, 0, k0, l0, X, Y, params).as_dict()
        assert list(tbl.values()) == [1]
    # the backward move at column 0 is deterministic
    for k0, l0 in [(0, 0), (1, 1), (0, 1), (1, 0)]:
        tbl = p_bwd(INF, INF, 1, 0, k0, l0, X, Y, params)
        assert tbl.outcomes == ((1, 0, INF),) and tbl.probs == (F(1),)


def test_per_column_mass_balance(params):
    # sum of A-weights equals sum of B-weights for every small context;
    # cross-checked against the starred exchange relation checker
    for I in range(4):
        for J in range(4):
            for bits in range(16):
                ip, jp, k, l = (bits >> 3) & 1, (bits >> 2) & 1, (bits >> 1) & 1, bits & 1
                wa = sum(
                    weight_a(I, J, ip, jp, k, l, kp, lp, X, Y, params)[0]
                    for kp in (0, 1) for lp in (0, 1)
                )
                wb = sum(
                    weight_b(I, J, ip, jp, k, l, ih, jh, X, Y, params)[0]
                    for ih in (0, 1) for jh in (0, 1)
                )
                assert wa == wb
                lhs, rhs = intertwining_star_sides(I, J, ip, jp, k, l, X, Y, params)
                assert wa == lhs and wb == rhs


def test_zero_sector_raises(params):
    with pytest.raises(ZeroSector) as exc:
        p_fwd(0, 0, 1, 0, 0, 0, X, Y, params)  # mixed carry with nothing to do
    assert str(exc.value) == "no B-configuration at column context I=0 J=0 carry=(1,0) out=(0,0)"
    with pytest.raises(ZeroSector) as exc:
        p_bwd(0, 1, 0, 0, 1, 1, X, Y, params)
    assert str(exc.value) == "no A-configuration at column context I=0 J=1 carry=(0,0) out=(1,1)"


def _terms(weight, context, x, y, params):
    """The nonzero Fraction weights of one side of a column context, as [(outcome, weight)]."""
    terms = []
    for a in (0, 1):
        for b in (0, 1):
            w, mid = weight(*context, a, b, x, y, params)
            if w != 0:
                terms.append(((a, b, mid), w))
    return terms


def _coupling(weight, context, x, y, params):
    """The independence coupling from the Fraction weights, as (outcomes, probs).

    A total of zero gives ZeroSector, a negative probability
    NonStochastic and a vanishing 1 - s x the weights' InvalidParams, the
    errors the tables raise, as (type, text prefix).
    """
    try:
        terms = _terms(weight, context, x, y, params)
    except InvalidParams as exc:
        return InvalidParams, str(exc)
    total = sum((w for _, w in terms), F(0))
    if total == 0:
        return ZeroSector, "no "
    probs = tuple(w / total for _, w in terms)
    negative = [p for p in probs if p < 0]
    if negative:
        return NonStochastic, f"negative probability {negative[0]}"
    return tuple(o for o, _ in terms), probs


def _check_rows(x, y, params, contexts, sides=("B", "A")):
    """Each table of cell_sampler(x, y, params) at the contexts against the Fraction coupling."""
    sampler = compiled(params).sampler(x, y)
    for context in contexts:
        for side, table, weight in (("B", sampler.fwd, weight_b), ("A", sampler.bwd, weight_a)):
            if side not in sides:
                continue
            expected = _coupling(weight, context, x, y, params)
            if isinstance(expected[0], type):
                error, text = expected
                with pytest.raises(error) as exc:
                    table(*context)
                assert str(exc.value).startswith(text), (side, context)
                continue
            row = table(*context)
            assert (row.outcomes, row.probs) == expected, (side, context)
            # one positive common denominator; cumulative sums rise to one
            den = row.cum[-1][0]
            assert den > 0 and all(d == den for _, d in row.cum), (side, context)
            assert all(0 < a < b for (a, _), (b, _) in zip(row.cum, row.cum[1:]))


GRID_CONTEXTS = [
    (I, J, *bits)
    for I, J in [(INF, INF)] + [(I, J) for I in range(4) for J in range(4)]
    for bits in itertools.product((0, 1), repeat=4)
]


@pytest.mark.parametrize("point", range(len(FIXTURE_POINTS)))
def test_integer_rows_equal_the_fraction_coupling(point):
    # every integer row is the normalised weight_b / weight_a coupling, exactly
    params = FIXTURE_POINTS[point]
    _check_rows(params.x[0], params.x[1], params, GRID_CONTEXTS)


@pytest.mark.parametrize("q, s, x, y", [
    ("3/2", "2", "5/2", "3/7"), ("1/3", "-1/2", "-1/3", "1/2"),
    ("-1/2", "3/2", "3/4", "2"), ("1/3", "2", "3/4", "2"),
])
def test_integer_rows_outside_probabilistic_mode(q, s, x, y):
    # admissible pairs whose common denominator can be negative: the laws
    # whose weights are all negative, and the same errors with the same text
    _check_rows(F(x), F(y), ModelParams.make(q, s), GRID_CONTEXTS)


@pytest.mark.parametrize("point", range(len(FIXTURE_POINTS)))
def test_integer_rows_on_the_contexts_a_field_visits(point):
    # the forward contexts of a per-cell T = 8 field, and the backward ones of
    # bulk_backward run on its bulk cells, at spectral values 1/4, 2/5, ..., 9/12
    base = FIXTURE_POINTS[point]
    params = ModelParams.make(base.q, base.s, base.u, [f"{k}/{k + 3}" for k in range(1, 10)])
    field = sample_field(8, RandomSource(3, 0), params)
    assert sum(1 for nu in field.values() if nu) > 20
    rng = RandomSource(3, 1)
    for i in range(1, 9):
        for j in range(i + 1, 9):
            bulk_backward(field[(i, j)], field[(i, j - 1)], field[(i - 1, j)],
                          params.x[i - 1], params.x[j], rng, params)
    samplers = compiled(params)._samplers
    assert sum(len(s._fwd) for s in samplers.values()) > 100
    for (xn, xd, yn, yd), sampler in list(samplers.items()):
        x, y = F(xn, xd), F(yn, yd)
        _check_rows(x, y, params, list(sampler._fwd), sides="B")
        _check_rows(x, y, params, list(sampler._bwd), sides="A")


@pytest.mark.parametrize("q, s, x, y", [
    ("1/3", "2", "1/2", "3"), ("1/3", "2", "3", "1/2"), ("-1/2", "3/2", "2/3", "2"),
])
def test_column_kernel_where_1_minus_s_x_vanishes(q, s, x, y):
    # admissible identity-mode pairs where 1 - s x or 1 - s y vanishes: the
    # kernel's weights and errors on both sides are the Fraction weights',
    # and so are p_fwd's and p_bwd's tables
    params, x, y = ModelParams.make(q, s), F(x), F(y)
    l_row, mstar_row = VertexRow(y, params), VertexRow(x, params)
    qn, qd, P, Q = pair_ints(x, y, params)
    rstar = r_row(qn, qd, P, Q)
    assert not l_row.base * mstar_row.base
    for context in GRID_CONTEXTS:
        I, J, ip, jp, k, l = context
        for side, weight in (("B", weight_b), ("A", weight_a)):
            try:
                expected = _terms(weight, context, x, y, params)
            except InvalidParams as exc:
                with pytest.raises(InvalidParams, match=f"^{exc}$"):
                    column_weights(side, l_row, mstar_row, rstar, *context)
                expected = InvalidParams
            else:
                outcomes, ws = column_weights(side, l_row, mstar_row, rstar, *context)
                den = (l_row.vd * mstar_row.vd if I is INF
                       else l_row.base * mstar_row.base * qd ** (I + J + 2)) * rstar[3]
                assert list(zip(outcomes, (F(w, den) for w in ws))) == expected, (side, context)
            # column 0 has the sentinel weights; a finite column raises
            # "1 - s x vanished" exactly when some configuration conserves paths
            pins = [(I + ip - a, J + jp - b) if side == "B" else (I + l - b, J + k - a)
                    for a in (0, 1) for b in (0, 1)]
            conserving = I is not INF and any(m == n >= 0 for m, n in pins)
            assert (expected is InvalidParams) == conserving, (side, context)
    _check_rows(x, y, params, GRID_CONTEXTS)


def test_rows_keep_the_weight_checks():
    # a weight of the wrong sign (q > 1 makes RSTAR(1,1;0,0) negative)
    q_big = ModelParams.make("3/2", "-1/2")
    assert _coupling(weight_b, (INF, INF, 1, 0, 0, 0), X, Y, q_big)[0] is NonStochastic
    with pytest.raises(NonStochastic, match="negative probability -"):
        p_fwd(INF, INF, 1, 0, 0, 0, X, Y, q_big)
    # 1 - s x = 0 at an admissible pair (s = 2, x = 1/2, y = 3)
    with pytest.raises(InvalidParams, match="1 - s x vanished"):
        p_fwd(0, 0, 0, 0, 0, 0, F(1, 2), F(3), ModelParams.make("1/3", 2))
    # the column-0 tables need no 1 - s x
    assert p_fwd(INF, INF, 1, 0, 0, 1, F(1, 2), F(3), ModelParams.make("1/3", 2)).probs == (1,)
    with pytest.raises(NotAdmissible):
        p_fwd(INF, INF, 1, 0, 0, 0, F(1), F(1), ModelParams.make("1/3", "-1/2"))


@pytest.mark.parametrize("x, y, text", [
    (F(1), F(1), "(1, 1)"), (F(3, 2), F(2, 3), "(3/2, 2/3)"), (F(-5, 4), F(-4, 3), "(-5/4, -4/3)"),
])
def test_integer_built_sampler_names_the_pair_it_refuses(params, x, y, text):
    # the sampler reads x and y as integers; its refusal prints them as Fractions
    with pytest.raises(NotAdmissible) as exc:
        compiled(params).sampler(x, y)
    assert str(exc.value) == f"{text} not admissible"


# an identity-mode point (q > 1) whose jump rows are probabilities: every
# x_a x_j > 1, so 1 - q x_a x_j < 0 and each row entry is negated to den > 0
JUMP_POINTS = FIXTURE_POINTS + (ModelParams.make("3/2", "-1/2", 1, ("2", "3", "5/2", "4", "7/3")),)


@pytest.mark.parametrize("point", range(len(JUMP_POINTS)))
def test_jump_rows_equal_the_jump_coefficients(point):
    # the integer rows hold, cell for cell, the public one-pair view's triples
    params = JUMP_POINTS[point]
    model = compiled(params)
    for j in range(len(params.x)):
        row = model.jumps(j)
        assert len(row) == j
        for i in range(1, j + 1):
            assert row[i - 1] == jump_coefficients(params.x[i - 1], params.x[j], params), (i, j)
    if point == len(FIXTURE_POINTS):
        assert not params.is_probabilistic()
        assert all(den > 0 for j in range(len(params.x)) for _, _, den in model.jumps(j))


def _first_bad_cell(params, j):
    """(error type, i) of the first cell (i, j) whose jump coefficients are not a law, or None."""
    for i in range(1, j + 1):
        try:
            b, c, den = jump_coefficients(params.x[i - 1], params.x[j], params)
        except InvalidParams:
            return InvalidParams, i
        if not (0 <= b <= den and 0 <= c <= den):
            return NonStochastic, i
    return None


@pytest.mark.parametrize("q, xs, j, error, i", [
    # 1 - q x_1 x_3 = 1 - (1/3)(1)(3) vanishes at cell (2, 3); cell (1, 3) is a law
    ("1/3", ("1/6", "1", "1/2", "3"), 3, InvalidParams, 2),
    # cell (1, 3) has c = 2 before the vanishing cell (2, 3)
    ("1/3", ("-1", "1", "1/2", "3"), 3, NonStochastic, 1),
    # the vanishing cell (1, 3) comes before the cell (2, 3) with c = 2
    ("1/3", ("1", "-1", "1/2", "3"), 3, InvalidParams, 1),
    # q > 1 with x y < 1: c = (1 - x y)/(1 - q x y) > 1 from the first cell on
    ("3/2", ("1/4", "1/5", "1/6"), 2, NonStochastic, 1),
])
def test_jump_rows_raise_at_the_first_bad_cell(q, xs, j, error, i):
    params = ModelParams.make(q, "-1/2", 1, xs)
    assert _first_bad_cell(params, j) == (error, i)
    model = compiled(params)
    for _ in range(2):  # a refused row is not kept
        with pytest.raises(error) as exc:
            model.jumps(j)
    if error is InvalidParams:
        assert str(exc.value) == "1 - q x_{i-1} x_j vanished"
    else:
        b, c, den = jump_coefficients(params.x[i - 1], params.x[j], params)
        assert str(exc.value) == (f"jump coefficients b = {b}/{den}, c = {c}/{den} of cell "
                                  f"({i}, {j}) are not probabilities")


def test_emitted_tables_normalize(params):
    for I in range(3):
        for J in range(3):
            for bits in range(16):
                ip, jp, k, l = (bits >> 3) & 1, (bits >> 2) & 1, (bits >> 1) & 1, bits & 1
                for maker in (p_fwd, p_bwd):
                    try:
                        tbl = maker(I, J, ip, jp, k, l, X, Y, params)
                    except ZeroSector:
                        continue
                    assert sum(tbl.probs, F(0)) == 1
                    assert all(p >= 0 for p in tbl.probs)


def test_forward_distribution_accounts_for_all_mass(params):
    for kappa, lam, mu in [((), (), ()), ((1,), (2, 1), (1, 1)), ((2,), (2, 1), (3,))]:
        dist, overflow = forward_distribution(kappa, lam, mu, X, Y, params, part_cap=25)
        assert sum(dist.values(), F(0)) + overflow == 1
        assert overflow < F(1, 10**6)
        for nu in dist:
            assert interlaces(lam, nu) and interlaces(mu, nu)


def test_forward_law_from_empty_corner(params):
    dist, _ = forward_distribution((), (), (), X, Y, params, part_cap=30)
    kern = cauchy_kernel(X, Y, params)
    assert dist[()] == (1 - X * Y) / (1 - params.q * X * Y)
    for k in range(1, 25):
        expect = f_one_row((), (k,), X, params) * g_one_row((), (k,), Y, params) / kern
        assert dist[(k,)] == expect


def test_probabilities_of_a_target_off_the_interlacing_are_exact_zeros(params):
    # nu = (3, 3) lies above neither lam nor mu, and kappa = (2,) below neither
    p = forward_prob((), (1,), (1,), (3, 3), X, Y, params)
    assert p == 0 and type(p) is F
    p = backward_prob((2, 1), (1,), (1,), (2,), X, Y, params)
    assert p == 0 and type(p) is F


def test_exact_reversibility_enumerated(params):
    # U_fwd(kappa->nu) Pi f_{lam/kappa}(x) g_{mu/kappa}(y)
    #   == U_bwd(nu->kappa) f_{nu/mu}(x) g_{nu/lam}(y), parts <= 4
    kern = cauchy_kernel(X, Y, params)
    checked = 0
    for kappa in enumerate_partitions(2, 2):
        for lam in interlacing_above(kappa, cap_part=3):
            for mu in interlacing_above(kappa, cap_part=3):
                for nu in interlacing_above(lam, cap_part=4):
                    if not interlaces(mu, nu):
                        continue
                    lhs = forward_prob(kappa, lam, mu, nu, X, Y, params) * kern \
                        * f_one_row(kappa, lam, X, params) * g_one_row(kappa, mu, Y, params)
                    rhs = backward_prob(nu, lam, mu, kappa, X, Y, params) \
                        * f_one_row(mu, nu, X, params) * g_one_row(lam, nu, Y, params)
                    assert lhs == rhs, (kappa, lam, mu, nu)
                    checked += 1
    assert checked > 1000


def test_boundary_reversibility_with_tail_weights(params):
    # U_fwd(kappa->nu|mu) Pi g_{mu/kappa}(y) G_kappa(x)
    #   == U_bwd(nu->kappa|mu) f_{nu/mu}(x) G_nu(y)
    kern = cauchy_kernel(X, Y, params)
    checked = 0
    for kappa in enumerate_partitions(3, 3):
        lam = even_cover(kappa)
        for mu in interlacing_above(kappa, cap_part=4):
            for nu in interlacing_above(lam, cap_part=4):
                if not interlaces(mu, nu):
                    continue
                assert even_core(nu) == lam  # uniqueness of the even sandwich
                lhs = forward_prob(kappa, lam, mu, nu, X, Y, params) * kern \
                    * g_one_row(kappa, mu, Y, params) * tail_weight(kappa, X, params)
                rhs = backward_prob(nu, lam, mu, kappa, X, Y, params) \
                    * f_one_row(mu, nu, X, params) * tail_weight(nu, Y, params)
                assert lhs == rhs, (kappa, mu, nu)
                checked += 1
    assert checked > 300


def test_backward_trivial_case(params):
    # everything empty: the backward move returns the empty corner surely
    assert backward_prob((), (), (), (), X, Y, params) == 1
    rng = RandomSource(0, 5)
    assert bulk_backward((), (), (), X, Y, rng, params) == ()


def test_backward_row_stochastic_on_support(params):
    # summing the backward law over reachable kappa gives exactly one
    lam, mu = (2, 1), (1, 1)
    for nu in [(2, 1), (3, 1), (2, 1, 1), (2, 2, 1)]:
        if not (interlaces(lam, nu) and interlaces(mu, nu)):
            continue
        total = F(0)
        for kappa in enumerate_partitions(3, 3):
            if interlaces(kappa, lam) and interlaces(kappa, mu):
                total += backward_prob(nu, lam, mu, kappa, X, Y, params)
        assert total == 1, nu


def test_length_projection_matches_column0(params):
    # the conditional law of len(nu) is the column-0 coupling pushed forward
    q = params.q
    den = 1 - q * X * Y
    for lk in range(3):
        for da in (0, 1):
            for db in (0, 1):
                ll, lm = lk + da, lk + db
                tbl = length_transition("bulk", (lk, ll, lm), X, Y, params).as_dict()
                col0 = p_fwd(INF, INF, 1, 0, db, da, X, Y, params)
                pushed = {}
                for (i0, j0, _), p in zip(col0.outcomes, col0.probs):
                    # i0 = len(nu) - len(lam), j0 = len(nu) - len(mu)
                    assert ll + i0 == lm + j0
                    pushed[ll + i0] = pushed.get(ll + i0, F(0)) + p
                assert pushed == tbl, (lk, ll, lm)


def test_length_tables_frozen_values(params):
    q = params.q
    den = 1 - q * X * Y
    assert length_transition("bulk", (2, 3, 3), X, Y, params).as_dict() == {
        3: (1 - q) / den, 4: q * (1 - X * Y) / den,
    }
    assert length_transition("boundary", (2, 2), X, Y, params).as_dict() == {
        2: (1 - X * Y) / den, 3: (1 - q) * X * Y / den,
    }
    assert length_transition("boundary", (3, 3), X, Y, params).as_dict() == {4: F(1)}
    assert length_transition("boundary", (3, 4), X, Y, params).as_dict() == {
        4: (1 - q) / den, 5: q * (1 - X * Y) / den,
    }
    assert length_transition("bulk", (1, 1, 2), X, Y, params).as_dict() == {2: F(1)}


def test_length_patterns_reject_vanishing_denominator(params):
    # 1 - qxy = 0 at q = 1/3, xy = 3: the laws come from jump_coefficients,
    # which raises InvalidParams (exit 2, like NotAdmissible before)
    assert params.q == F(1, 3)
    with pytest.raises(InvalidParams, match="vanished"):
        length_patterns(F(3), F(1), params)


def test_boundary_length_projection(params):
    # boundary tables equal the exact length marginals of the boundary operator
    for kappa in [(), (1,), (2, 1), (1, 1), (3, 2, 1)]:
        for mu in interlacing_above(kappa, cap_part=4):
            dist, overflow = boundary_forward_distribution(kappa, mu, X, Y, params, 35)
            bylen = {}
            for nu, p in dist.items():
                bylen[len(nu)] = bylen.get(len(nu), F(0)) + p
            tbl = length_transition("boundary", (len(kappa), len(mu)), X, Y, params).as_dict()
            for ln, p in tbl.items():
                assert abs(bylen.get(ln, F(0)) - p) <= overflow


def test_sampler_agrees_with_exact_law(params):
    # frequency check of bulk_forward against its exact distribution
    kappa, lam, mu = (1,), (2, 1), (1, 1)
    dist, _ = forward_distribution(kappa, lam, mu, X, Y, params, part_cap=30)
    rng = RandomSource(123, 9)
    n = 20_000
    counts = {}
    for _ in range(n):
        nu = bulk_forward(kappa, lam, mu, X, Y, rng, params)
        counts[nu] = counts.get(nu, 0) + 1
    for nu, p in sorted(dist.items(), key=lambda kv: -kv[1])[:6]:
        pf = float(p)
        assert abs(counts.get(nu, 0) - n * pf) < 5 * max((n * pf * (1 - pf)) ** 0.5, 1.0)


@pytest.mark.parametrize("kappa, lam, mu", [
    ((), (), ()),  # top = 0: every part of nu comes from the scan past top
    ((1,), (2, 1), (1, 1)),
    ((2, 1), (3, 1, 1), (2, 2, 1)),
])
def test_forward_draws_are_the_exact_law_on_every_tape(params, kappa, lam, mu):
    # every k-bit tape, played into bulk_forward: the tapes that resolve to nu
    # bound P(nu) from below, and with the unresolved ones from above
    k = 12
    dist, overflow = forward_distribution(kappa, lam, mu, X, Y, params, part_cap=40)
    assert overflow < F(1, 2**k)
    counts, unresolved = {}, 0
    for bits in itertools.product((0, 1), repeat=k):
        try:
            nu = bulk_forward(kappa, lam, mu, X, Y, _Replay(bits), params)
        except _Exhausted:
            unresolved += 1
            continue
        counts[nu] = counts.get(nu, 0) + 1
    assert set(counts) <= set(dist) and len(counts) > 3
    for nu, p in dist.items():
        n = counts.get(nu, 0)
        assert F(n, 2**k) <= p <= F(n + unresolved, 2**k), nu
    assert unresolved < 2**k // 4
    if not lam:  # the scan past top = 0 runs several columns on some tapes
        assert max(nu[0] for nu in counts if nu) >= 3


@pytest.mark.parametrize("point", range(len(FIXTURE_POINTS)))
def test_column_tables_have_at_most_two_outcomes(point):
    # conservation on both rows pins a - b on a finite column, and RSTAR has at
    # most two entries per pair of crossing bits at the INF column, so every
    # forward and backward table is forced or a Bernoulli draw
    params = FIXTURE_POINTS[point]
    sampler = compiled(params).sampler(params.x[0], params.x[1])
    contexts = [(I, J, *bits)
                for I, J in [(INF, INF)] + [(I, J) for I in range(7) for J in range(7)]
                for bits in itertools.product((0, 1), repeat=4)]
    sizes = {}
    for context in contexts:
        for table in (sampler.fwd, sampler.bwd):
            try:
                tbl = table(*context)
            except ZeroSector:
                continue
            n = len(tbl.outcomes)
            assert n == len(tbl.cum), context
            sizes[n] = sizes.get(n, 0) + 1
    assert set(sizes) == {1, 2} and sum(sizes.values()) > 200, sizes


class _Bare:
    """A bit source with only bit() and substream(*key), counting the bits it hands out."""

    def __init__(self, inner):
        self._inner = inner
        self.bits = 0

    def bit(self):
        self.bits += 1
        return self._inner.bit()

    def substream(self, *key):
        return _Bare(self._inner.substream(*key))


def _twin_sources(kind):
    """Two sources at the same place: RandomSource(11, 4), or a CellBits of its cell (1, 1)."""
    if kind == "random":
        return RandomSource(11, 4), RandomSource(11, 4)
    parent = RandomSource(11, 4)
    (i, j, u), = parent.cell_words(1)
    return CellBits(u, parent, i, j), CellBits(u, parent, i, j)


def test_table_draws_read_the_bits_of_the_categorical_draw():
    # one- and two-outcome tables take the forced and Bernoulli paths, wider
    # ones the bit-by-bit draw; each reads the bits _sample_from_cumulative reads
    laws = [(F(1),), (F(1, 3), F(2, 3)), (F(1, 2), F(1, 2)), (F(0), F(1)), (F(1), F(0)),
            (F(5, 7), F(1, 7), F(1, 7)), (F(1, 4), F(1, 4), F(1, 3), F(1, 6))]
    for kind in ("random", "cell"):
        for n, probs in enumerate(laws * 10):
            tbl = TransitionTable.from_probs(range(len(probs)), probs)
            src, twin = _twin_sources(kind)
            for _ in range(n):  # start the draws at different offsets in the word
                src.bit(), twin.bit()
            bare = _Bare(twin)
            assert tbl.sample(src) == _sample_from_cumulative(tbl.cum, bare), (kind, probs)
            assert [src.bit() for _ in range(200)] == [twin.bit() for _ in range(200)]


# staircases: a draw at nearly every column, over 63 bits in all
_STAIR, _LONG_STAIR = tuple(range(64, 0, -1)), tuple(range(128, 0, -1))

_OPERATOR_CASES = {
    "bulk_forward": lambda rng, p: bulk_forward(_STAIR, _STAIR, _STAIR, X, Y, rng, p),
    "boundary_forward": lambda rng, p: boundary_forward(_LONG_STAIR, _LONG_STAIR, X, Y, rng, p),
    "bulk_backward": lambda rng, p: bulk_backward(_STAIR, _STAIR, _STAIR, X, Y, rng, p),
}


@pytest.mark.parametrize("kind", ["random", "cell"])
@pytest.mark.parametrize("case", list(_OPERATOR_CASES))
def test_operators_read_the_bits_of_a_bit_only_source(params, case, kind):
    # the forced and word draws on a RandomSource or CellBits give the partition
    # the bit-by-bit draws give on the same bits, and leave the source in step;
    # the CellBits cell reads on past its first word
    run = _OPERATOR_CASES[case]
    for rep in range(4):
        src, twin = _twin_sources(kind)
        for _ in range(17 * rep):
            src.bit(), twin.bit()
        bare = _Bare(twin)
        assert run(src, params) == run(bare, params), (case, kind, rep)
        assert 17 * rep + bare.bits > 63, (case, kind, rep)
        assert [src.bit() for _ in range(200)] == [twin.bit() for _ in range(200)]


@pytest.mark.parametrize("per_cell_streams", [True, False])
@pytest.mark.parametrize("T", [4, 16, 48])
def test_fields_are_the_same_on_a_bit_only_source(T, per_cell_streams):
    params = ModelParams.make("1/3", "-1/2", "1/2", default_spectral(T + 1))
    for seed in (0, 5):
        bare = sample_field(T, RandomSource(seed, 2), params, per_cell_streams)
        wrapped = sample_field(T, _Bare(RandomSource(seed, 2)), params,
                               per_cell_streams)
        assert field_to_json(bare) == field_to_json(wrapped), (T, seed)


def test_forward_backward_round_trip_support(params):
    rng = RandomSource(3, 2)
    for _ in range(50):
        nu = bulk_forward((1,), (1, 1), (2,), X, Y, rng, params)
        assert interlaces((1, 1), nu) and interlaces((2,), nu)
        kappa = bulk_backward(nu, (1, 1), (2,), X, Y, rng, params)
        assert interlaces(kappa, (1, 1)) and interlaces(kappa, (2,))
    nu = boundary_forward((2, 1), (2, 2), X, Y, rng, params)
    assert interlaces(even_cover((2, 1)), nu)
    kap = boundary_backward(nu, (2, 2), X, Y, rng, params)
    assert interlaces(kap, even_core(nu))


def _refusal(run):
    """The text of the ValueError run() raises, or None when it returns.

    Neither ZeroSector nor NonStochastic (both ValueErrors) may come instead.
    """
    try:
        run()
    except ValueError as exc:
        assert type(exc) is ValueError, exc
        return str(exc)
    return None


def test_walks_check_interlacing_like_interlaces(params):
    # the walk's 0/1 state check is the interlacing check of bulk_backward
    # and the exact laws, and its states count parts above each column,
    # negated on the B side; bulk_forward checks the same states in its own
    # pass, column by column, and refuses the same triples with the same text
    shapes = enumerate_partitions(3, 3)
    rng = RandomSource(8, 3)
    need = "need kappa ≺ lam and kappa ≺ mu; got "
    for p in shapes:
        for a in shapes:
            for b in shapes:
                for side, sign, expect in (("A", 1, interlaces(p, a) and interlaces(p, b)),
                                           ("B", -1, interlaces(a, p) and interlaces(b, p))):
                    try:
                        _, _, c_a, c_b, _ = _walk(side, p, a, b, 3)
                    except ValueError:
                        assert not expect, (side, p, a, b)
                        continue
                    assert expect, (side, p, a, b)
                    above = [[sum(v > h for v in part) for h in range(4)] for part in (p, a, b)]
                    assert c_a == [sign * (n - m) for n, m in zip(above[1], above[0])]
                    assert c_b == [sign * (n - m) for n, m in zip(above[2], above[0])]
                text = _refusal(lambda: bulk_forward(p, a, b, X, Y, rng, params))
                if interlaces(p, a) and interlaces(p, b):
                    assert text is None, (p, a, b)
                else:
                    assert text == f"{need}{p}, {a}, {b}", (p, a, b)
        for b in shapes:  # the boundary move conditions on the even cover, above every p
            text = _refusal(lambda: boundary_forward(p, b, X, Y, rng, params))
            if interlaces(p, b):
                assert text is None, (p, b)
            else:
                assert text == f"{need}{p}, {even_cover(p)}, {b}", (p, b)


def test_preconditions(params):
    rng = RandomSource(0, 0)
    with pytest.raises(ValueError):
        bulk_forward((3,), (1,), (1,), X, Y, rng, params)
    bad = ModelParams.make("1/3", "-1/2")
    with pytest.raises(NotAdmissible):
        bulk_forward((), (), (), F(1), F(1), rng, bad)


def _fresh_params(q="1/3", u="1/2"):
    return ModelParams.make(q, "-1/2", u, [f"1/{i + 4}" for i in range(10)])


LIFETIME_CASES = {
    "sample_field": lambda p: sample_field(4, RandomSource(0, 0), p),
    "ds6v_sample": lambda p: ds6v_sample(4, RandomSource(0, 1), p),
    "particle_trajectory": lambda p: particle_trajectory(4, RandomSource(0, 2), p),
    "bulk_backward": lambda p: bulk_backward(
        (2, 1), (1, 1), (2,), p.x[0], p.x[1], RandomSource(0, 3), p),
    "backward_prob": lambda p: backward_prob((2, 1), (1, 1), (2,), (1,), p.x[0], p.x[1], p),
}


@pytest.mark.parametrize("k, case", enumerate(LIFETIME_CASES), ids=list(LIFETIME_CASES))
def test_tables_live_only_as_long_as_params(k, case):
    # u differs per case, so a cache keyed by equal params cannot hit across cases
    params = _fresh_params(u=F(1, 2 + k))
    ref = weakref.ref(params)
    LIFETIME_CASES[case](params)
    del params
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("sampler", [sample_field, ds6v_sample])
def test_samplers_check_params_even_with_no_cells(sampler):
    with pytest.raises(InvalidParams):
        sampler(0, RandomSource(0, 0), _fresh_params(q="3/2"))
