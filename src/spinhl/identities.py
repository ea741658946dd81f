"""Exact verification of the local equations and global summation identities.

Local equations (exchange relations, reflection, stochasticity) are finite
sums of rational weights and are checked for exact equality, as integer
numerators over one common denominator, taken from the integer forms of
:mod:`spinhl.weights`.  Each exchange relation is one integer block per
occupancy pair (I, J), which holds both sides of its 16 labelled cases;
the starred block sums the random field's own column weights
(weights.column_weights).  A reflection case puts both sides over one
denominator, with the pairing factors as a running integer product.
Fractions are made only for the first failure and for the public *_sides
functions, which are Fraction views of the same integer forms.  Global
identities (Cauchy / Littlewood and their refined determinant / Pfaffian
forms) have one infinite side, which the integer column-transfer kernel
of :mod:`spinhl.sshl` sums: ``column_sums`` returns the sum grouped by
the length of lam, truncated by largest part at a cap or, at cap =
math.inf, exactly.  With no ys it sums the Littlewood side, with the
pairing factor of every column.  The plain sum's closed form is prod Pi
over its variable pairs (``_pairs``, ``_kernel_product``).

* one-variable Cauchy (``check_cauchy_closed_form``): the exact infinite
  sum against Pi(x; y), an exact report;

* skew sums in any number of variables (skew Cauchy in xs and ys, skew
  Littlewood in xs), ``exact_tail``: the kernel's chains start from the
  fixed inner partitions, and the report carries the partial sum at the
  cap with its exact tail, the infinite sum minus the partial sum, so a
  pass means |lhs - rhs| <= tail with everything exact.  The finite side
  is a sum of f_skew / g_skew over the partitions in the inner shapes'
  box.  Skew Littlewood in one variable has a finite left side too, read
  exactly, and its report is exact;

* refined sums, ``_refined_report``: the only sums that keep a bound.
  The partial sum at the cap weights each length by its refinement
  coefficient; these lie in [0, 1] for u in [0, 1] in probabilistic mode,
  so the tail is dominated by the tail of the plain (unrefined) identity,
  whose total is a known closed form; the bound is closed_form -
  retained_plain_sum, an exact rational.  The determinant and Pfaffian
  closed forms share one refinement cell (``_refinement_cell``) and one
  skew elimination (``_pfaffian``), which reads a determinant as a Pfaffian.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import (
    DegenerateVandermonde,
    DimensionMismatch,
    InvalidParams,
    ModelParams,
    NotAdmissible,
    ONE,
    ZERO,
    admissible,
    convergence_ratio,
    frac,
)
from .partitions import enumerate_partitions, even_pair_coefficient
from .sshl import column_sums, f_skew, g_skew
from .weights import (
    INF,
    L_TABLE,
    M_TABLE,
    R_SLOTS,
    VertexRow,
    _check_den,
    column_weights,
    pair_ints,
    r_row,
)


def cauchy_kernel(x, y, params):
    """Pi(x; y) = (1 - qxy)/(1 - xy), the single-cell Cauchy normalization.

    It is the crossing row's slot 0 over its slot 3 (weights.r_row), the
    factor by which each RSTAR entry exceeds the R entry of its slot.
    """
    r = r_row(*pair_ints(x, y, params))
    if not r[3]:
        raise InvalidParams("1 - x y vanished in Cauchy kernel")
    return Fraction(r[0], r[3])


@dataclass
class CheckReport:
    name: str
    mode: str  # "exact" | "truncated"
    lhs: Fraction
    rhs: Fraction
    passed: bool
    tail_bound: Fraction = ZERO
    detail: str = ""

    def to_json(self):
        out = {
            "name": self.name,
            "mode": self.mode,
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "passed": self.passed,
        }
        if self.mode == "truncated":
            out["lhs_float"] = float(self.lhs)
            out["rhs_float"] = float(self.rhs)
            out["tail_bound"] = str(self.tail_bound)
            out["tail_bound_float"] = float(self.tail_bound)
        if self.detail:
            out["detail"] = self.detail
        return json.dumps(out)


def _require_admissible(pairs, params):
    """NotAdmissible at the first (x, y) in pairs that is not admissible."""
    for x, y in pairs:
        if not admissible(x, y, params):
            raise NotAdmissible(f"({x}, {y}) not admissible")


def _exact_report(name, lhs, rhs, detail=""):
    return CheckReport(name, "exact", lhs, rhs, lhs == rhs, detail=detail)


def _truncated_report(name, lhs, rhs, tail, detail=""):
    return CheckReport(name, "truncated", lhs, rhs, abs(lhs - rhs) <= tail, tail, detail)


# ---------------------------------------------------------------------------
# local equations
# ---------------------------------------------------------------------------

def intertwining_sides(I, J, i1, i3, j1, j3, x, y, params):
    """Both sides of the exchange relation moving an R crossing through an (M, L) column pair.

    Left: crossing first, then the column with M (spectral y) below L
    (spectral x).  Right: column first (L below M), then the crossing.
    The middle occupancy is pinned by conservation, so the sums are finite.
    This is the Fraction view of one case of _intertwining's block.
    """
    return _fraction_sides(_intertwining(x, y, params), I, J, (i1, i3, j1, j3))


# The 16 labelled cases of an occupancy pair, in block order: case b of a
# block is the bits of b, highest first (i1 i3 j1 j3, or i_in j_in k_out l_out).
_CASES = tuple(itertools.product((0, 1), repeat=4))


def _intertwining(x, y, params):
    """The exchange relation of intertwining_sides on integers, as (block, den).

    block(I, J) gives both sides' numerators of the 16 labelled cases of
    the occupancy pair (I, J), as two lists in _CASES order, over den(I, J)
    = base_x base_y qd^(I+J+2) qd Q (1 - q x y): every M and L vertex is
    taken over the exponent I + 1 or J + 1, which bounds both of its
    occupancies.  Each side's nonzero terms are made once: a nonzero R
    entry and one free bit (j1 on the left, i1 on the right) fix the
    middle occupancy and the last bit by conservation.  Raises
    InvalidParams("1 - q x y vanished"), and then InvalidParams("1 - s x
    vanished") when 1 - s x or 1 - s y does, the first errors the Fraction
    weights meet at the first labelled case.
    """
    xr, yr = VertexRow(x, params), VertexRow(y, params)
    qn, qd, P, Q = pair_ints(x, y, params)
    r = r_row(qn, qd, P, Q)  # r[0] is also R's denominator
    _check_den(r[0], "1 - q x y")
    _check_den(xr.base * yr.base, "1 - s x")
    entries = [(key, r[slot]) for key, slot in R_SLOTS.items()]

    def block(I, J):
        lhs, rhs = [0] * 16, [0] * 16
        for (a, b, c, d), w in entries:
            for free in (0, 1):
                # left: R(i3, i1; k3, k1) = R(a, b; c, d), j1 = free
                K = I + d - free
                j3 = K - J + c
                if K >= 0 and (j3 == 0 or j3 == 1):
                    lhs[b << 3 | a << 2 | free << 1 | j3] += (
                        w * yr.num(M_TABLE, I, d, K, free, I + 1)
                        * xr.num(L_TABLE, K, c, J, j3, J + 1))
                # right: R(k3, k1; j3, j1) = R(a, b; c, d), i1 = free
                K = J + b - free
                i3 = K - I + a
                if K >= 0 and (i3 == 0 or i3 == 1):
                    rhs[free << 3 | i3 << 2 | d << 1 | c] += (
                        xr.num(L_TABLE, I, i3, K, a, I + 1)
                        * yr.num(M_TABLE, K, free, J, b, J + 1) * w)
        return lhs, rhs

    return block, lambda I, J: xr.base * yr.base * qd ** (I + J + 2) * r[0]


def _fraction_sides(relation, I, J, bits):
    """The two sides of an exchange relation (block, den) at one labelled case, as Fractions.

    Labels off the lattice (a bit other than 0 and 1, a negative
    occupancy) have no configuration: both sides are 0.
    """
    block, den = relation
    d = den(I, J)
    if min(I, J) < 0 or not all(b == 0 or b == 1 for b in bits):
        return ZERO, ZERO
    case = _CASES.index(tuple(bits))
    return tuple(Fraction(side[case], d) for side in block(I, J))


def check_intertwining(params, x, y, max_occ=6):
    """Exact equality of the exchange relation for all boundary bits and occupancies <= max_occ."""
    return _exchange_report("intertwining", _intertwining(x, y, params), max_occ)


def _exchange_report(name, relation, max_occ):
    """Compare both sides of an exchange relation on every occupancy pair and boundary bits.

    relation is (block, den) as _intertwining gives it: one block per
    occupancy pair holds both sides of its 16 cases over one denominator,
    so the numerators are compared as integers; only the first failure is
    written out, as Fractions.
    """
    block, den = relation
    failures, first = 0, None
    for I in range(max_occ + 1):
        for J in range(max_occ + 1):
            lhs, rhs = block(I, J)
            for case, bits in enumerate(_CASES):
                if lhs[case] != rhs[case]:
                    failures += 1
                    if first is None:
                        d = den(I, J)
                        first = (I, J, *bits, Fraction(lhs[case], d), Fraction(rhs[case], d))
    total = (max_occ + 1) ** 2 * 16
    return CheckReport(
        name, "exact", frac(total - failures), frac(total),
        not failures, detail=f"{total} labelled cases; first failure: {first}",
    )


def intertwining_star_sides(I, J, i_in, j_in, k_out, l_out, x, y, params):
    """Both sides of the starred exchange relation on an (MSTAR, L) column pair.

    Left: RSTAR crossing with inputs (i_in, j_in), then MSTAR (spectral x)
    below L (spectral y).  Right: the swapped column (L below MSTAR), then
    the crossing with outputs (k_out, l_out).  These are the total A- and
    B-weights of the random field's column (I, J, i_in, j_in, k_out, l_out).
    At the field's column 0 both occupancies are the INF sentinel; one INF
    next to a finite occupancy raises InvalidParams.  This is the Fraction
    view of one case of _intertwining_star's block.
    """
    return _fraction_sides(_intertwining_star(x, y, params), I, J, (i_in, j_in, k_out, l_out))


def _intertwining_star(x, y, params):
    """The starred exchange relation on integers, as (block, den) (see _intertwining).

    block(I, J) sums, for each of the 16 contexts (I, J, *bits), the A and
    B column weights of weights.column_weights, the kernel the random
    field's column tables normalise.  Raises InvalidParams("1 - x y
    vanished"), and then InvalidParams("1 - s x vanished") when 1 - s x or
    1 - s y does.
    """
    l_row, mstar_row = VertexRow(y, params), VertexRow(x, params)
    qn, qd, P, Q = pair_ints(x, y, params)
    rstar = r_row(qn, qd, P, Q)  # read by RSTAR_SLOTS; rstar[3] is RSTAR's denominator
    _check_den(rstar[3], "1 - x y")
    _check_den(mstar_row.base * l_row.base, "1 - s x")

    def block(I, J):
        return tuple([sum(column_weights(side, l_row, mstar_row, rstar, I, J, *bits)[1])
                      for bits in _CASES] for side in "AB")

    def den(I, J):
        if I is INF or J is INF:  # column 0: the sentinel entries are over vd
            if I is not J:
                raise InvalidParams(f"occupancies ({I}, {J}): INF stands for column 0, "
                                    "in both rows")
            return l_row.vd * mstar_row.vd * rstar[3]
        return l_row.base * mstar_row.base * qd ** (I + J + 2) * rstar[3]

    return block, den


def check_intertwining_star(params, x, y, max_occ=6):
    """Exact equality of the starred exchange relation; occupancies <= max_occ."""
    return _exchange_report("intertwining-star", _intertwining_star(x, y, params), max_occ)


def reflection_sides(K, j, l, x, params):
    """Both sides of the boundary reflection relation at top occupancy K.

    The left side flips the incoming horizontal state of an L vertex with
    even bottom occupancy 2I; the right side flips the outgoing state of
    an M vertex.  Conservation pins I on each side, so each side is at
    most a single term, weighted by prod_{k=1}^{I} (1-q^{2k-1})/(1-s^2 q^{2k-1}),
    which is pairing_factor(2I).  This is the Fraction view of
    _reflection's case.
    """
    return _reflection_fractions(*_reflection(x, params)(K, j, l))


def _reflection(x, params):
    """The reflection relation of reflection_sides on integers: case(K, j, l) -> (lhs, rhs, den).

    Both sides' numerators are over one denominator den.  The L and M
    entries are VertexRow numerators over base qd^(K+1) (the even bottom
    occupancy 2I is at most K + 1), and the pairing factors are a running
    integer product (num, den) per I, extended only as far as a case
    needs.  Like the Fraction weights, a case evaluates the left side's
    pairing factor, then its L entry, then the right side's: a vanishing
    1 - s^2 q^(2k-1) raises pairing_factor's InvalidParams at the first
    case that needs factor k, and a vanishing 1 - s x raises at the first
    entry with both occupancies >= 0.
    """
    row = VertexRow(x, params)
    qn, qd, sn, sd = row.qn, row.qd, row.sn, row.sd
    pairing = [(1, 1)]  # pairing_factor(2I) = num / den, by I

    def side(table, two_i, j, K, l):
        if two_i < 0 or two_i % 2:
            return 0, 1
        while len(pairing) <= two_i // 2:
            m = 2 * len(pairing) - 1
            den = sd * sd * qd**m - sn * sn * qn**m  # sd^2 qd^m (1 - s^2 q^m)
            if den == 0:
                raise InvalidParams(f"1 - s^2 q^{m} vanished")
            num, d = pairing[-1]
            pairing.append((num * sd * sd * (qd**m - qn**m), d * den))
        num, den = pairing[two_i // 2]
        return num * row.num(table, two_i, j, K, l, K + 1), den

    def case(K, j, l):
        # L(2I, 1-j; K, l) needs 2I + (1-j) = K + l; M(2I, j; K, 1-l) needs 2I + j = K + (1-l)
        lhs, lhs_den = side(L_TABLE, K + l + j - 1, 1 - j, K, l)
        rhs, rhs_den = side(M_TABLE, K + 1 - l - j, j, K, 1 - l)
        return lhs * rhs_den, rhs * lhs_den, row.base * qd ** (K + 1) * lhs_den * rhs_den

    return case


def _reflection_fractions(lhs, rhs, den):
    return tuple(Fraction(n, den) if n else ZERO for n in (lhs, rhs))


def check_reflection(params, x, max_occ=8):
    """Exact equality of the boundary reflection relation for top occupancies K <= max_occ.

    Every case (K, j, l) compares both sides' integer numerators over one
    denominator (_reflection); only the first failure is written out, as
    the Fractions reflection_sides gives.
    """
    case = _reflection(x, params)
    failures, first = 0, None
    for K in range(max_occ + 1):
        for j in (0, 1):
            for l in (0, 1):
                lhs, rhs, den = case(K, j, l)
                if lhs != rhs:
                    failures += 1
                    if first is None:
                        first = (K, j, l, *_reflection_fractions(lhs, rhs, den))
    total = (max_occ + 1) * 4
    return CheckReport(
        "reflection", "exact", frac(total - failures), frac(total),
        not failures, detail=f"{total} cases; first failure: {first}",
    )


def check_r_stochastic(params, x, y):
    """Row sums of the R table equal one exactly for each input pair.

    A row's entries are r_row numerators over R's one denominator, so the
    row sums to one exactly when its numerators sum to that denominator.
    """
    r = r_row(*pair_ints(x, y, params))  # r[0] is also R's denominator
    _check_den(r[0], "1 - q x y")
    bad = []
    for i in (0, 1):
        for j in (0, 1):
            total = sum(r[slot] for (a, b, _, _), slot in R_SLOTS.items() if (a, b) == (i, j))
            if total != r[0]:
                bad.append((i, j, Fraction(total, r[0])))
    return CheckReport(
        "r-stochastic", "exact", frac(4 - len(bad)), frac(4),
        not bad, detail=f"failures: {bad}" if bad else "4 input states",
    )


# ---------------------------------------------------------------------------
# exact Pfaffian / determinant: one skew elimination
# ---------------------------------------------------------------------------

def _pfaffian(a):
    """Pfaffian of the antisymmetric Fraction matrix a (a list of rows, overwritten).

    Skew elimination, two indices at a time: the pivot of index k is its
    first nonzero a[k][c], c > k, and index c is swapped into k + 1, rows
    and columns, which negates the Pfaffian.  The pivot a[k][k+1] is a
    factor, and the trailing block becomes its Schur complement, a[i][j] -=
    (a[k][i] a[k+1][j] - a[k+1][i] a[k][j]) / a[k][k+1] for i < j,
    mirrored.  A zero row gives 0.
    """
    n, pf = len(a), ONE
    for k in range(0, n, 2):
        c = next((c for c in range(k + 1, n) if a[k][c]), None)
        if c is None:
            return ZERO
        if c != k + 1:
            a[k + 1], a[c] = a[c], a[k + 1]
            for row in a[k:]:
                row[k + 1], row[c] = row[c], row[k + 1]
            pf = -pf
        rk, rl, p = a[k], a[k + 1], a[k][k + 1]
        pf *= p
        for i in range(k + 2, n):
            row = a[i]
            for j in range(i + 1, n):
                row[j] -= (rk[i] * rl[j] - rl[i] * rk[j]) / p
                a[j][i] = -row[j]
    return pf


def det_exact(rows):
    """Exact determinant, (-1)^(n(n-1)/2) times the Pfaffian of [[0, A], [-A^T, 0]] (_pfaffian)."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DimensionMismatch("determinant needs a square matrix")
    a = [[frac(v) for v in r] for r in rows]
    return (-1) ** (n * (n - 1) // 2) * _pfaffian(
        [[ZERO] * n + r for r in a] + [[-r[j] for r in a] + [ZERO] * n for j in range(n)])


def pfaffian_exact(rows):
    """Exact Pfaffian of an antisymmetric even-dimensional matrix, by _pfaffian's elimination."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DimensionMismatch("pfaffian needs a square matrix")
    if n % 2 != 0:
        raise DimensionMismatch("pfaffian needs even dimension")
    a = [[frac(v) for v in r] for r in rows]
    if any(a[i][j] != -a[j][i] for i in range(n) for j in range(i, n)):
        raise DimensionMismatch("matrix is not antisymmetric")
    return _pfaffian(a)


# ---------------------------------------------------------------------------
# tail machinery
# ---------------------------------------------------------------------------

def _pairs(xs, ys):
    """The variable pairs of a Cauchy-type sum: (x, y) in xs x ys, or with ys empty x_i, x_j, i < j."""
    return list(itertools.product(xs, ys) if ys else itertools.combinations(xs, 2))


def _kernel_product(pairs, params):
    """prod Pi(x; y) over the pairs, read one at a time.

    It is the closed form of the plain Cauchy / Littlewood sum, and
    field.normalization's path partition function.
    """
    return math.prod((cauchy_kernel(x, y, params) for x, y in pairs), start=ONE)


def exact_tail(name, xs, ys, cap, params, f_inner=(), g_inner=()):
    """Partial sum and exact tail of a one-largest-part sum truncated at cap.

    The sum is column_sums(xs, ys, c, params, f_inner, g_inner).  The
    convergence ratio of every variable pair (_pairs) is checked first:
    outside [0, 1) the tail would be negative, so no truncated report
    could pass.  Returns (partial, tail): the partial sum at cap, and the
    kernel's exact infinite sum (cap = math.inf) minus it.
    """
    for pair in _pairs(xs, ys):
        ratio = convergence_ratio(*pair, params)
        if not ZERO <= ratio < ONE:
            raise NotAdmissible(f"{name}: convergence ratio {ratio} not in [0, 1)")
    partial, total = (sum(column_sums(xs, ys, c, params, f_inner, g_inner).values(), ZERO)
                      for c in (cap, math.inf))
    return partial, total - partial


# ---------------------------------------------------------------------------
# global identities
# ---------------------------------------------------------------------------

def check_cauchy_closed_form(x, y, params):
    """Exact resummation of the one-variable Cauchy identity.

    The left side, the sum over lam of f_lam(x) g_lam(y), is the kernel's
    exact infinite sum (column_sums at cap = math.inf); it must equal
    Pi(x; y), with no truncation.  A divergent sum raises NotAdmissible.
    """
    _require_admissible([(x, y)], params)
    lhs = sum(column_sums((x,), (y,), math.inf, params).values(), ZERO)
    return _exact_report("cauchy-closed-form", lhs, cauchy_kernel(x, y, params))


def check_skew_cauchy(lam, mu, xs, ys, cap, params):
    """Skew Cauchy identity in xs and ys (at least one of each), truncated at parts <= cap.

    (1 / prod_{i,j} Pi(x_i; y_j)) * sum over outer kappa of
    g_{kappa/lam}(ys) f_{kappa/mu}(xs) equals the finite sum over nu of
    f_{lam/nu}(xs) g_{mu/nu}(ys), nu in the box of lam and mu (f_skew and
    g_skew are 0 unless nu lies inside both).  The outer side is the
    kernel's sum with inner partitions mu (f side) and lam (g side),
    truncated at cap with the exact tail of exact_tail("skew-cauchy", xs,
    ys, cap, params, mu, lam).
    """
    xs, ys = tuple(xs), tuple(ys)
    if not xs or not ys:
        raise InvalidParams("skew Cauchy needs at least one x and one y variable")
    pairs = _pairs(xs, ys)
    _require_admissible(pairs, params)
    pre = ONE / _kernel_product(pairs, params)
    outer, tail = exact_tail("skew-cauchy", xs, ys, cap, params, f_inner=mu, g_inner=lam)
    box = enumerate_partitions(min(lam[0] if lam else 0, mu[0] if mu else 0),
                               min(len(lam), len(mu)))
    rhs = sum((f_skew(nu, lam, xs, params) * g_skew(nu, mu, ys, params) for nu in box), ZERO)
    return _truncated_report(
        f"skew-cauchy[{lam}/{mu}]", pre * outer, rhs, pre * tail,
        detail=f"cap={cap}",
    )


def _even_inner(mu, n):
    """The conjugate-even nu that can lie n interlacing steps below mu.

    A chain nu = nu_0 < ... < nu_n = mu of interlacing steps holds
    mu_{i+n} <= nu_i <= mu_i, so the half h_k = nu_{2k-1} = nu_{2k} lies in
    [mu_{2k-1+n}, mu_{2k}]: a product of ranges, kept where non-increasing.
    g_skew(nu, mu, n variables) is 0 for every other nu in mu's box.
    """
    m = (0, *mu, *[0] * n)  # m[i] is mu_i, 0 past len(mu)
    halves = itertools.product(*(range(m[2 * k - 1 + n], m[2 * k] + 1)
                                 for k in range(1, len(mu) // 2 + 1)))
    return [tuple(p for h in half if h for p in (h, h))
            for half in halves if all(a >= b for a, b in zip(half, half[1:]))]


def check_skew_littlewood(mu, xs, cap, params):
    """Skew Littlewood identity in any number (at least one) of variables.

    The sum over conjugate-even lam of even_pair_coefficient(lam)
    f_{lam/mu}(xs) equals prod_{i<j} Pi(x_i; x_j) times the finite sum over
    conjugate-even nu of even_pair_coefficient(nu) g_{mu/nu}(xs); nu runs
    over the conjugate-even partitions within the interlacing bounds of mu
    (_even_inner; g_skew is 0 off the chains).  The left side is the
    kernel's Littlewood form with inner partition mu.  With one variable
    it is a finite sum (the even cover of mu is the one lam), read exactly
    at cap = math.inf, and the report is exact; with more it is truncated
    by largest part with the exact tail of exact_tail("skew-littlewood",
    xs, (), cap, params, f_inner=mu).
    """
    xs = tuple(xs)
    if not xs:
        raise InvalidParams("skew Littlewood needs at least one variable")
    pairs = _pairs(xs, ())
    _require_admissible(pairs, params)
    rhs = ZERO
    for nu in _even_inner(mu, len(xs)):
        w = g_skew(nu, mu, xs, params)
        if w:  # nu may still be off the chains, and needs no pairing coefficient then
            rhs += even_pair_coefficient(nu, params) * w
    rhs *= _kernel_product(pairs, params)
    name = f"skew-littlewood-{len(xs)}var[{mu}]"
    if len(xs) == 1:
        lhs = sum(column_sums(xs, (), math.inf, params, f_inner=mu).values(), ZERO)
        return _exact_report(name, lhs, rhs)
    lhs, tail = exact_tail("skew-littlewood", xs, (), cap, params, f_inner=mu)
    return _truncated_report(name, lhs, rhs, tail, detail=f"cap={cap}")


def _refinement_cell(x, y, u, params, form):
    """(1 - u q + (u - 1) q x y) / ((1 - x y)(1 - q x y)), a cell of the refined closed forms.

    form ("determinant" or "Pfaffian") names the matrix in the
    InvalidParams raised when the denominator vanishes.
    """
    q = params.q
    den = (ONE - x * y) * (ONE - q * x * y)
    if den == 0:
        raise InvalidParams(f"{form} cell denominator vanished")
    return (ONE - u * q + (u - ONE) * q * x * y) / den


def _q_product(pairs, params):
    """prod (1 - q x y) over the pairs."""
    return math.prod((ONE - params.q * x * y for x, y in pairs), start=ONE)


def refined_cauchy_rhs(xs, ys, u, params):
    """Determinant closed form of the refined Cauchy identity."""
    # the Vandermonde products of xs and ys, pair (i, j) of each at once
    den = math.prod(((a - b) * (c - d) for (a, b), (c, d)
                     in zip(_pairs(xs, ()), _pairs(ys, ()))), start=ONE)
    if den == 0:
        raise DegenerateVandermonde("repeated x or y value")
    mat = [[_refinement_cell(x, y, u, params, "determinant") for y in ys] for x in xs]
    return _q_product(_pairs(xs, ys), params) / den * det_exact(mat)


def check_refined_cauchy(xs, ys, u, cap, params):
    """Refined Cauchy identity for n x-variables against n y-variables, truncated.

    Left: sum over partitions with at most n parts, largest part <= cap, of
    f_lam(xs) g_lam(ys) weighted by prod_{i=1}^{n-len(lam)} (1 - u q^i).
    Right: the determinant closed form (refined_cauchy_rhs).  Tail bound
    by the plain Cauchy closed form prod Pi(x_i; y_j); see _refined_report.
    """
    xs, ys = tuple(xs), tuple(ys)
    if len(ys) != len(xs):
        raise InvalidParams("refined Cauchy needs equally many x and y variables")
    return _refined_report(f"refined-cauchy[n={len(xs)},u={u}]", xs, ys, u, cap, params,
                           lambda: refined_cauchy_rhs(xs, ys, u, params))


def _refined_report(name, xs, ys, u, cap, params, closed_form):
    """Truncated report of the refined identity in xs and ys (the Littlewood form if ys is empty).

    The plain form is the Cauchy identity over the pairs (x, y) of xs and
    ys, or with ys empty the Littlewood identity over the pairs x_i, x_j
    (i < j); its closed form is prod Pi over those pairs.  The retained
    plain sum, by len(lam), is one column_sums scan at the cap.  A lam
    with m = len(xs) - len(lam) zero parts has the refinement coefficient
    prod (1 - u q^i) over i = 1, 2, ..., m (Cauchy) or i = 1, 3, ... <= m
    (Littlewood).  With u in [0, 1] in probabilistic mode every
    coefficient lies in [0, 1], so the dropped terms are dominated by the
    plain tail: the bound is the plain closed form minus the retained
    plain sum, an exact rational.  The tail requirements are checked
    first (u in [0, 1], then probabilistic mode, then the admissible
    pairs), then the sum is scanned, and only then is closed_form() called
    for the refined right side.
    """
    plain, step = ("Cauchy", 1) if ys else ("Littlewood", 2)
    pairs = _pairs(xs, ys)
    if not (ZERO <= u <= ONE):
        raise InvalidParams("certified tail needs u in [0, 1]")
    params.require_probabilistic()
    _require_admissible(pairs, params)
    sums = column_sums(xs, ys, cap, params)
    rhs = closed_form()
    lhs = total = ZERO
    for length, term in sums.items():
        total += term
        coeff = ONE
        for i in range(1, len(xs) - length + 1, step):
            coeff *= ONE - u * params.q**i
        lhs += coeff * term
    tail = _kernel_product(pairs, params) - total
    if tail < 0:
        raise InvalidParams(f"plain {plain} partial sum exceeded its closed form")
    return _truncated_report(name, lhs, rhs, tail, detail=f"cap={cap}")


def refined_littlewood_rhs(xs, u, params):
    """Pfaffian closed form of the refined Littlewood identity (even variable count)."""
    pairs = _pairs(xs, ())
    den = math.prod((a - b for a, b in pairs), start=ONE)
    if den == 0:
        raise DegenerateVandermonde("repeated x value")
    mat = [[ZERO] * len(xs) for _ in xs]
    for i, j in _pairs(range(len(xs)), ()):
        a, b = xs[i], xs[j]
        mat[i][j] = (a - b) * _refinement_cell(a, b, u, params, "Pfaffian")
        mat[j][i] = -mat[i][j]
    return _q_product(pairs, params) / den * pfaffian_exact(mat)


def check_refined_littlewood(xs, u, cap, params):
    """Refined Littlewood identity for an even number of variables, truncated.

    Left: sum over partitions with all multiplicities even (so parts pair
    up and the length is even), largest part <= cap, of
    even_pair_coefficient(lam) f_lam(xs) weighted by the refinement
    coefficient prod_{k=1}^{m/2} (1 - u q^{2k-1}), m = 2n - len(lam); the
    kernel's Littlewood form (column_sums with no ys) gives the sums.
    Right: the Pfaffian closed form (refined_littlewood_rhs).  Tail bound
    by the plain Littlewood closed form prod_{i<j} Pi(x_i; x_j); see
    _refined_report.
    """
    xs = tuple(xs)
    if len(xs) % 2 != 0:
        raise InvalidParams("refined Littlewood needs an even number of variables")
    return _refined_report(f"refined-littlewood[2n={len(xs)},u={u}]", xs, (), u, cap, params,
                           lambda: refined_littlewood_rhs(xs, u, params))


# ---------------------------------------------------------------------------
# suite runner
# ---------------------------------------------------------------------------

FIXTURE_POINTS = (
    ModelParams.make("1/3", "-1/2", "1/2", ("1/4", "1/5", "1/6", "1/7")),
    ModelParams.make("2/5", "-1/3", "1/2", ("1/4", "1/5", "1/6", "1/7")),
    ModelParams.make("1/7", "-3/5", "1/2", ("1/4", "1/5", "1/6", "1/7")),
)


# run_suite's checks in their order, as (name, run(params, x, y, cap)) with
# x, y the point's first two spectral values.  The check functions are
# looked up when a check runs, so a patched check is the one run.
SUITE = (
    ("intertwining", lambda p, x, y, cap: check_intertwining(p, x, y)),
    ("intertwining-star", lambda p, x, y, cap: check_intertwining_star(p, x, y)),
    ("reflection", lambda p, x, y, cap: check_reflection(p, x)),
    ("r-stochastic", lambda p, x, y, cap: check_r_stochastic(p, x, y)),
    ("cauchy-closed-form", lambda p, x, y, cap: check_cauchy_closed_form(x, y, p)),
    ("skew-cauchy", lambda p, x, y, cap: check_skew_cauchy((), (), (x,), (y,), max(cap, 12), p)),
    ("skew-cauchy", lambda p, x, y, cap: check_skew_cauchy((1,), (), (x,), (y,), max(cap, 12), p)),
    ("skew-littlewood", lambda p, x, y, cap: check_skew_littlewood((3, 1), (x,), cap, p)),
    ("skew-littlewood", lambda p, x, y, cap: check_skew_littlewood((), (x, y), max(cap, 3), p)),
    ("refined-cauchy", lambda p, x, y, cap: check_refined_cauchy((x,), (y,), p.u, cap, p)),
    ("refined-cauchy", lambda p, x, y, cap: check_refined_cauchy(
        (p.x[0], p.x[2]), (p.x[1], p.x[3]), p.u, max(cap, 25), p)),
    ("refined-littlewood", lambda p, x, y, cap: check_refined_littlewood((x, y), p.u, cap, p)),
)
CHECK_NAMES = tuple(dict.fromkeys(name for name, _ in SUITE))


def run_suite(points=FIXTURE_POINTS, cap=30, only=None):
    """Run every check at the given parameter points; returns a list of CheckReport.

    `only` filters by substring of the check name (see CHECK_NAMES).
    """
    reports = []
    for idx, params in enumerate(points):
        x, y = params.x[0], params.x[1]
        for name, run in SUITE:
            if only and only not in name:
                continue
            rep = run(params, x, y, cap)
            rep.detail = (f"point={idx} " + rep.detail).strip()
            reports.append(rep)
    return reports
