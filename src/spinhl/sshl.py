"""Stable spin Hall-Littlewood functions f and g as one-row transfer scans.

One-variable skew weights are partition functions of a single lattice row.
Because horizontal edges carry at most one path, the whole row
configuration is forced by the two partitions, so each weight is a plain
product over columns.  One row scan, ``_one_row``, computes every such
product: it takes a vertex table, the occupations below and above each
column, the entering state and the column order, and finds each out bit
from the table's conservation law.  Two equivalent combinatorial
definitions are calls of it:

* first definition: columns indexed by part values C, C-1, ..., 1 with a
  free right boundary; f rows use L vertices entering with horizontal
  state 0, g rows use M vertices entering with state 1;

* second definition: columns 0, 1, 2, ... where column 0 holds the INF
  sentinel and contributes x**l for outgoing state l; f rows use MSTAR
  vertices (paths downward), g rows use L vertices, and the row must
  leave in state 0.

Both take (inner, outer) partition arguments: the weight is nonzero iff
inner ≺ outer (one variable), or iff a length-compatible interlacing
chain exists (n variables).  Multi-variable values come from the
branching rule: one chain DP, ``_chain_sum``, sums products of one-row
weights over the chains inner ≺ nu_1 ≺ ... ≺ outer, for f_skew and g_skew
alike.

Global sums over lam of f_{lam/mu}(xs) g_{lam/nu}(ys), or with no ys of
f_{lam/mu}(xs) times the pairing factor of every column (the Cauchy and
Littlewood sides, plain, refined and skew), do not enumerate lam or its
chains: ``column_sums`` is one exact column-transfer kernel over the first
definition's lattice, scanned up to a cap.  Like ``_one_row`` it works on
integers: each column row holds VertexRow numerators over one
denominator, the state vector holds numerators over the product of the
denominators met so far, and a Fraction is made only per length of lam
at the end.  The columns above the largest inner part share one row and
come first; with cap = math.inf the kernel replaces their pushes by the
limit, one pass over that row's states in topological order, and returns
the exact infinite sum.  The one-row scans and chain sums (f_skew,
g_skew) stay as the reference the kernel is tested against.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exact import ONE, ZERO, NotAdmissible
from .partitions import (even_core, even_pair_coefficient, interlacing_above, mult_vector,
                         pairing_factor)
from .weights import L_TABLE, M_TABLE, MSTAR_TABLE, VertexRow, _check_den


def _one_row(table, v, params, lower, upper, h, columns):
    """(weight, out state) of one row of `table` vertices at spectral value v.

    The row enters with horizontal state h and visits `columns` in order;
    lower[c] and upper[c] are the vertical occupations below and above
    column c.  Horizontal edges carry at most one path, so at each column
    the out bit is the one bit whose (h, l, K - I) the table holds (its
    conservation law); with none, the row weighs 0 and the out state is
    None.  The product is kept as integer numerators over VertexRow's
    denominators and reduced once.
    """
    row = VertexRow(v, params)
    num = den = 1
    for c in columns:
        I, K = lower[c], upper[c]
        if (h, 0, K - I) in table:
            l = 0
        elif (h, 1, K - I) in table:
            l = 1
        else:
            return ZERO, None
        e = max(I, K)
        num *= row.num(table, I, h, K, l, e)
        den *= row.base * row.qd**e
        h = l
    return Fraction(num, den), h


def _columns(below, above):
    """Multiplicity vectors of the partitions below and above a row, and their larger first part."""
    top = max(below[0] if below else 0, above[0] if above else 0)
    return mult_vector(below, top), mult_vector(above, top), top


def f_one_row(inner, outer, x, params):
    """One-variable skew weight f_{outer/inner}(x); zero unless inner ≺ outer.

    An L row scanned from the largest part down to 1: outer multiplicities
    sit on the bottom, inner on top, and the state enters as 0 from the far
    left (telescoping forces it to leave as len(outer) - len(inner)).
    """
    lower, upper, top = _columns(outer, inner)
    return _one_row(L_TABLE, x, params, lower, upper, 0, range(top, 0, -1))[0]


def g_one_row(inner, outer, y, params):
    """One-variable dual weight g_{outer/inner}(y); zero unless inner ≺ outer.

    Same scan with M vertices: inner on the bottom, outer on top, state 1
    entering from the far left.  Columns above the largest part are exact
    pass-throughs M(0,1;0,1) = 1 (an identity of the weight table, tested
    in test_weights), so the scan may start at the largest part.
    """
    lower, upper, top = _columns(inner, outer)
    return _one_row(M_TABLE, y, params, lower, upper, 1, range(top, 0, -1))[0]


def _one_row_def2(table, below, above, l0, v, params):
    """Second definition: the column-0 sentinel v**l0, then columns 1, 2, ... ending in state 0."""
    if l0 not in (0, 1):
        return ZERO
    lower, upper, top = _columns(below, above)
    w, h = _one_row(table, v, params, lower, upper, l0, range(1, top + 1))
    return v**l0 * w if h == 0 else ZERO


def f_one_row_def2(inner, outer, x, params):
    """f_{outer/inner}(x), second definition: an MSTAR row (paths run down), outer below."""
    return _one_row_def2(MSTAR_TABLE, outer, inner, len(outer) - len(inner), x, params)


def g_one_row_def2(inner, outer, y, params):
    """g_{outer/inner}(y), second definition: an L row, inner below."""
    return _one_row_def2(L_TABLE, inner, outer, len(outer) - len(inner), y, params)


def _chain_sum(one_row, inner, outer, vs, params):
    """Sum over chains inner = nu_0 ≺ ... ≺ nu_n = outer of prod_k one_row(nu_{k-1}, nu_k, vs[k-1]).

    A forward DP, one dict of partition -> weight per variable: vs[0] acts
    next to inner, every nu_k lies inside outer, and the last step goes
    straight to outer.
    """
    inner, outer = tuple(inner), tuple(outer)
    if not vs:
        return ONE if inner == outer else ZERO
    layer = {inner: ONE}
    for v in vs[:-1]:
        nxt = {}
        for nu, w in layer.items():
            for mid in interlacing_above(nu, within=outer):
                t = one_row(nu, mid, v, params)
                if t:
                    nxt[mid] = nxt.get(mid, ZERO) + w * t
        layer = nxt
    return sum((w * one_row(nu, outer, vs[-1], params) for nu, w in layer.items()), ZERO)


def f_skew(inner, outer, xs, params):
    """Multi-variable f_{outer/inner}(x_1..x_n): sum over interlacing chains.

    The variable adjacent to the inner partition is applied first; the
    result does not depend on the order (symmetry, which tests check).
    """
    return _chain_sum(f_one_row, inner, outer, tuple(xs), params)


def g_skew(inner, outer, ys, params):
    """Multi-variable g_{outer/inner}(y_1..y_n); the last variable acts next to the outer partition.

    The chain sum of f_skew with g rows: the first variable acts next to inner.
    """
    return _chain_sum(g_one_row, inner, outer, tuple(ys), params)


def column_sums(xs, ys, cap, params, f_inner=(), g_inner=()):
    """Exact sum of f_{lam/f_inner}(xs) g_{lam/g_inner}(ys) over lam with lam_1 <= cap.

    Returns {len(lam): partial sum}.  One column-transfer pass replaces the
    enumeration of lam and of its interlacing chains.  Under the first
    definition the f rows (L vertices, entering state 0) and the g rows (M
    vertices, entering state 1) of every chain from the inner partitions to
    lam stack into one lattice whose column c carries the multiplicities
    m_c of the chain partitions; the only state passed between columns is
    the vector of horizontal bits, and conservation in each row forces the
    multiplicities from the in- and out-bits, starting from m_c(f_inner)
    below the first f row and m_c(g_inner) below the first g row.  The
    vertex weights do not depend on c, so a column's row depends only on
    those two start multiplicities.  The scan runs from column cap down to
    1 starting from (0,...,0, 1,...,1), on integers: each row holds the
    numerators VertexRow.num gives over one denominator per column, the
    state vector holds numerators over the product of the denominators met
    so far, and one Fraction is made per length at the end.  Columns above
    the largest part are the exact pass-throughs L(0,0;0,0) = M(0,1;0,1) =
    1.  The f bits leaving column 1 add up to len(lam) - len(f_inner).  A
    cap below the largest inner part lo leaves nothing to sum: the result
    is {}.  Every column above lo has start multiplicities (0, 0) and so
    one shared row, which the start state goes through cap - lo times
    before the columns lo .. 1.  With cap = math.inf those pushes are
    their limit (_limit), so the result is the exact infinite sum by
    length; a sum that does not converge raises NotAdmissible.

    With ys empty the sum is the Littlewood side: the g side (and g_inner)
    is omitted, and every column carries the pairing factor of its
    multiplicity instead, so the sum is of
    f_{lam/f_inner}(xs) prod_c pairing_factor(m_c(lam)), that is of
    even_pair_coefficient(lam) f_{lam/f_inner}(xs) over conjugate-even
    lam.  The pairing factors up to the largest multiplicity a column can
    reach are put over their own common denominator and folded into the
    integer rows.  A vanishing 1 - s x (or 1 - s y) raises
    InvalidParams("1 - s x vanished"), as the weights do, and a vanishing
    1 - s^2 q^k raises pairing_factor's InvalidParams, once there is a
    column to scan.
    """
    xs, ys, f_inner, g_inner = tuple(xs), tuple(ys), tuple(f_inner), tuple(g_inner)
    n = len(xs)
    lo = max(f_inner[:1] + g_inner[:1], default=0)
    if cap < lo:
        return {}
    mf, mg = mult_vector(f_inner, lo), mult_vector(g_inner, lo)
    f_rows = [VertexRow(x, params) for x in xs]
    g_rows = [VertexRow(y, params) for y in ys]
    fac, fac_den = None, 1
    if cap >= 1:
        for row in f_rows + g_rows:
            _check_den(row.base, "1 - s x")
        if not ys:
            fs = [pairing_factor(m, params) for m in range(max(mf) + n + 1)]
            fac_den = math.lcm(*(f.denominator for f in fs))
            fac = [f.numerator * (fac_den // f.denominator) for f in fs]
    columns = {key: _column(f_rows, g_rows, fac, fac_den, params.q.denominator, *key)
               for key in {(0, 0), *zip(mf[1:], mg[1:])}}
    start = (0,) * n + (1,) * len(ys)
    vec, den = {start: 1}, 1
    if cap == math.inf:  # the uniform columns, all pushes at once
        vec, cap = _limit(start, *columns[0, 0]), lo
    for c in range(cap, 0, -1):
        vec, den = _push(vec, den, *columns[(mf[c], mg[c]) if c <= lo else (0, 0)])
    nums = {}
    for bits, w in vec.items():
        length = len(f_inner) + sum(bits[:n])
        nums[length] = nums.get(length, 0) + w
    return {length: Fraction(w, den) for length, w in nums.items()}


def _limit(start, row, den):
    """{bits: Fraction}: the start state pushed through row / den infinitely often.

    The start state keeps weight den on itself and no other state leads
    back to it, so with self-loops dropped the reachable states form an
    acyclic graph, and the limit is e_start + d (I - T')^-1 with d the start
    row and T' the row on the other states, over den.  One pass in
    topological order (Kahn's) gives it: v_b = sum_{a -> b} v_a t_ab / (den
    - t_bb).  NotAdmissible if the start state does not keep den, if a
    self-loop has |t_bb| >= |den| (the series diverges), or if the states
    have a cycle once self-loops are dropped.
    """
    indeg, todo = {start: 0}, [start]  # in-degrees without self-loops
    while todo:
        a = todo.pop()
        for b, _ in row(a):
            if b not in indeg:
                todo.append(b)
            indeg[b] = indeg.get(b, 0) + (b != a)
    vec, ready = {start: Fraction(1)}, [a for a, k in indeg.items() if not k]
    for a in ready:  # ready grows as the pass frees states
        out = dict(row(a))
        t = out.pop(a, 0)
        if a == start and t != den:
            raise NotAdmissible("column limit: the start state does not keep its weight")
        if a != start:
            if abs(t) >= abs(den):
                raise NotAdmissible(f"column limit diverges: self-loop {Fraction(t, den)}")
            vec[a] /= den - t
        for b, w in out.items():
            vec[b] = vec.get(b, 0) + vec[a] * w
            indeg[b] -= 1
            if not indeg[b]:
                ready.append(b)
    if len(ready) < len(indeg):
        raise NotAdmissible("column limit: the uniform column has a cycle")
    return vec


def _push(vec, den, row, row_den):
    """The vector {bits: numerator over den} pushed through one column row."""
    nxt = {}
    for bits, w in vec.items():
        for out, t in row(bits):
            nxt[out] = nxt.get(out, 0) + w * t
    return nxt, den * row_den


def _column(f_rows, g_rows, fac, fac_den, qd, a, b):
    """(row, denominator) of the columns whose inner multiplicities are a (f side) and b (g side).

    row(bits) lists (out bits, numerator) for the column entered with
    horizontal bits `bits`, built once per bits.  The chain multiplicities
    of the f rows stay within a + len(f_rows) and those of the g rows
    within b + len(g_rows), so every L vertex is taken over the exponent
    a + len(f_rows) and every M vertex over b + len(g_rows): the
    denominator is the product of the rows' bases, a power of qd and
    fac_den.  With no g rows (the Littlewood form), fac[m] is the pairing
    factor of multiplicity m as a numerator over fac_den.
    """
    n, ef, eg = len(f_rows), a + len(f_rows), b + len(g_rows)
    den = qd ** (n * ef + len(g_rows) * eg) * fac_den
    for row in f_rows + g_rows:
        den *= row.base
    rows = {}

    def row(bits):
        out = rows.get(bits)
        if out is not None:
            return out
        out = rows[bits] = []
        # f row k: L with the k-th chain multiplicity below, the (k-1)-th above
        f_side = _row_stack(f_rows, bits[:n], a, lambda r, prev, j, l: (
            prev + l - j, r.num(L_TABLE, prev + l - j, j, prev, l, ef)))
        # g row k: M with the (k-1)-th chain multiplicity below, the k-th above
        g_side = {}
        if g_rows:
            for (m, g_out), w in _row_stack(g_rows, bits[n:], b, lambda r, prev, j, l: (
                    prev + j - l, r.num(M_TABLE, prev, j, prev + j - l, l, eg))).items():
                g_side.setdefault(m, []).append((g_out, w))
        for (m, f_out), w in f_side.items():
            if g_rows:
                for g_out, wg in g_side.get(m, ()):
                    out.append((f_out + g_out, w * wg))
            elif fac[m]:
                out.append((f_out, w * fac[m]))
        return out

    return row, den


def _row_stack(rows, bits, m0, vertex):
    """{(m_n, out bits): numerator} for one column of n stacked rows, starting from m_0.

    `vertex(row, prev, j, l)` returns the next chain multiplicity (fixed by
    conservation) and the vertex numerator for in-bit j and out-bit l.
    """
    layer = {(m0, ()): 1}
    for r, j in zip(rows, bits):
        nxt = {}
        for (prev, out), w in layer.items():
            for l in (0, 1):
                m, v = vertex(r, prev, j, l)
                if v:
                    nxt[(m, out + (l,))] = w * v
        layer = nxt
    return layer


def tail_weight(kappa, x, params):
    """Diagonal (tail) weight of kappa: the one-term conjugate-even g-sum.

    Equals even_pair_coefficient(tau) * g_{kappa/tau}(x) with tau the even
    core of kappa; by the one-variable Littlewood identity it also equals
    even_pair_coefficient(lam) * f_{lam/kappa}(x) with lam the even cover.
    """
    tau = even_core(kappa)
    return even_pair_coefficient(tau, params) * g_one_row(tau, kappa, x, params)
