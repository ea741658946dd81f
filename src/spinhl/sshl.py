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

Global sums over lam of f_{lam/mu}(xs) g_{lam/nu}(ys) (the Cauchy and
Littlewood sides, plain, refined and skew) do not enumerate lam or its
chains: ``column_sums`` is one exact column-transfer kernel over the first
definition's lattice.  The one-row scans and chain sums stay as the
reference it is tested against.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import ONE, ZERO
from .partitions import mult_vector, even_core, even_pair_coefficient, interlacing_above
from .weights import L, L_TABLE, M, M_TABLE, MSTAR_TABLE, VertexRow


def _one_row(table, v, params, lower, upper, h, columns):
    """(weight, out state) of one row of `table` vertices at spectral value v.

    The row enters with horizontal state h and visits `columns` in order;
    lower[c] and upper[c] are the vertical occupations below and above
    column c.  Horizontal edges carry at most one path, so at each column
    the out bit is the one bit whose (h, l, K - I) the table holds (its
    conservation law); with none, or a zero weight, the row weighs 0 and
    the out state is None.  The product is kept as integer numerators over
    VertexRow's denominators and reduced once.
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
        t = row.num(table, I, h, K, l, e)
        if not t:
            return ZERO, None
        num *= t
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


def column_sums(xs, ys, cap, params, factor=None, f_inner=(), g_inner=()):
    """Exact sum of f_{lam/f_inner}(xs) g_{lam/g_inner}(ys) prod_c factor(m_c(lam)), lam_1 <= cap.

    Returns {len(lam): partial sum}.  One column-transfer pass replaces the
    enumeration of lam and of its interlacing chains.  Under the first
    definition the f rows (L vertices, entering state 0) and the g rows (M
    vertices, entering state 1) of every chain from the inner partitions to
    lam stack into one lattice whose column c carries the multiplicities
    m_c of the chain partitions; the only state passed between columns is
    the vector of horizontal bits, and conservation in each row forces the
    multiplicities from the in- and out-bits, starting from m_c(f_inner)
    below the first f row and m_c(g_inner) below the first g row.  The
    vertex weights do not depend on c, so each column row is built once
    per (bits, start multiplicities), and the scan runs from column cap
    down to 1 starting from (0,...,0, 1,...,1).  Columns above the largest
    part are the exact pass-throughs L(0,0;0,0) = M(0,1;0,1) = 1.  The f
    bits leaving column 1 add up to len(lam) - len(f_inner).  A cap below
    the largest inner part leaves nothing to sum: the result is {}.

    With ys empty the g side (and g_inner) is omitted rather than forced to
    lam = g_inner (the Littlewood form): the sum is then of
    f_{lam/f_inner}(xs) prod_c factor(m_c).  `factor` maps a multiplicity
    to its column factor (None means 1); factor(0) must be 1, as for the
    pairing factor.
    """
    xs, ys, f_inner, g_inner = tuple(xs), tuple(ys), tuple(f_inner), tuple(g_inner)
    n = len(xs)
    if cap < max(f_inner[:1] + g_inner[:1], default=0):
        return {}
    mf, mg = mult_vector(f_inner, cap), mult_vector(g_inner, cap)
    rows = {}
    vec = {(0,) * n + (1,) * len(ys): ONE}
    for c in range(cap, 0, -1):
        nxt = {}
        for bits, w in vec.items():
            key = (bits, mf[c], mg[c])
            row = rows.get(key)
            if row is None:
                row = rows[key] = _column_row(*key, xs, ys, params, factor)
            for out, t in row.items():
                nxt[out] = nxt.get(out, ZERO) + w * t
        vec = nxt
    sums = {}
    for bits, w in vec.items():
        length = len(f_inner) + sum(bits[:n])
        sums[length] = sums.get(length, ZERO) + w
    return sums


def _column_row(bits, f_m0, g_m0, xs, ys, params, factor):
    """{out bits: weight} of one column entered with horizontal bits `bits`.

    f_m0 and g_m0 are the column's multiplicities in the inner partitions
    of the f and the g side.
    """
    n = len(xs)
    # f row k: L with the k-th chain multiplicity below, the (k-1)-th above
    f_side = _row_stack(
        bits[:n], f_m0, xs,
        lambda prev, j, l, x: (prev + l - j, L(prev + l - j, j, prev, l, x, params)))
    # g row k: M with the (k-1)-th chain multiplicity below, the k-th above
    g_side = _row_stack(
        bits[n:], g_m0, ys,
        lambda prev, j, l, y: (prev + j - l, M(prev, j, prev + j - l, l, y, params)))
    row = {}
    for (m, f_out), wf in f_side.items():
        if factor is not None:
            wf *= factor(m)
            if wf == 0:
                continue
        if not ys:
            row[f_out] = wf
            continue
        for (mg, g_out), wg in g_side.items():
            if mg == m:
                row[f_out + g_out] = wf * wg
    return row


def _row_stack(bits, m0, spectral, vertex):
    """{(m_n, out bits): weight} for one column of n stacked rows, starting from m_0.

    `vertex(prev, j, l, z)` returns the next chain multiplicity (fixed by
    conservation) and the vertex weight for in-bit j and out-bit l.
    """
    layer = {(m0, ()): ONE}
    for j, z in zip(bits, spectral):
        nxt = {}
        for (prev, out), w in layer.items():
            for l in (0, 1):
                m, v = vertex(prev, j, l, z)
                if v != 0:
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
