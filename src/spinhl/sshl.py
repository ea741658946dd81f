"""Stable spin Hall-Littlewood functions f and g as one-row transfer scans.

One-variable skew weights are partition functions of a single lattice row.
Because horizontal edges carry at most one path, the whole row
configuration is forced by the two partitions, so each weight is a plain
product over columns; multi-variable values are sums of products of
one-row weights over interlacing chains (the branching rule).

Two equivalent combinatorial definitions are implemented:

* first definition: columns indexed by part values C, C-1, ..., 1 with a
  free right boundary; f rows use L vertices entering with horizontal
  state 0, g rows use M vertices entering with state 1;

* second definition: columns 0, 1, 2, ... where column 0 holds the INF
  sentinel and contributes x**l for outgoing state l; f rows use MSTAR
  vertices (paths downward), g rows use L vertices.

Both take (inner, outer) partition arguments: the weight is nonzero iff
inner ≺ outer (one variable), or iff a length-compatible interlacing
chain exists (n variables).
"""

from __future__ import annotations

from functools import lru_cache

from .exact import ONE, ZERO
from .partitions import (
    mult_vector,
    even_core,
    even_pair_coefficient,
    interlacing_above,
    interlacing_below,
)
from .weights import INF, L, M, Mstar


def f_one_row(inner, outer, x, params):
    """One-variable skew weight f_{outer/inner}(x); zero unless inner ≺ outer.

    Scan columns from the largest part down to 1: outer multiplicities sit
    on the bottom of an L row, inner on top, horizontal state enters as 0
    from the far left and is forced by conservation at every column.
    """
    top = max((inner[0] if inner else 0), (outer[0] if outer else 0))
    mi = mult_vector(inner, top)
    mo = mult_vector(outer, top)
    h = 0
    w = ONE
    for c in range(top, 0, -1):
        h_out = mo[c] + h - mi[c]
        if h_out not in (0, 1):
            return ZERO
        w *= L(mo[c], h, mi[c], h_out, x, params)
        if w == 0:
            return ZERO
        h = h_out
    # telescoping forces h == len(outer) - len(inner) here
    return w


def g_one_row(inner, outer, y, params):
    """One-variable dual weight g_{outer/inner}(y); zero unless inner ≺ outer.

    Same scan with M vertices: inner on the bottom, outer on top, state 1
    entering from the far left.  Columns above the largest part are exact
    pass-throughs M(0,1;0,1) = 1 (an identity of the weight table, tested
    in test_weights), so the scan may start at the largest part.
    """
    top = max((inner[0] if inner else 0), (outer[0] if outer else 0))
    mi = mult_vector(inner, top)
    mo = mult_vector(outer, top)
    h = 1
    w = ONE
    for c in range(top, 0, -1):
        h_out = mi[c] + h - mo[c]
        if h_out not in (0, 1):
            return ZERO
        w *= M(mi[c], h, mo[c], h_out, y, params)
        if w == 0:
            return ZERO
        h = h_out
    return w


def f_one_row_def2(inner, outer, x, params):
    """f_{outer/inner}(x) under the second definition (MSTAR scan with column-0 sentinel)."""
    l0 = len(outer) - len(inner)
    if l0 not in (0, 1):
        return ZERO
    top = max((inner[0] if inner else 0), (outer[0] if outer else 0))
    mi = mult_vector(inner, top)
    mo = mult_vector(outer, top)
    w = Mstar(INF, 0, INF, l0, x, params)  # x ** l0
    h = l0
    for c in range(1, top + 1):
        h_out = mi[c] + h - mo[c]
        if h_out not in (0, 1):
            return ZERO
        w *= Mstar(mo[c], h, mi[c], h_out, x, params)
        if w == 0:
            return ZERO
        h = h_out
    return w if h == 0 else ZERO


def g_one_row_def2(inner, outer, y, params):
    """g_{outer/inner}(y) under the second definition (L scan with column-0 sentinel)."""
    l0 = len(outer) - len(inner)
    if l0 not in (0, 1):
        return ZERO
    top = max((inner[0] if inner else 0), (outer[0] if outer else 0))
    mi = mult_vector(inner, top)
    mo = mult_vector(outer, top)
    w = L(INF, 1, INF, l0, y, params)  # y ** l0
    h = l0
    for c in range(1, top + 1):
        h_out = mi[c] + h - mo[c]
        if h_out not in (0, 1):
            return ZERO
        w *= L(mi[c], h, mo[c], h_out, y, params)
        if w == 0:
            return ZERO
        h = h_out
    return w if h == 0 else ZERO


def f_skew(inner, outer, xs, params):
    """Multi-variable f_{outer/inner}(x_1..x_n): sum over interlacing chains.

    The variable adjacent to the inner partition is applied first; the
    result does not depend on the order (symmetry, which tests check).
    Memoized on (inner, outer, variable suffix, params).
    """
    return _f_skew(tuple(inner), tuple(outer), tuple(xs), params)


@lru_cache(maxsize=None)
def _f_skew(inner, outer, xs, params):
    if not xs:
        return ONE if inner == outer else ZERO
    if len(xs) == 1:
        return f_one_row(inner, outer, xs[0], params)
    total = ZERO
    for nu in interlacing_above(inner, within=outer):
        w1 = f_one_row(inner, nu, xs[0], params)
        if w1 != 0:
            total += w1 * _f_skew(nu, outer, xs[1:], params)
    return total


def g_skew(inner, outer, ys, params):
    """Multi-variable g_{outer/inner}(y_1..y_n); the last variable acts next to the outer partition."""
    return _g_skew(tuple(inner), tuple(outer), tuple(ys), params)


@lru_cache(maxsize=None)
def _g_skew(inner, outer, ys, params):
    if not ys:
        return ONE if inner == outer else ZERO
    if len(ys) == 1:
        return g_one_row(inner, outer, ys[0], params)
    total = ZERO
    for nu in interlacing_below(outer):
        w1 = g_one_row(nu, outer, ys[-1], params)
        if w1 != 0:
            total += w1 * _g_skew(inner, nu, ys[:-1], params)
    return total


def tail_weight(kappa, x, params):
    """Diagonal (tail) weight of kappa: the one-term conjugate-even g-sum.

    Equals even_pair_coefficient(tau) * g_{kappa/tau}(x) with tau the even
    core of kappa; by the one-variable Littlewood identity it also equals
    even_pair_coefficient(lam) * f_{lam/kappa}(x) with lam the even cover.
    """
    tau = even_core(kappa)
    return even_pair_coefficient(tau, params) * g_one_row(tau, kappa, x, params)
