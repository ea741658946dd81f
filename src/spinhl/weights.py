"""The five Boltzmann weight tables of the higher-spin six-vertex model.

Local states: a vertical edge carries any occupation number I >= 0 (or the
INF sentinel used on the leftmost column of the second combinatorial
definition); a horizontal edge carries 0 or 1.  Vertex labels are read
(bottom, left; top, right) = (I, j; K, l).

Three row-vertex families:

  L      paths flow up/right;   conservation I + j = K + l
  M      paths flow up/right;   conservation I + j = K + l
  MSTAR  paths flow down/right; conservation K + j = I + l

and two crossing-vertex families for the diagonal exchange moves, with
edge roles (SW-in i, NW-in j; NE-out k, SE-out l):

         i enters from the south-west and leaves at the north-east,
         j enters from the north-west and leaves at the south-east:

             j   k
              \\ /
               X
              / \\
             i   l

  R      conserves i + j = k + l and is row-stochastic in (k, l)
  RSTAR  conserves i - j = k - l (its two rows carry opposite path types)

All weights are total functions: labels off the tables return exact 0.
Zero denominators (1 - s x = 0 and the like) raise InvalidParams.

Each formula is written once, on the numerators and denominators of q, s
and the spectral values: VertexRow gives the row vertices as integer
numerators over a common denominator, and r_row the crossing row of
(x, y), five integers that are R's numerators over its slot 0 and, entry
by entry, RSTAR's over its slot 3: RSTAR = Pi(x; y) R with the Cauchy
kernel Pi(x; y) = (1 - q x y)/(1 - x y), slot 0 over slot 3 (see
R_SLOTS and RSTAR_SLOTS).  The functions L, M, MSTAR, R and RSTAR return
those numerators as Fractions.

column_weights is the one column kernel of the starred exchange
relation: the integer weights of a column's A- and B-configurations
(L and MSTAR vertices with an RSTAR crossing on one side) over one
denominator.  The column tables of the random field
(transitions.CellSampler) normalise them, and the starred exchange check
(identities.check_intertwining_star) sums them.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exact import InvalidParams, ZERO

INF = math.inf  # distinguished sentinel occupancy, never arithmetic


def _is_bit(v):
    return v == 0 or v == 1


def _check_den(den, what):
    if den == 0:
        raise InvalidParams(f"{what} vanished")
    return den


# The row vertex tables, as (j, l, K - I) -> spectral flag.  K - I picks
# the formula: with v the spectral value and m = min(I, K), n = max(I, K),
# every finite entry is one of
#
#   K = I:      1 - s v q^m         or, flagged,  v - s q^m
#   K = I + 1:  1 - q^n             or, flagged,  v (1 - q^n)
#   K = I - 1:  1 - s^2 q^m         or, flagged,  v (1 - s^2 q^m)
#
# over 1 - s v.  Entries off a table are exact 0.
L_TABLE = {(0, 0, 0): False, (1, 1, 0): True, (1, 0, 1): False, (0, 1, -1): True}
M_TABLE = {(0, 0, 0): True, (1, 1, 0): False, (1, 0, 1): True, (0, 1, -1): False}
MSTAR_TABLE = {(0, 0, 0): False, (1, 1, 0): True, (0, 1, 1): True, (1, 0, -1): False}


class VertexRow:
    """The row vertices L, M and MSTAR at one spectral value v, as integers.

    With q = qn/qd, s = sn/sd and v = vn/vd, a finite entry (I, j; K, l) is
    num(table, I, j, K, l, e) / (base * qd**e) for any e >= max(I, K),
    where base = sd (sd vd - sn vn) = sd^2 vd (1 - s v); the INF sentinel
    entry v^l is num(...) / vd.  A caller that needs several entries over
    one denominator picks one e for all of them.  num raises InvalidParams
    when 1 - s v vanishes, at the first finite entry it is asked for.
    """

    __slots__ = ("vn", "vd", "qn", "qd", "sn", "sd", "base")

    def __init__(self, v, params):
        q, s = params.q, params.s
        self._fill(v.numerator, v.denominator, q.numerator, q.denominator,
                   s.numerator, s.denominator)

    @classmethod
    def from_ints(cls, vn, vd, qn, qd, sn, sd):
        """The row at v = vn/vd, q = qn/qd and s = sn/sd, read off those integers."""
        row = cls.__new__(cls)
        row._fill(vn, vd, qn, qd, sn, sd)
        return row

    def _fill(self, vn, vd, qn, qd, sn, sd):
        self.vn, self.vd, self.qn, self.qd, self.sn, self.sd = vn, vd, qn, qd, sn, sd
        self.base = sd * (sd * vd - sn * vn)

    def num(self, table, I, j, K, l, e):
        if not (_is_bit(j) and _is_bit(l)):
            return 0
        if I is INF or K is INF:
            # leftmost-column sentinel of the second definition: weight v^l
            if I is INF and K is INF:
                return self.vn if l else self.vd
            return 0
        if I < 0 or K < 0:
            return 0
        if not self.base:
            raise InvalidParams("1 - s x vanished")
        flag = table.get((j, l, K - I))
        if flag is None:
            return 0
        vn, vd, qn, qd, sn, sd = self.vn, self.vd, self.qn, self.qd, self.sn, self.sd
        if K == I:
            lead, other = (vn, vd) if flag else (vd, vn)
            return sd * (sd * lead * qd**e - sn * other * qn**I * qd**(e - I))
        c = vn if flag else vd
        if K > I:
            return sd * sd * c * (qd**e - qn**K * qd**(e - K))
        return c * (sd * sd * qd**e - sn * sn * qn**K * qd**(e - K))

    def weight(self, table, I, j, K, l):
        """The entry as a Fraction."""
        if I is INF or K is INF:
            return Fraction(self.num(table, I, j, K, l, 0), self.vd)
        e = max(I, K)
        num = self.num(table, I, j, K, l, e)
        return Fraction(num, self.base * self.qd**e) if num else ZERO


def L(I, j, K, l, x, params):
    """Type-1 row vertex (grey); spectral x, spin params.s."""
    return VertexRow(x, params).weight(L_TABLE, I, j, K, l)


def M(I, j, K, l, x, params):
    """Type-2 row vertex (red, paths up/right)."""
    return VertexRow(x, params).weight(M_TABLE, I, j, K, l)


def Mstar(I, j, K, l, x, params):
    """Type-3 row vertex (red, paths down/right): conservation K + j = I + l."""
    return VertexRow(x, params).weight(MSTAR_TABLE, I, j, K, l)


def pair_ints(x, y, params):
    """(qn, qd, P, Q) with q = qn/qd and x y = P/Q: the arguments of r_row."""
    q = params.q
    return (q.numerator, q.denominator,
            x.numerator * y.numerator, x.denominator * y.denominator)


# The nonzero entries (i, j, k, l) of R and RSTAR, by the slot of r_row
# that is their numerator (entries may share one).  R is over slot 0 and
# RSTAR over slot 3, so each RSTAR entry is Pi(x; y) times the R entry of
# the same slot.
R_SLOTS = {
    (0, 0, 0, 0): 0, (1, 1, 1, 1): 0, (1, 0, 1, 0): 1,
    (1, 0, 0, 1): 2, (0, 1, 0, 1): 3, (0, 1, 1, 0): 4,
}
RSTAR_SLOTS = {
    (0, 0, 0, 0): 3, (1, 0, 1, 0): 0, (0, 1, 0, 1): 0,
    (1, 1, 0, 0): 2, (0, 0, 1, 1): 4, (1, 1, 1, 1): 1,
}


def r_row(qn, qd, P, Q):
    """The crossing row of (x, y), with x y = P/Q, by R_SLOTS and RSTAR_SLOTS.

    Over slot 0, qd Q (1 - q x y), the slots are R's entries; over slot 3,
    qd Q (1 - x y), they are RSTAR's.  Each comment reads: as an R entry |
    as an RSTAR entry.
    """
    return (
        qd * Q - qn * P,  # 1 | (1 - q x y) / (1 - x y)
        qn * (Q - P),  # q (1 - x y) / (1 - q x y) | q
        (qd - qn) * Q,  # (1 - q) / (1 - q x y) | (1 - q) / (1 - x y)
        qd * (Q - P),  # (1 - x y) / (1 - q x y) | 1
        (qd - qn) * P,  # (1 - q) x y / (1 - q x y) | (1 - q) x y / (1 - x y)
    )


def _crossing(slots, den_slot, what, i, j, k, l, x, y, params):
    """The entry (i, j, k, l) of a crossing vertex: r_row's slot over den_slot."""
    if not all(map(_is_bit, (i, j, k, l))):
        return ZERO
    r = r_row(*pair_ints(x, y, params))
    den = _check_den(r[den_slot], what)
    slot = slots.get((i, j, k, l))
    if slot is None:
        return ZERO
    return Fraction(r[slot], den)


def R(i, j, k, l, x, y, params):
    """Stochastic crossing vertex; rows sum to one over (k, l)."""
    return _crossing(R_SLOTS, 0, "1 - q x y", i, j, k, l, x, y, params)


def Rstar(i, j, k, l, x, y, params):
    """Dual crossing vertex used by the exchange move on mixed (up, down) rows."""
    return _crossing(RSTAR_SLOTS, 3, "1 - x y", i, j, k, l, x, y, params)


def column_weights(side, l_row, mstar_row, rstar, I, J, i_prev, j_prev, k_h, l_h):
    """The nonzero weights of one column's A- or B-configurations, as integers.

    A column of the starred exchange relation has an L vertex (l_row, the
    VertexRow of y), an MSTAR vertex (mstar_row, of x) and an RSTAR
    crossing (rstar, the r_row of (x, y), read by RSTAR_SLOTS).  With the
    crossing to the right of the column (side "B") the configurations are
    keyed by the crossing's inputs (a, b) = (i_h, j_h); with it to the left
    (side "A"), by its outputs (a, b) = (k_prev, l_prev).  The labels are a column
    context: bits, and occupancies >= 0 or both INF (column 0).

    Each configuration is checked in this order: the middle occupancy mid
    is pinned by conservation on both rows, and a configuration whose two
    pins disagree (or give mid < 0) is left out; a finite column then
    raises InvalidParams("1 - s x vanished") if 1 - s x or 1 - s y does;
    a configuration whose RSTAR entry is empty is left out before any
    vertex numerator is computed.

    Returns (outcomes, weights), the outcomes (a, b, mid) in bit order
    (0, 0), (0, 1), (1, 0), (1, 1) with the zero weights dropped.  Every
    weight is over one denominator: the row vertices are taken over the
    exponents I + 1 and J + 1 (which bound both occupancies of each), so
    the denominator is base_x base_y qd^(I+J+2) qd (Q - P), or
    vd_x vd_y qd (Q - P) at the INF column.  The two sides' totals are the
    two sides of the starred exchange relation, and the A (B) weights
    over their total are the backward (forward) transition at the column.
    """
    fwd = side == "B"
    outcomes, weights = [], []
    for a in (0, 1):
        for b in (0, 1):
            if I is INF:
                mid = INF
            else:
                mid = I + i_prev - a if fwd else I + l_h - b
                if mid < 0 or mid != (J + j_prev - b if fwd else J + k_h - a):
                    continue
                if not (l_row.base and mstar_row.base):
                    raise InvalidParams("1 - s x vanished")
            slot = RSTAR_SLOTS.get((a, b, k_h, l_h) if fwd else (i_prev, j_prev, a, b))
            if slot is None:
                continue
            if fwd:
                w = (l_row.num(L_TABLE, I, i_prev, mid, a, I + 1)
                     * mstar_row.num(MSTAR_TABLE, mid, j_prev, J, b, J + 1))
            else:
                w = (mstar_row.num(MSTAR_TABLE, I, b, mid, l_h, I + 1)
                     * l_row.num(L_TABLE, mid, a, J, k_h, J + 1))
            w *= rstar[slot]
            if w:
                outcomes.append((a, b, mid))
                weights.append(w)
    return outcomes, weights
