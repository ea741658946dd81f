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
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exact import InvalidParams, ONE, ZERO

INF = math.inf  # distinguished sentinel occupancy, never arithmetic


def _is_bit(v):
    return v == 0 or v == 1


def _check_den(den, what):
    if den == 0:
        raise InvalidParams(f"{what} vanished")
    return den


def L(I, j, K, l, x, params):
    """Type-1 row vertex (grey); spectral x, spin params.s."""
    s, q = params.s, params.q
    if not (_is_bit(j) and _is_bit(l)):
        return ZERO
    if I is INF or K is INF:
        # leftmost-column sentinel of the second definition: weight x^l
        if I is INF and K is INF:
            return x ** l
        return ZERO
    if I < 0 or K < 0:
        return ZERO
    den = _check_den(ONE - s * x, "1 - s x")
    if j == 0 and l == 0 and K == I:
        return (ONE - s * x * q**I) / den
    if j == 1 and l == 1 and K == I:
        return (x - s * q**I) / den
    if j == 1 and l == 0 and K == I + 1:
        return (ONE - q ** (I + 1)) / den
    if j == 0 and l == 1 and K == I - 1:
        return x * (ONE - s * s * q**K) / den
    return ZERO


def M(I, j, K, l, x, params):
    """Type-2 row vertex (red, paths up/right)."""
    s, q = params.s, params.q
    if not (_is_bit(j) and _is_bit(l)):
        return ZERO
    if I is INF or K is INF:
        if I is INF and K is INF:
            return x ** l
        return ZERO
    if I < 0 or K < 0:
        return ZERO
    den = _check_den(ONE - s * x, "1 - s x")
    if j == 0 and l == 0 and K == I:
        return (x - s * q**I) / den
    if j == 1 and l == 1 and K == I:
        return (ONE - s * x * q**I) / den
    if j == 1 and l == 0 and K == I + 1:
        return x * (ONE - q ** (I + 1)) / den
    if j == 0 and l == 1 and K == I - 1:
        return (ONE - s * s * q**K) / den
    return ZERO


def Mstar(I, j, K, l, x, params):
    """Type-3 row vertex (red, paths down/right): conservation K + j = I + l."""
    s, q = params.s, params.q
    if not (_is_bit(j) and _is_bit(l)):
        return ZERO
    if I is INF or K is INF:
        if I is INF and K is INF:
            return x ** l
        return ZERO
    if I < 0 or K < 0:
        return ZERO
    den = _check_den(ONE - s * x, "1 - s x")
    if j == 0 and l == 0 and K == I:
        return (ONE - s * x * q**I) / den
    if j == 1 and l == 1 and K == I:
        return (x - s * q**I) / den
    if j == 1 and l == 0 and K == I - 1:
        return (ONE - s * s * q**K) / den
    if j == 0 and l == 1 and K == I + 1:
        return x * (ONE - q**K) / den
    return ZERO


def R(i, j, k, l, x, y, params):
    """Stochastic crossing vertex; rows sum to one over (k, l)."""
    q = params.q
    if not all(map(_is_bit, (i, j, k, l))):
        return ZERO
    den = _check_den(ONE - q * x * y, "1 - q x y")
    table = {
        (0, 0, 0, 0): ONE,
        (1, 0, 1, 0): q * (ONE - x * y) / den,
        (1, 0, 0, 1): (ONE - q) / den,
        (1, 1, 1, 1): ONE,
        (0, 1, 0, 1): (ONE - x * y) / den,
        (0, 1, 1, 0): (ONE - q) * x * y / den,
    }
    return table.get((i, j, k, l), ZERO)


def Rstar(i, j, k, l, x, y, params):
    """Dual crossing vertex used by the exchange move on mixed (up, down) rows."""
    q = params.q
    if not all(map(_is_bit, (i, j, k, l))):
        return ZERO
    den = _check_den(ONE - x * y, "1 - x y")
    table = {
        (0, 0, 0, 0): ONE,
        (1, 0, 1, 0): (ONE - q * x * y) / den,
        (1, 1, 0, 0): (ONE - q) / den,
        (0, 0, 1, 1): (ONE - q) * x * y / den,
        (0, 1, 0, 1): (ONE - q * x * y) / den,
        (1, 1, 1, 1): Fraction(q),
    }
    return table.get((i, j, k, l), ZERO)
