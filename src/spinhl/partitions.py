"""Integer partitions: interlacing, conjugate-even pairings, enumeration.

A partition is a plain tuple of weakly decreasing positive ints; the empty
partition is ().  Zero parts are never stored, so len(p) is the length.
The vertex-model state at a lattice site is always one of these.

Two special constructions drive the diagonal of the half-space samplers:
``even_cover`` and ``even_core`` give the unique conjugate-even partitions
interlacing a given one from above and below (parts pair up as
lam[0]=lam[1], lam[2]=lam[3], ...).

The enumerated sets are boxes.  Every interlacing bound holds one part
alone (mu[k] <= lam[k] <= mu[k-1]), so the partitions of one length that
interlace a fixed one, from above or below, are a product of ranges
(itertools.product); the partitions in a rectangle are the multisets of
its part values (itertools.combinations_with_replacement).
"""

from __future__ import annotations

from itertools import combinations_with_replacement, product

from .exact import InvalidParams, ONE, ZERO

EMPTY = ()


def is_partition(p):
    """True iff the parts of p are weakly decreasing and positive."""
    return sorted(p, reverse=True) == list(p) and (not p or p[-1] > 0)


def validate(p):
    if not is_partition(p):
        raise ValueError(f"not a partition: {p}")
    return tuple(p)


def interlaces(mu, lam):
    """True iff mu interlaces lam from below (mu ≺ lam).

    Either the lengths agree and lam[k+1] <= mu[k] <= lam[k] for all k, or
    lam has one extra part and the shifted chain holds.  Equivalently
    lam/mu is a horizontal strip.
    """
    lm, ll = len(mu), len(lam)
    if ll not in (lm, lm + 1):
        return False
    for k in range(lm):
        if mu[k] > lam[k]:
            return False
        if k + 1 < ll and mu[k] < lam[k + 1]:
            return False
    return True


def mult_vector(p, top):
    """Multiplicities [m_0, m_1, ..., m_top] of the parts of p (all parts <= top)."""
    m = [0] * (top + 1)
    for a in p:
        m[a] += 1
    return m


def is_conjugate_even(p):
    """True iff every part of the conjugate is even, i.e. parts pair up."""
    if len(p) % 2 == 1:
        return False
    return all(p[2 * i] == p[2 * i + 1] for i in range(len(p) // 2))


def even_pair_coefficient(mu, params):
    """prod_i prod_{k=1}^{m_i(mu)/2} (1-q^{2k-1})/(1-s^2 q^{2k-1}).

    The multiplicity-pairing coefficient attached to conjugate-even
    partitions in the Littlewood-type sums; an odd multiplicity raises
    ValueError.
    """
    out = ONE
    for i, m in enumerate(mult_vector(mu, mu[0] if mu else 0)):
        if m % 2:
            raise ValueError(f"odd multiplicity m_{i}={m} in even_pair_coefficient")
        out *= pairing_factor(m, params)
    return out


def pairing_factor(m, params):
    """One multiplicity's share of even_pair_coefficient; exact zero for odd m.

    prod_{k=1}^{m/2} (1-q^{2k-1})/(1-s^2 q^{2k-1}) for even m, so a product
    of pairing_factor over the multiplicities of any partition vanishes
    unless the partition is conjugate-even.
    """
    if m % 2:
        return ZERO
    q, s = params.q, params.s
    out = ONE
    for k in range(1, m // 2 + 1):
        den = ONE - s * s * q ** (2 * k - 1)
        if den == 0:
            raise InvalidParams(f"1 - s^2 q^{2 * k - 1} vanished")
        out *= (ONE - q ** (2 * k - 1)) / den
    return out


def even_cover(kappa):
    """The unique conjugate-even partition lam with kappa ≺ lam.

    lam[2i] = lam[2i+1] = kappa[2i] (kappa padded with zeros).
    """
    out = []
    for i in range(0, len(kappa), 2):
        out += [kappa[i], kappa[i]]
    return tuple(out)


def even_core(kappa):
    """The unique conjugate-even partition tau with tau ≺ kappa.

    tau[2i] = tau[2i+1] = kappa[2i+1].
    """
    out = []
    for i in range(1, len(kappa), 2):
        out += [kappa[i], kappa[i]]
    return tuple(out)


def enumerate_partitions(max_part, max_len):
    """All partitions with parts <= max_part and length <= max_len.

    Deterministic graded order: by size, then lexicographically largest
    first within a grade, e.g. (2,2) gives (), (1), (2), (1,1), (2,1), (2,2).
    The partitions of each length n are the size-n multisets of the parts
    max_part, ..., 1, each listed in that (non-increasing) order.
    """
    parts = range(max_part, 0, -1)
    acc = [p for n in range(max_len + 1) for p in combinations_with_replacement(parts, n)]
    acc.sort(key=lambda p: (sum(p), tuple(-a for a in p)))
    return acc


def interlacing_above(mu, cap_part=None, within=None):
    """All lam with mu ≺ lam, bounded by a part cap and/or containment in `within`.

    The first part needs some upper bound; pass cap_part or within.  Each
    bound holds one part alone (mu[k] <= lam[k] <= mu[k-1], cap_part and
    within[k]), so the lam of one length form a box of ranges: length
    len(mu) first, then len(mu) + 1, each in lexicographic order.
    """
    if within is None:
        if cap_part is None:
            raise ValueError("unbounded enumeration: give cap_part or within")
        within = (cap_part,) * (len(mu) + 1)
    elif cap_part is not None:
        within = [min(w, cap_part) for w in within]
    lows = (*mu, 1)
    highs = [*within[:1], *map(min, within[1:], mu)]  # within[k], and mu[k - 1] past k = 0
    out = []
    for ll in (len(mu), len(mu) + 1):
        if ll <= len(highs):
            out += product(*(range(lows[k], highs[k] + 1) for k in range(ll)))
    return out


def interlacing_below(lam):
    """All mu with mu ≺ lam (a finite set): the box lam[k+1] <= mu[k] <= lam[k].

    Length len(lam) first, then len(lam) - 1, each in lexicographic order.
    """
    ranges = [range(lo, hi + 1) for hi, lo in zip(lam, (*lam[1:], 1))]
    out = list(product(*ranges))
    if ranges:
        out += product(*ranges[:-1])
    return out


def format_partition(p):
    """Canonical text form: '4,4,3,1' or the empty sign."""
    return ",".join(str(a) for a in p) if p else "∅"


def parse_partition(text):
    text = text.strip()
    if text in ("∅", "0", ""):
        return EMPTY
    parts = tuple(int(tok) for tok in text.split(","))
    return validate(parts)
