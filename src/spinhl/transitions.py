"""Markov transition operators for the half-space random field.

The four operators (forward/backward, bulk/boundary) move the partition at
a lattice corner conditioned on its two neighbours.  They are built column
by column from a bijectivisation of the starred exchange relation: at each
column h the two configuration sets

  A_h: crossing to the left of the column, occupancy K_h = m_h(kappa)
  B_h: crossing to the right, occupancy M_h = m_h(nu)

carry equal total weight, and the forward/backward local transitions are
the independence coupling  p_fwd(a, .) ∝ w(b),  p_bwd(b, .) ∝ w(a).
Column 0 holds the INF sentinel, where both sets are so small that any
valid coupling is the same one.

Geometry and spectral roles (fixed so that the reversibility identities
hold verbatim with the f/g conventions of :mod:`spinhl.sshl`):

  top partition    mu   (conditioning for g), its row uses L vertices, spectral y
  bottom partition lam  (conditioning for f), its row uses MSTAR vertices, spectral x
  middle partition kappa (before) / nu (after)

Given states on the A side are k_h (L row) and l_h (MSTAR row); sampled
states on the B side are i_h (L row), j_h (MSTAR row) and M_h.  The bulk
reversibility identity is then

  U_fwd(kappa -> nu | lam, mu) * Pi(x;y) * f_{lam/kappa}(x) * g_{mu/kappa}(y)
    = U_bwd(nu -> kappa | lam, mu) * f_{nu/mu}(x) * g_{nu/lam}(y)

and the boundary operators substitute the conjugate-even cover/core of the
moving partition for lam, turning the same identity into the one with the
diagonal tail weights.

Projecting any of this onto partition lengths gives the explicit
two-outcome tables in :func:`length_transition`, which is what the
dynamic six-vertex module consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .exact import (
    InconsistentHeights,
    InvalidParams,
    NotAdmissible,
    ONE,
    NonStochastic,
    ScanCapExceeded,
    ZERO,
    ZeroSector,
    admissible,
    _sample_from_cumulative,
    cumulative_boundaries,
)
from .partitions import even_core, even_cover, interlaces, mult_vector
from .weights import INF, L, Mstar, Rstar

SCAN_CAP = 10_000  # columns past the largest input part before giving up


@dataclass(frozen=True)
class TransitionTable:
    """Finite distribution over successor states with exact probabilities."""

    outcomes: tuple
    probs: tuple

    def __post_init__(self):
        object.__setattr__(self, "_cum", cumulative_boundaries(self.probs))

    def sample(self, rng):
        return self.outcomes[_sample_from_cumulative(self._cum, rng)]

    def prob(self, outcome):
        for o, p in zip(self.outcomes, self.probs):
            if o == outcome:
                return p
        return ZERO

    def as_dict(self):
        return dict(zip(self.outcomes, self.probs))


# ---------------------------------------------------------------------------
# column-local configuration weights
# ---------------------------------------------------------------------------

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
        return ZERO, None
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
        return ZERO, None
    w = (
        Rstar(i_prev, j_prev, k_prev, l_prev, x, y, params)
        * Mstar(I_lam, l_prev, K_pin, l_h, x, params)
        * L(K_pin, k_prev, J_mu, k_h, y, params)
    )
    return w, K_pin


def p_fwd(I_lam, J_mu, i_prev, j_prev, k_h, l_h, x, y, params):
    """Forward local transition at one column: TransitionTable over (i_h, j_h, M_h).

    Independence coupling: the probability of a B-configuration is its
    weight over the total B-weight of the column (which equals the total
    A-weight by the starred exchange relation).
    """
    outcomes = []
    weights = []
    for i_h in (0, 1):
        for j_h in (0, 1):
            w, mid = weight_b(I_lam, J_mu, i_prev, j_prev, k_h, l_h, i_h, j_h, x, y, params)
            if w != 0:
                outcomes.append((i_h, j_h, mid))
                weights.append(w)
    total = sum(weights, ZERO)
    if total == 0:
        raise ZeroSector(
            f"no B-configuration at column context I={I_lam} J={J_mu} "
            f"carry=({i_prev},{j_prev}) out=({k_h},{l_h})"
        )
    return TransitionTable(tuple(outcomes), tuple(p / total for p in weights))


@lru_cache(maxsize=None)
def p_bwd(I_lam, J_mu, i_prev, j_prev, k_h, l_h, x, y, params):
    """Backward local transition at one column: TransitionTable over (k_prev, l_prev, K_h)."""
    outcomes = []
    weights = []
    for k_prev in (0, 1):
        for l_prev in (0, 1):
            w, mid = weight_a(I_lam, J_mu, i_prev, j_prev, k_h, l_h, k_prev, l_prev, x, y, params)
            if w != 0:
                outcomes.append((k_prev, l_prev, mid))
                weights.append(w)
    total = sum(weights, ZERO)
    if total == 0:
        raise ZeroSector(
            f"no A-configuration at column context I={I_lam} J={J_mu} "
            f"carry=({i_prev},{j_prev}) out=({k_h},{l_h})"
        )
    return TransitionTable(tuple(outcomes), tuple(p / total for p in weights))


# ---------------------------------------------------------------------------
# given-state scans
# ---------------------------------------------------------------------------

def _forward_states(kappa, lam, mu, top):
    """A-side horizontal states (k_h, l_h) for h = 0..top, from the kappa scans."""
    mk = mult_vector(kappa, top)
    ml = mult_vector(lam, top)
    mm = mult_vector(mu, top)
    k = [len(mu) - len(kappa)]
    l = [len(lam) - len(kappa)]
    for h in range(1, top + 1):
        k.append(mk[h] - mm[h] + k[h - 1])
        l.append(mk[h] - ml[h] + l[h - 1])
    if any(v not in (0, 1) for v in k) or any(v not in (0, 1) for v in l):
        raise ValueError("kappa does not interlace both neighbours")
    return k, l


def _backward_states(nu, lam, mu, top):
    """B-side horizontal states (i_h, j_h) for h = 0..top, from the nu scans."""
    mn = mult_vector(nu, top)
    ml = mult_vector(lam, top)
    mm = mult_vector(mu, top)
    i = [len(nu) - len(lam)]
    j = [len(nu) - len(mu)]
    for h in range(1, top + 1):
        i.append(ml[h] - mn[h] + i[h - 1])
        j.append(mm[h] - mn[h] + j[h - 1])
    if any(v not in (0, 1) for v in i) or any(v not in (0, 1) for v in j):
        raise ValueError("nu does not interlace both neighbours from above")
    return i, j


def _require_bulk_pre(kappa, lam, mu, x, y, params):
    if not (interlaces(kappa, lam) and interlaces(kappa, mu)):
        raise ValueError(f"need kappa ≺ lam and kappa ≺ mu; got {kappa}, {lam}, {mu}")
    if not admissible(x, y, params):
        raise NotAdmissible(f"({x}, {y}) not admissible")


# ---------------------------------------------------------------------------
# compiled per-parameter tables
# ---------------------------------------------------------------------------

class CellSampler:
    """Forward-table cache for one (x, y) pair.

    Monte Carlo sweeps hit the same few column contexts millions of times;
    this layer keys them by small ints (INF encoded as -1) so the hot path
    never hashes Fractions.
    """

    def __init__(self, x, y, params):
        if not admissible(x, y, params):
            raise NotAdmissible(f"({x}, {y}) not admissible")
        self.x, self.y, self.params = x, y, params
        self._tables = {}

    def fwd(self, I_lam, J_mu, i_prev, j_prev, k_h, l_h):
        key = (
            -1 if I_lam is INF else I_lam,
            -1 if J_mu is INF else J_mu,
            i_prev, j_prev, k_h, l_h,
        )
        tbl = self._tables.get(key)
        if tbl is None:
            tbl = p_fwd(I_lam, J_mu, i_prev, j_prev, k_h, l_h, self.x, self.y, self.params)
            self._tables[key] = tbl
        return tbl


class CompiledModel:
    """The per-cell sampling laws of one ModelParams, as integer-keyed tables.

    This is the one place where parameters become tables.  ``compiled``
    stores the model on its params object, so the tables live exactly as
    long as that object, and no lookup hashes a Fraction.  Every table is
    filled lazily:

      sampler(x, y)  the partition field's forward-table cache for the
                     spectral pair (x, y), keyed by its integer data
      jumps(j)       the particle jump coefficients of the cells (i, j),
                     1 <= i <= j, as a list indexed by i - 1 of integer
                     triples (b_num, c_num, den) (see jump_coefficients)
      patterns(j)    the height model's four length patterns of the same
                     cells, indexed by i - 1 and then by 2 * da + db, each
                     a Bernoulli law (num, den, d0, d1): the height grows
                     by d0 with probability num / den and by d1 otherwise.
                     They are length_patterns, read off the jump
                     coefficients without Fraction arithmetic.

    The integer pairs are not reduced: sample_bernoulli, like
    sample_categorical, only compares num * 2^k with a * den, so the
    draws are the same.
    """

    def __init__(self, params):
        self.params = params
        self._probabilistic = False
        self._samplers = {}
        self._jumps = {}
        self._patterns = {}

    def require_probabilistic(self):
        """params.require_probabilistic(), run once per model."""
        if not self._probabilistic:
            self.params.require_probabilistic()
            self._probabilistic = True

    def sampler(self, x, y):
        key = (x.numerator, x.denominator, y.numerator, y.denominator)
        ctx = self._samplers.get(key)
        if ctx is None:
            ctx = self._samplers[key] = CellSampler(x, y, self.params)
        return ctx

    def jumps(self, j):
        row = self._jumps.get(j)
        if row is None:
            q, y = self.params.q, self.params.spectral(j)
            row = []
            for a in range(j):
                b, c, den = law = jump_coefficients(self.params.spectral(a), y, q)
                if not (0 <= b <= den and 0 <= c <= den):
                    raise NonStochastic(
                        f"jump coefficients b = {b}/{den}, c = {c}/{den} of cell "
                        f"({a + 1}, {j}) are not probabilities")
                row.append(law)
            self._jumps[j] = row
        return row

    def patterns(self, j):
        row = self._patterns.get(j)
        if row is None:
            forced = (1, 1, 1, 1)  # (0, 1) and (1, 0): grow by one
            row = self._patterns[j] = [
                ((c, den, 0, 1), forced, forced, (den - b, den, 1, 2))
                for b, c, den in self.jumps(j)
            ]
        return row


def compiled(params):
    """The CompiledModel of params, built on first use and stored on params itself."""
    model = params.__dict__.get("_compiled")
    if model is None:
        model = CompiledModel(params)
        object.__setattr__(params, "_compiled", model)
    return model


def cell_sampler(x, y, params):
    """The forward-table cache of the spectral pair (x, y) under params."""
    return compiled(params).sampler(x, y)


# ---------------------------------------------------------------------------
# the four operators
# ---------------------------------------------------------------------------

def bulk_forward(kappa, lam, mu, x, y, rng, params, _ctx=None):
    """Sample nu from the forward bulk operator given corner kappa and neighbours lam, mu."""
    ctx = _ctx if _ctx is not None else cell_sampler(x, y, params)
    if not (interlaces(kappa, lam) and interlaces(kappa, mu)):
        raise ValueError(f"need kappa ≺ lam and kappa ≺ mu; got {kappa}, {lam}, {mu}")
    top = max([0] + [p[0] for p in (kappa, lam, mu) if p])
    ks, ls = _forward_states(kappa, lam, mu, top)
    mlam = mult_vector(lam, top)
    mmu = mult_vector(mu, top)
    parts = []
    i_prev, j_prev = 1, 0
    h = 0
    while True:
        if h == 0:
            I_lam, J_mu = INF, INF
            k_h, l_h = ks[0], ls[0]
        elif h <= top:
            I_lam, J_mu = mlam[h], mmu[h]
            k_h, l_h = ks[h], ls[h]
        else:
            I_lam = J_mu = 0
            k_h = l_h = 0
        i_h, j_h, mid = ctx.fwd(I_lam, J_mu, i_prev, j_prev, k_h, l_h).sample(rng)
        if h >= 1 and mid:
            parts.extend([h] * mid)
        i_prev, j_prev = i_h, j_h
        h += 1
        if h > top and (i_prev, j_prev) == (0, 0):
            break
        if h > top + SCAN_CAP:
            raise ScanCapExceeded(f"forward scan still alive {SCAN_CAP} columns past {top}")
    return tuple(sorted(parts, reverse=True))


def bulk_backward(nu, lam, mu, x, y, rng, params):
    """Sample kappa from the backward bulk operator given corner nu and neighbours lam, mu."""
    if not (interlaces(lam, nu) and interlaces(mu, nu)):
        raise ValueError(f"need lam ≺ nu and mu ≺ nu; got {nu}, {lam}, {mu}")
    if not admissible(x, y, params):
        raise NotAdmissible(f"({x}, {y}) not admissible")
    top = max([0] + [p[0] for p in (nu, lam, mu) if p])
    istates, jstates = _backward_states(nu, lam, mu, top)
    mlam = mult_vector(lam, top)
    mmu = mult_vector(mu, top)
    parts = []
    k_h, l_h = 0, 0
    for h in range(top, 0, -1):
        k_prev, l_prev, mid = p_bwd(
            mlam[h], mmu[h], istates[h - 1], jstates[h - 1], k_h, l_h, x, y, params
        ).sample(rng)
        if mid:
            parts.extend([h] * mid)
        k_h, l_h = k_prev, l_prev
    # column 0 is forced: its crossing outputs are (1, 0) with probability one
    # (test_column0_coupling_is_the_forced_one pins this for every (k_h, l_h))
    return tuple(sorted(parts, reverse=True))


def boundary_forward(kappa, mu, x, y, rng, params, _ctx=None):
    """Diagonal forward operator: condition on the conjugate-even cover of kappa."""
    return bulk_forward(kappa, even_cover(kappa), mu, x, y, rng, params, _ctx=_ctx)


def boundary_backward(nu, mu, x, y, rng, params):
    """Diagonal backward operator: condition on the conjugate-even core of nu."""
    return bulk_backward(nu, even_core(nu), mu, x, y, rng, params)


# ---------------------------------------------------------------------------
# exact laws (for tests and small-instance verification)
# ---------------------------------------------------------------------------

def forward_prob(kappa, lam, mu, nu, x, y, params):
    """Exact probability that bulk_forward produces nu (a single forced trajectory)."""
    _require_bulk_pre(kappa, lam, mu, x, y, params)
    if not (interlaces(lam, nu) and interlaces(mu, nu)):
        return ZERO
    top = max([0] + [p[0] for p in (kappa, lam, mu, nu) if p])
    ks, ls = _forward_states(kappa, lam, mu, top)
    try:
        istates, jstates = _backward_states(nu, lam, mu, top)
    except ValueError:
        return ZERO
    mlam = mult_vector(lam, top)
    mmu = mult_vector(mu, top)
    mnu = mult_vector(nu, top)
    ctx = cell_sampler(x, y, params)
    prob = ONE
    i_prev, j_prev = 1, 0
    for h in range(0, top + 1):
        I_lam, J_mu = (INF, INF) if h == 0 else (mlam[h], mmu[h])
        target = (istates[h] if h else istates[0], jstates[h] if h else jstates[0],
                  INF if h == 0 else mnu[h])
        tbl = ctx.fwd(I_lam, J_mu, i_prev, j_prev, ks[h], ls[h])
        prob *= tbl.prob(target)
        if prob == 0:
            return ZERO
        i_prev, j_prev = target[0], target[1]
    return prob


def backward_prob(nu, lam, mu, kappa, x, y, params):
    """Exact probability that bulk_backward produces kappa."""
    if not (interlaces(lam, nu) and interlaces(mu, nu)):
        raise ValueError("need lam ≺ nu and mu ≺ nu")
    if not (interlaces(kappa, lam) and interlaces(kappa, mu)):
        return ZERO
    top = max([0] + [p[0] for p in (kappa, lam, mu, nu) if p])
    istates, jstates = _backward_states(nu, lam, mu, top)
    ks, ls = _forward_states(kappa, lam, mu, top)
    mlam = mult_vector(lam, top)
    mmu = mult_vector(mu, top)
    mkap = mult_vector(kappa, top)
    prob = ONE
    for h in range(top, 0, -1):
        tbl = p_bwd(mlam[h], mmu[h], istates[h - 1], jstates[h - 1], ks[h], ls[h], x, y, params)
        prob *= tbl.prob((ks[h - 1], ls[h - 1], mkap[h]))
        if prob == 0:
            return ZERO
    return prob


def forward_distribution(kappa, lam, mu, x, y, params, part_cap):
    """Exact law of bulk_forward truncated at parts <= part_cap.

    Returns (dist, overflow): dist maps nu to its exact probability and
    overflow is the exact mass of scan trajectories still alive past the
    cap, so sum(dist.values()) + overflow == 1 exactly.
    """
    _require_bulk_pre(kappa, lam, mu, x, y, params)
    top = max([0] + [p[0] for p in (kappa, lam, mu) if p])
    ks, ls = _forward_states(kappa, lam, mu, top)
    mlam = mult_vector(lam, top)
    mmu = mult_vector(mu, top)
    ctx = cell_sampler(x, y, params)
    dist = {}
    overflow = [ZERO]

    def rec(h, i_prev, j_prev, parts, prob):
        if h > top and (i_prev, j_prev) == (0, 0):
            nu = tuple(sorted(parts, reverse=True))
            dist[nu] = dist.get(nu, ZERO) + prob
            return
        if h > part_cap:
            overflow[0] += prob
            return
        if h == 0:
            I_lam, J_mu, k_h, l_h = INF, INF, ks[0], ls[0]
        elif h <= top:
            I_lam, J_mu, k_h, l_h = mlam[h], mmu[h], ks[h], ls[h]
        else:
            I_lam = J_mu = k_h = l_h = 0
        tbl = ctx.fwd(I_lam, J_mu, i_prev, j_prev, k_h, l_h)
        for (i_h, j_h, mid), p in zip(tbl.outcomes, tbl.probs):
            extra = [h] * mid if (h >= 1 and mid) else []
            rec(h + 1, i_h, j_h, parts + extra, prob * p)

    rec(0, 1, 0, [], ONE)
    return dist, overflow[0]


def boundary_forward_distribution(kappa, mu, x, y, params, part_cap):
    return forward_distribution(kappa, even_cover(kappa), mu, x, y, params, part_cap)


# ---------------------------------------------------------------------------
# length projection
# ---------------------------------------------------------------------------

def length_patterns(x, y, params):
    """The four two-step length patterns as (outcome deltas, probabilities).

    Keyed by (delta to the first neighbour, delta to the second); the
    boundary tables are the bulk ones with the first delta fixed by the
    parity of the corner value.
    """
    q = params.q
    den = ONE - q * x * y
    if den == 0:
        raise NotAdmissible("1 - qxy vanished")
    up1 = ((1,), (ONE,))
    return {
        (0, 0): ((0, 1), ((ONE - x * y) / den, (ONE - q) * x * y / den)),
        (1, 1): ((1, 2), ((ONE - q) / den, q * (ONE - x * y) / den)),
        (0, 1): up1,
        (1, 0): up1,
    }


def jump_coefficients(x, y, q):
    """The particle jump coefficients b, c of the spectral pair (x, y), as integers.

    Returns (b_num, c_num, den) with den > 0, where
    b = q(1 - xy)/(1 - qxy) and c = (1 - xy)/(1 - qxy) are the length
    patterns' probabilities of growing by two from (1, 1) and of not
    growing from (0, 0).  Raises InvalidParams when 1 - qxy vanishes.
    """
    P = x.numerator * y.numerator
    Q = x.denominator * y.denominator
    den = q.denominator * Q - q.numerator * P
    if den == 0:
        raise InvalidParams("1 - q x_{i-1} x_j vanished")
    c = q.denominator * (Q - P)
    b = q.numerator * (Q - P)
    return (b, c, den) if den > 0 else (-b, -c, -den)


def length_transition(kind, key, x, y, params):
    """Exact law of the new corner length given neighbouring lengths.

    kind='bulk':     key = (len_kappa, len_lam, len_mu)
    kind='boundary': key = (len_kappa, len_mu); the lam-length is the
                     even cover's: len_kappa rounded up to even.
    """
    if kind == "boundary":
        lk, lm = key
        ll = lk if lk % 2 == 0 else lk + 1
    elif kind == "bulk":
        lk, ll, lm = key
    else:
        raise ValueError(f"unknown kind {kind!r}")
    da, db = ll - lk, lm - lk
    if da not in (0, 1) or db not in (0, 1):
        raise InconsistentHeights(f"length key {key} not a one-step pattern")
    deltas, probs = length_patterns(x, y, params)[(da, db)]
    return TransitionTable(tuple(lk + d for d in deltas), probs)
