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

from .exact import (
    InconsistentHeights,
    InvalidParams,
    NotAdmissible,
    ONE,
    NonStochastic,
    RandomSource,
    ScanCapExceeded,
    ZERO,
    ZeroSector,
    anti_diagonals,
    bernoulli_draw,
    _sample_from_cumulative,
    check_T,
    cumulative_boundaries,
    frac,
    pair_admissible,
)
from .partitions import even_core, even_cover, mult_vector
from .weights import INF, VertexRow, column_weights, r_row

SCAN_CAP = 10_000  # columns past the largest input part before giving up


class TransitionTable:
    """Finite distribution over successor states, held as integer cumulative pairs.

    cum[k] = (num, den) is the exact probability num / den of the first
    k + 1 outcomes; the pairs need not be reduced, because drawing only
    compares num * 2^k with a * den.  The Fraction views (probs, prob,
    as_dict) are read off the same pairs, once, when first asked for.

    Every column table of the field has one or two outcomes: on a finite
    column conservation on both rows pins a - b, and at the INF column
    RSTAR_SLOTS holds at most two entries for each pair of crossing bits.
    A one-outcome table reads no bit, and a two-outcome one, cum =
    ((w0, total), (total, total)), is the draw sample_bernoulli(w0,
    total, rng), which reads the same bits as the categorical draw and,
    on a RandomSource or CellBits, reads them a word at a time
    (exact.bernoulli_draw).  Wider tables (from_probs) are drawn bit by
    bit, by _sample_from_cumulative.
    """

    __slots__ = ("outcomes", "cum", "_probs")

    def __init__(self, outcomes, cum):
        self.outcomes = outcomes
        self.cum = cum
        self._probs = None

    @classmethod
    def from_probs(cls, outcomes, probs):
        """The table of Fraction probabilities probs (NonStochastic unless they sum to 1)."""
        return cls(tuple(outcomes), tuple(cumulative_boundaries(probs)))

    @classmethod
    def from_weights(cls, outcomes, weights, side, context):
        """The table proportional to integer weights over one common denominator.

        The weights are the column configurations' exact weights times
        that denominator, whose sign is unknown, so the law is the same
        whichever sign the total has.  ZeroSector when the total vanishes,
        NonStochastic when a weight has the opposite sign.
        """
        total = sum(weights)
        if total == 0:
            I_lam, J_mu, i_prev, j_prev, k_h, l_h = context
            raise ZeroSector(
                f"no {side}-configuration at column context I={I_lam} J={J_mu} "
                f"carry=({i_prev},{j_prev}) out=({k_h},{l_h})"
            )
        if total < 0:
            weights, total = [-w for w in weights], -total
        cum = []
        acc = 0
        for w in weights:
            if w < 0:
                raise NonStochastic(f"negative probability {frac(w, total)}")
            acc += w
            cum.append((acc, total))
        return cls(tuple(outcomes), tuple(cum))

    def sample(self, rng):
        cum = self.cum
        if len(cum) == 1:
            return self.outcomes[0]
        if len(cum) == 2:
            return self.outcomes[0 if bernoulli_draw(rng)(*cum[0], rng) else 1]
        return self.outcomes[_sample_from_cumulative(cum, rng)]

    @property
    def probs(self):
        if self._probs is None:
            out = []
            prev = ZERO
            for num, den in self.cum:
                c = frac(num, den)
                out.append(c - prev)
                prev = c
            self._probs = tuple(out)
        return self._probs

    def prob(self, outcome):
        for o, p in zip(self.outcomes, self.probs):
            if o == outcome:
                return p
        return ZERO

    def as_dict(self):
        return dict(zip(self.outcomes, self.probs))


# ---------------------------------------------------------------------------
# column-local transitions
# ---------------------------------------------------------------------------

def p_fwd(I_lam, J_mu, i_prev, j_prev, k_h, l_h, x, y, params):
    """Forward local transition at one column: TransitionTable over (i_h, j_h, M_h).

    Independence coupling: the probability of a B-configuration is its
    weight over the total B-weight of the column, which equals the total
    A-weight by the starred exchange relation.  The weights are the B side
    of the column kernel weights.column_weights, which the starred exchange
    check sums too; this is the table cell_sampler(x, y, params).fwd builds
    and keeps.
    """
    return cell_sampler(x, y, params).fwd(I_lam, J_mu, i_prev, j_prev, k_h, l_h)


def p_bwd(I_lam, J_mu, i_prev, j_prev, k_h, l_h, x, y, params):
    """Backward local transition at one column: TransitionTable over (k_prev, l_prev, K_h).

    The A-configurations' weights (the A side of weights.column_weights)
    over their total: the table cell_sampler(x, y, params).bwd keeps.
    """
    return cell_sampler(x, y, params).bwd(I_lam, J_mu, i_prev, j_prev, k_h, l_h)


# ---------------------------------------------------------------------------
# the column walk
# ---------------------------------------------------------------------------

def _top(*partitions):
    """The largest part among the partitions, 0 when all are empty."""
    return max([p[0] for p in partitions if p], default=0)


def _walk(side, mid, lam, mu, top):
    """One side of the column walk, as lists over the columns h = 0..top.

    Returns (I_lam, J_mu, c_lam, c_mu, M): the multiplicities of lam, mu
    and the middle partition mid, with INF in each at column 0, and the
    crossing states c_p[h] = #{parts of p > h} - #{parts of mid > h} on
    the A side (mid = kappa; c_mu, c_lam are k_h, l_h), negated on the B
    side (mid = nu; c_lam, c_mu are i_h, j_h).  top may exceed the largest
    part; the columns past it are all zero.  Every state is 0 or 1 exactly
    when mid ≺ lam and mid ≺ mu (A), or lam ≺ mid and mu ≺ mid (B);
    ValueError otherwise.  bulk_forward carries the A side's states
    itself, in its one pass.
    """
    sign = 1 if side == "A" else -1
    I, J, M = mult_vector(lam, top), mult_vector(mu, top), mult_vector(mid, top)
    c_lam = [sign * (len(lam) - len(mid))]
    c_mu = [sign * (len(mu) - len(mid))]
    for h in range(1, top + 1):
        c_lam.append(c_lam[-1] + sign * (M[h] - I[h]))
        c_mu.append(c_mu[-1] + sign * (M[h] - J[h]))
    if not {*c_lam, *c_mu} <= {0, 1}:
        need = "kappa ≺ lam and kappa ≺ mu" if sign == 1 else "lam ≺ nu and mu ≺ nu"
        raise ValueError(f"need {need}; got {mid}, {lam}, {mu}")
    I[0] = J[0] = M[0] = INF
    return I, J, c_lam, c_mu, M


def _partition(mults):
    """The partition with multiplicity mults[h] of each part h >= 1, largest first."""
    parts = []
    for h in range(len(mults) - 1, 0, -1):
        parts += [h] * mults[h]
    return tuple(parts)


# ---------------------------------------------------------------------------
# compiled per-parameter tables
# ---------------------------------------------------------------------------

class CellSampler:
    """The forward and backward column tables of one (x, y) pair.

    Monte Carlo sweeps hit the same few column contexts millions of times.
    The tables are keyed by the context (I_lam, J_mu, i_prev, j_prev, k_h,
    l_h) itself, whose entries are small ints or INF, so the hot path never
    hashes a Fraction.  The sampler is built from x = xn/xd, y = yn/yd and
    the model's integers of q and s, and each table once, from integer
    rows only:

      _l, _mstar  the model's VertexRows of y (the L row) and of x (the
                  MSTAR row)
      _rstar      the crossing row of (x, y) (weights.r_row), read by
                  weights.RSTAR_SLOTS as RSTAR's numerators over its
                  slot 3, qd (Q - P) with x y = P / Q; built here, once
                  per pair

    A context's weights are those of the shared column kernel
    weights.column_weights, its B side (fwd) or A side (bwd): integers over
    one denominator, in bit order (0, 0), (0, 1), (1, 0), (1, 1), with the
    zero weights dropped.  The starred exchange check sums the same
    weights.  The table keeps their unreduced cumulative sums
    (TransitionTable.from_weights); p_fwd and p_bwd return these tables.
    """

    __slots__ = ("_l", "_mstar", "_rstar", "_fwd", "_bwd")

    def __init__(self, model, xn, xd, yn, yd):
        P, Q = xn * yn, xd * yd
        if not pair_admissible(model.sn, model.sd, P, Q):
            raise NotAdmissible(f"({frac(xn, xd)}, {frac(yn, yd)}) not admissible")
        self._l, self._mstar = model.row(yn, yd), model.row(xn, xd)
        # admissibility gives (1 - s^2)(1 - x y) > 0, so 1 - x y never vanishes here
        self._rstar = r_row(model.qn, model.qd, P, Q)
        self._fwd = {}
        self._bwd = {}

    def fwd(self, *context):
        """p_fwd at this (x, y) and the given column context."""
        tbl = self._fwd.get(context)
        if tbl is None:
            tbl = self._fwd[context] = TransitionTable.from_weights(
                *column_weights("B", self._l, self._mstar, self._rstar, *context), "B", context)
        return tbl

    def bwd(self, *context):
        """p_bwd at this (x, y) and the given column context."""
        tbl = self._bwd.get(context)
        if tbl is None:
            tbl = self._bwd[context] = TransitionTable.from_weights(
                *column_weights("A", self._l, self._mstar, self._rstar, *context), "A", context)
        return tbl


class CompiledModel:
    """The per-cell sampling laws of one ModelParams, as integer-keyed tables.

    This is the one place where parameters become tables.  ``compiled``
    stores the model on its params object, so the tables live exactly as
    long as that object, and no lookup hashes a Fraction.  The model reads
    the parameter point into integers once, when it is built: q = qn/qd,
    s = sn/sd and xs[i] = (numerator, denominator) of each x_i.  Every
    table is filled lazily from those integers, with no Fraction
    arithmetic:

      row(vn, vd)    the row vertices L, M and MSTAR at the spectral value
                     vn/vd (a weights.VertexRow): the integers of q, s and
                     v, from which any entry's numerator is a few products
      sampler(x, y)  the forward and backward column tables of the
                     spectral pair (x, y) (a CellSampler over the rows of
                     y and x and its own RSTAR row), keyed by the
                     numerators and denominators of x and y
      jumps(j)       the jump coefficients of the cells (i, j),
                     1 <= i <= j, as a list indexed by i - 1 of integer
                     triples (b_num, c_num, den) (see jump_coefficients),
                     built in one pass over xs.  They are the whole law
                     of a cell of the height model (its length patterns)
                     and of the particle system.
      bounds(j)      for each cell of jumps(j), the leading ones that the
                     binary expansion of c = c_num / den has at least,
                     floor(log2(den / (den - c_num))) capped at 64, and 0
                     unless 0 < c_num < den: one byte per cell, in a
                     bytes object.  The particle step decides a chain of
                     right hops off whole words with them
                     (exact._true_run).

    The integer pairs are not reduced: sample_bernoulli, like
    sample_categorical, only compares num * 2^k with a * den, so the
    draws are the same.
    """

    def __init__(self, params):
        self.params = params
        q, s = params.q, params.s
        self.qn, self.qd = q.numerator, q.denominator
        self.sn, self.sd = s.numerator, s.denominator
        self.xs = tuple((v.numerator, v.denominator) for v in params.x)
        self._probabilistic = False
        self._rows = {}
        self._samplers = {}
        self._jumps = {}
        self._bounds = {}

    def require_probabilistic(self):
        """params.require_probabilistic(), run once per model."""
        if not self._probabilistic:
            self.params.require_probabilistic()
            self._probabilistic = True

    def row(self, vn, vd):
        key = (vn, vd)
        row = self._rows.get(key)
        if row is None:
            row = self._rows[key] = VertexRow.from_ints(vn, vd, self.qn, self.qd, self.sn, self.sd)
        return row

    def sampler(self, x, y):
        key = (x.numerator, x.denominator, y.numerator, y.denominator)
        ctx = self._samplers.get(key)
        if ctx is None:
            ctx = self._samplers[key] = CellSampler(self, *key)
        return ctx

    def jumps(self, j):
        row = self._jumps.get(j)
        if row is None:
            self.params.check_spectral(j)
            yn, yd = self.xs[j]
            row = []
            for law in _jump_laws(self.qn, self.qd, yn, yd, self.xs[:j]):
                b, c, den = law
                if not (0 <= b <= den and 0 <= c <= den):
                    raise NonStochastic(
                        f"jump coefficients b = {b}/{den}, c = {c}/{den} of cell "
                        f"({len(row) + 1}, {j}) are not probabilities")
                row.append(law)
            self._jumps[j] = row
        return row

    def bounds(self, j):
        row = self._bounds.get(j)
        if row is None:
            laws = self.jumps(j)
            out = bytearray(len(laws))
            for k, (_, c, den) in enumerate(laws):
                if 0 < c < den:
                    ones = (den // (den - c)).bit_length() - 1
                    out[k] = ones if ones < 64 else 64
            row = self._bounds[j] = bytes(out)
        return row


def compiled(params):
    """The CompiledModel of params, built on first use and stored on params itself."""
    model = params.__dict__.get("_compiled")
    if model is None:
        model = CompiledModel(params)
        object.__setattr__(params, "_compiled", model)
    return model


def cell_sampler(x, y, params):
    """The column tables of the spectral pair (x, y) under params."""
    return compiled(params).sampler(x, y)


def sweep(T, rng, params, per_cell_streams):
    """The growth order of both samplers: (i, j, cell) for 1 <= i <= j <= T.

    Cells come by anti-diagonal i + j and then by i, so every cell comes
    after its neighbours (i-1, j-1), (i, j-1) and (i-1, j).  Without
    per_cell_streams, cell is rng itself, so sequential draws follow this
    order.  With them, a RandomSource yields words: cell is the first word
    of rng.substream(i, j) in read order, and exact.CellBits(cell, rng, i,
    j) reads all of that substream's bits.  RandomSource.cell_words seeds
    them in fixed-width bands: the rows and columns the cells share are
    hashed lane-wise, for all indices at once, this order is cut every
    _BAND cells, and each band width's lane constants are built once, in
    a table with at most one entry per power of two.  Any other bit
    source with bit() and substream(*key) is asked for cell =
    rng.substream(i, j), once per cell.  T must be an int >= 0 and params
    in probabilistic mode (InvalidParams otherwise); both are checked here
    at once, also when T = 0 has no cells.
    """
    check_T(T)
    compiled(params).require_probabilistic()
    if per_cell_streams and type(rng) is RandomSource:
        return rng.cell_words(T)
    return (
        (i, total - i, rng.substream(i, total - i) if per_cell_streams else rng)
        for total, lo, hi in anti_diagonals(T)
        for i in range(lo, hi + 1)
    )


# ---------------------------------------------------------------------------
# the four operators
# ---------------------------------------------------------------------------

def bulk_forward(kappa, lam, mu, x, y, rng, params):
    """Sample nu from the forward bulk operator given corner kappa and neighbours lam, mu.

    One pass over the columns h = 0, 1, ...: the crossing states k_h, l_h
    (those of _walk's A side) are carried from the multiplicities of
    kappa, lam and mu, and each is checked to be 0 or 1 before its
    column's table is looked up, with _walk's ValueError.  So a triple
    that does not interlace is refused at its first bad column, after the
    columns before it have drawn from rng.  A column table has one or two
    outcomes (TransitionTable): a forced one is read off with no bit, and
    a two-outcome one is a Bernoulli draw, bernoulli_draw(rng), looked up
    once per call.  These are the bits TransitionTable.sample reads.
    """
    fwd = cell_sampler(x, y, params).fwd
    draw = bernoulli_draw(rng)
    top = _top(kappa, lam, mu)
    I, J, K = mult_vector(lam, top), mult_vector(mu, top), mult_vector(kappa, top)
    I[0] = J[0] = INF  # column 0 holds the sentinel
    k_h, l_h = len(mu) - len(kappa), len(lam) - len(kappa)
    i_h, j_h = 1, 0
    mids = []
    for h in range(top + 1):
        if h:
            k_h += K[h] - J[h]
            l_h += K[h] - I[h]
        if not (0 <= k_h <= 1 and 0 <= l_h <= 1):
            raise ValueError(f"need kappa ≺ lam and kappa ≺ mu; got {kappa}, {lam}, {mu}")
        tbl = fwd(I[h], J[h], i_h, j_h, k_h, l_h)
        outs = tbl.outcomes
        i_h, j_h, mid = outs[0] if len(outs) == 1 or draw(*tbl.cum[0], rng) else outs[1]
        mids.append(mid)
    # past top every context is (0, 0, i, j, 0, 0); the scan ends at carry (0, 0)
    while i_h or j_h:
        if len(mids) > top + SCAN_CAP:
            raise ScanCapExceeded(f"forward scan still alive {SCAN_CAP} columns past {top}")
        tbl = fwd(0, 0, i_h, j_h, 0, 0)
        outs = tbl.outcomes
        i_h, j_h, mid = outs[0] if len(outs) == 1 or draw(*tbl.cum[0], rng) else outs[1]
        mids.append(mid)
    return _partition(mids)


def bulk_backward(nu, lam, mu, x, y, rng, params):
    """Sample kappa from the backward bulk operator given corner nu and neighbours lam, mu."""
    bwd = cell_sampler(x, y, params).bwd
    top = _top(nu, lam, mu)
    I, J, i, j, _ = _walk("B", nu, lam, mu, top)
    parts = []
    k_h = l_h = 0
    for h in range(top, 0, -1):
        k_h, l_h, mid = bwd(I[h], J[h], i[h - 1], j[h - 1], k_h, l_h).sample(rng)
        parts += [h] * mid
    # column 0 is forced: its crossing outputs are (1, 0) with probability one
    # (test_column0_coupling_is_the_forced_one pins this for every (k_h, l_h))
    return tuple(parts)


def boundary_forward(kappa, mu, x, y, rng, params):
    """Diagonal forward operator: condition on the conjugate-even cover of kappa."""
    return bulk_forward(kappa, even_cover(kappa), mu, x, y, rng, params)


def boundary_backward(nu, mu, x, y, rng, params):
    """Diagonal backward operator: condition on the conjugate-even core of nu."""
    return bulk_backward(nu, even_core(nu), mu, x, y, rng, params)


# ---------------------------------------------------------------------------
# exact laws (for tests and small-instance verification)
# ---------------------------------------------------------------------------

def forward_prob(kappa, lam, mu, nu, x, y, params):
    """Exact probability that bulk_forward produces nu (a single forced trajectory)."""
    fwd = cell_sampler(x, y, params).fwd
    top = _top(kappa, lam, mu, nu)
    I, J, ls, ks, _ = _walk("A", kappa, lam, mu, top)
    try:
        _, _, i, j, M = _walk("B", nu, lam, mu, top)
    except ValueError:
        return ZERO
    prob = ONE
    i_prev, j_prev = 1, 0
    for h in range(top + 1):
        prob *= fwd(I[h], J[h], i_prev, j_prev, ks[h], ls[h]).prob((i[h], j[h], M[h]))
        if prob == 0:
            return ZERO
        i_prev, j_prev = i[h], j[h]
    return prob


def backward_prob(nu, lam, mu, kappa, x, y, params):
    """Exact probability that bulk_backward produces kappa."""
    bwd = cell_sampler(x, y, params).bwd
    top = _top(kappa, lam, mu, nu)
    I, J, i, j, _ = _walk("B", nu, lam, mu, top)
    try:
        _, _, ls, ks, K = _walk("A", kappa, lam, mu, top)
    except ValueError:
        return ZERO
    prob = ONE
    for h in range(top, 0, -1):
        tbl = bwd(I[h], J[h], i[h - 1], j[h - 1], ks[h], ls[h])
        prob *= tbl.prob((ks[h - 1], ls[h - 1], K[h]))
        if prob == 0:
            return ZERO
    return prob


def forward_distribution(kappa, lam, mu, x, y, params, part_cap):
    """Exact law of bulk_forward truncated at parts <= part_cap.

    Returns (dist, overflow): dist maps nu to its exact probability and
    overflow is the exact mass of scan trajectories still alive past the
    cap, so sum(dist.values()) + overflow == 1 exactly.
    """
    fwd = cell_sampler(x, y, params).fwd
    top = _top(kappa, lam, mu)
    I, J, ls, ks, _ = _walk("A", kappa, lam, mu, max(top, part_cap))
    dist = {}
    overflow = [ZERO]

    def rec(h, i_prev, j_prev, mids, prob):
        if h > top and (i_prev, j_prev) == (0, 0):
            nu = _partition(mids)
            dist[nu] = dist.get(nu, ZERO) + prob
            return
        if h > part_cap:
            overflow[0] += prob
            return
        tbl = fwd(I[h], J[h], i_prev, j_prev, ks[h], ls[h])
        for (i_h, j_h, mid), p in zip(tbl.outcomes, tbl.probs):
            rec(h + 1, i_h, j_h, mids + [mid], prob * p)

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
    parity of the corner value.  The two random patterns are the jump
    coefficients: (0, 0) stays with probability c and (1, 1) grows by two
    with probability b (see jump_coefficients, which raises InvalidParams
    when 1 - qxy vanishes).
    """
    b, c, den = jump_coefficients(x, y, params)
    up1 = ((1,), (ONE,))
    return {
        (0, 0): ((0, 1), (frac(c, den), frac(den - c, den))),
        (1, 1): ((1, 2), (frac(den - b, den), frac(b, den))),
        (0, 1): up1,
        (1, 0): up1,
    }


def jump_coefficients(x, y, params):
    """The particle jump coefficients b, c of the spectral pair (x, y), as integers.

    Returns (b_num, c_num, den) with den > 0, where
    b = q(1 - xy)/(1 - qxy) and c = (1 - xy)/(1 - qxy) are the length
    patterns' probabilities of growing by two from (1, 1) and of not
    growing from (0, 0): the R entries (1, 0; 1, 0) and (0, 1; 0, 1).
    Raises InvalidParams when 1 - qxy vanishes.
    """
    q = params.q
    return next(_jump_laws(q.numerator, q.denominator, y.numerator, y.denominator,
                           [(x.numerator, x.denominator)]))


def _jump_laws(qn, qd, yn, yd, xs):
    """jump_coefficients of (x, y) for each x = xn/xd in xs, in order, one at a time.

    q = qn/qd and y = yn/yd.  Each triple is read off R's numerators
    (weights.r_row); InvalidParams is raised at the first x where
    1 - qxy vanishes, when that x is reached.
    """
    for xn, xd in xs:
        den, b, _, c, _ = r_row(qn, qd, xn * yn, xd * yd)
        if den == 0:
            raise InvalidParams("1 - q x_{i-1} x_j vanished")
        yield (b, c, den) if den > 0 else (-b, -c, -den)


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
    return TransitionTable.from_probs((lk + d for d in deltas), probs)
