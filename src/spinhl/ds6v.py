"""Dynamic stochastic six-vertex model in a half-quadrant, and its particle dual.

The model is a random height function h(i, j) on 0 <= i <= j <= T with
h(0, j) = 0, grown along anti-diagonals.  Bulk sites use the two-outcome
bulk length tables; diagonal sites use the boundary tables, whose branch
depends on the parity of the height at the previous diagonal point - that
parity dependence is what makes the model "dynamic".  Every height
increment is 0 or 1 in both lattice directions, so a height field encodes
an ensemble of up-right paths, recoverable explicitly.

Reading the rows of the complemented path ensemble as time slices gives a
discrete-time particle system on the half-line with an open boundary:
site i at time t is occupied iff the height does not grow across column
t - i + 1 at level t + 1/2.  One time step resolves particles from right
to left: a particle may hop right one site (bulk coefficient c), or fly
left over holes (factors b per hole) until it parks (factor 1 - b), is
forced to park next to the previous particle, or reaches the corner,
where the parity of t - N(t) decides between parking at site 1 and
leaving the system.  When no flight reaches the corner, an even corner
injects a new particle at site 1 with probability c.  Right hops come in
chains (a particle that hops leaves the next one unblocked), and on a
word source a chain is decided a word at a time (exact._true_run), with
the bits its draws one by one would read.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import dataclass
from operator import gt

from .exact import (
    InconsistentHeights,
    InvalidParams,
    RandomSource,
    _bernoulli_words,
    _true_run,
    bernoulli_draw,
    check_T,
    check_lattice,
    half_quadrant,
    sample_bernoulli,
    word_bernoulli,
)
from .field import sample_field
from .transitions import compiled, sweep


def ds6v_sample(T, rng, params, per_cell_streams=True):
    """Sample the height field {(i, j): h} for 0 <= i <= j <= T.

    With per_cell_streams (the default) every cell draws from its own
    substream keyed (i, j), making the result independent of evaluation
    order; per_cell_streams=False draws sequentially in sweep order from
    `rng`, which is faster and fine for bulk Monte Carlo.

    A cell's law is its length pattern (da, db), read off the jump
    coefficients b, c of the cell: a mixed pattern grows by one without a
    draw, (0, 0) stays with probability c and (1, 1) grows by two with
    probability b, each one Bernoulli draw.  A cell draws at most once,
    so when a RandomSource gives each cell the first word of its
    substream (transitions.sweep), word_bernoulli draws from that word;
    only when the word cannot decide (probability at most 2^-63) does
    the draw read rng.substream(i, j) from its start.  Other sources are
    asked for one substream(i, j) per cell.  Either way the draws read
    the same bits, and the heights are the same.
    """
    cells = sweep(T, rng, params, per_cell_streams)  # checks T and params first
    jumps = compiled(params).jumps
    laws = [None] * (T + 1)  # laws[j] = jumps(j), looked up once, at row j's first draw
    # the neighbours are read from rows[i][j - i + 1] = h(i, j); rows[i][0] pads j = i - 1
    rows = [[0] * (T + 2 - i) for i in range(T + 1)]
    h = {(0, j): 0 for j in range(T + 1)}
    for i, j, cell in cells:
        up, row, k = rows[i - 1], rows[i], j - i + 1
        base = up[k]
        da = row[k - 1] - base if i < j else base & 1
        db = up[k + 1] - base
        if da != db:
            row[k] = h[i, j] = base + 1
            continue
        law = laws[j]
        if law is None:
            law = laws[j] = jumps(j)
        b, c, den = law[i - 1]
        num = den - b if da else c
        if type(cell) is int:
            hit = word_bernoulli(num, den, cell)
            if hit is None:
                hit = sample_bernoulli(num, den, rng.substream(i, j))
        else:
            hit = sample_bernoulli(num, den, cell)
        # (1, 1) grows by 1 on a hit and by 2 otherwise; (0, 0) by 0 or 1
        row[k] = h[i, j] = base + da + (0 if hit else 1)
    return h


def paired_marginals(T, samples, seed, params, per_cell_streams=True):
    """Chi-square p-values of field lengths against heights, site by site.

    Sample k grows sample_field from RandomSource(seed, 0).substream(k)
    and ds6v_sample from RandomSource(seed, 1).substream(k); at every
    site the paper's length-height matching makes the two laws equal.
    Returns {(i, j): p} for 1 <= i <= j <= T, ordered by j and then i; a
    site where both sides only ever took one value gets p = 1.0.
    """
    from scipy.stats import chi2_contingency

    sites = [(i, j) for j in range(1, T + 1) for i in range(1, j + 1)]
    lengths = {pt: Counter() for pt in sites}
    heights = {pt: Counter() for pt in sites}
    base_f, base_h = RandomSource(seed, 0), RandomSource(seed, 1)
    for k in range(samples):
        fld = sample_field(T, base_f.substream(k), params, per_cell_streams)
        hts = ds6v_sample(T, base_h.substream(k), params, per_cell_streams)
        for pt in sites:
            lengths[pt][len(fld[pt])] += 1
            heights[pt][hts[pt]] += 1
    p_values = {}
    for pt in sites:
        keys = sorted(set(lengths[pt]) | set(heights[pt]))
        if len(keys) < 2:
            p_values[pt] = 1.0
        else:
            table = [[lengths[pt][k] for k in keys], [heights[pt][k] for k in keys]]
            p_values[pt] = float(chi2_contingency(table).pvalue)
    return p_values


def check_heights(h):
    """Monotone 0/1 increments in both directions and a zero pinned column, on one lattice.

    The cells must be those of one lattice 0 <= i <= j <= T, T the
    largest j (exact.check_lattice: half_quadrant's rule, which names the
    first cell outside 0 <= i <= j or else the first missing one).  True, or
    InconsistentHeights naming the first bad cell.
    """
    check_lattice(h, InconsistentHeights)
    for (i, j), v in h.items():
        if i == 0 and v != 0:
            raise InconsistentHeights(f"h(0, {j}) = {v} != 0")
        if (i, j + 1) in h and h[(i, j + 1)] - v not in (0, 1):
            raise InconsistentHeights(f"bad vertical step at {(i, j)}")
        if (i + 1, j) in h and h[(i + 1, j)] - v not in (0, 1):
            raise InconsistentHeights(f"bad horizontal step at {(i, j)}")
    return True


def paths_from_heights(h):
    """Recover the up-right path ensemble: occupied vertical and horizontal edges.

    The vertical edge (i, j) -> (i, j+1) is occupied iff h(i, j) - h(i-1, j) = 1,
    and the horizontal edge (i-1, j) -> (i, j) iff h(i-1, j) = h(i-1, j-1);
    a new path enters at every (1, j).  Conservation at a bulk vertex
    (i < j) needs no check: the four increments around the cell satisfy
    a + c = b + d, so the right edge carries 1 - d, which check_heights has
    made 0 or 1.  Diagonal vertices may absorb or emit paths.
    Returns (vertical, horizontal): sets of edge-origin lattice points,
    where horizontal (i, j) means the edge (i, j) -> (i+1, j).  The heights
    must pass check_heights, which also checks that the cells are those of
    one lattice; the empty lattice has no edges.
    """
    check_heights(h)
    vert = {(i, j) for (i, j), v in h.items() if i and v - h[i - 1, j] == 1}
    # the edge (0, j) -> (1, j) is always occupied (h(0, .) = 0): the boundary inflow
    horiz = {(i, j) for (i, j), v in h.items() if i < j and v == h[i, j - 1]}
    return vert, horiz


def heights_from_paths(vert, T):
    """Rebuild the height field from vertical edge occupancies (round-trip inverse)."""
    h = {(0, j): 0 for j in range(T + 1)}
    for j in range(1, T + 1):
        for i in range(1, j + 1):
            h[(i, j)] = h[(i - 1, j)] + (1 if (i, j) in vert else 0)
    return h


@dataclass(frozen=True)
class ParticleState:
    """Occupied sites at one time slice, rightmost first: positions[0] > positions[1] > ..."""

    t: int
    positions: tuple

    def occupancy(self, i):
        return 1 if i in self.positions else 0

    def count(self):
        return len(self.positions)

    def current(self, x):
        """N_x(t): number of particles at sites >= x."""
        return sum(1 for y in self.positions if y >= x)


def particles_from_heights(h, t):
    """Particle state at time t: site i occupied iff h(t-i+1, t) - h(t-i, t) = 0.

    Only the cells (c, t), 0 <= c <= t, are read.  InconsistentHeights if
    t is not a time of the lattice, 0 <= t <= T, or the lattice is empty,
    or else naming the first of those cells that is missing.
    """
    if not h:
        raise InconsistentHeights(f"time {t} outside the lattice: the lattice is empty")
    if (t, t) not in h:  # also every t < 0: the lattice has no negative time
        T = max(j for _, j in h)
        raise InconsistentHeights(f"time {t} outside the lattice 0 <= t <= T = {T}")
    try:
        row = [h[c, t] for c in range(t + 1)]
    except KeyError as missing:
        raise InconsistentHeights(
            f"bad lattice data: cell {missing.args[0]} of time {t} is missing") from None
    return ParticleState(t, tuple(i for i in range(t, 0, -1) if row[t - i + 1] == row[t - i]))


def particle_step(state, rng, params):
    """One time step t -> t+1 of the dual particle system, resolved right to left.

    Implements the jump rules with exact probabilities: right hops with
    coefficient c, left flights with b factors, forced parking next to an
    updated right neighbour, corner parity (of t - N(t)) choosing between
    parking at site 1 and ejection, and corner creation when no flight
    reaches it.  The law coincides with reading two consecutive rows of
    the height field (which tests verify exactly).

    Every draw is one sample_bernoulli, looked up once per step
    (exact.bernoulli_draw): a RandomSource or CellBits is read a word at a
    time, any other bit source bit by bit, with the same bits either way.
    On a word source, an unblocked particle with at least _CHAIN
    particles left, itself included, hands the chain of right hops that
    starts with it to exact._true_run.  That decides as many of the next
    (at most 63) hops as the current word can, at the least leading-ones
    bound (CompiledModel.bounds) over the columns of those particles, and
    reads exactly the bits their draws would; the particles that hop land
    in one extend.  Every other draw, and every draw when bernoulli_draw
    does not give the word kernel (say, when it is patched), is made one
    at a time.  The sites come out strictly decreasing, as they are kept.

    t must be an int >= 0, the positions must strictly decrease within
    1..t and params must be in probabilistic mode (InvalidParams
    otherwise).
    """
    t, old = state.t, state.positions
    if type(t) is not int or t < 0:
        raise InvalidParams(f"particle state time must be an integer >= 0, got {t!r}")
    if old and (old[0] > t or old[-1] < 1 or not all(map(gt, old, old[1:]))):
        raise InvalidParams(f"particle state at t = {t} needs sites strictly decreasing "
                            f"within 1..{t}, got {old}")
    model = compiled(params)
    model.require_probabilistic()
    return ParticleState(t + 1, _step(t, old, model, bernoulli_draw(rng), rng))


# particles left, at least, for _true_run: fewer gain nothing at T = 256, and at T = 32
# with cold tables a bounds row costs more to build than its chains save
_CHAIN = 16


def _step(t, old, model, draw, rng):
    """The positions after particle_step from time t and positions old, descending, unchecked."""
    jumps = model.jumps(t + 1)  # (b, c, den) of cell (i, t + 1) at index i - 1
    n = len(old)
    bounds = model.bounds(t + 1) if draw is _bernoulli_words and n >= _CHAIN else None
    new = []  # descending as they come; new[-1] is the updated right neighbour
    corner_used = False
    i = 0
    while i < n:
        y = old[i]
        if not new or new[-1] != y + 1:  # not blocked by the updated right neighbour
            if bounds is not None and n - i >= _CHAIN:
                m = min(n - i, 63)  # one word decides at most 63 hops
                ones = min(bounds[t - y:t - old[i + m - 1] + 1])
                if ones:
                    r = _true_run(ones, m, rng)
                    new.extend(map((1).__add__, old[i:i + r]))  # r right hops
                    i += r
                    if i == n:
                        break
                    y = old[i]
            _, c, den = jumps[t - y]
            if draw(c, den, rng):
                new.append(y + 1)  # right hop
                i += 1
                continue
        # leftward flight over the old sites y - 1, ..., 1, down to the next particle;
        # site sits on column t - site + 1
        i += 1
        blocker = old[i] if i < n else 0
        for site in range(y - 1, blocker, -1):
            b, _, den = jumps[t - site]
            if not draw(b, den, rng):
                new.append(site + 1)  # parks right of the hole
                break
        else:
            if blocker:
                new.append(blocker + 1)  # forced next to the blocker
            else:
                # the corner: park at site 1 or leave the system
                corner_used = True
                b, _, den = jumps[t]
                if (t - n) % 2 == 0 or not draw(b, den, rng):
                    new.append(1)
        # ejected particles leave new[-1] untouched (only the leftmost can eject)
    if not corner_used and (t - n) % 2 == 0:
        _, c, den = jumps[t]
        if draw(c, den, rng):
            new.append(1)
        # odd corner with no incoming flight never creates
    return tuple(new)


def particle_trajectory(T, rng, params):
    """Run the particle system from the empty state through time T (sequential draws).

    T must be an int >= 0 and params in probabilistic mode (InvalidParams
    otherwise), also when T = 0 makes no step.  The steps are
    particle_step's, without its check of each state.
    """
    check_T(T)
    model = compiled(params)
    model.require_probabilistic()
    draw = bernoulli_draw(rng)
    states = [ParticleState(0, ())]
    positions = ()
    for t in range(T):
        positions = _step(t, positions, model, draw, rng)
        states.append(ParticleState(t + 1, positions))
    return states


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def heights_to_csv(h):
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["i", "j", "h"])
    for (i, j), v in sorted(h.items()):
        w.writerow([i, j, v])
    return buf.getvalue()


def _int_rows(text, header, error):
    """The rows under `header` of a CSV text, each as (line number, tuple of ints).

    Raises `error` naming the first bad line: a missing or wrong header, a
    row of the wrong length, or a field that is not an integer.
    """
    reader = csv.reader(io.StringIO(text))
    want = ",".join(header)
    try:
        first = next(reader, None)
        if first != header:
            got = "no line" if first is None else repr(",".join(first))
            raise error(f"bad CSV header on line 1: expected {want!r}, got {got}")
        rows = []
        for row in reader:
            try:
                if len(row) != len(header):
                    raise ValueError
                rows.append((reader.line_num, tuple(int(v) for v in row)))
            except ValueError:
                raise error(f"bad CSV row on line {reader.line_num}: expected integers "
                            f"{want!r}, got {','.join(row)!r}") from None
    except csv.Error as exc:
        raise error(f"bad CSV on line {reader.line_num}: {exc}") from None
    return rows


def heights_from_csv(text):
    """The heights written by heights_to_csv; InconsistentHeights names a bad line or cell.

    The rows must be the cells 0 <= i <= j <= T of one lattice, each once
    (see exact.half_quadrant); the heights themselves are not checked
    (check_heights does that).
    """
    rows = _int_rows(text, ["i", "j", "h"], InconsistentHeights)
    return half_quadrant(((f"line {n}", (i, j), v) for n, (i, j, v) in rows),
                         InconsistentHeights)


def particles_to_csv(states):
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["t", "site", "occupied"])
    for st in states:
        top = max([st.t] + list(st.positions))
        occupied = set(st.positions)  # occupancy() would scan the positions once per site
        w.writerows([st.t, site, 1 if site in occupied else 0] for site in range(1, top + 1))
    return buf.getvalue()


def particles_from_csv(text):
    """The trajectory written by particles_to_csv, from the empty state at t = 0.

    The rows must be the sites 1 <= site <= t of every time 1 <= t <= T for
    the largest t given, T, each once, with occupied 0 or 1.  InvalidParams
    names the first bad line (a row outside 1 <= site <= t, one seen
    before, or an occupied value other than 0 and 1), or else the first
    missing (t, site), by t and then site.
    """
    by_t, seen = {}, {}
    for n, (t, site, occ) in _int_rows(text, ["t", "site", "occupied"], InvalidParams):
        if not 1 <= site <= t:
            raise InvalidParams(f"bad particle row on line {n}: (t, site) = {(t, site)} "
                                "is outside 1 <= site <= t")
        if (t, site) in seen:
            raise InvalidParams(f"bad particle row on line {n}: (t, site) = {(t, site)} "
                                f"repeats line {seen[t, site]}")
        if occ not in (0, 1):
            raise InvalidParams(f"bad particle row on line {n}: occupied = {occ} is not 0 or 1")
        seen[t, site] = n
        by_t.setdefault(t, [])
        if occ:
            by_t[t].append(site)
    T = max(by_t, default=0)
    for t in range(1, T + 1):
        for site in range(1, t + 1):
            if (t, site) not in seen:
                raise InvalidParams(f"bad particle trajectory: (t, site) = {(t, site)} of "
                                    f"1 <= site <= t <= {T} is missing")
    return [ParticleState(0, ())] + [
        ParticleState(t, tuple(sorted(by_t[t], reverse=True))) for t in range(1, T + 1)]


def currents_to_json(states):
    out = []
    for st in states:
        top = max([1] + [y for y in st.positions])
        # N_x = st.current(x) for every x at once: particles per site, summed from the right
        n_x = [0] * (top + 2)
        for y in st.positions:
            if y >= 1:
                n_x[y] += 1
        for xx in range(top - 1, 0, -1):
            n_x[xx] += n_x[xx + 1]
        out.append({
            "t": st.t,
            "N": st.count(),
            "N_x": {str(xx): n_x[xx] for xx in range(1, top + 1)},
        })
    return json.dumps(out)
