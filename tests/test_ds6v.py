"""Dynamic six-vertex heights, path reconstruction, and the particle dual."""

import hashlib
import re
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from spinhl.exact import (
    InconsistentHeights,
    InvalidParams,
    ModelParams,
    RandomSource,
    anti_diagonals,
    default_spectral,
    sample_bernoulli,
    word_bernoulli,
)
from spinhl.ds6v import (
    check_heights,
    currents_to_json,
    ds6v_sample,
    heights_from_csv,
    heights_from_paths,
    heights_to_csv,
    particle_step,
    particle_trajectory,
    particles_from_csv,
    particles_from_heights,
    particles_to_csv,
    paths_from_heights,
    ParticleState,
)
from spinhl.transitions import compiled, jump_coefficients, length_transition


def b_c_coeffs(i, j, params):
    """The jump coefficients (b, c) of cell (i, j) as Fractions, from the compiled table."""
    b, c, den = compiled(params).jumps(j)[i - 1]
    return F(b, den), F(c, den)


# Reference height configuration on the T = 8 half-quadrant, with its dual
# particle occupancies.  One height label in the source drawing is printed
# twice (the point (3,7) appears with both 2 and 3); path counting and the
# dual panel force the value 3, which is what this fixture uses.
FIXTURE_HEIGHTS = {}
for j in range(9):
    FIXTURE_HEIGHTS[(0, j)] = 0
_rows = {
    1: [0, 0, 0, 0, 0, 0, 1, 1],
    2: [0, 1, 1, 1, 1, 2, 2],
    3: [1, 1, 2, 2, 3, 3],
    4: [2, 2, 2, 3, 3],
    5: [2, 2, 3, 4],
    6: [3, 4, 5],
    7: [5, 5],
    8: [6],
}
for i, vals in _rows.items():
    for off, v in enumerate(vals):
        FIXTURE_HEIGHTS[(i, i + off)] = v

FIXTURE_PARTICLES = {
    0: (), 1: (1,), 2: (2, 1), 3: (3, 1), 4: (4, 2), 5: (5, 2, 1),
    6: (6, 3, 2), 7: (4, 3), 8: (5, 2),
}


def test_b_c_examples(params):
    q = params.q
    b, c, den = jump_coefficients(params.x[0], params.x[2], params)
    assert (F(b, den), F(c, den)) == b_c_coeffs(1, 2, params)
    b, c = F(b, den), F(c, den)
    xx = params.x[0] * params.x[2]
    assert b == q * (1 - xx) / (1 - q * xx)
    assert c == (1 - xx) / (1 - q * xx)
    # complementarity with the deflection weight
    assert c + (1 - q) * xx / (1 - q * xx) == 1
    # q -> 0 limit: no double jumps, passing weight loses its q correction
    p0 = ModelParams.make(0, "-1/2", 1, params.x)
    b0, c0, den0 = jump_coefficients(params.x[1], params.x[3], p0)
    assert b0 == 0
    assert F(c0, den0) == 1 - params.x[1] * params.x[3]


def test_jump_rows_hold_only_the_half_quadrant(params):
    # jumps(j) has one entry per cell (i, j) with 1 <= i <= j, and none for i > j
    model = compiled(params)
    for j in range(len(params.x)):
        assert len(model.jumps(j)) == j
    with pytest.raises(IndexError):
        model.jumps(2)[2]  # the cell (3, 2)
    # an index past either end names x_index, and no row is kept for it
    n = len(params.x)
    for index in (n, n + 3, -1, -n):
        for call in (params.spectral, model.jumps):
            with pytest.raises(InvalidParams) as exc:
                call(index)
            assert str(exc.value) == f"spectral parameter x_{index} not supplied (have {n})"
    assert sorted(model._jumps) == list(range(n))


def test_fixture_heights_are_consistent():
    assert check_heights(FIXTURE_HEIGHTS)


def test_fixture_round_trips_heights_paths():
    vert, horiz = paths_from_heights(FIXTURE_HEIGHTS)
    rebuilt = heights_from_paths(vert, 8)
    assert rebuilt == FIXTURE_HEIGHTS
    # a new path enters at every (1, j): the boundary edge is always occupied
    for j in range(1, 9):
        assert (0, j) in horiz


@pytest.mark.parametrize("h, missing", [
    ({(0, 0): 0, (0, 1): 0, (0, 2): 0}, (1, 1)),
    ({(0, 0): 0, (0, 1): 0, (1, 1): 0, (0, 2): 0, (1, 2): 0}, (2, 2)),
    ({k: v for k, v in FIXTURE_HEIGHTS.items() if k != (3, 5)}, (3, 5)),
])
def test_paths_from_heights_checks_its_lattice(h, missing):
    # a missing cell is named as heights_from_csv names it; the empty lattice has no edges
    T = max(j for _, j in h)
    with pytest.raises(InconsistentHeights, match=re.escape(
            f"bad lattice data: cell {missing} of 0 <= i <= j <= {T} is missing")):
        paths_from_heights(h)
    assert paths_from_heights({}) == (set(), set())
    assert paths_from_heights(heights_from_csv("i,j,h\n")) == (set(), set())


@pytest.mark.parametrize("h, text", [
    ({(0, 0): 0, (1, 1): 5}, "bad lattice data: cell (0, 1) of 0 <= i <= j <= 1 is missing"),
    ({(0, 0): 0, (0, 1): 0, (1, 1): 0, (2, 1): 0},
     "bad lattice data on cell (2, 1): cell (2, 1) is outside 0 <= i <= j"),
    ({k: v for k, v in FIXTURE_HEIGHTS.items() if k != (3, 5)},
     "bad lattice data: cell (3, 5) of 0 <= i <= j <= 8 is missing"),
], ids=["missing", "outside", "fixture-missing"])
def test_check_heights_checks_its_lattice(h, text):
    # exact.half_quadrant's rule, with its texts; the empty lattice passes
    with pytest.raises(InconsistentHeights, match=re.escape(text)):
        check_heights(h)
    assert check_heights({}) is True


def test_particles_from_heights_names_the_missing_cell_it_reads():
    with pytest.raises(InconsistentHeights,
                       match=re.escape("bad lattice data: cell (0, 1) of time 1 is missing")):
        particles_from_heights({(0, 0): 0, (1, 1): 0}, 1)
    # only the cells (c, t) are read: the other times of a broken lattice still read
    h = {k: v for k, v in FIXTURE_HEIGHTS.items() if k != (3, 5)}
    with pytest.raises(InconsistentHeights,
                       match=re.escape("bad lattice data: cell (3, 5) of time 5 is missing")):
        particles_from_heights(h, 5)
    for t in (4, 6, 8):
        assert particles_from_heights(h, t).positions == FIXTURE_PARTICLES[t]


def test_fixture_particle_dual():
    for t in range(9):
        st = particles_from_heights(FIXTURE_HEIGHTS, t)
        assert st.positions == FIXTURE_PARTICLES[t], t
        assert st.count() == t - FIXTURE_HEIGHTS[(t, t)]


@pytest.mark.parametrize("h, t, T", [
    ({(0, 0): 0}, 2, 0),
    ({(0, 0): 0}, -1, 0),
    (FIXTURE_HEIGHTS, 9, 8),
    (FIXTURE_HEIGHTS, -1, 8),
    ({}, 0, None),
])
def test_particles_from_heights_refuses_a_time_off_the_lattice(h, t, T):
    bound = f" 0 <= t <= T = {T}" if h else ": the lattice is empty"
    with pytest.raises(InconsistentHeights, match=rf"^time {t} outside the lattice{bound}$"):
        particles_from_heights(h, t)
    # the lattice's own end times still read
    assert particles_from_heights({(0, 0): 0}, 0) == ParticleState(0, ())
    assert particles_from_heights(FIXTURE_HEIGHTS, 8).positions == FIXTURE_PARTICLES[8]


def test_sampled_heights_monotone_and_round_trip(params):
    for seed in range(5):
        h = ds6v_sample(6, RandomSource(seed, 4), params)
        assert check_heights(h)
        vert, _ = paths_from_heights(h)
        assert heights_from_paths(vert, 6) == h


def test_sampler_determinism(params):
    h1 = ds6v_sample(5, RandomSource(3, 1), params)
    h2 = ds6v_sample(5, RandomSource(3, 1), params)
    assert h1 == h2


def test_duality_count_identity(params):
    # N(t) = t - h(t, t) on every sampled trajectory up to T = 16
    for seed in range(4):
        h = ds6v_sample(16, RandomSource(seed, 6), params)
        for t in range(17):
            st = particles_from_heights(h, t)
            assert st.count() == t - h[(t, t)]
            # currents are non-increasing in the cutoff
            prev = None
            for xx in range(1, t + 2):
                cur = st.current(xx)
                assert cur >= 0
                if prev is not None:
                    assert cur <= prev
                prev = cur


def test_one_step_tables_match_length_transition(all_points):
    # the sampler's compiled jump coefficients give the length-projection law of each pattern
    for params in all_points:
        for a, b in ((0, 1), (1, 3), (2, 3), (4, 9)):
            x, y = params.x[a], params.x[b]
            jb, jc, den = compiled(params).jumps(b)[a]
            B, C = F(jb, den), F(jc, den)
            laws = {(0, 0): {5: C, 6: 1 - C}, (0, 1): {6: 1}, (1, 0): {6: 1},
                    (1, 1): {6: 1 - B, 7: B}}
            for (da, db), law in laws.items():
                tbl = length_transition("bulk", (5, 5 + da, 5 + db), x, y, params)
                assert {k: p for k, p in law.items() if p} == tbl.as_dict()


def test_h11_distribution(params):
    _, c11 = b_c_coeffs(1, 1, params)
    n = 6000
    hits = sum(
        1 for k in range(n)
        if ds6v_sample(1, RandomSource(10, 0).substream(k), params)[(1, 1)] == 0
    )
    p = float(c11)
    assert abs(hits - n * p) < 5 * (n * p * (1 - p)) ** 0.5


def test_empty_height_field_particles():
    h = {(i, j): 0 for j in range(6) for i in range(j + 1)}
    for t in range(6):
        st = particles_from_heights(h, t)
        assert st.count() == t
        assert st.positions == tuple(range(t, 0, -1))


def test_bad_heights_rejected():
    bad = dict(FIXTURE_HEIGHTS)
    bad[(1, 1)] = 2
    with pytest.raises(InconsistentHeights):
        check_heights(bad)
    bad2 = dict(FIXTURE_HEIGHTS)
    bad2[(0, 3)] = 1
    with pytest.raises(InconsistentHeights):
        check_heights(bad2)


def test_particle_rules_exact_kernel_vs_height_rows(params):
    """The rule-based step has exactly the law of one height-row update.

    Oracle side: push every height row forward with the exact length
    tables and project to particles.  Rule side: enumerate every decision
    path of the written jump rules with exact probabilities.
    """

    def row_update_law(row_t, t):
        laws = {(0,): F(1)}
        for i in range(1, t + 2):
            x, y = params.spectral(i - 1), params.spectral(t + 1)
            new = {}
            for partial, pr in laws.items():
                if i <= t:
                    tbl = length_transition(
                        "bulk", (row_t[i - 1], row_t[i], partial[i - 1]), x, y, params
                    )
                else:
                    tbl = length_transition("boundary", (row_t[t], partial[t]), x, y, params)
                for out, p in tbl.as_dict().items():
                    new[partial + (out,)] = new.get(partial + (out,), F(0)) + pr * p
            laws = new
        return laws

    def particles_of_row(row, t):
        return tuple(sorted(
            (i for i in range(1, t + 1) if row[t - i + 1] - row[t - i] == 0),
            reverse=True,
        ))

    def rule_kernel(positions, t):
        """Exact law of the written rules, by enumerating all decisions."""
        out = Counter()
        occupied = set(positions)
        even = (t - len(positions)) % 2 == 0

        def corner_branches(pr):
            if even:
                return [(1, pr, True)]
            b, _ = b_c_coeffs(t + 1, t + 1, params)
            return [(None, pr * b, True), (1, pr * (1 - b), True)]

        def flight(c_col, pr):
            if c_col == t + 1:
                return corner_branches(pr)
            site = t - c_col + 1
            if site in occupied:
                return [(site + 1, pr, False)]
            b, _ = b_c_coeffs(c_col, t + 1, params)
            return [(site + 1, pr * (1 - b), False)] + flight(c_col + 1, pr * b)

        def resolve(idx, prev_new, corner_used, acc, prob):
            if idx == len(positions):
                if not corner_used and even:
                    _, c = b_c_coeffs(t + 1, t + 1, params)
                    if not acc or min(acc) > 1:
                        out[tuple(sorted(acc + [1], reverse=True))] += prob * c
                        out[tuple(sorted(acc, reverse=True))] += prob * (1 - c)
                        return
                out[tuple(sorted(acc, reverse=True))] += prob
                return
            y = positions[idx]
            col0 = t - y + 1
            branches = []
            if prev_new != y + 1:
                _, c = b_c_coeffs(col0, t + 1, params)
                branches.append((y + 1, c, False))
                branches.extend(flight(col0 + 1, 1 - c))
            else:
                branches.extend(flight(col0 + 1, F(1)))
            for landed, bp, cu in branches:
                if landed is None:
                    resolve(idx + 1, prev_new, corner_used or cu, acc, prob * bp)
                else:
                    resolve(idx + 1, landed, corner_used or cu, acc + [landed], prob * bp)

        resolve(0, None, False, [], F(1))
        return dict(out)

    for t in range(1, 5):
        rows = [(0,)]
        for _ in range(t):
            rows = [r + (r[-1] + d,) for r in rows for d in (0, 1)]
        for row in rows:
            positions = particles_of_row(row, t)
            height_side = Counter()
            for newrow, pr in row_update_law(row, t).items():
                height_side[particles_of_row(newrow, t + 1)] += pr
            assert rule_kernel(list(positions), t) == dict(height_side), (t, row)


@pytest.mark.parametrize("T", [0, 3])
def test_particles_refuse_a_point_outside_probabilistic_mode(T):
    # as ds6v_sample does, also at T = 0, and one step on its own
    bad = ModelParams.make("1/3", "1/2", "1/2", ["1/4", "1/5", "1/6", "1/7", "1/8"])
    with pytest.raises(InvalidParams, match="probabilistic mode needs"):
        ds6v_sample(T, RandomSource(1, 1), bad)
    with pytest.raises(InvalidParams, match="probabilistic mode needs"):
        particle_trajectory(T, RandomSource(1, 2), bad)
    with pytest.raises(InvalidParams, match="probabilistic mode needs"):
        particle_step(ParticleState(T, ()), RandomSource(1, 2), bad)


def test_particle_sampler_frequencies(params):
    # the production sampler follows the exact rule kernel on a fixed state
    state = ParticleState(3, (3, 1))
    rng = RandomSource(55, 3)
    n = 30_000
    counts = Counter()
    for _ in range(n):
        counts[particle_step(state, rng, params).positions] += 1
    # exact law via the height-side update of the corresponding row
    row = [0, 0, 1, 1]  # particles at sites 3 and 1 at t = 3
    assert tuple(sorted(
        (i for i in range(1, 4) if row[3 - i + 1] - row[3 - i] == 0), reverse=True
    )) == (3, 1)
    laws = {(0,): F(1)}
    for i in range(1, 5):
        x, y = params.spectral(i - 1), params.spectral(4)
        new = {}
        for partial, pr in laws.items():
            if i <= 3:
                tbl = length_transition("bulk", (row[i - 1], row[i], partial[i - 1]),
                                        x, y, params)
            else:
                tbl = length_transition("boundary", (row[3], partial[3]), x, y, params)
            for out, p in tbl.as_dict().items():
                new[partial + (out,)] = new.get(partial + (out,), F(0)) + pr * p
        laws = new
    exact = Counter()
    for newrow, pr in laws.items():
        pos = tuple(sorted(
            (i for i in range(1, 5) if newrow[4 - i + 1] - newrow[4 - i] == 0),
            reverse=True,
        ))
        exact[pos] += pr
    for pos, p in exact.items():
        pf = float(p)
        if pf < 1e-4:
            continue
        assert abs(counts.get(pos, 0) - n * pf) < 5 * max((n * pf * (1 - pf)) ** 0.5, 1.0), pos


def test_creation_rule_from_empty(params):
    # empty state at even t - N(t): new particle at site 1 w.p. the corner c
    rng = RandomSource(1, 8)
    t = 2  # t - N = 2, even
    _, c = b_c_coeffs(t + 1, t + 1, params)
    n = 20_000
    hits = sum(
        1 for _ in range(n)
        if particle_step(ParticleState(t, ()), rng, params).positions == (1,)
    )
    p = float(c)
    assert abs(hits - n * p) < 5 * (n * p * (1 - p)) ** 0.5


def _jump_row(j, words):
    """A jumps(j) row whose two draws both straddle the cell's first word: p = (2u + 1)/2^64."""
    return [(2**64 - 2 * words[i, j] - 1, 2 * words[i, j] + 1, 2**64) for i in range(1, j + 1)]


def test_word_path_falls_back_to_the_cell_substream(params, monkeypatch):
    # a draw its cell's first word cannot decide reads rng.substream(i, j)
    # from the start: one fresh substream per drawing cell, same heights
    import spinhl.ds6v as ds6v

    T, src = 6, RandomSource(12, 3)
    words = {(i, j): u for i, j, u in src.cell_words(T)}
    cells = {u: cell for cell, u in words.items()}
    assert len(cells) == len(words)
    want = ds6v_sample(T, src, params)
    drawing, reads = [], []

    def read_on(num, den, rng):
        hit = sample_bernoulli(num, den, rng)
        reads.append((rng.seed, rng.stream, rng._key, rng._k, rng._u))
        return hit

    monkeypatch.setattr(ds6v, "sample_bernoulli", read_on)
    monkeypatch.setattr(ds6v, "word_bernoulli", lambda num, den, u: drawing.append(cells[u]))
    assert ds6v_sample(T, src, params) == want
    assert drawing and [r[:3] for r in reads] == [(12, 3, cell) for cell in drawing]

    # words that straddle p leave word_bernoulli undecided itself; each draw
    # reads all 63 bits of the substream's first word and one bit of its
    # second (that word is current, with 62 bits unread), and the heights
    # are those of a source that hands out substream(i, j) children
    outcomes = []

    def recorded(num, den, u):
        outcomes.append(word_bernoulli(num, den, u))
        return outcomes[-1]

    monkeypatch.setattr(ds6v, "word_bernoulli", recorded)
    monkeypatch.setattr(compiled(params), "jumps", lambda j: _jump_row(j, words))
    reads.clear()
    h = ds6v_sample(T, src, params)
    assert outcomes and set(outcomes) == {None} and len(reads) == len(outcomes)
    assert all(k == 62 and u != words[cell] for _, _, cell, k, u in reads)
    assert h == ds6v_sample(T, _Children(src), params)
    assert len(set(h.values())) > 2


class _Children:
    """A bit source that is not a RandomSource: the samplers ask it for substream(i, j)."""

    def __init__(self, inner):
        self._inner = inner

    def bit(self):
        return self._inner.bit()

    def substream(self, *key):
        return self._inner.substream(*key)


# SHA-256 of heights_to_csv(ds6v_sample(T, RandomSource(7, 1), PINNED_POINT, per_cell)),
# recorded from the sampler before it read first words from the bands; T = 33
# and 45 reach past the first and the second band of cells
PINNED_POINT = ModelParams.make("1/3", "-1/2", "1/2", [f"1/{i + 4}" for i in range(46)])
PINNED = {
    (33, True): "e476f8170626a95b97902e73ba473891d40bb8d8a2f33fe170167a4b164e913f",
    (33, False): "8b0f24bd0410154aba0ded059f2944b7b7b6ac0191e946f53ab061eea8fc140b",
    (45, True): "e3e45aadebdeb76d565d541791a95c2b7768ade62abc5b224f7e4fb6a7f4fa99",
    (45, False): "d45dff8d3edac87e82e7efe83c282e2bc712aaf7f9ab84e3c094660e96881dee",
}


@pytest.mark.parametrize("T, per_cell", sorted(PINNED), ids=[f"T{t}-{'cell' if c else 'seq'}"
                                                           for t, c in sorted(PINNED)])
def test_heights_match_the_pinned_digests(T, per_cell):
    h = ds6v_sample(T, RandomSource(7, 1), PINNED_POINT, per_cell)
    assert hashlib.sha256(heights_to_csv(h).encode()).hexdigest() == PINNED[T, per_cell]
    assert list(h)[:T + 1] == [(0, j) for j in range(T + 1)]
    assert list(h)[T + 1:] == [(i, t - i) for t, lo, hi in anti_diagonals(T)
                               for i in range(lo, hi + 1)]
    if per_cell:  # a source that is not a RandomSource takes the per-cell children
        assert ds6v_sample(T, _Children(RandomSource(7, 1)), PINNED_POINT) == h


# SHA-256 of particles_to_csv(particle_trajectory(256, RandomSource(7, 2), CLI_POINT)),
# recorded from the step that drew every right hop on its own; the T = 8 golden
# file never has a chain of right hops long enough for exact._true_run
CLI_POINT = ModelParams.make("1/3", "-1/2", "1/2", default_spectral(257))
T256_DIGEST = "55c94d550d0f2ea82ef4c2d4b7ef464a3e7a3e76645abd7b338df46d77e20927"
# a point whose sites all fill, so the first chain of 16 comes at t = 16, and one whose
# rows x_j = 0 and columns x_{i-1} = 0 have c = 1, which reads no bit: every chain
# there holds one, so has bound 0
PACKED_POINT = ModelParams.make("9/10", "-1/2", "1", [F(1, i + 5) for i in range(257)])
ZERO_X_POINT = ModelParams.make("1/3", "-1/2", "1/2",
                                [F(0) if i % 5 == 4 else F(1, i + 4) for i in range(66)])


def test_particle_trajectory_matches_the_pinned_digest():
    states = particle_trajectory(256, RandomSource(7, 2), CLI_POINT)
    assert hashlib.sha256(particles_to_csv(states).encode()).hexdigest() == T256_DIGEST


@pytest.mark.parametrize("point, T, chains", [
    (CLI_POINT, 256, True), (PACKED_POINT, 256, True), (CLI_POINT, 31, True),
    (CLI_POINT, 32, True), (CLI_POINT, 33, True), (PACKED_POINT, 16, False),
    (PACKED_POINT, 17, True), (PACKED_POINT, 32, True), (ZERO_X_POINT, 65, False),
], ids=["cli-256", "packed-256", "cli-31", "cli-32", "cli-33", "packed-16", "packed-17",
        "packed-32", "zero-x-65"])
def test_chains_of_right_hops_read_the_bits_of_their_draws(point, T, chains, monkeypatch):
    # a RandomSource has its chains of right hops decided by exact._true_run (from 16
    # particles left and at a bound above 0); a bit-only source, and a RandomSource
    # under a patched bernoulli_draw, have every draw made on its own: the same
    # trajectory, the same draws, the same bits read
    import spinhl.ds6v as ds6v
    from spinhl import exact

    runs, draws = [], Counter()
    true_run = ds6v._true_run
    monkeypatch.setattr(ds6v, "_true_run", lambda ones, n, src: runs.append(n) or true_run(
        ones, n, src))
    bare = RandomSource(7, 2)
    words = particle_trajectory(T, bare, point)
    assert bool(runs) is chains
    runs.clear()

    def counted(rng):
        draw = exact.bernoulli_draw(rng)

        def tally(num, den, src):
            draws[draw] += 1
            return draw(num, den, src)
        return tally

    monkeypatch.setattr(ds6v, "bernoulli_draw", counted)
    inner, patched = RandomSource(7, 2), RandomSource(7, 2)
    assert particle_trajectory(T, _Children(inner), point) == words
    assert particle_trajectory(T, patched, point) == words
    assert runs == []
    assert draws[exact._bernoulli_words] == draws[exact._bernoulli_bits] > 0
    after = [bare.bit() for _ in range(200)]
    assert [inner.bit() for _ in range(200)] == after == [patched.bit() for _ in range(200)]


@pytest.mark.parametrize("state, text", [
    (ParticleState(3, (5, 1)), "within 1..3, got (5, 1)"),
    (ParticleState(3, (1, 2)), "within 1..3, got (1, 2)"),
    (ParticleState(3, (2, 2)), "within 1..3, got (2, 2)"),
    (ParticleState(3, (3, 0)), "within 1..3, got (3, 0)"),
    (ParticleState(0, (1,)), "within 1..0, got (1,)"),
    (ParticleState(-1, ()), "integer >= 0, got -1"),
    (ParticleState(True, ()), "integer >= 0, got True"),
    (ParticleState(2.0, ()), "integer >= 0, got 2.0"),
], ids=["past-t", "increasing", "repeat", "site-0", "t-0", "negative-t", "bool-t", "float-t"])
def test_particle_step_refuses_an_impossible_state(params, state, text):
    # a site past t would read jumps[t - site] at a negative index; the sites of
    # every possible state strictly decrease within 1..t
    with pytest.raises(InvalidParams, match=re.escape(text)):
        particle_step(state, RandomSource(1, 2), params)
    for ok in (ParticleState(0, ()), ParticleState(3, (3, 2, 1)), ParticleState(3, (1,))):
        assert particle_step(ok, RandomSource(1, 2), params).t == ok.t + 1


@pytest.mark.parametrize("T", [-1, True, False, 2.0, "3", None])
def test_samplers_refuse_a_bad_T(params, T):
    # as the CLI does, bools included, before anything is drawn or built
    from spinhl.field import sample_field

    for sampler in (ds6v_sample, sample_field, particle_trajectory):
        with pytest.raises(InvalidParams, match=re.escape(f"T must be an integer >= 0, got {T!r}")):
            sampler(T, RandomSource(1, 2), params)
    with pytest.raises(InvalidParams, match="T must be an integer"):
        ds6v_sample(T, RandomSource(1, 2), params, per_cell_streams=False)


ROUND_TRIP = settings(max_examples=30, deadline=None, derandomize=True, database=None)
POINT = ModelParams.make("1/3", "-1/2", "1/2", [f"1/{i + 4}" for i in range(9)])


@ROUND_TRIP
@given(seed=st.integers(0, 2**70), T=st.integers(0, 8), per_cell_streams=st.booleans())
def test_csv_round_trips_are_the_identity(seed, T, per_cell_streams):
    h = ds6v_sample(T, RandomSource(seed, 1), POINT, per_cell_streams)
    assert heights_from_csv(heights_to_csv(h)) == h
    for states in (particle_trajectory(T, RandomSource(seed, 2), POINT),
                   [particles_from_heights(h, t) for t in range(T + 1)]):
        assert particles_from_csv(particles_to_csv(states)) == states


@pytest.mark.parametrize("reader, error, text, line", [
    (heights_from_csv, InconsistentHeights, "", "line 1"),
    (heights_from_csv, InconsistentHeights, "i,j\n0,0\n", "line 1"),
    (heights_from_csv, InconsistentHeights, "i,j,h\n1,x,2\n", "line 2"),
    (heights_from_csv, InconsistentHeights, "i,j,h\r\n0,0,0\r\n0,1\r\n", "line 3"),
    (heights_from_csv, InconsistentHeights, "i,j,h\n0,0,0\n\n", "line 3"),
    (particles_from_csv, InvalidParams, "", "line 1"),
    (particles_from_csv, InvalidParams, "t,site,occupied\n1,1,yes\n", "line 2"),
    (particles_from_csv, InvalidParams, "t,site,occupied\n1,1,0,0\n", "line 2"),
    # rows that are not a lattice
    (heights_from_csv, InconsistentHeights, "i,j,h\n0,0,0\n0,0,5\n",
     r"line 3: cell \(0, 0\) repeats line 2"),
    (heights_from_csv, InconsistentHeights, "i,j,h\n0,0,0\n1,0,0\n",
     r"line 3: cell \(1, 0\) is outside 0 <= i <= j"),
    (heights_from_csv, InconsistentHeights, "i,j,h\n-1,0,0\n", r"line 2: cell \(-1, 0\)"),
    (heights_from_csv, InconsistentHeights, "i,j,h\n0,-1,0\n", r"line 2: cell \(0, -1\)"),
    (heights_from_csv, InconsistentHeights, "i,j,h\n0,0,0\n0,1,0\n",
     r"cell \(1, 1\) of 0 <= i <= j <= 1 is missing"),
    (heights_from_csv, InconsistentHeights, "i,j,h\n0,1,0\n1,1,0\n",
     r"cell \(0, 0\) of 0 <= i <= j <= 1 is missing"),
    (particles_from_csv, InvalidParams, "t,site,occupied\n1,1,0\n2,1,1\n2,1,0\n",
     r"line 4: \(t, site\) = \(2, 1\) repeats line 3"),
    (particles_from_csv, InvalidParams, "t,site,occupied\n1,2,0\n",
     r"line 2: \(t, site\) = \(1, 2\) is outside 1 <= site <= t"),
    (particles_from_csv, InvalidParams, "t,site,occupied\n1,1,0\n-1,1,1\n",
     r"line 3: \(t, site\) = \(-1, 1\)"),
    (particles_from_csv, InvalidParams, "t,site,occupied\n2,0,1\n", r"line 2: .* = \(2, 0\)"),
    (particles_from_csv, InvalidParams, "t,site,occupied\n1,1,5\n3,1,1\n3,2,0\n3,3,0\n",
     "line 2: occupied = 5 is not 0 or 1"),
    (particles_from_csv, InvalidParams, "t,site,occupied\n1,1,0\n2,1,-1\n2,2,0\n",
     "line 3: occupied = -1 is not 0 or 1"),
    (particles_from_csv, InvalidParams, "t,site,occupied\n1,1,1\n3,1,1\n3,2,0\n3,3,0\n",
     r"\(t, site\) = \(2, 1\) of 1 <= site <= t <= 3 is missing"),
    (particles_from_csv, InvalidParams, "t,site,occupied\n2,1,0\n2,2,1\n",
     r"\(t, site\) = \(1, 1\) of 1 <= site <= t <= 2 is missing"),
    (particles_from_csv, InvalidParams, "t,site,occupied\n1,1,1\n2,1,0\n",
     r"\(t, site\) = \(2, 2\) of 1 <= site <= t <= 2 is missing"),
], ids=["h-empty", "h-header", "h-field", "h-short", "h-blank", "p-empty", "p-field", "p-long",
        "h-duplicate", "h-i-above-j", "h-negative-i", "h-negative-j", "h-missing",
        "h-missing-corner", "p-duplicate", "p-site-above-t", "p-negative-t", "p-site-0",
        "p-occupied-5", "p-occupied-negative", "p-missing-time", "p-missing-first-time",
        "p-missing-site"])
def test_csv_readers_name_the_bad_line(reader, error, text, line):
    with pytest.raises(error, match=line):
        reader(text)


def test_exports_round_trip(params):
    h = ds6v_sample(5, RandomSource(2, 7), params)
    assert heights_from_csv(heights_to_csv(h)) == h
    states = particle_trajectory(6, RandomSource(4, 2), params)
    assert particles_from_csv(particles_to_csv(states)) == states
    csv_text = heights_to_csv(h)
    assert csv_text.splitlines()[0] == "i,j,h"
    import json

    currents = json.loads(currents_to_json(states))
    assert [c["t"] for c in currents] == list(range(7))
    for c, st in zip(currents, states):
        assert c["N"] == st.count()


def test_particle_exports_match_the_per_site_formulas():
    # the one-pass exports write what occupancy() and current() give site by site
    import json

    params = ModelParams.make("1/3", "-1/2", "1/2", default_spectral(65))
    states = particle_trajectory(64, RandomSource(5, 2), params)
    assert any(st.count() > 1 for st in states)
    rows = ["t,site,occupied"]
    currents = []
    for st in states:
        top = max([st.t] + list(st.positions))
        rows += [f"{st.t},{site},{st.occupancy(site)}" for site in range(1, top + 1)]
        currents.append({"t": st.t, "N": st.count(), "N_x": {
            str(x): st.current(x) for x in range(1, max([1] + list(st.positions)) + 1)}})
    assert particles_to_csv(states) == "\r\n".join(rows) + "\r\n"
    assert currents_to_json(states) == json.dumps(currents)
