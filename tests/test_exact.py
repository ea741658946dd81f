"""Core scalar arithmetic, admissibility, and the exact categorical sampler."""

import collections
import functools
import itertools
import random
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from spinhl.exact import (
    CellBits,
    InvalidParams,
    ModelParams,
    NonStochastic,
    RandomSource,
    _BAND,
    admissible,
    anti_diagonals,
    convergence_ratio,
    frac,
    _sample_from_cumulative,
    sample_bernoulli,
    sample_categorical,
    word_bernoulli,
)
from spinhl import exact
from spinhl.ds6v import ds6v_sample
from spinhl.field import sample_field


def rand_frac(rng, span=50):
    return F(rng.randint(-span, span), rng.randint(1, span))


def test_field_axioms_random_triples():
    rng = random.Random(20240817)
    for _ in range(1000):
        a, b, c = (rand_frac(rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        if c != 0:
            assert (a / c) * c == a


def test_fraction_always_reduced():
    x = frac(6, 8)
    assert (x.numerator, x.denominator) == (3, 4)
    y = frac("-10/4")
    assert (y.numerator, y.denominator) == (-5, 2)
    for value in (0.5, True, False):  # neither a float nor a bool is a rational
        with pytest.raises(InvalidParams):
            frac(value)


def test_admissible_examples():
    p = ModelParams.make(1, F(-1, 2))
    assert admissible(F(0), F(0), p)  # s^2 < 1
    assert admissible(F(1, 4), F(1, 5), p)  # 3/4 * 7/10 < 9/8 * 11/10
    p0 = ModelParams.make(1, 0)
    assert not admissible(F(1), F(1), p0)  # 1 < 1 fails


def test_admissible_symmetric():
    rng = random.Random(7)
    p = ModelParams.make("1/3", "-1/2")
    for _ in range(200):
        x, y = F(rng.randint(0, 9), 10), F(rng.randint(0, 9), 10)
        assert admissible(x, y, p) == admissible(y, x, p)


def test_convergence_ratio_examples():
    p0 = ModelParams.make(1, 0)
    assert convergence_ratio(F(0), F(0), p0) == 0
    p = ModelParams.make("1/3", "-1/2")
    assert convergence_ratio(F(1, 4), F(1, 5), p) == F(14, 33)
    assert convergence_ratio(p.s, p.s, p) == 0
    bad = ModelParams.make("1/3", 2)
    with pytest.raises(InvalidParams):
        convergence_ratio(F(1, 2), F(1, 2), bad)  # 1 - sx = 0


def test_parameter_modes():
    good = ModelParams.make("1/3", "-1/2", 1, ["1/4", "0"])
    assert good.is_probabilistic()
    bad = ModelParams.make("1/3", "1/2")
    assert not bad.is_probabilistic()
    with pytest.raises(InvalidParams):
        bad.require_probabilistic()
    with pytest.raises(InvalidParams):
        good.spectral(5)


def test_sample_categorical_degenerate():
    rng = RandomSource(1)
    for _ in range(50):
        assert sample_categorical((F(1),), rng) == 0


def test_sample_categorical_rejects_non_stochastic():
    rng = RandomSource(1)
    with pytest.raises(NonStochastic):
        sample_categorical((F(2, 3), F(1, 4)), rng)  # sums to 11/12
    with pytest.raises(NonStochastic):
        sample_categorical((F(3, 2), F(-1, 2)), rng)


def test_sample_categorical_binomial_concentration():
    # 1e5 fair draws: frequency of index 0 within 4 sigma of 1/2
    rng = RandomSource(2024, 5)
    n = 100_000
    hits = sum(1 for _ in range(n) if sample_categorical((F(1, 2), F(1, 2)), rng) == 0)
    sigma = (n * 0.25) ** 0.5
    assert abs(hits - n / 2) < 4 * sigma


def test_sample_categorical_exactness_small():
    # a skewed exact distribution: empirical mass near truth
    probs = (F(1, 7), F(2, 7), F(4, 7))
    rng = RandomSource(99, 1)
    n = 70_000
    counts = [0, 0, 0]
    for _ in range(n):
        counts[sample_categorical(probs, rng)] += 1
    for c, p in zip(counts, probs):
        assert abs(c - n * p) < 4 * (n * float(p) * (1 - float(p))) ** 0.5


def test_sample_bernoulli_is_the_two_cell_categorical_draw():
    # same bits in, same outcome out, and the same number of bits consumed;
    # unreduced (num, den) pairs give the same draws as the reduced ones
    rnd = random.Random(11)
    for case in range(300):
        den = rnd.randint(1, 10**6)
        num = rnd.choice([0, den, rnd.randint(0, den)])
        scale = rnd.randint(1, 50)
        a, b = RandomSource(case, 3), RandomSource(case, 3)
        for _ in range(5):
            first = sample_categorical((F(num, den), 1 - F(num, den)), a) == 0
            assert sample_bernoulli(num * scale, den * scale, b) is first
        assert [a.bit() for _ in range(70)] == [b.bit() for _ in range(70)]


class _Exhausted(Exception):
    pass


class _Replay:
    """A bit source that plays one fixed bit string, then raises _Exhausted."""

    def __init__(self, bits):
        self.bits = iter(bits)

    def bit(self):
        for b in self.bits:
            return b
        raise _Exhausted


def _outcome_counts(draw, k):
    """{outcome: number of k-bit strings on which draw(rng) resolves to it}."""
    counts = {}
    for bits in itertools.product((0, 1), repeat=k):
        try:
            out = draw(_Replay(bits))
        except _Exhausted:
            continue
        counts[out] = counts.get(out, 0) + 1
    return counts


def _exact_counts(cum, k):
    """max(0, floor(c_i 2^k) - ceil(c_{i-1} 2^k)) for the cumulative pairs (num, den) c_i."""
    out, lo = [], 0
    for num, den in cum:
        hi = (num << k) // den
        out.append(max(0, hi - lo))
        lo = -((-num << k) // den)
    return out


def _assert_exact_law(draw, outcomes, cum):
    for k in range(13):
        counts = _outcome_counts(draw, k)
        assert [counts.get(o, 0) for o in outcomes] == _exact_counts(cum, k), k


LAW = settings(max_examples=15, deadline=None, derandomize=True, database=None)


@LAW
@given(weights=st.lists(st.integers(0, 12), min_size=1, max_size=5).filter(any),
       scale=st.integers(1, 6))
def test_categorical_draw_resolves_exactly_the_dyadic_cells(weights, scale):
    # every k-bit string, k <= 12, that the draw resolves lands in the outcome
    # whose cell holds its whole dyadic interval, so the counts are exact
    total = sum(weights)
    partial = list(itertools.accumulate(weights))
    probs = [F(w, total) for w in weights]
    outcomes = list(range(len(weights)))
    _assert_exact_law(lambda rng: sample_categorical(probs, rng), outcomes,
                      [(c, total) for c in partial])
    unreduced = [(c * scale, total * scale) for c in partial]
    _assert_exact_law(lambda rng: _sample_from_cumulative(unreduced, rng), outcomes, unreduced)


@LAW
@given(den=st.integers(1, 10**6), frac_num=st.fractions(0, 1), scale=st.integers(1, 50))
def test_bernoulli_draw_resolves_exactly_the_dyadic_cells(den, frac_num, scale):
    num = int(frac_num * den)
    _assert_exact_law(lambda rng: sample_bernoulli(num * scale, den * scale, rng),
                      [True, False], [(num, den), (1, 1)])


def _first_bits(src):
    """The next 63 bits src.bit() returns, as an integer whose first bit is most significant."""
    return int("".join(str(src.bit()) for _ in range(63)), 2)


def read_order(word):
    """A 63-bit word's bits in the order bit() reads them (least significant first), MSB-first."""
    return int(format(word, "063b")[::-1], 2)


def test_each_loaded_word_is_the_numpy_word_in_the_order_bit_reads():
    for seed in (0, 5, 2**64 + 3):
        src, twin = RandomSource(seed, 2).substream(seed), RandomSource(seed, 2).substream(seed)
        words = [src._load() for _ in range(3)]  # the first word of a source and the ones after it
        assert words == [_first_bits(twin) for _ in range(3)]
        assert words == [read_order(w) for w in _numpy_words(seed, (2, seed), 3)]
    assert read_order(1) == 1 << 62 and read_order(1 << 62) == 1
    assert read_order((1 << 63) - 1) == (1 << 63) - 1


@LAW
@given(den=st.one_of(st.integers(1, 2**70), st.integers(0, 70).map(lambda k: 1 << k)),
       frac_num=st.one_of(st.fractions(0, 1), st.sampled_from([F(0), F(1)])),
       seed=st.integers(0, 2**64), cell=st.tuples(st.integers(0, 99), st.integers(0, 99)))
def test_word_bernoulli_is_sample_bernoulli_on_a_fresh_child(den, frac_num, seed, cell):
    # dyadic p = num / 2^k and the forced p in {0, 1} included
    num = int(frac_num * den)
    parent = RandomSource(seed, 1)
    u = parent.substream(*cell)._load()
    hit = word_bernoulli(num, den, u)
    assert hit is sample_bernoulli(num, den, parent.substream(*cell))
    if num in (0, den):
        assert hit is (num == den)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(den=st.one_of(st.integers(1, 2**70), st.integers(0, 70).map(lambda k: 1 << k)),
       frac_num=st.fractions(0, 1), shift=st.integers(-2, 2), u=st.integers(0, 2**63 - 1),
       near=st.booleans())
def test_word_bernoulli_decides_exactly_when_63_bits_do(den, frac_num, shift, u, near):
    # on any word, and on the words next to p * 2^63: a True or False is
    # sample_bernoulli's outcome on those 63 bits, and None means it needs more
    num = int(frac_num * den)
    if near:
        u = min(max((num << 63) // den + shift, 0), 2**63 - 1)
    bits = [int(b) for b in format(u, "063b")]
    hit = word_bernoulli(num, den, u)
    if hit is None:
        with pytest.raises(_Exhausted):
            sample_bernoulli(num, den, _Replay(bits))
    else:
        assert sample_bernoulli(num, den, _Replay(bits)) is hit


def test_word_bernoulli_straddles_only_p_inside_the_word():
    u = RandomSource(4, 4).substream(2, 3)._load()
    assert word_bernoulli(2 * u + 1, 2**64, u) is None  # p = (u + 1/2) / 2^63
    assert word_bernoulli(u, 2**63, u) is False  # p at the word's left end
    assert word_bernoulli(u + 1, 2**63, u) is True  # and at its right end
    # the fallback reads on into the second word: U < p exactly when bit 64 is 0
    child = RandomSource(4, 4).substream(2, 3)
    assert _first_bits(child) == u
    bit64 = child.bit()
    assert sample_bernoulli(2 * u + 1, 2**64, RandomSource(4, 4).substream(2, 3)) is (bit64 == 0)


_FILL = 0x0A5F_3C91_7E04_B6D8 & ((1 << 57) - 1)  # the bits of a test word after its prefix


def _twins(kind, u, offset):
    """Two sources at the same place, offset bits in: a CellBits over word u, or RandomSource(u, 5).

    The CellBits reads on, past u, in RandomSource(3, 5).substream(4, 6).
    """
    def make():
        src = CellBits(u, RandomSource(3, 5), 4, 6) if kind == "cell" else RandomSource(u, 5)
        for _ in range(offset):
            src.bit()
        return src
    return make(), make()


def _assert_kernel_is_the_loop(num, den, a, b):
    """The word kernel on a, the bit-by-bit draw on b: the same outcome, then the same bits."""
    hit = exact._bernoulli_words(num, den, a)
    assert hit is exact._bernoulli_bits(num, den, b), (num, den)
    assert [a.bit() for _ in range(130)] == [b.bit() for _ in range(130)], (num, den)


def _unread(kind, u, offset):
    """(v, k): the k >= 1 bits a twin reads before it takes another word, as an integer."""
    src = _twins(kind, u, offset)[0]
    k = src._k or 63
    return int("".join(str(src.bit()) for _ in range(k)), 2), k


def test_word_kernel_matches_the_bit_loop_on_every_prefix():
    # p = num/den for den <= 8, with p <= 0, p = 1, p > 1 and unreduced pairs;
    # the word starts with every 6-bit prefix, so every short draw is met
    for den in range(1, 9):
        for num in range(-1, den + 2):
            for scale in (1, 3):
                for prefix in range(64):
                    a, b = _twins("cell", prefix << 57 | _FILL, 0)
                    _assert_kernel_is_the_loop(num * scale, den * scale, a, b)


@pytest.mark.parametrize("kind", ["random-source", "cell"])
def test_word_kernel_matches_the_bit_loop_at_every_offset(kind):
    # draws that start at each place in a word; p next to the unread bits v
    # straddles them, (v + 1/2) / 2^k, so the draw reads into the next word
    # (at offset 0 that is p = (u + 1/2) / 2^63 on a fresh word u)
    rnd = random.Random(17)
    for offset in range(64):
        for _ in range(4):
            den = rnd.choice([rnd.randint(1, 50), rnd.randint(1, 2**80), 1 << rnd.randint(0, 70)])
            _assert_kernel_is_the_loop(rnd.randint(0, den), den,
                                       *_twins(kind, rnd.getrandbits(63), offset))
        u = rnd.getrandbits(63)
        v, k = _unread(kind, u, offset)
        for num, den in ((2 * v + 1, 2 << k), (v, 1 << k), (v + 1, 1 << k),
                         (3 * (2 * v + 1), 3 << (k + 1)), (2 * v + 1 << 70, 2 << (k + 70))):
            _assert_kernel_is_the_loop(num, den, *_twins(kind, u, offset))


def test_word_kernel_matches_the_bit_loop_on_dyadic_p():
    # p = num / 2^m, num odd, and unreduced copies of it: the loop stops where
    # the prefix equals p exactly; words at, next to and just off p 2^63
    rnd = random.Random(5)
    for m in range(1, 72):
        for _ in range(3):
            num = rnd.randrange(1 << m) | 1
            at = (num << 63) >> m
            words = {at, max(at - 1, 0), min(at + 1, 2**63 - 1), at ^ (1 << rnd.randrange(63)),
                     rnd.getrandbits(63)}
            for u in sorted(words):
                for scale in (1, 5, 8):
                    _assert_kernel_is_the_loop(num * scale, scale << m, *_twins("cell", u, 0))


@functools.cache
def _leading_ones(num, den):
    """CompiledModel.bounds by definition: the most L <= 64 with p >= 1 - 2^-L; 0 off 0 < p < 1."""
    p = F(num, den)
    if not 0 < p < 1:
        return 0
    ones = 0
    while ones < 64 and p >= 1 - F(1, 2 ** (ones + 1)):
        ones += 1
    return ones


def test_bounds_are_the_leading_ones_of_c(params):
    # CompiledModel.bounds, the ones a particle step hands _true_run, on the rows of
    # real points (one with x = 0, so c = 1, and one with q = 9/10), then on one row
    # of made-up laws: c = 0, c = den, c / den < 1/2, dyadic, the cap, unreduced
    from spinhl.transitions import compiled

    for point in (ModelParams.make("1/3", "-1/2", "1/2", [F(0)] + [F(1, i + 4) for i in range(33)]),
                  ModelParams.make("9/10", "-1/2", "1", [F(1, i + 5) for i in range(34)])):
        model = compiled(point)
        for j in (1, 2, 17, 33):
            row = model.bounds(j)
            assert type(row) is bytes and model.bounds(j) is row
            assert list(row) == [_leading_ones(c, den) for _, c, den in model.jumps(j)]
    model = compiled(params)
    laws = [(0, 0, 5), (0, 5, 5), (0, 2, 5), (0, 1, 2), (0, 3, 4), (0, 7, 8), (0, 15, 16),
            (0, 2**63 - 1, 2**63), (0, 2**64 - 1, 2**64), (0, 2**70 - 1, 2**70),
            (0, 3 * 2**40 - 1, 3 * 2**40)]
    model.jumps = lambda j: laws
    assert list(model.bounds(40)) == [0, 0, 0, 1, 2, 3, 4, 63, 64, 64, 41]
    assert list(model.bounds(40)) == [_leading_ones(c, den) for _, c, den in laws]


def _assert_true_run(laws, ones, a, b):
    """_true_run on a, the bit-by-bit draws on b: all its r draws True, then the same bits."""
    r = exact._true_run(ones, len(laws), a)
    assert 0 <= r <= len(laws)
    assert all(exact._bernoulli_bits(num, den, b) for num, den in laws[:r]), (ones, r)
    assert [a.bit() for _ in range(200)] == [b.bit() for _ in range(200)], (ones, r)
    return r


def _assert_chain(laws, a, b):
    """Draws until the first False, through _true_run as ds6v's particle step makes them
    (at the least bound of the draws left, each undecided draw on its own), and bit by bit:
    the same True count, then the same bits."""
    bounds = [_leading_ones(*law) for law in laws]
    i = 0
    while i < len(laws):
        ones = min(bounds[i:])
        if ones:
            i += exact._true_run(ones, len(laws) - i, a)
            if i == len(laws):
                break
        if not exact._bernoulli_words(*laws[i], a):
            break
        i += 1
    trues = next((k for k, law in enumerate(laws) if not exact._bernoulli_bits(*law, b)),
                 len(laws))
    assert i == trues, laws[:3]
    assert [a.bit() for _ in range(200)] == [b.bit() for _ in range(200)], laws[:3]


def _word(bits):
    """A 63-bit word that reads bits first and then _FILL's bits."""
    return int((bits + format(_FILL, "057b") * 2)[:63], 2)


def test_true_run_counts_the_zeros_above_the_first_run_of_ones():
    # each True reads up to its first zero; the run is decided only up to `ones` ones
    zeros = "0" * 63
    for offset in (0, 7):
        a, b = _twins("cell", int(zeros, 2), offset)
        assert _assert_true_run([(1, 2)] * 100, 1, a, b) == 63 - offset  # the word's zeros
    a, b = _twins("cell", 0, 0)
    assert _assert_true_run([(3, 4)] * 5, 2, a, b) == 5  # the chain ends mid-word
    for bits, ones, r in (("1", 1, 0), ("0110", 2, 1), ("0101101110", 3, 3),
                          ("101" + "1" * 10, 10, 1), ("1" * 5, 5, 0), ("01" * 31 + "1", 2, 31)):
        laws = [((1 << ones) - 1, 1 << ones)] * 70
        a, b = _twins("cell", _word(bits), 0)
        assert _assert_true_run(laws, ones, a, b) == r, bits
    # at the word's end: 0 and then 2 ones straddle into the next word, and a used-up word
    a, b = _twins("cell", _word("0" * 60 + "011"), 0)
    assert _assert_true_run([(7, 8)] * 70, 3, a, b) == 61
    a, b = _twins("cell", 0, 63)
    _assert_true_run([(7, 8)] * 70, 3, a, b)


def test_true_run_reads_the_bits_of_the_draws():
    # laws with p >= 1 - 2^-ones: dyadic p = 1 - 2^-L (which the bit loop ends False
    # after L ones), p just above that, L >= 63 and the capped bound 64; words with a
    # run of ones at the top, a run in the middle, trailing ones that straddle into the
    # next word, all zeros and all ones; a used-up word; n from 1 to past a word
    rnd = random.Random(25)
    families = []
    for ones in (1, 2, 3, 5, 10, 16, 63, 64):
        dyadic = ((1 << ones) - 1, 1 << ones)
        families += [[dyadic], [(3 * dyadic[0], 3 * dyadic[1])]]
        if ones < 64:
            den = rnd.randint(2, 2**80) << ones + 2
            families.append([(den - (den >> ones) + rnd.randrange(den >> ones + 1), den)])
    families += [[(2**70 - 1, 2**70)], [(15, 16), (31, 32), (2**64 - 1, 2**64), (1023, 1024)]]
    for laws in families:
        ones = min(_leading_ones(*law) for law in laws)
        assert ones >= 1
        words = [0, 2**63 - 1, rnd.getrandbits(63), rnd.getrandbits(63) | 2**63 - 2**50]
        for g in {0, min(ones, 5) - 1}:
            words.append(rnd.getrandbits(63) >> g + 1 << g + 1 | (1 << g) - 1)
        if ones < 40:
            words.append(rnd.getrandbits(63) & ~((2 << ones) - 1 << 20) | (1 << ones) - 1 << 21)
        for u in words:
            for offset in (0, 30, 63):
                for n in (1, 40, 100):
                    cycle = [laws[k % len(laws)] for k in range(n)]
                    _assert_true_run(cycle, ones, *_twins("cell", u, offset))
                    _assert_chain(cycle, *_twins("cell", u, offset))
    # and a RandomSource's own words, from every offset
    for offset in range(64):
        for laws in ([(7, 8)] * 70, [(1023, 1024)] * 70, [(2**63 - 1, 2**63)] * 70):
            _assert_chain(laws, *_twins("random-source", rnd.getrandbits(63), offset))


def test_chains_of_draws_at_bound_zero_go_one_at_a_time():
    # p = 1 reads no bit and p < 1/2 or p = 0 has no leading one: a chain that holds one
    # has bound 0, so every draw goes to the word kernel, up to the first False
    rnd = random.Random(26)
    for laws in ([(1, 1)] * 40, [(5, 5), (7, 8)] * 20, [(3, 8), (15, 16)] * 20,
                 [(0, 4), (255, 256)] * 20, [(255, 256)] * 30 + [(4, 4)]):
        for _ in range(20):
            _assert_chain(laws, *_twins("cell", rnd.getrandbits(63), rnd.randrange(64)))


def test_sample_bernoulli_reads_words_only_from_the_exact_types():
    class Sub(RandomSource):
        __slots__ = ()

    assert exact.bernoulli_draw(RandomSource(1)) is exact._bernoulli_words
    assert exact.bernoulli_draw(CellBits(5, RandomSource(1), 1, 1)) is exact._bernoulli_words
    assert exact.bernoulli_draw(Sub(1)) is exact._bernoulli_bits
    assert exact.bernoulli_draw(_Replay([])) is exact._bernoulli_bits


def test_probabilistic_mode_reads_the_integers_as_the_fractions_do():
    # the boundaries q in {0, 1}, s in {-1, 0} and x in {0, 1}, and a negative x
    def by_fractions(p):
        return F(0) < p.q < 1 and -1 < p.s < 0 and all(0 <= v < 1 for v in p.x)

    qs = ["-1/3", "0", "1/1000", "1/3", "999/1000", "1", "4/3"]
    ss = ["-3/2", "-1", "-999/1000", "-1/2", "-1/1000", "0", "1/2"]
    xs = [[], ["0"], ["1/4", "1/5"], ["1/4", "1"], ["-1/7", "1/4"], ["0", "999/1000"], ["5/4"]]
    for q, s, x in itertools.product(qs, ss, xs):
        p = ModelParams.make(q, s, "1/2", x)
        assert p.is_probabilistic() is by_fractions(p), (q, s, x)
        if by_fractions(p):
            p.require_probabilistic()
            continue
        with pytest.raises(InvalidParams) as err:
            p.require_probabilistic()
        assert str(err.value) == ("probabilistic mode needs q in (0,1), s in (-1,0), "
                                  f"x_i in [0,1); got q={p.q}, s={p.s}, x={p.x}")


def test_random_source_reproducible_and_streams_differ():
    a = [RandomSource(42, 3).bit() for _ in range(64)]
    b = [RandomSource(42, 3).bit() for _ in range(64)]
    assert a == b
    r1, r2 = RandomSource(42, 3), RandomSource(42, 4)
    assert [r1.bit() for _ in range(64)] != [r2.bit() for _ in range(64)]
    s1 = RandomSource(42, 3).substream(1, 2)
    s2 = RandomSource(42, 3).substream(1, 2)
    assert [s1.bit() for _ in range(64)] == [s2.bit() for _ in range(64)]


def test_expected_bit_consumption_logarithmic():
    # all probabilities >= 1/k: resolving needs O(log k) bits on average
    k = 16
    probs = tuple(F(1, k) for _ in range(k))
    rng = RandomSource(5, 0)
    n = 2000
    bits_before = [0]

    class Counting:
        def __init__(self, inner):
            self.inner = inner

        def bit(self):
            bits_before[0] += 1
            return self.inner.bit()

    crng = Counting(rng)
    for _ in range(n):
        sample_categorical(probs, crng)
    assert bits_before[0] / n < 4 * 4  # expected ~log2(16) + O(1)


def _numpy_words(seed, key, n):
    np = pytest.importorskip("numpy")
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))
    return [int(gen.integers(0, 2**63, dtype=np.uint64)) for _ in range(n)]


def _bits(words):
    return [(w >> b) & 1 for w in words for b in range(63)]


def test_random_source_matches_numpy_bit_for_bit():
    # numpy's SeedSequence + PCG64 is the reference the pure-int generator reproduces
    rnd = random.Random(20261018)
    for case in range(300):
        words = rnd.randint(1, 7)  # seeds of 1 to 7 32-bit words, and zero
        seed = rnd.getrandbits(32 * words) | 1 << (32 * words - 1) if case % 50 else 0
        stream = rnd.choice([0, 1, 2, rnd.getrandbits(40)])
        key = tuple(rnd.choice([rnd.randrange(300), rnd.getrandbits(rnd.randint(33, 100))])
                    for _ in range(rnd.randrange(5)))
        # a nested chain of substreams; some links draw bits before they spawn
        src = RandomSource(seed, stream)
        cut = sorted(rnd.sample(range(len(key) + 1), min(2, len(key) + 1)))
        for lo, hi in zip([0] + cut, cut + [len(key)]):
            if rnd.random() < 0.3:
                src.bit()
            src = src.substream(*key[lo:hi])
        n_words = 1 + case % 3
        got = [src.bit() for _ in range(63 * n_words)]
        assert got == _bits(_numpy_words(seed, (stream, *key), n_words)), (seed, stream, key)


@pytest.mark.parametrize("bad", [-1, 1.5, "3", None])
def test_random_source_rejects_bad_seed_and_key(bad):
    with pytest.raises(ValueError):
        RandomSource(bad)
    with pytest.raises(ValueError):
        RandomSource(1, bad)
    with pytest.raises(ValueError):
        RandomSource(1, 0).substream(2, bad)


def _numpy_bits(seed, key, n_words=1):
    return _bits(_numpy_words(seed, key, n_words))


def test_cell_substreams_match_numpy_and_the_one_word_chain():
    # substream(i, j) absorbs both key words at once and
    # substream(i).substream(j) one by one; cell_words is checked below
    pytest.importorskip("numpy")
    rnd = random.Random(20261019)
    edge = [0, 2**32 - 1, 2**32]  # the last one takes the general path
    for case in range(48):
        words = case % 8  # seeds of 0 to 7 32-bit words
        seed = rnd.getrandbits(32 * words) | 1 << (32 * words - 1) if words else 0
        stream = rnd.choice([0, 2, rnd.getrandbits(40)])
        pkey = tuple(rnd.choice([rnd.randrange(50), rnd.getrandbits(rnd.randint(33, 70))])
                     for _ in range(rnd.randrange(3)))
        parent = RandomSource(seed, stream).substream(*pkey)
        for _ in range(case % 3 * 40):  # some parents draw bits before they spawn
            parent.bit()
        cells = [(rnd.choice(edge + [rnd.randrange(40)]), rnd.choice(edge + [rnd.randrange(40)]))
                 for _ in range(5)]
        cells += [cells[1], (cells[0][1], cells[0][0])]  # a repeat, and the transpose
        for i, j in cells:
            key = (stream, *pkey, i, j)
            cell = parent.substream(i, j)
            want = _numpy_bits(seed, key, 2)
            assert [cell.bit() for _ in range(126)] == want, (seed, key)
            chain = RandomSource(seed, stream).substream(*pkey).substream(i).substream(j)
            assert [chain.bit() for _ in range(126)] == want, (seed, key)
        i, j = cells[-1]
        cell = parent.substream(i, j)
        grandchild = cell.substream(5)
        assert [grandchild.bit() for _ in range(63)] == _numpy_bits(seed, (stream, *pkey, i, j, 5))
        nested = cell.substream(j, i)
        assert [nested.bit() for _ in range(63)] == _numpy_bits(seed, (stream, *pkey, i, j, j, i))


def test_cell_substream_keys_go_through_operator_index():
    np = pytest.importorskip("numpy")
    top = 2**32 - 1
    for key, plain in [
        ((True, np.int64(7)), (1, 7)),
        ((np.uint32(top), np.uint32(top)), (top, top)),
        ((np.uint8(200), False), (200, 0)),
        ((np.uint64(2**32), np.int16(3)), (2**32, 3)),
    ]:
        src = RandomSource(11, 4)
        cell = src.substream(*key)
        assert [cell.bit() for _ in range(63)] == _numpy_bits(11, (4, *plain)), key
    with pytest.raises(ValueError):
        RandomSource(11, 4).substream(np.int64(-1), 3)


def _state(src):
    return [getattr(src, name, None)
            for cls in RandomSource.__mro__ for name in getattr(cls, "__slots__", ())]


@pytest.mark.parametrize("T", [0, 1, 5, 16])
def test_sweep_leaves_its_parent_unchanged(params, T):
    # the cell substreams are seeded from the parent's pool; nothing is kept on it
    src, twin = RandomSource(8, 0), RandomSource(8, 0)
    src.bit(), twin.bit()
    sample_field(T, src, params)
    ds6v_sample(T, src, params)
    assert _state(src) == _state(twin)
    assert [src.bit() for _ in range(100)] == [twin.bit() for _ in range(100)]


def _lattice_past(cells):
    return next(T for T in itertools.count() if T * (T + 1) // 2 > cells)


# no cell, one, three, and the smallest lattices past one and two bands
BAND_TS = [0, 1, 2, _lattice_past(_BAND), _lattice_past(2 * _BAND)]
BAND_PARENTS = [
    (7, 0, (), 0),
    (2**64 + 12345, 3, (), 0),  # a three-word seed
    (0xDEADBEEF_00000001_CAFEF00D_12345678_9ABCDEF0, 2**40 + 1, (9,), 5),  # five words
    (5, 1, (2**33, 4), 70),  # a keyed parent that drew a word and more before spawning
]


@pytest.mark.parametrize("seed, stream, pkey, drawn", BAND_PARENTS,
                         ids=["plain", "three-word-seed", "five-word-seed", "drew-first"])
@pytest.mark.parametrize("T", BAND_TS)
def test_cell_bits_match_numpy_and_substream(seed, stream, pkey, drawn, T):
    # the reader over a cell's word gives the substream's bits, across the
    # word boundary into the substream itself
    pytest.importorskip("numpy")
    parent = RandomSource(seed, stream).substream(*pkey)
    for _ in range(drawn):
        parent.bit()
    before = _state(parent)
    got = list(parent.cell_words(T))
    assert [(i, j) for i, j, _ in got] == [
        (i, t - i) for t, lo, hi in anti_diagonals(T) for i in range(lo, hi + 1)]
    for i, j, u in got:
        reader, scalar = CellBits(u, parent, i, j), parent.substream(i, j)
        bits = [reader.bit() for _ in range(130)]
        assert bits == [scalar.bit() for _ in range(130)], (i, j)
        assert bits[:126] == _numpy_bits(seed, (stream, *pkey, i, j), 2), (i, j)
    assert _state(parent) == before


@pytest.mark.parametrize("seed, stream, pkey, drawn", BAND_PARENTS,
                         ids=["plain", "three-word-seed", "five-word-seed", "drew-first"])
@pytest.mark.parametrize("T", sorted(set(BAND_TS) | {33}))
def test_cell_words_are_the_first_words_of_the_cell_substreams(seed, stream, pkey, drawn, T):
    parent = RandomSource(seed, stream).substream(*pkey)
    for _ in range(drawn):
        parent.bit()
    got = list(parent.cell_words(T))
    assert [(i, j) for i, j, _ in got] == [
        (i, t - i) for t, lo, hi in anti_diagonals(T) for i in range(lo, hi + 1)]
    for i, j, u in got:
        assert u == parent.substream(i, j)._load(), (i, j)
    for i, j, u in got[:: max(1, len(got) // 9)]:
        assert u == _first_bits(parent.substream(i, j)), (i, j)


def test_cell_words_in_small_bands(monkeypatch):
    # at 8 and 16 cells a band, T = 0..20 cuts bands inside diagonals, ends
    # bands on a diagonal's last cell and leaves one-cell last bands
    parent = RandomSource(5, 1).substream(2**33, 4)
    parent.bit()
    seen = set()
    for band in (8, 16):
        monkeypatch.setattr(exact, "_BAND", band)
        for T in range(21):
            bands = list(exact._bands(T))
            assert sum(n for _, n in bands) == T * (T + 1) // 2
            assert all(n == band for _, n in bands[:-1])
            for runs, _ in bands[:-1]:
                t, _, hi = runs[-1]
                seen.add("ends a diagonal" if hi == t // 2 else "cuts a diagonal")
            if len(bands) > 1 and bands[-1][1] == 1:
                seen.add("one-cell last band")
            got = list(parent.cell_words(T))
            assert [(i, j) for i, j, _ in got] == [
                (i, t - i) for t, lo, hi in anti_diagonals(T) for i in range(lo, hi + 1)]
            for i, j, u in got:
                assert u == parent.substream(i, j)._load(), (band, T, i, j)
    assert seen == {"ends a diagonal", "cuts a diagonal", "one-cell last band"}


def test_lane_constants_are_built_once_per_power_of_two_width():
    # the table is keyed by lane count, a power of two from 8 to _BAND,
    # whatever T is
    src = RandomSource(3, 1)
    widths = {1 << k for k in range(3, _BAND.bit_length())}
    for T in range(301):
        collections.deque(src.cell_words(T), maxlen=0)
        assert set(exact._LANE_CONSTS) <= widths, T


def test_cell_words_without_lane_packing_are_the_same(monkeypatch):
    src = RandomSource(9, 2).substream(4)
    src.bit()
    banded = list(src.cell_words(12))
    monkeypatch.setattr(exact, "_LANES", False)
    assert list(src.cell_words(12)) == banded


def test_cell_words_seed_one_band_at_a_time():
    # the first word of a 45150-cell lattice comes before the rest are seeded
    tracemalloc.start()
    try:
        next(iter(RandomSource(3, 1).cell_words(300)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak
