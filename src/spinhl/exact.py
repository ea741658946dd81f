"""Exact rational arithmetic, model parameters and reproducible randomness.

Every weight and probability in this package is a ``fractions.Fraction``.
The stdlib type already maintains the invariants we need (reduced form,
positive denominator, exact field arithmetic), so we use it directly and
only add parsing helpers on top.

Randomness is explicit: a :class:`RandomSource` is a bit stream keyed by
``(seed, stream)`` and, for substreams, a key tuple.  Its bits are, bit
for bit, those of numpy's ``SeedSequence(seed, spawn_key=(stream, *key))``
driving ``PCG64``, computed here on Python ints without importing numpy.
Identical keys replay identical bit sequences; distinct keys give
independent streams (the ``SeedSequence`` spawn-key guarantee).
Categorical sampling is
done by lazy binary refinement of a uniform dyadic interval against exact
rational cumulative weights, so sampled laws are exactly the requested
ones, with no float rounding anywhere.  Its two-outcome case,
``sample_bernoulli``, reads a RandomSource or CellBits a word at a time,
with the same bits; the field's column tables have one or two outcomes,
so every column draw is forced or takes that path.
"""

from __future__ import annotations

import operator
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

ZERO = Fraction(0)
ONE = Fraction(1)


class InvalidParams(ValueError):
    """Parameter combination makes a required denominator vanish or a mode check fail."""


class NonStochastic(ValueError):
    """A would-be probability vector does not sum exactly to one."""


class NotAdmissible(ValueError):
    """Spectral parameter pair violates the admissibility inequality."""


class ZeroSector(ValueError):
    """All candidate weights in a sampling step vanish."""


class ScanCapExceeded(RuntimeError):
    """A column scan ran past its safety cap (inadmissible parameters?)."""


class InconsistentHeights(ValueError):
    """Height data violates monotonicity or path conservation."""


class DegenerateVandermonde(ValueError):
    """Repeated spectral values where distinctness is required."""


class DimensionMismatch(ValueError):
    """Matrix shape unsuitable for the requested exact kernel."""


class InvalidPath(ValueError):
    """Not a caudate zigzag path, or data inconsistent with one."""


class ConfigError(ValueError):
    """Bad run configuration."""


def frac(value, den=None):
    """Coerce to an exact Fraction.  Accepts ints, Fractions and strings like '-1/2'.

    Floats and bools are refused (InvalidParams): neither is a rational
    the caller wrote down.
    """
    if den is not None:
        return Fraction(value, den)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, (float, bool)):
        raise InvalidParams(f"refusing {type(value).__name__} {value!r}; pass a string or Fraction")
    return Fraction(value)


def check_T(T):
    """InvalidParams unless T, a sampler's last level or time, is an int >= 0 (not a bool)."""
    if type(T) is not int or T < 0:
        raise InvalidParams(f"T must be an integer >= 0, got {T!r}")


@dataclass(frozen=True)
class ModelParams:
    """Global parameters: quantization q, spin s, refinement u, spectral sequence x.

    Two usage modes.  In *identity mode* any rationals are allowed as long
    as the weight denominators stay nonzero (checked where they are
    computed).  In *probabilistic mode* the samplers additionally require
    q in (0,1), s in (-1,0) and every x_i in [0,1), which makes all
    one-row weights non-negative.
    """

    q: Fraction
    s: Fraction
    u: Fraction = ONE
    x: tuple = ()

    @staticmethod
    def make(q, s, u=1, x=()):
        return ModelParams(frac(q), frac(s), frac(u), tuple(frac(v) for v in x))

    def spectral(self, i):
        self.check_spectral(i)
        return self.x[i]

    def check_spectral(self, i):
        """InvalidParams unless x_i is supplied: 0 <= i < len(x)."""
        if not 0 <= i < len(self.x):
            raise InvalidParams(f"spectral parameter x_{i} not supplied (have {len(self.x)})")

    def is_probabilistic(self):
        """q in (0,1), s in (-1,0) and every x_i in [0,1), read off numerators and denominators."""
        q, s = self.q, self.s
        if not (0 < q.numerator < q.denominator and -s.denominator < s.numerator < 0):
            return False
        for v in self.x:
            if not 0 <= v.numerator < v.denominator:
                return False
        return True

    def require_probabilistic(self):
        if not self.is_probabilistic():
            raise InvalidParams(
                "probabilistic mode needs q in (0,1), s in (-1,0), x_i in [0,1); "
                f"got q={self.q}, s={self.s}, x={self.x}"
            )


def default_spectral(n):
    """Deterministic default spectral sequence x_0..x_{n-1}: small rationals in (0, 1/2)."""
    return tuple(Fraction(1, i + 4) for i in range(n))


def admissible(x, y, params):
    """True iff (x-s)(y-s) < (1-sx)(1-sy); the pairwise condition every Cauchy-type sum needs.

    The difference of the two sides is (1 - s^2)(1 - xy), so this reads
    the sign of that product off the numerators and denominators.
    """
    s = params.s
    return pair_admissible(s.numerator, s.denominator,
                           x.numerator * y.numerator, x.denominator * y.denominator)


def pair_admissible(sn, sd, P, Q):
    """admissible on integers: s = sn/sd and x y = P/Q with Q > 0."""
    return (sd * sd - sn * sn) * (Q - P) > 0


def convergence_ratio(x, y, params):
    """Geometric ratio (x-s)(y-s)/((1-sx)(1-sy)) governing one-variable Cauchy tails.

    Raises InvalidParams on a vanishing denominator.  Where (1-sx)(1-sy) > 0,
    admissibility of (x, y) is exactly the statement that this ratio is < 1;
    where it is negative, an admissible pair can have a ratio above 1 (s =
    1/2, x = 3, y = 1/4 gives 10/7).
    """
    s = params.s
    den = (ONE - s * x) * (ONE - s * y)
    if den == 0:
        raise InvalidParams("(1-sx)(1-sy) vanished in convergence ratio")
    return (x - s) * (y - s) / den


# numpy.random.SeedSequence constants (pool of four 32-bit words) and the
# PCG64 multiplier; RandomSource reproduces both algorithms bit for bit.
_M32 = 0xFFFFFFFF
_M63 = (1 << 63) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _index(n):
    """n as a plain non-negative int (bools and numpy ints through operator.index)."""
    if type(n) is not int:
        try:
            n = operator.index(n)
        except TypeError:
            raise ValueError(f"seed and key entries must be ints, got {n!r}") from None
    if n < 0:
        raise ValueError(f"seed and key entries must be non-negative, got {n}")
    return n


def _words(n):
    """The little-endian 32-bit words SeedSequence makes of a non-negative int."""
    n = _index(n)
    if n <= _M32:
        return (n,)
    out = []
    while n:
        out.append(n & _M32)
        n >>= 32
    return out


def _hashmix(v, h):
    """One SeedSequence hash step of word v under hash constant h; returns (value, next h)."""
    h2 = (h * _MULT_A) & _M32
    v = ((v ^ h) * h2) & _M32
    return v ^ (v >> 16), h2


def _mix(x, y):
    r = (_MIX_L * x - _MIX_R * y) & _M32
    return r ^ (r >> 16)


def _absorb(pool, h, words):
    """Mix words past the pool size into a SeedSequence pool, as numpy's mix_entropy does.

    Each word meets the four pool entries in turn, each through one hash
    step.  RandomSource.substream runs this once per key entry;
    RandomSource.cell_words does the same steps for the words of all its
    rows, and of all its columns, together, in lanes.
    """
    pool = list(pool)
    for w in words:
        for k in range(4):
            v, h = _hashmix(w, h)
            pool[k] = _mix(pool[k], v)
    return tuple(pool), h


def _seed_pool(words):
    """SeedSequence's pool after its first pool-size words (zero-padded) and their cross-mix."""
    words = list(words) + [0] * (4 - len(words))
    h = _INIT_A
    pool = []
    for w in words[:4]:
        v, h = _hashmix(w, h)
        pool.append(v)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                v, h = _hashmix(pool[src], h)
                pool[dst] = _mix(pool[dst], v)
    return _absorb(pool, h, words[4:])


def _schedule(h, mult, n):
    """The (xor, multiply) pairs of n SeedSequence hash steps from hash constant h.

    A step hashes its word v to ((v ^ xor) * multiply) & _M32 and then
    xor-shifts it (as _hashmix does); the constants do not depend on v.
    """
    out = []
    for _ in range(n):
        m = (h * mult) & _M32
        out.append((h, m))
        h = m
    return out


# (pool index, xor, multiply) of the eight hash steps of generate_state(4, uint64)
_GENERATE = tuple((idx & 3, x, m) for idx, (x, m) in enumerate(_schedule(_INIT_B, _MULT_B, 8)))


def _pcg64(pool):
    """PCG64 (state, increment) seeded from generate_state(4, uint64) of the pool."""
    w = []
    for idx, x, m in _GENERATE:
        v = ((pool[idx] ^ x) * m) & _M32
        w.append(v ^ (v >> 16))
    init = (w[1] << 96) | (w[0] << 64) | (w[3] << 32) | w[2]
    inc = (((w[5] << 96) | (w[4] << 64) | (w[7] << 32) | w[6]) << 1 | 1) & _M128
    return ((inc + init) * _PCG_MULT + inc) & _M128, inc


# The state after seeding and one step is init * A + inc * B (mod 2^128).
_FIRST_A = _PCG_MULT * _PCG_MULT & _M128
_FIRST_B = (_PCG_MULT * _PCG_MULT + _PCG_MULT + 1) & _M128
_FIRST_2B = 2 * _FIRST_B & _M128  # inc = raw << 1 | 1, so inc * B = raw * 2B + B
_BAND = 512  # cells seeded together by RandomSource.cell_words; a power of two
_LANES = sys.byteorder == "little"  # the lane packing reads machine words as little-endian
_REV8 = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))  # each byte's bits reversed


def anti_diagonals(T):
    """(total, first i, last i) for each anti-diagonal i + j = total of 1 <= i <= j <= T.

    The diagonals come in increasing total, 2 to 2T, and each runs over i
    from max(1, total - T) to total // 2; this is the growth order.
    """
    return ((total, max(1, total - T), total // 2) for total in range(2, 2 * T + 1))


def half_quadrant(entries, error):
    """{(i, j): value} from a reader's (place, (i, j), value) entries, if they form a lattice.

    The cells must be 0 <= i <= j <= T for the largest j given, T, each
    exactly once.  Raises `error` naming the place (a line or cell of the
    text) of the first cell outside 0 <= i <= j or seen before, or else the
    first missing cell, by j and then i.
    """
    out, where = {}, {}
    for place, (i, j), value in entries:
        if not 0 <= i <= j:
            raise error(f"bad lattice data on {place}: cell {(i, j)} is outside 0 <= i <= j")
        if (i, j) in out:
            raise error(f"bad lattice data on {place}: cell {(i, j)} repeats {where[i, j]}")
        out[i, j] = value
        where[i, j] = place
    T = max((j for _, j in out), default=-1)
    for j in range(T + 1):
        for i in range(j + 1):
            if (i, j) not in out:
                raise error(f"bad lattice data: cell {(i, j)} of 0 <= i <= j <= {T} is missing")
    return out


def check_lattice(cells, error):
    """half_quadrant's rule on a {(i, j): value} dict, naming a bad cell by its place "cell (i, j)".

    A count of the cells, each in 0 <= i <= j, comes first; half_quadrant
    runs, and raises `error`, only when the count fails.
    """
    T = max((j for _, j in cells), default=-1)
    if len(cells) != (T + 1) * (T + 2) // 2 or not all(0 <= i <= j for i, j in cells):
        half_quadrant(((f"cell {c}", c, v) for c, v in cells.items()), error)


def _bands(T):
    """(band, n) for RandomSource.cell_words: the growth order cut every _BAND cells.

    band lists the (total, first i, last i) runs of anti_diagonals(T) in
    it, so a cut may fall inside a diagonal; n counts its cells, _BAND for
    every band but the last.
    """
    band, n = [], 0
    for t, lo, hi in anti_diagonals(T):
        while lo <= hi:
            end = min(hi, lo + _BAND - n - 1)
            band.append((t, lo, end))
            n += end - lo + 1
            lo = end + 1
            if n == _BAND:
                yield band, n
                band, n = [], 0
    if band:
        yield band, n


_LANE_CONSTS = {}  # lane count -> _lane_consts(lanes): one entry per power of two up to _BAND


def _lane_consts(lanes):
    """The constants _band_words packs into each of its lanes, built once per lane count.

    ones holds 1 in each 64-bit lane, so ones * c is c in every lane; gen
    is _GENERATE with its xor patterns in lanes; first_b is _FIRST_B in each
    256-bit lane, and rotl the (shift, top, bottom) masks of the six output
    rotation steps.
    """
    c = _LANE_CONSTS.get(lanes)
    if c is None:
        ones = int.from_bytes(b"\1\0\0\0\0\0\0\0" * lanes, "little")
        wide = int.from_bytes((b"\1" + bytes(31)) * lanes, "little")  # 1 in each 256-bit lane
        rotl = []
        for b in range(6):
            s = 1 << b
            wrap = (1 << s) - 1  # the low bits of a lane, where its top s bits go
            rotl.append((s, ones * (_M64 ^ wrap), ones * wrap))
        gen = tuple((idx, ones * x, m) for idx, x, m in _GENERATE)
        c = _LANE_CONSTS[lanes] = (ones, ones * _M32, ones << 32, gen,
                                   wide * _M128, wide * _FIRST_B, rotl, ones * _M63)
    return c


def _band_words(band, n, T, rows, cols):
    """(i, j, u) of RandomSource.cell_words for the n cells of band, in order.

    The cells are seeded side by side, one lane per cell, in as many lanes
    as the power of two at or above n (at least 8), so that the lane
    constants (_lane_consts) serve every band of that width: their four
    pool words and the 32-bit words of generate_state in 64-bit lanes,
    their PCG64 state after one step in 256-bit lanes.  The increment's
    ``<< 1 | 1`` is folded into the step's constants (inc B = raw 2B + B),
    and the state's two 64-bit words are read out of their lanes once, so
    the output's xor-fold, bit reversal and rotation run on 64-bit lanes.
    Bit-reversing a rotated word is rotating the reversed word the other
    way, so the band reverses the two state words in one byte translation
    each and then rotates every lane left by its own amount, one big-int
    step per bit of the amounts.  The result is a zip of the i and j
    ranges with the list of words, so no Python frame runs per cell.
    """
    lanes = max(8, 1 << (n - 1).bit_length())
    ones, m32, lift, gen, m128, first_b, rotl, m63 = _lane_consts(lanes)
    pool = []
    for row, col in zip(rows, cols):
        r = int.from_bytes(b"".join(row[8 * lo - 8:8 * hi] for _, lo, hi in band), "little")
        c = int.from_bytes(b"".join(col[8 * (T - t + lo):8 * (T - t + hi + 1)]
                                    for t, lo, hi in band), "little")
        r = (r + lift - c) & m32  # lifting each lane by 2^32 stops borrows
        pool.append((r ^ (r >> 16)) & m32)
    w = []
    for idx, x, m in gen:
        v = ((pool[idx] ^ x) * m) & m32
        w.append((v ^ (v >> 16)) & m32)
    # init and the raw increment as 128-bit numbers in 256-bit lanes, low word first
    init, raw = bytearray(32 * lanes), bytearray(32 * lanes)
    for dst, lo, hi in ((init, w[3] << 32 | w[2], w[1] << 32 | w[0]),
                        (raw, w[7] << 32 | w[6], w[5] << 32 | w[4])):
        view = memoryview(dst).cast("Q")
        view[0::4] = memoryview(lo.to_bytes(8 * lanes, "little")).cast("Q")
        view[1::4] = memoryview(hi.to_bytes(8 * lanes, "little")).cast("Q")
    # only the low 128 bits of a lane are read, so the sum is left unreduced
    state = (((int.from_bytes(init, "little") * _FIRST_A) & m128)
             + ((int.from_bytes(raw, "little") * _FIRST_2B) & m128) + first_b)
    # the state's bytes in reverse are each lane's words in reverse, byte-reversed,
    # with the lanes last to first: stepping back four words from the end reads
    # the low words in cell order, from one word before the end the high words
    words = memoryview(state.to_bytes(32 * lanes, "big")).cast("Q")
    high = int.from_bytes(words[-2::-4].tobytes().translate(_REV8), "little")
    u = int.from_bytes(words[::-4].tobytes().translate(_REV8), "little") ^ high
    # the rotation's top six bits, reversed, are the low six bits of the reversed high word
    for k, (s, top, bottom) in enumerate(rotl):  # rotate the lanes whose rot has bit k by 2^k
        left = ((u << s) & top) | ((u >> (64 - s)) & bottom)
        u ^= (u ^ left) & ((high >> (5 - k)) & ones) * _M64
    u = memoryview((u & m63).to_bytes(8 * lanes, "little")).cast("Q")[:n].tolist()
    i = chain.from_iterable(range(lo, hi + 1) for _, lo, hi in band)
    j = chain.from_iterable(range(t - lo, t - hi - 1, -1) for t, lo, hi in band)
    return zip(i, j, u)


class _WordBits:
    """The word layout that RandomSource and CellBits share, and their one bit().

    _u is the current 63-bit word with its first bit most significant, so
    the uniform variate of a fresh word lies in [u, u + 1) / 2^63; _k
    counts its unread bits, so the next bit is bit _k - 1 of _u.  Each
    subclass's _load() makes its next word current and returns it.
    bit() and sample_bernoulli's word kernel (_bernoulli_words) read every
    such source alike.
    """

    __slots__ = ("_u", "_k")

    def bit(self):
        k = self._k
        if k:
            k -= 1
            self._k = k
            return (self._u >> k) & 1
        u = self._load()
        self._k = 62
        return u >> 62


class RandomSource(_WordBits):
    """Reproducible bit source keyed by (seed, stream).

    substream(*key) derives an independent deterministic child source;
    simulation modules use substream(i, j) per lattice cell so results do
    not depend on evaluation order.  cell_words(T) gives the first words
    of all those cells of a lattice at once, seeded in bands, with no
    child object; CellBits reads a cell's bits from its word.

    The bits are exactly numpy's: a source keyed (seed, stream, *key)
    yields the words of ``Generator(PCG64(SeedSequence(seed,
    spawn_key=(stream, *key)))).integers(0, 2**63, dtype=uint64)``, each
    read least significant bit first.  This module reimplements
    SeedSequence and PCG64 on Python ints, so it needs no numpy; the test
    suite compares the two.  Seeds and key entries must be non-negative
    ints (ValueError otherwise).

    A source holds its current word as every _WordBits does, in read
    order with a count of unread bits; _load() makes the next word
    current.

    SeedSequence hashes the spawn-key words one after another with
    constants that do not depend on the data, so a source keeps its
    hashed pool and a substream mixes in only its own key words, when it
    is made.  The PCG64 state of a substream is seeded lazily, at the
    first bit, so a source that never draws never seeds it.
    """

    __slots__ = ("seed", "stream", "_key", "_mixed", "_state", "_inc")

    def __init__(self, seed, stream=0):
        self.seed = seed
        self.stream = stream
        self._key = ()
        pool, h = _seed_pool(_words(seed))
        self._mixed = _absorb(pool, h, _words(stream))  # (pool, hash constant)
        self._state = None
        self._k = 0

    def __repr__(self):
        key = f", key={self._key}" if self._key else ""
        return f"RandomSource(seed={self.seed}, stream={self.stream}{key})"

    def substream(self, *key):
        mixed = self._mixed
        for k in key:
            mixed = _absorb(*mixed, _words(k))  # ValueError for negative and non-int entries
        child = RandomSource.__new__(RandomSource)
        child.seed = self.seed
        child.stream = self.stream
        child._key = self._key + key
        child._mixed = mixed
        child._state = None
        child._k = 0
        return child

    def cell_words(self, T):
        """(i, j, u) for 1 <= i <= j <= T, by anti_diagonals(T) and then i.

        u is the first word of substream(i, j) in read order (its first
        bit most significant, as a source holds its current word), so
        that substream's uniform variate lies in [u, u + 1) / 2^63.
        word_bernoulli draws from u, and CellBits(u, self, i, j) reads on
        to every bit of the substream.  No child object is made, and this
        source is unchanged.

        The cells are seeded in bands.  Absorbing i takes this source's
        pool to a row that every j shares; the hashed words of j at the
        next depth form a column that every i shares.  Their hash steps
        come from this source's hash schedule (_schedule): steps 1 to 4
        for i and 5 to 8 for j, none of which depends on the index, so the
        four rows are hashed for all i at once, in T 64-bit lanes, and the
        four columns likewise for all j, descending, a few dozen big-int
        operations in all.  Premultiplied by the mix constants, they are
        laid out so that the rows and columns of one diagonal are
        contiguous byte slices.  The growth order is cut every _BAND
        cells, inside a diagonal where the count falls there, and the
        cells of a band are packed side by side in a few Python ints, one
        lane per cell, so each hash step, the PCG64 step and each bit of
        the output rotation is one integer operation per band
        (_band_words).  The last band is padded to a power of two, so the
        lane constants are built once per power of two up to _BAND and
        kept in a bounded table (_lane_consts), whatever T is.  Each band
        comes as one zip of C-level iterators, chained with
        itertools.chain, and a band is let go before the next is seeded,
        so only one is held at a time.
        """
        if not _LANES:
            return ((i, t - i, self.substream(i, t - i)._load())
                    for t, lo, hi in anti_diagonals(T) for i in range(lo, hi + 1))
        pool, h = self._mixed
        ones = int.from_bytes(b"\1\0\0\0\0\0\0\0" * T, "little")
        m32 = ones * _M32

        def hashed(index, x, m):  # _hashmix of every lane's index
            v = ((index ^ ones * x) * m) & m32
            return (v ^ (v >> 16)) & m32

        i = int.from_bytes(array("Q", range(1, T + 1)).tobytes(), "little")
        j = int.from_bytes(array("Q", range(T, 0, -1)).tobytes(), "little")  # descending
        steps = _schedule(h, _MULT_A, 8)  # four steps for i, one per pool entry, then four for j
        rows, cols = [], []
        for p, row_step, col_step in zip(pool, steps, steps[4:]):
            # _mix of p with each hashed i; lifting each lane by 2^32 stops borrows
            v = (_MIX_R * hashed(i, *row_step)) & m32
            r = (ones * (((_MIX_L * p) & _M32) + (1 << 32)) - v) & m32
            rows.append(((_MIX_L * ((r ^ (r >> 16)) & m32)) & m32).to_bytes(8 * T, "little"))
            cols.append(((_MIX_R * hashed(j, *col_step)) & m32).to_bytes(8 * T, "little"))
        return chain.from_iterable(_band_words(band, n, T, rows, cols) for band, n in _bands(T))

    def _load(self):
        """Make the next word current and return it in read order.

        The word is one PCG64 output shifted right by one, read least
        significant bit first; reversing all 64 bits of the output (_REV8,
        byte by byte) puts the word's first bit at bit 62.
        """
        if self._state is None:
            self._state, self._inc = _pcg64(self._mixed[0])
        s = (self._state * _PCG_MULT + self._inc) & _M128
        self._state = s
        x = ((s >> 64) ^ s) & _M64
        rot = s >> 122
        x = ((x >> rot) | (x << (64 - rot))) & _M64
        self._u = u = int.from_bytes(x.to_bytes(8, "little").translate(_REV8), "big") & _M63
        return u


class CellBits(_WordBits):
    """The bits of parent.substream(i, j), read from its first word u.

    u is that substream's first word in read order, as
    RandomSource.cell_words gives it, held as every _WordBits holds its
    current word.  After u's 63 bits, _load() goes on in
    parent.substream(i, j) past its first word, so every bit is the
    substream's, and the child is made only for a cell whose draws need
    more than 63 bits.  The field's cells read their words through it.
    """

    __slots__ = ("_src", "_cell")

    def __init__(self, u, parent, i, j):
        self._u = u
        self._k = 63
        self._src = parent
        self._cell = (i, j)

    def _load(self):
        if self._cell is not None:  # u is used up: go on in the substream itself
            self._src = self._src.substream(*self._cell)
            self._src._load()
            self._cell = None
        self._u = u = self._src._load()
        return u


_WORD_SOURCES = (RandomSource, CellBits)  # what sample_bernoulli reads a word at a time


def sample_categorical(probs, rng):
    """Exact draw of an index with the given Fraction probabilities.

    probs must be non-negative Fractions summing exactly to 1
    (NonStochastic otherwise).  A uniform variate is refined bit by bit as
    a dyadic interval [a, a+1)/2^k and compared against the exact
    cumulative boundaries; the draw resolves once the interval sits inside
    a single cell, so the output law is exactly `probs`.
    """
    cum = cumulative_boundaries(probs)
    return _sample_from_cumulative(cum, rng)


def cumulative_boundaries(probs):
    """Exact cumulative sums (num, den) for sample_categorical; validates stochasticity."""
    total = ZERO
    cum = []
    for p in probs:
        if p < 0:
            raise NonStochastic(f"negative probability {p}")
        total += p
        cum.append((total.numerator, total.denominator))
    if total != ONE:
        raise NonStochastic(f"probabilities sum to {total}, not 1")
    return cum


def sample_bernoulli(num, den, rng):
    """Exact draw: True with probability num/den (0 <= num <= den, den > 0).

    The two-outcome case of sample_categorical: it returns True exactly
    when sample_categorical((p, 1 - p), rng) would return 0, reading the
    same bits.  A RandomSource or a CellBits is read a word at a time
    (_bernoulli_words); any other bit source goes through the categorical
    draw itself (_bernoulli_bits, the reference).  Both read the same
    bits and leave the source at the same place; bernoulli_draw(rng)
    gives the one to use.
    """
    return bernoulli_draw(rng)(num, den, rng)


def bernoulli_draw(rng):
    """The draw(num, den, rng) that sample_bernoulli uses for rng, chosen by its exact type.

    A caller that draws many times from one source looks it up once.
    """
    return _bernoulli_words if type(rng) in _WORD_SOURCES else _bernoulli_bits


def _bernoulli_bits(num, den, rng):
    """sample_bernoulli on any bit source: the two-cell categorical draw, bit by bit.

    Cell 0, [0, p), is True.  For p <= 0 and p >= 1 it reads no bit, as
    the draw is decided at once.
    """
    return _sample_from_cumulative(((num, den), (den, den)), rng) == 0


def _bernoulli_words(num, den, src):
    """_bernoulli_bits on a RandomSource or CellBits, a word at a time.

    With u the k unread bits and f = floor(p 2^k), the bit-by-bit prefix
    of j bits is undecided exactly while it equals floor(p 2^j), the top j
    bits of f, and p 2^j is not an integer.  So the draw ends at the first
    bit where u and f differ, True when u has the 0 there (u < f), unless
    p 2^j is an integer first: when den divides num 2^k, that is at
    j = k - z, z the trailing zeros of f, and there the draw is False.  If
    all k bits match and p 2^k is not an integer, the draw goes on from
    the remainder, p 2^k - f, in the next word.  It reads exactly the bits
    _bernoulli_bits reads.
    """
    if den <= num:
        return True
    if num <= 0:
        return False
    k = src._k
    if k:
        u = src._u & ((1 << k) - 1)
    while True:
        if not k:
            u = src._load()
            k = 63
        t = num << k
        f = t // den
        if u < f:
            src._k = (u ^ f).bit_length() - 1  # the bits after the first difference
            return True
        r = t - f * den
        if u > f or not r:
            unread = (u ^ f).bit_length() - 1
            if not r:  # p 2^j is an integer from j = k - z on
                z = (f & -f).bit_length() - 1
                if z > unread:
                    unread = z
            src._k = unread
            return False
        num, k = r, 0


def _true_run(ones, n, src):
    """How many of n draws in a row _bernoulli_words makes True, off src's current word.

    Every draw's p has at least ones >= 1 leading ones in binary, p >=
    1 - 2^-ones.  If a draw's unread bits start with g < ones ones and then
    a zero, that zero is the first difference between u and f, so the draw
    is True and reads g + 1 bits; no shorter prefix decides it, as p 2^j
    is not an integer for j <= g.  So r draws in a row read r zeros, up to
    the first run of `ones` ones, which only the next draw's own p can
    decide.  The run starts where the word AND-ed with itself shifted,
    ones - 1 places in doubling steps, has its first one.  Without such a
    run the draws stop after the word's last zero: the fewer than `ones`
    ones below it straddle into the next word.  The zeros above the stop
    are counted with bit_count, and when there are more than n a binary
    search finds the n-th.  A used-up word is replaced first.  Leaves src
    after the r-th draw's bits, as r calls of _bernoulli_words would, and
    returns r.
    """
    k = src._k
    if k:
        u = src._u & ((1 << k) - 1)
    else:
        u, k = src._load(), 63
    run, width = u, 1  # bit b of run is set when the width bits from bit b down are ones
    while 2 * width <= ones:
        run &= run << width
        width *= 2
    if width < ones:
        run &= run << (ones - width)
    stop = run.bit_length() if run else (u ^ (u + 1)).bit_length() - 1  # bits left unread
    r = k - stop - (u >> stop).bit_count()
    if r > n:  # the fewest leading bits that hold n zeros end at the n-th
        lo, hi = n, k - stop
        while lo < hi:
            mid = (lo + hi) // 2
            if mid - (u >> (k - mid)).bit_count() < n:
                lo = mid + 1
            else:
                hi = mid
        stop, r = k - lo, n
    src._k = stop
    return r


def word_bernoulli(num, den, u):
    """sample_bernoulli(num, den, rng) from the first word of rng alone, or None.

    u is that word in read order (an entry of RandomSource.cell_words), so
    the uniform variate lies in [u, u + 1) / 2^63.  This is the first
    word of _bernoulli_words, k = 63: with f = floor(p 2^63), the draw is
    u < f when u and f differ, and False when they agree and p 2^63 = f.
    None means they agree and p 2^63 is not an integer (probability at
    most 2^-63): the interval straddles p, and sample_bernoulli on rng
    itself (for a cell word, rng.substream(i, j)) must decide; it reads u
    again and then the words after it.
    """
    t = num << 63
    f = t // den
    if u != f:
        return u < f
    return None if t - f * den else False


def _sample_from_cumulative(cum, rng):
    a = 0
    k = 0
    lo_idx = 0  # first cell whose right boundary exceeds a/2^k
    while True:
        # advance lo_idx while cum[lo_idx] <= a / 2^k
        while True:
            num, den = cum[lo_idx]
            if num * (1 << k) <= a * den:
                lo_idx += 1
            else:
                break
        # resolved once (a+1)/2^k <= cum[lo_idx]
        num, den = cum[lo_idx]
        if (a + 1) * den <= num * (1 << k):
            return lo_idx
        a = (a << 1) | rng.bit()
        k += 1
