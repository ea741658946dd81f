"""Partition combinatorics against brute-force oracles."""

import math
import random
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings, strategies as st

from spinhl.partitions import (
    enumerate_partitions,
    even_core,
    even_cover,
    even_pair_coefficient,
    format_partition,
    interlaces,
    interlacing_above,
    interlacing_below,
    is_conjugate_even,
    mult_vector,
    parse_partition,
)


def conjugate(p):
    """The transposed Young diagram (column lengths of p)."""
    if not p:
        return ()
    return tuple(sum(1 for a in p if a >= i) for i in range(1, p[0] + 1))


def contains(inner, outer):
    """Containment of Young diagrams: inner_i <= outer_i for all i."""
    if len(inner) > len(outer):
        return False
    return all(inner[i] <= outer[i] for i in range(len(inner)))


def horizontal_strip(mu, lam):
    """Oracle for mu ≺ lam: containment with at most one box added per column."""
    if not contains(mu, lam):
        return False
    cl, cm = conjugate(lam), conjugate(mu)
    cm = cm + (0,) * (len(cl) - len(cm))
    return all(a - b in (0, 1) for a, b in zip(cl, cm))


def box(max_part, max_len):
    """The set of partitions with parts <= max_part and length <= max_len.

    The max_len-multisets of 0..max_part, each listed largest first with
    its zeros stripped, give every such partition once.
    """
    return {tuple(a for a in c if a)
            for c in combinations_with_replacement(range(max_part, -1, -1), max_len)}


def graded(p):
    """The documented order of enumerate_partitions: by size, then largest first."""
    return (sum(p), tuple(-a for a in p))


def random_partition(rng, max_part=8, max_len=6):
    parts = sorted((rng.randint(1, max_part) for _ in range(rng.randint(0, max_len))),
                   reverse=True)
    return tuple(parts)


def test_interlaces_examples():
    assert interlaces((), ())
    assert interlaces((3, 1), (4, 2, 1))  # chain 1<=1<=2<=3<=4
    assert not interlaces((3, 3), (5, 1))  # mu_2=3 > lam_2=1


def test_interlaces_is_horizontal_strip():
    ps = box(4, 4)
    for mu in ps:
        for lam in ps:
            assert interlaces(mu, lam) == horizontal_strip(mu, lam), (mu, lam)


def test_interlaces_length_gap():
    ps = enumerate_partitions(4, 4)
    for mu in ps:
        for lam in ps:
            if interlaces(mu, lam):
                assert len(lam) - len(mu) in (0, 1)


def test_conjugate_examples():
    assert conjugate(()) == ()
    assert conjugate((4, 3, 1)) == (3, 2, 2, 1)
    rng = random.Random(3)
    for _ in range(500):
        lam = random_partition(rng)
        assert conjugate(conjugate(lam)) == lam


def test_conjugate_even_examples():
    assert is_conjugate_even(())
    assert is_conjugate_even((4, 4, 3, 3, 2, 2))
    assert not is_conjugate_even((4, 3))  # conjugate (2,2,2,1) has an odd part
    rng = random.Random(4)
    for _ in range(300):
        lam = random_partition(rng)
        assert is_conjugate_even(lam) == all(v % 2 == 0 for v in conjugate(lam))


def test_even_pair_coefficient(params):
    q, s = params.q, params.s
    assert even_pair_coefficient((), params) == 1
    assert even_pair_coefficient((2, 2), params) == (1 - q) / (1 - s * s * q)
    assert even_pair_coefficient((4, 4, 3, 3, 2, 2), params) == ((1 - q) / (1 - s * s * q)) ** 3
    # quadruple multiplicity brings the k=2 factor
    assert even_pair_coefficient((1, 1, 1, 1), params) == (
        (1 - q) / (1 - s * s * q) * (1 - q**3) / (1 - s * s * q**3)
    )
    with pytest.raises(ValueError):
        even_pair_coefficient((3, 3, 1), params)  # odd multiplicity of 1


def test_even_cover_core_examples():
    assert even_cover((4, 4, 4, 3, 2, 2, 1)) == (4, 4, 4, 4, 2, 2, 1, 1)
    assert even_core((4, 4, 4, 3, 2, 2, 1)) == (4, 4, 3, 3, 2, 2)
    assert even_cover(()) == ()
    assert even_core(()) == ()


def test_even_cover_core_unique_by_enumeration():
    # oracle: among all conjugate-even partitions in a box, exactly one
    # interlaces kappa from above and exactly one from below
    box = [p for p in enumerate_partitions(5, 7) if is_conjugate_even(p)]
    for kappa in enumerate_partitions(5, 5):
        above = [lam for lam in box if interlaces(kappa, lam)]
        below = [tau for tau in box if interlaces(tau, kappa)]
        assert above == [even_cover(kappa)] or (len(above) == 1 and above[0] == even_cover(kappa))
        assert len(below) == 1 and below[0] == even_core(kappa)


def test_even_cover_core_sandwich_and_length():
    rng = random.Random(5)
    for _ in range(300):
        kappa = random_partition(rng, 6, 6)
        lo, hi = even_core(kappa), even_cover(kappa)
        assert is_conjugate_even(lo) and is_conjugate_even(hi)
        assert interlaces(lo, kappa) and interlaces(kappa, hi)
        expect = len(kappa) if len(kappa) % 2 == 0 else len(kappa) + 1
        assert len(hi) == expect


def test_enumerate_partitions():
    assert enumerate_partitions(0, 0) == [()]
    assert enumerate_partitions(2, 2) == [(), (1,), (2,), (1, 1), (2, 1), (2, 2)]
    for p, l in [(2, 3), (3, 3), (4, 2), (5, 1)]:
        assert len(enumerate_partitions(p, l)) == math.comb(p + l, l)


@pytest.mark.parametrize("max_part", range(6))
@pytest.mark.parametrize("max_len", range(5))
def test_enumerate_partitions_lists_the_box_in_graded_order(max_part, max_len):
    # brute force: every non-increasing max_len-tuple of 0..max_part, zeros
    # stripped; (0, 0), (0, 3) and (3, 0) are among the cases
    tuples = product(range(max_part + 1), repeat=max_len)
    brute = {tuple(a for a in p if a) for p in tuples if all(a >= b for a, b in zip(p, p[1:]))}
    assert enumerate_partitions(max_part, max_len) == sorted(brute, key=graded)


def test_interlacing_enumerators_match_predicate():
    ps = enumerate_partitions(4, 3)
    for mu in enumerate_partitions(3, 2):
        above = set(interlacing_above(mu, cap_part=4))
        assert above == {lam for lam in ps if interlaces(mu, lam) and (not lam or lam[0] <= 4)}
    for lam in enumerate_partitions(3, 3):
        below = set(interlacing_below(lam))
        assert below == {mu for mu in ps if interlaces(mu, lam)}


# deterministic examples and no example database, so runs repeat exactly
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)
PARTITIONS = st.lists(st.integers(1, 6), max_size=5).map(lambda a: tuple(sorted(a, reverse=True)))


@settings(PROPERTY, max_examples=800)
@given(mu=PARTITIONS, k=st.none() | st.integers(0, 8), within=st.none() | PARTITIONS)
def test_interlacing_above_matches_brute_force(mu, k, within):
    # any lam above mu has at most one more part, each at most k and inside
    # within; the list runs length len(mu) first, each length lexicographically
    if k is None and within is None:
        with pytest.raises(ValueError, match="^unbounded enumeration: give cap_part or within$"):
            interlacing_above(mu)
        return
    bounds = [] if k is None else [k]  # on the first part, so on every part
    if within is not None:
        bounds.append(within[0] if within else 0)
    expect = sorted((lam for lam in box(min(bounds), len(mu) + 1) if horizontal_strip(mu, lam)
                     and (within is None or contains(lam, within))), key=lambda p: (len(p), p))
    assert interlacing_above(mu, cap_part=k, within=within) == expect


@PROPERTY
@given(lam=PARTITIONS)
def test_interlacing_below_matches_brute_force(lam):
    # length len(lam) first, each length lexicographically
    expect = sorted((mu for mu in box(lam[0] if lam else 0, len(lam))
                     if horizontal_strip(mu, lam)), key=lambda p: (-len(p), p))
    assert interlacing_below(lam) == expect


def test_mult_and_text_forms():
    lam = (4, 4, 3, 1)
    assert mult_vector(lam, 5) == [0, 1, 0, 1, 2, 0]
    assert format_partition(lam) == "4,4,3,1"
    assert format_partition(()) == "∅"
    assert parse_partition("4,4,3,1") == lam
    assert parse_partition("∅") == ()
