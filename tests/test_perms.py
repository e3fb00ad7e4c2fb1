"""Statistics and pattern checks on plain permutations."""

from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from centroinv import perms
from centroinv.generate import centro_perms, involutions, signed_perms
from centroinv.matchings import excedance_subset, subset
from centroinv.perms import (
    contains_321,
    descent_set,
    des,
    fixed_point_count,
    half_descent_set,
    half_des,
    half_maj,
    is_centrosymmetric,
    is_involution,
    maj,
    parse_perm,
    format_perm,
)
from centroinv.signed import unfold_window
from oracles import (
    avoids,
    complement,
    contains_123,
    contains_pattern,
    contains_pattern_naive,
    descent_set_scan,
    half_descent_set_scan,
    identity,
    inverse,
)


def perm_strategy(max_m=7):
    return st.integers(0, max_m).flatmap(
        lambda m: st.permutations(tuple(range(1, m + 1)))
    )


def test_parse_format_round_trip():
    assert parse_perm("5 3 2 8 1 7 6 4") == (5, 3, 2, 8, 1, 7, 6, 4)
    assert format_perm((5, 3, 2, 8, 1, 7, 6, 4)) == "5 3 2 8 1 7 6 4"
    assert parse_perm("") == ()
    with pytest.raises(ValueError):
        parse_perm("1 1 2")


def test_parse_ints_takes_only_plain_integers():
    assert perms.parse_ints(["12", "-3", " 4 ", "0", "-0", "007"]) == (12, -3, 4, 0, 0, 7)
    # int() takes the first four; none is a plain integer
    for tok in ("1_0", "+1", "\u0662", "1\u0662", "\u00b2", "-", "", "1.0", "0x1", "--1", "- 1", "9" * 5000):
        with pytest.raises(ValueError) as exc:
            perms.parse_ints(["1", tok])
        assert str(exc.value) == f"not an integer: {tok!r}"


def test_format_perm_table():
    # the table holds -64..64; values past either edge are formatted on a
    # miss and not stored
    size = len(perms._TEXT)
    for p in [(), tuple(range(-70, 71)), (10**6, -(10**6))]:
        assert format_perm(p) == " ".join(map(str, p))
    assert len(perms._TEXT) == size


def test_basic_ops():
    assert identity(4) == (1, 2, 3, 4)
    assert inverse((3, 1, 2)) == (2, 3, 1)
    assert complement((1, 3, 2)) == (3, 1, 2)


def test_membership_predicates():
    assert is_involution((2, 1, 4, 3))
    assert not is_involution((3, 1, 2))
    assert is_centrosymmetric((2, 1, 4, 3))
    assert is_centrosymmetric((2, 1, 3, 5, 4))
    assert not is_centrosymmetric((1, 3, 2))


def test_half_scan_centrosymmetry_equals_the_full_scan():
    for m in range(8):
        for p in permutations(range(1, m + 1)):
            full = all(p[i] + p[m - 1 - i] == m + 1 for i in range(m))
            assert is_centrosymmetric(p) == full, p


def test_descent_statistics():
    assert descent_set((2, 1, 3, 5, 4)) == (1, 4)
    assert des((2, 1, 3, 5, 4)) == 2
    assert maj((2, 1, 3, 5, 4)) == 5
    assert descent_set((3, 4, 1, 2)) == (2,)
    assert descent_set(identity(5)) == ()
    assert half_descent_set((2, 1, 4, 3)) == (1,)
    assert half_descent_set((4, 3, 2, 1)) == (1, 2)
    assert half_descent_set(()) == ()


def test_descent_evaluators_equal_the_scans():
    # every permutation of [m], m <= 7, and every unfolded window of n <= 4
    cases = [p for m in range(8) for p in permutations(range(1, m + 1))]
    cases += [unfold_window(s) for n in range(5) for s in signed_perms(n)]
    for p in cases:
        full, half = descent_set_scan(p), half_descent_set_scan(p)
        assert descent_set(p) == full, p
        assert (des(p), maj(p)) == (len(full), sum(full)), p
        assert half_descent_set(p) == half, p
        assert (half_des(p), half_maj(p)) == (len(half), sum(half)), p


def test_excedance_and_fixed_points():
    # excedances live in matchings.excedance_subset
    assert excedance_subset((3, 4, 1, 2)) == subset(2, {1, 2})
    assert excedance_subset(identity(4)) == subset(2, ())
    assert fixed_point_count((1, 3, 2)) == 1
    assert fixed_point_count(identity(6)) == 6


def test_pattern_examples():
    assert contains_321((4, 2, 3, 1))
    assert not contains_321((2, 1, 3, 5, 4))
    assert contains_123((2, 1, 3, 5, 4))
    assert not contains_123((3, 2, 1))
    assert contains_pattern((3, 1, 4, 2), (2, 1))
    assert avoids((1, 2, 3), (2, 1))
    assert contains_pattern_naive((5, 3, 2, 8, 1, 7, 6, 4), (3, 2, 1))


@given(perm_strategy())
def test_fast_321_scan_matches_naive(p):
    p = tuple(p)
    assert contains_321(p) == contains_pattern_naive(p, (3, 2, 1))


@given(perm_strategy())
def test_fast_123_scan_matches_naive(p):
    p = tuple(p)
    assert contains_123(p) == contains_pattern_naive(p, (1, 2, 3))


@given(perm_strategy())
def test_complement_swaps_321_and_123(p):
    p = tuple(p)
    assert avoids(p, (3, 2, 1)) == avoids(complement(p), (1, 2, 3))


def test_centro_descents_mirror_and_maj_identity():
    # descents of a centrosymmetric permutation mirror through the centre,
    # so for even size maj is determined by des alone
    for m in (2, 4, 6, 5, 7):
        for p in centro_perms(m):
            ds = set(descent_set(p))
            assert ds == {m - i for i in ds}
            if m % 2 == 0:
                assert 2 * maj(p) == m * des(p)


def test_half_descents_determine_descents_on_centro():
    for m in (4, 6, 7):
        for p in centro_perms(m):
            half = set(half_descent_set(p))
            full = half | {m - i for i in half}
            assert full == set(descent_set(p))


def test_complement_preserves_centro_involutions():
    for m in (2, 4, 6, 5):
        for p in involutions(m):
            if not is_centrosymmetric(p):
                continue
            c = complement(p)
            assert is_involution(c) and is_centrosymmetric(c)
            assert avoids(p, (3, 2, 1)) == avoids(c, (1, 2, 3))


def test_fixed_point_parity():
    for m in range(0, 9):
        for p in involutions(m):
            assert fixed_point_count(p) % 2 == m % 2


def test_doctests():
    import doctest

    assert doctest.testmod(perms).failed == 0
