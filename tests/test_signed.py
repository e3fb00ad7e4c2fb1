"""Signed windows, the recentring maps, and the six-pattern characterisation."""

import doctest
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from centroinv.generate import centro_perms, signed_perms
from centroinv.perms import contains_321, format_perm, half_descent_set
from centroinv.signed import (
    TOP_PATTERNS,
    check_signed,
    is_top_element,
    parse_signed,
    signed_pattern,
    theta,
    theta_inverse,
    unfold_window,
)
import oracles
from oracles import (
    avoids,
    signed_avoids,
    signed_contains,
    signed_patterns,
    unfold_by_arithmetic,
)


@st.composite
def windows(draw, max_n=6):
    n = draw(st.integers(min_value=0, max_value=max_n))
    vals = draw(st.permutations(list(range(1, n + 1))))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    return tuple(v * s for v, s in zip(vals, signs))


def test_window_validation():
    check_signed((-2, 1, 3))
    check_signed(())
    for bad in ((0, 1), (1, 1), (-1, -1), (1, 3), (2,)):
        with pytest.raises(ValueError):
            check_signed(bad)


def test_window_text_round_trip():
    assert parse_signed("-2 -4 1 3") == (-2, -4, 1, 3)
    assert format_perm((-2, -4, 1, 3)) == "-2 -4 1 3"
    with pytest.raises(ValueError):
        parse_signed("1 0 2")


def test_theta_examples():
    assert theta((2, 4, 8, 6, 3, 1, 5, 7)) == (-2, -4, 1, 3)
    assert theta((1, 2, 3, 4)) == (1, 2)
    assert theta((4, 3, 2, 1)) == (-1, -2)
    assert theta(()) == ()
    assert theta_inverse((-4, 3, 2, -1)) == (5, 3, 2, 8, 1, 7, 6, 4)
    assert theta_inverse((1, 2)) == (1, 2, 3, 4)
    assert theta_inverse(()) == ()
    with pytest.raises(ValueError):
        theta((1, 2, 3))  # odd size has no window
    with pytest.raises(ValueError):
        theta((2, 1, 3, 4))  # not centrosymmetric


def test_round_trip_exhaustive():
    for n in range(5):
        for s in signed_perms(n):
            assert theta(theta_inverse(s)) == s
        for p in centro_perms(2 * n):
            assert theta_inverse(theta(p)) == p


def test_unfold_window_equals_the_arithmetic():
    for n in range(6):
        for s in signed_perms(n):
            assert unfold_window(s) == unfold_by_arithmetic(s), s


@given(windows())
def test_round_trip_random(s):
    p = theta_inverse(s)
    assert theta(p) == s


def test_signed_contains_examples():
    assert signed_contains((-4, 3, 2, -1), (3, 2, -1))
    assert not signed_contains((1, 2), (1, -2))
    assert signed_contains((3, -1, 2), (2, -1))
    assert not signed_contains((3, -1, 2), (-1, -2))
    assert signed_contains((1, -2), (1, -2))
    assert signed_contains((5, 1), ())
    assert not signed_contains((1,), (1, 2))
    assert signed_avoids((1, 2, 3), (3, 2, 1))


def test_signed_patterns_examples():
    # the signed_contains examples, read off the set of patterns
    assert (3, 2, -1) in signed_patterns((-4, 3, 2, -1), 3)
    assert (1, -2) not in signed_patterns((1, 2), 2)
    assert (2, -1) in signed_patterns((3, -1, 2), 2)
    assert (-1, -2) not in signed_patterns((3, -1, 2), 2)
    assert (1, -2) in signed_patterns((1, -2), 2)
    assert signed_patterns((5, 1), 0) == {()}
    assert signed_patterns((1,), 2) == set()
    assert (3, 2, 1) not in signed_patterns((1, 2, 3), 3)


def test_signed_patterns_equal_the_exhaustive_scan():
    # every signed pattern of length k is a window of size k
    words = [list(signed_perms(k)) for k in range(6)]
    for n in range(5):
        for s in signed_perms(n):
            for k in range(n + 2):
                assert signed_patterns(s, k) == {
                    t for t in words[k] if signed_contains(s, t)
                }, (s, k)


def test_signed_pattern_equals_the_one_pass_scan():
    # the signed pattern of each subsequence, one at a time, against the
    # reference scan of all of them
    for n in range(5):
        for s in signed_perms(n):
            for k in range(n + 2):
                assert {signed_pattern(sub) for sub in combinations(s, k)} == (
                    signed_patterns(s, k)
                ), (s, k)


def test_oracle_doctests():
    assert doctest.testmod(oracles).failed == 0


@given(windows())
def test_contains_self_and_empty(s):
    assert signed_contains(s, s)
    assert signed_contains(s, ())


def test_top_elements_of_smallest_group():
    top = {s for s in signed_perms(2) if is_top_element(s)}
    assert top == {(1, 2), (2, 1), (-1, 2), (-2, 1), (2, -1), (-2, -1)}
    # the two rejects each contain a forbidden length-2 pattern
    assert signed_contains((1, -2), (1, -2))
    assert signed_contains((-1, -2), (-1, -2))


def test_flagged_window_is_not_top():
    # (-4, 3, 2, -1) matches (3, 2, -1) on the last three letters, and its
    # centrosymmetric preimage starts 5, 3, 2
    s = (-4, 3, 2, -1)
    assert signed_contains(s, (3, 2, -1))
    assert not is_top_element(s)
    assert contains_321(theta_inverse(s))


def test_top_elements_are_images_of_avoiders():
    for n in range(5):
        image = {
            theta(p) for p in centro_perms(2 * n) if avoids(p, (3, 2, 1))
        }
        top = {s for s in signed_perms(n) if is_top_element(s)}
        assert image == top


def literal_top(s):
    return all(signed_avoids(s, t) for t in TOP_PATTERNS)


def test_linear_scan_equals_literal_scan_exhaustive():
    # n <= 5 is the whole range of T-sixpat
    for n in range(6):
        for s in signed_perms(n):
            assert is_top_element(s) == literal_top(s), s


@given(windows(max_n=9))
def test_linear_scan_equals_literal_scan_random(s):
    assert is_top_element(s) == literal_top(s)


@pytest.mark.parametrize(
    "pattern, s",
    [
        ((3, 2, 1), (1, 4, 3, 2)),
        ((-3, 2, 1), (-3, 2, 1, 4)),
        ((3, 2, -1), (2, 4, 3, -1)),
        ((-3, 2, -1), (-3, 2, -1, 4)),
        ((1, -2), (1, -2, 3, 4)),
        ((-1, -2), (-1, -2, 3, 4)),
    ],
)
def test_each_pattern_alone_is_rejected(pattern, s):
    assert [t for t in TOP_PATTERNS if signed_contains(s, t)] == [pattern]
    assert not is_top_element(s)


def test_pattern_list_is_fixed():
    assert TOP_PATTERNS == (
        (3, 2, 1),
        (-3, 2, 1),
        (3, 2, -1),
        (-3, 2, -1),
        (1, -2),
        (-1, -2),
    )


def test_half_descents_signed():
    # windows take their descents from the permutation behind them
    def hd(s):
        return half_descent_set(theta_inverse(s))

    assert hd((2, 1)) == (1,)
    assert hd((-2, -1)) == (2,)
    assert hd((1, 2, 3)) == ()
    assert hd((-2, -4, 1, 3)) == (3, 4)


def test_doctests():
    import doctest

    import centroinv.signed

    assert doctest.testmod(centroinv.signed).failed == 0
