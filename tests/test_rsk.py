"""Row insertion, the facing scan, and the rectangle embedding."""

from bisect import bisect_left
from collections import Counter
from math import comb

import pytest

from centroinv.generate import inv321, involutions
from centroinv.paths import hook_decomposition, path_counts, peak_set
from centroinv.perms import contains_321, des, descent_set, fixed_point_count, maj
from centroinv.qpoly import psum, q_binomial, qpoly
from centroinv.rsk import (
    Contains321Error,
    NotInvolutionError,
    ShapeMismatchError,
    TooFewFixedPointsError,
    _facing_scan,
    involution_path,
    maj_poly_by_fixed_points,
    maj_poly_by_fixed_points_and_des,
    theta_rect,
    theta_rect_inverse,
)
from oracles import (
    TwoRowTableau,
    check_tableau,
    rect_paths,
    rsk_tableau,
    tableau_involution,
)


def test_rsk_tableau_examples():
    assert rsk_tableau((1, 2, 3)) == ((1, 2, 3), ())
    assert rsk_tableau((2, 1)) == ((1,), (2,))
    assert rsk_tableau((2, 1, 4, 3)) == ((1, 3), (2, 4))
    assert rsk_tableau((1, 3, 2)) == ((1, 2), (3,))
    assert rsk_tableau(()) == ((), ())


def test_rsk_tableau_errors():
    with pytest.raises(NotInvolutionError):
        rsk_tableau((2, 3, 1))
    with pytest.raises(Contains321Error):
        rsk_tableau((3, 2, 1))
    with pytest.raises(ValueError):
        rsk_tableau((1, 1))


def test_tableau_validation():
    check_tableau(TwoRowTableau((1, 3), (2, 4)))
    with pytest.raises(ShapeMismatchError):
        check_tableau(TwoRowTableau((1, 2), (2, 3)))
    with pytest.raises(ShapeMismatchError):
        check_tableau(TwoRowTableau((1,), (2, 3)))
    with pytest.raises(ShapeMismatchError):
        check_tableau(TwoRowTableau((2, 1, 3), ()))
    with pytest.raises(ShapeMismatchError):
        check_tableau(TwoRowTableau((2, 3), (1, 4)))


def test_inverse_insertion_is_honest():
    # top row 1 2 over bottom row 3 comes from 1 3 2, whose last letter
    # bumped the 3; pairing up columns would wrongly read off 3 2 1, which
    # does not even fit in two rows
    assert tableau_involution(TwoRowTableau((1, 2), (3,))) == (1, 3, 2)


def test_round_trip_and_rejection():
    # row insertion is also the reference for the direct path rule: the path
    # has its N steps at the letters of the top row
    for m in range(9):
        for p in involutions(m):
            if contains_321(p):
                with pytest.raises(Contains321Error):
                    rsk_tableau(p)
                with pytest.raises(Contains321Error):
                    involution_path(p)
            else:
                t = rsk_tableau(p)
                check_tableau(t)
                assert tableau_involution(t) == p
                top = set(t.top)
                assert involution_path(p) == "".join(
                    "N" if i in top else "E" for i in range(1, m + 1)
                )


def lis_length(p):
    tails = []
    for v in p:
        i = bisect_left(tails, v)
        if i == len(tails):
            tails.append(v)
        else:
            tails[i] = v
    return len(tails)


def test_row_lengths_follow_subsequences():
    for m in range(8):
        for p in inv321(m):
            t = rsk_tableau(p)
            assert len(t.top) == lis_length(p)
            assert len(t.top) - len(t.bottom) == fixed_point_count(p)


def test_involution_path_examples():
    assert involution_path((2, 1, 4, 3)) == "NENE"
    assert involution_path((1, 2, 3)) == "NNN"
    assert involution_path((1, 3, 2)) == "NNE"
    assert involution_path(()) == ""


def test_involution_path_properties():
    for m in range(9):
        seen = set()
        members = list(inv321(m))
        for p in members:
            w = involution_path(p)
            height = 0
            for s in w:
                height += 1 if s == "N" else -1
                assert height >= 0  # never dips below the diagonal
            assert height == fixed_point_count(p)
            assert peak_set(w) == descent_set(p)
            seen.add(w)
        assert len(seen) == len(members)  # the path remembers the involution


def test_facing_examples():
    # (unmatched N steps, unmatched E steps), 1-based
    assert _facing_scan("NNE") == ([1], [])
    assert _facing_scan("NENE") == ([], [])
    assert _facing_scan("NNEE") == ([], [])
    assert _facing_scan("") == ([], [])
    assert _facing_scan("EN") == ([2], [1])


def test_theta_rect_examples():
    assert theta_rect((2, 1, 4, 3), 2, 2) == "EENN"
    assert theta_rect((1, 3, 2), 1, 2) == "EEN"
    assert theta_rect((), 0, 0) == ""


def test_theta_rect_transport():
    for m in range(9):
        members = list(inv321(m))
        for a in range(m // 2 + 1):
            b = m - a
            domain = [p for p in members if fixed_point_count(p) >= b - a]
            assert len(domain) == comb(m, a)
            images = set()
            for p in domain:
                lam = theta_rect(p, a, b)
                assert path_counts(lam) == (a, b)
                assert hook_decomposition(lam) == descent_set(p)
                assert theta_rect_inverse(lam, a, b) == p
                images.add(lam)
            assert len(images) == comb(m, a)
            for lam in rect_paths(a, b):
                assert theta_rect(theta_rect_inverse(lam, a, b), a, b) == lam


def test_theta_rect_errors():
    with pytest.raises(NotInvolutionError):
        theta_rect((2, 3, 1), 1, 2)
    with pytest.raises(Contains321Error):
        theta_rect((3, 2, 1), 1, 2)
    with pytest.raises(TooFewFixedPointsError):
        theta_rect((2, 1, 4, 3), 1, 3)
    with pytest.raises(ShapeMismatchError):
        theta_rect((2, 1), 2, 1)
    with pytest.raises(ShapeMismatchError):
        theta_rect((2, 1), 1, 2)
    with pytest.raises(ShapeMismatchError):
        theta_rect_inverse("NNE", 1, 2)
    with pytest.raises(ShapeMismatchError):
        theta_rect_inverse("NE", 2, 1)


def test_maj_poly_examples():
    assert maj_poly_by_fixed_points(4, 0) == (0, 0, 1, 0, 1)
    assert maj_poly_by_fixed_points(3, 1) == (0, 1, 1)
    assert maj_poly_by_fixed_points(2, 2) == (1,)
    assert maj_poly_by_fixed_points(0, 0) == (1,)
    for bad in ((4, 1), (4, -2), (4, 6)):
        with pytest.raises(ValueError):
            maj_poly_by_fixed_points(*bad)
    with pytest.raises(ValueError):
        maj_poly_by_fixed_points_and_des(4, 1, 0)
    with pytest.raises(ValueError):
        maj_poly_by_fixed_points_and_des(4, 0, -1)


def tally_poly(tally):
    return qpoly(tally[i] for i in range(max(tally, default=-1) + 1))


def test_maj_polys_match_enumeration():
    for m in range(10):
        by_fp = {}
        refined = {}
        for p in inv321(m):
            l = fixed_point_count(p)
            by_fp.setdefault(l, Counter())[maj(p)] += 1
            refined.setdefault((l, des(p)), Counter())[maj(p)] += 1
        for l in range(m % 2, m + 1, 2):
            assert maj_poly_by_fixed_points(m, l) == tally_poly(
                by_fp.get(l, Counter())
            )
            for k in range(m + 1):
                assert maj_poly_by_fixed_points_and_des(m, l, k) == tally_poly(
                    refined.get((l, k), Counter())
                )
            assert (
                psum(
                    maj_poly_by_fixed_points_and_des(m, l, k)
                    for k in range(m + 1)
                )
                == maj_poly_by_fixed_points(m, l)
            )
        assert (
            psum(maj_poly_by_fixed_points(m, l) for l in range(m % 2, m + 1, 2))
            == q_binomial(m, m // 2)
        )


def test_doctests():
    import doctest

    import centroinv.rsk

    assert doctest.testmod(centroinv.rsk).failed == 0
