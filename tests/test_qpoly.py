"""Polynomial arithmetic and the closed-form distributions."""

from collections import Counter
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, strategies as st

from centroinv.perms import des as perm_des
from centroinv.perms import half_des, half_maj
from centroinv.qpoly import (
    ONE,
    ONE_PLUS_Q,
    ZERO,
    full_des_poly,
    half_des_poly,
    half_des_poly_even_part,
    half_des_poly_rec,
    half_maj_poly,
    half_maj_poly_by_area,
    half_maj_poly_diff,
    half_maj_poly_rec,
    odd_case_polys,
    padd,
    peval,
    pmul,
    ppow,
    pscale,
    pshift,
    psub,
    psum,
    q_binomial,
    qpoly,
    subst_q_square,
)
from oracles import filtered_class

coeffs = st.lists(st.integers(min_value=-9, max_value=9), max_size=6).map(qpoly)


def test_canonical_form():
    assert qpoly([1, 2, 0, 0]) == (1, 2)
    assert qpoly([0, 0]) == ZERO
    assert qpoly([]) == ZERO


def test_ring_examples():
    assert padd((1, 2), (3,)) == (4, 2)
    assert psub((1, 1), (1, 1)) == ZERO
    assert pmul((1, 1), (1, -1)) == (1, 0, -1)
    assert pmul(ZERO, (5, 5)) == ZERO
    assert pscale((1, 2), 3) == (3, 6)
    assert pscale((1, 2), 0) == ZERO
    assert pshift((2,), 2) == (0, 0, 2)
    assert pshift(ZERO, 3) == ZERO
    assert ppow(ONE_PLUS_Q, 2) == (1, 2, 1)
    assert ppow((1, 1), 0) == ONE
    assert psum([(1,), (0, 1), (0, 0, 1)]) == (1, 1, 1)
    assert len(ZERO) - 1 == -1
    assert len((0, 0, 7)) - 1 == 2
    assert peval((1, 2, 3), 10) == 321
    assert peval(ZERO, 5) == 0
    assert subst_q_square((1, 2, 3)) == (1, 0, 2, 0, 3)
    assert subst_q_square(ZERO) == ZERO
    with pytest.raises(ValueError):
        pshift((1,), -1)
    with pytest.raises(ValueError):
        ppow((1,), -1)


@given(coeffs, coeffs, coeffs)
def test_ring_laws(f, g, h):
    assert padd(f, g) == padd(g, f)
    assert pmul(f, g) == pmul(g, f)
    assert padd(padd(f, g), h) == padd(f, padd(g, h))
    assert pmul(pmul(f, g), h) == pmul(f, pmul(g, h))
    assert pmul(f, padd(g, h)) == padd(pmul(f, g), pmul(f, h))
    assert psub(f, f) == ZERO


@given(coeffs, coeffs, st.integers(min_value=-3, max_value=3))
def test_peval_is_a_homomorphism(f, g, x):
    assert peval(padd(f, g), x) == peval(f, x) + peval(g, x)
    assert peval(pmul(f, g), x) == peval(f, x) * peval(g, x)


def rank_tally(n, h):
    """Gaussian binomial the slow way: h-subsets of {0..n-1} weighted by how
    far their element sum sits above the minimum."""
    base = h * (h - 1) // 2
    tally = Counter(sum(s) - base for s in combinations(range(n), h))
    return qpoly(tally[i] for i in range(max(tally, default=0) + 1))


def test_q_binomial_examples():
    assert q_binomial(4, 2) == (1, 1, 2, 1, 1)
    assert q_binomial(3, 1) == (1, 1, 1)
    assert q_binomial(5, 0) == ONE
    assert q_binomial(5, 5) == ONE
    assert q_binomial(3, 4) == ZERO
    assert q_binomial(3, -1) == ZERO


def test_q_binomial_against_subset_ranks():
    for n in range(11):
        for h in range(n + 1):
            assert q_binomial(n, h) == rank_tally(n, h)


def test_q_binomial_shape():
    for n in range(13):
        for h in range(n + 1):
            f = q_binomial(n, h)
            assert f == q_binomial(n, n - h)
            assert f == f[::-1]
            assert len(f) - 1 == h * (n - h)
            assert peval(f, 1) == comb(n, h)


def test_half_des_poly_small():
    assert half_des_poly(0) == (1,)
    assert half_des_poly(1) == (1, 1)
    assert half_des_poly(2) == (1, 3)
    assert half_des_poly(3) == (1, 6, 1)
    assert half_des_poly(4) == (1, 10, 5)


def test_half_des_poly_routes_agree():
    for n in range(15):
        f = half_des_poly(n)
        assert half_des_poly_rec(n) == f
        assert half_des_poly_even_part(n) == f
        assert peval(f, 1) == 2**n


def subset_descent_tallies(n):
    """(descent count, descent sum, doubled count) distributions over all
    subsets of [n]; a member i is a descent when i + 1 is not a member."""
    count, total, doubled = Counter(), Counter(), Counter()
    for r in range(n + 1):
        for s in combinations(range(1, n + 1), r):
            e = set(s)
            dset = [i for i in e if i + 1 not in e]
            count[len(dset)] += 1
            total[sum(dset)] += 1
            doubled[2 * len(dset) - (1 if n in e else 0)] += 1
    return count, total, doubled


def as_poly(tally):
    return qpoly(tally[i] for i in range(max(tally) + 1))


def test_closed_forms_count_subset_statistics():
    for n in range(13):
        count, total, doubled = subset_descent_tallies(n)
        assert half_des_poly(n) == as_poly(count)
        assert half_maj_poly(n) == as_poly(total)
        assert full_des_poly(n) == as_poly(doubled)


def test_half_maj_poly_small():
    assert half_maj_poly(0) == (1,)
    assert half_maj_poly(1) == (1, 1)
    assert half_maj_poly(2) == (1, 1, 2)
    assert half_maj_poly(3) == (1, 1, 2, 3, 1)


def test_half_maj_poly_routes_agree():
    for n in range(13):
        f = half_maj_poly(n)
        assert half_maj_poly_diff(n) == f
        assert half_maj_poly_rec(n) == f
        assert half_maj_poly_by_area(n) == f
        assert peval(f, 1) == 2**n


def test_even_class_polys_match_enumeration():
    for n in range(6):
        td, tm, tf = Counter(), Counter(), Counter()
        for p in filtered_class(2 * n):
            td[half_des(p)] += 1
            tm[half_maj(p)] += 1
            tf[perm_des(p)] += 1
        assert half_des_poly(n) == as_poly(td)
        assert half_maj_poly(n) == as_poly(tm)
        assert full_des_poly(n) == as_poly(tf)


def test_odd_case_polys_small():
    assert odd_case_polys(0) == ((1,), (1,), (1,))
    assert odd_case_polys(1) == ((1,), (1,), (1,))
    assert odd_case_polys(2) == ((1, 1), (1, 1), (1, 0, 1))
    assert odd_case_polys(3) == ((1, 2), (1, 1, 1), (1, 0, 2))
    assert odd_case_polys(4) == ((1, 4, 1), (1, 1, 2, 1, 1), (1, 0, 4, 0, 1))


def test_odd_case_polys_structure():
    for n in range(12):
        hd, hm, full = odd_case_polys(n)
        assert full == subst_q_square(hd)
        assert hm == hm[::-1]
        size = comb(n, n // 2)
        assert peval(hd, 1) == size
        assert peval(hm, 1) == size
        assert peval(full, 1) == size


def test_odd_case_polys_match_enumeration():
    for n in range(6):
        hd, hm, full = odd_case_polys(n)
        td, tm, tf = Counter(), Counter(), Counter()
        for p in filtered_class(2 * n + 1):
            td[half_des(p)] += 1
            tm[half_maj(p)] += 1
            tf[perm_des(p)] += 1
        assert hd == as_poly(td)
        assert hm == as_poly(tm)
        assert full == as_poly(tf)


def test_doctests():
    import doctest

    import centroinv.qpoly

    assert doctest.testmod(centroinv.qpoly).failed == 0
