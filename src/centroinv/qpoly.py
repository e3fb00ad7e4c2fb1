"""Polynomials in q with integer coefficients, and the closed forms.

A polynomial is a tuple of coefficients in ascending powers with no trailing
zeros; the zero polynomial is the empty tuple.  Coefficients are exact Python
integers throughout.

Closed forms provided (n is the subset size, half the even class size):

* half_des_poly: distribution of descents in the first half, a pure binomial
  sum; also available through its three-term recurrence;
* half_maj_poly: distribution of the major index restricted to the first
  half, as a weighted sum of Gaussian binomials, as an equivalent two-term
  difference form, through its recurrence, and by brute-force area counting
  over marked paths;
* full_des_poly: distribution of all descents, simply (1+q)**n;
* odd_case_polys: the three distributions for the odd-size class.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache, reduce
from itertools import product
from math import comb
from typing import Iterable, Mapping

from centroinv.paths import area

QPoly = tuple[int, ...]

ZERO: QPoly = ()
ONE: QPoly = (1,)

Q = (0, 1)  # the variable itself
ONE_PLUS_Q = (1, 1)


def qpoly(coeffs: Iterable[int]) -> QPoly:
    """Canonical form: strip trailing zeros."""
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def tally_poly(counts: Mapping[int, int]) -> QPoly:
    """Polynomial whose coefficient of q^i is counts[i] (0 when absent)."""
    return qpoly(counts.get(i, 0) for i in range(max(counts, default=-1) + 1))


def padd(f: QPoly, g: QPoly) -> QPoly:
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] += c
    return qpoly(out)


def pneg(f: QPoly) -> QPoly:
    return tuple(-c for c in f)


def psub(f: QPoly, g: QPoly) -> QPoly:
    return padd(f, pneg(g))


def pmul(f: QPoly, g: QPoly) -> QPoly:
    if not f or not g:
        return ZERO
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return qpoly(out)


def psum(polys: Iterable[QPoly]) -> QPoly:
    return reduce(padd, polys, ZERO)


def pscale(f: QPoly, c: int) -> QPoly:
    return qpoly(a * c for a in f)


def pshift(f: QPoly, k: int) -> QPoly:
    """Multiply by q**k."""
    if k < 0:
        raise ValueError("negative shift")
    return ((0,) * k + f) if f else ZERO


def ppow(f: QPoly, e: int) -> QPoly:
    if e < 0:
        raise ValueError("negative power")
    out = ONE
    for _ in range(e):
        out = pmul(out, f)
    return out


def peval(f: QPoly, x: int) -> int:
    out = 0
    for c in reversed(f):
        out = out * x + c
    return out


def subst_q_square(f: QPoly) -> QPoly:
    """f(q) -> f(q^2)."""
    if not f:
        return ZERO
    out = [0] * (2 * len(f) - 1)
    for i, c in enumerate(f):
        out[2 * i] = c
    return qpoly(out)


# ---------- Gaussian binomials ----------


@lru_cache(maxsize=None)
def q_binomial(n: int, h: int) -> QPoly:
    """Gaussian binomial coefficient; the zero polynomial outside 0 <= h <= n.

    Computed by the Pascal-type recurrence, so every coefficient is an exact
    integer; the partition-counting definition serves as the test oracle.

    >>> q_binomial(4, 2)
    (1, 1, 2, 1, 1)
    """
    if h < 0 or h > n:
        return ZERO
    if h == 0 or h == n:
        return ONE
    return padd(q_binomial(n - 1, h), pshift(q_binomial(n - 1, h - 1), n - h))


# ---------- closed forms ----------


def half_des_poly(n: int) -> QPoly:
    """Sum over k of binomial(n+1, 2k) q^k.

    >>> half_des_poly(3)
    (1, 6, 1)
    """
    return qpoly(comb(n + 1, 2 * k) for k in range((n + 1) // 2 + 1))


def half_des_poly_rec(n: int) -> QPoly:
    """Same polynomial from f(n) = 2 f(n-1) + (q-1) f(n-2)."""
    prev, cur = ONE, ONE_PLUS_Q
    if n == 0:
        return prev
    for _ in range(2, n + 1):
        prev, cur = cur, padd(pscale(cur, 2), psub(pshift(prev, 1), prev))
    return cur


def half_des_poly_even_part(n: int) -> QPoly:
    """Even coefficients of (1+t)^(n+1) re-indexed by t^2 -> q.

    The odd coefficients cancel between (1+t)^(n+1) and (1-t)^(n+1); the even
    ones are exactly the binomial sum, with no square roots anywhere."""
    plus = ppow(ONE_PLUS_Q, n + 1)
    minus = ppow((1, -1), n + 1)
    doubled = padd(plus, minus)
    if any(doubled[i] for i in range(1, len(doubled), 2)):
        raise ValueError("odd part failed to cancel")
    return qpoly(doubled[i] // 2 for i in range(0, len(doubled), 2))


def half_maj_poly(n: int) -> QPoly:
    """Sum over h of q^(n-h) times the Gaussian binomial (n, h).

    >>> half_maj_poly(3)
    (1, 1, 2, 3, 1)
    """
    return psum(pshift(q_binomial(n, h), n - h) for h in range(n + 1))


def half_maj_poly_diff(n: int) -> QPoly:
    """Equivalent two-term form: the plain Gaussian sum for n plus
    (q^n - 1) times the Gaussian sum for n-1."""
    total = psum(q_binomial(n, h) for h in range(n + 1))
    prev = psum(q_binomial(n - 1, h) for h in range(n))
    return padd(total, pmul(psub(pshift(ONE, n), ONE), prev))


def half_maj_poly_rec(n: int) -> QPoly:
    """Same polynomial from f(n) = (1+q) f(n-1) + (q^n - q) f(n-2)."""
    prev, cur = ONE, ONE_PLUS_Q
    if n == 0:
        return prev
    for k in range(2, n + 1):
        prev, cur = cur, padd(
            pmul(ONE_PLUS_Q, cur), pmul(psub(pshift(ONE, k), Q), prev)
        )
    return cur


def half_maj_poly_by_area(n: int) -> QPoly:
    """Area generating polynomial of the 2^n paths that start with a forced E
    step followed by any n steps.  Computed by honest enumeration; agreeing
    with half_maj_poly is a theorem, not a definition."""
    return tally_poly(
        Counter(area("E" + "".join(suffix)) for suffix in product("NE", repeat=n))
    )


def full_des_poly(n: int) -> QPoly:
    """Distribution of all descents over the even class: (1+q)^n."""
    return ppow(ONE_PLUS_Q, n)


def odd_case_polys(n: int) -> tuple[QPoly, QPoly, QPoly]:
    """(half descents, half major index, all descents) for the odd class of
    size 2n+1: a product-of-binomials sum, the central Gaussian binomial, and
    the first polynomial with q replaced by q^2."""
    half_des = qpoly(
        comb((n + 1) // 2, k) * comb(n // 2, k) for k in range(n // 2 + 1)
    )
    return half_des, q_binomial(n, n // 2), subst_q_square(half_des)
