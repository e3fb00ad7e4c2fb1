"""Signed permutations and the half-window encoding of centrosymmetric maps.

A signed permutation of [n] is stored as its window (s(1), ..., s(n)), a
tuple of nonzero integers whose absolute values rearrange 1..n.  The group of
these is isomorphic to the centrosymmetric subgroup of the symmetric group on
[2n]: theta reads the second half of a centrosymmetric p and recentres it
around zero, and theta_inverse rebuilds p from the window (unfold_window
rebuilds it unchecked, for generated windows).

Containment of a signed pattern asks for a subsequence whose absolute values
are order-isomorphic to those of the pattern and whose signs agree entrywise;
signed_pattern gives the signed pattern of one subsequence, so s avoids t
iff no length-len(t) subsequence of s has the signed pattern t.
Avoiding the six patterns in TOP_PATTERNS characterises the image under theta
of the 321-avoiding centrosymmetric permutations; these are the fully
commutative top elements of the hyperoctahedral group.

The six patterns come down to two conditions on the window, which
is_top_element checks in one pass:

* (1, -2) and (-1, -2): every negative entry has the smallest |value| seen
  so far, i.e. it is a prefix minimum of |s|;
* (3, 2, 1), (-3, 2, 1), (3, 2, -1) and (-3, 2, -1): no positive entry has
  both an earlier entry of larger |value| and a later entry of smaller
  |value|.

Given |s|, each condition acts on one entry alone, so they also build the
avoiders: centroinv.generate streams the signed-sixavoiders class as the
product, for each |s|, of the signs each entry may take, and tests no
window.  is_top_element and a scan that reads signed_pattern stay the
routes that T-sixpat compares.
"""

from __future__ import annotations

from functools import cache

from centroinv.perms import Perm, is_centrosymmetric, parse_ints

SignedPerm = tuple[int, ...]

#: Signed patterns avoided by fully commutative top elements.
TOP_PATTERNS: tuple[SignedPerm, ...] = (
    (3, 2, 1),
    (-3, 2, 1),
    (3, 2, -1),
    (-3, 2, -1),
    (1, -2),
    (-1, -2),
)


def check_signed(s: SignedPerm) -> None:
    if any(v == 0 for v in s) or sorted(abs(v) for v in s) != list(
        range(1, len(s) + 1)
    ):
        raise ValueError(f"not a signed permutation window: {s!r}")


def parse_signed(text: str) -> SignedPerm:
    s = parse_ints(text.split())
    check_signed(s)
    return s


def theta(p: Perm) -> SignedPerm:
    """Window of a centrosymmetric permutation of even size 2n: entry i is
    p(n+i) - n when p(n+i) > n, else p(n+i) - n - 1.

    >>> theta((2, 4, 8, 6, 3, 1, 5, 7))
    (-2, -4, 1, 3)
    """
    if len(p) % 2:
        raise ValueError("even size required")
    if not is_centrosymmetric(p):
        raise ValueError("not centrosymmetric")
    n = len(p) // 2
    return tuple(
        v - n if v > n else v - n - 1 for v in (p[n + i] for i in range(n))
    )


def theta_inverse(s: SignedPerm) -> Perm:
    """Centrosymmetric permutation of [2n] whose window is s.

    >>> theta_inverse((-4, 3, 2, -1))
    (5, 3, 2, 8, 1, 7, 6, 4)
    """
    check_signed(s)
    return unfold_window(s)


def unfold_window(s: SignedPerm) -> Perm:
    """theta_inverse without the window check, for windows that a generator
    has just built and that are valid by construction.  Input from outside
    the program goes through theta_inverse."""
    second, first = _unfold_tables(len(s))
    return (*map(first, reversed(s)), *map(second, s))


@cache
def _unfold_tables(n: int):
    # entry v of a window of [n] is p(n+i): v + n for v > 0 and v + n + 1 for
    # v < 0, which index -|v| reads from the end of the table; its mirror
    # p(n+1-i) is 2n+1 minus that
    second = [0, *range(n + 1, 2 * n + 1), *range(1, n + 1)]
    first = [2 * n + 1 - v for v in second]
    return second.__getitem__, first.__getitem__


def signed_pattern(sub: SignedPerm) -> SignedPerm:
    """The signed pattern of a sequence of nonzero entries with distinct
    |values|: each entry becomes the rank of its |value| in the sequence,
    carrying the entry's sign.

    >>> signed_pattern((3, -1, 5)), signed_pattern(())
    ((2, -1, 3), ())
    """
    order = sorted(map(abs, sub))
    return tuple(order.index(v) + 1 if v > 0 else -order.index(-v) - 1 for v in sub)


def is_top_element(s: SignedPerm) -> bool:
    """True iff s avoids all six patterns in TOP_PATTERNS, in O(n): a running
    minimum and maximum of |s| from the left and a minimum from the right.

    >>> is_top_element((-2, -4, 1, 3))
    False
    >>> is_top_element((-2, -1, 4, 3))
    True
    """
    n = len(s)
    # after_min[j] is the smallest |value| right of position j
    after_min = [n + 1] * n
    for j in range(n - 1, 0, -1):
        after_min[j - 1] = min(after_min[j], abs(s[j]))
    low, high = n + 1, 0
    for j, v in enumerate(s):
        a = abs(v)
        if v < 0:
            if a > low:
                return False
        elif high > a > after_min[j]:
            return False
        if a < low:
            low = a
        if a > high:
            high = a
    return True
