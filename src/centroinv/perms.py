"""Permutations in one-line notation, with descent and excedance statistics.

A permutation of [m] = {1, ..., m} is stored as the tuple ``(p(1), ..., p(m))``
of 1-based values; the empty tuple is the unique permutation of [0].  All
positions reported by the ``*_set`` functions are 1-based and sorted ascending.

The classes studied here are involutions (p equal to its own inverse) that are
centrosymmetric (p(i) + p(m+1-i) = m+1 for all i) and avoid the pattern 321.
Both membership tests run in linear time.
"""

from __future__ import annotations

from itertools import compress
from operator import gt
from typing import Iterable, Sequence

Perm = tuple[int, ...]


def check_perm(p: Sequence[int]) -> None:
    """Raise ValueError unless p is a rearrangement of 1..len(p)."""
    if sorted(p) != list(range(1, len(p) + 1)):
        raise ValueError(f"not a permutation of 1..{len(p)}: {p!r}")


def parse_ints(tokens: Iterable[str]) -> tuple[int, ...]:
    """Read each token as a plain integer, an optional "-" and ASCII digits,
    with surrounding blanks ignored; a ValueError names the first bad one.
    int() alone would also take "1_0", "+1" and non-ASCII digits.

    >>> parse_ints([" 3", "-12"])
    (3, -12)
    """
    out = []
    for tok in tokens:
        text = tok.strip()
        digits = text[1:] if text.startswith("-") else text
        try:
            if not (digits.isascii() and digits.isdigit()):
                raise ValueError
            out.append(int(text))  # which also refuses over 4300 digits
        except ValueError:
            raise ValueError(f"not an integer: {tok!r}") from None
    return tuple(out)


def parse_perm(text: str) -> Perm:
    """Parse space-separated one-line notation.

    >>> parse_perm("2 1 4 3")
    (2, 1, 4, 3)
    """
    p = parse_ints(text.split())
    check_perm(p)
    return p


class _Text(dict):
    """Decimal text of small integers; any other value is formatted, not
    stored, so the table never grows."""

    def __missing__(self, v: int) -> str:
        return str(v)


# every entry of a permutation of up to 64 points or of a signed window of
# up to 64 letters; a dict lookup is about three times faster than str()
_TEXT = _Text((v, str(v)) for v in range(-64, 65))


def format_perm(p: Perm) -> str:
    """One-line notation, entries separated by single spaces; negative
    entries (signed windows) are written with their sign.

    >>> format_perm((2, -1, 100))
    '2 -1 100'
    """
    return " ".join(map(_TEXT.__getitem__, p))


# is_involution and is_centrosymmetric run once or twice per object of a
# driver; a plain loop takes about half the time of all() over a generator
def is_involution(p: Perm) -> bool:
    for i, v in enumerate(p, start=1):
        if p[v - 1] != i:
            return False
    return True


def is_centrosymmetric(p: Perm) -> bool:
    """True iff p(i) + p(m+1-i) = m+1 for all i.

    >>> is_centrosymmetric((2, 1, 4, 3))
    True
    >>> is_centrosymmetric((1, 3, 2))
    False
    """
    m = len(p)
    # the pair condition is symmetric, so the first half of the positions,
    # with the middle one when m is odd, covers every pair
    for i in range((m + 1) // 2):
        if p[i] + p[m - 1 - i] != m + 1:
            return False
    return True


def descent_set(p: Perm) -> tuple[int, ...]:
    """Positions i with p(i) > p(i+1), ascending.

    >>> descent_set((3, 4, 1, 2))
    (2,)
    """
    return tuple(compress(range(1, len(p)), map(gt, p, p[1:])))


def des(p: Perm) -> int:
    return sum(map(gt, p, p[1:]))


def maj(p: Perm) -> int:
    """Sum of the descent positions."""
    return sum(compress(range(1, len(p)), map(gt, p, p[1:])))


# the half versions compare p(i) with p(i+1) for i = 1..floor(m/2); map
# stops at its shortest input, so slicing the second argument is enough


def half_descent_set(p: Perm) -> tuple[int, ...]:
    """Descents at positions at most floor(m/2).

    For a centrosymmetric p the full descent set is recoverable from this
    half: i is a descent iff m-i is.
    """
    n = len(p) // 2
    return tuple(compress(range(1, n + 1), map(gt, p, p[1 : n + 1])))


def half_des(p: Perm) -> int:
    return sum(map(gt, p, p[1 : len(p) // 2 + 1]))


def half_maj(p: Perm) -> int:
    n = len(p) // 2
    return sum(compress(range(1, n + 1), map(gt, p, p[1 : n + 1])))


def fixed_point_count(p: Perm) -> int:
    return sum(1 for i, v in enumerate(p, start=1) if v == i)


# ---------- pattern containment ----------


def contains_321(p: Perm) -> bool:
    """True iff some i < j < k has p(i) > p(j) > p(k).  Linear scan.

    An entry that is not a left-to-right maximum can serve as the middle
    letter of a 321; it suffices to remember the largest such entry.

    >>> contains_321((4, 2, 3, 1))
    True
    >>> contains_321((2, 1, 3, 5, 4))
    False
    """
    best_mid = 0
    prefix_max = 0
    for v in p:
        if v < best_mid:
            return True
        if v < prefix_max:
            if v > best_mid:
                best_mid = v
        else:
            prefix_max = v
    return False

