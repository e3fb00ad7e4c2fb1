"""Centrosymmetric 321-avoiding involutions as symmetric non-nesting matchings.

A partial matching on m points is stored as an involution p of [m]: p(i) is
the partner of i, a singleton is a fixed point, and the arcs are the pairs
(i, p(i)) with i < p(i).  Under this identification

* symmetry of the matching under i -> m+1-i is centrosymmetry of the
  involution, and
* the non-nesting condition (no arc strictly inside another, no singleton
  strictly inside an arc) is 321-avoidance.

The key construction realises every such involution from a subset E of [n]:
scan E ascending and arc each unmatched i in E to the smallest unmatched
j > i outside E, then add the mirror arc (2n+1-j, 2n+1-i) unless it is the
same arc.  The resulting map E -> involution is a bijection from subsets of
[n] onto the class, with inverse "excedance positions in the first half".

The same map is a FIFO scan of the first half.  Scan 1..n with a queue of
pending openers: a member of E joins the queue; a non-member is arced to the
oldest pending opener, or is a fixed point if none is pending.  The q
openers a_1 < ... < a_q still pending at the end cross the centre,
p(a_k) = 2n+1 - a_{q+1-k}, and the second half is the mirror of the first,
p(2n+1-i) = 2n+1 - p(i).  centroinv.generate builds the class in blocks on
this view; subset_involution keeps the arc-by-arc form above.

A subset E of [n] is the plain pair (n, mask), bit i-1 of mask set iff i is
in E.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from centroinv.perms import (
    Perm,
    contains_321,
    is_centrosymmetric,
    is_involution,
    parse_ints,
)


def parse_matching(text: str, points: int) -> Perm:
    """Parse "1-2,4-3" (empty string for the arcless matching); an arc may
    be written either way round.

    >>> parse_matching("1-2,4-3", 5)
    (2, 1, 4, 3, 5)
    """
    arcs = []
    for chunk in filter(None, (c.strip() for c in text.split(","))):
        try:
            left, right = parse_ints(chunk.split("-"))
        except ValueError:
            raise ValueError(f"bad arc {chunk!r}, expected i-j") from None
        arcs.append((min(left, right), max(left, right)))
    partner = list(range(points + 1))  # partner[i] == i: i is a singleton
    for i, j in sorted(arcs):
        if not 1 <= i < j <= points:
            raise ValueError(f"bad arc ({i},{j}) on {points} points")
        if partner[i] != i or partner[j] != j:
            raise ValueError(f"endpoint reused in arc ({i},{j})")
        partner[i], partner[j] = j, i
    return tuple(partner[1:])


def format_matching(p: Perm) -> str:
    """The arcs i-p(i) with i < p(i), by left endpoint.

    >>> format_matching((2, 1, 4, 3, 5))
    '1-2,3-4'
    """
    return ",".join(f"{i}-{v}" for i, v in enumerate(p, start=1) if i < v)


def is_nonnesting(p: Perm) -> bool:
    """No arc strictly inside another arc, no singleton inside an arc.

    One sweep over the points: a point with p(i) >= i opens an arc, or is a
    singleton, that ends at p(i); reach is the furthest such end so far, and
    one ending before it is nested.
    """
    reach = 0
    for i, end in enumerate(p, start=1):
        if end >= i:
            if end < reach:
                return False
            reach = end
    return True


# ---------- involutions <-> matchings ----------


def involution_matching(p: Perm) -> Perm:
    """p itself, once checked to be a centrosymmetric involution, of either
    parity.

    The matching is symmetric; it is non-nesting iff p avoids 321.
    """
    if not is_involution(p):
        raise ValueError("not an involution")
    if not is_centrosymmetric(p):
        raise ValueError("not centrosymmetric")
    return p


def matching_permutation(p: Perm) -> Perm:
    """p itself, once checked to be a symmetric non-nesting matching."""
    if not is_centrosymmetric(p):
        raise ValueError("matching is not symmetric")
    if not is_nonnesting(p):
        raise ValueError("matching is nesting")
    return p


# ---------- subsets of [n] ----------


Subset = tuple[int, int]


def subset(n: int, members: Iterable[int]) -> Subset:
    ms = frozenset(members)
    if not all(1 <= i <= n for i in ms):
        raise ValueError(f"members must lie in 1..{n}: {sorted(ms)}")
    return n, sum(1 << (i - 1) for i in ms)


def _set_bits(mask: int) -> Iterator[int]:
    """1-based positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length()
        mask ^= low


def parse_subset(text: str, n: int) -> Subset:
    return subset(n, parse_ints(tok for tok in text.split(",") if tok.strip()))


def format_subset(e: Subset) -> str:
    _, mask = e
    return ",".join(map(str, _set_bits(mask)))


def excedance_subset(p: Perm) -> Subset:
    """Excedance positions of p that lie in the first half.

    Defined for 321-avoiding centrosymmetric involutions of even size; this
    is the inverse of subset_involution.
    """
    if len(p) % 2:
        raise ValueError("even size required")
    if not is_involution(p):
        raise ValueError("not an involution")
    if not is_centrosymmetric(p):
        raise ValueError("not centrosymmetric")
    if contains_321(p):
        raise ValueError("contains 321")
    n = len(p) // 2
    return n, sum(1 << i for i in range(n) if p[i] > i + 1)


def subset_involution(e: Subset) -> Perm:
    """The member of the class indexed by e.

    Scan the members ascending; arc each still-unmatched i to the smallest
    unmatched j > i outside the subset, and mirror the arc through the
    centre.  A partner always exists, so no error case.
    """
    n, mask = e
    total = 2 * n
    partner = list(range(total + 1))  # partner[i] == i: i is still free
    for i in _set_bits(mask):
        if partner[i] != i:
            continue
        j = i + 1
        while partner[j] != j or mask >> (j - 1) & 1:
            j += 1
        partner[i], partner[j] = j, i
        si, sj = total + 1 - j, total + 1 - i
        partner[si], partner[sj] = sj, si
    return tuple(partner[1:])


# ---------- statistics carried by the subset ----------


def _descent_mask(e: Subset) -> int:
    # bit i-1 set iff i is a member and i+1 is not
    _, mask = e
    return mask & ~(mask >> 1)


def subset_des(e: Subset) -> int:
    return _descent_mask(e).bit_count()


def subset_maj(e: Subset) -> int:
    """Sum of the descents {i in E : i+1 not in E}, the set bits of the
    descent mask."""
    return sum(_set_bits(_descent_mask(e)))


def des_from_subset(e: Subset) -> int:
    """Full descent count of the attached involution: descents mirror through
    the centre and the two halves overlap exactly when n is a member."""
    n, mask = e
    d = 2 * subset_des(e)
    return d - 1 if n and mask >> (n - 1) & 1 else d


# ---------- odd sizes ----------


def odd_join(alpha: Perm) -> Perm:
    """Embed a 321-avoiding involution of [n] as the class member of [2n+1]
    fixing the centre: alpha, then n+1, then the reversed complement.

    >>> odd_join((2, 1))
    (2, 1, 3, 5, 4)
    """
    if not is_involution(alpha):
        raise ValueError("not an involution")
    if contains_321(alpha):
        raise ValueError("contains 321")
    n = len(alpha)
    back = tuple(2 * n + 2 - alpha[n - i] for i in range(1, n + 1))
    return alpha + (n + 1,) + back


def odd_split(p: Perm) -> Perm:
    """First n letters of an odd-size centrosymmetric involution; inverse of
    odd_join."""
    if len(p) % 2 == 0:
        raise ValueError("odd size required")
    if not is_centrosymmetric(p):
        raise ValueError("not centrosymmetric")
    return p[: len(p) // 2]
