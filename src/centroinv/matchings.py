"""Centrosymmetric 321-avoiding involutions as symmetric non-nesting matchings.

An involution of [2n] is the same thing as a partial matching on 2n points:
the arcs are the 2-cycles, the singletons the fixed points.  Under this
identification

* centrosymmetry of the involution becomes symmetry of the matching under
  i -> 2n+1-i, and
* 321-avoidance becomes the non-nesting condition: no arc strictly inside
  another, no singleton strictly inside an arc.

The key construction realises every such involution from a subset E of [n]:
scan E ascending and arc each unmatched i in E to the smallest unmatched
j > i outside E, then add the mirror arc (2n+1-j, 2n+1-i) unless it is the
same arc.  The resulting map E -> involution is a bijection from subsets of
[n] onto the class, with inverse "excedance positions in the first half".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

from centroinv.perms import (
    Perm,
    contains_321,
    is_centrosymmetric,
    is_involution,
    parse_ints,
)


@dataclass(frozen=True)
class Matching:
    """Partial matching on points 1..points; arcs sorted by left endpoint."""

    points: int
    arcs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        seen: set[int] = set()
        for i, j in self.arcs:
            if not 1 <= i < j <= self.points:
                raise ValueError(f"bad arc ({i},{j}) on {self.points} points")
            if i in seen or j in seen:
                raise ValueError(f"endpoint reused in arc ({i},{j})")
            seen.update((i, j))
        if list(self.arcs) != sorted(self.arcs):
            raise ValueError("arcs must be sorted by left endpoint")


def matching(points: int, arcs: Iterable[tuple[int, int]]) -> Matching:
    """Canonicalizing constructor: orient and sort the arcs."""
    canon = sorted(tuple(sorted(a)) for a in arcs)
    return Matching(points, tuple((i, j) for i, j in canon))


def parse_matching(text: str, points: int) -> Matching:
    """Parse "1-2,4-6" (empty string for the arcless matching)."""
    arcs = []
    for chunk in filter(None, (c.strip() for c in text.split(","))):
        try:
            left, right = map(int, chunk.split("-"))
        except ValueError:
            raise ValueError(f"bad arc {chunk!r}, expected i-j") from None
        arcs.append((left, right))
    return matching(points, arcs)


def format_matching(mch: Matching) -> str:
    return ",".join(f"{i}-{j}" for i, j in mch.arcs)


def is_symmetric(mch: Matching) -> bool:
    """Closed under the reflection i -> points+1-i."""
    total = mch.points + 1
    arcset = set(mch.arcs)
    return all((total - j, total - i) in arcset for i, j in mch.arcs)


def is_nonnesting(mch: Matching) -> bool:
    """No arc strictly inside another arc, no singleton inside an arc.

    One sweep over the points: reach is the furthest right end of the arcs
    opened so far, and an arc ending before it, or a singleton below it, is
    nested.
    """
    ends: list[int | None] = list(range(mch.points + 1))  # a singleton ends at itself
    for i, j in mch.arcs:
        ends[i], ends[j] = j, None
    reach = 0
    for end in ends:
        if end is not None:
            if end < reach:
                return False
            reach = end
    return True


# ---------- involutions <-> matchings ----------


def involution_matching(p: Perm) -> Matching:
    """Matching whose arcs are the 2-cycles of a centrosymmetric involution.

    The result is symmetric; it is non-nesting iff p avoids 321.
    """
    if len(p) % 2:
        raise ValueError("even size required")
    if not is_involution(p):
        raise ValueError("not an involution")
    if not is_centrosymmetric(p):
        raise ValueError("not centrosymmetric")
    return Matching(len(p), _two_cycles(p))


def _two_cycles(p: Perm) -> tuple[tuple[int, int], ...]:
    return tuple((i, v) for i, v in enumerate(p, start=1) if i < v)


def matching_permutation(mch: Matching) -> Perm:
    """Involution of a symmetric non-nesting matching; rejects other input."""
    if not is_symmetric(mch):
        raise ValueError("matching is not symmetric")
    if not is_nonnesting(mch):
        raise ValueError("matching is nesting")
    vals = list(range(1, mch.points + 1))
    for i, j in mch.arcs:
        vals[i - 1] = j
        vals[j - 1] = i
    return tuple(vals)


# ---------- subsets of [n] ----------


class Subset(NamedTuple):
    """A subset of [n], the free parameter of the bijection.

    mask is the one encoding of the members: bit i-1 is set iff i is a
    member, so 0 <= mask < 2**n.
    """

    n: int
    mask: int


def subset(n: int, members: Iterable[int]) -> Subset:
    ms = frozenset(members)
    if not all(1 <= i <= n for i in ms):
        raise ValueError(f"members must lie in 1..{n}: {sorted(ms)}")
    return Subset(n, sum(1 << (i - 1) for i in ms))


def _set_bits(mask: int) -> Iterator[int]:
    """1-based positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length()
        mask ^= low


def parse_subset(text: str, n: int) -> Subset:
    return subset(n, parse_ints(tok for tok in text.split(",") if tok.strip()))


def format_subset(e: Subset) -> str:
    return ",".join(map(str, _set_bits(e.mask)))


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
    return Subset(n, sum(1 << i for i in range(n) if p[i] > i + 1))


def subset_involution(e: Subset) -> Perm:
    """The member of the class indexed by e.

    Scan the members ascending; arc each still-unmatched i to the smallest
    unmatched j > i outside the subset, and mirror the arc through the
    centre.  A partner always exists, so no error case.
    """
    total = 2 * e.n
    partner = list(range(total + 1))  # partner[i] == i: i is still free
    for i in _set_bits(e.mask):
        if partner[i] != i:
            continue
        j = i + 1
        while partner[j] != j or e.mask >> (j - 1) & 1:
            j += 1
        partner[i], partner[j] = j, i
        si, sj = total + 1 - j, total + 1 - i
        partner[si], partner[sj] = sj, si
    return tuple(partner[1:])


def subset_matching(e: Subset) -> Matching:
    """Symmetric non-nesting matching attached to e: the 2-cycles of
    subset_involution(e)."""
    p = subset_involution(e)
    return Matching(len(p), _two_cycles(p))


# ---------- statistics carried by the subset ----------


def _descent_mask(e: Subset) -> int:
    # bit i-1 set iff i is a member and i+1 is not
    return e.mask & ~(e.mask >> 1)


def subset_descents(e: Subset) -> tuple[int, ...]:
    """{i in E : i+1 not in E}; i = n qualifies whenever n is a member.

    Equals the half descent set of the involution attached to e.
    """
    return tuple(_set_bits(_descent_mask(e)))


def subset_des(e: Subset) -> int:
    return _descent_mask(e).bit_count()


def subset_maj(e: Subset) -> int:
    return sum(subset_descents(e))


def des_from_subset(e: Subset) -> int:
    """Full descent count of the attached involution: descents mirror through
    the centre and the two halves overlap exactly when n is a member."""
    d = 2 * subset_des(e)
    return d - 1 if e.n and e.mask >> (e.n - 1) & 1 else d


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
