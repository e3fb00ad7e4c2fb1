"""Code that only the tests use: reference implementations to compare the
package against (the exhaustive pattern scan, the pairwise non-nesting test,
the filtered class generator) and small helpers for building test cases.
"""

from itertools import combinations
from typing import Iterator

from centroinv.generate import involutions
from centroinv.paths import check_path
from centroinv.perms import Perm, _rank_word, contains_321, is_centrosymmetric


def identity(m: int) -> Perm:
    return tuple(range(1, m + 1))


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, v in enumerate(p, start=1):
        inv[v - 1] = i
    return tuple(inv)


def complement(p: Perm) -> Perm:
    m = len(p)
    return tuple(m + 1 - v for v in p)


# ---------- pattern containment ----------


def contains_123(p: Perm) -> bool:
    """True iff p has an increasing subsequence of length three."""
    return contains_321(complement(p))


def contains_pattern_naive(p: Perm, t: Perm) -> bool:
    """Exhaustive subsequence scan; the reference check for any pattern."""
    k = len(t)
    if k > len(p):
        return False
    if k == 0:
        return True
    target = _rank_word(t)
    for pos in combinations(range(len(p)), k):
        if _rank_word([p[i] for i in pos]) == target:
            return True
    return False


def contains_pattern(p: Perm, t: Perm) -> bool:
    """Pattern containment; 321 and 123 get the linear scan, the rest the
    exhaustive check."""
    t = tuple(t)
    if t == (3, 2, 1):
        return contains_321(p)
    if t == (1, 2, 3):
        return contains_123(p)
    return contains_pattern_naive(p, t)


def avoids(p: Perm, t: Perm) -> bool:
    return not contains_pattern(p, t)


# ---------- matchings ----------


def singletons(p: Perm) -> tuple[int, ...]:
    return tuple(i for i, v in enumerate(p, start=1) if i == v)


def is_nonnesting_pairwise(p: Perm) -> bool:
    """The definition, pair by pair: no arc strictly inside another arc, no
    singleton inside an arc."""
    arcs = [(i, v) for i, v in enumerate(p, start=1) if i < v]
    for (i, l), (j, k) in combinations(arcs, 2):
        if i < j and k < l:
            return False
    for s in singletons(p):
        if any(i < s < j for i, j in arcs):
            return False
    return True


# ---------- paths ----------


def rotate_first_to_last(word: str) -> str:
    """Move the first step to the end.  Shifts area by +(number of E steps)
    when the word starts with N, by -(number of N steps) otherwise."""
    check_path(word)
    if not word:
        raise ValueError("empty path")
    return word[1:] + word[0]


# ---------- the even and odd classes ----------


def filtered_class(m: int) -> Iterator[Perm]:
    """Reference generator for the even and odd classes: every involution of
    [m] that is centrosymmetric and avoids 321.  It shares no code with
    subset_involution or odd_join, so it can check both."""
    return (
        p
        for p in involutions(m)
        if is_centrosymmetric(p) and not contains_321(p)
    )
