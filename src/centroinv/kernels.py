"""The census: one fused walk over the even or odd class that counts it and
tallies the statistics the theorem drivers compare against.

This is the brute-force side of the counting and distribution checks, kept
independent of the generators: it builds the 321-avoiding centrosymmetric
involutions of [m] in its own recursion, cuts each branch at its first 321
and tallies the descent statistics on the way down.  Every arc is placed
together with its mirror under the half-turn i -> m+1-i, so the walk stays
among the centrosymmetric involutions (OEIS A000898: 6512 at m = 14 and 15),
not all involutions (2.4 million and 10.3 million).  ``census`` is cached, so
repeated theorem checks in one process pay for each sweep once.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType


@lru_cache(maxsize=None)
def census(m: int) -> MappingProxyType:
    """One pass over the 321-avoiding centrosymmetric involutions of [m]:
    count them and tally the statistics the theorem drivers read.

    Positions before the smallest unplaced point are final, so the walk
    carries their linear 321 state (top, the largest value so far; mid, the
    largest value below an earlier larger one) and their descent counts d,
    dp and mjp.  A value below mid ends the branch, and so does an unplaced
    point i below mid, since the value i will land right of mid, and so does
    a later point that a mirror arc already filled below mid; passing m adds
    a member.

    Returns a read-only mapping with "count" plus three tally tuples ("des",
    "des+", "maj+") where entry i counts members with statistic i.
    """
    if m < 0 or m > 20:
        raise ValueError("m out of supported range 0..20")
    n = m // 2
    des_t = [0] * (max(m, 1))
    desp_t = [0] * (n + 1)
    majp_t = [0] * (n * (n + 1) // 2 + 1)
    count = 0

    perm = [0] * (m + 1)  # 1-based; 0 marks unassigned, and perm[0] stays 0

    def rec(i: int, top: int, mid: int, d: int, dp: int, mjp: int) -> None:
        nonlocal count
        while i <= m and perm[i]:
            v = perm[i]
            if v < mid:
                return
            if v < top:
                mid = v
            else:
                top = v
            if perm[i - 1] > v:  # a descent at i - 1
                d += 1
                if i <= n + 1:
                    dp += 1
                    mjp += i - 1
            i += 1
        if i > m:
            count += 1
            des_t[d] += 1
            desp_t[dp] += 1
            majp_t[mjp] += 1
            return
        if mid > i:  # the value i lands right of mid: a 321
            return
        for j in range(i + 1, m + 1):
            if 0 < perm[j] < mid:  # a placed later value below mid: a 321
                return
        # point i is fixed (j == i) or paired with j > i
        for j in range(i, m + 1):
            if perm[j]:
                continue
            placed = []
            for a, b in ((i, j), (j, i), (m + 1 - i, m + 1 - j), (m + 1 - j, m + 1 - i)):
                if not perm[a]:
                    perm[a] = b
                    placed.append(a)
                elif perm[a] != b:  # the mirror arc clashes with this one
                    break
            else:
                rec(i, top, mid, d, dp, mjp)
            for a in placed:
                perm[a] = 0

    rec(1, 0, 0, 0, 0, 0)
    return MappingProxyType(
        {"count": count, "des": tuple(des_t), "des+": tuple(desp_t),
         "maj+": tuple(majp_t)}
    )
