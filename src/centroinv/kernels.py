"""The census: one fused walk over the even or odd class that counts it and
tallies the statistics the theorem drivers compare against.

This is the brute-force side of the counting and distribution checks, kept
independent of the generators: it builds the 321-avoiding centrosymmetric
involutions of [m] in its own recursion and evaluates 321-avoidance and the
descent statistics inline.  Every arc is placed together with its mirror under
the half-turn i -> m+1-i, so the walk visits only the centrosymmetric
involutions (OEIS A000898: 6512 at m = 14 and 15) instead of all involutions
(2.4 million and 10.3 million).  ``census`` is cached, so repeated theorem
checks in one process pay for each sweep once.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType

BACKEND = "python"


@lru_cache(maxsize=None)
def census(m: int) -> MappingProxyType:
    """One pass over the centrosymmetric involutions of [m]: count those that
    avoid 321 and tally the statistics the theorem drivers read.

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

    perm = [0] * (m + 1)  # 1-based; 0 marks unassigned

    def visit() -> None:
        nonlocal count
        best_mid = 0
        prefix_max = 0
        for i in range(1, m + 1):
            v = perm[i]
            if v < best_mid:
                return
            if v < prefix_max:
                if v > best_mid:
                    best_mid = v
            else:
                prefix_max = v
        d = dp = mjp = 0
        for i in range(1, m):
            if perm[i] > perm[i + 1]:
                d += 1
                if i <= n:
                    dp += 1
                    mjp += i
        count += 1
        des_t[d] += 1
        desp_t[dp] += 1
        majp_t[mjp] += 1

    def rec(i: int) -> None:
        # the smallest unplaced point i is fixed (j == i) or paired with j > i
        while i <= m and perm[i]:
            i += 1
        if i > m:
            visit()
            return
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
                rec(i + 1)
            for a in placed:
                perm[a] = 0

    rec(1)
    return MappingProxyType(
        {"count": count, "des": tuple(des_t), "des+": tuple(desp_t),
         "maj+": tuple(majp_t)}
    )
