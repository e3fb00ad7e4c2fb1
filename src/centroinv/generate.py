"""Exhaustive, duplicate-free generators for every object class.

Each generator yields a deterministic stream; stream lengths match the known
counting formulas (2^n for the even class, the central binomial coefficient
for the odd class, binomial(a+b, a) for rectangle paths, 2^n n! for signed
permutations).

Every generator takes an optional shard: with nshards workers, worker k gets
the objects whose leading choice (first-position branch, leading subset bits)
hashes to k, so a sharded run covers the stream exactly once.  Aggregation
downstream is commutative, which keeps sharded output identical to serial.
"""

from __future__ import annotations

from itertools import permutations as _permutations
from typing import Iterator

from centroinv import matchings
from centroinv.matchings import Subset, odd_join, subset_involution
from centroinv.paths import all_paths
from centroinv.perms import Perm, contains_321, is_centrosymmetric
from centroinv.signed import SignedPerm, is_top_element

CLASS_LABELS = (
    "cinv321-even",
    "cinv321-odd",
    "inv321",
    "signed-all",
    "signed-sixavoiders",
    "subsets",
    "paths-rect",
)


def _check_shard(shard: int, nshards: int) -> None:
    if nshards < 1 or not 0 <= shard < nshards:
        raise ValueError(f"bad shard {shard}/{nshards}")


def involutions(m: int, shard: int = 0, nshards: int = 1) -> Iterator[Perm]:
    """All involutions of [m] by direct construction: the smallest unplaced
    point is either fixed or paired with a larger unplaced point."""
    _check_shard(shard, nshards)
    if m == 0:
        if shard == 0:
            yield ()
        return
    vals = [0] * (m + 1)

    def rec(i: int) -> Iterator[Perm]:
        while i <= m and vals[i]:
            i += 1
        if i > m:
            yield tuple(vals[1:])
            return
        vals[i] = i
        yield from rec(i + 1)
        vals[i] = 0
        for j in range(i + 1, m + 1):
            if not vals[j]:
                vals[i] = j
                vals[j] = i
                yield from rec(i + 1)
                vals[j] = 0
        vals[i] = 0

    # shard on the choice made at position 1: fixed, or paired with j
    for branch in range(m):
        if branch % nshards != shard:
            continue
        if branch == 0:
            vals[1] = 1
            yield from rec(2)
            vals[1] = 0
        else:
            j = branch + 1
            vals[1] = j
            vals[j] = 1
            yield from rec(2)
            vals[1] = 0
            vals[j] = 0


def centro_perms(m: int, shard: int = 0, nshards: int = 1) -> Iterator[Perm]:
    """All centrosymmetric permutations of [m], generated directly.

    The first half may take one value out of each mirror pair {v, m+1-v},
    with the pairs themselves permuted: 2^n n! objects, n = floor(m/2)."""
    _check_shard(shard, nshards)
    n = m // 2
    if n == 0:
        if shard == 0:
            yield tuple(range(1, m + 1))
        return
    middle = (n + 1,) if m % 2 else ()
    for sigma in _permutations(range(1, n + 1)):
        for mask in range(1 << n):
            if (2 * (sigma[0] - 1) + (mask & 1)) % nshards != shard:
                continue
            first = tuple(
                m + 1 - sigma[i] if mask >> i & 1 else sigma[i] for i in range(n)
            )
            back = tuple(m + 1 - first[n - 1 - i] for i in range(n))
            yield first + middle + back


def signed_perms(n: int, shard: int = 0, nshards: int = 1) -> Iterator[SignedPerm]:
    """All 2^n n! signed permutation windows."""
    _check_shard(shard, nshards)
    if n == 0:
        if shard == 0:
            yield ()
        return
    for tau in _permutations(range(1, n + 1)):
        for mask in range(1 << n):
            if (2 * (tau[0] - 1) + (mask & 1)) % nshards != shard:
                continue
            yield tuple(-tau[i] if mask >> i & 1 else tau[i] for i in range(n))


def subsets(n: int, shard: int = 0, nshards: int = 1) -> Iterator[Subset]:
    """All subsets of [n] in mask order (bit i-1 is membership of i)."""
    _check_shard(shard, nshards)
    prefix_bits = min(n, max(nshards - 1, 0).bit_length())
    prefix_mask = (1 << prefix_bits) - 1
    for mask in range(1 << n):
        if (mask & prefix_mask) % nshards != shard:
            continue
        yield Subset(
            n, frozenset(i for i in range(1, n + 1) if mask >> (i - 1) & 1)
        )


def inv321(m: int, shard: int = 0, nshards: int = 1) -> Iterator[Perm]:
    """321-avoiding involutions of [m] (filter route)."""
    return (p for p in involutions(m, shard, nshards) if not contains_321(p))


def cinv321_even(
    m: int, route: str = "subsets", shard: int = 0, nshards: int = 1
) -> Iterator[Perm]:
    """The even class, either through the subset bijection or by filtering
    all involutions; the two routes are cross-checked in the harness."""
    if m % 2:
        raise ValueError("even size required")
    if route == "subsets":
        return (subset_involution(e) for e in subsets(m // 2, shard, nshards))
    if route == "filter":
        return (
            p
            for p in involutions(m, shard, nshards)
            if is_centrosymmetric(p) and not contains_321(p)
        )
    raise ValueError(f"unknown route {route!r}")


def cinv321_odd(
    m: int, route: str = "join", shard: int = 0, nshards: int = 1
) -> Iterator[Perm]:
    """The odd class, through the centre-fixing join or by filtering."""
    if m % 2 == 0:
        raise ValueError("odd size required")
    if route == "join":
        return map(odd_join, inv321(m // 2, shard, nshards))
    if route == "filter":
        return (
            p
            for p in involutions(m, shard, nshards)
            if is_centrosymmetric(p) and not contains_321(p)
        )
    raise ValueError(f"unknown route {route!r}")


def generate_class(label: str, size: int, shard: int = 0, nshards: int = 1):
    """Stream one of the named classes at the given size."""
    if label == "cinv321-even":
        return cinv321_even(size, "subsets", shard, nshards)
    if label == "cinv321-odd":
        return cinv321_odd(size, "join", shard, nshards)
    if label == "inv321":
        return inv321(size, shard, nshards)
    if label == "signed-all":
        return signed_perms(size, shard, nshards)
    if label == "signed-sixavoiders":
        return (
            s for s in signed_perms(size, shard, nshards) if is_top_element(s)
        )
    if label == "subsets":
        return subsets(size, shard, nshards)
    if label == "paths-rect":
        return all_paths(size, shard, nshards)
    raise ValueError(f"unknown class {label!r}")


def format_object(label: str, obj) -> str:
    """Textual form of a generated object, by class."""
    if label in (
        "cinv321-even", "cinv321-odd", "inv321", "signed-all", "signed-sixavoiders"
    ):
        return " ".join(str(v) for v in obj)
    if label == "subsets":
        return matchings.format_subset(obj)
    if label == "paths-rect":
        return obj
    raise ValueError(f"unknown class {label!r}")
