"""Code that only the tests use: reference implementations to compare the
package against (the exhaustive pattern scans, plain and signed, the signed
patterns of every subsequence of a window, the descent scans, the pairwise
non-nesting test, the subset descent set, the step-by-step area, the
partition of a path and its hooks by peeling, the maps g and g^-1 by peak
coordinates, the rectangle path enumerator, row insertion, the filtered class generator, the per-mask path
and signed-window streams, the arithmetic unfolding of a window), the shard
rule by its definition, and small helpers for building test cases.
"""

from bisect import bisect_left, bisect_right
from itertools import combinations, permutations
from typing import Iterable, Iterator, NamedTuple, Sequence

from centroinv.generate import LOW_BITS, involutions
from centroinv.matchings import Subset, _descent_mask, _set_bits
from centroinv.paths import check_path, subset_path
from centroinv.perms import (
    Perm,
    check_perm,
    contains_321,
    is_centrosymmetric,
    is_involution,
)
from centroinv.rsk import Contains321Error, NotInvolutionError, ShapeMismatchError
from centroinv.signed import SignedPerm


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


def _rank_word(vals: Sequence[int]) -> tuple[int, ...]:
    # relative order of a sequence of distinct entries
    order = sorted(range(len(vals)), key=vals.__getitem__)
    rank = [0] * len(vals)
    for r, idx in enumerate(order, start=1):
        rank[idx] = r
    return tuple(rank)


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


def signed_contains(s: SignedPerm, t: SignedPerm) -> bool:
    """True iff some subsequence of s matches t in |value| order and in sign.

    >>> signed_contains((-4, 3, 2, -1), (3, 2, -1))
    True
    >>> signed_contains((1, 2), (1, -2))
    False
    """
    k = len(t)
    if k > len(s):
        return False
    if k == 0:
        return True
    target = _rank_word([abs(v) for v in t])
    for pos in combinations(range(len(s)), k):
        window = [s[i] for i in pos]
        if all((w > 0) == (v > 0) for w, v in zip(window, t)) and _rank_word(
            [abs(w) for w in window]
        ) == target:
            return True
    return False


def signed_avoids(s: SignedPerm, t: SignedPerm) -> bool:
    return not signed_contains(s, t)


def signed_patterns(s: SignedPerm, k: int) -> set[SignedPerm]:
    """Signed patterns of the length-k subsequences of s, in one pass: each
    entry becomes the rank of its |value| within the subsequence, carrying
    the entry's sign.  The |values| of a window are distinct, so an entry's
    index in the sorted |values| is its rank.  s avoids t iff t is not among
    signed_patterns(s, len(t)).

    >>> sorted(signed_patterns((3, -1, 2), 2))
    [(-1, 2), (2, -1), (2, 1)]
    >>> signed_patterns((1, 2), 0), signed_patterns((1, 2), 3)
    ({()}, set())
    """
    found = set()
    for sub in combinations(s, k):
        order = sorted(map(abs, sub))
        found.add(
            tuple(order.index(v) + 1 if v > 0 else -order.index(-v) - 1 for v in sub)
        )
    return found


# ---------- descents ----------


def descent_set_scan(p: Perm) -> tuple[int, ...]:
    """Positions i with p(i) > p(i+1), one comparison at a time; des is its
    length and maj its sum."""
    return tuple(i for i in range(1, len(p)) if p[i - 1] > p[i])


def half_descent_set_scan(p: Perm) -> tuple[int, ...]:
    """The descents at positions at most floor(m/2), one at a time; des+ is
    its length and maj+ its sum."""
    n = len(p) // 2
    return tuple(i for i in range(1, n + 1) if p[i - 1] > p[i])


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


# ---------- subsets ----------


def subset_descents(e: Subset) -> tuple[int, ...]:
    """{i in E : i+1 not in E}; i = n qualifies whenever n is a member.

    Equals the half descent set of the involution attached to e.
    """
    return tuple(_set_bits(_descent_mask(e)))


# ---------- paths ----------


def area_by_steps(word: str) -> int:
    """Area as a plain loop in reading order: each N step closes a row of
    the diagram as long as the number of E steps before it."""
    check_path(word)
    total = e_before = 0
    for step in word:
        if step == "E":
            e_before += 1
        else:
            total += e_before
    return total


def path_partition(word: str) -> tuple[int, ...]:
    """Partition of the diagram northwest of the path, rows top-down.

    >>> path_partition("EENN")
    (2, 2)
    >>> path_partition("NENE")
    (1,)
    """
    check_path(word)
    e_before = []
    e = 0
    for s in word:
        if s == "E":
            e += 1
        else:
            e_before.append(e)
    return tuple(x for x in reversed(e_before) if x > 0)


def hooks_by_peeling(word: str) -> tuple[int, ...]:
    """Hook sizes of the diagram northwest of the path, ascending: peel off
    the first row and first column, a hook of (first row) + (rows) - 1
    boxes, until the diagram is empty."""
    parts = list(path_partition(word))
    hooks = []
    while parts:
        hooks.append(parts[0] + len(parts) - 1)
        parts = [r - 1 for r in parts[1:] if r > 1]
    return tuple(sorted(hooks))


def _peak_coords(word: str) -> list[tuple[int, int]]:
    coords = []
    x = y = 0
    for i, s in enumerate(word):
        if s == "N":
            y += 1
        else:
            if i > 0 and word[i - 1] == "N":
                coords.append((x, y))
            x += 1
    return coords


def g_map_by_coords(word: str) -> str:
    """paths.g_map by its definition: the R run has an E at each peak
    height y, read from a down to 1, and the S run an N at each peak offset
    x, read from 0."""
    check_path(word)
    a, b = word.count("N"), word.count("E")
    r_run = ["N"] * a
    s_run = ["E"] * b
    for x, y in _peak_coords(word):
        r_run[y - 1] = "E"
        s_run[x] = "N"
    return "".join(reversed(r_run)) + "".join(s_run)


def g_inverse_by_coords(word: str) -> str:
    """paths.g_inverse by its definition: list the peak heights and offsets
    that the two runs carry, pair them in ascending order, and walk to each
    peak in turn."""
    check_path(word)
    a, b = word.count("N"), word.count("E")
    r_run, s_run = word[:a], word[a:]
    ys = [a - idx for idx, ch in enumerate(r_run) if ch == "E"][::-1]
    xs = [idx for idx, ch in enumerate(s_run) if ch == "N"]
    out = []
    px = py = 0
    for x, y in zip(xs, ys):
        out.append("E" * (x - px) + "N" * (y - py))
        px, py = x, y
    out.append("E" * (b - px) + "N" * (a - py))
    return "".join(out)


def rect_paths(a: int, b: int) -> Iterator[str]:
    """All binomial(a+b, a) paths of the a x b rectangle, one choice of the
    N positions at a time."""
    n = a + b
    for north_positions in combinations(range(n), a):
        chosen = set(north_positions)
        yield "".join("N" if i in chosen else "E" for i in range(n))


def rotate_first_to_last(word: str) -> str:
    """Move the first step to the end.  Shifts area by +(number of E steps)
    when the word starts with N, by -(number of N steps) otherwise."""
    check_path(word)
    if not word:
        raise ValueError("empty path")
    return word[1:] + word[0]


def paths_by_mask(n: int) -> list[list[str]]:
    """The path of every mask of subsets(n), one mask at a time, in the
    blocks of mask_blocks: the order and the outer steps all_paths keeps."""
    return [list(map(subset_path, block)) for block in mask_blocks(n)]


# ---------- shards ----------


def by_outer_step(blocks: Sequence[Iterable], shard: int, nshards: int) -> list:
    """The shard rule by its definition.  blocks holds the serial stream cut
    at the steps of its outermost loop, one block per step: shard s of
    nshards is every nshards-th block starting at block s, in order."""
    return [obj for block in blocks[shard::nshards] for obj in block]


def mask_blocks(n: int) -> list[list[Subset]]:
    """The subsets of [n] in mask order, one block per high word h: the
    masks h * 2**k + l for every l < 2**k: k = min(n, LOW_BITS) up to
    n = 255, then one bit less for each further bit of n."""
    if n < 0:
        return []
    k = min(n, LOW_BITS, max(0, 2 * LOW_BITS - n.bit_length()))
    return [[(n, h << k | l) for l in range(1 << k)] for h in range(1 << (n - k))]


# ---------- signed windows ----------


def signed_windows_by_mask(n: int) -> list[list[SignedPerm]]:
    """Every signed window, one sign mask at a time under each tau (bit i-1
    set when entry i is negative), one block per tau."""
    return [
        [tuple(-tau[i] if mask >> i & 1 else tau[i] for i in range(n))
         for mask in range(1 << n)]
        for tau in (permutations(range(1, n + 1)) if n >= 0 else ())
    ]


def unfold_by_arithmetic(s: SignedPerm) -> Perm:
    """The centrosymmetric permutation of [2n] behind a window, entry by
    entry: v + n for v > 0 and v + n + 1 for v < 0 in the second half, the
    mirror 2n + 1 minus those in the first."""
    n = len(s)
    back = [v + n if v > 0 else v + n + 1 for v in s]
    return tuple([2 * n + 1 - v for v in reversed(back)] + back)


# ---------- row insertion ----------


class TwoRowTableau(NamedTuple):
    top: tuple[int, ...]
    bottom: tuple[int, ...]


def check_tableau(t: TwoRowTableau) -> None:
    """Standardness: rows increase, columns increase, entries are 1..m."""
    m = len(t.top) + len(t.bottom)
    if sorted(t.top + t.bottom) != list(range(1, m + 1)):
        raise ShapeMismatchError(f"entries must be exactly 1..{m}")
    if len(t.bottom) > len(t.top):
        raise ShapeMismatchError("bottom row longer than top row")
    for row in (t.top, t.bottom):
        if any(row[i] >= row[i + 1] for i in range(len(row) - 1)):
            raise ShapeMismatchError("rows must increase")
    if any(b <= a for a, b in zip(t.top, t.bottom)):
        raise ShapeMismatchError("columns must increase")


def rsk_tableau(p: Perm) -> TwoRowTableau:
    """Row-insert an involution; a bump out of the second row would need a
    third row, which is exactly a 321 witness."""
    check_perm(p)
    if not is_involution(p):
        raise NotInvolutionError(f"not an involution: {p!r}")
    top: list[int] = []
    bottom: list[int] = []
    for x in p:
        i = bisect_right(top, x)
        if i == len(top):
            top.append(x)
            continue
        top[i], x = x, top[i]
        j = bisect_right(bottom, x)
        if j < len(bottom):
            raise Contains321Error(f"contains 321: {p!r}")
        bottom.append(x)
    return TwoRowTableau(tuple(top), tuple(bottom))


def tableau_involution(t: TwoRowTableau) -> Perm:
    """Inverse row insertion.  The recording side equals the insertion side
    for involutions, so one tableau drives both: remove the largest label
    where the recording copy shows it and reverse-bump the insertion copy."""
    check_tableau(t)
    p_rows = [list(t.top), list(t.bottom)]
    q_rows = [list(t.top), list(t.bottom)]
    m = len(t.top) + len(t.bottom)
    out = [0] * m
    for k in range(m, 0, -1):
        row = 1 if q_rows[1] and q_rows[1][-1] == k else 0
        q_rows[row].pop()
        v = p_rows[row].pop()
        if row == 1:
            j = bisect_left(p_rows[0], v) - 1
            v, p_rows[0][j] = p_rows[0][j], v
        out[k - 1] = v
    return tuple(out)


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
