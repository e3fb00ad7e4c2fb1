"""Exhaustive, duplicate-free generators and the table of object classes.

Each generator yields a deterministic stream; stream lengths match the known
counting formulas (2^n for the even class, the central binomial coefficient
for the odd class, binomial(a+b, a) for rectangle paths, 2^n n! for signed
permutations).

inv321 is a pruned walk of the involutions recursion, not a filter of its
stream: it cuts every branch whose final prefix already contains 321, and
yields the same objects in the same order as the filter would.

all_paths and the signed classes run on C-level iterators, with one Python
step per block of objects rather than per object.  all_paths joins the words
of the low k bits of a mask, built once, to each word of its high bits as
those stream, so it holds at most 2**LOW_BITS words for any n.  Every
window of the signed classes, every window text of signed-all and every
window its tallies count comes from one sign product, _sign_products: for
each tau, itertools.product over the signs each entry may take.  The two
conditions in centroinv.signed act on each entry of tau alone, so the
six-avoiders need no window tested, and a tau with a middle entry that is
not a prefix minimum has none.

cinv321_even is built the same way, on the FIFO view of the subset bijection
(see centroinv.matchings), with _fifo_scan its one FIFO loop: the scans of
the low k bits of a mask, built once, and the scans of its high bits after
the openers the low bits leave pending (_even_high_values), built for one
high word at a time, become itemgetters, and each object is two of those
gathers and one tuple concatenation.  It yields the objects of
map(subset_involution, subsets(n)) in the same order, but shares no code
with subset_involution, which stays the per-object definition.

Every mask stream splits a mask of n bits as h * 2**k + l, and every tally
cuts it into blocks of max(1, k) bits, k = _low_bits(n): LOW_BITS up to n =
255, then one bit less per further bit of n, which keeps the low table of
the even class, O(n) values per low scan, under 2**(2 * LOW_BITS) cells.

involutions, inv321, signed_perms, subsets, all_paths, cinv321_even and
cinv321_odd take an optional shard, under one rule: shard s of nshards takes
every nshards-th step of the stream's outermost loop, starting at step s, and
everything below those steps.  The outer loop runs over the partner of point
1 for the walks, tau for signed_perms and the high word h of a mask
h * 2**k + l for subsets, all_paths and cinv321_even.  So each shard is an
in-order subsequence of the serial stream and a sharded run covers the
stream exactly once; a stream with fewer outer steps than shards leaves the
last shards empty.
Aggregation downstream is commutative, which keeps sharded output identical
to serial.  centro_perms only serves as a check and takes no shard.  Every
generator yields nothing for a negative size.  Calling a generator checks its
arguments and builds no table until the stream is read, so a stream that is
made and dropped costs next to nothing.

CLASSES is the one place that names the object classes.  Its texts(size)
streams format(obj) for each object of generate(size), by default one format
call per object.  Four classes give their own text stream, with no Python
step per object: cinv321_even runs the same block loop with its low table
written as decimal text, so each object is one join of a gathered tuple of
strings; signed-all takes its sign products over the signs written as text;
subsets joins the texts of its low words to the text of each high word; and
a word of paths-rect is its own text.  The format functions stay the
per-object definition.

Beside its per-object evaluators in stats, a class may list block tallies in
tallies: tally(size) is the Counter of a statistic over generate(size), got
without building every object.  subsets, paths-rect and signed-all tally
each of their statistics, cinv321-even three of its five, and the other
classes none:

* subsets (des+, maj+, des) and paths-rect area: each statistic is a sum
  over the block words plus a term at each boundary that reads only the top
  bit, or the number of E steps, below it; _transfer carries the Counter of
  values so far per such state from block to block, polynomial in n;
* paths-rect peaks and cinv321-even (des+, maj+, des) are subset tallies:
  all_paths(n) is map(subset_path, subsets(n)), and the starred peaks of
  subset_path(e) are the descents of e; subset_involution carries
  subset_des, subset_maj and des_from_subset to des+, maj+ and des of the
  even class at 2n.  Both hold object by object;
* signed-all: over the 2**n sign choices of one tau, fp reads only the
  number of fixed points of tau and the other statistics only its rises,
  so tau is grouped by those and the evaluator is counted over the windows
  of one tau per group, from _sign_products.

So every tally counts an evaluator and states no statistic of its own, and
the drivers read no tally.  A class keeps a block path only where it beats
the per-object path on a workload; the six-avoiders spend their time in the
same n! loop over tau either way, so they keep none.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict, deque
from itertools import accumulate, chain, islice, product, repeat
from itertools import permutations as _permutations
from operator import add, eq, itemgetter, lt
from typing import Callable, Iterable, Iterator, NamedTuple

from centroinv import matchings, paths, perms
from centroinv.matchings import Subset, odd_join
from centroinv.perms import Perm
from centroinv.signed import SignedPerm, unfold_window


#: bits of a mask whose words or FIFO scans a stream builds once and joins
#: to every high word, and the width of a tally's blocks, up to n = 255
LOW_BITS = 8


def _low_bits(n: int) -> int:
    # k of a mask h * 2**k + l of n bits, for every mask stream and tally.
    # A low entry of the even class holds O(n) values, so k shrinks as n
    # grows and its low table stays under 2**(2 * LOW_BITS) cells
    return min(n, LOW_BITS, max(0, 2 * LOW_BITS - n.bit_length()))


def _check_shard(shard: int, nshards: int) -> None:
    if nshards < 1 or not 0 <= shard < nshards:
        raise ValueError(f"bad shard {shard}/{nshards}")


def involutions(m: int, shard: int = 0, nshards: int = 1) -> Iterator[Perm]:
    """All involutions of [m] by direct construction: the smallest unplaced
    point i is fixed (j = i) or paired with a larger unplaced point j.
    Shards split on the choice made at point 1."""
    _check_shard(shard, nshards)
    if m <= 0:
        return iter([()] if m == 0 and shard == 0 else [])
    vals = [0] * (m + 1)

    def rec(i: int) -> Iterator[Perm]:
        while i <= m and vals[i]:
            i += 1
        if i > m:
            yield tuple(vals[1:])
            return
        for j in range(i, m + 1):
            if vals[j] or (i == 1 and (j - 1) % nshards != shard):
                continue
            vals[i] = j
            vals[j] = i
            yield from rec(i + 1)
            vals[i] = vals[j] = 0

    return rec(1)


def centro_perms(m: int) -> Iterator[Perm]:
    """All centrosymmetric permutations of [m], generated directly.

    The first half may take one value out of each mirror pair {v, m+1-v},
    with the pairs themselves permuted: 2^n n! objects, n = floor(m/2)."""
    if m < 0:
        return
    n = m // 2
    middle = (n + 1,) if m % 2 else ()
    for sigma in _permutations(range(1, n + 1)):
        for mask in range(1 << n):
            first = tuple(
                m + 1 - sigma[i] if mask >> i & 1 else sigma[i] for i in range(n)
            )
            back = tuple(m + 1 - first[n - 1 - i] for i in range(n))
            yield first + middle + back


def signed_perms(n: int, shard: int = 0, nshards: int = 1) -> Iterator[SignedPerm]:
    """All 2^n n! signed permutation windows: for each tau, the signs in mask
    order, bit i-1 set when entry i is negative."""
    _check_shard(shard, nshards)
    return chain.from_iterable(
        _sign_products(n, _shard_taus(n, shard, nshards), _any_signs, int)
    )


def _sign_products(
    n: int, taus: Iterable[Perm],
    signs: Callable[[Perm], tuple | None], entry: Callable[[int], object],
) -> Iterator[Iterator[tuple]]:
    """One block of windows per tau of taus, permutations of [n], that has
    any: the windows s with |s| = tau whose entry i takes the signs
    signs(tau)[i], in mask order, every entry v given as entry(v); signs(tau)
    is None when tau has none.  itertools.product varies its last factor
    fastest, so the factors are listed from the last position to the first
    and each product is read back to front."""
    # the factor of value v under each sign set an entry may take
    factors = {
        (v, choice): tuple(entry(v * sign) for sign in choice)
        for v in range(1, n + 1)
        for choice in _AVOIDER_SIGNS.values()
    }
    for tau in taus:
        allowed = signs(tau)
        if allowed is not None:
            keys = zip(reversed(tau), reversed(allowed))
            yield map(_BACK_TO_FRONT, product(*map(factors.__getitem__, keys)))


# a reversed slice keeps a 1-tuple a tuple, which itemgetter(0) would not
_BACK_TO_FRONT = itemgetter(slice(None, None, -1))


def subsets(n: int, shard: int = 0, nshards: int = 1) -> Iterator[Subset]:
    """All subsets of [n], the pairs (n, mask) in mask order.

    A mask is h * 2**k + l with k = _low_bits(n), as in all_paths, and
    each high word h gives one block of 2**k masks."""
    _check_shard(shard, nshards)
    if n < 0:
        return iter(())
    k = _low_bits(n)
    blocks = (range(h << k, (h + 1) << k) for h in range(shard, 1 << (n - k), nshards))
    return zip(repeat(n), chain.from_iterable(blocks))


def _subset_texts(n: int) -> Iterator[str]:
    """format_subset of each subset of subsets(n), in blocks as all_paths
    builds its words: the text of a mask h * 2**k + l is the text of l, then
    a comma when both are non-empty, then the members k+1..n of h."""
    return chain.from_iterable(_subset_text_blocks(n) if n >= 0 else ())


def _subset_text_blocks(n: int) -> Iterator[Iterator[str]]:
    # the 2**k low texts are built on first read; after the first high
    # word, h = 0, they carry their comma
    k = _low_bits(n)
    low = list(map(matchings.format_subset, subsets(k)))
    yield iter(low)
    low = [text + "," if text else text for text in low]
    for h in range(1, 1 << (n - k)):
        yield map(add, low, repeat(matchings.format_subset((n, h << k))))


def all_paths(n: int, shard: int = 0, nshards: int = 1) -> Iterator[str]:
    """All 2**n paths of length n, the paths of subsets(n) in mask order;
    grouped by the number of N steps, the paths of every rectangle a+b = n.

    A mask is h * 2**k + l with k = _low_bits(n), and its path is the
    path of the k low bits l followed by the path of the high bits h.  The
    2**k low words are built once; the high words stream, so memory stays
    bounded for any n."""
    _check_shard(shard, nshards)
    return chain.from_iterable(_path_blocks(n, shard, nshards) if n >= 0 else ())


def _path_blocks(n: int, shard: int, nshards: int) -> Iterator[Iterator[str]]:
    # one block of paths per high word of the shard; low words built on first read
    k = _low_bits(n)
    low = list(map(paths.subset_path, subsets(k)))
    for high in map(paths.subset_path, zip(repeat(n - k), range(shard, 1 << (n - k), nshards))):
        yield map(add, low, repeat(high))


#: frames left to the callers of inv321, whose walk takes one frame per point
#: and one more; the recursion limit is not raised, since nested generators
#: also use C stack
WALK_ALLOWANCE = 50


def inv321(m: int, shard: int = 0, nshards: int = 1) -> Iterator[Perm]:
    """321-avoiding involutions of [m] by a pruned walk of the involutions
    recursion: the same objects, in the same order and with the same shards,
    as filtering involutions(m, shard, nshards) by contains_321.  A size past
    sys.getrecursionlimit() - WALK_ALLOWANCE - 1, 949 at the default limit,
    raises ValueError when called.

    Positions before the current point are final, so the linear 321 state of
    contains_321 (top, the largest value so far, and mid, the largest value
    below an earlier larger one) travels down the recursion.  A value below
    mid completes a 321 whatever follows, so that branch is cut: a point
    already filled by an earlier partner below mid ends the branch, and so
    does an unplaced point i below mid, since the value i will land right of
    mid, and so does a later point already filled below mid, found before
    the walk reaches it.  Every partner j >= i is then above mid."""
    _check_shard(shard, nshards)
    if m > (largest := sys.getrecursionlimit() - WALK_ALLOWANCE - 1):
        raise ValueError(f"inv321 walks sizes up to {largest} (got {m})")
    if m <= 0:
        return iter([()] if m == 0 and shard == 0 else [])
    vals = [0] * (m + 1)

    def rec(i: int, top: int, mid: int) -> Iterator[Perm]:
        # a filled point i holds an earlier partner v < i, and point v holds
        # i, so v is below top and becomes the new mid
        while i <= m and vals[i]:
            if vals[i] < mid:
                return
            mid = vals[i]
            i += 1
        if i > m:
            yield tuple(vals[1:])
            return
        if mid > i:  # the value i lands right of mid: a 321
            return
        for j in range(i + 1, m + 1):
            if 0 < vals[j] < mid:  # a placed later value below mid: a 321
                return
        for j in range(i, m + 1):
            if vals[j] or (i == 1 and (j - 1) % nshards != shard):
                continue
            vals[i] = j
            vals[j] = i
            if j < top:
                yield from rec(i + 1, top, j)
            else:
                yield from rec(i + 1, j, mid)
            vals[i] = vals[j] = 0

    return rec(1, 0, 0)


def cinv321_even(m: int, shard: int = 0, nshards: int = 1) -> Iterator[Perm]:
    """The even class, the images under subset_involution of subsets(m // 2)
    in mask order, built in blocks rather than one mask at a time.

    A mask of n = m // 2 bits is h * 2**k + l with k = _low_bits(n).
    The FIFO scan of the k low bits (see centroinv.matchings) fixes the
    values of the low positions that l pairs among themselves and leaves r
    openers a_1 < ... < a_r pending.  The scan of the high bits h, with r
    openers coming in, is the same for every l with that r: its values are
    constants, an a_t or a mirror 2n+1 - a_t.  So the low table, built once,
    holds for each l its constants, its source P_l + M_l + (0, ..., 2n)
    (M_l the mirrors of P_l) and a gather of the whole object; the high
    table, built for one h at a time, holds for each r a gather that reads
    the high values, the partners of the r openers and all their mirrors
    out of a source.  One object is then two itemgetter calls and one tuple
    concatenation."""
    n = _even_half(m)
    _check_shard(shard, nshards)
    return chain.from_iterable(_even_blocks(n, shard, nshards) if m >= 0 else ())


def _even_texts(m: int) -> Iterator[str]:
    """format_perm of each object of cinv321_even(m), from the same blocks
    with the values of the low table written as text."""
    n = _even_half(m)
    return chain.from_iterable(_even_blocks(n, 0, 1, text=True) if m >= 0 else ())


def _even_half(m: int) -> int:
    if m % 2:
        raise ValueError("even size required")
    return m // 2


def _even_blocks(n: int, shard: int, nshards: int, text: bool = False) -> Iterator[Iterator]:
    # one block of objects per high word h of the shard; the low table is
    # built on first read, and the high table of h only when its block is
    # reached.  With text, the gathers read decimal texts, mapped once per
    # table, and each object is one join of them
    k = _low_bits(n)
    counts, sources, consts, gathers = _even_low_table(n, k)
    if text:
        sources, consts = (
            [tuple(map(perms._TEXT.__getitem__, values)) for values in table]
            for table in (sources, consts)
        )
    for h in range(shard, 1 << (n - k), nshards):
        highs = _even_high_table(n, k, h)
        high = map(_CALL, map(highs.__getitem__, counts), sources)
        block = map(_CALL, gathers, map(add, consts, high))
        yield map(" ".join, block) if text else block


# itemgetter's own call slot, applied by map to (getter, source) pairs; it
# runs faster there than operator.call and exists before Python 3.11
_CALL = itemgetter.__call__

# itemgetter of no index cannot be built.  Every gather below takes values
# together with their mirrors, so none has exactly one index, which
# itemgetter would return as a bare value
_NOTHING = itemgetter(slice(0))


def _gather(indices: list[int]) -> Callable[[tuple], tuple]:
    return itemgetter(*indices) if indices else _NOTHING


def _even_low_table(n: int, k: int) -> tuple[list, list, list, list]:
    """For each l < 2**k: the number r of openers the FIFO scan of l leaves
    pending; the source P_l + M_l + (0, ..., 2n) that the high gathers read;
    the values of positions 1..k followed by their mirrors; and the gather
    that reads the whole object out of those values and a high gather's
    output."""
    total = 2 * n + 1
    values = tuple(range(total))
    # where each position reads its value from the constants of l followed
    # by a high gather's output; a pending opener reads its partner there
    at = [*range(k), *range(2 * k, n + k)]
    counts, sources, consts, gathers = [], [], [], []
    for l in range(1 << k):
        pending = deque()
        fixes = _fifo_scan(1, k, l, pending)
        first = [fixes.get(i, 0) for i in range(1, k + 1)]  # an opener holds 0
        r = len(pending)
        width = n - k + r  # values in a high gather's output, then mirrors
        reads = at.copy()
        for t, a in enumerate(pending):
            reads[a - 1] = k + n + t
        counts.append(r)
        sources.append((*pending, *[total - a for a in pending], *values))
        consts.append((*first, *[total - v for v in first]))
        gathers.append(
            _gather(reads + [j + k if j < k else j + width for j in reversed(reads)])
        )
    return counts, sources, consts, gathers


def _even_high_table(n: int, k: int, h: int) -> list[Callable[[tuple], tuple]]:
    """Entry r gathers, from a source P + M + (0, ..., 2n) with r pending
    low openers P, the values of positions k+1..n under the high bits h,
    then the partners of the r openers, then the mirrors of all of these."""
    total = 2 * n + 1
    highs = []
    for r in range(k + 1):
        values = _even_high_values(n, k, h, r)
        keyed = [values[i] for i in (*range(k + 1, n + 1), *range(-r, 0))]
        keyed += [total - v for v in keyed]
        # the source index of a value: an opener's key -r..-1 in P, a
        # constant c at 2r + c, and an opener's mirror, above 2n, in M
        highs.append(
            _gather([v + r if v < 0 else 2 * r + (v if v < total else total - v) for v in keyed])
        )
    return highs


def _even_high_values(n: int, k: int, h: int, r: int) -> dict:
    """The FIFO scan of positions k+1..n under the high bits h, after r low
    openers still pending, keyed -r..-1 oldest first: the value of each high
    position and the partner of each key.  A value is a position, a key or
    a key's mirror 2n+1 - key; the keys lie below k + 1 and their mirrors
    above 2n - k, as the openers and their mirrors do, so the values keep
    every comparison."""
    pending = deque(range(-r, 0))
    values = _fifo_scan(k + 1, n, h, pending)
    # the openers still pending cross the centre: p(a_j) = 2n+1 - a_{q+1-j}
    for a, b in zip(pending, reversed(pending)):
        values[a] = 2 * n + 1 - b
    return values


def _fifo_scan(first: int, last: int, bits: int, pending: deque) -> dict:
    """The FIFO scan of positions first..last, position i a member when bit
    i - first of bits is set, after the openers already in pending: the
    values it fixes, by position.  pending is left holding the openers
    still pending, oldest first."""
    values = {}
    for i in range(first, last + 1):
        if bits >> (i - first) & 1:
            pending.append(i)
        elif pending:
            a = pending.popleft()
            values[a], values[i] = i, a
        else:
            values[i] = i
    return values


def cinv321_odd(m: int, shard: int = 0, nshards: int = 1) -> Iterator[Perm]:
    """The odd class, through the centre-fixing join."""
    if m % 2 == 0:
        raise ValueError("odd size required")
    return map(odd_join, inv321(m // 2, shard, nshards))


def _six_avoiders(n: int, shard: int, nshards: int) -> Iterator[SignedPerm]:
    """The windows of signed_perms(n, shard, nshards) that avoid the six
    patterns, in the same order, with no window tested: for each tau, the
    product of the signs that each entry may take (_avoider_signs)."""
    _check_shard(shard, nshards)
    return chain.from_iterable(
        _sign_products(n, _shard_taus(n, shard, nshards), _avoider_signs, int)
    )


def _shard_taus(n: int, shard: int, nshards: int) -> Iterator[Perm]:
    # the outer loop of every signed stream and tally
    return islice(_permutations(range(1, n + 1)), shard, None, nshards) if n >= 0 else iter(())


def _any_signs(tau: Perm) -> tuple[tuple[int, ...], ...]:
    # every entry of a window of signed-all may take either sign
    return ((1, -1),) * len(tau)


# the signs an entry of tau may take, by (it is a prefix minimum of tau, it
# is a middle); a middle that is not a prefix minimum has none
_AVOIDER_SIGNS = {(False, False): (1,), (True, False): (1, -1), (True, True): (-1,)}


def _avoider_signs(tau: Perm) -> tuple[tuple[int, ...], ...] | None:
    """The signs each entry of tau may take in a window that avoids the six
    patterns, or None when no choice of signs avoids them.  The two
    conditions of centroinv.signed act on each entry alone: a negative entry
    is a prefix minimum of tau, and a middle, an entry with an earlier larger
    and a later smaller one, is negative.

    >>> _avoider_signs((2, 1, 3)), _avoider_signs((2, 4, 3, 1))
    (((1, -1), (1, -1), (1,)), None)
    """
    later = [*accumulate(reversed(tau), min)][::-1]  # later[i] = min(tau[i:])
    signs = []
    for v, low, high, after in zip(tau, accumulate(tau, min), accumulate(tau, max), later):
        choice = _AVOIDER_SIGNS.get((v == low, high > v > after))
        if choice is None:
            return None
        signs.append(choice)
    return tuple(signs)


# ---------- the class table ----------


def _through_unfold(fn: Callable[[Perm], int]) -> Callable[[SignedPerm], int]:
    # the signed classes only ever hold windows built by signed_perms
    return lambda s: fn(unfold_window(s))


_PERM_STATS = {
    "des+": perms.half_des,
    "maj+": perms.half_maj,
    "des": perms.des,
    "maj": perms.maj,
    "fp": perms.fixed_point_count,
}

_SIGNED_STATS = {name: _through_unfold(fn) for name, fn in _PERM_STATS.items()}

_SUBSET_STATS = {
    "des+": matchings.subset_des,
    "maj+": matchings.subset_maj,
    "des": matchings.des_from_subset,
}

_PATH_STATS = {
    "area": paths.area,
    "peaks": lambda w: len(paths.peak_star(w)),
}


# ---------- block tallies ----------

Tally = Callable[[int], Counter]


def _transfer(n: int, words: Callable[[int, int], Iterable], join: Callable) -> Counter:
    """The Counter of a statistic over the 2**n masks of n bits, got block by
    block: the mask is cut from bit 0 up into blocks of max(1, _low_bits(n))
    bits, the last maybe shorter.  words(offset, width) keys each word of a
    block, and join(state, key) is the state after the word and what the word
    adds, given the state before it (0 below bit 0).  A Counter of the values
    so far is carried per state."""
    if n < 0:
        return Counter()
    k = max(1, _low_bits(n))
    tallies = {0: Counter({0: 1})}
    for offset in range(0, n, k):
        block = Counter(words(offset, min(k, n - offset))).items()
        after = defaultdict(Counter)
        for (state, tally), (key, count) in product(tallies.items(), block):
            following, delta = join(state, key)
            after[following].update({value + delta: c * count for value, c in tally.items()})
        tallies = after
    return sum(tallies.values(), Counter())


def _subset_tally(stat: Callable[[Subset], int]) -> Tally:
    """The tally of a descent statistic over subsets(n), by _transfer.

    stat adds a weight per descent, a member i with i + 1 not a member (and
    des takes 1 away when n, in the top block, is a member).  A block's word
    alone at its offset keeps the descents of the mask in it, and gains one
    at its top bit when the next block's bottom bit is set.  So stat((n,
    mask)) is the sum of stat((n, word << offset)) over the blocks, less
    stat((n, 1 << (offset - 1))) at each offset where the bits at and below
    it are both set.  The state is the top bit so far."""

    def tally(n: int) -> Counter:
        def words(offset: int, width: int) -> Iterator[tuple[int, int, int]]:
            # (what a set top bit below takes away, this top bit, the value)
            cross = stat((n, 1 << (offset - 1))) if offset else 0
            for word in range(1 << width):
                yield cross * (word & 1), word >> (width - 1), stat((n, word << offset))

        return _transfer(n, words, lambda top, key: (key[1], key[2] - top * key[0]))

    return tally


def _area_tally(n: int) -> Counter:
    """The tally of area over all_paths(n), by _transfer: a block word B after
    E earlier E steps adds area(B) + E * N(B).  The state is E."""

    def words(offset: int, width: int) -> list[tuple[int, int, int]]:
        block = map(paths.subset_path, subsets(width))
        return [(word.count("N"), word.count("E"), paths.area(word)) for word in block]

    return _transfer(n, words, lambda east, key: (east + key[1], key[2] + east * key[0]))


_SUBSET_TALLIES = {name: _subset_tally(fn) for name, fn in _SUBSET_STATS.items()}

#: all_paths(n) is map(subset_path, subsets(n)), and the starred peaks of
#: subset_path(e) are the descents of e
_PATH_TALLIES = {"area": _area_tally, "peaks": _SUBSET_TALLIES["des+"]}


def _signed_tally(stat: str) -> Tally:
    """The tally of stat over signed_perms(n), counted with its own
    evaluator.

    With tau = |s|, window descent i < n holds iff s_i+1 < 0 at a rise of
    tau or s_i > 0 at a fall; the centre of unfold_window(s) is a descent iff
    s_1 < 0, and s_i = i is a fixed point.  So over the 2**n sign choices of
    one tau, fp depends on tau only through its number of fixed points, and
    every other statistic only through its rises.  The tally groups the
    tau by that key and counts the evaluator over the windows of one
    tau per group, weighted by the group's size."""
    evaluate = _SIGNED_STATS[stat]

    def tally(n: int) -> Counter:
        points = range(1, n + 1)
        groups = {}  # what stat reads of tau: [the first tau that reads it, how many do]
        for tau in _shard_taus(n, 0, 1):
            key = sum(map(eq, tau, points)) if stat == "fp" else tuple(map(lt, tau, tau[1:]))
            groups.setdefault(key, [tau, 0])[1] += 1
        blocks = _sign_products(n, [tau for tau, _ in groups.values()], _any_signs, int)
        total = Counter()
        for block, (_, size) in zip(blocks, groups.values()):
            for value, count in Counter(map(evaluate, block)).items():
                total[value] += size * count
        return total

    return tally


def _even_tally(stat: str) -> Tally:
    """The tally of stat over cinv321_even(m): the tally of its subset
    statistic over subsets(m // 2).  subset_involution maps that stream
    onto the even one object for object and carries subset_des, subset_maj
    and des_from_subset to half_des, half_maj and des."""
    subset_tally = _SUBSET_TALLIES[stat]
    return lambda m: subset_tally(_even_half(m))


class ObjectClass(NamedTuple):
    """generate(size, shard, nshards) streams the class; format gives the
    text form of one object; stats maps a statistic name to its evaluator;
    tallies maps some of those names to tally(size), the Counter of the
    statistic over generate(size), got without building its objects;
    text_stream, where given, is what texts(size) returns."""

    generate: Callable[[int, int, int], Iterator]
    format: Callable[[object], str]
    stats: dict[str, Callable[[object], int]]
    tallies: dict[str, Tally] = {}
    text_stream: Callable[[int], Iterator[str]] | None = None

    def texts(self, size: int) -> Iterator[str]:
        """format(obj) for each object of generate(size), in stream order;
        checked, like generate, when called.

        >>> list(CLASSES["cinv321-even"].texts(4))
        ['1 2 3 4', '2 1 4 3', '1 3 2 4', '3 4 1 2']
        """
        if self.text_stream is None:
            return map(self.format, self.generate(size, 0, 1))
        return self.text_stream(size)


CLASSES: dict[str, ObjectClass] = {
    "cinv321-even": ObjectClass(
        cinv321_even, perms.format_perm, _PERM_STATS,
        {name: _even_tally(name) for name in _SUBSET_STATS}, _even_texts,
    ),
    "cinv321-odd": ObjectClass(cinv321_odd, perms.format_perm, _PERM_STATS),
    "inv321": ObjectClass(inv321, perms.format_perm, _PERM_STATS),
    "signed-all": ObjectClass(
        signed_perms, perms.format_perm, _SIGNED_STATS,
        {name: _signed_tally(name) for name in _SIGNED_STATS},
        lambda n: map(
            " ".join,
            chain.from_iterable(
                _sign_products(n, _shard_taus(n, 0, 1), _any_signs, perms._TEXT.__getitem__)
            ),
        ),
    ),
    "signed-sixavoiders": ObjectClass(_six_avoiders, perms.format_perm, _SIGNED_STATS),
    "subsets": ObjectClass(
        subsets, matchings.format_subset, _SUBSET_STATS, _SUBSET_TALLIES, _subset_texts
    ),
    # a path is its own text
    "paths-rect": ObjectClass(all_paths, str, _PATH_STATS, _PATH_TALLIES, all_paths),
}

CLASS_LABELS = tuple(CLASSES)


def object_class(label: str) -> ObjectClass:
    try:
        return CLASSES[label]
    except KeyError:
        raise ValueError(f"unknown class {label!r}") from None


def generate_class(label: str, size: int, shard: int = 0, nshards: int = 1):
    """Stream one of the named classes at the given size; the label and the
    size are checked before anything is built."""
    return _sized_class(label, size).generate(size, shard, nshards)


def class_texts(label: str, size: int) -> Iterator[str]:
    """The texts of generate_class(label, size), checked the same way."""
    return _sized_class(label, size).texts(size)


def _sized_class(label: str, size: int) -> ObjectClass:
    cls = object_class(label)
    if size < 0:
        raise ValueError(f"size must be non-negative (got {size})")
    return cls


def format_object(label: str, obj) -> str:
    """Textual form of a generated object, by class."""
    return object_class(label).format(obj)
