"""Generators, the census kernel, and shard determinism."""

import tracemalloc
from collections import Counter
from itertools import islice, product
from math import comb, factorial

import pytest

from centroinv import generate, paths
from centroinv.generate import (
    CLASS_LABELS,
    CLASSES,
    LOW_BITS,
    all_paths,
    centro_perms,
    cinv321_even,
    cinv321_odd,
    format_object,
    generate_class,
    inv321,
    involutions,
    signed_perms,
    subsets,
)
from centroinv import BACKEND
from centroinv.kernels import census
from centroinv.matchings import subset_involution
from centroinv.perms import (
    contains_321,
    des,
    format_perm,
    half_des,
    half_maj,
    is_centrosymmetric,
    is_involution,
)
from centroinv.signed import is_top_element, theta_inverse
from oracles import (
    by_outer_step,
    filtered_class,
    mask_blocks,
    paths_by_mask,
    signed_windows_by_mask,
)


def involution_count(m):
    """Independent oracle: i(m) = i(m-1) + (m-1) i(m-2)."""
    a, b = 1, 1
    for k in range(2, m + 1):
        a, b = b, b + (k - 1) * a
    return b


def test_involution_stream():
    for m in range(11):
        seen = list(involutions(m))
        assert len(seen) == involution_count(m)
        assert len(set(seen)) == len(seen)
        assert all(is_involution(p) for p in seen)


def test_class_sizes():
    for n in range(11):
        assert len(list(cinv321_even(2 * n))) == 2**n
        assert len(list(subsets(n))) == 2**n
    for n in range(7):
        assert len(list(cinv321_odd(2 * n + 1))) == comb(n, n // 2)
    for m in range(11):
        assert len(list(inv321(m))) == comb(m, m // 2)
    for n in range(6):
        assert len(list(signed_perms(n))) == 2**n * factorial(n)
        assert len(list(centro_perms(2 * n))) == 2**n * factorial(n)
        assert len(list(centro_perms(2 * n + 1))) == 2**n * factorial(n)


def test_members_land_in_class():
    for p in cinv321_even(10):
        assert is_involution(p)
        assert is_centrosymmetric(p)
        assert not contains_321(p)
    for p in cinv321_odd(9):
        assert is_involution(p)
        assert is_centrosymmetric(p)
        assert not contains_321(p)
    for p in centro_perms(7):
        assert is_centrosymmetric(p)


def test_routes_agree():
    for m in (0, 2, 4, 6, 8, 10):
        assert set(cinv321_even(m)) == set(filtered_class(m))
    for m in (1, 3, 5, 7, 9, 11):
        assert set(cinv321_odd(m)) == set(filtered_class(m))
    with pytest.raises(ValueError):
        cinv321_even(3)
    with pytest.raises(ValueError):
        cinv321_odd(4)


SHARD_CASES = (
    ("cinv321-even", 8),
    ("cinv321-odd", 9),
    ("inv321", 7),
    ("signed-all", 3),
    ("signed-sixavoiders", 4),
    ("subsets", 6),
    ("paths-rect", 5),
)


def test_shards_partition_every_class():
    for label, size in SHARD_CASES:
        serial = list(generate_class(label, size))
        assert len(set(serial)) == len(serial)
        for nshards in (2, 3, 4, 7):
            chunks = [
                list(generate_class(label, size, k, nshards))
                for k in range(nshards)
            ]
            merged = [obj for chunk in chunks for obj in chunk]
            assert len(merged) == len(serial)
            assert set(merged) == set(serial)


def test_shards_are_in_order_subsequences_of_the_serial_stream():
    # every shard keeps the serial order: its objects appear in the serial
    # stream in the order the shard yields them
    for label, size in SHARD_CASES:
        pos = {obj: i for i, obj in enumerate(generate_class(label, size))}
        for nshards in (2, 3, 4, 7):
            for k in range(nshards):
                places = [pos[obj] for obj in generate_class(label, size, k, nshards)]
                assert places == sorted(set(places)), (label, k, nshards)


def test_jobs2_queries_split_evenly():
    # the stats queries that the sharded benchmark runs with --jobs 2: each
    # shard takes half of the outer steps and so half of the objects
    for label, size, half in (
        ("cinv321-even", 28, 8_192),
        ("subsets", 18, 131_072),
        ("paths-rect", 18, 131_072),
        ("signed-all", 6, 23_040),
    ):
        for k in (0, 1):
            assert sum(1 for _ in generate_class(label, size, k, 2)) == half, (label, k)


def test_even_shard_builds_only_its_high_tables(monkeypatch):
    # 2**6 high words at n = 14: shard 1 of 2 builds the tables of its 32
    calls = []
    real = generate._even_high_table
    monkeypatch.setattr(
        generate, "_even_high_table", lambda n, k, h: calls.append(h) or real(n, k, h)
    )
    assert sum(1 for _ in cinv321_even(28, 1, 2)) == 8_192
    assert calls == list(range(1, 64, 2))


STREAM_SHARDS = (1, 2, 3, 4, 7)


def test_subsets_keep_the_mask_order_shard_by_shard():
    # the outer loop is the high word, as for the paths and the even class
    for n in range(-1, 13):
        blocks = mask_blocks(n)
        for nshards in STREAM_SHARDS:
            for k in range(nshards):
                assert list(subsets(n, k, nshards)) == by_outer_step(
                    blocks, k, nshards
                ), (n, k, nshards)
    # from n = 256 on k falls below LOW_BITS, as in the even class: at
    # n = 256, k = 7, so shard 1 of 3 starts with the serial stream's
    # second block of 128 masks and goes on with its fifth
    serial = list(islice(subsets(256), 1 << 10))
    assert list(islice(subsets(256, 1, 3), 129)) == serial[128:256] + serial[512:513]


def test_paths_keep_the_mask_order_shard_by_shard():
    # n = 9 and 12 put one and four high bits above the reused low words
    for n in range(-1, 13):
        blocks = paths_by_mask(n)
        for nshards in STREAM_SHARDS:
            for k in range(nshards):
                assert list(all_paths(n, k, nshards)) == by_outer_step(
                    blocks, k, nshards
                ), (n, k, nshards)
    # the blocks of 128 paths at n = 256, as for subsets
    serial = list(islice(all_paths(256), 1 << 10))
    assert list(islice(all_paths(256, 1, 3), 129)) == serial[128:256] + serial[512:513]


def test_even_class_keeps_the_mask_order_shard_by_shard():
    # the block construction against subset_involution, one mask at a time:
    # n = 8, 9 and 13 put zero, one and five high bits above the low scans
    for n in range(14):
        blocks = [list(map(subset_involution, b)) for b in mask_blocks(n)]
        for nshards in STREAM_SHARDS:
            for k in range(nshards):
                assert list(cinv321_even(2 * n, k, nshards)) == by_outer_step(
                    blocks, k, nshards
                ), (n, k, nshards)
    # n = 16 runs 256 high words, of which shard 3 of 7 takes 37; only
    # those blocks are read
    blocks = [map(subset_involution, b) for b in mask_blocks(16)]
    assert list(cinv321_even(32, 3, 7)) == by_outer_step(blocks, 3, 7)


def test_signed_windows_keep_the_mask_order_shard_by_shard():
    for n in range(-1, 7):
        blocks = signed_windows_by_mask(n)
        for nshards in STREAM_SHARDS:
            for k in range(nshards):
                assert list(signed_perms(n, k, nshards)) == by_outer_step(
                    blocks, k, nshards
                ), (n, k, nshards)


def test_six_avoiders_equal_the_filtered_windows_shard_by_shard():
    # the stream built from the signs each entry may take holds the windows
    # of signed_perms that pass is_top_element, in the same order, shard by
    # shard.  At n = 7, where the filter is most of the test's time, only
    # shard 3 of 4 is checked
    six_avoiders = CLASSES["signed-sixavoiders"].generate
    splits = [(k, nshards) for nshards in range(1, 5) for k in range(nshards)]
    for n, split in [*product(range(-1, 7), splits), (7, (3, 4))]:
        assert list(six_avoiders(n, *split)) == list(
            filter(is_top_element, signed_perms(n, *split))
        ), (n, split)


def test_streams_start_at_once_in_bounded_memory():
    # streaming, not a list first: 2**60 paths and 2**12 12! windows
    assert next(all_paths(60)) == "E" * 60
    assert next(signed_perms(12)) == tuple(range(1, 13))
    tracemalloc.start()
    try:
        words = sum(1 for _ in islice(all_paths(40), 10_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert words == 10_000
    assert peak < 1 << 20


def test_even_class_streams_one_high_word_at_a_time():
    # 2**40 objects: the first comes at once, and memory stays at the low
    # table plus the high table of the current high word
    assert next(cinv321_even(80)) == tuple(range(1, 81))
    tracemalloc.start()
    try:
        stream = cinv321_even(60)
        head = sum(1 for _ in islice(stream, 1_000))
        early = tracemalloc.get_traced_memory()[0]
        head += sum(1 for _ in islice(stream, 9_000))
        late, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert head == 10_000
    assert peak < 1 << 20
    # 35 more high words went by: none of their tables may stay behind
    assert late - early < 16 << 10


def test_even_class_low_table_shrinks_as_the_size_grows():
    # a low entry holds O(n) values, so from n = 256 on k falls below
    # LOW_BITS and the low table stays under 2**16 cells: the first object of
    # size 8 000 takes a few MB, where 2**8 low entries took about 70 MB
    tracemalloc.start()
    try:
        first = next(cinv321_even(8_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == tuple(range(1, 8_001))
    assert peak < 12 << 20
    # at n = 256, k = 7: blocks of 128 masks, so shard 1 of 3 starts with
    # the serial stream's second block and goes on with its fifth
    serial = list(islice(cinv321_even(512), 1 << 10))
    assert serial == list(map(subset_involution, islice(subsets(256), 1 << 10)))
    assert list(islice(cinv321_even(512, 1, 3), 129)) == serial[128:256] + serial[512:513]


#: sizes for the text streams: the mask classes on both sides of LOW_BITS
TEXT_SIZES = {
    "cinv321-even": range(0, 2 * LOW_BITS + 7, 2),
    "cinv321-odd": range(1, 14, 2),
    "inv321": range(11),
    "signed-all": range(7),
    "signed-sixavoiders": range(6),
    "subsets": range(LOW_BITS + 4),
    "paths-rect": range(LOW_BITS + 4),
}


@pytest.mark.parametrize("label", CLASS_LABELS)
def test_text_streams_equal_the_format_of_each_object(label):
    cls = CLASSES[label]
    for size in TEXT_SIZES[label]:
        assert list(cls.texts(size)) == list(map(cls.format, cls.generate(size, 0, 1))), size


def test_even_class_texts_where_the_low_table_shrinks():
    # k is 7 at n = 256: blocks of 128 masks
    texts = list(islice(CLASSES["cinv321-even"].texts(512), 2_000))
    assert texts == list(map(format_perm, islice(cinv321_even(512), 2_000)))


def test_text_streams_check_their_arguments_when_called():
    with pytest.raises(ValueError, match="even size"):
        CLASSES["cinv321-even"].texts(5)
    with pytest.raises(ValueError, match="odd size"):
        CLASSES["cinv321-odd"].texts(4)
    with pytest.raises(ValueError, match="non-negative"):
        generate.class_texts("signed-all", -1)
    with pytest.raises(ValueError, match="unknown class"):
        generate.class_texts("nope", 2)


def test_pruned_walk_equals_filtered_involutions():
    # the same objects in the same order, shard by shard
    for m in range(11):
        for nshards in (1, 2, 3):
            for k in range(nshards):
                assert list(inv321(m, k, nshards)) == [
                    p for p in involutions(m, k, nshards) if not contains_321(p)
                ], (m, k, nshards)


def test_cut_walk_equals_filtered_involutions_to_12():
    # an unplaced point below mid ends the branch; the cut must lose nothing
    # and keep the order.  The test above covers m <= 10, this one the rest
    # of m <= 12
    for m in (11, 12):
        for nshards in (1, 2, 3):
            for k in range(nshards):
                assert list(inv321(m, k, nshards)) == [
                    p for p in involutions(m, k, nshards) if not contains_321(p)
                ], (m, k, nshards)


def test_signed_stats_equal_the_checked_pull_back():
    perm_stats = CLASSES["inv321"].stats
    for label in ("signed-all", "signed-sixavoiders"):
        signed_stats = CLASSES[label].stats
        assert signed_stats.keys() == perm_stats.keys()
        for n in range(5):
            for s in signed_perms(n):
                for name, fn in perm_stats.items():
                    assert signed_stats[name](s) == fn(theta_inverse(s)), (name, s)


def test_shard_validation():
    with pytest.raises(ValueError):
        list(involutions(4, 2, 2))
    with pytest.raises(ValueError):
        list(involutions(4, 0, 0))
    with pytest.raises(ValueError):
        list(subsets(4, -1, 3))
    with pytest.raises(ValueError):
        list(generate_class("paths-rect", 4, 0, 0))


def test_streams_check_their_arguments_when_called(monkeypatch):
    # a bad shard or size raises before the stream is read, and a stream
    # that is made and dropped builds no path words
    for label, cls in CLASSES.items():
        with pytest.raises(ValueError, match="bad shard"):
            cls.generate(3 if label == "cinv321-odd" else 2, 2, 2)
    with pytest.raises(ValueError, match="even size"):
        cinv321_even(5)
    with pytest.raises(ValueError, match="odd size"):
        cinv321_odd(4)
    built = []
    real = paths.subset_path
    monkeypatch.setattr(paths, "subset_path", lambda e: built.append(e) or real(e))
    all_paths(18, 1, 2)
    assert built == []
    assert next(all_paths(18, 1, 2)) == "EEEEEEEENEEEEEEEEE"
    assert len(built) == (1 << 8) + 1  # the low words, then one high word


def test_negative_size_rejected_up_front():
    for label in CLASS_LABELS:
        with pytest.raises(ValueError, match="non-negative"):
            generate_class(label, -1)
    # the raw generators yield nothing for a negative size
    assert list(involutions(-1)) == [] and list(involutions(-2)) == []
    assert list(inv321(-2)) == [] and list(cinv321_odd(-1)) == []
    assert list(subsets(-1)) == [] and list(cinv321_even(-2)) == []
    assert list(signed_perms(-1)) == [] and list(all_paths(-1)) == []
    assert list(centro_perms(-2)) == [] and list(centro_perms(-1)) == []
    assert list(subsets(-1, 1, 2)) == [] and list(signed_perms(-1, 1, 2)) == []


def test_labels_and_formatting():
    assert CLASS_LABELS == (
        "cinv321-even",
        "cinv321-odd",
        "inv321",
        "signed-all",
        "signed-sixavoiders",
        "subsets",
        "paths-rect",
    )
    with pytest.raises(ValueError):
        generate_class("nope", 3)
    with pytest.raises(ValueError):
        format_object("nope", ())
    assert format_object("inv321", (2, 1)) == "2 1"
    assert format_object("signed-all", (-2, 1)) == "-2 1"
    assert format_object("paths-rect", "NEN") == "NEN"
    # shard 1 of 2 of subsets 9 starts at its high word 1, the mask 2**8
    e = next(iter(generate_class("subsets", 9, 1, 2)))
    assert format_object("subsets", e) == "9"


def test_paths_class_covers_every_rectangle():
    words = list(generate_class("paths-rect", 6))
    assert len(words) == 64
    assert len(set(words)) == 64
    by_counts = Counter(w.count("N") for w in words)
    for a in range(7):
        assert by_counts[a] == comb(6, a)


def test_census_counts():
    # every size the census accepts
    for m in range(21):
        n = m // 2
        assert census(m)["count"] == (comb(n, n // 2) if m % 2 else 2**n)


def test_census_range_guard():
    with pytest.raises(ValueError):
        census(21)
    with pytest.raises(ValueError):
        census(-1)


def streamed_census(m):
    """The same tallies, built from a generator and the statistic functions
    instead of the fused kernel walk: the reference generator filtered_class
    up to m = 12, where it still walks every involution quickly, and the
    class generators above that."""
    n = m // 2
    if m <= 12:
        members = filtered_class(m)
    else:
        members = (cinv321_odd if m % 2 else cinv321_even)(m)
    out = {
        "count": 0,
        "des": [0] * max(m, 1),
        "des+": [0] * (n + 1),
        "maj+": [0] * (n * (n + 1) // 2 + 1),
    }
    for p in members:
        out["count"] += 1
        out["des"][des(p)] += 1
        out["des+"][half_des(p)] += 1
        out["maj+"][half_maj(p)] += 1
    return {
        k: tuple(v) if isinstance(v, list) else v for k, v in out.items()
    }


def test_census_matches_streamed_statistics():
    for m in range(21):
        assert dict(census(m)) == streamed_census(m)


def test_backend_label():
    assert BACKEND == "python"
