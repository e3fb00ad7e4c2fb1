"""Subset <-> matching <-> involution bijection and the carried statistics."""

import random
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from centroinv import matchings
from centroinv.generate import involutions, subsets
from centroinv.matchings import (
    des_from_subset,
    excedance_subset,
    format_matching,
    format_subset,
    involution_matching,
    is_nonnesting,
    matching_permutation,
    odd_join,
    odd_split,
    parse_matching,
    parse_subset,
    subset,
    subset_des,
    subset_involution,
    subset_maj,
)
from centroinv.perms import (
    contains_321,
    des,
    half_des,
    half_descent_set,
    half_maj,
    is_centrosymmetric,
    is_involution,
    maj,
)

from oracles import (
    filtered_class,
    is_nonnesting_pairwise,
    singletons,
    subset_descents,
)


def subset_strategy(max_n=10):
    return st.integers(0, max_n).flatmap(
        lambda n: st.builds(
            lambda ms: subset(n, ms),
            st.sets(st.sampled_from(range(1, n + 1)) if n else st.nothing()),
        )
    )


# ---------- matchings as objects ----------


def test_matching_validation():
    with pytest.raises(ValueError, match=r"^bad arc \(1,5\) on 4 points$"):
        parse_matching("1-5", 4)
    with pytest.raises(ValueError, match=r"^endpoint reused in arc \(2,3\)$"):
        parse_matching("1-2,2-3", 4)
    with pytest.raises(ValueError, match=r"^bad arc \(3,3\) on 4 points$"):
        parse_matching("3-3", 4)
    # arcs may come reversed and in any order
    assert parse_matching("4-3,2-1", 4) == (2, 1, 4, 3)


def test_matching_text_round_trip():
    mch = (2, 1, 3, 4, 6, 5)
    assert format_matching(mch) == "1-2,5-6"
    assert parse_matching("1-2,5-6", 6) == mch
    assert parse_matching("", 4) == (1, 2, 3, 4)
    assert parse_matching(" 1 - 2 , 4-3 ", 4) == (2, 1, 4, 3)
    assert format_matching((1, 2, 3, 4)) == ""
    assert singletons(mch) == (3, 4)
    # every partial matching on up to 10 points
    for m in range(11):
        for p in involutions(m):
            assert parse_matching(format_matching(p), m) == p


def test_parse_matching_names_bad_chunk():
    # int() would read "1_0" as 10 and "\u0662" as 2
    for text in ("1-2-3", "1-x", "12", "1-1_0", "\u0661-2", "+1-2", "1--2"):
        with pytest.raises(ValueError) as exc:
            parse_matching("4-5," + text, 6)
        assert str(exc.value) == f"bad arc {text!r}, expected i-j"


def test_symmetry_and_nesting_predicates():
    assert is_centrosymmetric(parse_matching("1-3,2-4", 4))
    assert not is_centrosymmetric(parse_matching("1-3", 4))
    assert is_nonnesting(parse_matching("1-3,2-4", 4))
    assert not is_nonnesting(parse_matching("1-4,2-3", 4))
    # singleton inside an arc also nests
    assert not is_nonnesting(parse_matching("1-3", 4))
    assert is_nonnesting(parse_matching("3-4", 4))


def test_nonnesting_sweep_matches_pairwise_definition():
    # every partial matching on up to 10 points: 13 232 of them
    seen = 0
    for m in range(11):
        for p in involutions(m):
            assert is_nonnesting(p) == is_nonnesting_pairwise(p), p
            seen += 1
    assert seen == 13232


# ---------- involution <-> matching ----------


def test_involution_matching_examples():
    assert format_matching(involution_matching((2, 1, 4, 3))) == "1-2,3-4"
    assert format_matching(involution_matching((1, 3, 2, 4))) == "2-3"
    assert matching_permutation(parse_matching("2-3", 4)) == (1, 3, 2, 4)
    with pytest.raises(ValueError):
        involution_matching((3, 1, 2, 4))  # not an involution
    with pytest.raises(ValueError):
        involution_matching((2, 1, 3))  # odd size
    with pytest.raises(ValueError):
        involution_matching((1, 3, 2))  # not centrosymmetric, odd anyway
    with pytest.raises(ValueError):
        matching_permutation(parse_matching("1-4,2-3", 4))  # nesting
    with pytest.raises(ValueError, match="^matching is not symmetric$"):
        matching_permutation(parse_matching("1-3", 4))


def test_involution_matching_round_trip_both_parities():
    # odd sizes included: the odd class is a set of symmetric non-nesting
    # matchings too, with the centre a singleton
    for m in range(10):
        for p in filtered_class(m):
            text = format_matching(involution_matching(p))
            assert parse_matching(text, m) == p


def test_involution_matching_nesting_iff_contains_321():
    for p in involutions(6):
        if not is_centrosymmetric(p):
            continue
        mch = involution_matching(p)
        assert is_centrosymmetric(mch)
        assert is_nonnesting(mch) == (not contains_321(p))


# ---------- the subset bijection ----------


def test_subset_parse_format():
    e = subset(5, {1, 4})
    assert format_subset(e) == "1,4"
    assert parse_subset("1,4", 5) == e
    assert parse_subset("", 5) == subset(5, ())
    with pytest.raises(ValueError):
        subset(3, {4})


def test_subset_matching_worked_example():
    # 22 points; mirror arcs interleave with the scanned ones
    e = subset(11, {1, 4, 5, 7, 8, 10})
    assert format_matching(subset_involution(e)) == (
        "1-2,4-6,5-9,7-11,8-13,10-15,12-16,14-18,17-19,21-22"
    )


def test_subset_involution_small_cases():
    assert subset_involution(subset(0, ())) == ()
    assert subset_involution(subset(2, ())) == (1, 2, 3, 4)
    assert subset_involution(subset(2, {1})) == (2, 1, 4, 3)
    assert subset_involution(subset(2, {2})) == (1, 3, 2, 4)
    assert subset_involution(subset(2, {1, 2})) == (3, 4, 1, 2)


def test_excedance_subset_membership_errors():
    with pytest.raises(ValueError):
        excedance_subset((2, 1, 3))  # odd size
    with pytest.raises(ValueError):
        excedance_subset((3, 1, 2, 4))  # not an involution
    with pytest.raises(ValueError):
        excedance_subset((2, 1, 3, 4))  # not centrosymmetric
    with pytest.raises(ValueError):
        excedance_subset((4, 3, 2, 1))  # contains 321


@given(subset_strategy())
def test_round_trip_random_subsets(e):
    p = subset_involution(e)
    assert is_involution(p) and is_centrosymmetric(p) and not contains_321(p)
    assert excedance_subset(p) == e


def test_bijection_exhaustive_small():
    for n in range(7):
        images = {subset_involution(e) for e in subsets(n)}
        assert len(images) == 1 << n
        direct = {
            p
            for p in involutions(2 * n)
            if is_centrosymmetric(p) and not contains_321(p)
        }
        assert images == direct


# ---------- statistics carried by subsets ----------


def test_subset_descents_examples():
    assert subset_descents(subset(3, {1, 3})) == (1, 3)
    assert subset_des(subset(3, {1, 3})) == 2
    assert subset_maj(subset(3, {1, 3})) == 4
    assert subset_descents(subset(4, {1, 2})) == (2,)
    assert subset_descents(subset(4, ())) == ()
    # n itself is always a descent when present
    assert subset_descents(subset(4, {4})) == (4,)


# The set definitions the mask code replaced, kept as oracles: each reads
# the members as a set and shares no code with matchings.


def oracle_descents(n, ms):
    return tuple(i for i in sorted(ms) if i + 1 not in ms)


def oracle_des_from_subset(n, ms):
    d = 2 * len(oracle_descents(n, ms))
    return d - 1 if n in ms else d


def all_member_sets(max_n):
    for n in range(max_n + 1):
        for k in range(n + 1):
            for ms in combinations(range(1, n + 1), k):
                yield n, frozenset(ms)


def member_sets(max_n):
    return st.integers(0, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.frozensets(st.integers(1, n)) if n else st.just(frozenset()),
        )
    )


def check_mask_code_against_oracles(n, ms):
    e = subset(n, ms)
    descents = oracle_descents(n, ms)
    assert subset_descents(e) == descents
    assert subset_des(e) == len(descents)
    assert subset_maj(e) == sum(descents)
    assert des_from_subset(e) == oracle_des_from_subset(n, ms)
    assert format_subset(e) == ",".join(str(i) for i in sorted(ms))


def test_mask_code_matches_set_oracles_exhaustive():
    # includes n = 0 and every subset that contains n
    for n, ms in all_member_sets(10):
        check_mask_code_against_oracles(n, ms)


@given(member_sets(30))
def test_mask_code_matches_set_oracles_random(n_ms):
    check_mask_code_against_oracles(*n_ms)


def test_subset_maj_byte_table_matches_descent_sum():
    # every mask up to n = 12, then seeded masks that span several bytes
    for n in range(13):
        for e in subsets(n):
            assert subset_maj(e) == sum(subset_descents(e)), e
    rng = random.Random(7)
    for _ in range(2000):
        n = rng.randint(13, 40)
        e = (n, rng.getrandbits(n))
        assert subset_maj(e) == sum(subset_descents(e)), e
    full = (40, (1 << 40) - 1)
    assert subset_maj(full) == 40
    alternating = (40, int("01" * 20, 2))
    assert subset_maj(alternating) == sum(range(1, 41, 2))


def test_des_from_subset_examples():
    assert des_from_subset(subset(2, {1})) == 2  # attached involution 2143
    assert des_from_subset(subset(2, {2})) == 1  # attached involution 1324
    assert des_from_subset(subset(2, ())) == 0


def test_subset_statistics_match_involution_statistics():
    for n in range(8):
        for e in subsets(n):
            p = subset_involution(e)
            assert subset_descents(e) == half_descent_set(p)
            assert subset_des(e) == half_des(p)
            assert subset_maj(e) == half_maj(p)
            assert des_from_subset(e) == des(p)


# ---------- odd sizes ----------


def test_odd_join_example():
    assert odd_join((2, 1)) == (2, 1, 3, 5, 4)
    assert odd_join(()) == (1,)
    assert odd_split((2, 1, 3, 5, 4)) == (2, 1)
    with pytest.raises(ValueError):
        odd_join((3, 1, 2))  # not an involution
    with pytest.raises(ValueError):
        odd_join((3, 2, 1))  # contains 321
    with pytest.raises(ValueError):
        odd_split((2, 1, 4, 3))  # even size
    with pytest.raises(ValueError):
        odd_split((1, 3, 2))  # not centrosymmetric


def test_odd_join_bijective_with_statistics():
    from math import comb

    for n in range(8):
        alphas = [
            a for a in involutions(n) if not contains_321(a)
        ]
        assert len(alphas) == comb(n, n // 2)
        images = set()
        for a in alphas:
            p = odd_join(a)
            assert is_involution(p) and is_centrosymmetric(p)
            assert not contains_321(p)
            assert odd_split(p) == a
            assert half_des(p) == des(a)
            assert half_maj(p) == maj(a)
            assert des(p) == 2 * des(a)
            images.add(p)
        assert len(images) == len(alphas)


def test_doctests():
    import doctest

    assert doctest.testmod(matchings).failed == 0
