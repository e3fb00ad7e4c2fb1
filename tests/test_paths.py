"""Lattice paths: area, peaks, hooks, and the rectangle bijection g."""

import random
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from centroinv import paths
from centroinv.generate import all_paths, cinv321_even, subsets
from centroinv.matchings import excedance_subset, subset as make_subset
from centroinv.paths import (
    area,
    g_inverse,
    g_map,
    hd_star,
    hook_decomposition,
    path_counts,
    peak_set,
    peak_star,
    subset_path,
)
from centroinv.perms import half_descent_set
from oracles import (
    area_by_steps,
    g_inverse_by_coords,
    g_map_by_coords,
    hooks_by_peeling,
    path_partition,
    rect_paths,
    rotate_first_to_last,
)

word_strategy = st.text(alphabet="NE", min_size=0, max_size=12)


def test_subset_path_and_back():
    assert subset_path(make_subset(4, {1, 3})) == "NENE"
    assert subset_path(make_subset(0, ())) == ""
    # subsets and paths share one mask order, so zipping them pairs each
    # subset with its path and each path with its subset
    for n in range(7):
        assert [subset_path(e) for e in subsets(n)] == list(all_paths(n))


def test_all_paths_grouped_by_n_steps_are_the_rectangles():
    # the rectangle drivers read all_paths(n) grouped by the number of N
    # steps; the oracle enumerates each rectangle on its own
    for n in range(13):
        groups = {}
        for w in all_paths(n):
            groups.setdefault(w.count("N"), []).append(w)
        for a in range(n + 1):
            words = groups.get(a, [])
            assert len(words) == comb(n, a)
            assert set(words) == set(rect_paths(a, n - a))
    for n in range(7):
        assert list(subsets(n)) == [(n, mask) for mask in range(2**n)]


def oracle_subset_path(n, ms):
    # the set definition the mask decoder replaced
    return "".join("N" if i in ms else "E" for i in range(1, n + 1))


def test_subset_path_matches_set_oracle():
    for n in range(11):
        for k in range(n + 1):
            for ms in combinations(range(1, n + 1), k):
                e = make_subset(n, ms)
                assert subset_path(e) == oracle_subset_path(n, set(ms))


@given(
    st.integers(0, 30).flatmap(
        lambda n: st.tuples(
            st.just(n), st.sets(st.integers(1, n)) if n else st.just(set())
        )
    )
)
def test_subset_path_matches_set_oracle_random(n_ms):
    assert subset_path(make_subset(*n_ms)) == oracle_subset_path(*n_ms)


def test_peaks():
    assert peak_set("NENE") == (1, 3)
    assert peak_star("NENE") == (1, 3)  # ends with E: nothing added
    assert peak_star("NEN") == (1, 3)
    assert peak_set("EENN") == ()
    assert peak_star("EENN") == (4,)
    assert peak_star("NE") == (1,)
    # peaks the caller has already: only the star label is added
    assert peak_star("NEN", (1,)) == (1, 3)
    assert peak_star("NENE", (1, 3)) == (1, 3)
    assert peak_set("") == ()
    with pytest.raises(ValueError):
        peak_set("NEX")


def test_peak_set_reads_every_ne_corner():
    # the corner search skips past each corner it finds; every word of up to
    # 10 letters, runs of N and of E of every length among them
    for length in range(11):
        for word in map("".join, product("NE", repeat=length)):
            corners = tuple(i for i in range(1, length) if word[i - 1:i + 1] == "NE")
            assert peak_set(word) == corners, word


def test_area_examples():
    assert area("EENN") == 4
    assert area("NENE") == 1
    assert area("NNEE") == 0
    assert area("") == 0
    assert area("EEN") == 2


def test_area_table_matches_plain_loop():
    # every word the two table halves cover, then longer words that split
    # across the halves or fall back to the loop
    for n in range(13):
        for w in map("".join, product("NE", repeat=n)):
            assert area(w) == area_by_steps(w), w
    rng = random.Random(11)
    for _ in range(3000):
        w = "".join(rng.choice("NE") for _ in range(rng.randint(13, 25)))
        assert area(w) == area_by_steps(w), w


@pytest.mark.parametrize(
    "word",
    ["X", "NXE", "ENXEN", "NENENENEX", "NENENENENX", "NENENENENEENNEENX",
     "NENENENENEENNEENEX", "NENENENENEENNEENENE" + "X", "Q" * 30],
)
def test_area_rejects_a_bad_letter_at_every_length(word):
    # a bad letter in the left half, in the right half, and past 18 letters
    with pytest.raises(ValueError) as raised:
        area(word)
    with pytest.raises(ValueError) as expected:
        paths.check_path(word)
    assert str(raised.value) == str(expected.value)


def test_partition_round_trip():
    assert path_partition("EENN") == (2, 2)
    assert path_partition("NENE") == (1,)
    assert path_partition("NNEE") == ()
    with pytest.raises(ValueError):
        path_partition("ENX")
    # one partition per path of the rectangle
    for a in range(5):
        for b in range(5):
            parts = {path_partition(w) for w in rect_paths(a, b)}
            assert len(parts) == comb(a + b, a)


def test_hook_decomposition_examples():
    assert hook_decomposition("EENN") == (1, 3)
    assert hook_decomposition("EEN") == (2,)
    assert hook_decomposition("NNEE") == ()
    assert hook_decomposition("") == ()


def test_hooks_sum_to_area_and_count_durfee():
    for w in all_paths(9):
        hooks = hook_decomposition(w)
        assert hooks == hooks_by_peeling(w)
        assert sum(hooks) == area(w)
        # Durfee side: largest d with parts[d-1] >= d
        parts = path_partition(w)
        durfee = sum(1 for i, r in enumerate(parts) if r >= i + 1)
        assert len(hooks) == durfee


def test_hd_star():
    # the caller hands over the hooks; only the star label is added
    assert hd_star("NEE", ()) == (3,)  # empty diagram, N start adds the length
    assert hd_star("NENE", hook_decomposition("NENE")) == (1, 4)
    assert hd_star("EEN", (2,)) == (2,)
    # starred hook labels stay strictly increasing
    for w in all_paths(8):
        hs = hd_star(w, hook_decomposition(w))
        assert list(hs) == sorted(hs)


def test_g_examples():
    assert g_map("NENE") == "EENN"
    assert g_map("EENN") == "NNEE"
    assert g_map("ENE") == "EEN"
    assert g_map("") == ""
    assert g_inverse("EENN") == "NENE"
    with pytest.raises(ValueError):
        g_map("NEX")


def test_g_transport_exhaustive_small():
    for n in range(9):
        for a in range(n + 1):
            b = n - a
            images = set()
            for p in rect_paths(a, b):
                q = g_map(p)
                assert path_counts(q) == (a, b)
                assert hook_decomposition(q) == peak_set(p)
                assert hd_star(q, hook_decomposition(q)) == peak_star(p)
                # ends-with-N on one side matches starts-with-N on the other
                assert p.endswith("N") == q.startswith("N")
                assert g_inverse(q) == p
                images.add(q)
            assert len(images) == comb(n, a)


def test_g_maps_equal_their_references():
    # on every N/E word of up to 12 letters, images of g as well as words
    # that are not
    for n in range(13):
        for letters in product("NE", repeat=n):
            word = "".join(letters)
            assert g_map(word) == g_map_by_coords(word), word
            assert g_inverse(word) == g_inverse_by_coords(word), word


def test_each_public_call_checks_its_word_once(monkeypatch):
    calls = []
    real = paths.check_path
    monkeypatch.setattr(paths, "check_path", lambda w: calls.append(w) or real(w))
    for fn in (peak_set, peak_star, hook_decomposition, g_map, g_inverse):
        calls.clear()
        fn("NNEENE")
        assert len(calls) == 1, fn.__name__
    # area checks a valid word, a bad one and a long one once each
    for word in ("NNEENE", "NNEENX", "NNEENE" * 4):
        calls.clear()
        try:
            area(word)
        except ValueError:
            assert "X" in word
        assert len(calls) == 1, word


@given(word_strategy)
def test_g_round_trip_random(word):
    assert g_inverse(g_map(word)) == word
    assert g_map(g_inverse(word)) == word


@given(word_strategy.filter(bool))
def test_rotation_area_shift(word):
    rotated = rotate_first_to_last(word)
    a, b = path_counts(word)
    if word.startswith("N"):
        assert area(rotated) == area(word) + b
    else:
        assert area(rotated) == area(word) - a


def test_rotation_rejects_empty():
    with pytest.raises(ValueError):
        rotate_first_to_last("")


def test_peak_count_follows_binomials():
    # paths of length n with exactly k starred peaks: binomial(n+1, 2k) many
    for n in range(11):
        tally = {}
        for w in all_paths(n):
            k = len(peak_star(w))
            tally[k] = tally.get(k, 0) + 1
        for k in range((n + 1) // 2 + 1):
            assert tally.get(k, 0) == comb(n + 1, 2 * k)


def half_descents_from_path(p):
    """Half descent set of a class member, recomputed as starred peaks of the
    subset path; raises if the two routes would ever disagree."""
    transported = peak_star(subset_path(excedance_subset(p)))
    direct = half_descent_set(p)
    if transported != direct:
        raise ValueError(
            f"peak transport mismatch for {p}: {transported} vs {direct}"
        )
    return transported


def test_half_descents_from_path():
    assert half_descents_from_path((2, 1, 4, 3)) == (1,)
    for m in (0, 2, 4, 6, 8, 10):
        for p in cinv321_even(m):
            assert half_descents_from_path(p) == half_descent_set(p)


def test_despeak_propagates_membership_errors():
    with pytest.raises(ValueError):
        half_descents_from_path((4, 3, 2, 1))  # contains 321


def test_doctests():
    import doctest

    assert doctest.testmod(paths).failed == 0
