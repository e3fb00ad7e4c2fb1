"""The theorem drivers and their reports."""

import functools
import json
from itertools import islice
from math import comb

import pytest

from centroinv import generate, kernels, matchings, paths, perms, rsk
from centroinv import verify as verify_module
from centroinv.signed import TOP_PATTERNS
from centroinv.verify import (
    EVEN_CENSUS_READERS,
    RAW_LIMIT,
    ROUTES,
    THEOREMS,
    SizeResult,
    VerificationReport,
    report_text,
    verify,
)
from oracles import report_json, report_tsv, signed_avoids

EXPECTED_IDS = (
    "T-despoly",
    "T-majpoly",
    "T-desfull",
    "T-cara",
    "T-odd",
    "T-hdpeak",
    "T-recr",
    "T-sixpat",
    "T-fp",
    "T-cor1",
    "T-cor2",
)


def test_registry():
    assert tuple(THEOREMS) == EXPECTED_IDS
    for name, (description, default_max, fn) in THEOREMS.items():
        assert description
        assert default_max >= 5
        assert callable(fn)


def test_all_drivers_pass_at_small_sizes():
    for name in THEOREMS:
        report = verify(name, max_size=3)
        assert report.theorem == name
        assert report.ok
        assert [r.n for r in report.results] == [0, 1, 2, 3]
        assert all(r.counterexample is None for r in report.results)
        assert report.duration_s >= 0


def test_raw_routes_stay_inside_the_census_guard():
    # the raw routes read census(2n) and census(2n + 1) for n <= RAW_LIMIT;
    # a RAW_LIMIT raised past the census guard (m <= 20) fails here, not in
    # a driver at run time
    m = 2 * RAW_LIMIT + 1
    assert m <= 20
    assert kernels.census(m)["count"] == comb(RAW_LIMIT, RAW_LIMIT // 2)


def test_walk_even_census_fills_the_even_sizes_read(monkeypatch):
    # EVEN_CENSUS_READERS are the drivers that walk the even census.  From a
    # cleared cache they walk census(2n) for n up to max_size and RAW_LIMIT,
    # and nothing else; no other driver, run up to RAW_LIMIT, walks an even
    # size, so a new reader left out of the set fails here
    walked = []
    real = kernels.census.__wrapped__

    def walk(m):
        walked.append(m)
        return real(m)

    def cleared():
        walked.clear()
        monkeypatch.setattr(kernels, "census", functools.lru_cache(maxsize=None)(walk))

    for max_size, top in ((0, 0), (3, 3), (RAW_LIMIT + 3, RAW_LIMIT), (None, RAW_LIMIT)):
        cleared()
        for name in EVEN_CENSUS_READERS:
            assert verify(name, max_size).ok, (name, max_size)
        assert sorted(walked) == list(range(0, 2 * top + 1, 2)), max_size
    cleared()
    for name in THEOREMS.keys() - EVEN_CENSUS_READERS:
        assert verify(name, min(THEOREMS[name][1], RAW_LIMIT)).ok, name
    assert [m for m in walked if m % 2 == 0] == []


def test_unknown_theorem():
    with pytest.raises(ValueError):
        verify("T-nope")


def joined(fmt: str, r: VerificationReport) -> str:
    """The pieces of report_text(fmt) of r, joined as ``verify`` writes them."""
    head, row, sep, tail = report_text(fmt)
    return head(r.theorem) + sep.join(map(row, r.results)) + tail(r.duration_s)


def test_failure_reporting():
    fake = VerificationReport(
        "T-fake",
        (
            SizeResult(0, "pass", None),
            SizeResult(1, "fail", "boom"),
        ),
        0.5,
    )
    assert not fake.ok
    assert joined("json", fake) == report_json(fake)
    assert joined("tsv", fake) == report_tsv(fake) + "\n"
    doc = json.loads(joined("json", fake))
    assert doc == {
        "theorem": "T-fake",
        "results": [
            {"n": 0, "status": "pass", "counterexample": None},
            {"n": 1, "status": "fail", "counterexample": "boom"},
        ],
        "duration_s": 0.5,
    }
    assert joined("tsv", fake).splitlines() == [
        "n\tstatus\tcounterexample",
        "0\tpass\t",
        "1\tfail\tboom",
    ]


def test_driver_counterexample_path(monkeypatch):
    monkeypatch.setitem(
        THEOREMS,
        "T-fake",
        ("fails from size two on", 3, lambda n: None if n < 2 else "boom"),
    )
    report = verify("T-fake")
    assert not report.ok
    assert [r.status for r in report.results] == ["pass", "pass", "fail", "fail"]
    assert report.results[2].counterexample == "boom"


def test_cara_count_check_catches_a_missing_member(monkeypatch):
    # a census that counts one class member more than the 2^n images: the
    # images then miss a member, and T-cara must say so at every size
    real = kernels.census
    monkeypatch.setattr(
        kernels, "census", lambda m: {**real(m), "count": real(m)["count"] + 1}
    )
    report = verify("T-cara", 3)
    assert not report.ok
    assert [r.status for r in report.results] == ["fail"] * 4
    assert report.results[3].counterexample == (
        "raw census counts 9 class members, 8 images"
    )


def test_drivers_catch_a_repeated_object(monkeypatch):
    # a stream that yields its first object twice, in place of its second,
    # has the right length; each driver that reads it must still fail at n = 3
    def repeating_first(real):
        def stream(*args):
            objs = list(real(*args))
            objs[1:2] = objs[:1]
            return iter(objs)

        return stream

    for name, stream, text in (
        ("T-cara", "subsets", "only 7 distinct images for 8 subsets"),
        ("T-odd", "inv321", "join is not injective"),
        ("T-fp", "inv321", "theta is not injective on the 0 x 3 rectangle"),
        ("T-hdpeak", "all_paths", "g is not bijective on the 1 x 2 rectangle"),
        ("T-cor2", "inv321", "fp >= 3, des = 0: (2,) != product form (1,)"),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(generate, stream, repeating_first(getattr(generate, stream)))
            assert THEOREMS[name][2](3) == text, (name, stream)


def test_cara_rejects_a_nesting_matching(monkeypatch):
    # a subset matching that nests from n = 2 on must give a fail row with
    # the counterexample, not an exception out of matching_permutation
    real = verify_module.subset_involution

    def nesting(e):
        if e[0] < 2:
            return real(e)
        m = 2 * e[0]
        return matchings.parse_matching(f"1-{m},2-{m - 1}", m)

    monkeypatch.setattr(verify_module, "subset_involution", nesting)
    report = verify("T-cara", 3)
    assert [r.status for r in report.results] == ["pass", "pass", "fail", "fail"]
    assert report.results[2].counterexample == (
        "image of {} rejected: matching is nesting"
    )


def test_sixpat_catches_a_broken_fast_check(monkeypatch):
    # a fast check that drops the (1, -2) condition accepts (1, -2) at
    # n = 2; the theta image and the literal scan both reject it
    def without_1_minus_2(s):
        return all(signed_avoids(s, t) for t in TOP_PATTERNS if t != (1, -2))

    monkeypatch.setattr(verify_module, "is_top_element", without_1_minus_2)
    report = verify("T-sixpat", 3)
    assert not report.ok
    assert [r.status for r in report.results] == ["pass", "pass", "fail", "fail"]
    assert report.results[2].counterexample == (
        "theta image and linear scan differ, e.g. 1 -2 (linear scan only)"
    )


def test_sixpat_catches_a_broken_literal_scan(monkeypatch):
    # a literal scan that never sees the pattern (1, -2) accepts (1, -2) at
    # n = 2; the theta image and the linear scan both reject it.  The scan
    # builds the pattern of each subsequence with signed_pattern, and here
    # that reads the pattern (1, -2) as (1, 2)
    real = verify_module.signed_pattern

    def without_1_minus_2(sub):
        pattern = real(sub)
        return (1, 2) if pattern == (1, -2) else pattern

    monkeypatch.setattr(verify_module, "signed_pattern", without_1_minus_2)
    report = verify("T-sixpat", 3)
    assert [r.status for r in report.results] == ["pass", "pass", "fail", "fail"]
    assert report.results[2].counterexample == (
        "theta image and literal scan differ, e.g. 1 -2 (literal scan only)"
    )


def _perturbed_census(monkeypatch, key):
    # one more member in the zeroth entry of one census tally
    real = kernels.census

    def census(m):
        tally = real(m)[key]
        return {**real(m), key: (tally[0] + 1,) + tally[1:]}

    monkeypatch.setattr(kernels, "census", census)


def test_despoly_compares_the_raw_census(monkeypatch):
    # the census route runs for n <= RAW_LIMIT only
    _perturbed_census(monkeypatch, "des+")
    report = verify("T-despoly", RAW_LIMIT + 2)
    assert [r.status for r in report.results] == (
        ["fail"] * (RAW_LIMIT + 1) + ["pass"] * 2
    )
    assert report.results[3].counterexample == (
        "raw filter gives (2, 6, 1), closed form (1, 6, 1)"
    )


def test_odd_and_majpoly_compare_the_raw_census(monkeypatch):
    _perturbed_census(monkeypatch, "maj+")
    odd = verify("T-odd", 3)
    assert [r.status for r in odd.results] == ["fail"] * 4
    assert odd.results[3].counterexample == (
        "raw maj+ tally gives (2, 1, 1), closed form (1, 1, 1)"
    )
    majpoly = verify("T-majpoly", 3)
    assert [r.status for r in majpoly.results] == ["fail"] * 4
    assert majpoly.results[2].counterexample == (
        "raw filter gives (2, 1, 2), binomial sum (1, 1, 2)"
    )


def test_despoly_compares_the_recurrence(monkeypatch):
    real = verify_module.half_des_poly_rec
    monkeypatch.setattr(verify_module, "half_des_poly_rec", lambda n: real(n) + (7,))
    report = verify("T-despoly", 2)
    assert not report.ok
    assert report.results[2].counterexample == (
        "recurrence gives (1, 3, 7), closed form (1, 3)"
    )


def test_cor1_compares_the_central_binomial_once(monkeypatch):
    # the a = n // 2 row sums every member, so a wrong central binomial
    # shows there, as fp >= 0 at even n
    real = verify_module.q_binomial

    def central_off(n, k):
        return real(n, k) + ((7,) if k == n // 2 else ())

    monkeypatch.setattr(verify_module, "q_binomial", central_off)
    report = verify("T-cor1", 3)
    assert [r.status for r in report.results] == ["fail"] * 4
    assert report.results[2].counterexample == (
        "fp >= 0: (1, 1) != Gaussian binomial (2,1) = (1, 1, 7)"
    )


def test_hdpeak_catches_two_swapped_images(monkeypatch):
    # g with the images of NE and EN, both in the 1 x 1 rectangle, swapped:
    # still a bijection of each rectangle, but peaks no longer become hooks
    real = paths.g_map
    swap = {"NE": "EN", "EN": "NE"}
    monkeypatch.setattr(paths, "g_map", lambda w: real(swap.get(w, w)))
    report = verify("T-hdpeak", 3)
    assert [r.status for r in report.results] == ["pass", "pass", "fail", "pass"]
    assert report.results[2].counterexample == "hooks of g(NE) = NE differ from peaks of NE"


def test_fp_catches_two_swapped_images(monkeypatch):
    # theta with the images of 1 2 and 2 1 in the 1 x 1 rectangle swapped
    real = rsk.theta_rect
    swap = {(1, 2): (2, 1), (2, 1): (1, 2)}

    def swapped(p, a, b):
        return real(swap[p], a, b) if (a, b) == (1, 1) else real(p, a, b)

    monkeypatch.setattr(rsk, "theta_rect", swapped)
    report = verify("T-fp", 3)
    assert [r.status for r in report.results] == ["pass", "pass", "fail", "pass"]
    assert report.results[2].counterexample == "hooks of theta(1 2) differ from descents"


def test_cor2_catches_a_wrong_area_on_one_hook(monkeypatch):
    real = paths.area
    monkeypatch.setattr(
        paths, "area", lambda w: real(w) + (len(paths.hook_decomposition(w)) == 1)
    )
    report = verify("T-cor2", 3)
    assert [r.status for r in report.results] == ["pass", "pass", "fail", "fail"]
    assert report.results[2].counterexample == "1-hook diagrams in 1 x 1: (0, 0, 1) != (0, 1)"


def test_cor1_catches_a_fixed_point_count_of_wrong_parity(monkeypatch):
    # an involution of [n] has n - fp points on its arcs, an even number
    real = perms.fixed_point_count
    monkeypatch.setattr(perms, "fixed_point_count", lambda p: real(p) + 1)
    report = verify("T-cor1", 3)
    assert [r.status for r in report.results] == ["fail"] * 4
    assert report.results[0].counterexample == "fixed point count with wrong parity"


def test_cor1_compares_the_difference_form(monkeypatch):
    real = rsk.maj_poly_by_fixed_points
    monkeypatch.setattr(
        rsk,
        "maj_poly_by_fixed_points",
        lambda n, l: real(n, l) + ((7,) if (n, l) == (4, 2) else ()),
    )
    report = verify("T-cor1", 5)
    assert [r.status for r in report.results] == ["pass"] * 4 + ["fail", "pass"]
    assert report.results[4].counterexample == (
        "fp = 2: (0, 1, 1, 1) != difference form (0, 1, 1, 1, 7)"
    )


def test_cor2_compares_the_difference_form(monkeypatch):
    real = rsk.maj_poly_by_fixed_points_and_des
    monkeypatch.setattr(
        rsk,
        "maj_poly_by_fixed_points_and_des",
        lambda n, l, k: real(n, l, k) + ((7,) if (n, l, k) == (4, 2, 1) else ()),
    )
    report = verify("T-cor2", 5)
    assert [r.status for r in report.results] == ["pass"] * 4 + ["fail", "pass"]
    assert report.results[4].counterexample == (
        "fp = 2, des = 1: (0, 1, 1, 1) != difference form (0, 1, 1, 1, 7)"
    )


def test_fp_catches_two_swapped_preimages(monkeypatch):
    # the inverse with its images of 2 1 4 3 and 3 4 1 2, both without a
    # fixed point and so in the 2 x 2 rectangle, swapped
    real = rsk.theta_rect_inverse
    swap = {(2, 1, 4, 3): (3, 4, 1, 2), (3, 4, 1, 2): (2, 1, 4, 3)}

    def swapped(lam, a, b):
        p = real(lam, a, b)
        return swap.get(p, p)

    monkeypatch.setattr(rsk, "theta_rect_inverse", swapped)
    report = verify("T-fp", 4)
    assert [r.status for r in report.results] == ["pass"] * 4 + ["fail"]
    assert report.results[4].counterexample == "inverse round trip failed at 2 1 4 3"


def test_odd_catches_a_split_that_drops_the_arcs(monkeypatch):
    # a split that returns the identity of the half: right on the identity,
    # wrong from the first arc on
    monkeypatch.setattr(verify_module, "odd_split", lambda p: tuple(range(1, len(p) // 2 + 1)))
    report = verify("T-odd", 3)
    assert [r.status for r in report.results] == ["pass", "pass", "fail", "fail"]
    assert report.results[2].counterexample == "split(join) failed at 2 1"


def _without_the_first(real):
    return lambda *args: islice(real(*args), 1, None)


_SWAP_STEPS = str.maketrans("NE", "EN")

#: one mutation for each failure text of the per-object checkers that the
#: tests above do not reach: the driver, the first size at which it fails,
#: its exact counterexample there, and the patch, (module, attribute, the
#: mutant made from the real attribute)
CHECK_MUTATIONS = [
    # every image read back as the empty subset
    ("T-cara", 1, "round trip failed at 1",
     (matchings, "excedance_subset", lambda real: lambda p: (len(p) // 2, 0))),
    # a 321 walk that loses its first object, the identity
    ("T-odd", 0, "|inv321| = 0, expected 1", (generate, "inv321", _without_the_first)),
    # the join read right to left: 1 becomes 3 2 1
    ("T-odd", 1, "join of 1 leaves the class",
     (verify_module, "odd_join", lambda real: lambda a: real(a)[::-1])),
    # a half-descent set that loses its first descent
    ("T-odd", 2, "statistic transport failed at 2 1",
     (perms, "half_descent_set", lambda real: lambda p: real(p)[1:])),
    # a census that counts one class member more
    ("T-odd", 0, "raw filter count 2 != 1",
     (kernels, "census", lambda real: lambda m: {**real(m), "count": real(m)["count"] + 1})),
    # g with its N and E steps swapped
    ("T-hdpeak", 1, "g(E) leaves the 0 x 1 rectangle",
     (paths, "g_map", lambda real: lambda w: real(w).translate(_SWAP_STEPS))),
    # starred hooks without the star: the hooks the driver passes in, with no
    # label for a word that starts with N
    ("T-hdpeak", 1, "starred hooks of g(N) differ from starred peaks",
     (paths, "hd_star", lambda real: lambda word, hooks: hooks)),
    # g_inverse read right to left
    ("T-hdpeak", 2, "g_inverse(g(NE)) != NE",
     (paths, "g_inverse", lambda real: lambda w: real(w)[::-1])),
    # theta with its N and E steps swapped
    ("T-fp", 1, "theta(1) leaves the 0 x 1 rectangle",
     (rsk, "theta_rect", lambda real: lambda p, a, b: real(p, a, b).translate(_SWAP_STEPS))),
    # the identity missing from every rectangle's domain
    ("T-fp", 0, "domain has 0 members, rectangle 1", (generate, "inv321", _without_the_first)),
]


@pytest.mark.parametrize(
    "driver, size, text, patch", CHECK_MUTATIONS, ids=[text for _, _, text, _ in CHECK_MUTATIONS]
)
def test_each_check_fails_under_its_mutation(monkeypatch, driver, size, text, patch):
    module, name, mutant = patch
    monkeypatch.setattr(module, name, mutant(getattr(module, name)))
    results = verify(driver, size).results
    assert [r.status for r in results] == ["pass"] * size + ["fail"]
    assert results[size].counterexample == text


def test_desfull_compares_the_subset_transport(monkeypatch):
    # one more descent for the empty subset
    real = matchings.des_from_subset
    monkeypatch.setattr(
        matchings, "des_from_subset", lambda e: real(e) + (e[1] == 0)
    )
    report = verify("T-desfull", 3)
    assert [r.status for r in report.results] == ["fail"] * 4
    assert report.results[2].counterexample == (
        "subset transport gives (0, 3, 1), closed form (1, 2, 1)"
    )


def test_recr_compares_the_recurrence(monkeypatch):
    # a wrong area polynomial at n = 3 shows at n = 3 itself and in both
    # terms of the recurrence, at n = 4 and n = 5
    real = verify_module.half_maj_poly_by_area
    monkeypatch.setattr(
        verify_module,
        "half_maj_poly_by_area",
        lambda n: real(n) + (7,) if n == 3 else real(n),
    )
    report = verify("T-recr", 6)
    assert [r.status for r in report.results] == (
        ["pass"] * 3 + ["fail"] * 3 + ["pass"]
    )
    assert report.results[3].counterexample.startswith("recurrence gives ")
    assert report.results[3].counterexample.endswith(
        "area enumeration (1, 1, 2, 3, 1, 7)"
    )


def test_every_compared_route_can_fail(monkeypatch):
    # the matrix of every (driver, route) pair in the tables of ROUTES at
    # sizes 0..3, the references left out: a table in which that one route
    # gives a wrong value fails the driver, and the counterexample names
    # that route.  T-sixpat's routes give sets of windows and get a foreign
    # window; the others give polynomials and get one more coefficient
    def mutated(routes, target, wrong):
        return lambda n: [
            {name: (lambda r=r: wrong(r())) if name == target else r
             for name, r in table.items()}
            for table in routes(n)
        ]

    pairs = dict.fromkeys(
        (driver, name)
        for driver, routes in ROUTES.items()
        for n in range(4)
        for table in routes(n)
        for name in list(table)[1:]
    )
    assert sum(driver != "T-sixpat" for driver, _ in pairs) >= 20
    assert ("T-sixpat", "linear scan") in pairs and ("T-sixpat", "literal scan") in pairs
    for driver, target in pairs:
        if driver == "T-sixpat":
            wrong, text = (lambda v: v | {(0,)}), (
                f"theta image and {target} differ, e.g. 0 ({target} only)"
            )
        else:
            wrong, text = (lambda v: v + (7,)), f"{target} gives "
        with monkeypatch.context() as patch:
            patch.setitem(ROUTES, driver, mutated(ROUTES[driver], target, wrong))
            results = verify(driver, 3).results
        failing = [r.counterexample for r in results if r.status == "fail"]
        assert failing, (driver, target)
        assert all(cx.startswith(text) for cx in failing), failing


def test_drivers_without_a_route_table():
    # T-cara, T-hdpeak and T-fp check bijections object by object, with no
    # distributions to compare; T-cor1 and T-cor2 compare cell by cell, and
    # their texts name the cell and its closed form, which the comparator's
    # "<route> gives <value>" cannot say
    no_table = {"T-cara", "T-hdpeak", "T-fp", "T-cor1", "T-cor2"}
    assert set(ROUTES) == set(THEOREMS) - no_table


def test_row_is_called_as_each_size_ends(monkeypatch):
    # row gets each size's result before the next size starts, and the
    # report holds the same results
    calls = []
    text, default_max, fn = THEOREMS["T-recr"]
    monkeypatch.setitem(
        THEOREMS, "T-recr", (text, default_max, lambda n: calls.append(n) or fn(n))
    )
    report = verify("T-recr", 3, row=calls.append)
    assert calls == [x for r in report.results for x in (r.n, r)]
    assert verify("T-recr", 3).results == report.results


def test_report_json_schema():
    report = verify("T-recr", max_size=5)
    doc = json.loads(joined("json", report))
    assert doc["theorem"] == "T-recr"
    assert len(doc["results"]) == 6
    assert all(r["status"] == "pass" for r in doc["results"])
    assert isinstance(doc["duration_s"], float)
