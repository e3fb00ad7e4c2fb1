"""Distribution tables: serial, sharded, and their text forms."""

import concurrent.futures
import json
from collections import Counter
from itertools import product

import pytest

from centroinv import distrib
from centroinv.distrib import (
    STATS,
    distribution,
    stat_function,
    table_json,
    table_tsv,
)
from centroinv.generate import CLASS_LABELS
from centroinv.paths import area, peak_star
from centroinv.qpoly import (
    full_des_poly,
    half_des_poly,
    half_maj_poly,
    odd_case_polys,
    peval,
    psum,
    q_binomial,
)


def test_stats_tuple():
    assert STATS == ("des+", "maj+", "des", "maj", "fp", "area", "peaks")


def test_distribution_against_closed_forms():
    t = distribution("cinv321-even", 4, "des")
    assert t.poly == (1, 2, 1)
    assert t.count == 4
    assert distribution("cinv321-even", 12, "des+").poly == half_des_poly(6)
    assert distribution("cinv321-even", 12, "maj+").poly == half_maj_poly(6)
    assert distribution("cinv321-even", 12, "des").poly == full_des_poly(6)
    hd, hm, fd = odd_case_polys(5)
    assert distribution("cinv321-odd", 11, "des+").poly == hd
    assert distribution("cinv321-odd", 11, "maj+").poly == hm
    assert distribution("cinv321-odd", 11, "des").poly == fd
    assert distribution("inv321", 8, "maj").poly == q_binomial(8, 4)
    assert distribution("subsets", 6, "des+").poly == half_des_poly(6)
    assert distribution("subsets", 6, "maj+").poly == half_maj_poly(6)
    assert distribution("subsets", 6, "des").poly == full_des_poly(6)


def test_path_distributions():
    t = distribution("paths-rect", 6, "area")
    tally = Counter(area("".join(w)) for w in product("NE", repeat=6))
    assert t.poly == tuple(tally[i] for i in range(max(tally) + 1))
    # length-6 words split into rectangles, one Gaussian binomial each
    assert t.poly == psum(q_binomial(6, a) for a in range(7))
    t2 = distribution("paths-rect", 5, "peaks")
    tally2 = Counter(len(peak_star("".join(w))) for w in product("NE", repeat=5))
    assert t2.poly == tuple(tally2[i] for i in range(max(tally2) + 1))


def test_signed_distributions():
    t = distribution("signed-sixavoiders", 2, "des+")
    assert t.poly == (1, 5)
    assert t.count == 6
    t = distribution("signed-all", 2, "fp")
    assert t.poly == (5, 0, 2, 0, 1)
    assert t.count == 8


def test_every_legal_pair_runs():
    sizes = {
        "cinv321-even": 6,
        "cinv321-odd": 7,
        "inv321": 5,
        "signed-all": 3,
        "signed-sixavoiders": 3,
        "subsets": 5,
        "paths-rect": 5,
    }
    for label in CLASS_LABELS:
        for stat in STATS:
            try:
                stat_function(label, stat)
            except ValueError:
                continue
            t = distribution(label, sizes[label], stat)
            assert t.count == peval(t.poly, 1)
            assert t.count > 0


def test_parallel_matches_serial():
    cases = (
        ("cinv321-even", 12, "maj+"),
        ("cinv321-odd", 11, "des+"),
        ("inv321", 8, "maj"),
        ("subsets", 8, "des"),
        ("paths-rect", 8, "area"),
    )
    for label, size, stat in cases:
        serial = distribution(label, size, stat)
        for jobs in (2, 4):
            assert distribution(label, size, stat, jobs=jobs) == serial


class FakePool:
    """Stands in for ProcessPoolExecutor: records max_workers and runs the
    shards in this process."""

    created: list[int] = []

    def __init__(self, max_workers):
        FakePool.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_jobs_capped_at_cpu_count(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(distrib.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(FakePool, "created", [])
    serial = distribution("cinv321-even", 10, "maj+")
    for jobs in (2, 3, 5):
        assert distribution("cinv321-even", 10, "maj+", jobs=jobs) == serial
    assert FakePool.created == [2, 2, 2]
    monkeypatch.setattr(distrib.os, "cpu_count", lambda: None)
    assert distribution("cinv321-even", 10, "maj+", jobs=3) == serial
    assert FakePool.created == [2, 2, 2]


def test_bad_size_rejected_before_workers(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(FakePool, "created", [])
    with pytest.raises(ValueError, match="non-negative"):
        distribution("subsets", -1, "des", jobs=2)
    with pytest.raises(ValueError, match="even size"):
        distribution("cinv321-even", 5, "des", jobs=2)
    assert FakePool.created == []


def test_error_paths():
    with pytest.raises(ValueError):
        stat_function("cinv321-even", "area")
    with pytest.raises(ValueError):
        stat_function("paths-rect", "des")
    with pytest.raises(ValueError):
        stat_function("subsets", "maj")
    with pytest.raises(ValueError):
        stat_function("signed-all", "area")
    with pytest.raises(ValueError):
        stat_function("nope", "des")
    with pytest.raises(ValueError):
        distribution("cinv321-even", 4, "des", jobs=0)


def test_text_forms():
    t = distribution("cinv321-even", 6, "des+")
    assert json.loads(table_json(t)) == {
        "class": "cinv321-even",
        "size": 6,
        "stat": "des+",
        "poly": [1, 6, 1],
        "count": 8,
    }
    assert table_tsv(t).splitlines() == [
        "exponent\tcoefficient",
        "0\t1",
        "1\t6",
        "2\t1",
    ]


def test_doctests():
    import doctest

    import centroinv.distrib

    assert doctest.testmod(centroinv.distrib).failed == 0
