"""Distribution tables: serial, sharded, and their text forms."""

import json
import os
import subprocess
import sys
import time
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
from centroinv.generate import CLASS_LABELS, CLASSES
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


#: a small size per class, for runs over every class and statistic
SMALL = {
    "cinv321-even": 6,
    "cinv321-odd": 7,
    "inv321": 5,
    "signed-all": 3,
    "signed-sixavoiders": 3,
    "subsets": 5,
    "paths-rect": 5,
}


def test_every_legal_pair_runs():
    for label in CLASS_LABELS:
        for stat in STATS:
            try:
                stat_function(label, stat)
            except ValueError:
                continue
            t = distribution(label, SMALL[label], stat)
            assert t.count == peval(t.poly, 1)
            assert t.count > 0


@pytest.fixture
def forks(monkeypatch):
    """Count the forks distrib makes; each call goes on to the real fork."""
    calls = []
    fork = os.fork

    def counting_fork():
        calls.append(1)
        return fork()

    monkeypatch.setattr(distrib.os, "fork", counting_fork)
    return calls


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_parallel_matches_serial(monkeypatch, forks):
    # 4 CPUs whatever the machine has, so 3 and 4 shards really run
    monkeypatch.setattr(distrib.os, "cpu_count", lambda: 4)
    cases = [
        ("cinv321-even", 12, "maj+"),
        ("cinv321-odd", 11, "des+"),
        ("inv321", 8, "maj"),
        ("subsets", 8, "des"),
        ("paths-rect", 8, "area"),
    ]
    cases += [(label, SMALL[label], stat) for label in CLASSES for stat in CLASSES[label].stats]
    for label, size, stat in cases:
        serial = distribution(label, size, stat)
        for jobs in (2, 3, 4):
            assert distribution(label, size, stat, jobs=jobs) == serial, (label, stat, jobs)
    assert len(forks) == len(cases) * (1 + 2 + 3)
    assert_no_child_left()


def test_jobs_capped_at_cpu_count(monkeypatch, forks):
    monkeypatch.setattr(distrib.os, "cpu_count", lambda: 2)
    serial = distribution("cinv321-even", 10, "maj+")
    for jobs in (2, 3, 5):
        assert distribution("cinv321-even", 10, "maj+", jobs=jobs) == serial
    # capped at 2 jobs: the caller and one child per run
    assert len(forks) == 3
    monkeypatch.setattr(distrib.os, "cpu_count", lambda: None)
    assert distribution("cinv321-even", 10, "maj+", jobs=3) == serial
    assert len(forks) == 3


def test_bad_size_rejected_before_workers(monkeypatch, forks):
    monkeypatch.setattr(distrib.os, "cpu_count", lambda: 4)
    with pytest.raises(ValueError, match="non-negative"):
        distribution("subsets", -1, "des", jobs=2)
    with pytest.raises(ValueError, match="even size"):
        distribution("cinv321-even", 5, "des", jobs=2)
    assert forks == []


def _patch_shards(monkeypatch, child=None, caller=None):
    """Replace _shard_tally: shard 0 runs caller, shards >= 1 run child, and
    a missing hook runs the real tally.  Forked children inherit the patch.
    The CPU count is set to 4, so up to 4 shards run."""
    tally = distrib._shard_tally

    def patched(label, size, stat, shard, nshards):
        hook = caller if shard == 0 else child
        if hook is not None:
            hook()
        return tally(label, size, stat, shard, nshards)

    monkeypatch.setattr(distrib, "_shard_tally", patched)
    monkeypatch.setattr(distrib.os, "cpu_count", lambda: 4)


def boom():
    raise ValueError("boom")


def test_failed_shard_reaches_the_caller(monkeypatch):
    _patch_shards(monkeypatch, child=boom)
    with pytest.raises(RuntimeError, match="shard 1 of 3 failed: ValueError: boom"):
        distribution("subsets", 8, "des", jobs=3)
    assert_no_child_left()


def test_child_without_result_raises(monkeypatch):
    _patch_shards(monkeypatch, child=lambda: os._exit(3))
    with pytest.raises(RuntimeError, match="shard 1 of 2 ended without a result"):
        distribution("subsets", 8, "des", jobs=2)
    assert_no_child_left()


def test_every_child_reaped(monkeypatch):
    monkeypatch.setattr(distrib.os, "cpu_count", lambda: 4)
    serial = distribution("subsets", 8, "des")
    assert distribution("subsets", 8, "des", jobs=4) == serial
    assert_no_child_left()
    # the caller's own shard fails while the children are still busy: they
    # are killed, not waited out
    _patch_shards(monkeypatch, child=lambda: time.sleep(60), caller=boom)
    start = time.monotonic()
    with pytest.raises(ValueError, match="boom"):
        distribution("subsets", 8, "des", jobs=4)
    assert time.monotonic() - start < 30
    assert_no_child_left()


def test_no_fork_runs_serially(monkeypatch):
    monkeypatch.setattr(distrib.os, "cpu_count", lambda: 4)
    monkeypatch.delattr(distrib.os, "fork")
    serial = distribution("cinv321-even", 10, "maj+")
    assert distribution("cinv321-even", 10, "maj+", jobs=2) == serial


def test_children_leave_stdio_alone():
    # text the caller has buffered but not flushed is written once: a child
    # leaves by os._exit and never flushes its copy of the buffer (stdout is
    # a pipe here, so it is block-buffered unless PYTHONUNBUFFERED is set)
    code = (
        "import os, sys\n"
        "from centroinv import distrib\n"
        "os.cpu_count = lambda: 3\n"
        "sys.stdout.write('before ')\n"
        "print(distrib.distribution('subsets', 6, 'des', jobs=3).count)\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", code],
        env={
            **{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
            "PYTHONPATH": distrib.__file__.rsplit(os.sep, 2)[0],
        },
        capture_output=True,
        text=True,
        check=True,
    )
    assert run.stdout == "before 64\n"
    assert run.stderr == ""


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
