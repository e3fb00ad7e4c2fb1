"""Distribution tables: serial, sharded, and their text forms."""

import json
import os
import select
import subprocess
import sys
import time
from collections import Counter
from functools import partial
from itertools import product

import pytest

from centroinv import distrib, generate
from centroinv.cli import main
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


#: label -> the sizes at which each block tally is checked: a range past
#: LOW_BITS for the even class (n = 9..12), subsets and paths-rect (n = 9..13),
#: and every workload size (cinv321-even 28 and 32, subsets and paths-rect
#: 18, signed-all 6)
TALLY_SIZES = {
    "cinv321-even": (*range(0, 25, 2), 28, 32),
    "signed-all": range(7),
    "subsets": (*range(14), 18),
    "paths-rect": (*range(14), 18),
}


def test_block_tallies_equal_their_definitions(monkeypatch):
    # every pair with a block tally, whole, against the Counter of its
    # evaluator over the class stream; each stream is read once per size
    # and each object evaluated once per statistic.  At a negative size
    # (the even class's odd -1 is refused) every tally is the empty Counter
    # of its evaluator over the empty stream
    pairs = [(label, stat) for label in CLASSES for stat in CLASSES[label].tallies]
    assert len(pairs) == 13
    assert {label for label, _ in pairs} == set(TALLY_SIZES)

    def check(label, sizes):
        cls = CLASSES[label]
        for n in sizes:
            stream = list(cls.generate(n, 0, 1))
            for stat, tally in cls.tallies.items():
                assert tally(n) == Counter(map(cls.stats[stat], stream)), (label, stat, n)

    for label, sizes in TALLY_SIZES.items():
        check(label, (-2,) if label == "cinv321-even" else (-1, -2))
        check(label, sizes)
    # with LOW_BITS = 2 every mask's k shrinks to 1 at n = 4 and to 0 from
    # n = 8 on, as it does from n = 256 and n = 2**15 with LOW_BITS = 8
    monkeypatch.setattr(generate, "LOW_BITS", 2)
    check("cinv321-even", range(0, 21, 2))
    check("subsets", range(13))
    check("paths-rect", range(13))


def test_mask_tallies_agree_across_block_widths_at_large_n(monkeypatch):
    # the five subsets and paths-rect tallies are polynomial in n: far past
    # any stream, at n = 24 and 40, each counts the 2**n masks and is the
    # same at the default block width and with LOW_BITS = 3, one bit there
    tallies = {
        (label, stat): tally
        for label in ("subsets", "paths-rect")
        for stat, tally in CLASSES[label].tallies.items()
    }
    assert len(tallies) == 5
    wide = {(pair, n): tally(n) for pair, tally in tallies.items() for n in (24, 40)}
    monkeypatch.setattr(generate, "LOW_BITS", 3)
    for (pair, n), tally in wide.items():
        assert sum(tally.values()) == 2**n, (pair, n)
        assert tallies[pair](n) == tally, (pair, n)


@pytest.mark.parametrize(
    "label, size, stat, n",
    [("subsets", 40, "des", 40), ("paths-rect", 40, "area", 40), ("cinv321-even", 60, "maj+", 30)],
)
def test_tallied_stats_at_large_sizes_finish(capsys, label, size, stat, n):
    # each finishes at once, where a walk of 2**(n - 8) high words would not end
    argv = ["stats", "--class", label, "--size", str(size), "--stat", stat, "--format", "json"]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert (json.loads(out)["count"], err) == (2**n, "")


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


def set_cpus(monkeypatch, n):
    """Let this process run on n CPUs, whatever the machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: n)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_parallel_matches_serial(monkeypatch, forks):
    # 4 CPUs whatever the machine has, so 3 and 4 shards really run
    set_cpus(monkeypatch, 4)
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
        before = len(forks)
        for jobs in (2, 3, 4):
            assert distribution(label, size, stat, jobs=jobs) == serial, (label, stat, jobs)
        # a block tally runs whole in the caller; a stream forks a child
        # per shard after the first
        tallied = stat in CLASSES[label].tallies
        assert len(forks) - before == (0 if tallied else 1 + 2 + 3), (label, stat)
    assert_no_child_left()


def test_jobs_capped_at_cpu_count(monkeypatch, forks):
    set_cpus(monkeypatch, 2)
    serial = distribution("inv321", 8, "maj")
    assert forks == []  # one job runs in the caller
    for jobs in (2, 3, 5):
        assert distribution("inv321", 8, "maj", jobs=jobs) == serial
    # capped at 2 jobs: the caller and one child per run
    assert len(forks) == 3
    # a platform that reports no affinity set: os.cpu_count() caps, and a
    # count it cannot tell is 1
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert distribution("inv321", 8, "maj", jobs=3) == serial
    assert len(forks) == 3
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert distribution("inv321", 8, "maj", jobs=3) == serial
    assert len(forks) == 5


def test_processes_follow_the_affinity_set(monkeypatch):
    # a process that may run on 2 of 64 CPUs runs in 2 processes, not 64
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert [distrib.processes(k) for k in (1, 2, 11)] == [1, 2, 2]
    monkeypatch.delattr(os, "fork")
    assert distrib.processes(11) == 1


def test_bad_size_rejected_before_workers(monkeypatch, forks):
    set_cpus(monkeypatch, 4)
    with pytest.raises(ValueError, match="non-negative"):
        distribution("subsets", -1, "des", jobs=2)
    with pytest.raises(ValueError, match="even size"):
        distribution("cinv321-even", 5, "des", jobs=2)
    assert forks == []


def test_even_low_table_built_once_per_distribution(monkeypatch):
    # distribution's check-only call to generate_class builds nothing, and
    # neither does any stream that is made and dropped unread.  A tallied
    # distribution reads no stream and builds no low table; an fp
    # distribution reads the stream, and that builds it once
    calls = []
    real = generate._even_low_table
    monkeypatch.setattr(
        generate, "_even_low_table", lambda n, k: calls.append(n) or real(n, k)
    )
    generate.generate_class("cinv321-even", 28)
    generate.cinv321_even(16, 1, 3)
    assert calls == []
    assert set(CLASSES["cinv321-even"].tallies) == {"des+", "maj+", "des"}
    assert distribution("cinv321-even", 8, "des").count == 16
    assert distribution("cinv321-even", 12, "maj+").count == 64
    assert calls == []
    assert distribution("cinv321-even", 12, "fp").count == 64
    assert calls == [6]
    assert sum(1 for _ in generate.cinv321_even(12)) == 64
    assert calls == [6, 6]


def _patch_shards(monkeypatch, child=None, caller=None):
    """Wrap the shard work distribution makes, which takes send: the work of
    shard 0 runs caller first, the work of a shard >= 1 runs child first,
    and a missing hook runs the real work alone.  The work is made before
    the fork, so each forked child runs its wrapped work.  The process may
    run on 4 CPUs, so up to 4 shards run."""
    real = distrib._shard_work

    def hooked(hook, work):
        def wrapped(send):
            if hook is not None:
                hook()
            return work(send)

        return wrapped

    def patched(*args):
        work = real(*args)
        return [hooked(caller if s == 0 else child, w) for s, w in enumerate(work)]

    monkeypatch.setattr(distrib, "_shard_work", patched)
    set_cpus(monkeypatch, 4)


def boom():
    raise ValueError("boom")


# the fork-protocol tests run a streamed class: inv321 8 has 8 outer steps,
# so each of up to 4 shards reads a stream of its own
def test_failed_shard_reaches_the_caller(monkeypatch):
    # both children fail; the caller raises the failure it reads first
    _patch_shards(monkeypatch, child=boom)
    with pytest.raises(RuntimeError, match="^shard [12] of 3 failed: ValueError: boom$"):
        distribution("inv321", 8, "maj", jobs=3)
    assert_no_child_left()


def test_failed_tally_reaches_the_caller(monkeypatch, forks):
    # a block tally runs in the caller under any jobs, so what it raises
    # reaches the caller as it is, and nothing is forked
    monkeypatch.setitem(CLASSES["subsets"].tallies, "des", lambda n: boom())
    set_cpus(monkeypatch, 4)
    with pytest.raises(ValueError, match="^boom$"):
        distribution("subsets", 9, "des", jobs=2)
    assert forks == []
    assert_no_child_left()


def test_child_without_result_raises(monkeypatch):
    _patch_shards(monkeypatch, child=lambda: os._exit(3))
    with pytest.raises(RuntimeError, match="shard 1 of 2 ended without a result"):
        distribution("inv321", 8, "maj", jobs=2)
    assert_no_child_left()


def test_messages_reach_the_caller_in_order():
    # each process sends its messages in order, some longer than a pipe
    # holds, so that one frame takes many reads, and last a closing value;
    # receive gets every message of each process in the order it was sent
    big = "x" * (3 << 16)

    def work(i, send):
        for k in range(200):
            send((i, k, big if k % 50 == 0 else k))
        send(i * 10)

    got = {}
    assert distrib.run_forked(
        [partial(work, i) for i in range(3)], "part", lambda i, m: got.setdefault(i, []).append(m)
    ) is None
    assert got == {
        i: [(i, k, big if k % 50 == 0 else k) for k in range(200)] + [i * 10] for i in range(3)
    }
    assert_no_child_left()


def test_caller_reads_messages_while_its_work_runs():
    # the child sends one message and then waits for a gate that the caller's
    # work opens only once it has received that message, which it can only
    # do through its own sends; each process then sends a last message
    gate, opened = os.pipe()
    got = {0: [], 1: []}

    def child(send):
        send("ready")
        select.select([gate], [], [], 60)
        send("done")

    def caller(send):
        deadline = time.monotonic() + 30
        while not got[1] and time.monotonic() < deadline:
            send("poll")
            time.sleep(0.001)
        os.write(opened, b"x")
        send(list(got[1]))

    try:
        distrib.run_forked([caller, child], "part", lambda i, m: got[i].append(m))
    finally:
        os.close(gate)
        os.close(opened)
    assert got[0][-1] == ["ready"]
    assert set(got[0][:-1]) == {"poll"}
    assert got[1] == ["ready", "done"]
    assert_no_child_left()


def test_returned_values_are_dropped():
    # work hands data back only by sending: what it returns, even a value
    # that does not marshal, reaches nobody, and the child still passes
    got = []
    distrib.run_forked([lambda send: 1, lambda send: object()], "part", lambda *m: got.append(m))
    assert got == []
    assert_no_child_left()


def test_cut_frame_is_never_read():
    # the child sends one whole message, then writes half of the next frame
    # and ends: only the whole message is received, and the cut frame means
    # the child ended without a result
    def work(send):
        send("whole")
        write = os.write

        def half(fd, data):
            write(fd, bytes(data)[: len(data) // 2])
            os._exit(0)

        os.write = half  # in the child only, which ends in it
        send("cut")

    got = []
    with pytest.raises(RuntimeError, match="^part 1 of 2 ended without a result$"):
        distrib.run_forked([lambda send: None, work], "part", lambda i, m: got.append((i, m)))
    assert got == [(1, "whole")]
    assert_no_child_left()


def test_every_child_reaped(monkeypatch):
    set_cpus(monkeypatch, 4)
    serial = distribution("inv321", 8, "maj")
    assert distribution("inv321", 8, "maj", jobs=4) == serial
    assert_no_child_left()
    # the caller's own shard fails while the children are still busy: they
    # are killed, not waited out
    _patch_shards(monkeypatch, child=lambda: time.sleep(60), caller=boom)
    start = time.monotonic()
    with pytest.raises(ValueError, match="boom"):
        distribution("inv321", 8, "maj", jobs=4)
    assert time.monotonic() - start < 30
    assert_no_child_left()


def test_no_fork_runs_serially(monkeypatch):
    set_cpus(monkeypatch, 4)
    monkeypatch.delattr(distrib.os, "fork")
    serial = distribution("inv321", 8, "maj")
    assert distribution("inv321", 8, "maj", jobs=2) == serial


def test_children_leave_stdio_alone():
    # text the caller has buffered but not flushed is written once: a child
    # leaves by os._exit and never flushes its copy of the buffer (stdout is
    # a pipe here, so it is block-buffered unless PYTHONUNBUFFERED is set)
    code = (
        "import os, sys\n"
        "from centroinv import distrib\n"
        "os.cpu_count = lambda: 3\n"
        "os.sched_getaffinity = lambda pid: range(3)\n"
        "sys.stdout.write('before ')\n"
        "print(distrib.distribution('inv321', 8, 'maj', jobs=3).count)\n"
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
    assert run.stdout == "before 70\n"
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
