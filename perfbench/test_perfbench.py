"""Unit tests for the benchmark's own helpers.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import hashlib
import json
import os
import sys
from itertools import permutations
from math import comb, factorial
from pathlib import Path

import pytest

import layers
import run
import suite
from measure import Run, Spawner, aggregate, summary

ROOT = Path(__file__).resolve().parent.parent


# ---------- closed-form counts, against brute force that shares no code ----------


def _involutions(m):
    return [p for p in permutations(range(1, m + 1)) if all(p[p[i] - 1] == i + 1 for i in range(m))]


def _avoids_321(p):
    return not any(p[i] > p[j] > p[k] for i in range(len(p)) for j in range(i + 1, len(p))
                   for k in range(j + 1, len(p)))


def _centrosymmetric(p):
    m = len(p)
    return all(p[i] + p[m - 1 - i] == m + 1 for i in range(m))


@pytest.mark.parametrize("m", range(8))
def test_involution_count(m):
    assert suite.involution_count(m) == len(_involutions(m))


@pytest.mark.parametrize("m", range(1, 8))
def test_inv321_count(m):
    assert suite.class_count("inv321", m) == sum(map(_avoids_321, _involutions(m)))


@pytest.mark.parametrize("m", range(2, 9))
def test_centrosymmetric_class_counts(m):
    label = "cinv321-odd" if m % 2 else "cinv321-even"
    brute = sum(1 for p in _involutions(m) if _centrosymmetric(p) and _avoids_321(p))
    assert suite.class_count(label, m) == brute


def test_other_class_counts():
    assert suite.class_count("subsets", 18) == suite.class_count("paths-rect", 18) == 262144
    assert suite.class_count("signed-all", 6) == 2**6 * factorial(6) == 46080
    assert [suite.class_count("signed-sixavoiders", n) for n in (1, 2, 3, 6)] == [2, 6, 20, comb(12, 6)]
    with pytest.raises(ValueError):
        suite.class_count("no-such-class", 3)


def test_verify_all_rows_match_the_drivers_default_ranges():
    sys.path.insert(0, str(ROOT / "src"))
    from centroinv.verify import THEOREMS

    assert sum(default + 1 for _, default, _ in THEOREMS.values()) == suite.VERIFY_ALL_ROWS
    assert tuple(sorted(THEOREMS)) == layers.THEOREM_IDS


# ---------- quartiles and sample counts ----------


def test_summary_quartiles_and_count():
    assert summary([5.0, 1.0, 4.0, 2.0, 3.0]) == {"median": 3.0, "q1": 1.5, "q3": 4.5, "n": 5}


def test_summary_of_one_sample():
    assert summary([0.25]) == {"median": 0.25, "q1": 0.25, "q3": 0.25, "n": 1}
    with pytest.raises(ValueError):
        summary([])


def test_aggregate_sums_times_and_takes_the_largest_rss():
    runs = [Run(0, 2.0, 1.5, 30.0, 1.0, b""), Run(0, 1.0, 2.5, 20.0, 0.5, b"")]
    assert aggregate(runs, 6) == {
        "wall_s": 3.0,
        "cpu_s": 4.0,
        "peak_rss_mb": 30.0,
        "objects_per_s": 2.0,
        "first_line_s": 1.5,
    }


# ---------- child processes ----------


@pytest.fixture
def spawner():
    with Spawner(dict(os.environ)) as sp:
        yield sp


def _python(code):
    return [sys.executable, "-c", code]


def test_usage_covers_descendants(spawner):
    # the child only waits; a grandchild burns CPU and allocates memory
    grandchild = (
        "import time\n"
        "block = bytearray(80 << 20)\n"
        "start = time.process_time()\n"
        "while time.process_time() - start < 0.3: pass\n"
    )
    child = f"import subprocess, sys; subprocess.run([sys.executable, '-c', {grandchild!r}], check=True)"
    got = spawner.run(_python(child))
    assert got.returncode == 0
    assert got.cpu_s >= 0.3
    assert got.maxrss_mb >= 80


def test_rss_is_not_inherited_from_the_benchmark(spawner):
    ballast = bytearray(120 << 20)
    ballast[::4096] = b"x" * len(ballast[::4096])  # touch every page
    got = spawner.run([sys.executable, "-S", "-c", "pass"])
    assert got.maxrss_mb < 60


def test_stdout_exit_code_and_first_byte(spawner):
    got = spawner.run(_python("import sys, time; print('a'); sys.stdout.flush(); time.sleep(0.2); sys.exit(3)"))
    assert (got.returncode, got.stdout) == (3, b"a\n")
    assert got.first_byte_s < got.wall_s - 0.15


# ---------- the output checks ----------


def _stats_output(coeffs):
    lines = ["exponent\tcoefficient"] + [f"{i}\t{c}" for i, c in enumerate(coeffs)]
    return ("\n".join(lines) + "\n").encode()


def test_digest_check():
    cmd = suite.stats("cinv321-even", 4, "des")  # 4 objects: 1 + 2 + 1
    good = _stats_output([1, 2, 1])
    digests = {cmd.digest_key: hashlib.sha256(good).hexdigest()}
    assert suite.check_output(cmd, 0, good, digests) is None
    assert suite.check_output(cmd, 1, good, digests) == "exit code 1"
    assert "digest" in suite.check_output(cmd, 0, good.replace(b"2", b"3"), digests)
    assert suite.check_output(cmd, 0, good, {}) == "no frozen digest"


def test_count_check_catches_a_frozen_digest_of_wrong_output():
    cmd = suite.stats("cinv321-even", 4, "des")
    wrong = _stats_output([1, 2, 2])
    digests = {cmd.digest_key: hashlib.sha256(wrong).hexdigest()}
    assert suite.check_output(cmd, 0, wrong, digests) == "output reports 5 objects, formula gives 4"


def test_count_objects_per_kind():
    verify_out = b"# T-x\nn\tstatus\tcounterexample\n0\tpass\t\n1\tfail\tboom\n2\tpass\t\n"
    assert suite.count_objects(suite.WORKLOADS["verify-all"][1][0], verify_out) == 2
    assert suite.count_objects(suite.enumerate_("subsets", 2), b"\n1\n2\n1,2\n") == 4
    js = json.dumps({"class": "signed-all", "size": 1, "objects": ["1", "-1"]}).encode()
    assert suite.count_objects(suite.enumerate_("signed-all", 1, "json"), js) == 2


def test_sharded_queries_are_checked_against_the_serial_digest():
    serial = {cmd.digest_key for cmd in suite.WORKLOADS["stats-serial"][1]}
    for cmd in suite.WORKLOADS["stats-jobs2"][1]:
        assert "--jobs" in cmd.argv
        assert cmd.digest_key in serial


def test_every_command_has_a_frozen_digest():
    digests = suite.load_digests()
    commands = [suite.NOOP] + [cmd for _, cmds in suite.WORKLOADS.values() for cmd in cmds]
    assert {cmd.digest_key for cmd in commands} == set(digests)


# ---------- the benchmark's declaration ----------


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (name, why) for name, (why, _) in suite.WORKLOADS.items()
    ]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.per_layer_metrics()


# ---------- spans ----------


def test_self_time_subtracts_direct_children():
    spans = [
        {"id": 0, "name": "a", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "b", "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "name": "c", "parent": 1, "start": 2.0, "end": 3.0},
        {"id": 3, "name": "b", "parent": 0, "start": 5.0, "end": 7.0},
    ]
    assert layers.self_times(spans) == {0: 5.0, 1: 2.0, 2: 1.0, 3: 2.0}
    assert layers.span_table(spans) == [("a", 1, 10.0, 5.0), ("b", 2, 5.0, 4.0), ("c", 1, 1.0, 1.0)]
