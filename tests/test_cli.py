"""Command line round trips, formats, and exit codes."""

import errno
import functools
import json
import os
import re
import select
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import centroinv
from centroinv import cli, generate, kernels
from centroinv.cli import BIJECTIONS, MAX_BUILT, WRITE_CHUNK, main
from centroinv.generate import CLASS_LABELS, format_object, generate_class
from centroinv.verify import EVEN_CENSUS_READERS, THEOREMS
from oracles import report_json, report_tsv
from test_distrib import assert_no_child_left, forks, set_cpus  # noqa: F401 (forks is a fixture)


# child interpreters find the package where this one did, installed or not,
# and can import the helpers of this directory
PACKAGE_ROOT = str(Path(centroinv.__file__).parents[1])
TESTS = str(Path(__file__).parent)
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")])
    ),
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def before_verify(hook):
    """cli.verify as it is bound now, with hook(name) called first in
    whichever process runs the driver; the row argument is passed on.
    Rebind cli.verify to what this returns."""
    real = cli.verify

    def verify(name, max_n=None, row=None):
        hook(name)
        return real(name, max_n, row=row)

    return verify


def test_enumerate_tsv(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--class", "cinv321-even", "--size", "4"
    )
    assert code == 0
    assert out.splitlines() == ["1 2 3 4", "2 1 4 3", "1 3 2 4", "3 4 1 2"]


def test_enumerate_json(capsys):
    code, out, _ = run(
        capsys,
        "enumerate", "--class", "subsets", "--size", "2", "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == {
        "class": "subsets",
        "size": 2,
        "objects": ["", "1", "2", "1,2"],
    }


def test_stats_tsv(capsys):
    code, out, _ = run(
        capsys,
        "stats", "--class", "cinv321-even", "--size", "6", "--stat", "des+",
    )
    assert code == 0
    assert out.splitlines() == [
        "exponent\tcoefficient",
        "0\t1",
        "1\t6",
        "2\t1",
    ]


def test_stats_json_and_jobs(capsys):
    code, serial, _ = run(
        capsys,
        "stats", "--class", "cinv321-odd", "--size", "9", "--stat", "maj+",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(serial)
    assert doc["class"] == "cinv321-odd"
    assert doc["size"] == 9
    assert doc["stat"] == "maj+"
    assert doc["poly"] == [1, 1, 2, 1, 1]
    assert doc["count"] == 6
    code, parallel, _ = run(
        capsys,
        "stats", "--class", "cinv321-odd", "--size", "9", "--stat", "maj+",
        "--format", "json", "--jobs", "2",
    )
    assert code == 0
    assert json.loads(parallel) == doc


BIJECTION_CASES = (
    ("excedance-subset", "2 1 4 3", None, "1"),
    ("subset-involution", "1", "2", "2 1 4 3"),
    ("subset-matching", "1", "2", "1-2,3-4"),
    ("involution-matching", "2 1 4 3", None, "1-2,3-4"),
    ("involution-matching", "2 1 3 5 4", None, "1-2,4-5"),
    ("matching-involution", "1-2,3-4", "4", "2 1 4 3"),
    ("subset-path", "1", "2", "NE"),
    ("g", "NENE", None, "EENN"),
    ("g-inverse", "EENN", None, "NENE"),
    ("theta", "2 4 8 6 3 1 5 7", None, "-2 -4 1 3"),
    ("theta-inverse", "-4 3 2 -1", None, "5 3 2 8 1 7 6 4"),
    ("rsk-path", "2 1 4 3", None, "NENE"),
    ("theta-rect", "2 1 4 3", "2,2", "EENN"),
    ("theta-rect-inverse", "EENN", "2,2", "2 1 4 3"),
)


def test_every_bijection_has_a_case():
    assert {name for name, *_ in BIJECTION_CASES} == set(BIJECTIONS)


@pytest.mark.parametrize("name,text,size,expected", BIJECTION_CASES)
def test_bijection_cases(capsys, name, text, size, expected):
    argv = ["bijection", "--name", name, "--apply", text]
    if size is not None:
        argv += ["--size", size]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.strip() == expected


SIZELESS_BIJECTIONS = (
    "excedance-subset",
    "involution-matching",
    "g",
    "g-inverse",
    "theta",
    "theta-inverse",
    "rsk-path",
)


@pytest.mark.parametrize("name", SIZELESS_BIJECTIONS)
def test_unused_size_exits_2(capsys, name):
    # each printed its answer and exited 0, dropping the size
    text = next(t for n, t, *_ in BIJECTION_CASES if n == name)
    code, out, err = run(
        capsys, "bijection", "--name", name, "--apply", text, "--size", "3"
    )
    assert code == 2
    assert out == ""
    assert err == f"error: bijection {name!r} takes no --size\n"


@pytest.mark.parametrize(
    "name,size,shape",
    [("theta-rect", "2", "A,B"), ("subset-involution", "2,2", "N")],
)
def test_wrong_size_parts_exit_2(capsys, name, size, shape):
    text = next(t for n, t, *_ in BIJECTION_CASES if n == name)
    code, out, err = run(
        capsys, "bijection", "--name", name, "--apply", text, "--size", size
    )
    assert code == 2
    assert out == ""
    assert err == f"error: bijection {name!r} needs --size {shape}\n"


def test_bijection_json(capsys):
    code, out, _ = run(
        capsys,
        "bijection", "--name", "g", "--apply", "NENE", "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == {"name": "g", "input": "NENE", "output": "EENN"}


def test_usage_errors_exit_2(capsys):
    # missing context size
    code, _, err = run(
        capsys, "bijection", "--name", "subset-involution", "--apply", "1"
    )
    assert code == 2
    assert "error:" in err
    # malformed object
    code, _, err = run(
        capsys, "bijection", "--name", "theta", "--apply", "1 1"
    )
    assert code == 2
    # size with the wrong parity for the class
    code, _, err = run(
        capsys, "stats", "--class", "cinv321-even", "--size", "5",
        "--stat", "des",
    )
    assert code == 2
    # argparse rejections also land on 2
    with pytest.raises(SystemExit) as exc:
        main(["bijection", "--name", "nope", "--apply", "x"])
    assert exc.value.code == 2
    # verify has no --jobs: --name all sets its own number of processes
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--name", "T-recr", "--jobs", "2"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        # exited 0 with an empty listing or table
        ("enumerate", "--class", "inv321", "--size", "-3"),
        ("stats", "--class", "inv321", "--size", "-2", "--stat", "maj"),
        # leaked "negative shift count"
        ("enumerate", "--class", "subsets", "--size", "-1"),
        ("enumerate", "--class", "paths-rect", "--size", "-1"),
        ("enumerate", "--class", "signed-all", "--size", "-1"),
        ("stats", "--class", "subsets", "--size", "-1", "--stat", "des"),
        ("stats", "--class", "paths-rect", "--size", "-2", "--stat", "area"),
        ("stats", "--class", "signed-all", "--size", "-1", "--stat", "des",
         "--jobs", "2"),
    ],
)
def test_negative_size_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: size must be non-negative (got {argv[4]})\n"


@pytest.mark.parametrize(
    "name, size",
    [
        # each exited 0 with an empty line: an empty object passed the
        # range check whatever the size
        ("subset-involution", "-3"),
        ("matching-involution", "-2"),
        ("subset-path", "-1"),
        ("subset-matching", "-4"),
    ],
)
def test_bijection_negative_size_exits_2(capsys, name, size):
    code, out, err = run(
        capsys, "bijection", "--name", name, "--apply", "", "--size", size
    )
    assert code == 2
    assert out == ""
    assert err == f"error: size must be non-negative (got {size})\n"


HUGE = 99999999999


@pytest.mark.parametrize(
    "name, text, size, built",
    [
        # each raised MemoryError building its points or letters
        ("subset-involution", "1", HUGE, 2 * HUGE),
        ("subset-matching", "1", HUGE, 2 * HUGE),
        ("subset-path", "1", HUGE, HUGE),
        ("matching-involution", "1-2", HUGE, HUGE),
        # one past the limit: 2n points for a subset of [n]
        ("subset-involution", "1", MAX_BUILT // 2 + 1, MAX_BUILT + 2),
        ("subset-path", "1", MAX_BUILT + 1, MAX_BUILT + 1),
    ],
)
def test_bijection_huge_size_exits_2(capsys, name, text, size, built):
    code, out, err = run(
        capsys, "bijection", "--name", name, "--apply", text, "--size", str(size)
    )
    assert code == 2
    assert out == ""
    assert err == (
        f"error: --size {size} would build {built} points or path letters;"
        f" the limit is {MAX_BUILT}\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        # each exited 1 with a MemoryError traceback
        ("enumerate", "--class", "subsets", "--size", str(HUGE + 1)),
        ("enumerate", "--class", "inv321", "--size", str(HUGE + 1)),
        ("enumerate", "--class", "cinv321-even", "--size", str(2 * HUGE + 2)),
        ("stats", "--class", "paths-rect", "--size", str(HUGE + 1), "--stat", "area"),
    ],
)
def test_huge_class_size_exits_2(capsys, argv):
    # one object of the class would hold more than MAX_BUILT points or
    # letters: refused before any stream is made
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_bijection_size_at_the_limit_runs(capsys):
    code, out, _ = run(
        capsys, "bijection", "--name", "subset-path", "--apply", "1",
        "--size", str(MAX_BUILT),
    )
    assert code == 0
    assert out == "N" + "E" * (MAX_BUILT - 1) + "\n"


def test_negative_max_n_exits_2(capsys):
    # exited 0 with zero rows: a vacuous pass
    code, out, err = run(capsys, "verify", "--name", "T-recr", "--max-n", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: max size must be non-negative (got -1)\n"


def test_bad_matching_names_the_chunk(capsys):
    code, out, err = run(
        capsys,
        "bijection", "--name", "matching-involution", "--apply", "1-2-3",
        "--size", "4",
    )
    assert code == 2
    assert err == "error: bad arc '1-2-3', expected i-j\n"


@pytest.mark.parametrize(
    "argv",
    [
        # each leaked "invalid literal for int() with base 10: 'x'"
        ("--name", "theta-rect", "--apply", "2 1 4 3", "--size", "2,x"),
        ("--name", "excedance-subset", "--apply", "2 x"),
        ("--name", "subset-involution", "--apply", "1,x", "--size", "3"),
        ("--name", "theta-inverse", "--apply", "1 x"),
    ],
)
def test_bad_integer_names_the_token(capsys, argv):
    code, out, err = run(capsys, "bijection", *argv)
    assert code == 2
    assert out == ""
    assert "invalid literal" not in err
    assert err == "error: not an integer: 'x'\n"


@pytest.mark.parametrize(
    "argv,token",
    [
        # int() read the first as the member 10 and the second as (1, 2)
        (("--name", "subset-involution", "--apply", "1_0", "--size", "12"), "1_0"),
        (("--name", "theta-inverse", "--apply", "+1 \u0662"), "+1"),
        (("--name", "excedance-subset", "--apply", "2 \u0661"), "\u0661"),
        (("--name", "theta-rect", "--apply", "2 1 4 3", "--size", "2,+2"), "+2"),
        (("--name", "matching-involution", "--apply", "1-\u0662", "--size", "2"), None),
    ],
)
def test_only_plain_integers_are_read(capsys, argv, token):
    code, out, err = run(capsys, "bijection", *argv)
    assert code == 2
    assert out == ""
    if token is None:
        assert err == f"error: bad arc {argv[3]!r}, expected i-j\n"
    else:
        assert err == f"error: not an integer: {token!r}\n"


@pytest.mark.parametrize(
    "argv,token",
    [
        # argparse's int() read each: 1024 subsets, size 3, one job, sizes 0..1
        (("enumerate", "--class", "subsets", "--size", "1_0"), "1_0"),
        (("stats", "--class", "subsets", "--size", "\u0663", "--stat", "des+"), "\u0663"),
        (("stats", "--class", "subsets", "--size", "3", "--stat", "des+", "--jobs", "1_0"),
         "1_0"),
        (("verify", "--name", "T-recr", "--max-n", "0_1"), "0_1"),
    ],
)
def test_integer_options_read_only_plain_integers(capsys, argv, token):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: not an integer: {token!r}\n"


def test_plain_integers_keep_their_output(capsys):
    code, out, _ = run(
        capsys, "bijection", "--name", "subset-involution", "--apply", "1, 10",
        "--size", "12",
    )
    assert code == 0
    assert out == "2 1 3 4 5 6 7 8 9 11 10 12 13 15 14 16 17 18 19 20 21 22 24 23\n"
    code, out, _ = run(capsys, "bijection", "--name", "theta-inverse", "--apply", "-4 3 2 -1")
    assert (code, out) == (0, "5 3 2 8 1 7 6 4\n")


#: output of several WRITE_CHUNK batches in either format
MULTI_BATCH = [("paths-rect", 14), ("cinv321-even", 24), ("subsets", 14)]
#: those, and about one batch of signed windows (negative entries)
BATCHED = [("signed-all", 5)] + MULTI_BATCH


@pytest.mark.parametrize(
    "label,size",
    [("cinv321-even", 6), ("inv321", 0), ("paths-rect", 11), ("signed-all", 2)]
    + BATCHED,
)
def test_streamed_json_equals_json_dumps(capsys, label, size):
    code, out, _ = run(
        capsys, "enumerate", "--class", label, "--size", str(size),
        "--format", "json",
    )
    assert code == 0
    objs = [format_object(label, o) for o in generate_class(label, size)]
    assert out == json.dumps({"class": label, "size": size, "objects": objs}) + "\n"
    if (label, size) in MULTI_BATCH:
        assert len(out) > 2 * WRITE_CHUNK


#: the smallest size of every class: one object each
SMALLEST = [(label, 1 if label == "cinv321-odd" else 0) for label in CLASS_LABELS]


@pytest.mark.parametrize("label,size", SMALLEST + BATCHED)
def test_streamed_tsv_equals_format_object(capsys, label, size):
    code, out, _ = run(capsys, "enumerate", "--class", label, "--size", str(size))
    assert code == 0
    assert out == "".join(
        format_object(label, o) + "\n" for o in generate_class(label, size)
    )
    if (label, size) in MULTI_BATCH:
        assert len(out) > 2 * WRITE_CHUNK


class RecordingStream:
    """A stdout that keeps each write and flush, in order, in a shared log."""

    def __init__(self, log):
        self.log = log

    def write(self, text):
        self.log.append(("write", text))
        return len(text)

    def flush(self):
        self.log.append(("flush",))


class ClosingStream(RecordingStream):
    """A RecordingStream whose reader goes away after a number of writes: the
    next write raises BrokenPipeError.  Its file descriptor is one of the
    null device, which main may point at the null device again."""

    def __init__(self, log, writes, null):
        super().__init__(log)
        self.writes = writes
        self.null = null

    def write(self, text):
        if self.writes == 0:
            raise BrokenPipeError
        self.writes -= 1
        return super().write(text)

    def fileno(self):
        return self.null.fileno()


def log_texts(monkeypatch, label, log):
    """Put an "object" entry in log as the class's text stream yields each
    text."""
    cls = generate.CLASSES[label]

    def logged(size):
        for text in cls.texts(size):
            log.append(("object",))
            yield text

    monkeypatch.setitem(generate.CLASSES, label, cls._replace(text_stream=logged))


def head_of(label, size, fmt):
    """What enumerate writes before the first object."""
    if fmt == "tsv":
        return ""
    return json.dumps({"class": label, "size": size, "objects": []})[:-2]


def check_write_pattern(monkeypatch, label, size, fmt):
    log = []
    log_texts(monkeypatch, label, log)
    monkeypatch.setattr(sys, "stdout", RecordingStream(log))
    assert main(["enumerate", "--class", label, "--size", str(size), "--format", fmt]) == 0
    writes = [e[1] for e in log if e[0] == "write"]
    out = "".join(writes)

    first = format_object(label, next(generate_class(label, size)))
    if fmt == "json":
        assert writes[0] == head_of(label, size, fmt) + json.dumps(first)
    else:
        assert writes[0] == first + "\n"
    # the first object is written and flushed before the second is built
    assert log[:4] == [("object",), ("write", writes[0]), ("flush",), ("object",)]
    assert all(len(w) >= WRITE_CHUNK for w in writes[1:-1])
    # and no write goes more than one object past WRITE_CHUNK
    longest = max(len(json.dumps(t)) + 2 for t in generate.class_texts(label, size))
    assert all(len(w) < WRITE_CHUNK + longest for w in writes[1:])
    assert len(writes) <= -(-len(out) // WRITE_CHUNK) + 3
    assert len(writes) > 3


@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_enumerate_write_pattern(monkeypatch, fmt):
    # texts of one length
    check_write_pattern(monkeypatch, "cinv321-even", 24, fmt)


@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_enumerate_write_pattern_of_texts_that_vary(monkeypatch, fmt):
    # texts of many lengths, the first of them empty
    check_write_pattern(monkeypatch, "subsets", 14, fmt)


@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_enumerate_writes_an_object_longer_than_a_chunk_alone(monkeypatch, fmt):
    # every path of this size is longer than WRITE_CHUNK, so each write after
    # the first holds one path, and no path is built before it is written
    label, size = "paths-rect", WRITE_CHUNK + 100
    log = []
    log_texts(monkeypatch, label, log)
    with open(os.devnull, "w") as null:
        monkeypatch.setattr(sys, "stdout", ClosingStream(log, 4, null))
        argv = ["enumerate", "--class", label, "--size", str(size), "--format", fmt]
        assert main(argv) == 141
    writes = [e[1] for e in log if e[0] == "write"]
    assert len(writes) == 4
    assert writes[0] == head_of(label, size, fmt) + (
        json.dumps("E" * size) if fmt == "json" else "E" * size + "\n"
    )
    assert log[:4] == [("object",), ("write", writes[0]), ("flush",), ("object",)]
    one = size + (4 if fmt == "json" else 1)  # a path, quoted after ", "
    assert [len(w) for w in writes[1:]] == [one] * 3
    # the fifth path was built for the write that failed, and no sixth
    assert log.count(("object",)) == 5


@pytest.mark.parametrize("fmt", ["tsv", "json"])
@pytest.mark.parametrize(
    "label,size,want", [("cinv321-even", 3, "even"), ("cinv321-odd", 4, "odd")]
)
def test_wrong_parity_exits_2_before_any_output(capsys, label, size, want, fmt):
    code, out, err = run(
        capsys, "enumerate", "--class", label, "--size", str(size), "--format", fmt
    )
    assert (code, out, err) == (2, "", f"error: {want} size required\n")


def close_after_first(argv, first, program=("-m", "centroinv.cli")):
    """Run the CLI (or the Python program given, with argv as its
    arguments) with stdout on a pipe, read the first bytes, close the pipe,
    and check that the writer exits 141 with nothing on stderr."""
    proc = subprocess.Popen(
        [sys.executable, *program, *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=CHILD_ENV,
    )
    assert proc.stdout.read(len(first)) == first
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


def test_closed_pipe_exits_141():
    # about 1.1 MB of output, far more than a pipe holds, so the writer is
    # still writing when the reader goes away
    close_after_first(
        ["enumerate", "--class", "paths-rect", "--size", "16"], b"E" * 16 + b"\n"
    )


@pytest.mark.parametrize(
    "argv, first",
    [
        (
            ["enumerate", "--class", "paths-rect", "--size", "16", "--format", "json"],
            b'{"class": "paths-rect", "size": 16, "objects": ["' + b"E" * 16 + b'"',
        ),
        # a walk over far more objects than could ever be listed: enumerate
        # has no cost budget, the reader stops it
        (
            ["enumerate", "--class", "inv321", "--size", "40"],
            " ".join(map(str, range(1, 41))).encode() + b"\n",
        ),
    ],
    ids=["paths-rect-16-json", "inv321-40"],
)
def test_closed_pipe_exits_141_other_streams(argv, first):
    close_after_first(argv, first)


def test_verify_tsv(capsys):
    code, out, _ = run(capsys, "verify", "--name", "T-recr", "--max-n", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n\tstatus\tcounterexample"
    assert lines[1] == "0\tpass\t"
    assert lines[-1] == "4\tpass\t"


def test_verify_json(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--name", "T-despoly", "--max-n", "5", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["theorem"] == "T-despoly"
    assert all(r["status"] == "pass" for r in doc["results"])
    assert "duration_s" in doc


def test_verify_all(capsys):
    code, out, _ = run(capsys, "verify", "--name", "all", "--max-n", "2")
    assert code == 0
    for name in THEOREMS:
        assert f"# {name}" in out


def _masked(out: str) -> str:
    # the one figure of verify output that differs between runs
    return re.sub(r'"duration_s": [0-9.e-]+', '"duration_s": 0', out)


def test_verify_all_output_is_the_same_in_any_number_of_processes(capsys, monkeypatch, forks):
    # 1, 2 and 4 CPUs, with the cap raised to 4: the caller alone, then with
    # 1 and 3 children.  A failing driver shows in its row and in the exit
    # code alike
    monkeypatch.setattr(cli, "DRIVER_PROCESSES", 4)
    monkeypatch.setitem(THEOREMS, "T-recr", ("fails from size two on", 3,
                                             lambda n: None if n < 2 else "boom"))
    outputs = {}
    for cpus in (1, 2, 4):
        set_cpus(monkeypatch, cpus)
        for fmt in ("tsv", "json"):
            for max_n in ("0", "3"):
                code, out, err = run(capsys, "verify", "--name", "all", "--max-n", max_n,
                                     "--format", fmt)
                outputs.setdefault((fmt, max_n), set()).add((code, _masked(out), err))
    assert all(len(seen) == 1 for seen in outputs.values()), outputs
    code, out, err = outputs["tsv", "3"].pop()
    assert (code, err) == (1, "")
    assert "# T-recr\nn\tstatus\tcounterexample\n0\tpass\t\n1\tpass\t\n2\tfail\tboom\n" in out
    assert [line[2:] for line in out.splitlines() if line.startswith("#")] == sorted(THEOREMS)
    assert len(forks) == 4 * (0 + 1 + 3)
    assert_no_child_left()


def test_verify_forks_one_child_per_extra_process(capsys, monkeypatch, forks):
    set_cpus(monkeypatch, 4)
    # two processes by default, however many CPUs the process may use
    assert cli.DRIVER_PROCESSES == 2
    assert run(capsys, "verify", "--name", "all", "--max-n", "1")[0] == 0
    assert len(forks) == 1
    monkeypatch.setattr(cli, "DRIVER_PROCESSES", 3)
    assert run(capsys, "verify", "--name", "all", "--max-n", "1")[0] == 0
    assert len(forks) == 3
    # one driver runs in the caller, and a bad request forks nothing
    assert run(capsys, "verify", "--name", "T-cara", "--max-n", "1")[0] == 0
    assert run(capsys, "verify", "--name", "all", "--max-n", "-1") == (
        2, "", "error: max size must be non-negative (got -1)\n"
    )
    assert len(forks) == 3
    code, out, _ = run(capsys, "verify", "--name", "all", "--max-n", "1")
    assert len(forks) == 5
    # no os.fork: every driver runs in the caller, with the same output
    monkeypatch.delattr(os, "fork")
    assert run(capsys, "verify", "--name", "all", "--max-n", "1")[:2] == (code, out)
    assert_no_child_left()


def test_even_census_walked_first_only_when_forking(capsys, monkeypatch, tmp_path):
    # nothing is walked before the fork: at 2 CPUs the caller walks no
    # census size before its first driver, T-cara, starts, and the four
    # census readers run in the caller and in no other process.  At 1 CPU
    # the drivers run in sorted order.  Each process appends its pid and
    # each census walk or driver start to a file
    log = tmp_path / "events"
    real = kernels.census.__wrapped__

    def logged(event):
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {event}\n")

    @functools.lru_cache(maxsize=None)
    def census(m):
        logged(f"census({m})")
        return real(m)

    monkeypatch.setattr(kernels, "census", census)
    monkeypatch.setattr(cli, "verify", before_verify(logged))
    runs = {}
    for cpus in (2, 1):
        census.cache_clear()
        log.write_text("")
        set_cpus(monkeypatch, cpus)
        assert run(capsys, "verify", "--name", "all", "--max-n", "1")[0] == 0
        runs[cpus] = [line.split(" ", 1) for line in log.read_text().splitlines()]
    caller = str(os.getpid())
    assert [event for pid, event in runs[2] if pid == caller][0] == "T-cara"
    assert {pid for pid, event in runs[2] if event in EVEN_CENSUS_READERS} == {caller}
    assert {event for pid, event in runs[2] if pid == caller} >= EVEN_CENSUS_READERS
    assert [event for _, event in runs[1] if event in THEOREMS] == sorted(THEOREMS)
    assert_no_child_left()


def _fail_drivers(monkeypatch, where, error=ValueError):
    """Make every driver raise error("boom") in the caller (where is
    "caller") or in a forked child (where is "child"), and run as before in
    the other."""
    caller = os.getpid()
    for name, (text, default_max, fn) in THEOREMS.items():
        def failing(n, fn=fn):
            if (os.getpid() == caller) == (where == "caller"):
                raise error("boom")
            return fn(n)

        monkeypatch.setitem(THEOREMS, name, (text, default_max, failing))


def test_driver_failed_in_the_caller_fails_as_in_a_serial_run(capsys, monkeypatch):
    # what a driver raises in the caller reaches main as it is, with one CPU
    # or two: a ValueError is a usage error, exit 2, and the child is killed
    _fail_drivers(monkeypatch, "caller")
    for cpus in (1, 2):
        set_cpus(monkeypatch, cpus)
        assert run(capsys, "verify", "--name", "all", "--max-n", "1") == (2, "", "error: boom\n")
        assert_no_child_left()


def test_interrupt_exits_130_with_no_traceback(capsys, monkeypatch):
    # Ctrl-C in the caller's first driver, T-cara: nothing was written yet,
    # and at two CPUs the child that runs meanwhile is killed and reaped
    _fail_drivers(monkeypatch, "caller", KeyboardInterrupt)
    for cpus in (1, 2):
        set_cpus(monkeypatch, cpus)
        try:
            result = run(capsys, "verify", "--name", "all", "--max-n", "1")
        except KeyboardInterrupt:
            pytest.fail("the interrupt left main")
        assert result == (cli.EXIT_INTERRUPTED, "", "")
        assert_no_child_left()


def test_driver_failed_in_a_child_names_the_driver(capsys, monkeypatch):
    # every driver raises in a child; the caller runs its own drivers, then
    # reads the child's failure, which names the driver the child took
    _fail_drivers(monkeypatch, "child")
    set_cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError) as exc:
        run(capsys, "verify", "--name", "all", "--max-n", "1")
    assert re.fullmatch(
        r"process 1 of 2 failed: RuntimeError: driver (T-\w+) raised ValueError: boom",
        str(exc.value),
    ).group(1) in THEOREMS
    # the caller's first report was complete, so it was written; the child's
    # first driver comes next in sorted order, so nothing after it was
    assert capsys.readouterr() == (
        "# T-cara\nn\tstatus\tcounterexample\n0\tpass\t\n1\tpass\t\n", ""
    )
    assert_no_child_left()


def _log_stdout_at_each_driver(monkeypatch, capsys, log):
    """Before each driver the caller runs, append (name, what stdout holds
    so far) to log.  Returns the list of the texts read, which the run's
    output follows."""
    caller = os.getpid()
    taken = []

    def logged(name):
        if os.getpid() == caller:
            taken.append(capsys.readouterr().out)
            log.append((name, "".join(taken)))

    monkeypatch.setattr(cli, "verify", before_verify(logged))
    return taken


@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_reports_stream_in_order_at_one_cpu(capsys, monkeypatch, fmt):
    # in one process, each driver starts with every earlier report already
    # complete on stdout, and nothing more
    set_cpus(monkeypatch, 1)
    argv = ("verify", "--name", "all", "--max-n", "3", "--format", fmt)
    code, want, _ = run(capsys, *argv)
    log = []
    taken = _log_stdout_at_each_driver(monkeypatch, capsys, log)
    code_now, out, err = run(capsys, *argv)
    assert (code_now, _masked("".join(taken) + out), err) == (code, _masked(want), "")
    assert [name for name, _ in log] == sorted(THEOREMS)
    for name, seen in log:
        if fmt == "tsv":
            start = want.index(f"# {name}\n")
        else:  # the report, less the "[" or "," before it
            start = want.index(f'{{"theorem": "{name}"') - 1
        assert _masked(seen) == _masked(want[:start]), name


def test_caller_second_driver_sees_the_first_report_alone(capsys, monkeypatch):
    # at 2 CPUs the child's first driver, T-cor1, waits until the caller
    # starts its second, so the caller surely has one.  By then T-cara's
    # report is complete on stdout, and no other: T-cor1's comes next
    set_cpus(monkeypatch, 2)
    code, want, _ = run(capsys, "verify", "--name", "all", "--max-n", "1")
    log = []
    gate, opened = os.pipe()
    caller = os.getpid()

    def gated(name):
        # the caller opens the gate once it has logged its second driver
        if name == "T-cor1":
            select.select([gate], [], [], 60)
        elif len(log) == 2 and os.getpid() == caller:
            os.write(opened, b"x")

    monkeypatch.setattr(cli, "verify", before_verify(gated))
    taken = _log_stdout_at_each_driver(monkeypatch, capsys, log)
    try:
        code_now, out, err = run(capsys, "verify", "--name", "all", "--max-n", "1")
    finally:
        os.close(gate)
        os.close(opened)
    assert (code_now, "".join(taken) + out, err) == (code, want, "")
    assert log[0] == ("T-cara", "")
    assert log[1][1] == "# T-cara\nn\tstatus\tcounterexample\n0\tpass\t\n1\tpass\t\n"
    assert_no_child_left()


def test_each_process_starts_on_its_own_driver(capsys, monkeypatch, tmp_path):
    # at 2 CPUs the caller starts with T-cara and the child with T-cor1.  The
    # caller waits a little after each fork, which under one shared queue
    # would let the child take T-cara first
    set_cpus(monkeypatch, 2)
    fork = os.fork

    def slow_fork():
        pid = fork()
        if pid:
            time.sleep(0.05)
        return pid

    monkeypatch.setattr(os, "fork", slow_fork)
    log = tmp_path / "drivers"

    def logged(name):
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {name}\n")

    monkeypatch.setattr(cli, "verify", before_verify(logged))
    assert run(capsys, "verify", "--name", "all", "--max-n", "1")[0] == 0
    first = {}
    for line in log.read_text().splitlines():
        pid, name = line.split()
        first.setdefault(int(pid), name)
    caller = first.pop(os.getpid())
    assert (caller, list(first.values())) == ("T-cara", ["T-cor1"])
    assert_no_child_left()


def _log_stdout_at_each_size(monkeypatch, capsys, names):
    """Before each size of each named driver that the caller runs, append
    (name, n, what stdout holds so far) to the first list returned.  The
    second holds the texts read, which the run's output follows."""
    caller = os.getpid()
    log, taken = [], []
    for name in names:
        text, default_max, fn = THEOREMS[name]

        def logged(n, name=name, fn=fn):
            if os.getpid() == caller:
                taken.append(capsys.readouterr().out)
                log.append((name, n, "".join(taken)))
            return fn(n)

        monkeypatch.setitem(THEOREMS, name, (text, default_max, logged))
    return log, taken


def _assert_rows_before_each_size(log, want, fmt):
    """At each logged size n of a driver, stdout holds what comes before its
    row n in want: every earlier report, and its own rows 0..n-1 with their
    header, and nothing more."""
    want = _masked(want)
    for name, n, seen in log:
        seen = _masked(seen)
        rest = want[len(seen):]
        assert want.startswith(seen), (name, n)
        if fmt == "tsv":
            assert rest.startswith(f"# {name}\n" if n == 0 else f"{n}\t"), (name, n)
        elif n == 0:
            assert rest[0] in "[," and rest[1:].startswith(f'{{"theorem": "{name}"'), name
        else:
            assert rest.startswith(f', {{"n": {n}, '), (name, n)


@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_rows_stream_in_order_at_one_cpu(capsys, monkeypatch, fmt):
    # in one process, each size of each driver starts with every row before
    # it on stdout, and nothing more
    set_cpus(monkeypatch, 1)
    argv = ("verify", "--name", "all", "--max-n", "3", "--format", fmt)
    code, want, _ = run(capsys, *argv)
    log, taken = _log_stdout_at_each_size(monkeypatch, capsys, THEOREMS)
    code_now, out, err = run(capsys, *argv)
    assert (code_now, _masked("".join(taken) + out), err) == (code, _masked(want), "")
    assert [(name, n) for name, n, _ in log] == [(name, n) for name in sorted(THEOREMS) for n in range(4)]
    _assert_rows_before_each_size(log, want, fmt)


@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_caller_rows_stream_at_two_cpus(capsys, monkeypatch, fmt):
    # at 2 CPUs the caller runs T-cara first, while the child runs; each of
    # its sizes starts with the rows before it on stdout
    set_cpus(monkeypatch, 2)
    argv = ("verify", "--name", "all", "--max-n", "3", "--format", fmt)
    code, want, _ = run(capsys, *argv)
    log, taken = _log_stdout_at_each_size(monkeypatch, capsys, ["T-cara"])
    code_now, out, err = run(capsys, *argv)
    assert (code_now, _masked("".join(taken) + out), err) == (code, _masked(want), "")
    assert [(name, n) for name, n, _ in log] == [("T-cara", n) for n in range(4)]
    _assert_rows_before_each_size(log, want, fmt)
    assert_no_child_left()


def test_child_rows_stream_once_earlier_reports_are_complete(capsys):
    # at 2 CPUs the child runs T-cor1 first, and each of its sizes after the
    # first waits for one byte on stdin.  This test sends that byte only when
    # stdout holds everything before the size's row: T-cara's whole report
    # and T-cor1's rows so far, written by the caller as they came
    main(["verify", "--name", "all", "--max-n", "3"])
    want = capsys.readouterr().out
    setup = (
        "from centroinv.verify import THEOREMS\n"
        "text, default_max, fn = THEOREMS['T-cor1']\n"
        "def gated(n):\n"
        "    if n:\n"
        "        os.read(0, 1)\n"
        "    return fn(n)\n"
        "THEOREMS['T-cor1'] = (text, default_max, gated)\n"
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", TWO_CPU_CLI.format(setup=setup),
         "verify", "--name", "all", "--max-n", "3"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=CHILD_ENV,
    )
    out = b""
    try:
        start = want.index("# T-cor1\n")
        for n in range(1, 4):
            before = want[: want.index(f"\n{n}\t", start) + 1].encode()
            while len(out) < len(before):
                assert select.select([proc.stdout], [], [], 60)[0], (n, out)
                out += os.read(proc.stdout.fileno(), 1 << 16)
            assert out == before, n
            proc.stdin.write(b"x")
            proc.stdin.flush()
        out += proc.stdout.read()
        assert (proc.wait(timeout=60), out.decode(), proc.stderr.read()) == (0, want, b"")
    finally:
        proc.kill()
        proc.wait()
        proc.stdin.close()
        proc.stdout.close()
        proc.stderr.close()


@pytest.mark.parametrize("how", ["exit", "kill"])
def test_child_ended_mid_stream_keeps_the_rows_written(capsys, monkeypatch, how):
    # the child's first driver, T-cor1, sends row 0 and ends at n = 1 with
    # no reply: the run fails, and the rows written before stay on stdout
    caller = os.getpid()
    text, default_max, fn = THEOREMS["T-cor1"]

    def ending(n):
        if n == 1 and os.getpid() != caller:
            if how == "exit":
                os._exit(0)
            os.kill(os.getpid(), signal.SIGKILL)
        return fn(n)

    monkeypatch.setitem(THEOREMS, "T-cor1", (text, default_max, ending))
    set_cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="^process 1 of 2 ended without a result$"):
        run(capsys, "verify", "--name", "all", "--max-n", "1")
    assert capsys.readouterr() == (
        "# T-cara\nn\tstatus\tcounterexample\n0\tpass\t\n1\tpass\t\n"
        "# T-cor1\nn\tstatus\tcounterexample\n0\tpass\t\n",
        "",
    )
    assert_no_child_left()


@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_streamed_output_equals_the_joined_reports(capsys, monkeypatch, fmt):
    # what streams out is, byte for byte, the reports _run_drivers returns,
    # each as one whole text: for --name all and one --name, at 1, 2 and 4
    # CPUs (with the cap raised to 4).  T-recr fails with a counterexample
    # that json.dumps escapes
    monkeypatch.setattr(cli, "DRIVER_PROCESSES", 4)
    monkeypatch.setitem(THEOREMS, "T-recr", ("fails from size two on", 3,
                                             lambda n: None if n < 2 else 'a "b" \\ \t é'))
    returned = []
    real = cli._run_drivers
    monkeypatch.setattr(cli, "_run_drivers", lambda *args: returned.append(real(*args)) or returned[-1])
    for cpus in (1, 2, 4):
        set_cpus(monkeypatch, cpus)
        for name in ("all", "T-recr"):
            for max_n in range(4):
                code, out, err = run(capsys, "verify", "--name", name, "--max-n", str(max_n),
                                     "--format", fmt)
                reports = returned.pop()
                if fmt == "json":
                    texts = list(map(report_json, reports))
                    want = "[" + ",".join(texts) + "]\n" if name == "all" else texts[0] + "\n"
                else:
                    texts = list(map(report_tsv, reports))
                    if name == "all":
                        want = "".join(f"# {r.theorem}\n{t}\n" for r, t in zip(reports, texts))
                    else:
                        want = texts[0] + "\n"
                assert (code, out, err) == (int(max_n >= 2), want, ""), (cpus, name, max_n)
    escaped = 'a \\"b\\" \\\\ \\t \\u00e9' if fmt == "json" else 'a "b" \\ \t é'
    assert escaped in out
    assert_no_child_left()


#: run the CLI with argv at 2 CPUs whatever the machine has, and say on
#: stderr if it left a child behind
TWO_CPU_CLI = (
    "import os, sys\n"
    "from centroinv import cli\n"
    "os.cpu_count = lambda: 2\n"
    "os.sched_getaffinity = lambda pid: range(2)\n"
    "{setup}"
    "code = cli.main(sys.argv[1:])\n"
    "try:\n"
    "    os.waitpid(-1, os.WNOHANG)\n"
    "except ChildProcessError:\n"
    "    pass\n"
    "else:\n"
    "    sys.stderr.write('a child was left\\n')\n"
    "sys.exit(code)\n"
)


def test_closed_pipe_mid_verify_exits_141():
    # every driver but T-cara waits until the reader has gone (poll reports
    # an error on a pipe with no reader), so every report after T-cara's is
    # written to a closed pipe, by the caller or after the child is reaped
    setup = (
        f"sys.path.insert(0, {TESTS!r})\n"
        "import select\n"
        "from test_cli import before_verify\n"
        "def hook(name):\n"
        "    if name != 'T-cara':\n"
        "        poll = select.poll()\n"
        "        poll.register(1, 0)\n"
        "        poll.poll(20000)\n"
        "cli.verify = before_verify(hook)\n"
    )
    close_after_first(
        ["verify", "--name", "all"], b"# T-cara\n", ("-c", TWO_CPU_CLI.format(setup=setup))
    )


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--name", "all"],
        ["verify", "--name", "T-cor1"],
        ["stats", "--class", "inv321", "--size", "14", "--stat", "maj", "--jobs", "2"],
        ["enumerate", "--class", "subsets", "--size", "3"],
        ["bijection", "--name", "g", "--apply", "EN"],
    ],
    ids=["verify-all", "verify", "stats", "enumerate", "bijection"],
)
def test_full_disk_ends_in_a_plain_message(argv):
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-c", TWO_CPU_CLI.format(setup=""), *argv],
            stdout=full, stderr=subprocess.PIPE, env=CHILD_ENV, text=True, timeout=60,
        )
    assert (proc.returncode, proc.stderr) == (
        cli.EXIT_WRITE_FAILED, f"error: cannot write output: {os.strerror(errno.ENOSPC)}\n"
    )


class FullStream(ClosingStream):
    """A ClosingStream whose device is full: every write raises OSError."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_failed_write_kills_and_reaps_the_child(capsys, monkeypatch):
    # the child sleeps in its first driver, so the caller's write of T-cara's
    # report fails while the child runs; the run ends long before the sleep
    set_cpus(monkeypatch, 2)
    caller = os.getpid()
    monkeypatch.setattr(
        cli, "verify", before_verify(lambda name: os.getpid() == caller or time.sleep(60))
    )
    start = time.monotonic()
    with open(os.devnull, "w") as null:
        monkeypatch.setattr(sys, "stdout", FullStream([], 0, null))
        code = main(["verify", "--name", "all", "--max-n", "1"])
    assert (code, capsys.readouterr().err) == (
        cli.EXIT_WRITE_FAILED, f"error: cannot write output: {os.strerror(errno.ENOSPC)}\n"
    )
    assert time.monotonic() - start < 30
    assert_no_child_left()


def test_verify_children_leave_stdio_alone():
    # text the caller has buffered but not flushed is written once, before
    # the reports, whatever the number of processes
    code = (
        "import os, sys\n"
        "from centroinv import cli\n"
        "os.cpu_count = lambda: int(sys.argv[1])\n"
        "os.sched_getaffinity = lambda pid: range(int(sys.argv[1]))\n"
        "sys.stdout.write('before ')\n"
        "sys.exit(cli.main(['verify', '--name', 'all', '--max-n', '2']))\n"
    )
    env = {k: v for k, v in CHILD_ENV.items() if k != "PYTHONUNBUFFERED"}
    runs = [
        subprocess.run([sys.executable, "-c", code, cpus], env=env,
                       capture_output=True, text=True, check=True)
        for cpus in ("1", "2")
    ]
    assert runs[0].stdout == runs[1].stdout
    assert runs[1].stdout.startswith("before # T-cara\n")
    assert runs[1].stdout.count("before") == 1
    assert runs[1].stderr == ""


def test_verify_all_walks_each_census_once(capsys, monkeypatch, tmp_path):
    # kernels.census is cached per process; the four drivers that read the
    # even census run in one process, the caller, so that no size is walked
    # in both processes.  Each walk, in any process, appends its pid and its
    # size to a file
    log = tmp_path / "walks"
    real = kernels.census.__wrapped__

    @functools.lru_cache(maxsize=None)
    def census(m):
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {m}\n")
        return real(m)

    monkeypatch.setattr(kernels, "census", census)
    set_cpus(monkeypatch, 2)
    assert run(capsys, "verify", "--name", "all", "--max-n", "5")[0] == 0
    walks = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
    sizes = [m for _, m in walks]
    assert sorted(sizes) == sorted(set(sizes))
    assert {0, 2, 4, 6, 8, 10} <= set(sizes)
    assert {pid for pid, m in walks if m % 2 == 0} == {os.getpid()}
    assert_no_child_left()


def test_verify_failure_exits_1(capsys, monkeypatch):
    monkeypatch.setitem(THEOREMS, "T-fake", ("always fails", 1, lambda n: "boom"))
    code, out, _ = run(capsys, "verify", "--name", "T-fake")
    assert code == 1
    assert "fail\tboom" in out


#: what the parser prints, at 80 columns, for the help of the program and of
#: each subcommand and for four usage errors: (exit code, stdout, stderr).
#: The parser adds only the named subcommand's arguments; these texts were
#: taken when it still added every subcommand's, and must not change
PARSER_TEXTS = {
    '': (
        2,
        "",
        (
            'usage: centroinv [-h] {enumerate,stats,bijection,verify} ...\n'
            'centroinv: error: the following arguments are required: command\n'
        ),
    ),
    '-h': (
        0,
        (
            'usage: centroinv [-h] {enumerate,stats,bijection,verify} ...\n'
            '\n'
            'Descent statistics on 321-avoiding centrosymmetric involutions: enumeration,\n'
            'bijections, q-polynomials, theorem verification.\n'
            '\n'
            'positional arguments:\n'
            '  {enumerate,stats,bijection,verify}\n'
            '    enumerate           stream every object of a class\n'
            '    stats               statistic distribution over a class\n'
            '    bijection           apply a named map to one object\n'
            '    verify              run a theorem driver\n'
            '\n'
            'options:\n'
            '  -h, --help            show this help message and exit\n'
        ),
        "",
    ),
    'frobnicate': (
        2,
        "",
        (
            'usage: centroinv [-h] {enumerate,stats,bijection,verify} ...\n'
            "centroinv: error: argument command: invalid choice: 'frobnicate' (choose from 'enumerate', 'stats', 'bijection', 'verify')\n"
        ),
    ),
    'enumerate -h': (
        0,
        (
            'usage: centroinv enumerate [-h] --class\n'
            '                           {cinv321-even,cinv321-odd,inv321,signed-all,signed-sixavoiders,subsets,paths-rect}\n'
            '                           --size SIZE [--format {tsv,json}]\n'
            '\n'
            'options:\n'
            '  -h, --help            show this help message and exit\n'
            '  --class {cinv321-even,cinv321-odd,inv321,signed-all,signed-sixavoiders,subsets,paths-rect}\n'
            '  --size SIZE\n'
            '  --format {tsv,json}\n'
        ),
        "",
    ),
    'stats -h': (
        0,
        (
            'usage: centroinv stats [-h] --class\n'
            '                       {cinv321-even,cinv321-odd,inv321,signed-all,signed-sixavoiders,subsets,paths-rect}\n'
            '                       --size SIZE --stat {des+,maj+,des,maj,fp,area,peaks}\n'
            '                       [--jobs JOBS] [--format {tsv,json}]\n'
            '\n'
            'options:\n'
            '  -h, --help            show this help message and exit\n'
            '  --class {cinv321-even,cinv321-odd,inv321,signed-all,signed-sixavoiders,subsets,paths-rect}\n'
            '  --size SIZE\n'
            '  --stat {des+,maj+,des,maj,fp,area,peaks}\n'
            '  --jobs JOBS\n'
            '  --format {tsv,json}\n'
        ),
        "",
    ),
    'bijection -h': (
        0,
        (
            'usage: centroinv bijection [-h] --name\n'
            '                           {excedance-subset,g,g-inverse,involution-matching,matching-involution,rsk-path,subset-involution,subset-matching,subset-path,theta,theta-inverse,theta-rect,theta-rect-inverse}\n'
            '                           --apply OBJECT [--size SIZE] [--format {tsv,json}]\n'
            '\n'
            'options:\n'
            '  -h, --help            show this help message and exit\n'
            '  --name {excedance-subset,g,g-inverse,involution-matching,matching-involution,rsk-path,subset-involution,subset-matching,subset-path,theta,theta-inverse,theta-rect,theta-rect-inverse}\n'
            '  --apply OBJECT\n'
            '  --size SIZE           context size where needed: N or A,B\n'
            '  --format {tsv,json}\n'
        ),
        "",
    ),
    'verify -h': (
        0,
        (
            'usage: centroinv verify [-h] --name\n'
            '                        {T-cara,T-cor1,T-cor2,T-desfull,T-despoly,T-fp,T-hdpeak,T-majpoly,T-odd,T-recr,T-sixpat,all}\n'
            '                        [--max-n MAX_N] [--format {tsv,json}]\n'
            '\n'
            'options:\n'
            '  -h, --help            show this help message and exit\n'
            '  --name {T-cara,T-cor1,T-cor2,T-desfull,T-despoly,T-fp,T-hdpeak,T-majpoly,T-odd,T-recr,T-sixpat,all}\n'
            '  --max-n MAX_N\n'
            '  --format {tsv,json}\n'
        ),
        "",
    ),
    'enumerate --class nope --size 3': (
        2,
        "",
        (
            'usage: centroinv enumerate [-h] --class\n'
            '                           {cinv321-even,cinv321-odd,inv321,signed-all,signed-sixavoiders,subsets,paths-rect}\n'
            '                           --size SIZE [--format {tsv,json}]\n'
            "centroinv enumerate: error: argument --class: invalid choice: 'nope' (choose from 'cinv321-even', 'cinv321-odd', 'inv321', 'signed-all', 'signed-sixavoiders', 'subsets', 'paths-rect')\n"
        ),
    ),
    'stats --class nope --size 3 --stat des': (
        2,
        "",
        (
            'usage: centroinv stats [-h] --class\n'
            '                       {cinv321-even,cinv321-odd,inv321,signed-all,signed-sixavoiders,subsets,paths-rect}\n'
            '                       --size SIZE --stat {des+,maj+,des,maj,fp,area,peaks}\n'
            '                       [--jobs JOBS] [--format {tsv,json}]\n'
            "centroinv stats: error: argument --class: invalid choice: 'nope' (choose from 'cinv321-even', 'cinv321-odd', 'inv321', 'signed-all', 'signed-sixavoiders', 'subsets', 'paths-rect')\n"
        ),
    ),
    'bijection --name nope --apply x': (
        2,
        "",
        (
            'usage: centroinv bijection [-h] --name\n'
            '                           {excedance-subset,g,g-inverse,involution-matching,matching-involution,rsk-path,subset-involution,subset-matching,subset-path,theta,theta-inverse,theta-rect,theta-rect-inverse}\n'
            '                           --apply OBJECT [--size SIZE] [--format {tsv,json}]\n'
            "centroinv bijection: error: argument --name: invalid choice: 'nope' (choose from 'excedance-subset', 'g', 'g-inverse', 'involution-matching', 'matching-involution', 'rsk-path', 'subset-involution', 'subset-matching', 'subset-path', 'theta', 'theta-inverse', 'theta-rect', 'theta-rect-inverse')\n"
        ),
    ),
    'verify --name nope': (
        2,
        "",
        (
            'usage: centroinv verify [-h] --name\n'
            '                        {T-cara,T-cor1,T-cor2,T-desfull,T-despoly,T-fp,T-hdpeak,T-majpoly,T-odd,T-recr,T-sixpat,all}\n'
            '                        [--max-n MAX_N] [--format {tsv,json}]\n'
            "centroinv verify: error: argument --name: invalid choice: 'nope' (choose from 'T-cara', 'T-cor1', 'T-cor2', 'T-desfull', 'T-despoly', 'T-fp', 'T-hdpeak', 'T-majpoly', 'T-odd', 'T-recr', 'T-sixpat', 'all')\n"
        ),
    ),
}


@pytest.mark.parametrize("argv", PARSER_TEXTS)
def test_parser_texts_stay_the_same(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(argv.split())
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == PARSER_TEXTS[argv]


def test_module_entry_point():
    proc = subprocess.run(
        [
            sys.executable, "-m", "centroinv.cli",
            "stats", "--class", "subsets", "--size", "3", "--stat", "des+",
        ],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "exponent\tcoefficient"


def test_console_script():
    exe = shutil.which("centroinv")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "bijection", "--name", "g", "--apply", "NENE"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "EENN"
