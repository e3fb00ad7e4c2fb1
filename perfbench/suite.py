"""The benchmark's workloads and the checks on their output.

Every command is an argument list for ``python -m centroinv.cli``.  Each one
carries the number of objects it must report, computed here from closed
formulas and never from centroinv, and the key of its frozen stdout digest.
The digests in ``digests.json`` are the sha256 of each command's stdout at
the seed commit; the ROADMAP keeps every byte of default output, so they
never change.  A ``--jobs 2`` query shares its key with the serial query,
because sharded output must equal serial output byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from math import comb, factorial
from pathlib import Path

DIGESTS_FILE = Path(__file__).resolve().parent / "digests.json"

#: rows a default ``verify --name all`` prints with status "pass":
#: sizes 0..max for each theorem's default max
VERIFY_ALL_ROWS = 125


def involution_count(m: int) -> int:
    """Involutions of [m]: I(m) = I(m-1) + (m-1) I(m-2)."""
    a, b = 1, 1
    for k in range(2, m + 1):
        a, b = b, b + (k - 1) * a
    return b


def class_count(label: str, size: int) -> int:
    """Size of a generated class, from its closed formula."""
    if label == "cinv321-even":
        return 2 ** (size // 2)
    if label == "cinv321-odd":
        n = size // 2
        return comb(n, n // 2)
    if label == "inv321":
        return comb(size, size // 2)
    if label in ("subsets", "paths-rect"):
        return 2**size
    if label == "signed-all":
        return 2**size * factorial(size)
    if label == "signed-sixavoiders":
        return comb(2 * size, size)
    raise ValueError(f"no formula for class {label!r}")


@dataclass(frozen=True)
class Command:
    """One CLI invocation with what its output must show."""

    argv: tuple[str, ...]
    kind: str  # "stats", "enumerate", "verify" or "noop"
    expected: int  # objects tallied, emitted or verified

    @property
    def digest_key(self) -> str:
        argv = list(self.argv)
        if "--jobs" in argv:
            k = argv.index("--jobs")
            del argv[k : k + 2]
        return " ".join(argv)

    def __str__(self) -> str:
        return " ".join(self.argv)


def stats(label: str, size: int, stat: str, jobs: int = 1) -> Command:
    argv = ("stats", "--class", label, "--size", str(size), "--stat", stat)
    if jobs != 1:
        argv += ("--jobs", str(jobs))
    return Command(argv, "stats", class_count(label, size))


def enumerate_(label: str, size: int, fmt: str = "tsv") -> Command:
    argv = ("enumerate", "--class", label, "--size", str(size))
    if fmt != "tsv":
        argv += ("--format", fmt)
    return Command(argv, "enumerate", class_count(label, size))


#: the no-work invocation timed for setup_s: interpreter start, import, argparse
NOOP = Command(("bijection", "--name", "g", "--apply", "EN"), "noop", 1)

_SERIAL = [
    stats("cinv321-even", 28, "maj+"),
    stats("cinv321-odd", 25, "maj+"),
    stats("inv321", 12, "maj"),
    stats("subsets", 18, "maj+"),
    stats("paths-rect", 18, "area"),
    stats("signed-all", 6, "des"),
    stats("signed-sixavoiders", 6, "des"),
]

#: (class, size, stat) of the queries sharded over 2 workers
JOBS2_QUERIES = [
    ("cinv321-even", 28, "maj+"),
    ("subsets", 18, "maj+"),
    ("paths-rect", 18, "area"),
    ("signed-all", 6, "des"),
]

#: (class, size, format) of the streams read to EOF
ENUMERATE_QUERIES = [
    ("cinv321-even", 32, "tsv"),
    ("paths-rect", 18, "tsv"),
    ("signed-all", 6, "json"),
]

#: workload name -> (why it was chosen, its commands, run serially)
WORKLOADS: dict[str, tuple[str, list[Command]]] = {
    "verify-all": (
        "time to a verdict over all 11 drivers; the only workload that runs the census",
        [Command(("verify", "--name", "all"), "verify", VERIFY_ALL_ROWS)],
    ),
    "stats-serial": (
        "every class generator and statistic evaluator at the reference sizes, no census",
        _SERIAL,
    ),
    "stats-jobs2": (
        "the same queries sharded over 2 worker processes; output must equal serial",
        [stats(*q, jobs=2) for q in JOBS2_QUERIES],
    ),
    "enumerate-stream": (
        "the write path: every object formatted and emitted over a pipe",
        [enumerate_(*q) for q in ENUMERATE_QUERIES],
    ),
}


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS_FILE.read_text())


def count_objects(cmd: Command, stdout: bytes) -> int:
    """Objects the output reports, read from the output alone."""
    if cmd.kind == "enumerate":
        if "json" in cmd.argv:
            return len(json.loads(stdout)["objects"])
        return stdout.count(b"\n")
    lines = stdout.decode().splitlines()
    if cmd.kind == "stats":
        if not lines or lines[0] != "exponent\tcoefficient":
            return -1
        rows = [line.split("\t") for line in lines[1:]]
        if [int(e) for e, _ in rows] != list(range(len(rows))):
            return -1
        return sum(int(c) for _, c in rows)
    if cmd.kind == "verify":
        return sum(1 for line in lines if line.split("\t")[1:2] == ["pass"])
    return len(lines)


def check_output(
    cmd: Command, returncode: int, stdout: bytes, digests: dict[str, str]
) -> str | None:
    """None when the command passed, else why it failed."""
    if returncode != 0:
        return f"exit code {returncode}"
    want = digests.get(cmd.digest_key)
    if want is None:
        return "no frozen digest"
    if hashlib.sha256(stdout).hexdigest() != want:
        return "stdout differs from the frozen digest"
    got = count_objects(cmd, stdout)
    if got != cmd.expected:
        return f"output reports {got} objects, formula gives {cmd.expected}"
    return None
