"""Running commands as child processes and summarising what they cost.

Commands start from ``spawner.py``, a small process that reaps each one with
``os.wait4``.  Linux folds the usage of every descendant a command waited
for (the pool workers of ``--jobs 2``) into the figures it reports for the
command, so one call covers the whole process tree.
"""

from __future__ import annotations

import json
import os
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Run:
    """What one child process did."""

    returncode: int
    wall_s: float  # spawn to exit, stdout read to EOF
    cpu_s: float  # user + system, the child and its waited-for descendants
    maxrss_mb: float  # largest maximum RSS in that process tree
    first_byte_s: float  # spawn to first stdout byte (wall_s if none)
    stdout: bytes


class Spawner:
    """Runs commands through spawner.py; use as a context manager."""

    def __init__(self, env: dict[str, str]) -> None:
        self._sock, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        script = Path(__file__).resolve().parent / "spawner.py"
        self._proc = subprocess.Popen(
            [sys.executable, "-S", str(script), str(theirs.fileno())],
            pass_fds=[theirs.fileno()], env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        )
        theirs.close()

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self._sock.close()  # the spawner sees end of file and exits
        self._proc.wait()

    def run(self, argv: list[str]) -> Run:
        """Run argv (argv[0] an absolute path), read its stdout to EOF over a
        pipe.  stderr is inherited, so a failing command's message reaches
        the benchmark's own stderr."""
        read_end, write_end = os.pipe()
        start = time.perf_counter()
        try:
            socket.send_fds(self._sock, [json.dumps(argv).encode()], [write_end])
        finally:
            os.close(write_end)
        first = None
        stdout = bytearray()
        with open(read_end, "rb", buffering=0) as pipe:
            while chunk := pipe.read(1 << 16):
                if first is None:
                    first = time.perf_counter() - start
                stdout += chunk
        reply = self._sock.recv(4096)
        wall = time.perf_counter() - start
        if not reply:
            raise RuntimeError("the spawner process ended")
        returncode, cpu, maxrss_kib = json.loads(reply)
        return Run(
            returncode=returncode,
            wall_s=wall,
            cpu_s=cpu,
            maxrss_mb=maxrss_kib / 1024,
            first_byte_s=wall if first is None else first,
            stdout=bytes(stdout),
        )


def aggregate(runs: list[Run], objects: int) -> dict[str, float]:
    """End-to-end figures of one repetition of a workload's commands."""
    wall = sum(r.wall_s for r in runs)
    return {
        "wall_s": wall,
        "cpu_s": sum(r.cpu_s for r in runs),
        "peak_rss_mb": max(r.maxrss_mb for r in runs),
        "objects_per_s": objects / wall,
        "first_line_s": sum(r.first_byte_s for r in runs),
    }


def summary(values: list[float]) -> dict[str, float]:
    """Median, quartiles and sample count; one sample is its own quartiles."""
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}
