"""Statistic distributions over the object classes, as q-polynomials.

distribution(label, size, stat) streams a class and tallies one statistic;
the result records the tally as a polynomial (coefficient of q^i counts the
objects with statistic i) plus the stream length.

With jobs > 1 the stream is split into jobs shards by the generator's shard
rule (see centroinv.generate).  The caller tallies shard 0 itself; shards 1
to jobs - 1 are tallied by children made with os.fork, each of which sends
its tally back over a pipe as marshal.dumps((ok, payload)) and leaves with
os._exit.  The tallies are added; tally addition is commutative, so a
sharded run is byte-identical to a serial one.  jobs is capped at
os.cpu_count(), and at 1 on a platform without os.fork, which then runs
serially.  The package starts no threads, so forking the caller is safe.
"""

from __future__ import annotations

import json
import marshal
import os
from collections import Counter
from typing import NamedTuple

from centroinv import generate
from centroinv.qpoly import QPoly, peval, tally_poly

#: every statistic name, in the order the class table first uses it
STATS = tuple(dict.fromkeys(s for c in generate.CLASSES.values() for s in c.stats))


def stat_function(label: str, stat: str):
    """Evaluator for a statistic on objects of a class; raises on
    incompatible pairs."""
    table = generate.object_class(label).stats
    if stat not in table:
        raise ValueError(f"stat {stat!r} not defined for class {label!r}")
    return table[stat]


class DistributionTable(NamedTuple):
    label: str
    size: int
    stat: str
    poly: QPoly
    count: int


def _shard_tally(label: str, size: int, stat: str, shard: int, nshards: int) -> Counter:
    fn = stat_function(label, stat)
    return Counter(map(fn, generate.generate_class(label, size, shard, nshards)))


def _fork_shard(label: str, size: int, stat: str, shard: int, nshards: int) -> tuple[int, int]:
    """Start a child that tallies one shard; returns its pid and the read end
    of the pipe that carries marshal.dumps((ok, payload)): the tally as a
    dict, or the text "<ExcType>: <message>" of what the shard raised."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, read_fd
    # the child: whatever happens, leave by os._exit, so the caller's stdio
    # buffers are never flushed twice and no exit handler runs here
    try:
        os.close(read_fd)
        try:
            reply = (True, dict(_shard_tally(label, size, stat, shard, nshards)))
        except BaseException as exc:
            reply = (False, f"{type(exc).__name__}: {exc}")
        data = memoryview(marshal.dumps(reply))
        while data:
            data = data[os.write(write_fd, data):]
    finally:
        os._exit(0)


def _read_shard(fd: int, shard: int, nshards: int) -> dict:
    """Read one child's reply to end of file; raise if the shard failed or
    the child ended without a reply."""
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    try:
        ok, payload = marshal.loads(b"".join(chunks))
    except (EOFError, ValueError):
        raise RuntimeError(f"shard {shard} of {nshards} ended without a result") from None
    if not ok:
        raise RuntimeError(f"shard {shard} of {nshards} failed: {payload}")
    return payload


def _sharded_tally(label: str, size: int, stat: str, jobs: int) -> Counter:
    """Tally shard 0 here and shards 1..jobs-1 in forked children.  Every
    child is reaped before this returns or raises; on failure the children
    still running are killed first."""
    children: list[tuple[int, int]] = []
    try:
        for shard in range(1, jobs):
            children.append(_fork_shard(label, size, stat, shard, jobs))
        tally = _shard_tally(label, size, stat, 0, jobs)
        for shard, (_, fd) in enumerate(children, 1):
            tally.update(_read_shard(fd, shard, jobs))
        return tally
    except BaseException:
        import signal

        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, fd in children:
            os.close(fd)
            os.waitpid(pid, 0)


def distribution(
    label: str, size: int, stat: str, jobs: int = 1
) -> DistributionTable:
    """Tally one statistic over one class.

    >>> distribution("cinv321-even", 4, "des").poly
    (1, 2, 1)
    """
    # reject bad requests before forking
    stat_function(label, stat)
    generate.generate_class(label, size)
    if jobs < 1:
        raise ValueError("jobs must be positive")
    jobs = min(jobs, os.cpu_count() or 1) if hasattr(os, "fork") else 1
    if jobs == 1:
        tally = _shard_tally(label, size, stat, 0, 1)
    else:
        tally = _sharded_tally(label, size, stat, jobs)
    poly = tally_poly(tally)
    return DistributionTable(label, size, stat, poly, peval(poly, 1))


def table_json(t: DistributionTable) -> str:
    return json.dumps(
        {
            "class": t.label,
            "size": t.size,
            "stat": t.stat,
            "poly": list(t.poly),
            "count": t.count,
        }
    )


def table_tsv(t: DistributionTable) -> str:
    lines = ["exponent\tcoefficient"]
    lines.extend(f"{i}\t{c}" for i, c in enumerate(t.poly))
    return "\n".join(lines)
