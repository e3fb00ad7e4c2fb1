"""Statistic distributions over the object classes, as q-polynomials.

distribution(label, size, stat) tallies one statistic over one class; the
result records the tally as a polynomial (coefficient of q^i counts the
objects with statistic i) plus the number of objects.

The class is split into jobs shards by the one shard rule of the generators
(see centroinv.generate), and each shard's work is one zero-argument
callable that returns its tally as a Counter: the class's block tally of
the statistic where it has one (ObjectClass.tallies: every statistic of
subsets, paths-rect and signed-all, and des+, maj+ and des of cinv321-even;
paths-rect peaks and the even tallies are subset tallies, read through
subset_path and subset_involution), otherwise the evaluator counted over
the shard stream.  All jobs shard streams are made first, which checks the
request and builds nothing, before any child is forked.  The caller runs
the work of shard 0 itself; the work of shards 1 to jobs - 1 (none for one
job) runs in children made with os.fork, and each child sends its tally
back over a pipe as marshal.dumps((ok, payload)) and leaves with os._exit.
The tallies are added; tally addition is commutative, so a sharded run is
byte-identical to a serial one.  jobs is capped at os.cpu_count(), and at 1
on a platform without os.fork, which then runs serially.  The package
starts no threads, so forking the caller is safe.
"""

from __future__ import annotations

import marshal
import os
from collections import Counter
from functools import partial
from typing import Callable, NamedTuple

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


def _fork_shard(work: Callable[[], Counter], shard: int, nshards: int) -> tuple[int, int]:
    """Start a child that runs one shard's work; returns its pid and the
    read end of the pipe that carries marshal.dumps((ok, payload)): the
    tally as a dict, or the text "<ExcType>: <message>" of what the shard
    raised."""
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
            reply = (True, dict(work()))
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


def _sharded_tally(work: list[Callable[[], Counter]]) -> Counter:
    """Run the work of shard 0 here and of shards 1.. in forked children,
    and add up their tallies.  Every child is reaped before this returns or
    raises; on failure the children still running are killed first."""
    jobs = len(work)
    children: list[tuple[int, int]] = []
    try:
        for shard in range(1, jobs):
            children.append(_fork_shard(work[shard], shard, jobs))
        tally = work[0]()
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


def _shard_work(label: str, size: int, stat: str, fn, jobs: int) -> list[Callable[[], Counter]]:
    """The work of each of the jobs shards, a zero-argument callable that
    returns the shard's tally: the class's block tally of stat where it has
    one, else the Counter of the evaluator over the shard stream.  The
    shard streams are made first either way: that checks the request and
    builds nothing, so a bad one fails here, before any fork."""
    streams = [generate.generate_class(label, size, s, jobs) for s in range(jobs)]
    tally = generate.object_class(label).tallies.get(stat)
    if tally is not None:
        return [partial(tally, size, s, jobs) for s in range(jobs)]
    return [partial(Counter, map(fn, stream)) for stream in streams]


def distribution(
    label: str, size: int, stat: str, jobs: int = 1
) -> DistributionTable:
    """Tally one statistic over one class.

    >>> distribution("cinv321-even", 4, "des").poly
    (1, 2, 1)
    """
    fn = stat_function(label, stat)
    if jobs < 1:
        raise ValueError("jobs must be positive")
    jobs = min(jobs, os.cpu_count() or 1) if hasattr(os, "fork") else 1
    poly = tally_poly(_sharded_tally(_shard_work(label, size, stat, fn, jobs)))
    return DistributionTable(label, size, stat, poly, peval(poly, 1))


def table_json(t: DistributionTable) -> str:
    from json import dumps

    return dumps(
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
