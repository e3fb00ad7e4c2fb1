"""Statistic distributions over the object classes, as q-polynomials.

distribution(label, size, stat) tallies one statistic over one class; the
result records the tally as a polynomial (coefficient of q^i counts the
objects with statistic i) plus the number of objects.

Where the class has a block tally of the statistic (ObjectClass.tallies:
every statistic of subsets, paths-rect and signed-all, and des+, maj+ and
des of cinv321-even; paths-rect peaks and the even tallies are subset
tallies, read through subset_path and subset_involution), the caller runs
it whole, whatever jobs asks for: a tally takes milliseconds, less than a
fork costs.  Otherwise the class is split into jobs shards by the one
shard rule of the generators (see centroinv.generate), and each shard's
work is a zero-argument callable that counts the evaluator over its shard
stream.  Every stream is made first, which checks the request and builds
nothing, before any child is forked.  The caller runs the work of shard 0
itself and the work of shards 1 to jobs - 1 (none for one job) in
children, through run_forked, the package's one fork helper, which also
runs the drivers of ``verify --name all``: it makes each child with
os.fork, and each child sends what its work returned back over a pipe as
marshal.dumps((ok, payload)) and leaves with os._exit.  A child sends its
tally as a dict, and the tallies are added; tally addition is commutative,
so a sharded run is byte-identical to a serial one.  processes(jobs) caps
jobs at the CPUs this process may run on, and at 1 on a platform without
os.fork, which then runs serially; ``verify --name all`` sizes its
processes by the same rule.  The package starts no threads, so forking the
caller is safe.
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


def processes(wanted: int) -> int:
    """How many processes to run wanted pieces of work in: wanted, capped at
    the CPUs this process may run on (its affinity set where the platform
    reports one, else os.cpu_count()), and 1 on a platform without os.fork."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(wanted, cpus))


def _fork(work: Callable[[], object]) -> tuple[int, int]:
    """Start a child that runs work; returns its pid and the read end of the
    pipe that carries marshal.dumps((ok, payload)): what work returned, or
    the text "<ExcType>: <message>" of what it raised."""
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
            reply = (True, work())
        except BaseException as exc:
            reply = (False, f"{type(exc).__name__}: {exc}")
        data = memoryview(marshal.dumps(reply))
        while data:
            data = data[os.write(write_fd, data):]
    finally:
        os._exit(0)


def _read_reply(fd: int, part: str) -> object:
    """Read one child's reply to end of file; raise if its work failed or
    the child ended without a reply."""
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    try:
        ok, payload = marshal.loads(b"".join(chunks))
    except (EOFError, ValueError):
        raise RuntimeError(f"{part} ended without a result") from None
    if not ok:
        raise RuntimeError(f"{part} failed: {payload}")
    return payload


def run_forked(work: list[Callable[[], object]], part: str) -> list:
    """Run work[0] here and work[1:] in forked children, and return what
    each returned, in order; what a child's work returns must marshal.  A
    child that fails raises RuntimeError "<part> <i> of <len(work)> failed:
    <ExcType>: <message>" here.  Every child is reaped before this returns
    or raises; on failure the children still running are killed first."""
    children: list[tuple[int, int]] = []
    try:
        for i in range(1, len(work)):
            children.append(_fork(work[i]))
        payloads = [work[0]()]
        for i, (_, fd) in enumerate(children, 1):
            payloads.append(_read_reply(fd, f"{part} {i} of {len(work)}"))
        return payloads
    except BaseException:
        import signal

        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, fd in children:
            os.close(fd)
            os.waitpid(pid, 0)


def _sharded_tally(work: list[Callable[[], Counter]]) -> Counter:
    """The sum of the shards' tallies, shard 0 tallied here and shards 1..
    in forked children (run_forked); a child sends its tally as a dict."""
    # a Counter does not marshal; the dict of its counts does
    tally, *others = run_forked([work[0], *(lambda w=w: dict(w()) for w in work[1:])], "shard")
    for other in others:
        tally.update(other)
    return tally


def _shard_work(label: str, size: int, stat: str, fn, jobs: int) -> list[Callable[[], Counter]]:
    """Zero-argument callables that return tallies: one, the class's block
    tally of stat at size, where it has one, else for each of the jobs
    shards the Counter of the evaluator over its shard stream.  A stream is
    made first either way: that checks the request and builds nothing, so a
    bad one fails here, before any fork."""
    tally = generate.object_class(label).tallies.get(stat)
    if tally is not None:
        generate.generate_class(label, size)
        return [partial(tally, size)]
    streams = [generate.generate_class(label, size, s, jobs) for s in range(jobs)]
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
    poly = tally_poly(_sharded_tally(_shard_work(label, size, stat, fn, processes(jobs))))
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
