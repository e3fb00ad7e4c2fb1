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
work counts the evaluator over its shard stream and sends the dict of its
counts every CHUNK objects.  Every stream is made first, which checks the
request and builds nothing, before any child is forked.  The caller runs
the work of shard 0 itself and the work of shards 1 to jobs - 1 (none for
one job) in children, through run_forked, the package's one fork helper,
which also runs the drivers of ``verify --name all``.  It calls every
piece of work with a send function, the one way work hands data to the
caller, and makes each child with os.fork.  A child's pipe carries
frames, each a length and then that many bytes of marshal data: (None,
message) for each message its work sends, which the caller hands to a
receive callback as it reads them, and last the end frame, (True, None)
or (False, the text of what the work raised); then the child leaves with
os._exit.  A frame cut short is never decoded, and a pipe that ends
without a whole end frame means the child ended without a result.  The
caller reads the pipes whenever its own work sends, so a child that
failed or ended fails the run at the caller's next send, within CHUNK
objects of its own for a shard.  Every shard, shard 0 too, sends its
tally as dicts, and the caller adds them up as they come; tally addition
is commutative, so a sharded run is byte-identical to a serial one.
While it has children, a SIGTERM or SIGHUP to the caller kills and reaps
them, then ends it with exit status 128 + the signal number; both are
blocked while the children are forked, so one that comes meanwhile waits
until every child can be killed, and in a child it takes the default
action.  processes(jobs) caps jobs at the CPUs this process may run on,
and at 1 on a platform without os.fork, which then runs serially;
``verify --name all`` sizes its processes by the same rule.  The package
starts no threads, so forking the caller is safe.
"""

from __future__ import annotations

import marshal
import os
import sys
from collections import Counter
from functools import partial
from itertools import islice
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


#: bytes of the length that comes before each frame on a child's pipe
_PREFIX = 8


def _write_frame(fd: int, value: object) -> None:
    """Write marshal.dumps(value) to fd as one frame: its length, then it."""
    data = marshal.dumps(value)
    frame = memoryview(len(data).to_bytes(_PREFIX, "little") + data)
    while frame:
        frame = frame[os.write(fd, frame):]


def _fork(work: Callable[[Callable[[object], None]], object], mask: set) -> tuple[int, int]:
    """Start a child that runs work(send); returns its pid and the read end
    of the pipe that carries the child's frames: (None, message) for each
    send(message), then the end frame, (True, None) once work has returned
    or (False, "<ExcType>: <message>") if it raised.  What work returns is
    dropped.  The child sets SIGTERM and SIGHUP, which run_forked blocks
    around this, to the default action, and only then restores the signal
    mask to mask, so that one sent since the fork, held pending, takes it."""
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
        import signal

        for signum in (signal.SIGTERM, signal.SIGHUP):
            signal.signal(signum, signal.SIG_DFL)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        os.close(read_fd)
        try:
            work(lambda message: _write_frame(write_fd, (None, message)))
            end = (True, None)
        except BaseException as exc:
            end = (False, f"{type(exc).__name__}: {exc}")
        _write_frame(write_fd, end)
    finally:
        os._exit(0)


def run_forked(
    work: list[Callable[[Callable[[object], None]], object]],
    part: str,
    receive: Callable[[int, object], None],
) -> None:
    """Run work[0](send) here and work[i](send) for i >= 1 in forked
    children; what work returns is dropped, and what it sends must marshal.
    send(message) hands message to receive(i, message) here: at once from
    the caller's own work, and from child i's as one frame over its pipe,
    which the caller reads without blocking whenever its own work sends,
    and with select once its own work has returned, until every child has
    ended.  So each process's messages reach receive in the order it sent
    them.  A child is settled where its pipe is read, so at the caller's
    next send after it ends: its end frame (True, None) settles it, one
    that fails raises RuntimeError "<part> <i> of <len(work)> failed:
    <ExcType>: <message>" here, and one whose pipe ends without a whole end
    frame "<part> <i> of <len(work)> ended without a result"; of several
    that fail, the first read is the one raised.  Every child is reaped
    before this returns or raises; on failure the children still running
    are killed first.  While there are children, SIGTERM and SIGHUP raise
    SystemExit(128 + the signal number) here, so that they take that path
    too; both are blocked from the first fork until every child is
    recorded, and their handlers are restored before this returns.  Python
    sets handlers in the main thread only, so forking must start there."""
    children: list[tuple[int, int]] = []
    handlers = {}
    try:
        if len(work) > 1:
            import signal

            for signum in (signal.SIGTERM, signal.SIGHUP):
                handlers[signum] = signal.signal(signum, lambda n, frame: sys.exit(128 + n))
            # a signal from the first fork until every child is recorded is
            # held pending, so it raises only once all of them can be killed
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, handlers)
            try:
                for i in range(1, len(work)):
                    children.append(_fork(work[i], mask))
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        # each child not yet settled: its index, and the bytes of its pipe
        # not yet decoded
        pending = {fd: (i, bytearray()) for i, (_, fd) in enumerate(children, 1)}

        def read(timeout: float | None) -> None:
            # read once from each pending pipe readable within timeout seconds
            # (None waits until one is) and decode every frame now whole; a
            # frame cut short stays in its buffer.  A child is settled here:
            # its end frame takes it out of pending or raises, and a pipe that
            # ends while it is still pending raises
            from select import select

            for fd in select(list(pending), [], [], timeout)[0]:
                i, buffer = pending[fd]
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    raise RuntimeError(f"{part} {i} of {len(work)} ended without a result")
                buffer += chunk
                while len(buffer) >= _PREFIX:
                    end = _PREFIX + int.from_bytes(buffer[:_PREFIX], "little")
                    if len(buffer) < end:
                        break
                    ok, payload = marshal.loads(buffer[_PREFIX:end])
                    del buffer[:end]
                    if ok is None:
                        receive(i, payload)
                    elif ok:
                        del pending[fd]
                    else:
                        raise RuntimeError(f"{part} {i} of {len(work)} failed: {payload}")

        def send(message: object) -> None:
            receive(0, message)
            if pending:
                read(0)

        work[0](send)
        while pending:
            read(None)
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for signum, handler in handlers.items():
            signal.signal(signum, handler)
        for pid, fd in children:
            os.close(fd)
            os.waitpid(pid, 0)


#: objects a streamed shard counts between two sends of its counts
CHUNK = 1 << 12


def _shard_work(label: str, size: int, stat: str, fn, jobs: int) -> list[Callable]:
    """run_forked work that sends tallies as dicts: one, the class's block
    tally of stat at size, sent once, where it has one, else for each of
    the jobs shards the counts of the evaluator over its shard stream, sent
    every CHUNK objects.  A stream is made first either way: that checks
    the request and builds nothing, so a bad one fails here, before any
    fork."""
    tally = generate.object_class(label).tallies.get(stat)
    if tally is not None:
        generate.generate_class(label, size)
        return [lambda send: send(dict(tally(size)))]

    def counted(stream, send) -> None:
        values = map(fn, stream)
        while counts := Counter(islice(values, CHUNK)):
            send(dict(counts))

    return [partial(counted, generate.generate_class(label, size, s, jobs)) for s in range(jobs)]


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
    tally = Counter()
    run_forked(
        _shard_work(label, size, stat, fn, processes(jobs)), "shard", lambda i, c: tally.update(c)
    )
    poly = tally_poly(tally)
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
