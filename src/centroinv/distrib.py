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
runs the drivers of ``verify --name all``.  It calls every piece of work
with a send function and makes each child with os.fork.  A child's pipe
carries frames, each a length and then that many bytes of marshal data:
(None, message) for each message its work sends, which the caller hands to
a receive callback as it reads them, and last the reply (ok, payload),
what the work returned or the text of what it raised; then the child
leaves with os._exit.  A frame cut short is never decoded, and a pipe that
ends without a whole reply means the child ended without a result.  Shard
work sends nothing.  A child sends its tally as a dict, and the tallies are
added; tally addition is commutative, so a sharded run is byte-identical to
a serial one.  processes(jobs) caps jobs at the CPUs this process may run
on, and at 1 on a platform without os.fork, which then runs serially;
``verify --name all`` sizes its processes by the same rule.  The package
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


def _fork(work: Callable[[Callable[[object], None]], object]) -> tuple[int, int]:
    """Start a child that runs work(send); returns its pid and the read end
    of the pipe that carries the child's frames: (None, message) for each
    send(message), then the reply (ok, payload), what work returned or the
    text "<ExcType>: <message>" of what it raised."""
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
            reply = (True, work(lambda message: _write_frame(write_fd, (None, message))))
        except BaseException as exc:
            reply = (False, f"{type(exc).__name__}: {exc}")
        _write_frame(write_fd, reply)
    finally:
        os._exit(0)


class _Pipes:
    """The caller's ends of the children's pipes.  read passes each whole
    frame on as it comes: a message to receive(i, message), a reply to
    replies; a frame cut short stays in its buffer and is never decoded."""

    def __init__(self, fds: list[int], receive: Callable[[int, object], None]):
        self.open = {fd: i for i, fd in enumerate(fds, 1)}  # fd -> child, until end of file
        self.buffers = {fd: bytearray() for fd in fds}
        self.replies: dict[int, tuple] = {}
        self.receive = receive

    def read(self, timeout: float | None) -> None:
        """Read once from each pipe that is readable within timeout seconds
        (None waits until one is), and pass on every frame now whole."""
        from select import select

        for fd in select(list(self.open), [], [], timeout)[0]:
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                del self.open[fd]
                continue
            buffer = self.buffers[fd]
            buffer += chunk
            while len(buffer) >= _PREFIX:
                end = _PREFIX + int.from_bytes(buffer[:_PREFIX], "little")
                if len(buffer) < end:
                    break
                ok, payload = marshal.loads(buffer[_PREFIX:end])
                del buffer[:end]
                if ok is None:
                    self.receive(self.open[fd], payload)
                else:
                    self.replies[fd] = (ok, payload)

    def reply(self, fd: int, part: str) -> object:
        """Read until pipe fd ends and return its child's payload; raise if
        the child's work failed or it ended without a whole reply frame,
        which comes last."""
        while fd in self.open:
            self.read(None)
        if fd not in self.replies:
            raise RuntimeError(f"{part} ended without a result")
        ok, payload = self.replies[fd]
        if not ok:
            raise RuntimeError(f"{part} failed: {payload}")
        return payload


def run_forked(
    work: list[Callable[[Callable[[object], None]], object]],
    part: str,
    receive: Callable[[int, object], None] = lambda i, message: None,
) -> list:
    """Run work[0](send) here and work[i](send) for i >= 1 in forked
    children, and return what each returned, in order; what a child's work
    returns or sends must marshal.  send(message) hands message to
    receive(i, message) here: at once from the caller's own work, and from
    child i's as one frame over its pipe, which the caller reads without
    blocking whenever its own work sends, and with select to end of file
    once its own work has returned.  So each process's messages reach
    receive in the order it sent them, and work that has nothing to send
    ignores send.  The children are checked in order, each once its pipe
    ends: one that fails raises RuntimeError "<part> <i> of <len(work)>
    failed: <ExcType>: <message>" here, and one whose pipe ends without a
    whole reply frame "<part> <i> of <len(work)> ended without a result".
    Every child is reaped before this returns or raises; on failure the
    children still running are killed first."""
    children: list[tuple[int, int]] = []
    try:
        for i in range(1, len(work)):
            children.append(_fork(work[i]))
        pipes = _Pipes([fd for _, fd in children], receive)

        def send(message: object) -> None:
            receive(0, message)
            if pipes.open:
                pipes.read(0)

        payloads = [work[0](send)]
        for i, (_, fd) in enumerate(children, 1):
            payloads.append(pipes.reply(fd, f"{part} {i} of {len(work)}"))
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
    # a Counter does not marshal; the dict of its counts does.  Shard work
    # sends nothing
    tally, *others = run_forked(
        [lambda send: work[0](), *(lambda send, w=w: dict(w()) for w in work[1:])], "shard"
    )
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
