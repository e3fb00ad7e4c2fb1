"""Command line front end.

Subcommands: enumerate (stream a class), stats (statistic distribution as a
q-polynomial), bijection (apply one of the named maps to one object), verify
(run a theorem driver).  Exit code 0 means success, 1 a verification failure,
2 a usage error, 141 (128 + SIGPIPE) a reader that closed stdout early, as
in ``enumerate ... | head``, 74 (EX_IOERR) any other failed write to
stdout, such as a full disk, with the one line "error: cannot write output:
<reason>" on stderr, and 130 (128 + SIGINT) an interrupt, such as Ctrl-C,
with no traceback.  Every write to stdout goes through _write, which tells
such a failure from any other OSError.

``enumerate`` reads the class's text stream (``ObjectClass.texts``), writes
its first text and flushes it at once, then reads the rest in lists and
writes each list with one join (TSV) or one ``json.dumps`` (JSON), in writes
of at least ``WRITE_CHUNK`` characters.  So a reader on a pipe is woken once
per pipe-full and memory is bounded by one write.  It has no cost budget: it
streams, and the reader can stop it.

Each command loads only the modules it runs.  The parser adds the arguments
of the named subcommand alone, since adding an argument formats its choices
and so loads the module they come from.  Every command loads perms,
matchings, paths and signed; enumerate adds generate, stats generate,
distrib and qpoly, and verify every module, kernels (the census) among
them.  bijection loads rsk, and with it qpoly, only for the three maps that
use rsk.  json is loaded only for JSON output.  The commands call
distribution and verify through the names this module binds, which load
their modules on first call and which a caller may rebind.

``verify --name all`` runs its drivers in up to DRIVER_PROCESSES
processes, no more than the CPUs it may run on (distrib.processes): the
caller and children forked by distrib.run_forked.  Process i starts with
the i-th unit of work, then each takes the next unit left when it is
free.  Every driver is a unit of its own, but with more than one process
the four that read the even census (verify.EVEN_CENSUS_READERS) are one,
T-cara's, so the child starts with T-cor1.  The output is a
serial run's, in the sorted order of the names, and it streams by rows:
the caller writes and flushes each row as soon as it and every row before
it are known, its own as its driver makes them and a child's as it reads
them from the child's pipe.  A report's opening (its "# name" header, or
its "[" or "," and JSON head) goes out with its first row, and its JSON
closing, with duration_s, when its driver ends.  When a driver raises, the
rows already written stay on stdout, and one that raises before its first
row leaves nothing of its report.  One --name, one CPU or a platform
without os.fork runs in the caller alone, through the same code.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial
from itertools import islice
from typing import Callable, Iterator

from centroinv import matchings, paths, perms, signed


def _int(raw: str) -> int:
    """An integer option, read as parse_ints reads every integer of the CLI."""
    return perms.parse_ints([raw])[0]


def _parse_size(raw: str | None) -> tuple[int, ...]:
    if raw is None:
        return ()
    size = perms.parse_ints(raw.split(","))
    for v in size:
        if v < 0:
            raise ValueError(f"size must be non-negative (got {v})")
    return size


#: most points or path letters one object may hold: a bijection's output (a
#: subset of [n] building 2n points) or an object of enumerate and stats (a
#: class of size m holding m).  A larger --size is rejected before anything
#: is built; this bounds one object, not the cost of a run
MAX_BUILT = 2**20


def _check_built(raw: str, built: int) -> None:
    if built > MAX_BUILT:
        raise ValueError(
            f"--size {raw} would build {built} points or path letters;"
            f" the limit is {MAX_BUILT}"
        )


def _rsk():
    # rsk, and the qpoly ring it builds on, for the three maps that use it
    from centroinv import rsk

    return rsk


# name -> (number of --size parts, points or path letters built per unit of
# --size, apply(text, *size) -> output text)
BIJECTIONS = {
    "excedance-subset": (
        0, 1,
        lambda text: matchings.format_subset(
            matchings.excedance_subset(perms.parse_perm(text))
        ),
    ),
    "subset-involution": (
        1, 2,
        lambda text, n: perms.format_perm(
            matchings.subset_involution(matchings.parse_subset(text, n))
        ),
    ),
    "subset-matching": (
        1, 2,
        lambda text, n: matchings.format_matching(
            matchings.subset_involution(matchings.parse_subset(text, n))
        ),
    ),
    "involution-matching": (
        0, 1,
        lambda text: matchings.format_matching(
            matchings.involution_matching(perms.parse_perm(text))
        ),
    ),
    "matching-involution": (
        1, 1,
        lambda text, points: perms.format_perm(
            matchings.matching_permutation(matchings.parse_matching(text, points))
        ),
    ),
    "subset-path": (
        1, 1,
        lambda text, n: paths.subset_path(matchings.parse_subset(text, n)),
    ),
    "g": (0, 1, paths.g_map),
    "g-inverse": (0, 1, paths.g_inverse),
    "theta": (
        0, 1,
        lambda text: perms.format_perm(signed.theta(perms.parse_perm(text))),
    ),
    "theta-inverse": (
        0, 1,
        lambda text: perms.format_perm(signed.theta_inverse(signed.parse_signed(text))),
    ),
    "rsk-path": (
        0, 1,
        lambda text: _rsk().involution_path(perms.parse_perm(text)),
    ),
    "theta-rect": (
        2, 1,
        lambda text, a, b: _rsk().theta_rect(perms.parse_perm(text), a, b),
    ),
    "theta-rect-inverse": (
        2, 1,
        lambda text, a, b: perms.format_perm(_rsk().theta_rect_inverse(text, a, b)),
    ),
}


#: characters per write after the first object: the default Linux pipe
#: capacity, so the reader is woken once per pipe-full, not once per 8 KiB
WRITE_CHUNK = 1 << 16

#: exit code of a failed write to stdout other than a closed pipe
#: (EX_IOERR of sysexits.h)
EXIT_WRITE_FAILED = 74

#: exit code of an interrupt (128 + SIGINT); run_forked has killed and
#: reaped any child before the interrupt reaches main
EXIT_INTERRUPTED = 130


class WriteError(Exception):
    """A write to stdout failed; the message is the reason."""


def _write(text: str = "", flush: bool = False) -> None:
    """Write text, if any, to stdout, and flush stdout if asked.  A failed
    write raises WriteError, so that main can tell it from any other
    OSError; a reader that went away still raises BrokenPipeError."""
    try:
        if text:
            sys.stdout.write(text)
        if flush:
            sys.stdout.flush()
    except BrokenPipeError:
        raise
    except OSError as exc:
        raise WriteError(exc.strerror or str(exc)) from exc


def _write_chunked(
    head: str, texts: Iterator[str], dump: Callable[[list[str]], str], sep: str, tail: str
) -> None:
    """Write head, every text and then tail to stdout, where dump(chunk) is
    the output of a list of texts and sep comes before every chunk but the
    first.  The first text goes out with head and is flushed at once.  The
    rest is read in chunks and joined into writes of at least WRITE_CHUNK
    characters, the last of which ends with tail.  A chunk takes the texts
    that should fill half the room left in the write, at the mean output per
    text so far, and never more texts than were already read.  So a write
    ends at most one text past WRITE_CHUNK unless texts grow to twice that
    mean within a chunk, a short first text cannot make one chunk take the
    whole stream, and at most one write is held in memory."""
    first = list(islice(texts, 1))
    if not first:
        _write(head + tail)
        return
    text = dump(first)
    _write(head + text, flush=True)
    seen, written = 1, len(text)
    batch: list[str] = []
    size = 0
    while True:
        want = -(-(WRITE_CHUNK - size) * seen // (2 * written))
        chunk = list(islice(texts, min(want, seen)))
        if not chunk:
            break
        seen += len(chunk)
        text = sep + dump(chunk)
        del chunk  # its texts go before the next chunk is read
        batch.append(text)
        size += len(text)
        written += len(text)
        if size >= WRITE_CHUNK:
            _write("".join(batch))
            batch = []
            size = 0
    batch.append(tail)
    _write("".join(batch))


def _tsv_lines(chunk: list[str]) -> str:
    return "\n".join(chunk) + "\n"


def distribution(label: str, size: int, stat: str, jobs: int = 1):
    """distrib.distribution, loaded on first call; stats calls it by this
    name."""
    from centroinv.distrib import distribution

    return distribution(label, size, stat, jobs)


def verify(theorem_id: str, max_size: int | None = None, row=None):
    """verify.verify, loaded on first call; the verify command calls it by
    this name."""
    from centroinv.verify import verify

    return verify(theorem_id, max_size, row)


def _cmd_enumerate(args) -> int:
    from centroinv.generate import class_texts

    size = _int(args.size)
    _check_built(args.size, size)
    texts = class_texts(args.label, size)
    if args.format == "json":
        from json import dumps

        # the same bytes as json.dumps of the whole document: each chunk is
        # the items of a JSON list, as dumps separates them
        head = dumps({"class": args.label, "size": size, "objects": []})
        _write_chunked(head[:-2], texts, lambda chunk: dumps(chunk)[1:-1], ", ", "]}\n")
    else:
        _write_chunked("", texts, _tsv_lines, "", "")
    return 0


def _cmd_stats(args) -> int:
    from centroinv.distrib import table_json, table_tsv

    size = _int(args.size)
    _check_built(args.size, size)
    table = distribution(args.label, size, args.stat, jobs=_int(args.jobs))
    _write((table_json(table) if args.format == "json" else table_tsv(table)) + "\n")
    return 0


def _cmd_bijection(args) -> int:
    parts, factor, fn = BIJECTIONS[args.name]
    size = _parse_size(args.size)
    if len(size) != parts:
        if not parts:
            raise ValueError(f"bijection {args.name!r} takes no --size")
        shape = "N" if parts == 1 else "A,B"
        raise ValueError(f"bijection {args.name!r} needs --size {shape}")
    _check_built(args.size, sum(size) * factor)
    out = fn(args.text, *size)
    if args.format == "json":
        from json import dumps

        out = dumps({"name": args.name, "input": args.text, "output": out})
    _write(out + "\n")
    return 0


def _cmd_verify(args) -> int:
    from centroinv.verify import THEOREMS, SizeResult, report_text, sizes

    names = sorted(THEOREMS) if args.name == "all" else [args.name]
    max_n = None if args.max_n is None else _int(args.max_n)
    for name in names:
        sizes(name, max_n)  # a bad request fails here, before any fork
    many = len(names) > 1
    head, row, sep, tail = report_text(args.format)
    if args.format == "json":
        # one report alone, or the items of a list
        def opening(i: int) -> str:
            return ("," if i else "[" if many else "") + head(names[i])

        end = "]\n" if many else "\n"
    else:
        def opening(i: int) -> str:
            return (f"# {names[i]}\n" if many else "") + head(names[i])

        end = ""
    begun = -1

    def show(i: int, part) -> None:
        # part is report i's next row, or the report once it is done; the
        # report's opening goes out with whichever comes first
        nonlocal begun
        is_row = isinstance(part, SizeResult)
        text = row(part) if is_row else tail(part.duration_s)
        if i != begun:
            begun, text = i, opening(i) + text
        elif is_row:
            text = sep + text
        _write(text, flush=True)

    reports = _run_drivers(names, max_n, show)
    _write(end)
    return 0 if all(r.ok for r in reports) else 1


#: most processes ``verify --name all`` runs its drivers in.  Each process
#: fills the caches of the drivers it takes for itself and adds its own
#: memory, and two running processes each take more CPU time per driver
#: than one alone, so more processes cost more CPU time and memory; two is
#: the figure measured
DRIVER_PROCESSES = 2


def _run_drivers(names: list[str], max_n: int | None, show: Callable[[int, object], None]) -> list:
    """verify(name, max_n) for each name, the reports in the order of names.
    In the caller, show(i, row) is called for each row of report i and then
    show(i, report) at its end, in the order of names and of the rows, each
    as soon as it and everything before it are known.  The drivers run in
    distrib.processes(min(len(names), DRIVER_PROCESSES)) processes, the
    caller and children forked by distrib.run_forked.  Each driver is a unit
    of work, but with more than one process verify.EVEN_CENSUS_READERS
    are one, the first.  Process i runs unit i first, so every process
    runs a driver however the processes are scheduled; the other units
    wait in a pipe, and each process takes the next, one byte at a time,
    whenever it is free.  Every process sends (index, row, None) for each
    row it makes and (index, None, duration_s) at each driver's end, as
    plain tuples, which marshal; run_forked hands them to the caller, which
    shows what they complete, so that what show raises kills and reaps the
    children.  What a driver raises in the caller reaches the caller's
    caller as it is; in a child, the driver's name is added, since the child
    sends back only the text of what it raised."""
    from centroinv.distrib import processes, run_forked
    from centroinv.verify import EVEN_CENSUS_READERS, SizeResult, VerificationReport

    procs = processes(min(len(names), DRIVER_PROCESSES))
    units = [[i] for i in range(len(names))]
    if procs > 1:
        readers = [i for i, name in enumerate(names) if name in EVEN_CENSUS_READERS]
        units = [readers] + [[i] for i in range(len(names)) if i not in readers]
    queue, write_end = os.pipe()
    os.write(write_end, bytes(range(procs, len(units))))
    os.close(write_end)
    rows: list[list] = [[] for _ in names]
    reports = {}
    shown = [0, 0]  # the report, and the row of it, to show next

    def receive(_, message) -> None:
        index, row, duration = message
        if row is None:
            reports[index] = VerificationReport(names[index], tuple(rows[index]), duration)
        else:
            rows[index].append(SizeResult(*row))
        while shown[0] < len(names):
            i, k = shown
            if k < len(rows[i]):
                show(i, rows[i][k])
                shown[1] += 1
            elif i in reports:
                show(i, reports[i])
                shown[:] = i + 1, 0
            else:
                break

    def run(unit: int, in_caller: bool, send) -> None:
        # units[unit], then each unit taken from the queue until it is empty
        while True:
            for index in units[unit]:
                name = names[index]
                try:
                    r = verify(name, max_n, row=lambda s: send((index, tuple(s), None)))
                except Exception as exc:
                    if in_caller:
                        raise
                    raise RuntimeError(f"driver {name} raised {type(exc).__name__}: {exc}") from exc
                send((index, None, r.duration_s))
            if not (taken := os.read(queue, 1)):
                return
            unit = taken[0]

    try:
        run_forked([partial(run, i, i == 0) for i in range(procs)], "process", receive)
    finally:
        os.close(queue)
    return [reports[i] for i in range(len(names))]


def _enumerate_arguments(en: argparse.ArgumentParser) -> None:
    from centroinv.generate import CLASS_LABELS

    en.add_argument("--class", dest="label", required=True, choices=CLASS_LABELS)
    en.add_argument("--size", required=True)
    en.add_argument("--format", choices=("tsv", "json"), default="tsv")
    en.set_defaults(func=_cmd_enumerate)


def _stats_arguments(st: argparse.ArgumentParser) -> None:
    from centroinv.distrib import STATS
    from centroinv.generate import CLASS_LABELS

    st.add_argument("--class", dest="label", required=True, choices=CLASS_LABELS)
    st.add_argument("--size", required=True)
    st.add_argument("--stat", required=True, choices=STATS)
    st.add_argument("--jobs", default="1")
    st.add_argument("--format", choices=("tsv", "json"), default="tsv")
    st.set_defaults(func=_cmd_stats)


def _bijection_arguments(bj: argparse.ArgumentParser) -> None:
    bj.add_argument("--name", required=True, choices=sorted(BIJECTIONS))
    bj.add_argument("--apply", dest="text", required=True, metavar="OBJECT")
    bj.add_argument("--size", default=None, help="context size where needed: N or A,B")
    bj.add_argument("--format", choices=("tsv", "json"), default="tsv")
    bj.set_defaults(func=_cmd_bijection)


def _verify_arguments(vf: argparse.ArgumentParser) -> None:
    from centroinv.verify import THEOREMS

    vf.add_argument("--name", required=True, choices=sorted(THEOREMS) + ["all"])
    vf.add_argument("--max-n", dest="max_n", default=None)
    vf.add_argument("--format", choices=("tsv", "json"), default="tsv")
    vf.set_defaults(func=_cmd_verify)


#: subcommand -> (its help, the function that adds its arguments)
COMMANDS = {
    "enumerate": ("stream every object of a class", _enumerate_arguments),
    "stats": ("statistic distribution over a class", _stats_arguments),
    "bijection": ("apply a named map to one object", _bijection_arguments),
    "verify": ("run a theorem driver", _verify_arguments),
}


def _build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser of argv, with every subcommand and its help but only the
    arguments of the subcommand argv names: its first argument that is not
    an option, which is where argparse reads the subcommand."""
    parser = argparse.ArgumentParser(
        prog="centroinv",
        description=(
            "Descent statistics on 321-avoiding centrosymmetric involutions: "
            "enumeration, bijections, q-polynomials, theorem verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    named = next((arg for arg in argv if not arg.startswith("-")), None)
    for name, (help_text, add_arguments) in COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        if name == named:
            add_arguments(command)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser(argv).parse_args(argv)
    try:
        code = args.func(args)
        _write(flush=True)
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        _drop_stdout()
        return 141
    except WriteError as exc:
        _drop_stdout()
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_WRITE_FAILED
    except KeyboardInterrupt:
        return EXIT_INTERRUPTED


def _drop_stdout() -> None:
    """Send what stdout still buffers nowhere, so that the interpreter's
    final flush does not fail a second time."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


if __name__ == "__main__":
    sys.exit(main())
