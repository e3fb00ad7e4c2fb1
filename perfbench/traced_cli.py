"""Run one centroinv command with spans around its layer entry points.

Usage: python3 perfbench/traced_cli.py SPANS_JSON -- ARGUMENTS...

Imports centroinv from PYTHONPATH, as ``python -m centroinv.cli`` does,
routes ``kernels.census``, ``distrib.distribution`` and ``verify.verify``
through spans, runs the command and writes its spans as JSON to SPANS_JSON.
Standard output is the command's own, byte for byte.
"""

import json
import sys
from pathlib import Path

from layers import Tracer, traced_entry_points


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    spans_file, args = Path(argv[0]), argv[2:]
    from centroinv import cli

    tracer = Tracer()
    with traced_entry_points(tracer), tracer.span("cli.main", args=args):
        code = cli.main(args)
    spans_file.write_text(json.dumps(tracer.spans))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
