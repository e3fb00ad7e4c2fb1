"""Statistic distributions over the object classes, as q-polynomials.

distribution(label, size, stat) streams a class and tallies one statistic;
the result records the tally as a polynomial (coefficient of q^i counts the
objects with statistic i) plus the stream length.

With jobs > 1 the stream is split into shards, one per worker process, by
the generator's shard rule (see centroinv.generate), and the per-shard
tallies are added; tally addition is commutative, so a sharded run is
byte-identical to a serial one.  jobs is capped at os.cpu_count().
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass

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


@dataclass(frozen=True)
class DistributionTable:
    label: str
    size: int
    stat: str
    poly: QPoly
    count: int


def _shard_tally(args: tuple[str, int, str, int, int]) -> Counter:
    label, size, stat, shard, nshards = args
    fn = stat_function(label, stat)
    return Counter(map(fn, generate.generate_class(label, size, shard, nshards)))


def distribution(
    label: str, size: int, stat: str, jobs: int = 1
) -> DistributionTable:
    """Tally one statistic over one class.

    >>> distribution("cinv321-even", 4, "des").poly
    (1, 2, 1)
    """
    # reject bad requests before forking workers
    stat_function(label, stat)
    generate.generate_class(label, size)
    if jobs < 1:
        raise ValueError("jobs must be positive")
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs == 1:
        tally = _shard_tally((label, size, stat, 0, 1))
    else:
        # loaded here, so a run without workers never imports multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        argses = [(label, size, stat, k, jobs) for k in range(jobs)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            tally = sum(pool.map(_shard_tally, argses), Counter())
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
