"""Per-layer metrics from one traced pass, run in the benchmark's process.

Spans are opened from this file around the public entry points of
centroinv's modules (``kernels.census``, ``generate.*``,
``distrib.distribution``, ``verify.verify``), never around per-object
functions.  Per-object costs come from probes that time a fixed number of
inputs drawn from the run's seed.  Nothing under ``src/`` is changed: the
entry points are swapped for traced wrappers only while a pass runs.
"""

from __future__ import annotations

import functools
import random
import statistics
import sys
import time
from contextlib import contextmanager
from math import comb
from typing import Callable

import suite
from measure import Run

#: the theorem drivers, as ``verify --name all`` runs them (sorted)
THEOREM_IDS = (
    "T-cara", "T-cor1", "T-cor2", "T-desfull", "T-despoly", "T-fp",
    "T-hdpeak", "T-majpoly", "T-odd", "T-recr", "T-sixpat",
)
CENSUS_SIZES = (12, 13, 14, 15)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    shard = [label for label, _, _ in suite.JOBS2_QUERIES]
    emitted = [label for label, _, _ in suite.ENUMERATE_QUERIES]
    return [
        *((f"kernels.census_s.m{m}", "s", "lower") for m in CENSUS_SIZES),
        ("kernels.census_kept.m15", "count", "higher"),
        ("kernels.census_yield.m15", "ratio", "higher"),
        *((f"verify.driver_s.{t}", "s", "lower") for t in THEOREM_IDS),
        ("generate.involutions_s.m12", "s", "lower"),
        ("generate.inv321_s.m12", "s", "lower"),
        ("generate.inv321_yield.m12", "ratio", "higher"),
        ("perms.contains_321_us", "us", "lower"),
        ("generate.signed_perms_s.n6", "s", "lower"),
        ("generate.sixavoiders_s.n6", "s", "lower"),
        ("generate.sixavoiders_yield.n6", "ratio", "higher"),
        ("signed.is_top_element_us", "us", "lower"),
        ("generate.subsets_s.n16", "s", "lower"),
        ("paths.area_us", "us", "lower"),
        ("perms.half_maj_us", "us", "lower"),
        ("matchings.subset_involution_us", "us", "lower"),
        ("matchings.roundtrip_us", "us", "lower"),
        ("matchings.odd_join_us", "us", "lower"),
        ("paths.g_map_roundtrip_us", "us", "lower"),
        ("rsk.theta_rect_roundtrip_us", "us", "lower"),
        ("signed.theta_roundtrip_us", "us", "lower"),
        ("qpoly.q_binomial_s.40_20_cold", "s", "lower"),
        ("qpoly.half_maj_poly_by_area_s.n16", "s", "lower"),
        *((f"generate.shard_half_ratio.{c}", "ratio", "lower") for c in shard),
        *((f"distrib.jobs2_speedup.{c}", "x", "higher") for c in shard),
        ("distrib.pool_overhead_s", "s", "lower"),
        *((f"generate.format_object_us.{c}", "us", "lower") for c in emitted),
        *((f"cli.first_line_share.{c}", "ratio", "lower") for c in emitted),
        ("cli.import_s", "s", "lower"),
        ("trace.span_cost_us", "us", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]


# ---------- spans ----------


class Tracer:
    """Spans kept in memory: name, start, end, parent id, and attributes."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn: Callable, note: Callable[[object], dict]):
        """fn inside a span; note(result) adds counts to the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, args=[*args, *(f"{k}={v}" for k, v in kwargs.items())]) as rec:
                result = fn(*args, **kwargs)
                rec.update(note(result))
                return result

        return traced


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> its duration minus the durations of its direct children
    (spans of one thread do not overlap)."""
    own = {s["id"]: duration(s) for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= duration(s)
    return own


def span_table(spans: list[dict]) -> list[tuple[str, int, float, float]]:
    """(name, count, total s, self s) per span name, by total descending."""
    own = self_times(spans)
    rows: dict[str, list] = {}
    for s in spans:
        row = rows.setdefault(s["name"], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += duration(s)
        row[2] += own[s["id"]]
    return sorted(((n, *r) for n, r in rows.items()), key=lambda r: -r[2])


@contextmanager
def traced_entry_points(tracer: Tracer):
    """Route every binding of the layer entry points through spans."""
    from centroinv import cli, distrib, kernels, verify

    census = tracer.wrap("kernels.census", kernels.census, lambda r: {"kept": r["count"]})
    dist = tracer.wrap("distrib.distribution", distrib.distribution, lambda t: {"count": t.count})
    driver = tracer.wrap(
        "verify.verify",
        verify.verify,
        lambda r: {"passed": sum(s.status == "pass" for s in r.results), "ok": r.ok},
    )
    bindings = [
        (kernels, "census", census),
        (distrib, "distribution", dist),
        (verify, "distribution", dist),
        (cli, "distribution", dist),
        (verify, "verify", driver),
        (cli, "verify", driver),
    ]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in bindings]
    for mod, attr, fn in bindings:
        setattr(mod, attr, fn)
    try:
        yield
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


# ---------- the layer pass ----------


def _count(items) -> int:
    n = 0
    for _ in items:
        n += 1
    return n


class LayerPass:
    """Times each layer once per run; every figure is also a span."""

    def __init__(self, tracer: Tracer, seed: int, check: Callable[[str, bool], None],
                 execute: Callable[[suite.Command], Run], spawn: Callable[[list[str]], Run]):
        self.tracer = tracer
        self.rng = random.Random(seed)
        self.check = check  # check(what, ok) records one checked operation
        self.execute = execute  # runs and checks one CLI command
        self.spawn = spawn  # runs one python -c snippet with the program importable
        self.out: dict[str, float] = {}

    def timed(self, name: str, fn: Callable[[], object], repeats: int = 1, **attrs):
        """Median duration of fn over repeats, one span each; returns
        (median seconds, last result)."""
        times = []
        for _ in range(repeats):
            with self.tracer.span(name, **attrs) as sp:
                result = fn()
            times.append(duration(sp))
        return statistics.median(times), result

    def per_object_us(self, metric: str, fn: Callable, inputs: list, repeats: int = 5) -> list:
        """Median microseconds per input of list(map(fn, inputs))."""
        seconds, outputs = self.timed(
            "probe." + metric, lambda: list(map(fn, inputs)), repeats, objects=len(inputs)
        )
        self.out[metric] = seconds / len(inputs) * 1e6
        return outputs

    def run(self) -> dict[str, float]:
        from centroinv import kernels, qpoly

        census_cache, q_binomial = kernels.census, qpoly.q_binomial
        with traced_entry_points(self.tracer):
            self.verify_sweep(census_cache, q_binomial)
            self.generators()
            self.bijections()
            self.polynomials(q_binomial)
            self.sharding()
        self.cli()
        self.span_cost()
        return self.out

    def verify_sweep(self, census_cache, q_binomial) -> None:
        """Each driver from cold caches, so its time stands alone; the census
        spans inside give the kernel times."""
        from centroinv import verify

        self.check("theorem ids match verify.THEOREMS", tuple(sorted(verify.THEOREMS)) == THEOREM_IDS)
        with self.tracer.span("layer.verify_sweep") as sweep:
            for name in THEOREM_IDS:
                census_cache.cache_clear()
                q_binomial.cache_clear()
                verify.verify(name)
        inside = self.tracer.spans[sweep["id"] + 1 :]
        passed = 0
        for s in inside:
            if s["name"] == "verify.verify":
                self.out[f"verify.driver_s.{s['args'][0]}"] = duration(s)
                self.check(f"verify {s['args'][0]} passes", s["ok"])
                passed += s["passed"]
        self.check("verify sweep passes 125 size rows", passed == suite.VERIFY_ALL_ROWS)
        for m in CENSUS_SIZES:
            # the drivers ask only for the filtered census: centrosymmetric, 321-avoiding
            spans = [s for s in inside if s["name"] == "kernels.census" and s["args"][0] == m]
            n = m // 2
            want = 2**n if m % 2 == 0 else comb(n, n // 2)
            if not spans:
                raise RuntimeError(f"the verify sweep made no census({m}) call")
            self.check(f"census({m}) keeps {want}", all(s["kept"] == want for s in spans))
            self.out[f"kernels.census_s.m{m}"] = statistics.median(duration(s) for s in spans)
            if m == 15:
                self.out["kernels.census_kept.m15"] = spans[0]["kept"]
                # denominator: every involution of [15], by the recurrence
                self.out["kernels.census_yield.m15"] = spans[0]["kept"] / suite.involution_count(15)

    def generators(self) -> None:
        from centroinv import generate

        walked = suite.involution_count(12)
        seconds, n = self.timed("generate.involutions", lambda: _count(generate.involutions(12)), 3, args=[12])
        self.out["generate.involutions_s.m12"] = seconds
        self.check("involutions(12) count", n == walked)
        seconds, kept = self.timed("generate.inv321", lambda: _count(generate.inv321(12)), 3, args=[12])
        self.out["generate.inv321_s.m12"] = seconds
        self.out["generate.inv321_yield.m12"] = kept / walked
        self.check("inv321(12) count", kept == suite.class_count("inv321", 12))

        seconds, n = self.timed("generate.signed_perms", lambda: _count(generate.signed_perms(6)), 3, args=[6])
        self.out["generate.signed_perms_s.n6"] = seconds
        self.check("signed_perms(6) count", n == suite.class_count("signed-all", 6))
        seconds, kept = self.timed(
            "generate.generate_class",
            lambda: _count(generate.generate_class("signed-sixavoiders", 6)),
            args=["signed-sixavoiders", 6],
        )
        self.out["generate.sixavoiders_s.n6"] = seconds
        self.out["generate.sixavoiders_yield.n6"] = kept / n
        self.check("sixavoiders(6) count", kept == suite.class_count("signed-sixavoiders", 6))

        seconds, n = self.timed("generate.subsets", lambda: _count(generate.subsets(16)), 3, args=[16])
        self.out["generate.subsets_s.n16"] = seconds
        self.check("subsets(16) count", n == 2**16)

    def bijections(self) -> None:
        from centroinv import generate, matchings, paths, perms, rsk, signed

        rng = self.rng

        def subset(n):
            return matchings.subset(n, (i for i in range(1, n + 1) if rng.getrandbits(1)))

        def path(n):
            return "".join("N" if rng.getrandbits(1) else "E" for _ in range(n))

        def window(n):
            return tuple(v if rng.getrandbits(1) else -v for v in rng.sample(range(1, n + 1), n))

        self.per_object_us("perms.contains_321_us", perms.contains_321,
                           rng.sample(list(generate.involutions(12)), 50000))
        self.per_object_us("signed.is_top_element_us", signed.is_top_element,
                           rng.sample(list(generate.signed_perms(6)), 1000))
        self.per_object_us("paths.area_us", paths.area, [path(18) for _ in range(20000)])
        even28 = [matchings.subset_involution(subset(14)) for _ in range(20000)]
        self.per_object_us("perms.half_maj_us", perms.half_maj, even28)
        self.per_object_us("matchings.subset_involution_us", matchings.subset_involution,
                           [subset(16) for _ in range(5000)])

        subsets20 = [subset(20) for _ in range(5000)]
        back = self.per_object_us("matchings.roundtrip_us",
                                  lambda e: matchings.excedance_subset(matchings.subset_involution(e)),
                                  subsets20)
        self.check("excedance_subset inverts subset_involution", back == subsets20)

        inv321_12 = list(generate.inv321(12))
        self.per_object_us("matchings.odd_join_us", matchings.odd_join, rng.choices(inv321_12, k=20000))

        paths12 = [path(12) for _ in range(10000)]
        back = self.per_object_us("paths.g_map_roundtrip_us", lambda p: paths.g_inverse(paths.g_map(p)), paths12)
        self.check("g_inverse inverts g_map", back == paths12)

        rect = []
        members = list(generate.inv321(10))
        for p in rng.choices(members, k=5000):
            a = rng.randint((10 - perms.fixed_point_count(p)) // 2, 5)
            rect.append((p, a, 10 - a))
        back = self.per_object_us("rsk.theta_rect_roundtrip_us",
                                  lambda x: rsk.theta_rect_inverse(rsk.theta_rect(*x), x[1], x[2]), rect)
        self.check("theta_rect_inverse inverts theta_rect", back == [p for p, _, _ in rect])

        centro12 = [signed.theta_inverse(window(6)) for _ in range(10000)]
        back = self.per_object_us("signed.theta_roundtrip_us", lambda p: signed.theta_inverse(signed.theta(p)),
                                  centro12)
        self.check("theta_inverse inverts theta", back == centro12)

        samples = {
            "cinv321-even": [matchings.subset_involution(subset(16)) for _ in range(20000)],
            "paths-rect": [path(18) for _ in range(20000)],
            "signed-all": [window(6) for _ in range(20000)],
        }
        for label, _, _ in suite.ENUMERATE_QUERIES:
            self.per_object_us(f"generate.format_object_us.{label}",
                               functools.partial(generate.format_object, label), samples[label])

    def polynomials(self, q_binomial) -> None:
        from centroinv import qpoly

        def cold():
            q_binomial.cache_clear()
            return q_binomial(40, 20)

        seconds, poly = self.timed("qpoly.q_binomial", cold, 5, args=[40, 20])
        self.out["qpoly.q_binomial_s.40_20_cold"] = seconds
        self.check("q_binomial(40, 20) at q=1", sum(poly) == comb(40, 20))
        seconds, poly = self.timed("qpoly.half_maj_poly_by_area", lambda: qpoly.half_maj_poly_by_area(16), 3,
                                   args=[16])
        self.out["qpoly.half_maj_poly_by_area_s.n16"] = seconds
        self.check("half_maj_poly_by_area(16) at q=1", sum(poly) == 2**16)

    def sharding(self) -> None:
        from centroinv import distrib, generate

        for label, size, stat in suite.JOBS2_QUERIES:
            want = suite.class_count(label, size)
            whole, n = self.timed("generate.generate_class", lambda: _count(generate.generate_class(label, size)),
                                  args=[label, size])
            half, _ = self.timed("generate.generate_class",
                                 lambda: _count(generate.generate_class(label, size, 0, 2)),
                                 args=[label, size, 0, 2])
            self.out[f"generate.shard_half_ratio.{label}"] = half / whole
            self.check(f"{label} {size} count", n == want)

            serial, t1 = self.timed("layer.jobs", lambda: distrib.distribution(label, size, stat, jobs=1), jobs=1)
            pooled, t2 = self.timed("layer.jobs", lambda: distrib.distribution(label, size, stat, jobs=2), jobs=2)
            self.out[f"distrib.jobs2_speedup.{label}"] = serial / pooled
            self.check(f"{label} {size} {stat}: jobs 2 equals jobs 1", t1 == t2 and t1.count == want)

        serial, _ = self.timed("layer.jobs", lambda: distrib.distribution("cinv321-even", 4, "maj+", jobs=1), 3,
                               jobs=1)
        pooled, _ = self.timed("layer.jobs", lambda: distrib.distribution("cinv321-even", 4, "maj+", jobs=2), 3,
                               jobs=2)
        self.out["distrib.pool_overhead_s"] = pooled - serial

    def cli(self) -> None:
        """Child processes: the first-line share of each emitted stream and
        the import time of the CLI module."""
        commands = suite.WORKLOADS["enumerate-stream"][1]
        for (label, _, _), cmd in zip(suite.ENUMERATE_QUERIES, commands):
            with self.tracer.span("cli.command", args=list(cmd.argv)):
                run = self.execute(cmd)
            self.out[f"cli.first_line_share.{label}"] = run.first_byte_s / run.wall_s

        def median_wall(code: str) -> float:
            walls = []
            for _ in range(5):
                with self.tracer.span("cli.spawn", code=code):
                    run = self.spawn([sys.executable, "-c", code])
                self.check(f"python -c {code!r}", run.returncode == 0)
                walls.append(run.wall_s)
            return statistics.median(walls)

        self.out["cli.import_s"] = median_wall("import centroinv.cli") - median_wall("pass")

    def span_cost(self) -> None:
        """What one traced call adds to a bare call.  A traced pass against an
        untraced one differs by far less than the machine's run-to-run drift,
        so this is the figure that bounds the overhead."""
        calls = 20000

        def noop():
            return None

        traced = Tracer().wrap("noop", noop, lambda _: {})

        def call_all(fn):
            for _ in range(calls):
                fn()

        bare, _ = self.timed("trace.bare_calls", lambda: call_all(noop), 5, calls=calls)
        wrapped, _ = self.timed("trace.traced_calls", lambda: call_all(traced), 5, calls=calls)
        self.out["trace.span_cost_us"] = (wrapped - bare) / calls * 1e6
