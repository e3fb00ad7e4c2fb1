"""Exhaustive verification drivers, one per named result.

Every driver re-proves its statement at desk scale: enumerate the relevant
finite set honestly, compute both sides, compare exactly.  Closed forms are
never substituted for the brute-force side; where a result has several
equivalent forms, all of them are pitted against the same enumeration.

ROUTES, beside THEOREMS, maps each comparing driver to routes(n), the ordered
tables it compares at size n.  A table maps route names to thunks
(zero-argument callables that look their names up when called), the first
the reference; the raw census tally joins it for half-sizes up to RAW_LIMIT.
One comparer looks up ROUTES[name] when called and returns the first
counterexample, "<route> gives <value>, <reference> <value>", or for T-sixpat's
sets of windows the least window that one side alone holds.  T-odd checks its
centre join object by object first.  T-cara, T-hdpeak and T-fp check
bijections object by object and have no table; nor have T-cor1 and T-cor2,
whose texts name a cell and its closed form, which the comparer cannot say.
No two routes of a table share package code outside the qpoly ring but the
pairs, with reasons, that tests/test_design.py::test_compared_routes_share_no_code
allows; that test and the mutation matrix in tests/test_verify.py read ROUTES.

T-sixpat's linear scan streams the windows of signed_perms; its literal
scan grows windows one entry at a time and looks up the signed pattern of
every subsequence that ends at the new entry, so it extends only the
prefixes that avoid every pattern.  T-hdpeak computes the hooks of g(p) and
the peaks of p once and hands them to hd_star and peak_star, each of which
keeps its own star rule.

verify(theorem_id) runs one driver over a size range (sizes checks the
request) and returns a report with a per-size pass/fail status; a failure
carries a concrete counterexample.  Its row argument, if given, gets each
size's result as soon as it is known, and report_text gives a report's text
in pieces (head, row, separator, tail) that the CLI writes as they become
known.  The registry key doubles as the CLI name.  ``verify --name all``
runs the drivers in up to two processes (cli.DRIVER_PROCESSES, capped by
distrib.processes) through distrib.run_forked, the one fork helper that
also shards ``stats --jobs``; each process sends the caller its reports as
pieces of text, messages of run_forked.  With two, the EVEN_CENSUS_READERS
run in the caller alone and share its census.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import combinations
from math import comb
from time import perf_counter
from typing import Callable, Iterable, NamedTuple

from centroinv import generate, kernels, matchings, paths, perms, rsk
from centroinv.distrib import distribution
from centroinv.matchings import format_subset, odd_join, odd_split, subset_involution
from centroinv.perms import contains_321, format_perm, is_centrosymmetric, is_involution
from centroinv.qpoly import (
    # the ring, then the closed forms the drivers compare routes against
    ONE, ONE_PLUS_Q, Q, ZERO, padd, pmul, pshift, psub, psum, qpoly, tally_poly,
    q_binomial, full_des_poly, odd_case_polys,
    half_des_poly, half_des_poly_even_part, half_des_poly_rec,
    half_maj_poly, half_maj_poly_by_area, half_maj_poly_diff, half_maj_poly_rec,
)
from centroinv.signed import TOP_PATTERNS, is_top_element, signed_pattern, theta

#: largest half-size for the raw census cross-check at the double size
RAW_LIMIT = 9

#: the drivers that read kernels.census(2n) for n <= min(max_size, RAW_LIMIT).
#: Each process caches its census; a runner that forks runs them in one process.
EVEN_CENSUS_READERS = frozenset({"T-cara", "T-desfull", "T-despoly", "T-majpoly"})


class SizeResult(NamedTuple):
    n: int
    status: str
    counterexample: str | None


class VerificationReport(NamedTuple):
    theorem: str
    results: tuple[SizeResult, ...]
    duration_s: float

    @property
    def ok(self) -> bool:
        return all(r.status == "pass" for r in self.results)


def _disagreement(routes: dict[str, Callable[[], object]]) -> str | None:
    """Call the routes in order and compare each with the first, the
    reference: the counterexample "<route> gives <value>, <reference>
    <value>" for the first route that differs, or None when all agree."""
    (ref, reference), *others = routes.items()
    want = reference()
    for name, route in others:
        got = route()
        if got != want:
            return f"{name} gives {got}, {ref} {want}"
    return None


def _set_disagreement(routes: dict[str, Callable[[], set]]) -> str | None:
    """_disagreement for routes that give sets of windows; the text names the
    least window that one side alone holds, and that side."""
    (ref, reference), *others = routes.items()
    want = reference()
    for name, route in others:
        got = route()
        if got != want:
            diff = min(want ^ got)
            side = ref if diff in want else name
            return f"{ref} and {name} differ, e.g. {format_perm(diff)} ({side} only)"
    return None


def _grouped_polys(objs: Iterable, key, stat) -> dict:
    """Group objects by key and tally stat within each group, as polynomials."""
    groups = defaultdict(Counter)
    for obj in objs:
        groups[key(obj)][stat(obj)] += 1
    return {k: tally_poly(c) for k, c in groups.items()}


# ---------- route tables ----------


def _even_class(n: int, stat: str) -> dict[str, Callable[[], object]]:
    """The enumerated routes of the even class of size 2n: the class
    evaluator counted over the generator's stream, and the raw census tally
    for n <= RAW_LIMIT.  The stream is read here, not through distribution,
    which would take the class's block tally."""
    routes = {
        "brute force": lambda: tally_poly(Counter(
            map(generate.CLASSES["cinv321-even"].stats[stat], generate.cinv321_even(2 * n))
        )),
    }
    if n <= RAW_LIMIT:
        routes["raw filter"] = lambda: qpoly(kernels.census(2 * n)[stat])
    return routes


def _odd_table(n: int, i: int, key: str) -> dict[str, Callable[[], object]]:
    """T-odd's table for the i-th polynomial of odd_case_polys, statistic key:
    the closed form, the odd class's stream, and the raw census tally for
    n <= RAW_LIMIT."""
    routes = {
        "closed form": lambda: odd_case_polys(n)[i],
        f"{key} brute force": lambda: distribution("cinv321-odd", 2 * n + 1, key).poly,
    }
    if n <= RAW_LIMIT:
        routes[f"raw {key} tally"] = lambda: qpoly(kernels.census(2 * n + 1)[key])
    return routes


def _recr_table(n: int) -> dict[str, Callable[[], object]]:
    routes = {"area enumeration": lambda: half_maj_poly_by_area(n)}
    if n <= 1:
        routes["initial value"] = lambda: half_maj_poly_rec(n)
    else:
        routes["recurrence"] = lambda: padd(
            pmul(ONE_PLUS_Q, half_maj_poly_by_area(n - 1)),
            pmul(psub(pshift(ONE, n), Q), half_maj_poly_by_area(n - 2)),
        )
    return routes


def _sixpat_table(n: int) -> dict[str, Callable[[], set]]:
    return {
        "theta image": lambda: {
            theta(p) for p in generate.centro_perms(2 * n) if not contains_321(p)
        },
        "linear scan": lambda: set(filter(is_top_element, generate.signed_perms(n))),
        "literal scan": lambda: _literal_scan(n),
    }


def _literal_scan(n: int) -> set:
    """The windows of [n] that avoid every pattern of TOP_PATTERNS, grown one
    entry at a time.  An occurrence of a pattern ends at some entry, so each
    step builds the signed pattern of every subsequence that ends at the new
    entry, of each length the patterns use, looks it up in TOP_PATTERNS, and
    extends the prefix only when none is there."""
    patterns = set(TOP_PATTERNS)
    # the entries an occurrence takes before its last
    heads = sorted({len(t) - 1 for t in TOP_PATTERNS})
    found = set()

    def grow(prefix: tuple) -> None:
        if len(prefix) == n:
            found.add(prefix)
            return
        used = set(map(abs, prefix))
        for a in range(1, n + 1):
            if a in used:
                continue
            for v in (a, -a):
                if not any(
                    signed_pattern((*sub, v)) in patterns
                    for k in heads
                    for sub in combinations(prefix, k)
                ):
                    grow((*prefix, v))

    grow(())
    return found


#: driver name -> routes(n), the ordered tables that the driver compares at
#: size n; the first route of each table is its reference
ROUTES: dict[str, Callable[[int], list[dict[str, Callable[[], object]]]]] = {
    "T-despoly": lambda n: [{
        "closed form": lambda: half_des_poly(n),
        "recurrence": lambda: half_des_poly_rec(n),
        "even part of (1+t)^(n+1)": lambda: half_des_poly_even_part(n),
        **_even_class(n, "des+"),
    }],
    "T-majpoly": lambda n: [{
        "binomial sum": lambda: half_maj_poly(n),
        "difference form": lambda: half_maj_poly_diff(n),
        "recurrence": lambda: half_maj_poly_rec(n),
        "area enumeration": lambda: half_maj_poly_by_area(n),
        **_even_class(n, "maj+"),
    }],
    "T-desfull": lambda n: [{
        "closed form": lambda: full_des_poly(n),
        "subset transport": lambda: tally_poly(
            Counter(map(matchings.des_from_subset, generate.subsets(n)))
        ),
        **_even_class(n, "des"),
    }],
    "T-odd": lambda n: [_odd_table(n, i, key) for i, key in enumerate(("des+", "maj+", "des"))],
    "T-recr": lambda n: [_recr_table(n)],
    "T-sixpat": lambda n: [_sixpat_table(n)],
}


def _comparer(name: str, differ=_disagreement) -> Callable[[int], str | None]:
    """The driver that looks up ROUTES[name] when called, compares its tables
    at size n in order and returns the first counterexample."""
    return lambda n: next(filter(None, map(differ, ROUTES[name](n))), None)


# ---------- drivers ----------


def _check_cara(n: int) -> str | None:
    seen = set()
    for e in generate.subsets(n):
        # matching_permutation checks symmetry and non-nesting, and
        # excedance_subset checks that its input lies in the class
        try:
            p = matchings.matching_permutation(subset_involution(e))
            back = matchings.excedance_subset(p)
        except ValueError as exc:
            return f"image of {format_subset(e) or '{}'} rejected: {exc}"
        if back != e:
            return f"round trip failed at {format_subset(e) or '{}'}"
        seen.add(p)
    if len(seen) != 1 << n:
        return f"only {len(seen)} distinct images for {1 << n} subsets"
    # 2^n distinct images in the class fill it iff the census counts 2^n
    if n <= RAW_LIMIT:
        count = kernels.census(2 * n)["count"]
        if count != 1 << n:
            return f"raw census counts {count} class members, {1 << n} images"
    return None


def _check_odd(n: int) -> str | None:
    alphas = list(generate.inv321(n))
    if len(alphas) != comb(n, n // 2):
        return f"|inv321| = {len(alphas)}, expected {comb(n, n // 2)}"
    members = []
    for a in alphas:
        p = odd_join(a)
        if not (is_involution(p) and is_centrosymmetric(p)) or contains_321(p):
            return f"join of {format_perm(a)} leaves the class"
        if odd_split(p) != a:
            return f"split(join) failed at {format_perm(a)}"
        # equal descent sets carry des+ to des and maj+ to maj
        if (
            perms.half_descent_set(p) != perms.descent_set(a)
            or perms.des(p) != 2 * perms.des(a)
        ):
            return f"statistic transport failed at {format_perm(a)}"
        members.append(p)
    if len(set(members)) != len(members):
        return "join is not injective"
    if n <= RAW_LIMIT:
        count = kernels.census(2 * n + 1)["count"]
        if count != len(members):
            return f"raw filter count {count} != {len(members)}"
    return _comparer("T-odd")(n)


def _check_hdpeak(n: int) -> str | None:
    images = defaultdict(set)  # a -> images of the paths with a N steps
    for p in generate.all_paths(n):
        a, b = paths.path_counts(p)
        q = paths.g_map(p)
        if paths.path_counts(q) != (a, b):
            return f"g({p}) leaves the {a} x {b} rectangle"
        hooks, peaks = paths.hook_decomposition(q), paths.peak_set(p)
        if hooks != peaks:
            return f"hooks of g({p}) = {q} differ from peaks of {p}"
        if paths.hd_star(q, hooks) != paths.peak_star(p, peaks):
            return f"starred hooks of g({p}) differ from starred peaks"
        if paths.g_inverse(q) != p:
            return f"g_inverse(g({p})) != {p}"
        images[a].add(q)
    for a in range(n + 1):
        if len(images[a]) != comb(n, a):
            return f"g is not bijective on the {a} x {n - a} rectangle"
    return None


def _check_fp(n: int) -> str | None:
    members = list(generate.inv321(n))
    for a in range(n // 2 + 1):
        b = n - a
        domain = [p for p in members if perms.fixed_point_count(p) >= b - a]
        images = set()
        for p in domain:
            lam = rsk.theta_rect(p, a, b)
            if paths.path_counts(lam) != (a, b):
                return f"theta({format_perm(p)}) leaves the {a} x {b} rectangle"
            if paths.hook_decomposition(lam) != perms.descent_set(p):
                return f"hooks of theta({format_perm(p)}) differ from descents"
            if rsk.theta_rect_inverse(lam, a, b) != p:
                return f"inverse round trip failed at {format_perm(p)}"
            images.add(lam)
        if len(images) != len(domain):
            return f"theta is not injective on the {a} x {b} rectangle"
        if len(images) != comb(n, a):
            return f"domain has {len(domain)} members, rectangle {comb(n, a)}"
    return None


def _check_cor1(n: int) -> str | None:
    polys = _grouped_polys(generate.inv321(n), perms.fixed_point_count, perms.maj)
    if any((n - l) % 2 for l in polys):
        return "fixed point count with wrong parity"
    # the last row, fp >= n % 2, holds every member: it is the grand total
    for a in range(n // 2 + 1):
        b = n - a
        got = psum(poly for l, poly in polys.items() if l >= b - a)
        want = q_binomial(n, a)
        if got != want:
            return f"fp >= {b - a}: {got} != Gaussian binomial ({n},{a}) = {want}"
    for l in range(n % 2, n + 1, 2):
        got = polys.get(l, ZERO)
        want = rsk.maj_poly_by_fixed_points(n, l)
        if got != want:
            return f"fp = {l}: {got} != difference form {want}"
    return None


def _check_cor2(n: int) -> str | None:
    refined = _grouped_polys(
        generate.inv321(n),
        lambda p: (perms.fixed_point_count(p), perms.des(p)),
        perms.maj,
    )
    for a in range(n // 2 + 1):
        b = n - a
        for k in range(n + 1):
            got = psum(
                poly for (l, kk), poly in refined.items() if kk == k and l >= b - a
            )
            want = pshift(pmul(q_binomial(a, k), q_binomial(b, k)), k * k)
            if got != want:
                return f"fp >= {b - a}, des = {k}: {got} != product form {want}"
    for l in range(n % 2, n + 1, 2):
        for k in range(n + 1):
            got = refined.get((l, k), ZERO)
            want = rsk.maj_poly_by_fixed_points_and_des(n, l, k)
            if got != want:
                return f"fp = {l}, des = {k}: {got} != difference form {want}"
    by_hooks = _grouped_polys(
        generate.all_paths(n),
        lambda lam: (lam.count("N"), len(paths.hook_decomposition(lam))),
        paths.area,
    )
    for a in range(n + 1):
        b = n - a
        for k in range(min(a, b) + 1):
            got = by_hooks.get((a, k), ZERO)
            want = pshift(pmul(q_binomial(a, k), q_binomial(b, k)), k * k)
            if got != want:
                return f"{k}-hook diagrams in {a} x {b}: {got} != {want}"
    return None


# ---------- registry and runner ----------

THEOREMS: dict[str, tuple[str, int, Callable[[int], str | None]]] = {
    "T-despoly": ("half-descent distribution equals the binomial closed form", 12, _comparer("T-despoly")),
    "T-majpoly": ("half-major distribution: six routes agree", 12, _comparer("T-majpoly")),
    "T-desfull": ("full descent distribution equals (1+q)^n", 12, _comparer("T-desfull")),
    "T-cara": ("subsets of [n] biject onto the even class", 12, _check_cara),
    "T-odd": ("odd class: centre join and its three distributions", 7, _check_odd),
    "T-hdpeak": ("rectangle bijection g turns peaks into hooks", 12, _check_hdpeak),
    "T-recr": ("area enumeration satisfies the two-term recurrence", 12, _comparer("T-recr")),
    "T-sixpat": ("window image equals the six-pattern avoiders", 5, _comparer("T-sixpat", _set_disagreement)),
    "T-fp": ("rectangle embedding is bijective and carries descents to hooks", 10, _check_fp),
    "T-cor1": ("major index refined by fixed points", 10, _check_cor1),
    "T-cor2": ("major index refined by fixed points and descents", 10, _check_cor2),
}


def sizes(theorem_id: str, max_size: int | None = None) -> range:
    """The sizes verify runs a driver at: 0..max_size, by default 0 to the
    theorem's own maximum.  Raises ValueError for an unknown theorem or a
    negative max_size."""
    try:
        default_max = THEOREMS[theorem_id][1]
    except KeyError:
        raise ValueError(f"unknown theorem id {theorem_id!r}") from None
    if max_size is None:
        max_size = default_max
    if max_size < 0:
        raise ValueError(f"max size must be non-negative (got {max_size})")
    return range(max_size + 1)


def verify(
    theorem_id: str,
    max_size: int | None = None,
    row: Callable[[SizeResult], object] | None = None,
) -> VerificationReport:
    """Run one driver for sizes 0..max_size (default per theorem); row, if
    given, is called with each size's result as soon as it is known.  The
    report's duration_s is the time the sizes took, less the calls of row."""
    ns = sizes(theorem_id, max_size)
    fn = THEOREMS[theorem_id][2]
    duration = 0.0
    results = []
    for n in ns:
        start = perf_counter()
        cx = fn(n)
        duration += perf_counter() - start
        results.append(SizeResult(n, "pass" if cx is None else "fail", cx))
        if row is not None:
            row(results[-1])
    return VerificationReport(theorem_id, tuple(results), duration)


class ReportText(NamedTuple):
    """A report's text in one format, in pieces that can be written while
    the report is made: head(theorem), row(result) for each size, sep
    between two rows, and tail(duration_s).  ``verify`` writes them one by
    one; joined, they are the report's whole text."""

    head: Callable[[str], str]
    row: Callable[[SizeResult], str]
    sep: str
    tail: Callable[[float], str]


def report_text(fmt: str) -> ReportText:
    """The pieces of a report in format fmt, "tsv" or "json".  A TSV row
    ends its line; the JSON pieces join to json.dumps of the report."""
    if fmt == "tsv":
        return ReportText(
            lambda theorem: "n\tstatus\tcounterexample\n",
            lambda s: f"{s.n}\t{s.status}\t{s.counterexample or ''}\n",
            "",
            lambda duration: "",
        )
    from json import dumps

    return ReportText(
        lambda theorem: f'{{"theorem": {dumps(theorem)}, "results": [',
        lambda s: dumps({"n": s.n, "status": s.status, "counterexample": s.counterexample}),
        ", ",
        lambda duration: f'], "duration_s": {dumps(round(duration, 3))}}}',
    )

