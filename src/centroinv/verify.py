"""Exhaustive verification drivers, one per named result.

Every driver re-proves its statement at desk scale: enumerate the relevant
finite set honestly, compute both sides, compare exactly.  Closed forms are
never substituted for the brute-force side; where a result has several
equivalent forms, all of them are pitted against the same enumeration.

A distribution driver states its routes as data: an ordered dict from route
name to polynomial, the first entry the reference, with the raw census tally
added for half-sizes up to RAW_LIMIT.  The routes share no code; only the
comparison is shared, and the first route that differs gives the
counterexample "<route> gives <value>, <reference> <value>".

verify(theorem_id) runs one driver over a size range and returns a report
with a per-size pass/fail status; a failure carries a concrete
counterexample.  The registry key doubles as the CLI name.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
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
from centroinv.signed import (
    TOP_PATTERNS,
    is_top_element,
    signed_avoids,
    theta,
)

#: largest half-size for the raw census cross-check at the double size
RAW_LIMIT = 7


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


def _disagreement(routes: dict[str, object]) -> str | None:
    """Compare every route with the first, the reference: the counterexample
    "<route> gives <value>, <reference> <value>" for the first route that
    differs, or None when all agree."""
    (ref, want), *others = routes.items()
    for name, got in others:
        if got != want:
            return f"{name} gives {got}, {ref} {want}"
    return None


def _grouped_polys(objs: Iterable, key, stat) -> dict:
    """Group objects by key and tally stat within each group, as polynomials."""
    groups = defaultdict(Counter)
    for obj in objs:
        groups[key(obj)][stat(obj)] += 1
    return {k: tally_poly(c) for k, c in groups.items()}


# ---------- drivers ----------


def _check_despoly(n: int) -> str | None:
    routes = {
        "closed form": half_des_poly(n),
        "recurrence": half_des_poly_rec(n),
        "even part of (1+t)^(n+1)": half_des_poly_even_part(n),
        "brute force": distribution("cinv321-even", 2 * n, "des+").poly,
    }
    if n <= RAW_LIMIT:
        routes["raw filter"] = qpoly(kernels.census(2 * n)["des+"])
    return _disagreement(routes)


def _check_majpoly(n: int) -> str | None:
    routes = {
        "binomial sum": half_maj_poly(n),
        "difference form": half_maj_poly_diff(n),
        "recurrence": half_maj_poly_rec(n),
        "area enumeration": half_maj_poly_by_area(n),
        "brute force": distribution("cinv321-even", 2 * n, "maj+").poly,
    }
    if n <= RAW_LIMIT:
        routes["raw filter"] = qpoly(kernels.census(2 * n)["maj+"])
    return _disagreement(routes)


def _check_desfull(n: int) -> str | None:
    routes = {
        "closed form": full_des_poly(n),
        "subset transport": tally_poly(
            Counter(map(matchings.des_from_subset, generate.subsets(n)))
        ),
        "brute force": distribution("cinv321-even", 2 * n, "des").poly,
    }
    if n <= RAW_LIMIT:
        routes["raw filter"] = qpoly(kernels.census(2 * n)["des"])
    return _disagreement(routes)


def _check_cara(n: int) -> str | None:
    seen = set()
    for e in generate.subsets(n):
        name = format_subset(e) or "{}"
        # matching_permutation checks symmetry and non-nesting, and
        # excedance_subset checks that its input lies in the class
        try:
            p = matchings.matching_permutation(subset_involution(e))
            back = matchings.excedance_subset(p)
        except ValueError as exc:
            return f"image of {name} rejected: {exc}"
        if back != e:
            return f"round trip failed at {name}"
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
        if (
            perms.half_des(p) != perms.des(a)
            or perms.half_maj(p) != perms.maj(a)
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
    stats = {"des+": perms.half_des, "maj+": perms.half_maj, "des": perms.des}
    for (key, stat), closed in zip(stats.items(), odd_case_polys(n)):
        routes = {
            "closed form": closed,
            f"{key} brute force": tally_poly(Counter(map(stat, members))),
        }
        if n <= RAW_LIMIT:
            routes[f"raw {key} tally"] = qpoly(kernels.census(2 * n + 1)[key])
        cx = _disagreement(routes)
        if cx:
            return cx
    return None


def _check_hdpeak(n: int) -> str | None:
    images = defaultdict(set)  # a -> images of the paths with a N steps
    for p in generate.all_paths(n):
        a, b = paths.path_counts(p)
        q = paths.g_map(p)
        if paths.path_counts(q) != (a, b):
            return f"g({p}) leaves the {a} x {b} rectangle"
        if paths.hook_decomposition(q) != paths.peak_set(p):
            return f"hooks of g({p}) = {q} differ from peaks of {p}"
        if paths.hd_star(q) != paths.peak_star(p):
            return f"starred hooks of g({p}) differ from starred peaks"
        if paths.g_inverse(q) != p:
            return f"g_inverse(g({p})) != {p}"
        images[a].add(q)
    for a in range(n + 1):
        if len(images[a]) != comb(n, a):
            return f"g is not bijective on the {a} x {n - a} rectangle"
    return None


def _check_recr(n: int) -> str | None:
    routes = {"area enumeration": half_maj_poly_by_area(n)}
    if n <= 1:
        routes["initial value"] = half_maj_poly_rec(n)
    else:
        routes["recurrence"] = padd(
            pmul(ONE_PLUS_Q, half_maj_poly_by_area(n - 1)),
            pmul(psub(pshift(ONE, n), Q), half_maj_poly_by_area(n - 2)),
        )
    return _disagreement(routes)


def _check_sixpat(n: int) -> str | None:
    windows = list(generate.signed_perms(n))
    routes = {
        "theta image": {
            theta(p) for p in generate.centro_perms(2 * n) if not contains_321(p)
        },
        "linear scan": {s for s in windows if is_top_element(s)},
        "literal scan": {
            s for s in windows if all(signed_avoids(s, t) for t in TOP_PATTERNS)
        },
    }
    # agreeing with the first route, the reference, makes all three agree
    (x, sx), *others = routes.items()
    for y, sy in others:
        if sx != sy:
            diff = sorted(sx ^ sy)[0]
            side = x if diff in sx else y
            return f"{x} and {y} differ, e.g. {format_perm(diff)} ({side} only)"
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
    for lam in generate.all_paths(n):
        a, b = paths.path_counts(lam)
        if a <= b and rsk.theta_rect(rsk.theta_rect_inverse(lam, a, b), a, b) != lam:
            return f"surjectivity round trip failed at {lam}"
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
    "T-despoly": ("half-descent distribution equals the binomial closed form", 12, _check_despoly),
    "T-majpoly": ("half-major distribution: six routes agree", 12, _check_majpoly),
    "T-desfull": ("full descent distribution equals (1+q)^n", 12, _check_desfull),
    "T-cara": ("subsets of [n] biject onto the even class", 12, _check_cara),
    "T-odd": ("odd class: centre join and its three distributions", 7, _check_odd),
    "T-hdpeak": ("rectangle bijection g turns peaks into hooks", 12, _check_hdpeak),
    "T-recr": ("area enumeration satisfies the two-term recurrence", 12, _check_recr),
    "T-sixpat": ("window image equals the six-pattern avoiders", 5, _check_sixpat),
    "T-fp": ("rectangle embedding is bijective and carries descents to hooks", 10, _check_fp),
    "T-cor1": ("major index refined by fixed points", 10, _check_cor1),
    "T-cor2": ("major index refined by fixed points and descents", 10, _check_cor2),
}


def verify(theorem_id: str, max_size: int | None = None) -> VerificationReport:
    """Run one driver for sizes 0..max_size (default per theorem)."""
    try:
        _, default_max, fn = THEOREMS[theorem_id]
    except KeyError:
        raise ValueError(f"unknown theorem id {theorem_id!r}") from None
    if max_size is None:
        max_size = default_max
    if max_size < 0:
        raise ValueError(f"max size must be non-negative (got {max_size})")
    start = perf_counter()
    results = []
    for n in range(max_size + 1):
        cx = fn(n)
        results.append(SizeResult(n, "pass" if cx is None else "fail", cx))
    return VerificationReport(theorem_id, tuple(results), perf_counter() - start)


def report_json(r: VerificationReport) -> str:
    return json.dumps(
        {
            "theorem": r.theorem,
            "results": [
                {"n": s.n, "status": s.status, "counterexample": s.counterexample}
                for s in r.results
            ],
            "duration_s": round(r.duration_s, 3),
        }
    )


def report_tsv(r: VerificationReport) -> str:
    lines = ["n\tstatus\tcounterexample"]
    lines.extend(f"{s.n}\t{s.status}\t{s.counterexample or ''}" for s in r.results)
    return "\n".join(lines)
