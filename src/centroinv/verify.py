"""Exhaustive verification drivers, one per named result.

Every driver re-proves its statement at desk scale: enumerate the relevant
finite set honestly, compute both sides, compare exactly.  Closed forms are
never substituted for the brute-force side; where a result has several
equivalent forms, all of them are pitted against the same enumeration.

verify(theorem_id) runs one driver over a size range and returns a report
with a per-size pass/fail status; a failure carries a concrete
counterexample.  The registry key doubles as the CLI name.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from math import comb
from time import perf_counter
from typing import Callable, Iterable

from centroinv import generate, kernels, matchings, paths, perms, rsk
from centroinv.distrib import distribution
from centroinv.matchings import format_subset, odd_join, odd_split, subset_matching
from centroinv.perms import contains_321, format_perm, is_centrosymmetric, is_involution
from centroinv.qpoly import (
    ONE,
    ONE_PLUS_Q,
    Q,
    QPoly,
    ZERO,
    full_des_poly,
    half_des_poly,
    half_des_poly_even_part,
    half_des_poly_rec,
    half_maj_poly,
    half_maj_poly_by_area,
    half_maj_poly_diff,
    half_maj_poly_rec,
    odd_case_polys,
    padd,
    pmul,
    pshift,
    psub,
    psum,
    q_binomial,
    qpoly,
)
from centroinv.signed import (
    TOP_PATTERNS,
    format_signed,
    is_top_element,
    signed_avoids,
    theta,
)

#: largest half-size for the raw census cross-check at the double size
RAW_LIMIT = 7


@dataclass(frozen=True)
class SizeResult:
    n: int
    status: str
    counterexample: str | None


@dataclass(frozen=True)
class VerificationReport:
    theorem: str
    results: tuple[SizeResult, ...]
    duration_s: float

    @property
    def ok(self) -> bool:
        return all(r.status == "pass" for r in self.results)


def _counter_poly(c: Counter) -> QPoly:
    top = max(c, default=-1)
    return qpoly(c.get(i, 0) for i in range(top + 1))


def _stat_poly(objs: Iterable, fn) -> QPoly:
    tally: Counter = Counter()
    for obj in objs:
        tally[fn(obj)] += 1
    return _counter_poly(tally)


def _in_class(p) -> bool:
    return is_involution(p) and is_centrosymmetric(p) and not contains_321(p)


# ---------- drivers ----------


def _check_despoly(n: int) -> str | None:
    closed = half_des_poly(n)
    rec = half_des_poly_rec(n)
    if closed != rec:
        return f"recurrence gives {rec}, closed form {closed}"
    even = half_des_poly_even_part(n)
    if even != closed:
        return f"even part of (1+t)^(n+1) gives {even}, closed form {closed}"
    brute = distribution("cinv321-even", 2 * n, "des+").poly
    if brute != closed:
        return f"brute force gives {brute}, closed form {closed}"
    if n <= RAW_LIMIT:
        raw = qpoly(kernels.census(2 * n)["des+"])
        if raw != closed:
            return f"raw filter gives {raw}, closed form {closed}"
    return None


def _check_majpoly(n: int) -> str | None:
    base = half_maj_poly(n)
    others = {
        "difference form": half_maj_poly_diff(n),
        "recurrence": half_maj_poly_rec(n),
        "area enumeration": half_maj_poly_by_area(n),
        "brute force": distribution("cinv321-even", 2 * n, "maj+").poly,
    }
    for name, val in others.items():
        if val != base:
            return f"{name} gives {val}, binomial sum {base}"
    return None


def _check_desfull(n: int) -> str | None:
    closed = full_des_poly(n)
    transported = _stat_poly(generate.subsets(n), matchings.des_from_subset)
    if transported != closed:
        return f"subset transport gives {transported}, closed form {closed}"
    direct = distribution("cinv321-even", 2 * n, "des").poly
    if direct != closed:
        return f"brute force gives {direct}, closed form {closed}"
    if n <= RAW_LIMIT:
        raw = qpoly(kernels.census(2 * n)["des"])
        if raw != closed:
            return f"raw filter gives {raw}, closed form {closed}"
    return None


def _check_cara(n: int) -> str | None:
    seen = set()
    for e in generate.subsets(n):
        name = format_subset(e) or "{}"
        # matching_permutation checks symmetry and non-nesting, and
        # excedance_subset checks that its input lies in the class
        try:
            p = matchings.matching_permutation(subset_matching(e))
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
        if not _in_class(p):
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
    des_half, maj_half, des_all = odd_case_polys(n)
    got = _stat_poly(members, perms.half_des)
    if got != des_half:
        return f"half-descent brute force gives {got}, closed form {des_half}"
    got = _stat_poly(members, perms.half_maj)
    if got != maj_half:
        return f"half-major brute force gives {got}, closed form {maj_half}"
    got = _stat_poly(members, perms.des)
    if got != des_all:
        return f"descent brute force gives {got}, closed form {des_all}"
    if n <= RAW_LIMIT:
        cens = kernels.census(2 * n + 1)
        if cens["count"] != len(members):
            return f"raw filter count {cens['count']} != {len(members)}"
        for key, want in (("des+", des_half), ("maj+", maj_half), ("des", des_all)):
            raw = qpoly(cens[key])
            if raw != want:
                return f"raw {key} tally gives {raw}, closed form {want}"
    return None


def _check_hdpeak(n: int) -> str | None:
    for a in range(n + 1):
        b = n - a
        images = set()
        for p in paths.rect_paths(a, b):
            q = paths.g_map(p, a, b)
            if paths.path_counts(q) != (a, b):
                return f"g({p}) leaves the {a} x {b} rectangle"
            if paths.hook_decomposition(q) != paths.peak_set(p):
                return f"hooks of g({p}) = {q} differ from peaks of {p}"
            if paths.hd_star(q) != paths.peak_star(p):
                return f"starred hooks of g({p}) differ from starred peaks"
            if paths.g_inverse(q, a, b) != p:
                return f"g_inverse(g({p})) != {p}"
            images.add(q)
        if len(images) != comb(n, a):
            return f"g is not bijective on the {a} x {b} rectangle"
    return None


def _check_recr(n: int) -> str | None:
    if n <= 1:
        lhs, rhs = half_maj_poly_by_area(n), half_maj_poly_rec(n)
        if lhs != rhs:
            return f"initial value {lhs} != {rhs}"
        return None
    lhs = half_maj_poly_by_area(n)
    rhs = padd(
        pmul(ONE_PLUS_Q, half_maj_poly_by_area(n - 1)),
        pmul(psub(pshift(ONE, n), Q), half_maj_poly_by_area(n - 2)),
    )
    if lhs != rhs:
        return f"enumerated {lhs}, recurrence rebuilds {rhs}"
    return None


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
    for (x, sx), (y, sy) in combinations(routes.items(), 2):
        if sx != sy:
            diff = sorted(sx ^ sy)[0]
            side = x if diff in sx else y
            return f"{x} and {y} differ, e.g. {format_signed(diff)} ({side} only)"
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
        for lam in paths.rect_paths(a, b):
            if rsk.theta_rect(rsk.theta_rect_inverse(lam, a, b), a, b) != lam:
                return f"surjectivity round trip failed at {lam}"
    return None


def _check_cor1(n: int) -> str | None:
    by_fp: dict[int, Counter] = {}
    for p in generate.inv321(n):
        by_fp.setdefault(perms.fixed_point_count(p), Counter())[perms.maj(p)] += 1
    if any((n - l) % 2 for l in by_fp):
        return "fixed point count with wrong parity"
    polys = {l: _counter_poly(c) for l, c in by_fp.items()}
    total = psum(polys.values())
    if total != q_binomial(n, n // 2):
        return f"grand total {total} != central Gaussian binomial"
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
    polys: dict[tuple[int, int], Counter] = {}
    for p in generate.inv321(n):
        key = (perms.fixed_point_count(p), perms.des(p))
        polys.setdefault(key, Counter())[perms.maj(p)] += 1
    refined = {key: _counter_poly(c) for key, c in polys.items()}
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
    for a in range(n + 1):
        b = n - a
        by_hooks: dict[int, Counter] = {}
        for lam in paths.rect_paths(a, b):
            k = len(paths.hook_decomposition(lam))
            by_hooks.setdefault(k, Counter())[paths.area(lam)] += 1
        for k in range(min(a, b) + 1):
            got = _counter_poly(by_hooks.get(k, Counter()))
            want = pshift(pmul(q_binomial(a, k), q_binomial(b, k)), k * k)
            if got != want:
                return f"{k}-hook diagrams in {a} x {b}: {got} != {want}"
    return None


# ---------- registry and runner ----------

THEOREMS: dict[str, tuple[str, int, Callable[[int], str | None]]] = {
    "T-despoly": ("half-descent distribution equals the binomial closed form", 12, _check_despoly),
    "T-majpoly": ("half-major distribution: five routes agree", 12, _check_majpoly),
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
    lines.extend(
        f"{s.n}\t{s.status}\t{s.counterexample or ''}" for s in r.results
    )
    return "\n".join(lines)
