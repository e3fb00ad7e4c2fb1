"""Acceptance sweep: eleven criteria, each re-proved by exhaustive enumeration.

Run ``pytest tests/test_acceptance.py -v -s`` to see one line per criterion.
Every criterion goes through honest brute force at the stated sizes; closed
forms are only ever compared against enumeration, never against themselves.
"""

import doctest
from collections import Counter
from functools import wraps
from itertools import combinations
from math import comb
from pathlib import Path
from time import perf_counter

import pytest

from centroinv import distrib, kernels
from centroinv.distrib import distribution
from centroinv.generate import involutions
from centroinv.perms import des, fixed_point_count, is_centrosymmetric, maj
from centroinv.qpoly import peval, q_binomial, qpoly
from centroinv.verify import verify


def criterion(num, text):
    def deco(fn):
        @wraps(fn)
        def wrapper():
            try:
                fn()
            except BaseException:
                print(f"\ncriterion {num:02d} FAIL  {text}")
                raise
            print(f"\ncriterion {num:02d} PASS  {text}")

        return wrapper

    return deco


def run_driver(name, max_size=None):
    report = verify(name, max_size)
    bad = [r for r in report.results if r.status != "pass"]
    assert not bad, f"{name} at n={bad[0].n}: {bad[0].counterexample}"
    return report


@criterion(1, "raw census counts: 2^n even through size 14, central binomial odd through 15")
def test_criterion_01():
    start = perf_counter()
    for n in range(8):
        assert kernels.census(2 * n)["count"] == 2**n
    for n in range(8):
        assert kernels.census(2 * n + 1)["count"] == comb(n, n // 2)
    assert perf_counter() - start < 120


@criterion(2, "half-descent distribution: closed form, recurrence, brute force agree to n=12")
def test_criterion_02():
    run_driver("T-despoly")


@criterion(3, "half-major distribution: six routes agree to n=12, recurrence re-proved")
def test_criterion_03():
    run_driver("T-majpoly")
    run_driver("T-recr")


@criterion(4, "full descent distribution equals (1+q)^n to n=12, raw sweep to n=7")
def test_criterion_04():
    run_driver("T-desfull")


@criterion(5, "subset bijection: round trips, matchings, completeness to n=12")
def test_criterion_05():
    run_driver("T-cara")


@criterion(6, "rectangle bijection g: peaks become hooks, both round trips, to n=12")
def test_criterion_06():
    run_driver("T-hdpeak")


@criterion(7, "odd class: centre join is bijective, three distributions, to half-size 7")
def test_criterion_07():
    run_driver("T-odd")


@criterion(8, "window image of 321-avoiders equals six-pattern avoiders to n=5")
def test_criterion_08():
    run_driver("T-sixpat")


@criterion(9, "rectangle embedding: bijective with descent-to-hook transport to size 10")
def test_criterion_09():
    run_driver("T-fp")


@criterion(10, "fixed-point-refined major index polynomials to size 10")
def test_criterion_10():
    run_driver("T-cor1")
    run_driver("T-cor2")


@criterion(11, "invariants: fixed point parity, maj doubling, Gaussian shape, parallel tally")
def test_criterion_11():
    # fixed point count matches the size parity for every involution
    for m in range(13):
        for p in involutions(m):
            assert (m - fixed_point_count(p)) % 2 == 0, f"parity break at {p}"
    # centro descent sets mirror, so maj is half of size times des
    for m in range(2, 11, 2):
        for p in involutions(m):
            if is_centrosymmetric(p):
                assert 2 * maj(p) == m * des(p)
    # Gaussian binomials: palindromic, right degree, partition oracle
    for n in range(15):
        for h in range(n + 1):
            f = q_binomial(n, h)
            assert f == f[::-1]
            assert len(f) - 1 == h * (n - h)
            assert peval(f, 1) == comb(n, h)
            base = h * (h - 1) // 2
            tally = Counter(sum(s) - base for s in combinations(range(n), h))
            assert f == qpoly(
                tally[i] for i in range(max(tally, default=0) + 1)
            )
    # four workers tally exactly what one does, and so do two and three; the
    # CPU count is set to 4 so that no run is capped below its jobs
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(distrib.os, "cpu_count", lambda: 4)
        for stat in ("des+", "maj+", "des"):
            serial = distribution("cinv321-even", 24, stat)
            for jobs in (2, 3, 4):
                assert distribution("cinv321-even", 24, stat, jobs=jobs) == serial


def test_readme_library_example():
    # only the code block: doctest.testfile would read the closing fence as
    # expected output of the last example
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    library = readme.split("\n## Library\n", 1)[1]
    block = library.split("```python\n", 1)[1].split("```", 1)[0]
    test = doctest.DocTestParser().get_doctest(block, {}, "README Library", "README.md", 0)
    result = doctest.DocTestRunner().run(test)
    assert result.attempted > 0 and result.failed == 0
