"""Design rules that hold for the package as a whole."""

import ast
import doctest
import importlib
import os
import re
import subprocess
import sys
from functools import partial
from itertools import combinations
from pathlib import Path

import pytest

import centroinv
from centroinv import distrib, generate, kernels, qpoly, signed, verify

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "centroinv"


def _referenced(tree: ast.AST) -> set[str]:
    """Names a tree reads: bare names, attributes and imported names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def test_every_package_name_has_a_caller():
    # each top-level function and class under src/ is used by other code in
    # src/ or by the benchmark in perfbench/, not only by its own tests
    defined: list[tuple[str, str]] = []
    used: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            names = _referenced(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.stem, stmt.name))
                names.discard(stmt.name)  # recursion is not a caller
            used |= names
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        used |= _referenced(ast.parse(path.read_text()))
    unused = [f"{mod}.{name}" for mod, name in defined if name not in used]
    assert not unused, "only the tests call " + ", ".join(unused)


def _check_texts() -> dict[str, tuple[re.Pattern, int]]:
    """Every string that a per-object checker, verify._check_*, returns, as
    the pattern of the texts it can give (each formatted value any run of
    characters) and the number of characters it fixes."""
    texts = {}
    for stmt in ast.parse((PACKAGE / "verify.py").read_text()).body:
        if not (isinstance(stmt, ast.FunctionDef) and stmt.name.startswith("_check_")):
            continue
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Return):
                continue
            if isinstance(node.value, ast.JoinedStr):
                pieces = node.value.values
            elif isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
                pieces = [node.value]
            else:
                continue
            fixed = [p.value for p in pieces if isinstance(p, ast.Constant)]
            pattern = "".join(
                re.escape(p.value) if isinstance(p, ast.Constant) else ".*" for p in pieces
            )
            texts[f"{stmt.name}: {ast.unparse(node.value)}"] = (
                re.compile(pattern, re.DOTALL), sum(map(len, fixed)))
    return texts


def test_every_check_text_has_a_mutation():
    # each text a per-object checker returns is the exact counterexample that
    # some mutation test in tests/test_verify.py asserts, an entry of
    # CHECK_MUTATIONS or a single test, so no check can pass vacuously.  A
    # text that fits several checks' patterns counts for the one that fixes
    # the most characters: "fp = 2, des = 1: ..." is T-cor2's, though T-cor1's
    # "fp = {l}: ..." fits it too
    checks = _check_texts()
    assert len(checks) == 26
    tree = ast.parse((ROOT / "tests" / "test_verify.py").read_text())
    asserted = {
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    reached = set()
    for text in asserted:
        fits = [(fixed, name) for name, (pattern, fixed) in checks.items() if pattern.fullmatch(text)]
        if fits:
            reached.add(max(fits)[1])
    assert not set(checks) - reached, sorted(set(checks) - reached)


#: every module of the package, by its import name
MODULES = sorted(
    "centroinv" if path.stem == "__init__" else f"centroinv.{path.stem}"
    for path in PACKAGE.glob("*.py")
)


@pytest.mark.parametrize("module", MODULES)
def test_doctests(module):
    # every example in a docstring of the package runs as written
    assert doctest.testmod(importlib.import_module(module)).failed == 0


def test_census_imports_nothing_from_the_package():
    # the census is the raw route the drivers compare the generators and the
    # closed forms against, so it must build its class on its own
    imported = []
    for node in ast.walk(ast.parse((PACKAGE / "kernels.py").read_text())):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported
    assert not [name for name in imported if name.startswith(("centroinv", "."))]


def test_cli_import_leaves_out_the_process_pool():
    # no command needs multiprocessing (a sharded run forks plain children);
    # a fresh interpreter shows what importing the CLI alone loads
    code = "import sys, centroinv.cli; print('multiprocessing' in sys.modules)"
    run = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert run.stdout.strip() == "False"


def test_cli_import_and_sharded_run_leave_out_heavy_modules():
    # importing the CLI loads no dataclasses (nor the inspect module it
    # pulls in) and no process pool; a sharded run forks, and still loads
    # neither multiprocessing nor concurrent.futures
    code = (
        "import os, sys, centroinv.cli\n"
        "print(sorted({'dataclasses', 'inspect', 'concurrent.futures'} & set(sys.modules)))\n"
        "from centroinv import distrib\n"
        "os.cpu_count = lambda: 2\n"
        "os.sched_getaffinity = lambda pid: range(2)\n"
        "forks = []\n"
        "fork = os.fork\n"
        "os.fork = lambda: forks.append(1) or fork()\n"
        "assert distrib.distribution('inv321', 8, 'maj', jobs=2).count == 70\n"
        "print(len(forks), sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert run.stdout.splitlines() == ["[]", "1 []"]


#: a command line, and the package modules that running it must not load;
#: select and signal are loaded only to fork, which none of these does
COMMAND_IMPORTS = [
    (
        ["stats", "--class", "signed-all", "--size", "3", "--stat", "des"],
        {"verify", "rsk", "json", "kernels", "select", "signal"},
    ),
    (
        ["bijection", "--name", "g", "--apply", "EN"],
        {"generate", "distrib", "verify", "json", "kernels", "select", "signal"},
    ),
    (
        ["enumerate", "--class", "subsets", "--size", "3"],
        {"distrib", "verify", "rsk", "json", "kernels", "select", "signal"},
    ),
]


@pytest.mark.parametrize("argv, left_out", COMMAND_IMPORTS)
def test_each_command_loads_only_what_it_runs(argv, left_out):
    # a fresh interpreter runs one command and lists the package modules it
    # loaded, and json, select and signal; every module is compiled or
    # loaded on each start, so a module a command does not run must stay
    # unloaded
    code = (
        "import contextlib, io, sys\n"
        "from centroinv import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(sys.argv[1:]) == 0\n"
        "print(*sorted(m for m in sys.modules\n"
        "              if m.startswith('centroinv.') or m in ('json', 'select', 'signal')))\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = {name.removeprefix("centroinv.") for name in run.stdout.split()}
    assert "cli" in loaded
    assert not loaded & left_out, loaded


def test_each_block_class_reads_one_scan():
    # every mask stream, text stream and tally splits a mask by one rule,
    # generate._low_bits, and every mask tally runs one transfer loop,
    # generate._transfer; the even class has one FIFO loop,
    # generate._fifo_scan, and the signed classes one builder of windows,
    # generate._sign_products: the even stream and text stream run the
    # first, and every signed stream, text stream and tally the second
    masks = {"cinv321-even": 20, "subsets": 10, "paths-rect": 10}  # 10 bits, past LOW_BITS
    even = generate.CLASSES["cinv321-even"]
    signed = {label: generate.CLASSES[label] for label in ("signed-all", "signed-sixavoiders")}
    reads = {}
    for label, size in masks.items():
        c = generate.CLASSES[label]
        reads[f"{label} stream"] = (generate._low_bits, lambda c=c, n=size: [*c.generate(n, 0, 1)])
        reads[f"{label} texts"] = (generate._low_bits, lambda c=c, n=size: [*c.texts(n)])
        for name, tally in c.tallies.items():
            reads[f"{label} {name} tally"] = (generate._low_bits, partial(tally, size))
            reads[f"{label} {name} transfer"] = (generate._transfer, partial(tally, size))
    reads |= {
        "even stream": (generate._fifo_scan, lambda: [*even.generate(20, 0, 1)]),
        "even texts": (generate._fifo_scan, lambda: [*even.texts(20)]),
        "signed_perms": (generate._sign_products, lambda: [*generate.signed_perms(4)]),
        "six-avoiders": (
            generate._sign_products, lambda: [*signed["signed-sixavoiders"].generate(4, 0, 1)]
        ),
        **{
            f"{label} texts": (generate._sign_products, lambda c=c: [*c.texts(4)])
            for label, c in signed.items()
        },
        **{
            f"signed-all {name} tally": (generate._sign_products, partial(tally, 4))
            for name, tally in signed["signed-all"].tallies.items()
        },
    }
    for name, (scan, read) in reads.items():
        assert scan.__code__ in _traced_codes(read)[1], name


def test_benchmark_call_shapes():
    # perfbench/layers.py and perfbench/run.py call these entry points by
    # name at larger sizes; each call runs here in the same shape
    import centroinv
    from centroinv import distrib, generate, kernels, matchings, paths, verify

    members = [1, 4, 5, 9, 16, 20]
    e = matchings.subset(20, (i for i in range(1, 21) if i in members))
    assert matchings.excedance_subset(matchings.subset_involution(e)) == (
        matchings.subset(20, members)
    )

    samples = {
        "cinv321-even": (matchings.subset_involution(matchings.subset(4, (1, 3))),
                         "2 1 4 3 6 5 8 7"),
        "paths-rect": ("NENNE", "NENNE"),
        "signed-all": ((2, -1, 3), "2 -1 3"),
    }
    for label, (obj, text) in samples.items():
        assert generate.format_object(label, obj) == text

    for label, size in (("cinv321-even", 8), ("subsets", 4), ("paths-rect", 4),
                        ("signed-all", 3)):
        halves = [*generate.generate_class(label, size, 0, 2),
                  *generate.generate_class(label, size, 1, 2)]
        assert sorted(halves) == sorted(generate.generate_class(label, size))
    assert sum(1 for _ in generate.involutions(6)) == 76
    assert sum(1 for _ in generate.inv321(6)) == 20
    assert sum(1 for _ in generate.signed_perms(3)) == 48
    assert sum(1 for _ in generate.subsets(4)) == 16

    assert kernels.census(8)["count"] == 16
    assert distrib.distribution("subsets", 4, "maj+").count == 16
    assert paths.area("EENNE") == 4
    assert tuple(verify.THEOREMS)[0] == "T-despoly"
    assert centroinv.BACKEND == "python"


#: the q-polynomial ring every route may use; tests/test_qpoly.py checks it
#: against its own oracles
RING = {
    f"qpoly.{name}"
    for name in (
        "qpoly", "tally_poly", "padd", "pneg", "psub", "pmul", "psum", "pscale",
        "pshift", "ppow", "peval", "subst_q_square",
    )
}

#: (driver, route, later route) -> the package functions both may call
SHARED = {
    # both closed forms are sums of Gaussian binomials
    ("T-majpoly", "binomial sum", "difference form"): {"qpoly.q_binomial"},
    # the subsets stream and the even class check their shard arguments
    # alike, and the two mask streams split a mask by one rule
    ("T-desfull", "subset transport", "brute force"): {
        "generate._check_shard", "generate._low_bits",
    },
    # the theorem: the area enumeration satisfies the recurrence, so the
    # recurrence is built from the area enumeration at n - 1 and n - 2
    ("T-recr", "area enumeration", "recurrence"): {
        "qpoly.half_maj_poly_by_area", "paths.area", "paths.check_path",
    },
}


def _traced_codes(route) -> tuple[object, set]:
    """route() and the code objects of every function it calls."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    old = sys.getprofile()
    sys.setprofile(profile)
    try:
        value = route()
    finally:
        sys.setprofile(old)
    return value, codes


def _package_calls(route) -> tuple[object, set[str]]:
    """route() and the package functions it calls, nested code (generator
    expressions, the census's rec) counted as its top-level function.  The
    route's own body and the ring are left out."""
    package = Path(centroinv.__file__).resolve().parent
    own = route.__code__
    value, codes = _traced_codes(route)
    calls = {
        f"{Path(code.co_filename).stem}.{code.co_qualname.split('.')[0]}"
        for code in codes
        if Path(code.co_filename).resolve().parent == package
        and not (
            code.co_filename == own.co_filename
            and code.co_qualname.startswith(own.co_qualname)
        )
    }
    return value, calls - RING


@pytest.mark.skipif(sys.version_info < (3, 11), reason="needs code.co_qualname")
def test_compared_routes_share_no_code():
    # every table of verify.ROUTES at sizes 0..3, each route traced alone
    # from cold caches: two routes of one table agree and share no package
    # function outside the ring and SHARED, and a raw census route reads the
    # census alone.  The ring is left out because tests/test_qpoly.py checks
    # it against its own oracles
    shared, raw = {}, set()
    for driver, routes in verify.ROUTES.items():
        for n in range(4):
            for table in routes(n):
                values, calls = [], {}
                for name, route in table.items():
                    for cached in (kernels.census, qpoly.q_binomial, signed._unfold_tables):
                        cached.cache_clear()
                    value, calls[name] = _package_calls(route)
                    values.append(value)
                assert all(v == values[0] for v in values), (driver, n, table)
                for a, b in combinations(table, 2):
                    if calls[a] & calls[b]:
                        shared.setdefault((driver, a, b), set()).update(calls[a] & calls[b])
                for name in table:
                    if name.startswith("raw "):
                        assert calls[name] == {"kernels.census"}, (driver, name)
                        raw.add((driver, name))
    assert len(raw) == 3 + 3  # the even drivers' raw filters, T-odd's tallies
    assert shared == SHARED


def test_no_route_reaches_a_block_tally():
    # a block tally is a shortcut for stats, not a route: the drivers reach
    # the class statistics one object at a time.  Four classes tally each
    # statistic they define but maj and fp of the even class; the two walks,
    # inv321 and cinv321-odd, and signed-sixavoiders tally none
    tallies = {label: set(c.tallies) for label, c in generate.CLASSES.items() if c.tallies}
    half = {"des+", "maj+", "des"}
    assert tallies == {
        "cinv321-even": half, "signed-all": half | {"maj", "fp"},
        "subsets": half, "paths-rect": {"area", "peaks"},
    }
    for c in generate.CLASSES.values():
        assert set(c.tallies) <= set(c.stats)
    codes = {t.__code__ for c in generate.CLASSES.values() for t in c.tallies.values()}
    # the tracer sees a tally where one runs
    assert codes & _traced_codes(lambda: distrib.distribution("subsets", 3, "des"))[1]
    for driver, routes in verify.ROUTES.items():
        for n in range(4):
            for table in routes(n):
                for name, route in table.items():
                    assert not codes & _traced_codes(route)[1], (driver, n, name)
