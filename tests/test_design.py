"""Design rules that hold for the package as a whole."""

import ast
import os
import subprocess
import sys
from pathlib import Path

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
    # only a sharded run (jobs > 1) needs multiprocessing; a fresh interpreter
    # shows what importing the CLI alone loads
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
        "forks = []\n"
        "fork = os.fork\n"
        "os.fork = lambda: forks.append(1) or fork()\n"
        "assert distrib.distribution('subsets', 6, 'des', jobs=2).count == 64\n"
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
