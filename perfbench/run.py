"""Benchmark of the centroinv command line tool.

Usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout, so nothing has to be installed.

``--trace 0`` times 10 no-work invocations (setup_s), then runs the
workload's commands as child processes, serially, repeating the whole set
until S seconds have passed (at least once).  It reports the median of every
end-to-end metric over the repetitions.

``--trace 1`` runs the workload's commands once untraced and once through
``traced_cli.py``, whose spans wrap the layer entry points; the difference in
wall time is the tracing overhead.  It then runs the in-process layer pass of
``layers.py`` and reports every per-layer metric.

Every command's exit code, stdout digest and object count are checked.  The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
Details, machine facts and spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import suite
from layers import LayerPass, Tracer, per_layer_metrics, span_table
from measure import Run, Spawner, aggregate, summary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_INVOCATIONS = 10

#: (name, unit) of every end-to-end metric, in output order
END_TO_END = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("objects_per_s", "1/s"),
    ("first_line_s", "s"),
    ("ok_ratio", "ratio"),
]


class Checks:
    """Checked operations: one per command run or per layer check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, what: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"{what}: {problem}")
            print(f"FAIL {what}: {problem}", file=sys.stderr)

    def expect(self, what: str, ok: bool) -> None:
        self.record(what, None if ok else "check failed")


class Bench:
    def __init__(self, checks: Checks, spawner: Spawner) -> None:
        self.checks = checks
        self.spawn = spawner.run
        self.digests = suite.load_digests()

    def execute(self, cmd: suite.Command, argv: list[str] | None = None) -> Run:
        """Run cmd (through argv if given) and check what it printed."""
        run = self.spawn(argv or [sys.executable, "-m", "centroinv.cli", *cmd.argv])
        self.checks.record(str(cmd), suite.check_output(cmd, run.returncode, run.stdout, self.digests))
        return run

    def end_to_end(self, commands: list[suite.Command], seconds: float) -> dict[str, dict]:
        self.execute(suite.NOOP)  # warm-up: byte-compiles the sources once
        setup = [self.execute(suite.NOOP).wall_s for _ in range(SETUP_INVOCATIONS)]
        objects = sum(cmd.expected for cmd in commands)
        reps = []
        start = time.perf_counter()
        while not reps or time.perf_counter() - start < seconds:
            reps.append(aggregate([self.execute(cmd) for cmd in commands], objects))
        out = {name: summary([rep[name] for rep in reps]) for name in reps[0]}
        out["setup_s"] = summary(setup)
        return out

    def traced(self, workload: str, commands: list[suite.Command], seed: int) -> tuple[dict, dict]:
        untraced = sum(self.execute(cmd).wall_s for cmd in commands)
        workload_spans = []
        traced = 0.0
        for i, cmd in enumerate(commands):
            spans_file = OUT / f"spans-{workload}-{i}.json"
            spans_file.unlink(missing_ok=True)
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans_file), "--", *cmd.argv]
            traced += self.execute(cmd, argv).wall_s
            written = spans_file.is_file()
            self.checks.expect(f"spans written by traced {cmd}", written)
            if written:
                offset = len(workload_spans)  # one id space across the commands
                for span in json.loads(spans_file.read_text()):
                    span["id"] += offset
                    if span["parent"] is not None:
                        span["parent"] += offset
                    workload_spans.append(span)
                spans_file.unlink()

        tracer = Tracer()
        layer = LayerPass(tracer, seed, self.checks.expect, self.execute, self.spawn)
        metrics = layer.run()
        metrics["trace.overhead_s"] = traced - untraced
        spans = {"workload": workload_spans, "layer_pass": tracer.spans}
        return metrics, spans


def machine_facts() -> dict:
    """What a result must carry: results from different machines never compare."""
    try:
        cpu_max = Path("/sys/fs/cgroup/cpu.max").read_text().strip()
    except OSError:
        cpu_max = None
    try:
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
        git_sha = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        git_sha = None
    digest = hashlib.sha256()
    for path in sorted(p for p in (SRC / "centroinv").rglob("*") if p.suffix in (".py", ".pyx")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    import centroinv

    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "cgroup_cpu_max": cpu_max,
        "loadavg_1m": os.getloadavg()[0],
        "backend": centroinv.BACKEND,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(suite.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "centroinv" / "cli.py").is_file():
        print(f"error: no centroinv sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    facts = machine_facts()
    print("machine " + json.dumps(facts))
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "facts": facts}
    checks = Checks()
    commands = suite.WORKLOADS[args.workload][1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    with Spawner(env) as spawner:
        bench = Bench(checks, spawner)
        if args.trace == 0:
            summaries = bench.end_to_end(commands, args.seconds)
        else:
            values, spans = bench.traced(args.workload, commands, args.seed)

    if args.trace == 0:
        summaries["ok_ratio"] = summary([(checks.attempted - len(checks.failures)) / checks.attempted])
        print(f"{'metric':<16}{'unit':<8}{'median':>12}{'q1':>12}{'q3':>12}{'n':>5}")
        for name, unit in END_TO_END:
            s = summaries[name]
            print(f"{name:<16}{unit:<8}{s['median']:>12.4f}{s['q1']:>12.4f}{s['q3']:>12.4f}{s['n']:>5}")
        metrics = {name: {"value": summaries[name]["median"], "unit": unit} for name, unit in END_TO_END}
        record["summaries"] = summaries
    else:
        for title, group in (("workload", spans["workload"]), ("layer pass", spans["layer_pass"])):
            print(f"spans of the {title}: name, count, total s, self s")
            for name, count, total, own in span_table(group):
                print(f"  {name:<32}{count:>6}{total:>12.4f}{own:>12.4f}")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in per_layer_metrics()}
        for name, m in metrics.items():
            print(f"{name:<40}{m['value']:>14.6g} {m['unit']}")
        record["spans"] = spans

    record["failures"] = checks.failures
    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": metrics,
    }
    record["result"] = result
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
