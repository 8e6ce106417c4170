"""opgraphs benchmark: one workload of real CLI invocations, closed loop.

    python3 perfbench/run.py --workload census --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout; it uses the checkout's `src/`.
Every invocation is a fresh interpreter, one at a time (one client),
because every CLI user pays the imports, the field tables and the
program's cold caches on each run.  After set-up the workload's commands
run in rounds; a new round starts only if one more round of the last
round's length still ends within `--seconds`, and the first round always
runs to the end.

With `--trace 0` the last stdout line holds the end-to-end metrics of
untraced invocations; with `--trace 1` each command also runs under
`tracer.py`, and the line holds the per-layer metrics.  Earlier lines
hold the run's provenance and, when traced, the per-command layer
ranking.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS, check

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build" / "perfbench"
TRACER = Path(__file__).resolve().parent / "tracer.py"

SETUP_PROBES = 15
HARD_LIMIT_S = 170.0   # the whole run must end well inside 180 s

PROBE = (
    "import sys, opgraphs, opgraphs.cli, opgraphs.starfield as s; "
    "s.galois_field(int(sys.argv[1]), int(sys.argv[2])); "
    "print(opgraphs.__file__)"
)
WARMUP = ("automorphisms", "--graph", "petersen")
WARMUP_ORDER = "120"

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
              "setup_s": "s", "passed_share": "share"}

# per-layer metric -> (unit, what is read from each traced invocation)
PER_LAYER = {
    "spectral.classify_pairs_s": ("s", "inclusive", "spectral.classify_pairs"),
    "spectral.pairs": ("count", "counter", "spectral.pairs"),
    "spectral.invariance_yield": ("share", "yield", None),
    "linalg.rref_s": ("s", "inclusive", "linalg.rref"),
    "linalg.rref_calls": ("count", "calls", "linalg.rref"),
    "linalg.rank_of_rows_s": ("s", "inclusive", "linalg.rank_of_rows"),
    "linalg.rank_of_rows_calls": ("count", "calls", "linalg.rank_of_rows"),
    "constructions.unitary_generators_s":
        ("s", "inclusive", "constructions.unitary_generators"),
    "constructions.induced_subgroup_s":
        ("s", "self", "constructions.induced_subgroup"),
    "constructions.induced_generators":
        ("count", "counter", "constructions.induced_generators"),
    "autgroup.automorphism_group_s":
        ("s", "self", "autgroup.automorphism_group"),
    "autgroup.refine_colors_s": ("s", "inclusive", "autgroup.refine_colors"),
    "autgroup.refine_calls": ("count", "calls", "autgroup.refine_colors"),
    "autgroup.base_length": ("count", "counter", "autgroup.base_length"),
    "autgroup.strong_generators":
        ("count", "counter", "autgroup.strong_generators"),
    "graphs.build_s": ("s", "inclusive", "graphs.build"),
    "graphs.edges": ("count", "counter", "graphs.edges"),
    "spectral.enumerate_class_s": ("s", "inclusive", "spectral.enumerate_class"),
    "spectral.flags": ("count", "counter", "spectral.flags"),
    "spectral.matrix_s": ("s", "inclusive", "spectral.matrix"),
    "spectral.matrix_calls": ("count", "calls", "spectral.matrix"),
    "spectral.fiber_s": ("s", "inclusive", "spectral.fiber"),
    "spectral.fiber_calls": ("count", "calls", "spectral.fiber"),
    "spectral.adjacent_s": ("s", "inclusive", "spectral.adjacent"),
    "spectral.adjacent_calls": ("count", "calls", "spectral.adjacent"),
    "enumeration.subspaces_s": ("s", "inclusive", "enumeration.subspaces"),
    "enumeration.subspaces_within_s":
        ("s", "inclusive", "enumeration.subspaces_within"),
    "sampling.random_flag_s": ("s", "inclusive", "sampling.random_flag"),
    "lemmas.verify_fiber_lift_s": ("s", "inclusive", "lemmas.verify_fiber_lift"),
    "lemmas.verify_move_equivalence_s":
        ("s", "inclusive", "lemmas.verify_move_equivalence"),
    "counterexamples.census_certificates_s":
        ("s", "inclusive", "counterexamples.census_certificates"),
    "counterexamples.verify_certificate_s":
        ("s", "inclusive", "counterexamples.verify_certificate"),
    "counterexamples.find_rank_only_pair_s":
        ("s", "inclusive", "counterexamples.find_rank_only_pair"),
    "starfield.galois_field_s": ("s", "inclusive", "starfield.galois_field"),
    "report.write_report_s": ("s", "inclusive", "report.write_report"),
    "cli.main_s": ("s", "inclusive", "cli.main"),
    "cli.self_s": ("s", "self", "cli.main"),
    "trace.overhead_s": ("s", "overhead", None),
    "trace.raised": ("count", "raised", None),
    "trace.absent": ("count", "absent", None),
}


class BenchError(Exception):
    """The checkout cannot be benchmarked; exit non-zero, print no result."""



@dataclass
class Invocation:
    index: int            # position of the command in its workload
    argv: list
    traced: bool
    code: int
    wall_s: float         # spawn to checked report
    cpu_s: float          # user + sys of the child, from os.wait4
    rss_mb: float         # the child's ru_maxrss
    report: dict | None
    trace: dict | None
    problems: list


def child_env():
    """The caller's environment without `OPGRAPHS_*` knobs, on `src/`."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("OPGRAPHS_")}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Runner:
    """Spawns one child at a time and measures it with `os.wait4`."""

    def __init__(self, hard_deadline):
        self.env = child_env()
        self.hard_deadline = hard_deadline
        WORK.mkdir(parents=True, exist_ok=True)

    def spawn(self, args):
        """Run `python3 ARGS` to completion.

        Returns (exit code, start, rusage, stdout, stderr).  A child still
        running at the hard deadline is killed and exits negative.
        """
        with tempfile.TemporaryFile(dir=WORK) as out, \
                tempfile.TemporaryFile(dir=WORK) as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args], cwd=ROOT, env=self.env,
                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            timer = threading.Timer(
                max(self.hard_deadline - time.monotonic(), 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return (proc.returncode, start, usage,
                    out.read().decode(errors="replace"),
                    err.read().decode(errors="replace"))

    def invoke(self, workload, index, seed, traced):
        command = workload.commands[index]
        argv = command.resolve(seed)
        trace_path = WORK / f"trace-{os.getpid()}.json"
        args = ([str(TRACER), str(trace_path), *argv] if traced
                else ["-m", "opgraphs", *argv])
        code, start, usage, out, err = self.spawn(args)
        report = trace = None
        try:
            report = json.loads(out)
        except ValueError:
            pass
        if traced:
            try:
                trace = json.loads(trace_path.read_text())
                trace_path.unlink()
            except (OSError, ValueError):
                pass
        problems = check(command, seed, code, report)
        if traced and trace is None:
            problems.append("tracer wrote no trace")
        if problems and err.strip():
            problems.append("stderr: " + err.strip().splitlines()[-1])
        wall = time.perf_counter() - start
        return Invocation(index, argv, traced, code, wall,
                          usage.ru_utime + usage.ru_stime,
                          usage.ru_maxrss / 1024.0, report, trace, problems)


def set_up(runner, workload):
    """Warm the bytecode cache, then time fresh imports plus field tables.

    The warm-up is one untimed CLI call; program caches are per process,
    so every timed child still starts cold.
    """
    code, _, _, out, err = runner.spawn(["-m", "opgraphs", *WARMUP])
    try:
        order = json.loads(out)["results"]["automorphism_order"]
    except (ValueError, KeyError, TypeError):
        order = None
    if code != 0 or order != WARMUP_ORDER:
        raise BenchError(f"warm-up CLI call failed (exit {code}): "
                         f"{err.strip()[-400:]}")
    p, e = workload.field
    times = []
    for _ in range(SETUP_PROBES):
        code, start, _, out, err = runner.spawn(["-c", PROBE, str(p), str(e)])
        times.append(time.perf_counter() - start)
        where = Path(out.strip()).resolve() if code == 0 else None
        if where is None or ROOT / "src" not in where.parents:
            raise BenchError(f"set-up probe did not import opgraphs from "
                             f"{ROOT / 'src'}: {(out + err).strip()[-400:]}")
    return times


def measure(runner, workload, seed, seconds, traced):
    """Closed-loop rounds over the workload's commands."""
    runs = []
    begin = time.monotonic()
    while True:
        round_start = time.monotonic()
        for index in range(len(workload.commands)):
            runs.append(runner.invoke(workload, index, seed, traced=False))
            if traced:
                runs.append(runner.invoke(workload, index, seed, traced=True))
        now = time.monotonic()
        if (any(r.code < 0 for r in runs)
                or now + (now - round_start) > begin + seconds):
            return runs


def summed_medians(workload, runs, value, traced=False):
    """Median of `value` over each command's invocations, summed."""
    total = 0.0
    for index in range(len(workload.commands)):
        vals = [value(r) for r in runs
                if r.index == index and r.traced == traced
                and (r.trace is not None or not traced)]
        if vals:
            total += statistics.median(vals)
    return total


def layer_value(kind, source):
    """Reader of one per-layer quantity from a traced invocation."""
    field = {"inclusive": "inclusive_s", "self": "self_s", "calls": "calls"}
    if kind in field:
        return lambda r: r.trace["layers"].get(source, {}).get(field[kind], 0)
    if kind == "counter":
        return lambda r: r.trace["counters"].get(source, 0)
    if kind == "raised":
        return lambda r: r.trace["raised"]
    return lambda r: len(r.trace["absent"])


def end_to_end_metrics(workload, runs, setup_times):
    untraced = [r for r in runs if not r.traced]
    failed = sum(1 for r in runs if r.problems)
    return {
        "wall_s": summed_medians(workload, runs, lambda r: r.wall_s),
        "cpu_s": summed_medians(workload, runs, lambda r: r.cpu_s),
        "peak_rss_mb": max(r.rss_mb for r in untraced),
        "setup_s": statistics.median(setup_times),
        "passed_share": (len(runs) - failed) / len(runs),
    }


def per_layer_metrics(workload, runs):
    out = {}
    for name, (_, kind, source) in PER_LAYER.items():
        if kind == "yield":
            adjacent = summed_medians(workload, runs, layer_value(
                "counter", "spectral.adjacent_pairs"), traced=True)
            rank2 = summed_medians(workload, runs, layer_value(
                "counter", "spectral.rank2_pairs"), traced=True)
            out[name] = adjacent / rank2 if rank2 else 0.0
        elif kind == "overhead":
            wall = lambda r: r.wall_s
            out[name] = (summed_medians(workload, runs, wall, traced=True)
                         - summed_medians(workload, runs, wall))
        else:
            out[name] = summed_medians(workload, runs,
                                       layer_value(kind, source), traced=True)
    return out


def ranking(trace, key, top=4):
    layers = [(v[key], name) for name, v in trace["layers"].items()
              if name != "cli.main"]
    return [[name, t] for t, name in sorted(layers, reverse=True)[:top]]


def trace_summary(workload, runs):
    """The dominant layers of each command, from its last traced run."""
    summary = []
    for index, command in enumerate(workload.commands):
        traced = [r for r in runs
                  if r.index == index and r.traced and r.trace is not None]
        if not traced:
            continue
        trace = traced[-1].trace
        summary.append({
            "argv": traced[-1].argv,
            "cli.main_s": trace["layers"].get("cli.main", {}).get(
                "inclusive_s"),
            "top_inclusive_s": ranking(trace, "inclusive_s"),
            "top_self_s": ranking(trace, "self_s"),
            "absent": trace["absent"],
            "counter_errors": trace["counter_errors"],
        })
    return summary


def git_commit():
    """The checkout's commit from `.git`, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """sha256 over the package sources, to name the code measured."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args, workload, runs, setup_times, load_before):
    commands = []
    for index, command in enumerate(workload.commands):
        mine = [r for r in runs if r.index == index]
        config = next((r.report.get("config") for r in mine
                       if isinstance(r.report, dict)), None)
        commands.append({
            "argv": command.resolve(args.seed),
            "expected_exit": command.exit_code,
            "config": config,
            "wall_s": [r.wall_s for r in mine if not r.traced],
            "traced_wall_s": [r.wall_s for r in mine if r.traced],
        })
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "setup_probes_s": setup_times,
        "commands": commands,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    runner = Runner(time.monotonic() + HARD_LIMIT_S)
    load_before = os.getloadavg()
    try:
        setup_times = set_up(runner, workload)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    traced = bool(args.trace)
    runs = measure(runner, workload, args.seed, args.seconds, traced)

    print(json.dumps({"provenance": provenance(
        args, workload, runs, setup_times, load_before)}))
    for r in runs:
        if r.problems:
            print(json.dumps({"failure": {"argv": r.argv, "traced": r.traced,
                                          "problems": r.problems}}))
    if traced:
        summary = trace_summary(workload, runs)
        print(json.dumps({"trace": summary}))
        spans = [{"argv": r.argv, "trace": r.trace} for r in runs if r.traced]
        (WORK / f"trace-{workload.name}-seed{args.seed}.json").write_text(
            json.dumps(spans))
        values, units = per_layer_metrics(workload, runs), {
            name: spec[0] for name, spec in PER_LAYER.items()}
    else:
        values, units = end_to_end_metrics(workload, runs, setup_times), \
            END_TO_END
    failed = sum(1 for r in runs if r.problems)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
