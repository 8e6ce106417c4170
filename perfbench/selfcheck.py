"""Self-checks of the benchmark harness on tiny configs.

    python3 perfbench/selfcheck.py

Runs `automorphisms --graph petersen` and a flagship `enumerate` through
the same code as the benchmark and checks that reports parse, that a
wrong expectation lowers `passed_share`, that traced self times add up
to `cli.main`, that a layer the program lacks is reported absent, and
that BENCHMARK.json names the metrics the harness reports.  Exits 0
when every check passes.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import replace

import run
from tracer import Tracer
from workloads import Command, Workload

PETERSEN = Command(("automorphisms", "--graph", "petersen"), 0, {
    "results.vertex_count": 10,
    "results.automorphism_order": "120",
})
ENUMERATE = Command(("enumerate", "--fixture", "fixtures/flagship.json"), 0, {
    "results.vertex_count": 378,
})


def checks():
    runner = run.Runner(time.monotonic() + 120)
    tiny = Workload("tiny", (3, 1), (PETERSEN, ENUMERATE))
    good = [runner.invoke(tiny, i, 0, traced=False) for i in range(2)]
    yield "reports parse and pass their expectations", all(
        isinstance(r.report, dict) and not r.problems for r in good)
    yield "passed_share is 1 when all pass", run.end_to_end_metrics(
        tiny, good, [0.1])["passed_share"] == 1.0

    for label, wrong in (
            ("field", replace(PETERSEN, fields={
                "results.automorphism_order": "121"})),
            ("exit code", replace(PETERSEN, exit_code=2)),
            ("missing field", replace(PETERSEN, fields={
                "results.no_such_field": 1}))):
        bad = Workload("wrong", (3, 1), (wrong,))
        runs = [runner.invoke(bad, 0, 0, traced=False)]
        yield (f"a wrong expected {label} lowers passed_share",
               bool(runs[0].problems)
               and run.end_to_end_metrics(bad, runs, [0.1])["passed_share"]
               == 0.0)

    traced = runner.invoke(tiny, 1, 0, traced=True)
    layers = traced.trace["layers"] if traced.trace else {}
    root = layers.get("cli.main", {})
    others = sum(v["self_s"] for k, v in layers.items() if k != "cli.main")
    yield "traced run passes its expectation", not traced.problems
    yield "layer self times plus cli.self_s sum to cli.main_s", bool(root) and \
        abs(others + root["self_s"] - root["inclusive_s"]) < 1e-6
    yield "generator layers are timed across their iteration", \
        layers.get("enumeration.subspaces", {}).get("inclusive_s", 0) > 0
    yield "result counters are read", \
        traced.trace["counters"].get("spectral.flags") == 378

    metrics = run.per_layer_metrics(tiny, good + [traced])
    yield "per-layer metrics cover the table", set(metrics) == set(run.PER_LAYER)

    tracer = Tracer()
    missing = (("spectral.gone", "opgraphs.spectral", "no_such_function"),
               ("gone.module", "opgraphs.no_such_module", "f"),
               ("graphs.gone", "opgraphs.graphs", "LabeledGraph.no_such"))
    tracer.install(missing)
    yield "missing layers are reported absent", \
        tracer.absent == [m[0] for m in missing]

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    yield "BENCHMARK.json end_to_end matches the harness", {
        m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    yield "BENCHMARK.json per_layer matches the harness", {
        m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: s[0] for name, s in run.PER_LAYER.items()}
    yield "BENCHMARK.json workloads match the harness", \
        [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def main():
    sys.path.insert(0, str(run.ROOT / "src"))
    failed = 0
    for label, ok in checks():
        print(("ok   " if ok else "FAIL ") + label)
        failed += not ok
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
