"""The benchmark's workloads: real `opgraphs` CLI invocations and the
result fields each one must report.

A command is checked on its exit code and on named result fields, never
on whole-report bytes, so counters added to reports later do not read as
failures.  Field paths are dotted; `*` applies the rest of the path to
every list item (all must match) and `#` takes a list's length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

FLAGSHIP = "fixtures/flagship.json"
QI3 = "fixtures/qi3.json"


@dataclass(frozen=True)
class Command:
    """One CLI invocation; `{seed}` in argv becomes the benchmark seed."""

    argv: tuple
    exit_code: int
    fields: dict          # dotted result path -> expected value

    def resolve(self, seed):
        return [a.replace("{seed}", str(seed)) for a in self.argv]


@dataclass(frozen=True)
class Workload:
    name: str
    field: tuple          # (p, e) of the GF(p^2e) table built at set-up
    commands: tuple


WORKLOADS = {
    w.name: w
    for w in (
        # pair census (spectral.classify_pairs); builds no group
        Workload("census", (3, 1), (
            Command(("counterexample", "--fixture", FLAGSHIP, "--limit", "3"), 0, {
                "results.total_pairs": 71253,
                "results.adjacent_count": 2835,
                "results.rank_only_count": 33264,
                "results.condition_mismatches": 0,
                "results.outcome": "certified",
                "results.certificates.#": 3,
                "results.verification.#": 3,
                "results.verification.*.ok": True,
            }),
            Command(("verify-lemma", "--fixture", FLAGSHIP,
                     "--lemma", "a1a2-equiv"), 0, {
                "results.pairs": 71253,
                "results.adjacent": 2835,
                "results.rank_without_invariance": 33264,
                "results.mismatches": 0,
                "results.holds": True,
            }),
        )),
        # induced group (constructions.unitary_generators) and a seeded
        # automorphism search on the sparse flagship graph; no census
        Workload("symmetry", (3, 1), (
            Command(("automorphisms", "--fixture", FLAGSHIP,
                     "--compare-induced"), 0, {
                "results.vertex_count": 378,
                "results.edge_count": 2835,
                "results.induced_order": "72576",
                "results.automorphism_order": "72576",
                "results.index_of_induced": 1,
            }),
        )),
        # the automorphism engine on dense graphs over GF(4): K40, then a
        # 240-vertex graph where LabeledGraph.build is a large share
        Workload("dense", (2, 1), (
            Command(("automorphisms", "--p", "2", "--e", "1", "--sigma", "0,1",
                     "--dims", "1,3"), 0, {
                "results.vertex_count": 40,
                "results.edge_count": 780,
                "results.automorphism_order": str(math.factorial(40)),
            }),
            Command(("automorphisms", "--p", "2", "--e", "1", "--sigma", "0,1",
                     "--dims", "2,2"), 0, {
                "results.vertex_count": 240,
                "results.edge_count": 8040,
                "results.automorphism_order": "103680",
            }),
        )),
        # fresh flags: fibers and operator assembly over GF(9), and exact
        # Q(i) elimination; exit 2 of `lift` is the paper's finite-field
        # dichotomy (945 liftable, 1008 blocked), so it is the expected code
        Workload("lemmas", (3, 1), (
            Command(("verify-lemma", "--fixture", FLAGSHIP, "--lemma", "lift"), 2, {
                "results.contracted_edges": 1953,
                "results.liftable": 945,
                "results.blocked_by_degenerate_meet": 1008,
                "results.exceptions_to_dichotomy": 0,
            }),
            Command(("verify-lemma", "--fixture", QI3, "--lemma", "a1a2-equiv",
                     "--samples", "200", "--seed", "{seed}"), 0, {
                "config.seed": "{seed}",
                "results.mode": "sampled",
                "results.holds": True,
                "results.mismatches": 0,
            }),
            Command(("counterexample", "--fixture", QI3, "--seed", "{seed}"), 0, {
                "config.seed": "{seed}",
                "results.outcome": "certified",
                "results.verification.ok": True,
            }),
        )),
    )
}


_MISSING = object()


def dig(obj, path):
    """Values at a dotted path; a list because `*` fans out."""
    values = [obj]
    for key in path.split("."):
        out = []
        for v in values:
            if key == "*":
                out.extend(v if isinstance(v, list) else [_MISSING])
            elif key == "#":
                out.append(len(v) if isinstance(v, list) else _MISSING)
            elif isinstance(v, dict):
                out.append(v.get(key, _MISSING))
            else:
                out.append(_MISSING)
        values = out
    return values


def check(command, seed, code, report):
    """Reasons the invocation differs from its expectation (empty: passed)."""
    problems = []
    if code != command.exit_code:
        problems.append(f"exit {code}, expected {command.exit_code}")
    if report is None:
        problems.append("no JSON report on stdout")
        return problems
    for path, want in command.fields.items():
        if want == "{seed}":
            want = seed
        got = dig(report, path)
        if not got or any(v is _MISSING or v != want for v in got):
            shown = ["<missing>" if v is _MISSING else v for v in got]
            problems.append(f"{path} = {shown}, expected {want!r}")
    return problems
