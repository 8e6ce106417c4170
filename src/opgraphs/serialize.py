"""JSON and DOT input/output for flags, pairs, graphs, and groups.

Scalars serialize through their field (rational components as
fraction strings, finite-field elements as coefficient vectors over
the prime field), so files round-trip exactly and diff cleanly.
"""

from __future__ import annotations

import json

from .linalg import Subspace
from .spectral import ClassSignature, EigenFlag
from .starfield import field_from_descriptor


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def save_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# pair files: two flags of one class, the adjacency command's input


def pair_to_json(a: EigenFlag, b: EigenFlag):
    sig = a.signature
    return {
        "field": sig.field.descriptor(),
        "signature": sig.to_json(),
        "a": [X.to_json() for X in a.spaces],
        "b": [X.to_json() for X in b.spaces],
    }


def pair_from_json(obj):
    field = field_from_descriptor(obj["field"])
    sig = ClassSignature.from_json(field, obj["signature"])

    def load(spaces):
        return EigenFlag(sig, [Subspace.from_json(field, s) for s in spaces])

    return load(obj["a"]), load(obj["b"])


def save_pair(path, a, b):
    save_json(path, pair_to_json(a, b))


def load_pair(path):
    return pair_from_json(load_json(path))


# ---------------------------------------------------------------------------
# partitions and groups


def group_to_json(order, generators):
    """Generators as permutation arrays; the order as a decimal string,
    since group orders outgrow doubles."""
    return {"order": str(order), "generators": [list(g) for g in generators]}


def partition_to_json(parts):
    return [list(p) for p in parts]


# ---------------------------------------------------------------------------
# DOT text, one color per edge label

EDGE_PALETTE = ("#1b9e77", "#d95f02", "#7570b3",
                "#e7298a", "#66a61e", "#e6ab02")


def graph_to_dot(graph, name="classgraph"):
    edges = graph.edges
    labels = [graph.label(u, v) for u, v in edges]
    types = sorted(set(labels))
    color = {t: EDGE_PALETTE[i % len(EDGE_PALETTE)]
             for i, t in enumerate(types)}
    lines = [f"graph {name} {{", "  node [shape=point];"]
    for t in types:
        lines.append(f"  // slots {t[0]},{t[1]} -> {color[t]}")
    for (u, v), t in zip(edges, labels):
        lines.append(f'  v{u} -- v{v} [color="{color[t]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def adjacency_to_dot(adjlist, labels=None, name="graph"):
    lines = [f"graph {name} {{"]
    if labels is not None:
        for v, lab in enumerate(labels):
            lines.append(f'  v{v} [label="{lab}"];')
    for u, nbrs in enumerate(adjlist):
        for v in nbrs:
            if v > u:
                lines.append(f"  v{u} -- v{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
