"""Component structure of one finite class, slot pair by slot pair.

For every slot pair (i, j): connected components of the subgraph kept
to type-(i, j) edges, against the fibers of contracting slot i into j.
For every slot i: components of the subgraph avoiding slot i, against
the blocks of the i-th eigenspace.  Ends with global connectivity.

    python scripts/component_census.py
    python scripts/component_census.py --p 2 --e 2 --sigma 0,2 --dims 1,2
"""

import argparse
import sys
from itertools import combinations

from opgraphs.cli import CliError, _compare_partitions, _resolve, _signature
from opgraphs.graphs import LabeledGraph


def partition_profile(parts):
    sizes = {}
    for p in parts:
        sizes[len(p)] = sizes.get(len(p), 0) + 1
    return " + ".join(f"{n}x{s}" for s, n in sorted(sizes.items()))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--p", type=int)
    ap.add_argument("--e", type=int)
    ap.add_argument("--sigma")
    ap.add_argument("--dims")
    args = ap.parse_args()

    field, sigma_tokens, dims, _, _ = _resolve(args)
    graph = LabeledGraph.build(_signature(field, sigma_tokens, dims))
    k = len(dims)
    print(f"class on {graph.n} vertices, {len(graph.edges)} edges")

    for i, j in combinations(range(k), 2):
        comps = graph.ij_components(i, j)
        if k == 2:
            # a two-slot class has no contraction, hence no fibers
            print(f"pair ({i},{j}): components {partition_profile(comps)}; "
                  f"no fibers (two slots)")
            continue
        fibers = graph.fiber_partition(i, j)
        inside, equal = _compare_partitions(comps, fibers)
        print(f"pair ({i},{j}): components {partition_profile(comps)}; "
              f"fibers {partition_profile(fibers)}; "
              f"inside={inside} equal={equal}")

    for i in range(k):
        comps = graph.avoiding_components(i)
        blocks = sorted(graph.eigenspace_blocks(i).values())
        print(f"avoid {i}:   components {partition_profile(comps)}; "
              f"blocks {partition_profile(blocks)}; "
              f"equal={sorted(comps) == blocks}")

    print(f"global:    {len(graph.components())} component(s)")


if __name__ == "__main__":
    try:
        main()
    except (CliError, ValueError) as e:
        sys.exit(f"error: {e}")
