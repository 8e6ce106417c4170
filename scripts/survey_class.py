"""Survey one finite conjugacy class end to end.

Enumerates the class, counts every unordered pair by adjacency verdict
(one row, scaled by the certified transitive unitary action), builds
the labeled graph, and measures the induced automorphism group against
the full one.  Defaults to the three-line class over GF(9)^3.

    python scripts/survey_class.py
    python scripts/survey_class.py --p 2 --e 2 --sigma 0,2 --dims 1,2
"""

import argparse
import sys
import time

from opgraphs.autgroup import automorphism_group
from opgraphs.cli import CliError, _resolve, _signature
from opgraphs.constructions import induced_subgroup, orbit_census
from opgraphs.graphs import LabeledGraph
from opgraphs.spectral import enumerate_class


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--p", type=int)
    ap.add_argument("--e", type=int)
    ap.add_argument("--sigma")
    ap.add_argument("--dims")
    ap.add_argument("--full-group", action="store_true",
                    help="also run the backtracking search for Aut (slow on "
                         "large or complete graphs)")
    args = ap.parse_args()

    field, sigma_tokens, dims, _, _ = _resolve(args)
    sig = _signature(field, sigma_tokens, dims)

    t0 = time.perf_counter()
    flags = enumerate_class(sig)
    print(f"vertices            {len(flags)}   "
          f"({time.perf_counter() - t0:.2f}s)")

    t0 = time.perf_counter()
    census = orbit_census(flags)
    print(f"pairs               {census.total}   "
          f"({time.perf_counter() - t0:.2f}s)")
    print(f"  adjacent          {census.adjacent_count}")
    print(f"  rank-only         {census.rank_only_count}")
    print(f"  rank != 2         {census.rank_other}")
    print(f"  mismatches        {census.mismatch_count}")

    graph = LabeledGraph.build(sig, flags=flags)
    degrees = sorted({len(nbrs) for nbrs in graph.adjacency()})
    print(f"edges               {len(graph.edges)}   degrees {degrees}")
    per_type = {}
    for t in graph.edge_type.values():
        per_type[t] = per_type.get(t, 0) + 1
    for t in sorted(per_type):
        print(f"  type {t}        {per_type[t]}")
    print(f"components          {len(graph.components())}")

    t0 = time.perf_counter()
    chain, gens = induced_subgroup(graph)
    print(f"induced group       {chain.order()}   "
          f"from {len(gens)} generators "
          f"({time.perf_counter() - t0:.2f}s)")
    if args.full_group:
        t0 = time.perf_counter()
        full = automorphism_group(
            graph.adjacency(),
            known_generators=[perm for _, _, perm in gens])
        print(f"full group          {full.order()}   "
              f"({time.perf_counter() - t0:.2f}s)")
        print(f"index               {full.order() // chain.order()}")


if __name__ == "__main__":
    try:
        main()
    except (CliError, ValueError) as e:
        sys.exit(f"error: {e}")
