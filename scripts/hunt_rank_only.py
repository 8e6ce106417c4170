"""Hunt rank-2 pairs that defeat the invariance condition over Q(i).

Runs the targeted perturbation from the diag(1,2,3) coordinate flag
for a range of seeds, re-verifies every certificate from scratch, and
prints the 2x2 witness minor for each hit.

    python scripts/hunt_rank_only.py --seeds 10 --height 4
"""

import argparse

from opgraphs.counterexamples import (
    SearchBudgetError,
    find_rank_only_pair,
    verify_certificate,
)
from opgraphs.spectral import ClassSignature, coordinate_flag
from opgraphs.starfield import QI


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--height", type=int, default=3,
                    help="numerator/denominator bound for perturbations")
    ap.add_argument("--attempts", type=int, default=200)
    args = ap.parse_args()

    one, two, three = QI.parse_fixed("1"), QI.parse_fixed("2"), QI.parse_fixed("3")
    sig = ClassSignature(QI, (one, two, three), (1, 1, 1))
    base = coordinate_flag(sig)

    hits = 0
    for seed in range(args.seeds):
        try:
            found, cert = find_rank_only_pair(
                base, seed=seed, attempts=args.attempts, height=args.height)
        except SearchBudgetError:
            print(f"seed {seed}: budget exhausted")
            continue
        check = verify_certificate(QI, cert)
        w = cert["rank_witness"]
        status = "verified" if check["ok"] else "REJECTED"
        print(f"seed {seed}: {status}  minor rows {w['rows']} cols {w['cols']}"
              f"  det {QI.format(QI.scalar_from_json(w['determinant']))}")
        hits += check["ok"]
    print(f"{hits}/{args.seeds} seeds produced a verified pair")


if __name__ == "__main__":
    main()
