#!/usr/bin/env python3
"""Scan how fast the shifted torus-link invariants converge to the character
series: prints the measured agreement order for each colour.

Examples:
    python scripts/agreement_scan.py --rank 3 --components 2 --p 2 --max-colour 14
    python scripts/agreement_scan.py --rank 2 --components 3 --p 2 --max-colour 20
"""

import argparse

from qtorus import verify_singlet_theorem, verify_triplet_theorem


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rank", type=int, default=2)
    parser.add_argument("--components", type=int, default=2)
    parser.add_argument("--p", type=int, default=2)
    parser.add_argument("--max-colour", type=int, default=12)
    parser.add_argument("--order", type=int, default=16)
    args = parser.parse_args()

    triplet = args.components == args.rank + 1
    kind = "triplet" if triplet else "singlet"
    print(
        f"# {kind} comparison, rank={args.rank} components={args.components} "
        f"p={args.p}, series compared below q^{args.order}"
    )
    print(f"{'colour':>7}  {'order':>8}  {'threshold':>9}  verdict")
    for colour in range(0, args.max_colour + 1):
        if triplet:
            report = verify_triplet_theorem(
                args.rank, args.p, colour % args.rank, colour, args.order
            )
        else:
            report = verify_singlet_theorem(
                args.rank, args.components, args.p, colour, args.order
            )
        order = "full" if report.order is None else str(report.order)
        verdict = "pass" if report.passed else "FAIL"
        print(f"{colour:>7}  {order:>8}  {str(report.threshold):>9}  {verdict}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
