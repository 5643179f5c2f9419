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
    try:
        return scan(args)
    except ValueError as err:  # a flag the library rejects: usage and the reason, exit 2
        parser.error(str(err))


def scan(args: argparse.Namespace) -> int:
    if args.max_colour < 0:
        raise ValueError(f"--max-colour must be at least 0, got {args.max_colour}")
    triplet = args.components == args.rank + 1
    kind = "triplet" if triplet else "singlet"
    lines = rows(args, triplet)
    first = next(lines)  # colour 0 hands every flag to the library before any output
    print(
        f"# {kind} comparison, rank={args.rank} components={args.components} "
        f"p={args.p}, series compared below q^{args.order}"
    )
    print(f"{'colour':>7}  {'order':>8}  {'threshold':>9}  verdict")
    print(first)
    for line in lines:
        print(line)
    return 0


def rows(args: argparse.Namespace, triplet: bool):
    """One table line per colour, each computed as it is read."""
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
        yield f"{colour:>7}  {order:>8}  {str(report.threshold):>9}  {verdict}"


if __name__ == "__main__":
    raise SystemExit(main())
