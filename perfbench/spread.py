#!/usr/bin/env python3
"""Run the benchmark once per seed and report each end-to-end metric's
median and spread (interquartile distance over median) against its bound.

    python3 perfbench/spread.py --workload char_order --seeds 1-10

Runs are sequential; each is a full ``run.py`` invocation.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from stats import relative_spread  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(first, last + 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=200)
        result = json.loads(proc.stdout.splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
            return 1
        row = []
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
            row.append(f"{name}={metric['value']:.5g}")
        print(f"seed {seed}: " + " ".join(row), flush=True)
    print(f"{args.workload}: median, spread, bound")
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        spread = relative_spread(vals) if len(vals) >= 2 else float("nan")
        print(f"  {m['name']:20s} {statistics.median(vals):12.6g} "
              f"{spread:8.3f} {m['bound']:6.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
