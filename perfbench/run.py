#!/usr/bin/env python3
"""The qtorus benchmark: seeded closed-loop CLI requests with checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload verify_scan --seed 1 --seconds 25 --trace 0

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` the
per-layer metrics of a traced run.  The metric names and units come from
BENCHMARK.json.  The last line of standard output is one JSON object; the
lines above it are a readable table.  The exit status is 0 only when every
output check passed.  See NOTES.md for the workloads and the recorded
baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Fresh interpreters started to time set-up; the median is reported.
SETUP_PROBES = 7
# A traced run replays a fixed number of rounds, so its counts repeat exactly
# for a seed; the same rounds run untraced first for the overhead figure.
TRACE_ROUNDS = 3
# Every child must end before this many seconds from the start.
DEADLINE_S = 170


class BenchError(Exception):
    pass


def _child(role: str, deadline: float, *extra: str) -> tuple[dict, float]:
    """Run one worker process; returns its JSON result and its start time."""
    argv = [sys.executable, str(HERE / "worker.py"), role, *extra]
    started = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(deadline - started, 1))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {role} ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {role} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1]), started


def _table(rows: list[tuple[str, float, str, str]]) -> None:
    for name, value, unit, note in rows:
        print(f"  {name:40s} {value:14.6g} {unit:8s} {note}")


def end_to_end(args, deadline: float):
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    for _ in range(SETUP_PROBES):
        ready, started = _child("setup", deadline, *common)
        setups.append(ready["ready"] - started)
    loop, _ = _child("loop", deadline, *common, "--seconds", str(args.seconds))
    lat = loop["latencies"]
    values = {
        "setup_s": statistics.median(setups),
        "requests_per_s": (loop["attempted"] - loop["failed"]) / sum(lat),
        "latency_s_p50": stats.percentile(lat, 50),
        "latency_s_p90": stats.percentile(lat, 90),
        "peak_rss_mib": loop["peak_rss_mib"],
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters",
        "requests_per_s": f"{loop['attempted'] - loop['failed']} requests in {sum(lat):.3f} s",
        "latency_s_p50": f"n={len(lat)}",
        "latency_s_p90": f"n={len(lat)}",
        "peak_rss_mib": "loop process",
    }
    print(f"{args.workload} seed={args.seed}: {loop['attempted']} requests, "
          f"{loop['fail_verdicts']} FAIL verdicts (exit 1, counted as completed)")
    return values, notes, loop["problems"], loop["attempted"], loop["failed"]


def per_layer(args, deadline: float):
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--rounds", str(TRACE_ROUNDS)]
    plain, _ = _child("loop", deadline, *common)
    traced, _ = _child("loop", deadline, *common, "--trace")
    plain_wall, traced_wall = sum(plain["latencies"]), sum(traced["latencies"])
    values = dict(traced["layers"])
    values["trace.overhead_frac"] = traced_wall / plain_wall - 1
    selfs = traced["self_times"]
    print(f"{args.workload} seed={args.seed}: {traced['attempted']} requests "
          f"({TRACE_ROUNDS} rounds), untraced {plain_wall:.3f} s, traced "
          f"{traced_wall:.3f} s")
    print(f"  self time by span; sums to {sum(selfs.values()):.3f} s of "
          f"{traced_wall:.3f} s traced wall time")
    for name, value in sorted(selfs.items(), key=lambda kv: -kv[1]):
        print(f"    {name:38s} {value:10.4f} s {value / traced_wall:7.1%}")
    problems = plain["problems"] + traced["problems"]
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    return values, {}, problems, attempted, failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    deadline = time.perf_counter() + DEADLINE_S

    if not (ROOT / "src" / "qtorus" / "__init__.py").is_file():
        print(f"error: no qtorus sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        gate, _ = _child("gate", deadline, "--workload", args.workload)
        measure = per_layer if args.trace else end_to_end
        values, notes, problems, attempted, failed = measure(args, deadline)
    except (BenchError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    attempted += gate["attempted"]
    failed += gate["failed"]
    problems = gate["problems"] + problems

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    _table([(name, m["value"], m["unit"], notes.get(name, ""))
            for name, m in metrics.items()]
           + [("failed_frac", failed / attempted, "ratio",
               f"{failed} of {attempted} requests, gate included")])
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
