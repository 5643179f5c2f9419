"""One benchmark process.  ``run.py`` starts a fresh one for each role, so the
program's caches start cold in every measured loop.

Roles:
  setup   import qtorus and generate the inputs, then report the clock
  gate    correctness gate: the CLI goldens and the default-seed digest
  loop    the closed loop: whole rounds for --seconds, or exactly --rounds
  digest  print the default-seed digests to record in digests.json

Each role prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

# Rounds generated up front: far more than a run completes, so a faster
# program never runs out of fresh inputs.
ROUNDS_GENERATED = 400


def _serve(parser, run, config_from_args, argv: list[str]) -> tuple[int, str]:
    """One request as the CLI runs it; errors map to exit status 2 as in main()."""
    try:
        return run(config_from_args(parser.parse_args(argv)))
    except (ValueError, ZeroDivisionError) as err:
        return 2, f"error: {err}"
    except Exception as err:  # a crash still counts as one failed request
        return 2, f"crash: {type(err).__name__}: {err}"


def _cli():
    from qtorus.cli import build_parser, config_from_args, run

    parser = build_parser()
    return lambda argv: _serve(parser, run, config_from_args, argv)


def role_setup(args) -> dict:
    import workloads

    _cli()
    workloads.rounds(args.workload, args.seed, ROUNDS_GENERATED)
    return {"ready": time.perf_counter()}


def _problem(checker, argv: list[str], code: int, out: str) -> str | None:
    """One line naming what is wrong with a response, or None if it is correct."""
    bad = checker.check(argv, code, out) if code != 2 else [out]
    return " ".join(argv) + ": " + "; ".join(bad) if bad else None


def _default_round(workload: str, serve) -> list[tuple[list[str], int, str]]:
    import workloads

    (first,) = workloads.rounds(workload, workloads.DEFAULT_SEED, 1)
    return [(argv, *serve(argv)) for argv in first]


def role_gate(args) -> dict:
    import checks

    serve = _cli()
    problems = checks.golden_problems(serve, ROOT / "tests" / "golden")
    responses = _default_round(args.workload, serve)
    checker = checks.Checker()
    problems += filter(None, (_problem(checker, *r) for r in responses))
    recorded = json.loads((HERE / "digests.json").read_text())[args.workload]
    found = checks.digest(responses)
    if found != recorded:
        problems.append(f"default-seed digest {found[:16]} != recorded {recorded[:16]}")
    return {"attempted": len(checks.GOLDEN_CASES) + len(responses),
            "failed": len(problems), "problems": problems}


def role_digest(args) -> dict:
    import checks
    import workloads

    serve = _cli()
    return {w: checks.digest(_default_round(w, serve)) for w in workloads.WORKLOADS}


def role_loop(args) -> dict:
    import checks
    import stats
    import workloads

    serve = _cli()
    batches = workloads.rounds(args.workload, args.seed, ROUNDS_GENERATED)
    if args.rounds is not None:
        batches = batches[: args.rounds]
    tracer = None
    if args.trace:
        from tracer import ROOT_SPAN, Tracer

        tracer = Tracer()
        tracer.install()
    latencies: list[float] = []
    responses = []
    checker = checks.Checker()
    problems: list[str] = []
    need = stats.min_samples(90)
    for batch in batches:
        for argv in batch:
            if tracer is not None:
                span = tracer.open(ROOT_SPAN)
            start = time.perf_counter()
            code, out = serve(argv)
            latencies.append(time.perf_counter() - start)
            if tracer is not None:
                tracer.close(span)
                tracer.counts["cli.output_bytes"] += len(out.encode())
                responses.append((argv, code, out))
            elif problem := _problem(checker, argv, code, out):
                problems.append(problem)
        if args.rounds is None and sum(latencies) >= args.seconds and len(latencies) >= need:
            break
    result = {
        "latencies": latencies,
        "attempted": len(latencies),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.uninstall()
        problems += filter(None, (_problem(checker, *r) for r in responses))
        out_dir = HERE / "out"
        tracer.write(out_dir / f"spans_{args.workload}_{args.seed}.json")
        result["layers"] = tracer.metrics()
        result["self_times"] = tracer.self_time_table()
    result.update(failed=len(problems), problems=problems,
                  fail_verdicts=checker.fail_verdicts)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("role", choices=["setup", "gate", "loop", "digest"])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    role = {"setup": role_setup, "gate": role_gate, "loop": role_loop,
            "digest": role_digest}[args.role]
    print(json.dumps(role(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
