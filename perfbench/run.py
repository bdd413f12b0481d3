"""The repository benchmark: one command, four workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fuzz --seed 1 --seconds 20 --trace 0

``--trace 0`` measures with tracing off and reports the end-to-end
metrics; ``--trace 1`` reports the per-layer metrics and prints one
table per workload whose rows sum to the traced wall time.  The last
line of standard output is the result as one JSON object; results and
spans are also written under ``perfbench/out/``.  See ``README.md`` in
this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOADS = ("fuzz", "campaign", "service", "prove")


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "start_method": multiprocessing.get_start_method(),
        "service_connections": "2 persistent HTTP/1.1",
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args: argparse.Namespace) -> dict:
    """Run one workload; returns the result object (also written out)."""
    import workloads

    OUT.mkdir(exist_ok=True)
    trace = bool(args.trace)
    if args.workload == "fuzz":
        outcome = workloads.run_fuzz(args.seed, args.seconds, trace)
    elif args.workload == "campaign":
        outcome = workloads.run_campaign_workload(
            args.seed, args.seconds, trace, OUT)
    elif args.workload == "service":
        outcome = workloads.run_service(args.seed, args.seconds, trace, OUT)
    else:
        outcome = workloads.run_prove(args.seed, args.seconds, trace)

    units = workloads.LAYER_METRICS if trace else workloads.E2E_METRICS
    metrics = dict(outcome.metrics)
    if not trace:
        metrics["ok_share"] = 1.0 - outcome.failed / outcome.attempted
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    facts = machine_facts()
    for line in outcome.notes:
        print(line)
    print("facts: " + json.dumps(facts, sort_keys=True))
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed,
         "seconds": args.seconds, "facts": facts, "notes": outcome.notes,
         **result}, indent=2))
    if outcome.spans is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(outcome.spans))
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no program source at {SRC}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
