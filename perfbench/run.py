"""The repository's benchmark: the in-transit loop and the campaign service.

Usage::

    python3 perfbench/run.py --workload insitu-train --seed 1 --seconds 15 --trace 0

Workloads: ``insitu-train``, ``insitu-produce``, ``campaign-service``
(see ``perfbench/README.md``).  ``--trace 0`` measures the end-to-end
metrics with nothing traced; ``--trace 1`` wraps each layer's entry points
and reports the per-layer metrics, writing the spans to
``perfbench/out/<workload>-seed<seed>.trace.jsonl`` when the run ends.
Outputs are checked after the timed region; the last line printed is one
JSON object, and the exit code is 1 when a check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict

import benchenv

def declared_units(trace: bool) -> Dict[str, str]:
    """Metric name -> unit from BENCHMARK.json, the one list of metrics."""
    with open(os.path.join(benchenv.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        document = json.load(handle)
    return {metric["name"]: metric["unit"]
            for metric in document["per_layer" if trace else "end_to_end"]}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("insitu-train", "insitu-produce",
                                 "campaign-service"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    benchenv.pin_threads()
    benchenv.adopt_orphans()
    try:
        return measure(args)
    finally:
        # every process the run started has ended before the result counts
        benchenv.reap_children()


def measure(args: argparse.Namespace) -> int:
    try:
        benchenv.use_source_tree()
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    from tracer import write_jsonl

    environment = benchenv.environment_record()
    print("# environment " + json.dumps(environment, sort_keys=True))
    if args.workload == "campaign-service":
        from service_load import run_campaign_service
        outcome = run_campaign_service(args.seed, args.seconds,
                                       bool(args.trace))
    else:
        from insitu import run_insitu
        outcome = run_insitu(args.workload, args.seed, args.seconds,
                             bool(args.trace))

    units = declared_units(bool(args.trace))
    undeclared = set(outcome.metrics) - set(units)
    missing = set(units) - set(outcome.metrics)
    if undeclared or (missing and not args.trace):
        raise KeyError(f"metrics differ from BENCHMARK.json: undeclared "
                       f"{sorted(undeclared)}, missing {sorted(missing)}")
    # a layer the workload does not run reports 0
    metrics = {name: float(outcome.metrics.get(name, 0.0)) for name in units}
    for note in outcome.notes:
        print(f"# {note}")
    for name, value in metrics.items():
        print(f"{name:34s} {value:14.6g} {units[name]}")
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}")
    if args.trace:
        os.makedirs(benchenv.OUT_DIR, exist_ok=True)
        path = os.path.join(benchenv.OUT_DIR, f"{args.workload}-seed"
                            f"{args.seed}.trace.jsonl")
        write_jsonl(path, {"workload": args.workload, "seed": args.seed,
                           "environment": environment},
                    outcome.spans)
        print(f"# spans written to {os.path.relpath(path)}")
    correct = not outcome.problems
    print(json.dumps({
        "correct": correct, "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
