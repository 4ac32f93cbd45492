"""The repository's benchmark: four seeded workloads, one command.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload gtd-planted --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` is a separate, fixed-size run that reports the per-layer
metrics from spans around each layer's public functions.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a
report with the environment stamp, sample counts and the service's
query percentiles.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import common

SETUP_REPS = 3
TRACE_PAIRS = 2


def _spec() -> dict:
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as src:
        return json.load(src)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny inputs and one set-up, for the smoke test")
    return parser.parse_args(argv)


def run(args) -> dict:
    import batch
    import serve

    tiny = args.scale == "tiny"
    reps = 1 if tiny else SETUP_REPS
    if args.workload == "serve-mixed":
        if args.trace:
            return serve.trace(args.seed, tiny)
        return serve.measure(args.seed, args.seconds, tiny, reps)
    if args.trace:
        return batch.trace(args.workload, args.seed, TRACE_PAIRS, tiny)
    return batch.measure(args.workload, args.seed, args.seconds, tiny, reps)


def main(argv=None) -> int:
    args = _parse(argv)
    if not common.have_sources():
        print(f"error: no sources at {common.SRC}; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    spec = _spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    common.adopt_orphans()
    try:
        result = run(args)
    finally:
        common.end_children()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        value = result["metrics"].get(metric["name"], 0.0)
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    attempted, failed = result["attempted"], result["failed"]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": common.environment(result.get("pool_min_cells")),
        "failed_frac": failed / attempted,
        "samples": result["samples"],
        "query": result.get("query"),
        "problems": result.get("problems", [])[:10],
        "raw": result.get("raw"),
        "scale_median": result.get("scale_median"),
    }
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
