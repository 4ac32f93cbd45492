"""Run one workload over several seeds and report each metric's spread.

Usage::

    python3 perfbench/spread.py --workload peel-dense --seeds 10 [--first 1]

For each end-to-end metric it prints the median and the quartile
spread ``(q3 - q1) / median`` from ``statistics.quantiles(values, n=4)``
next to the metric's bound from ``BENCHMARK.json``.  A steady
benchmark keeps every spread but ``setup_s``'s well inside its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import common


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--first", type=int, default=1)
    args = parser.parse_args(argv)
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as src:
        spec = json.load(src)
    values: dict[str, list[float]] = {}
    for seed in range(args.first, args.first + args.seeds):
        out = subprocess.run(
            [sys.executable, os.path.join(common.ROOT, "perfbench", "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, check=True, cwd=common.ROOT)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} failed", file=sys.stderr)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
            flush=True)
    for metric in spec["end_to_end"]:
        got = values[metric["name"]]
        q1, _, q3 = statistics.quantiles(got, n=4)
        median = statistics.median(got)
        print(f"{metric['name']:>14} median {median:.4g} "
              f"spread {(q3 - q1) / median:.3f} bound {metric['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
