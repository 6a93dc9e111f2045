"""Run-to-run spread of every end-to-end metric, the way the driver takes it.

Runs ``run.py --workload W --seed S --seconds RUN_SECONDS --trace 0`` for
``--runs`` seeds on every workload (round-robin, so machine drift hits all
workloads alike) and prints, per (workload, metric), the median and the
distance between the first and third quartile as a share of the median::

    python3 benchmarks/e2e/spread.py [--runs 10] [--first-seed 100]

A spread above a third of the metric's bound means the bound (or the
statistic) is too tight for this machine; ``README.md`` records the
spreads the current bounds were chosen from.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

import spec

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    args = parser.parse_args(argv)

    values: Dict[str, Dict[str, List[float]]] = {
        w.name: {m.name: [] for m in spec.END_TO_END} for w in spec.WORKLOADS}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for workload in values:
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec.RUN_SECONDS), "--trace", "0"],
                stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            for name, metric in result["metrics"].items():
                values[workload][name].append(metric["value"])

    with open(os.path.join(HERE, "out", "spread.json"), "w") as handle:
        json.dump(values, handle, indent=1)
    print(f"{'workload':<24}{'metric':<16}{'median':>12}{'iqr/median':>12}"
          f"{'bound':>7}")
    for workload, metrics in values.items():
        for metric in spec.END_TO_END:
            samples = metrics[metric.name]
            q1, _, q3 = statistics.quantiles(samples, n=4)
            median = statistics.median(samples)
            print(f"{workload:<24}{metric.name:<16}{median:>12.4f}"
                  f"{(q3 - q1) / median:>12.3f}{metric.bound:>7.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
