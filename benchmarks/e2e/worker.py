"""One round of one workload in a fresh process (spawned by ``run.py``).

Single process, one asyncio loop, no threads.  Prints exactly one JSON line
on stdout: set-up time, peak RSS, attempted/failed counts, the measured
segments and — on a traced round — the layer metrics.  Spans of a traced
round are written to ``out/trace_<workload>.json``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import sys
import time


async def run_round(args) -> dict:
    from workloads import CLASSES, client_layer   # imports repro: set-up time

    workload = CLASSES[args.workload](args.seed, traced=bool(args.trace))
    await workload.setup()
    setup_seconds = time.time() - args.spawned_at
    try:
        segments = await workload.measure(args.seconds)
        await workload.check()
        layers = ({**await workload.layers(), **client_layer(segments)}
                  if args.trace else {})
    finally:
        await workload.close()
    if args.trace:
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out",
                            f"trace_{args.workload}.json")
        with open(path, "w") as handle:
            json.dump(workload.spans, handle)
    return {
        "workload": args.workload, "seed": args.seed, "traced": bool(args.trace),
        "setup_s": setup_seconds,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": workload.attempted, "failed": workload.failed,
        "segments": segments, "layers": layers,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, default=time.time(),
                        help="time.time() when the parent spawned this process")
    args = parser.parse_args(argv)
    record = asyncio.run(run_round(args))
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
