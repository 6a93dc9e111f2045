"""The repo benchmark: five workloads, end-to-end metrics, per-layer trace.

Run from the repository root (``src/`` is put on the workers' path here)::

    python3 benchmarks/e2e/run.py                      # all workloads + traced round
    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py --smoke              # 1 round, 1 segment each
    python3 benchmarks/e2e/run.py --list
    python3 benchmarks/e2e/run.py --repeat-check A.json B.json

Every (round, workload) is one fresh, sequential ``worker.py`` process;
rounds go round-robin over the workloads so each workload's segments span
the whole run.  Timing metrics are the **best segment** over all rounds
(``README.md`` has the noise study behind that choice); pooled medians and
quartiles are written beside them in the results file.  With ``--workload``
the last line of stdout is the one-object JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List

import spec

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
WORKER_TIMEOUT_SECONDS = 150


def run_worker(workload: str, seed: int, seconds: float, traced: bool) -> Dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", str(int(traced)),
         "--spawned-at", repr(time.time())],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=WORKER_TIMEOUT_SECONDS, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end(rounds: List[Dict]) -> Dict[str, float]:
    segments = [seg for record in rounds for seg in record["segments"]]
    return {
        "setup_s": min(r["setup_s"] for r in rounds),
        "ops_per_s": max(len(s["latencies_ms"]) / s["wall_s"] for s in segments),
        "latency_p50_ms": min(
            statistics.median(s["latencies_ms"]) for s in segments),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in rounds),
    }


def pooled(rounds: List[Dict]) -> Dict[str, float]:
    """Spread of the op latencies the best-segment values were drawn from."""
    latencies = [value for record in rounds for seg in record["segments"]
                 for value in seg["latencies_ms"]]
    if len(latencies) < 2:
        return {"samples": len(latencies)}
    q1, q2, q3 = statistics.quantiles(latencies, n=4)
    return {"samples": len(latencies), "latency_q1_ms": q1,
            "latency_median_ms": q2, "latency_q3_ms": q3,
            "segments": sum(len(r["segments"]) for r in rounds)}


def per_layer(untraced: List[Dict], traced: Dict) -> Dict[str, float]:
    """Every declared layer metric; 0 where the workload never enters a layer."""
    values = dict(traced["layers"])
    values["trace_overhead_share"] = (
        1.0 - end_to_end([traced])["ops_per_s"]
        / end_to_end(untraced)["ops_per_s"])
    unknown = set(values) - {metric.name for metric in spec.PER_LAYER}
    if unknown:
        raise KeyError(f"undeclared layer metrics: {sorted(unknown)}")
    return {metric.name: values.get(metric.name, 0.0)
            for metric in spec.PER_LAYER}


def print_tables(results: Dict[str, Dict]) -> None:
    names = list(results)
    print(f"\n{'end-to-end metric':<18}{'unit':>6}{'better':>8}{'bound':>7}  "
          + "".join(f"{name:>24}" for name in names))
    for metric in spec.END_TO_END:
        print(f"{metric.name:<18}{metric.unit:>6}{metric.better:>8}"
              f"{metric.bound:>7.2f}  " + "".join(
                  f"{results[name]['end_to_end'][metric.name]:>24.4f}"
                  for name in names))
    print(f"{'failed/attempted':<41}" + "".join(
        f"{results[n]['failed']:>17}/{results[n]['attempted']:<6}"
        for n in names))
    if not any(results[name]["per_layer"] for name in names):
        return
    print(f"\n{'layer metric':<40}{'unit':>7}  "
          + "".join(f"{name:>24}" for name in names))
    for metric in spec.PER_LAYER:
        row = [results[name]["per_layer"].get(metric.name, 0.0) for name in names]
        if any(row):
            print(f"{metric.name:<40}{metric.unit:>7}  "
                  + "".join(f"{value:>24.4f}" for value in row))


def run(args) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"benchmark needs the library under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    names = [args.workload] if args.workload else [w.name for w in spec.WORKLOADS]
    if args.smoke:
        plain_rounds, traced_rounds, seconds = 1, 0, 0.0
    else:
        seconds = args.seconds / args.rounds
        plain_rounds = 1 if args.trace == 1 else args.rounds
        traced_rounds = 0 if args.trace == 0 else 1

    records: Dict[str, List[Dict]] = {name: [] for name in names}
    for index in range(plain_rounds + traced_rounds):
        for name in names:
            records[name].append(run_worker(
                name, args.seed * 100 + index, seconds,
                traced=index >= plain_rounds))

    results: Dict[str, Dict] = {}
    for name, rounds in records.items():
        plain = rounds[:plain_rounds]
        results[name] = {
            "end_to_end": end_to_end(plain),
            "pooled": pooled(plain),
            "per_layer": per_layer(plain, rounds[-1]) if traced_rounds else {},
            "attempted": sum(r["attempted"] for r in rounds),
            "failed": sum(r["failed"] for r in rounds),
        }
    print_tables(results)
    document = {"seed": args.seed, "rounds": plain_rounds,
                "seconds": args.seconds, "workloads": results}
    with open(args.out, "w") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")

    failed = sum(result["failed"] for result in results.values())
    if args.workload:
        result = results[args.workload]
        shown, declared = (
            (result["per_layer"], spec.PER_LAYER) if args.trace == 1
            else (result["end_to_end"], spec.END_TO_END))
        print(json.dumps({
            "correct": failed == 0, "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {m.name: {"value": shown[m.name], "unit": m.unit}
                        for m in declared}}))
    if failed:
        print(f"FAILED: {failed} operations failed or mismatched",
              file=sys.stderr)
        return 1
    return 0


def list_names() -> int:
    for workload in spec.WORKLOADS:
        print(f"workload    {workload.name}  (segment = {workload.segment_ops} "
              f"ops)  {workload.why}")
    for metric in spec.END_TO_END:
        print(f"end_to_end  {metric.name}  {metric.unit}  {metric.better}  "
              f"bound {metric.bound}")
    for metric in spec.PER_LAYER:
        print(f"per_layer   {metric.name}  {metric.unit}  {metric.better}")
    return 0


def repeat_check(path_a: str, path_b: str) -> int:
    """Do two result files of one commit agree within the declared bounds?"""
    with open(path_a) as handle:
        first = json.load(handle)["workloads"]
    with open(path_b) as handle:
        second = json.load(handle)["workloads"]
    outside = 0
    print(f"{'metric':<16}{'workload':<24}{'A':>12}{'B':>12}{'change':>9}"
          f"{'bound':>7}  verdict")
    for metric in spec.END_TO_END:
        for name in first:
            if name not in second:
                continue
            a = first[name]["end_to_end"][metric.name]
            b = second[name]["end_to_end"][metric.name]
            change = abs(b - a) / a
            verdict = "ok" if change <= metric.bound else "outside bound"
            outside += verdict != "ok"
            print(f"{metric.name:<16}{name:<24}{a:>12.4f}{b:>12.4f}"
                  f"{change:>9.3f}{metric.bound:>7.2f}  {verdict}")
    for name in first:
        pair = [{key: value for key, value in run[name]["per_layer"].items()
                 if key.startswith("core.cycles")}
                for run in (first, second) if name in run]
        if len(pair) == 2 and any(pair[0].values()):
            verdict = "identical" if pair[0] == pair[1] else "DIFFERENT"
            outside += verdict != "identical"
            print(f"core.cycles.*   {name:<24}{verdict}")
    return 1 if outside else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[w.name for w in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                        help="measured seconds per workload, split over rounds")
    parser.add_argument("--rounds", type=int, default=spec.ROUNDS,
                        help="fresh worker processes (set-ups) per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end only; 1: one plain + one traced "
                             "round; default: all plain rounds, then a traced one")
    parser.add_argument("--smoke", action="store_true",
                        help="1 round, 1 segment per workload, no traced round")
    parser.add_argument("--out", default=os.path.join(OUT_DIR, "results.json"),
                        help="results file (default: out/results.json)")
    parser.add_argument("--list", action="store_true",
                        help="print every workload and metric name and exit")
    parser.add_argument("--repeat-check", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.list:
        return list_names()
    if args.repeat_check:
        return repeat_check(*args.repeat_check)
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main())
