"""Record a baseline: every workload over sets of seeds, then one traced run.

    python3 bench/baseline.py --seconds 30 --sets 1-10 11-20 --out bench/baseline.json
                              [--workloads cli limits spectra]

Runs bench/run.py once per (workload, seed) with --trace 0, seed sets one
after another, and once per workload with --trace 1 on the first seed.
For each set and end-to-end metric it stores the median, the quartiles
and the spread (interquartile range over median, the figure the bounds
in BENCHMARK.json are held against); the traced run stores the
per-layer metrics.  Run it from the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True, check=True)
    result = json.loads(p.stdout.strip().splitlines()[-1])
    print(f"{workload} seed {seed} trace {trace}: attempted {result['attempted']} "
          f"failed {result['failed']}", flush=True)
    return result


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--sets", nargs="+", required=True, help="seed ranges such as 1-10")
    ap.add_argument("--out", required=True)
    ap.add_argument("--workloads", nargs="+", choices=workloads.WORKLOADS,
                    default=list(workloads.WORKLOADS))
    args = ap.parse_args()

    sets = [_seeds(s) for s in args.sets]
    out = {"host": run.host_record(os.getcwd()), "seconds": args.seconds,
           "seed_sets": args.sets, "workloads": {}}
    for workload in args.workloads:
        entry = {"sets": [], "traced_seed": sets[0][0]}
        for seeds in sets:
            results = [_run(workload, s, args.seconds, 0) for s in seeds]
            summary = {"attempted": sum(r["attempted"] for r in results),
                       "failed": sum(r["failed"] for r in results)}
            for name in run.END_TO_END_UNITS:
                values = [r["metrics"][name]["value"] for r in results]
                q1, med, q3 = statistics.quantiles(values, n=4)
                summary[name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                                 "spread": (q3 - q1) / statistics.median(values),
                                 "values": values}
            entry["sets"].append(summary)
        traced = _run(workload, sets[0][0], args.seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        out["workloads"][workload] = entry
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
