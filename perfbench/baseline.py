"""Record a baseline: run every workload on several seeds, one run at a time.

    python3 perfbench/baseline.py [--first-seed 1] [--out PATH]

Run from a checkout root.  Every workload runs on SEEDS consecutive seeds for
run_seconds (BENCHMARK.json) each.  For each workload and end-to-end metric
it records the median over the seeds and the spread, the distance between
the first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median, next to the machine the runs were made on.  fail_ratio
and the largest max_rel_err over the seeds are recorded beside them.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import run

SEEDS = 10


def machine() -> dict:
    """nproc, CPU model, library versions and the pinned BLAS thread count."""
    import numpy
    import scipy

    cpu = ""
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": run.BLAS_THREADS}


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", default=os.path.join(run.HERE, "BASELINE.json"))
    args = ap.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    result = {"machine": machine(), "run_seconds": seconds, "workloads": {}}
    for wl in run.WORKLOADS:
        rows, rel_errs = [], []
        for seed in range(args.first_seed, args.first_seed + SEEDS):
            out = subprocess.run(
                [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", wl,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                check=True, capture_output=True, text=True).stdout
            rows.append(json.loads(out.splitlines()[-1]))
            rel_errs += [float(line.split()[1]) for line in out.splitlines()
                         if line.startswith("  max_rel_err ")]
            print(wl, seed, out.splitlines()[-1], flush=True)
        metrics = {}
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in rows]
            metrics[m["name"]] = {"median": statistics.median(vals), "unit": m["unit"],
                                  "spread": spread(vals), "bound": m["bound"]}
        result["workloads"][wl] = {
            "seeds": [args.first_seed, args.first_seed + SEEDS - 1],
            "all_correct": all(r["correct"] for r in rows),
            "attempted": sum(r["attempted"] for r in rows),
            "failed": sum(r["failed"] for r in rows),
            "fail_ratio": sum(r["failed"] for r in rows) / sum(r["attempted"] for r in rows),
            "max_rel_err": max(rel_errs),
            "metrics": metrics,
        }
        for name, m in metrics.items():
            print(f"  {wl:6s} {name:12s} median {m['median']:10.5g} {m['unit']:4s} "
                  f"spread {m['spread']:.4f} (bound {m['bound']})", flush=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
