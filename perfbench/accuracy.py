"""Record the relative error of G against the closed forms, per seed.

    python3 perfbench/accuracy.py

Run from a checkout root.  For every workload and every seed in SEEDS it
runs each op of one pass whose output has a closed form, with run.py's own
runners and checks, and writes the largest relative error to ACCURACY.json.
The error is deterministic for a seed, so run.py fails a run whose error
exceeds a small multiple of the recorded one: a speed-up that coarsens the
mesh shows as a failed accuracy check, not as a gain.
"""
from __future__ import annotations

import json
import os
import shutil
import sys

import gen
import run

SEEDS = range(0, 100)


def max_rel_err(workload: str, seed: int, work: str) -> float:
    items = gen.generate(workload, seed, work)
    runner = run.Cli(items, work) if workload == "cli" else run.InProcess(workload, items)
    errs = []
    for i, item in enumerate(items):
        if workload != "cli" and item["reference"] is None:
            continue
        _, bad, err = runner.run(i)
        if bad:
            raise RuntimeError(f"{workload} seed {seed} op {item['name']}: {bad}")
        if err is not None:
            errs.append(err)
    return max(errs)


def main() -> int:
    root = os.getcwd()
    if not run.prepare(root):
        sys.stderr.write("accuracy.py: no jetmin sources under ./src; run from a checkout root\n")
        return 2
    work = os.path.join(root, ".bench_work", f"accuracy-{os.getpid()}")
    record = {"first_seed": SEEDS[0], "max_rel_err": {}}
    try:
        for wl in run.WORKLOADS:
            record["max_rel_err"][wl] = [max_rel_err(wl, s, work) for s in SEEDS]
            print(wl, f"worst {max(record['max_rel_err'][wl]):.3e}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(os.path.join(run.HERE, "ACCURACY.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
