"""Self-test of the benchmark itself (not of kmfan).

    python3 perfbench/selftest.py [--workload NAME ...] [--seed N]

For each workload it makes two traced runs of the same seed with
perfbench/run.py and checks that

1. the traced and the untraced pass over the same items give identical
   per-item results (``bench.result_mismatches`` is 0 in both runs);
2. the per-layer ``self_s`` values plus ``bench.self_s`` add up to the traced
   wall time within SUM_TOLERANCE;
3. counts (``*.calls``, ``*.errors``, ``intlinalg.max_bits`` and the other
   count and ratio metrics) repeat exactly between the two runs;
4. the same seed gives the same input digest and another seed a different one;
5. every round has the item kinds and counts that catalog.json records.

Exits 1 if any check fails.  Takes a few minutes for all four workloads.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SUM_TOLERANCE = 0.01  # share of the traced wall time

sys.path.insert(0, HERE)
from run import TAIL_PERCENTILE  # noqa: E402
from tracer import LAYERS  # noqa: E402
from workloads import WORKLOADS, make_workload  # noqa: E402


def traced_run(workload, seed):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit("run.py failed:\n" + proc.stderr)
    lines = proc.stdout.strip().splitlines()
    digest = re.search(r"inputs (\w+)", lines[0]).group(1)
    return digest, json.loads(lines[-1])


def catalog_problems(workload, seed):
    with open(os.path.join(HERE, "catalog.json"), encoding="utf-8") as fh:
        entry = json.load(fh)["workloads"][workload]
    problems = []
    if entry["tail_percentile"] != TAIL_PERCENTILE[workload]:
        problems.append("tail percentile differs from run.py")
    wl = make_workload(workload, seed, ROOT)
    try:
        for r, rnd in enumerate(wl.rounds):
            counts = dict(collections.Counter(item.kind for item in rnd))
            if counts != entry["items_per_round"]:
                problems.append("round %d has %s, catalog says %s" % (r, counts, entry["items_per_round"]))
    finally:
        wl.close()
    return problems


def check(workload, seed):
    problems = catalog_problems(workload, seed)
    (d1, a), (d2, b) = traced_run(workload, seed), traced_run(workload, seed)
    other = make_workload(workload, seed + 1, ROOT)
    d3 = other.digest()
    other.close()
    if d1 != d2:
        problems.append("same seed gave input digests %s and %s" % (d1, d2))
    if d3 == d1:
        problems.append("seeds %d and %d gave the same inputs" % (seed, seed + 1))
    for run in (a, b):
        m = {k: v["value"] for k, v in run["metrics"].items()}
        if not run["correct"] or run["failed"]:
            problems.append("a traced run reported failed items")
        if m["bench.result_mismatches"]:
            problems.append("%d items differ traced vs untraced" % m["bench.result_mismatches"])
        total = sum(m[layer + ".self_s"] for layer in LAYERS) + m["bench.self_s"]
        gap = abs(total - m["bench.wall_s"]) / m["bench.wall_s"]
        print("  self_s sum %.4f s vs traced wall %.4f s (gap %.2f%%), overhead %.2f"
              % (total, m["bench.wall_s"], 100 * gap, m["trace.overhead"]))
        if gap > SUM_TOLERANCE:
            problems.append("self times miss the wall time by %.2f%%" % (100 * gap))
    unequal = [
        name for name, v in a["metrics"].items()
        if v["unit"] in ("count", "bits", "1") and name != "trace.overhead"
        and v["value"] != b["metrics"][name]["value"]
    ]
    if unequal:
        problems.append("counts differ between two traced runs: " + ", ".join(sorted(unequal)))
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    failed = False
    for workload in args.workload or WORKLOADS:
        print("%s (seed %d)" % (workload, args.seed), flush=True)
        problems = check(workload, args.seed)
        for p in problems:
            print("  FAIL " + p)
        print("  ok" if not problems else "  %d problems" % len(problems), flush=True)
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
