#!/usr/bin/env python3
"""Summarize benchmark results across seeds.

    python3 perfbench/summarize.py [--out perfbench/results/first_numbers.json]

Reads every perfbench/out/*-trace0.json written by run.py and prints, per
workload and end-to-end metric, the median, the quartiles and the spread
(interquartile distance over the median, as statistics.quantiles gives
them) next to the metric's bound in BENCHMARK.json. With --out it also
writes that table as JSON, with each run's provenance: seed, config
digest, counter fingerprint, git commit and source digest.
"""

import argparse
import glob
import json
import os
import statistics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    runs = {}
    for path in sorted(glob.glob(os.path.join(HERE, "out", "*-trace0.json"))):
        with open(path) as fh:
            r = json.load(fh)
        runs.setdefault(r["workload"], []).append(r)

    summary = {}
    for w in bench["workloads"]:
        rs = sorted(runs.get(w["name"], []), key=lambda r: r["seed"])
        if not rs:
            continue
        rows = {}
        print(f"{w['name']}  ({len(rs)} seeds)")
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in rs if m["name"] in r["metrics"]]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else float("nan")
            rows[m["name"]] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                               "spread": spread, "bound": m["bound"]}
            print(f"  {m['name']:22s} median {med:14.4f} {m['unit']:6s} "
                  f"q1 {q1:14.4f} q3 {q3:14.4f} spread {spread:.4f} bound {m['bound']}")
        summary[w["name"]] = {
            "metrics": rows,
            "runs": [{k: r.get(k) for k in ("seed", "config_digest", "fingerprint",
                                            "git_commit", "source_digest", "attempted",
                                            "failed", "wall_s")} for r in rs],
        }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
