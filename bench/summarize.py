"""Summarize bench/out/results.jsonl: per workload, the median and quartiles
of every end-to-end metric over the untraced runs, and the per-layer
metrics of the latest traced run.

    python3 bench/summarize.py [--source SHA16] > summary.json

--source keeps only runs of the program whose source hash (printed by every
run as machine.source_sha256_16) matches, so two versions are never mixed.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

RESULTS = Path(__file__).resolve().parent / "out" / "results.jsonl"


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / statistics.median(values),
            "n": len(values)}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--source", default=None)
    args = ap.parse_args()
    runs = [json.loads(line) for line in RESULTS.read_text().splitlines() if line]
    if args.source:
        runs = [r for r in runs if r["machine"]["source_sha256_16"] == args.source]
    out = {}
    for w in sorted({r["workload"] for r in runs}):
        plain = [r for r in runs if r["workload"] == w and not r["trace"]]
        traced = [r for r in runs if r["workload"] == w and r["trace"]]
        entry = {"runs": len(plain), "seeds": sorted({r["seed"] for r in plain})}
        if len(plain) >= 2:
            metrics = {k: spread([r["metrics"][k] for r in plain])
                       for k in plain[0]["metrics"]}
            s1 = [r["s_to_1pct"] for r in plain if r.get("s_to_1pct") is not None]
            if len(s1) >= 2:
                metrics["s_to_1pct"] = spread(s1)
            entry["end_to_end"] = metrics
            entry["fail_frac"] = {"failed": sum(r["failed"] for r in plain),
                                  "attempted": sum(r["attempted"] for r in plain)}
            entry["machine"] = plain[-1]["machine"]
        if traced:
            entry["per_layer"] = {"seed": traced[-1]["seed"],
                                  "metrics": traced[-1]["metrics"]}
        out[w] = entry
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
