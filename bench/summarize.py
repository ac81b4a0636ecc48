"""Summarize the result files of several benchmark runs.

Usage, from the root of a source checkout, after runs of ``bench/run.py``
with different seeds::

    python3 bench/summarize.py [--out bench/baseline.json]

For every workload and metric it prints the median over the runs, the
quartiles and their distance as a share of the median (the spread that a
metric's bound in ``BENCHMARK.json`` must exceed). Traced runs contribute
the per-layer metrics. ``--out`` writes the same numbers, with the
environment of the runs, as JSON.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

RESULTS = ".bench_results"


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (values[0],) * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "iqr_share": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", help="write the summary as JSON here")
    args = parser.parse_args(argv)
    summary: dict = {"workloads": {}}
    for path in sorted(glob.glob(os.path.join(RESULTS, "*.json"))):
        with open(path) as fh:
            result = json.load(fh)
        diag = result["diagnostics"]
        summary.setdefault("environment", diag["environment"])
        entry = summary["workloads"].setdefault(
            diag["workload"], {"seeds": {}, "values": {}, "failed": 0})
        kind = "per_layer" if diag["trace"] else "end_to_end"
        entry["seeds"].setdefault(kind, []).append(diag["seed"])
        entry["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            entry["values"].setdefault(kind, {}).setdefault(
                name, {"unit": metric["unit"], "values": []}
            )["values"].append(metric["value"])
    if not summary["workloads"]:
        print(f"no result files in {RESULTS}/", file=sys.stderr)
        return 1
    for workload, entry in sorted(summary["workloads"].items()):
        print(f"== {workload}  failed ops: {entry['failed']}")
        for kind, metrics in entry.pop("values").items():
            entry[kind] = {}
            for name, m in metrics.items():
                s = summarize(m["values"])
                entry[kind][name] = {"unit": m["unit"], **s}
                print(f"  {name:40s} {s['median']:14.6g} {m['unit']:6s} "
                      f"IQR/median {s['iqr_share']:.4f}  n={s['n']}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
