#!/usr/bin/env python3
"""Compare two sets of benchmark results, refusing incomparable ones.

    python3 perfbench/compare.py BASE CHANGE

BASE and CHANGE are result records written by perfbench/run.py (files,
or directories of them, e.g. copies of .bench_build/perfbench/results/).
Every record carries its machine context; if any machine field (cores,
CPU model, compiler, build type, perf_event_open) differs between the
records, the comparison is refused with exit code 2. The source id may
differ: it names the two sides.

For each workload and metric the medians of both sides are printed with
their ratio; an end-to-end metric whose change median is worse than the
base median by more than its BENCHMARK.json bound is flagged, and the
exit code is 1.
"""

import glob
import json
import os
import statistics
import sys

MACHINE_FIELDS = ("nproc", "cpu_model", "compiler", "build_type", "perf_event_open")


def load(path):
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    records = []
    for name in files:
        with open(name) as handle:
            record = json.load(handle)
        if record.get("schema") == "perfbench.result/1" and not record.get("small"):
            records.append(record)
    if not records:
        sys.exit(f"compare: no result records in {path}")
    return records


def machine(record):
    return tuple(record["context"][field] for field in MACHINE_FIELDS)


def medians(records):
    values = {}
    for record in records:
        key = (record["workload"], record["trace"])
        for name, metric in record["result"]["metrics"].items():
            values.setdefault(key, {}).setdefault(name, []).append(metric["value"])
    return {key: {name: (statistics.median(v), len(v)) for name, v in metrics.items()}
            for key, metrics in values.items()}


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, change = load(sys.argv[1]), load(sys.argv[2])
    contexts = {machine(record) for record in base + change}
    if len(contexts) != 1:
        print("compare: refused, the results come from different machines or builds:",
              file=sys.stderr)
        for context in sorted(contexts, key=str):
            print("  " + ", ".join(f"{f}={v}" for f, v in zip(MACHINE_FIELDS, context)),
                  file=sys.stderr)
        sys.exit(2)
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                           "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    sources = sorted({r["context"]["source_id"] for r in base}), sorted(
        {r["context"]["source_id"] for r in change})
    print(f"base {','.join(sources[0])}  vs  change {','.join(sources[1])}")
    base_m, change_m = medians(base), medians(change)
    regressions = 0
    for key in sorted(set(base_m) & set(change_m)):
        workload, trace = key
        print(f"\n{workload} ({'traced' if trace else 'untraced'})")
        for name, (old, n_old) in base_m[key].items():
            if name not in change_m[key]:
                continue
            new, n_new = change_m[key][name]
            ratio = new / old if old else float("nan")
            metric = spec.get(name, {})
            flag = ""
            if "bound" in metric and old:
                worse = (new - old) / old if metric["better"] == "lower" else (old - new) / old
                if worse > metric["bound"]:
                    flag = f"  WORSE by {worse:.1%} (bound {metric['bound']:.0%})"
                    regressions += 1
            print(f"  {name:28s} {old:14.6g} -> {new:14.6g}  x{ratio:7.4f}"
                  f"  (n={n_old}/{n_new}){flag}")
    sys.exit(1 if regressions else 0)


if __name__ == "__main__":
    main()
