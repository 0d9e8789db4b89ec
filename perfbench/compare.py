#!/usr/bin/env python3
"""Compare two sets of pipeline benchmark results, metric by metric.

Usage: python3 perfbench/compare.py BASE NEW

BASE and NEW are directories of result records as perfbench/run.py writes
them (.bench_build/perfbench/results/*.json), typically the parent commit's
runs and the change's, made with the same --seconds on different seeds.

For every workload and every end-to-end metric of BENCHMARK.json it prints
both medians, the change, and each side's spread (the distance between the
first and third quartile as a share of the median), then a verdict:

  regressed    NEW's median is worse than BASE's by more than the bound;
  unresolved   a side's spread exceeds the bound, so the data cannot tell
               a regression from noise (unless every NEW run is better
               than every BASE run, which reads as better);
  better       NEW's median is better by more than BASE's own quartile
               distance;
  unchanged    otherwise.

Per-layer metrics (traced runs) are listed with their medians, without a
verdict: they have no bound. Exits 1 if any metric regressed.
"""
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    """{(workload, size, trace): {metric: [values]}} of a result set."""
    files = sorted(glob.glob(os.path.join(path, "*.json"))) \
        if os.path.isdir(path) else [path]
    out = {}
    for name in files:
        with open(name) as f:
            record = json.load(f)
        prov = record["provenance"]
        key = (prov["workload"], prov["size"], prov["trace"])
        metrics = out.setdefault(key, {})
        for metric, m in record["result"]["metrics"].items():
            metrics.setdefault(metric, []).append(m["value"])
    return out


def spread(values):
    """Quartile distance as a share of the median (0 for one value)."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med)


def verdict(base, new, better, bound):
    b, n = statistics.median(base), statistics.median(new)
    sign = 1 if better == "lower" else -1
    worse_by = sign * (n - b) / abs(b) if b else 0.0
    if max(spread(base), spread(new)) > bound:
        all_better = (max(new) < min(base) if better == "lower"
                      else min(new) > max(base))
        return "better" if all_better else "unresolved"
    if worse_by > bound:
        return "regressed"
    if -worse_by > spread(base):
        return "better"
    return "unchanged"


def main(base_path, new_path):
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    base, new = load(base_path), load(new_path)
    regressed = False
    for key in sorted(set(base) & set(new)):
        workload, size, trace = key
        print(f"== {workload} ({size}, trace {trace}): "
              f"{len(next(iter(base[key].values()), []))} vs "
              f"{len(next(iter(new[key].values()), []))} runs")
        print(f"  {'metric':<26}{'base':>14}{'new':>14}{'change':>9}"
              f"{'spread b/n':>16}  verdict")
        metrics = spec["per_layer"] if trace else spec["end_to_end"]
        for m in metrics:
            name = m["name"]
            if name not in base[key] or name not in new[key]:
                continue
            b, n = base[key][name], new[key][name]
            mb, mn = statistics.median(b), statistics.median(n)
            change = f"{(mn - mb) / abs(mb):+.1%}" if mb else "n/a"
            v = verdict(b, n, m["better"], m["bound"]) if "bound" in m else ""
            regressed = regressed or v == "regressed"
            print(f"  {name:<26}{mb:>14.6g}{mn:>14.6g}{change:>9}"
                  f"{spread(b):>8.3f}/{spread(n):<7.3f}  {v}")
    missing = sorted(set(base) ^ set(new))
    for key in missing:
        print(f"== {key[0]} ({key[1]}, trace {key[2]}): only in "
              f"{'BASE' if key in base else 'NEW'}")
    return 1 if regressed else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
