#!/usr/bin/env python3
"""Summarize the spans a traced pipeline run wrote.

A span is (name, start, end, parent, rep); its layer is the name's prefix
before the first '.', and its self time is its duration minus the part of
that interval its children cover. Root spans say what a repetition was
doing: `setup` (instance construction), `solve` (the cold pass),
`replay` (the same jobs served by the result cache) and `probe` (public
calls re-run on the same inputs to time work the epoch harness does
internally).

Usage: python3 perfbench/trace_summary.py SPANS.json [SPANS.json ...]

prints, per file, each layer's self time in the median traced solve and
`trace.coverage`, the share of the solve that layer spans cover; a
workload whose layers cover less than 95% of its solve is flagged and the
command exits 1.
"""
import json
import statistics
import sys
from collections import defaultdict

COVERAGE_FLOOR = 0.95
ROOTS = ("setup", "solve", "replay", "probe")
# Engine phases the driver rebuilds as spans from RunResult::phase_ns. The
# link phase is absent: no workload enforces a CONGEST budget, so it would
# read 0 on every run; were one to, its time would show as unattributed.
ENGINE_PHASES = ("send", "scatter", "trace", "receive", "mutate")


def layer_of(name):
    return name.split(".", 1)[0]


def self_times(spans):
    """Self time (ns) of every span: duration minus the union of its
    children's intervals, clipped to the span."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] >= 0:
            children[s["parent"]].append(s)
    out = {}
    for s in spans:
        lo, hi = s["start_ns"], s["end_ns"]
        covered, cursor = 0, lo
        for c in sorted(children[s["id"]], key=lambda c: c["start_ns"]):
            a, b = max(c["start_ns"], cursor), min(c["end_ns"], hi)
            if b > a:
                covered += b - a
                cursor = b
        out[s["id"]] = (hi - lo) - covered
    return out


def group_by_root(spans):
    """[(root span, [spans of its tree])] in root order."""
    by_id = {s["id"]: s for s in spans}
    trees = defaultdict(list)
    for s in spans:
        r = s
        while r["parent"] >= 0:
            r = by_id[r["parent"]]
        trees[r["id"]].append(s)
    return [(by_id[rid], tree) for rid, tree in sorted(trees.items())]


def rep_metrics(trees, rep, selfs, workers):
    """Per-layer metrics of one traced repetition."""
    def tree(name):
        return [s for root, spans in trees
                if root["name"] == name and root["rep"] == rep for s in spans]

    solve, replay, probe = tree("solve"), tree("replay"), tree("probe")
    work = solve + probe

    def self_ms(spans, name):
        return sum(selfs[s["id"]] for s in spans if s["name"] == name) / 1e6

    def dur_ms(spans, name):
        return sum(s["end_ns"] - s["start_ns"] for s in spans
                   if s["name"] == name) / 1e6

    def attr(spans, key, name=None):
        return sum(s["attrs"].get(key, 0) for s in spans
                   if name is None or s["name"] == name)

    m = {}
    m["graph.edits_generate_ms"] = self_ms(work, "graph.edits_generate")
    m["graph.edits_apply_ms"] = self_ms(work, "graph.edits_apply")
    m["predict.provide_ms"] = self_ms(work, "predict.provide")
    m["predict.eta_ms"] = self_ms(solve, "predict.eta")
    m["engine.run_ms"] = dur_ms(solve, "engine.run")
    for phase in ENGINE_PHASES:
        m[f"engine.{phase}_ms"] = self_ms(solve, f"engine.{phase}")
    # Engine time no phase accounts for: construction, per-round overhead,
    # result assembly (the self time of the run and job spans).
    m["engine.unattributed_ms"] = (self_ms(solve, "engine.run") +
                                   self_ms(solve, "engine.job"))
    for key in ("rounds", "messages", "words_sent"):
        m[f"engine.{key}"] = attr(solve, key, "engine.run")
    run_all = [s for s in solve if s["name"] == "batch.run_all"]
    ids = {s["id"] for s in run_all}
    m["batch.run_all_ms"] = dur_ms(run_all, "batch.run_all")
    m["batch.engine_busy_ms"] = sum(
        s["end_ns"] - s["start_ns"] for s in solve
        if s["name"] == "engine.run" and s["parent"] in ids) / 1e6
    m["batch.idle_frac"] = (
        1 - m["batch.engine_busy_ms"] / (m["batch.run_all_ms"] * workers)
        if m["batch.run_all_ms"] > 0 and workers > 0 else 0.0)
    m["batch.self_ms"] = self_ms(solve, "batch.run_all")
    hits = attr(solve + replay, "hits")
    misses = attr(solve + replay, "misses")
    m["cache.hits"] = hits
    m["cache.misses"] = misses
    m["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["cache.self_ms"] = sum(selfs[s["id"]] for s in solve
                             if layer_of(s["name"]) == "cache") / 1e6
    m["transcript.bytes"] = attr(solve, "bytes", "transcript.decode")
    m["transcript.decode_ms"] = self_ms(solve, "transcript.decode")
    m["check.ms"] = self_ms(solve, "check")
    m["epoch.self_ms"] = self_ms(solve, "epoch") + self_ms(solve, "epoch.run")
    root = [s for s in solve if s["name"] == "solve"]
    if root:
        total = root[0]["end_ns"] - root[0]["start_ns"]
        unattributed = selfs[root[0]["id"]]
        m["trace.coverage"] = 1 - unattributed / total if total else 0.0
        m["trace.unattributed_ms"] = unattributed / 1e6
    layers = defaultdict(float)
    for s in solve:
        if s["name"] not in ROOTS:
            layers[layer_of(s["name"])] += selfs[s["id"]] / 1e6
    return m, dict(layers)


def setup_metrics(trees, selfs):
    """graph.build_ms and graph.build_edges_per_s: medians over set-ups."""
    build_ms, rate = [], []
    for root, spans in trees:
        if root["name"] != "setup":
            continue
        builds = [s for s in spans if s["name"] == "graph.build"]
        ns = sum(s["end_ns"] - s["start_ns"] for s in builds)
        edges = sum(s["attrs"].get("edges", 0) for s in builds)
        build_ms.append(ns / 1e6)
        if ns > 0:
            rate.append(edges / (ns / 1e9))
    return {
        "graph.build_ms": statistics.median(build_ms) if build_ms else 0.0,
        "graph.build_edges_per_s": statistics.median(rate) if rate else 0.0,
    }


def summarize(doc):
    """(metrics, per-layer self ms) of a spans document: each value is the
    median over the traced repetitions."""
    spans = doc["spans"]
    selfs = self_times(spans)
    trees = group_by_root(spans)
    workers = doc.get("workers", 0)
    reps = sorted({root["rep"] for root, _ in trees if root["name"] == "solve"})
    per_rep = [rep_metrics(trees, rep, selfs, workers) for rep in reps]
    metrics = setup_metrics(trees, selfs)
    if per_rep:
        for key in per_rep[0][0]:
            metrics[key] = statistics.median(m[key] for m, _ in per_rep)
    layers = defaultdict(list)
    for _, lay in per_rep:
        for name, ms in lay.items():
            layers[name].append(ms)
    return metrics, {k: statistics.median(v) for k, v in layers.items()}


def main(paths):
    low = False
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        metrics, layers = summarize(doc)
        coverage = metrics.get("trace.coverage", 0.0)
        flag = coverage < COVERAGE_FLOOR
        low = low or flag
        print(f"{doc['workload']} seed {doc['seed']}: trace.coverage "
              f"{coverage:.4f}" + (f"  LOW (< {COVERAGE_FLOOR})" if flag else ""))
        for name, ms in sorted(layers.items(), key=lambda kv: -kv[1]):
            print(f"  {name:<12} self {ms:12.3f} ms")
        print(f"  {'(unattributed)':<12} self "
              f"{metrics.get('trace.unattributed_ms', 0.0):12.3f} ms")
    return 1 if low else 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1:]))
