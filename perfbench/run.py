#!/usr/bin/env python3
"""Pipeline benchmark: build the driver, run one workload, print metrics.

Usage (from the repository root):

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/pipeline.cpp and the library sources under src/ into
.bench_build/perfbench (Release), runs the driver on one workload, checks
its outputs and result checksum, and prints as the last line one JSON
object {"correct", "attempted", "failed", "metrics"}: every end-to-end
metric of BENCHMARK.json with --trace 0, every per-layer metric with
--trace 1. The line before it carries the run's provenance. Each run also
writes its full record (provenance, metrics, raw samples) to
.bench_build/perfbench/results/ for perfbench/compare.py, and a traced run
writes its spans to .bench_build/perfbench/traces/ for
perfbench/trace_summary.py.

Extra flags: --tiny runs a small instance of the workload (self-tests),
--corrupt damages one output before it is checked (the run must then
report a failure), --record stores the run's result checksum in
perfbench/checksums.json as the expected value for that seed.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
CHECKSUMS = os.path.join(HERE, "checksums.json")
# The driver must return well inside the 180 s a run may take.
DRIVER_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then an incremental Release build of the driver."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "pipeline",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (log: " + log_path + ")")
    return os.path.join(BUILD, "pipeline")


def source_digest():
    """sha256 over the library and benchmark sources: identifies the code
    measured when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def percentile(values, q):
    """The q-th percentile (0..100), linear between closest ranks."""
    values = sorted(values)
    if not values:
        return 0.0
    pos = (len(values) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def end_to_end(raw):
    """The end-to-end metrics from the driver's untraced samples."""
    solve = statistics.median(raw["solve_s"])
    return {
        "setup_s": (statistics.median(raw["setup_s"]), "s"),
        "solve_s": (solve, "s"),
        "jobs_per_s": (raw["jobs"] / solve, "1/s"),
        "sim_msgs_per_s": (raw["messages"] / solve, "1/s"),
        "epoch_ms_p50": (percentile(raw["step_ms"], 50), "ms"),
        "epoch_ms_p90": (percentile(raw["step_ms"], 90), "ms"),
        "replay_s": (statistics.median(raw["replay_s"]), "s"),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024.0, "MB"),
        "sim_rounds": (raw["rounds"], "count"),
        "sim_words_sent": (raw["words_sent"], "count"),
    }


def per_layer(raw, spans_path, units):
    sys.dont_write_bytecode = True  # leave no cache files in the checkout
    sys.path.insert(0, HERE)
    import trace_summary
    with open(spans_path) as f:
        metrics, _ = trace_summary.summarize(json.load(f))
    metrics["trace.overhead_frac"] = (
        statistics.median(raw["solve_traced_s"]) /
        statistics.median(raw["solve_s"]) - 1)
    return {name: (metrics[name], units[name]) for name in units}


def load_checksums():
    if not os.path.isfile(CHECKSUMS):
        return {}
    with open(CHECKSUMS) as f:
        return json.load(f)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--corrupt", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    binary = build()

    size = "tiny" if args.tiny else "full"
    tag = f"{args.workload}-{size}-seed{args.seed}-trace{args.trace}"
    spans_path = os.path.join(BUILD, "traces", tag + ".json")
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spans", spans_path]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt:
        cmd.append("--corrupt")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {DRIVER_TIMEOUT_S} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        fail(f"driver exited with {proc.returncode}")
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    # Result checksum: every pass and replay of this run agreed (else the
    # driver counted a failure); it must also equal the value recorded for
    # this seed, when one is recorded. A run whose first pass failed to
    # complete has no checksum; its failure is already counted.
    key = f"{args.workload}/{size}"
    recorded = load_checksums().get(key, {}).get(str(args.seed))
    checksum_ok = recorded in (None, raw["checksum"]) or not raw["checksum"]
    if args.record and raw["failed"] == 0 and not args.corrupt:
        table = load_checksums()
        table.setdefault(key, {})
        if recorded is None:
            table[key][str(args.seed)] = raw["checksum"]
            with open(CHECKSUMS, "w") as f:
                json.dump(table, f, indent=1, sort_keys=True)
                f.write("\n")

    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = per_layer(raw, spans_path, units) if raw["solve_traced_s"] \
            else {}
    else:
        metrics = end_to_end(raw) if raw["solve_s"] else {}
    provenance = {
        "workload": args.workload, "seed": args.seed, "size": size,
        "trace": args.trace, "seconds": args.seconds,
        "commit": commit(), "source_digest": source_digest(),
        "build_type": raw["build_type"], "compiler": raw["compiler"],
        "nproc": os.cpu_count(), "hw_threads": raw["hw_threads"],
        "engine_threads": raw["threads"], "batch_workers": raw["workers"],
        "checksum": raw["checksum"], "checksum_recorded": recorded,
        "failures": raw["failures"],
    }
    correct = (raw["failed"] == 0 and checksum_ok and
               len(metrics) == len(spec["per_layer" if args.trace
                                       else "end_to_end"]))
    result = {
        "correct": correct,
        "attempted": max(1, raw["attempted"]),
        "failed": raw["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    results_dir = os.path.join(BUILD, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, tag + ".json"), "w") as f:
        json.dump({"provenance": provenance, "result": result, "raw": raw},
                  f, indent=1)
        f.write("\n")
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    if not checksum_ok:
        fail(f"result checksum {raw['checksum']} differs from the value "
             f"recorded for seed {args.seed} ({recorded})")


if __name__ == "__main__":
    main()
