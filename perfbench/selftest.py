#!/usr/bin/env python3
"""Self-tests of the pipeline benchmark.

Usage (from the repository root): python3 perfbench/selftest.py

1. A clean Release (-O3) build of the driver and the library it links
   emits no compiler warning.
2. A tiny-size run of every workload, untraced and traced, is correct and
   prints every metric BENCHMARK.json names, each with its unit.
3. The same run with one output deliberately corrupted is caught: it
   reports correct = false and at least one failed job.

Exits 1 on the first failed test.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench-selftest")


def check(condition, message):
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)
    print(f"ok: {message}")


def clean_build():
    shutil.rmtree(BUILD, ignore_errors=True)
    jobs = str(min(4, os.cpu_count() or 1))
    out = ""
    for cmd in (["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD, "--target", "pipeline", "-j", jobs]):
        proc = subprocess.run(cmd, capture_output=True, text=True)
        out += proc.stdout + proc.stderr
        check(proc.returncode == 0, " ".join(cmd[:2]) + " succeeds")
    warnings = [line for line in out.splitlines() if "warning:" in line]
    for line in warnings[:20]:
        print("  " + line)
    check(not warnings, "Release build emits no warnings")
    shutil.rmtree(BUILD, ignore_errors=True)


def run(workload, trace, corrupt=False):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "0.2", "--trace", str(trace),
           "--tiny"]
    if corrupt:
        cmd.append("--corrupt")
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    check(proc.returncode == 0,
          f"{workload} trace {trace}{' corrupt' if corrupt else ''} exits 0")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    clean_build()
    for w in spec["workloads"]:
        name = w["name"]
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            result = run(name, trace)
            check(result["correct"] and result["failed"] == 0 and
                  result["attempted"] >= 1, f"{name} trace {trace} is correct")
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want,
                  f"{name} trace {trace} prints every {group} metric "
                  f"with its unit")
        result = run(name, 0, corrupt=True)
        check(not result["correct"] and result["failed"] >= 1,
              f"{name}: a corrupted output is caught "
              f"({result['failed']} of {result['attempted']} jobs failed)")
    print("all self-tests passed")


if __name__ == "__main__":
    main()
