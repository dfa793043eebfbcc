#!/usr/bin/env python3
"""Builds the perfbench program from source and runs one workload (or all).

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

The build goes to .bench_build/ at the repository root. The last line of
standard output for a single workload is the JSON result of perfbench; build
output goes to standard error. Every run also writes its full result, with
the run context, to .bench_build/results/ (and the spans of a traced run
next to it). See perfbench/README.md for the metrics and workloads.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ["cell_paper", "serve_steady", "serve_ingest", "fleet_churn"]


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit(f"perfbench: no dtmsv sources at {ROOT} (need CMakeLists.txt and src/)")
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release", *generator],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)


def commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run(workload, seed, seconds, trace, rev):
    results = BUILD / "results"
    results.mkdir(exist_ok=True)
    stem = results / f"{workload}-seed{seed}-trace{trace}"
    cmd = [str(BUILD / "perfbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--commit", rev,
           "--results", f"{stem}.json"]
    if trace:
        cmd += ["--spans", f"{stem}.spans.jsonl"]
    return subprocess.run(cmd, stdout=subprocess.PIPE, text=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")
    rev = commit()

    if args.workload != "all":
        done = run(args.workload, args.seed, args.seconds, args.trace, rev)
        sys.stdout.write(done.stdout)
        return done.returncode

    status = 0
    rows = []
    for workload in WORKLOADS:
        done = run(workload, args.seed, args.seconds, args.trace, rev)
        sys.stdout.write(done.stdout)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
        if result is None or not result["correct"]:
            status = 1
            rows.append((workload, "FAILED", "", ""))
            continue
        for name, metric in result["metrics"].items():
            rows.append((workload, name, f"{metric['value']:.6g}", metric["unit"]))
    print()
    for row in rows:
        print(f"{row[0]:<14} {row[1]:<24} {row[2]:>14} {row[3]}")
    return status


if __name__ == "__main__":
    sys.exit(main())
