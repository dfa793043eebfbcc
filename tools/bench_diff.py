#!/usr/bin/env python3
"""Compare two google-benchmark JSON files and report per-benchmark deltas.

The CI bench-regression gate: a freshly produced BENCH_*.json is compared
against the committed baseline, per-benchmark time deltas are printed, and
anything slower than the threshold is flagged. By default regressions only
*warn* (hosted-runner noise must never hard-fail a PR); pass --strict to
exit non-zero when a regression exceeds the threshold (for dedicated perf
hardware).

Rows that ran on more pool threads than the smaller of the two files'
`context.num_cpus` measure oversubscription, not scaling: they are listed
as skipped instead of compared. A benchmark marks such rows with a
`pool_threads` counter (the thread-scaling rows of bench_micro_perf).
When the two CPU counts differ, both are printed.

Entries that carry latency percentiles (`p95_ms`, `p99_ms`: the serve
bench) get one more row per percentile, named `<benchmark>:p95_ms`. Those
rows are compared at the same threshold but only ever warn, also under
--strict: a percentile over a dozen predictions is too thin to gate.

Standard library only, by design.

Usage:
  tools/bench_diff.py BASELINE.json CURRENT.json [--threshold 15]
      [--metric cpu_time|real_time] [--filter REGEX] [--strict]

Exit status: 0 OK (or warnings without --strict), 1 regression with
--strict, 2 unreadable/invalid input.
"""

import argparse
import json
import os
import re
import sys


NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
PERCENTILE_FIELDS = ("p95_ms", "p99_ms")


def die(message):
    print(f"bench_diff: {message}", file=sys.stderr)
    sys.exit(2)


def load_benchmarks(path, metric):
    """Returns ({name: time_ns}, {name: pool_threads}, num_cpus or None,
    {"name:pNN_ms": time_ns}) for the plain iteration entries of `path`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as err:
        die(f"cannot read {path}: {err}")
    except json.JSONDecodeError as err:
        die(f"{path} is not valid JSON: {err}")
    out = {}
    pool = {}
    percentiles = {}
    for entry in doc.get("benchmarks", []):
        # Skip aggregate rows (mean/median/stddev of --benchmark_repetitions);
        # manual emitter entries are run_type == "iteration" as well.
        if entry.get("run_type", "iteration") != "iteration":
            continue
        name = entry.get("name")
        value = entry.get(metric, entry.get("real_time"))
        if name is None or value is None:
            continue
        # Times are in the entry's time_unit (bench_e2e_scale reports ms).
        out[name] = float(value) * NS_PER_UNIT[entry.get("time_unit", "ns")]
        if entry.get("pool_threads") is not None:
            pool[name] = int(entry["pool_threads"])
        for field in PERCENTILE_FIELDS:
            if entry.get(field) is not None:
                percentiles[f"{name}:{field}"] = float(entry[field]) * NS_PER_UNIT["ms"]
    if not out:
        die(f"{path} holds no benchmark entries")
    num_cpus = doc.get("context", {}).get("num_cpus")
    return out, pool, int(num_cpus) if num_cpus else None, percentiles


def format_ns(ns):
    for unit, scale in (("s", 1e9), ("ms", 1e6), ("us", 1e3)):
        if abs(ns) >= scale:
            return f"{ns / scale:.3g} {unit}"
    return f"{ns:.3g} ns"


def main():
    parser = argparse.ArgumentParser(
        description="Per-benchmark delta report between two google-benchmark "
        "JSON files, with a warn/fail regression threshold."
    )
    parser.add_argument("baseline", help="committed baseline BENCH_*.json")
    parser.add_argument("current", help="freshly produced BENCH_*.json")
    parser.add_argument(
        "--threshold",
        type=float,
        default=15.0,
        help="regression threshold in percent (default: 15)",
    )
    parser.add_argument(
        "--metric",
        choices=("cpu_time", "real_time"),
        default="cpu_time",
        help="which benchmark time to compare (default: cpu_time; CI "
        "wall-clock is noisier than CPU time)",
    )
    parser.add_argument(
        "--filter", default="", help="only compare benchmarks matching this regex"
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 when any regression exceeds the threshold (default: warn "
        "only — hosted-runner noise must not fail PRs)",
    )
    args = parser.parse_args()
    if args.threshold <= 0:
        parser.error("--threshold must be positive")

    baseline, base_pool, base_cpus, base_pct = load_benchmarks(args.baseline, args.metric)
    current, cur_pool, cur_cpus, cur_pct = load_benchmarks(args.current, args.metric)
    if args.filter:
        pattern = re.compile(args.filter)
        baseline = {k: v for k, v in baseline.items() if pattern.search(k)}
        current = {k: v for k, v in current.items() if pattern.search(k)}
        base_pct = {k: v for k, v in base_pct.items() if pattern.search(k)}
        cur_pct = {k: v for k, v in cur_pct.items() if pattern.search(k)}

    if base_cpus and cur_cpus and base_cpus != cur_cpus:
        print(f"note: CPU counts differ: baseline num_cpus={base_cpus}, "
              f"current num_cpus={cur_cpus}")
    known_cpus = [c for c in (base_cpus, cur_cpus) if c]
    max_threads = min(known_cpus) if known_cpus else None

    def oversubscribed(name):
        threads = max(base_pool.get(name, 0), cur_pool.get(name, 0))
        return max_threads is not None and threads > max_threads

    shared = [name for name in baseline if name in current]
    skipped = [name for name in shared if oversubscribed(name)]
    shared = [name for name in shared if not oversubscribed(name)]
    only_baseline = sorted(set(baseline) - set(current))
    only_current = sorted(set(current) - set(baseline))

    def compare(names, base, cur):
        """Prints one delta row per name; returns (regressions, improvements)."""
        slower, faster = [], []
        for name in names:
            base_ns = base[name]
            cur_ns = cur[name]
            delta = (cur_ns - base_ns) / base_ns * 100.0 if base_ns > 0 else 0.0
            flag = ""
            if delta > args.threshold:
                flag = "  <-- REGRESSION"
                slower.append((name, delta))
            elif delta < -args.threshold:
                flag = "  (faster)"
                faster.append((name, delta))
            print(
                f"{name:<{width}}  {format_ns(base_ns):>10}  "
                f"{format_ns(cur_ns):>10}  {delta:>+7.1f}%{flag}"
            )
        return slower, faster

    pct_shared = [name for name in base_pct if name in cur_pct]
    width = max((len(n) for n in shared + pct_shared), default=4)
    print(f"bench_diff: {args.current} vs {args.baseline} "
          f"({args.metric}, threshold {args.threshold:g}%)\n")
    print(f"{'benchmark':<{width}}  {'baseline':>10}  {'current':>10}  {'delta':>8}")
    regressions, improvements = compare(shared, baseline, current)
    pct_regressions = []
    if pct_shared:
        print("\nlatency percentiles (warn-only):")
        pct_regressions, _ = compare(pct_shared, base_pct, cur_pct)

    if skipped:
        print(f"\nskipped, more pool threads than {max_threads} CPU(s): "
              f"{', '.join(skipped)}")
    if only_baseline:
        print(f"\nonly in baseline (removed?): {', '.join(only_baseline)}")
    if only_current:
        print(f"\nonly in current (new): {', '.join(only_current)}")

    annotate = os.environ.get("GITHUB_ACTIONS") == "true"
    # A benchmark added by the PR has nothing to be compared against: call
    # it out as informational (a notice, never a failure) instead of
    # skipping it silently — the committed baseline needs refreshing to
    # start gating it.
    for name in only_current:
        message = (
            f"{name} is new — no entry in the committed baseline; reported "
            f"informationally only (refresh the baseline to gate it)"
        )
        if annotate:
            print(f"::notice title=new benchmark::{message}")
        else:
            print(f"note: {message}", file=sys.stderr)

    print(
        f"\n{len(shared)} compared, {len(skipped)} skipped, "
        f"{len(regressions)} regression(s) beyond "
        f"{args.threshold:g}%, {len(improvements)} improvement(s) beyond it"
    )
    if pct_shared:
        print(f"{len(pct_shared)} percentile(s) compared, "
              f"{len(pct_regressions)} beyond {args.threshold:g}% (warn-only)")
    for name, delta in regressions + pct_regressions:
        message = (
            f"{name} regressed {delta:+.1f}% vs baseline "
            f"(threshold {args.threshold:g}%)"
        )
        if annotate:
            print(f"::warning title=bench regression::{message}")
        else:
            print(f"warning: {message}", file=sys.stderr)

    if regressions and args.strict:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
