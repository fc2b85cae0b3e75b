#!/usr/bin/env python3
"""Counter-based benchmark regression gate.

Compares a fresh google-benchmark JSON export against the committed
baseline (BENCH_pipeline.json), on the evaluation-cost COUNTERS the
engine attaches per benchmark (ppm.samples_scanned and friends) rather
than on wall time. Counts are exact functions of (trace, catalog), so
they are reproducible on the 1-CPU container where timings are not: a
fresh value above baseline * (1 + tolerance) means the change genuinely
does more throttling-kernel work per curve, not that the machine was
busy.

Three comparison modes:
  - tolerance counters (--counter): cost counters may not GROW beyond
    baseline * (1 + tolerance); shrinking is an improvement, not a
    failure.
  - exact counters (--exact-counter): the serving path's admission
    accounting (serve.admitted / serve.shed / serve.expired from the
    deterministic BM_ServeOverload scenario) and the flight recorder's
    record-per-request contract (obs.flight.recorded from
    BM_FlightRecorderOverhead) must match the baseline EXACTLY in both
    directions — any drift means the admission, deadline, or recording
    semantics changed, which is never a machine artifact.
  - wall-time speedup (--speedup FAST:SLOW:RATIO): within the FRESH run
    only, benchmark FAST's real_time must be at most SLOW's / RATIO —
    e.g. the dispatched SIMD mark kernel against its forced-scalar
    twin. Comparing two benchmarks from the SAME process run cancels
    machine speed, so this is meaningful even where absolute times are
    not. The pair is skipped (with a note) when either side is missing
    or reported an error (e.g. the SIMD variant on a CPU without it).

Usage:
    tools/bench_check.py BASELINE.json FRESH.json \
        [--counter ppm.samples_scanned] [--exact-counter serve.shed] \
        [--tolerance 0.05] [--speedup BM_Fast:BM_Slow:1.10]

Benchmarks present only in one file are reported but are not failures
(new benchmarks land before their baseline is refreshed); a counter that
exists in the baseline entry but not in the fresh one IS a failure — the
instrumentation was lost.

Exit status: 0 when every shared counter is within tolerance, 1 on any
regression, drifted exact counter, or lost counter, 2 on malformed
input.
"""

import argparse
import json
import sys

DEFAULT_COUNTERS = [
    "ppm.samples_scanned",
    "ppm.samples_scanned.azure-db",
    "ppm.samples_scanned.aws-rds",
]
DEFAULT_EXACT_COUNTERS = [
    "serve.admitted", "serve.shed", "serve.expired", "obs.flight.recorded",
    "catalog.targets_compiled",
]


def load_benchmarks(path):
    """Returns {benchmark name: entry dict} for aggregate-free runs."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise SystemExit(f"error: cannot read {path}: {error}")
    entries = {}
    for entry in document.get("benchmarks", []):
        # Skip aggregate rows (mean/median/stddev) if repetitions were used;
        # the raw iteration rows carry the counters.
        if entry.get("run_type") == "aggregate":
            continue
        entries[entry["name"]] = entry
    if not entries:
        raise SystemExit(f"error: {path} contains no benchmark entries")
    return entries


def main():
    parser = argparse.ArgumentParser(
        description="compare benchmark counters against a committed baseline")
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument("fresh", help="freshly produced benchmark JSON")
    parser.add_argument(
        "--counter", action="append", dest="counters", metavar="NAME",
        help="counter to compare (repeatable; default: %s)"
             % ", ".join(DEFAULT_COUNTERS))
    parser.add_argument(
        "--exact-counter", action="append", dest="exact_counters",
        metavar="NAME",
        help="counter that must match baseline exactly (repeatable; "
             "default: %s)" % ", ".join(DEFAULT_EXACT_COUNTERS))
    parser.add_argument(
        "--tolerance", type=float, default=0.05,
        help="allowed relative growth over baseline (default 0.05 = 5%%)")
    parser.add_argument(
        "--speedup", action="append", dest="speedups",
        metavar="FAST:SLOW:RATIO",
        help="require fresh real_time(FAST) <= real_time(SLOW) / RATIO "
             "(repeatable; compares within the fresh run only)")
    args = parser.parse_args()
    counters = args.counters or DEFAULT_COUNTERS
    exact_counters = args.exact_counters or DEFAULT_EXACT_COUNTERS

    baseline = load_benchmarks(args.baseline)
    fresh = load_benchmarks(args.fresh)

    failures = []
    compared = 0
    for name in sorted(baseline):
        if name not in fresh:
            print(f"note: {name} only in baseline (not run this time)")
            continue
        for counter in counters:
            if counter not in baseline[name]:
                continue  # baseline predates this counter for this bench
            base_value = float(baseline[name][counter])
            if counter not in fresh[name]:
                failures.append(
                    f"{name}: counter {counter} missing from fresh run "
                    f"(baseline {base_value:.1f}) — instrumentation lost?")
                continue
            fresh_value = float(fresh[name][counter])
            limit = base_value * (1.0 + args.tolerance)
            compared += 1
            verdict = "ok" if fresh_value <= limit else "REGRESSION"
            print(f"{verdict}: {name} {counter} "
                  f"baseline={base_value:.1f} fresh={fresh_value:.1f} "
                  f"limit={limit:.1f}")
            if fresh_value > limit:
                failures.append(
                    f"{name}: {counter} rose {base_value:.1f} -> "
                    f"{fresh_value:.1f} (>{args.tolerance:.0%} over baseline)")
        for counter in exact_counters:
            if counter not in baseline[name]:
                continue  # baseline predates this counter for this bench
            base_value = float(baseline[name][counter])
            if counter not in fresh[name]:
                failures.append(
                    f"{name}: counter {counter} missing from fresh run "
                    f"(baseline {base_value:.1f}) — instrumentation lost?")
                continue
            fresh_value = float(fresh[name][counter])
            compared += 1
            verdict = "ok" if fresh_value == base_value else "DRIFT"
            print(f"{verdict}: {name} {counter} "
                  f"baseline={base_value:.1f} fresh={fresh_value:.1f} "
                  f"(exact)")
            if fresh_value != base_value:
                failures.append(
                    f"{name}: {counter} drifted {base_value:.1f} -> "
                    f"{fresh_value:.1f} (exact counter; admission or "
                    f"deadline semantics changed)")
    for name in sorted(set(fresh) - set(baseline)):
        print(f"note: {name} only in fresh run (no baseline yet)")

    for spec in args.speedups or []:
        parts = spec.rsplit(":", 1)
        if len(parts) != 2 or ":" not in parts[0]:
            raise SystemExit(f"error: malformed --speedup '{spec}' "
                             f"(expected FAST:SLOW:RATIO)")
        pair, ratio_text = parts
        fast_name, slow_name = pair.split(":", 1)
        try:
            ratio = float(ratio_text)
        except ValueError:
            raise SystemExit(f"error: malformed --speedup ratio in '{spec}'")
        skipped = None
        for side in (fast_name, slow_name):
            if side not in fresh:
                skipped = f"{side} not in fresh run"
            elif fresh[side].get("error_occurred"):
                skipped = f"{side} reported an error (unsupported here?)"
        if skipped is not None:
            print(f"note: speedup {fast_name} vs {slow_name} skipped: "
                  f"{skipped}")
            continue
        fast_time = float(fresh[fast_name]["real_time"])
        slow_time = float(fresh[slow_name]["real_time"])
        compared += 1
        achieved = slow_time / fast_time if fast_time > 0 else float("inf")
        verdict = "ok" if achieved >= ratio else "REGRESSION"
        print(f"{verdict}: speedup {fast_name} vs {slow_name} "
              f"achieved={achieved:.2f}x required={ratio:.2f}x")
        if achieved < ratio:
            failures.append(
                f"{fast_name}: only {achieved:.2f}x faster than "
                f"{slow_name} (required {ratio:.2f}x)")

    if compared == 0:
        print("error: no comparable (benchmark, counter) pairs", file=sys.stderr)
        return 2
    if failures:
        print(f"\n{len(failures)} regression(s):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"\nall {compared} counter comparisons within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
