#!/usr/bin/env python3
"""Compare a google-benchmark JSON run against a checked-in baseline.

Usage:
    check_bench_regression.py CURRENT.json BASELINE.json [threshold]

Fails (exit 1) when any benchmark present in both files regressed by more
than `threshold` (default 1.5x) in cpu_time, or when a baseline benchmark
is missing from the current run (a rename or filter edit would otherwise
silently shrink the gate to nothing). Benchmarks missing from the
baseline are reported but never fail the check, so adding a benchmark does
not require touching the baseline in the same commit; remember to
regenerate it afterwards:

    ./build/bench_kernels --benchmark_filter='<ci filter>' \
        --benchmark_min_time=0.05s --benchmark_format=json \
        > .github/bench_baseline.json

The threshold is deliberately loose: CI machines are noisy and shared, so
this guards against step-change regressions (an accidentally quadratic
loop, a lost fast path), not percentage drift. Aggregate entries
(_mean/_median/_stddev) and per-iteration counters are ignored.

A benchmark that skipped itself with an error (`error_occurred`, e.g. an
AVX-512 arm on a CPU without AVX-512) reports a cpu_time of 0; it is
printed as SKIPPED and never compared, and it does not count as missing.
"""

import json
import sys

_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load(path):
    """({name: cpu_ns}, {name: error message}) of a benchmark JSON file."""
    with open(path) as f:
        data = json.load(f)
    out, skipped = {}, {}
    for b in data.get("benchmarks", []):
        name = b.get("name", "")
        if b.get("run_type") == "aggregate" or name.endswith(
            ("_mean", "_median", "_stddev", "_cv")
        ):
            continue
        if b.get("error_occurred"):
            skipped[name] = b.get("error_message", "")
            continue
        out[name] = b["cpu_time"] * _UNIT_NS[b.get("time_unit", "ns")]
    return out, skipped


def main(argv):
    if len(argv) < 3:
        print(__doc__)
        return 2
    current, skipped = load(argv[1])
    baseline, _ = load(argv[2])
    threshold = float(argv[3]) if len(argv) > 3 else 1.5

    if not current and not skipped:
        print(f"ERROR: no benchmarks parsed from {argv[1]}")
        return 1

    for name, message in sorted(skipped.items()):
        print(f"  SKIPPED  {name}: {message}")
    failures = []
    for name, cpu_ns in sorted(current.items()):
        base_ns = baseline.get(name)
        if base_ns is None:
            print(f"  NEW      {name}: {cpu_ns / 1e6:.3f} ms (no baseline)")
            continue
        ratio = cpu_ns / base_ns if base_ns > 0 else float("inf")
        status = "OK" if ratio <= threshold else "REGRESSED"
        print(
            f"  {status:9s}{name}: {cpu_ns / 1e6:.3f} ms "
            f"vs baseline {base_ns / 1e6:.3f} ms ({ratio:.2f}x)"
        )
        if ratio > threshold:
            failures.append((name, ratio))

    missing = sorted(set(baseline) - set(current) - set(skipped))
    if missing:
        print(
            f"\nFAIL: {len(missing)} baseline benchmark(s) missing from the "
            "current run (renamed or dropped from the CI filter?). "
            "Regenerate the baseline if intentional:"
        )
        for name in missing:
            print(f"  {name}")
        return 1

    if failures:
        print(
            f"\nFAIL: {len(failures)} benchmark(s) regressed more than "
            f"{threshold}x:"
        )
        for name, ratio in failures:
            print(f"  {name}: {ratio:.2f}x")
        return 1
    print(f"\nOK: no benchmark regressed more than {threshold}x "
          f"({len(current)} checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
