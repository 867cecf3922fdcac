#!/usr/bin/env python3
"""Self-test of the benchmark command at a tiny size.

Run from the repository root:

    python3 perfbench/selftest.py

For every workload, untraced and traced, it checks that:
  * every metric BENCHMARK.json names is printed exactly once, with its unit,
    and no other metric is;
  * the traced run prints the replay's work counts beside the untraced run's;
  * no run failed (error rate 0) and the command exited 0.
It also checks that the command fails, without printing a result, in a
directory that holds only BENCHMARK.json and the benchmark's own files.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench",
                                                        "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def check_metrics(proc, declared, problems, label):
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr}")
        return None
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} "
                        f"failed={result['failed']}/{result['attempted']}")
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(declared) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(declared))}")
    for name, unit in declared.items():
        if name in metrics and metrics[name]["unit"] != unit:
            problems.append(f"{label}: {name} unit {metrics[name]['unit']} "
                            f"!= {unit}")
        # Each metric is also printed once, by name, in the human lines.
        named = [l for l in lines[:-1] if l.split()[:1] == [name]]
        if len(named) != 1:
            problems.append(f"{label}: {name} printed {len(named)} times")
    return lines


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    problems = []
    for w in bench["workloads"]:
        name = w["name"]
        common = ["--workload", name, "--seed", "3", "--tiny"]
        check_metrics(run([*common, "--seconds", "1", "--trace", "0"]), e2e,
                      problems, f"{name} --trace 0")
        lines = check_metrics(run([*common, "--trace", "1"]), layers,
                              problems, f"{name} --trace 1")
        if lines is not None:
            header = [l for l in lines if l.split() == ["work", "count", "run",
                                                        "replay"]]
            counts = [l for l in lines if l.split()[:1] == ["merged"]]
            if len(header) != 1 or len(counts) != 1:
                problems.append(f"{name} --trace 1: no run/replay work table")
        print(f"{name}: checked")

    # Without the repository's sources the command must fail, printing no
    # result line.
    bare = os.path.join(ROOT, ".bench_build", "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    proc = run(["--workload", bench["workloads"][0]["name"], "--seed", "1",
                "--seconds", "1", "--trace", "0"], cwd=bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare checkout: exit {proc.returncode}, "
                        f"stdout {proc.stdout.strip()[:200]!r}")
    shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("FAIL", p)
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
