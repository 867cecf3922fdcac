#!/usr/bin/env python3
"""Summarize / validate HeteFedRec telemetry output (docs/OBSERVABILITY.md).

Usage:
  tools/summarize_telemetry.py run.jsonl               render tables
  tools/summarize_telemetry.py --trace run_trace.json  validate + summarize
  tools/summarize_telemetry.py --check run.jsonl [--trace run_trace.json]
                                                       validate only (CI)

Validates the JSONL metrics stream (meta row and schema version, row types,
monotone round index and virtual clock) and the Chrome trace file
(parseable JSON, traceEvents present, ts non-decreasing in file order for
non-metadata events), then renders round / eval / phase-profile tables.
"""

import argparse
import json
import re
import sys

ROW_TYPES = {"meta", "round", "eval", "summary", "profile"}


def fail(msg):
    print(f"summarize_telemetry: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load_metrics(path):
    rows = []
    with open(path, "r", encoding="utf-8") as f:
        for n, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as e:
                fail(f"{path}:{n}: not valid JSON: {e}")
            if not isinstance(row, dict) or "type" not in row:
                fail(f"{path}:{n}: row has no 'type'")
            if row["type"] not in ROW_TYPES:
                fail(f"{path}:{n}: unknown row type '{row['type']}'")
            rows.append(row)
    if not rows:
        fail(f"{path}: empty metrics stream")
    return rows


def check_metrics(path, rows):
    if rows[0]["type"] != "meta":
        fail(f"{path}: first row must be type=meta, got {rows[0]['type']}")
    meta = rows[0]  # version 1: the streaming loop; 2: federated runs
    if meta.get("version") not in (1, 2):
        fail(f"{path}: unsupported schema version {meta.get('version')}")
    if meta["version"] == 2 and not (
            re.fullmatch(r"[0-9a-f]{16}", str(meta.get("fingerprint")))
            and isinstance(meta.get("config"), dict)):
        fail(f"{path}: meta v2 needs a 16-hex-digit fingerprint and a config")
    prev_round, prev_clock = 0, -1.0
    summaries = 0
    for row in rows:
        t = row["type"]
        if t == "round":
            for key in ("round", "epoch", "clock", "duration", "merged",
                        "metrics"):
                if key not in row:
                    fail(f"{path}: round row missing '{key}'")
            if row["round"] <= prev_round:
                fail(f"{path}: round index not increasing at {row['round']}")
            prev_round = row["round"]
            if row["clock"] < prev_clock:
                fail(f"{path}: virtual clock went backwards at round "
                     f"{row['round']}")
            prev_clock = row["clock"]
        elif t == "eval":
            for key in ("epoch", "recall", "ndcg"):
                if key not in row:
                    fail(f"{path}: eval row missing '{key}'")
        elif t == "summary":
            summaries += 1
    if summaries != 1:
        fail(f"{path}: expected exactly one summary row, got {summaries}")
    print(f"summarize_telemetry: {path}: OK "
          f"({prev_round} rounds, clock {prev_clock:.1f}s)")


def check_trace(path):
    with open(path, "r", encoding="utf-8") as f:
        try:
            trace = json.load(f)
        except json.JSONDecodeError as e:
            fail(f"{path}: not valid JSON: {e}")
    if "traceEvents" not in trace:
        fail(f"{path}: no traceEvents key")
    events = trace["traceEvents"]
    prev_ts = -1.0
    names = {}
    for i, ev in enumerate(events):
        for key in ("ph", "name", "pid", "tid"):
            if key not in ev:
                fail(f"{path}: event {i} missing '{key}'")
        if ev["ph"] == "M":
            continue
        if "ts" not in ev:
            fail(f"{path}: event {i} ({ev['name']}) has no ts")
        if ev["ts"] < prev_ts:
            fail(f"{path}: ts not monotone at event {i} ({ev['name']}): "
                 f"{ev['ts']} < {prev_ts}")
        prev_ts = ev["ts"]
        names[ev["name"]] = names.get(ev["name"], 0) + 1
    breakdown = " ".join(f"{k}={v}" for k, v in sorted(names.items()))
    print(f"summarize_telemetry: {path}: OK ({len(events)} events, "
          f"{breakdown})")
    return events


def table(title, headers, rows):
    widths = [len(h) for h in headers]
    rows = [[str(c) for c in r] for r in rows]
    for r in rows:
        for i, c in enumerate(r):
            widths[i] = max(widths[i], len(c))
    print(f"\n{title}")
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    print(line)
    print("-" * len(line))
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)))


def render(rows):
    meta = rows[0]
    cfg = meta.get("config", {})  # version 1 has a few fields on the row
    print(f"run: method={meta.get('method')} "
          f"dataset={cfg.get('dataset', meta.get('dataset'))} "
          f"seed={cfg.get('seed', meta.get('seed'))} "
          f"async={cfg.get('async_mode', meta.get('async'))} "
          f"epochs={cfg.get('global_epochs', meta.get('epochs'))} "
          f"fingerprint={meta.get('fingerprint', '-')}")
    # Streams written before these fields existed print "-".
    backend = cfg.get("compute_backend", meta.get("compute_backend", "-"))
    print(f"compute: backend={backend} "
          f"fp64_kernels={meta.get('fp64_kernels', '-')}")

    rounds = [r for r in rows if r["type"] == "round"]
    if rounds:
        step = max(1, len(rounds) // 10)
        shown = rounds[::step]
        if shown[-1] is not rounds[-1]:
            shown.append(rounds[-1])
        table("Rounds (sampled)",
              ["round", "epoch", "clock_s", "dur_s", "merged", "queue",
               "down_scalars", "up_scalars"],
              [[r["round"], r["epoch"], f"{r['clock']:.1f}",
                f"{r['duration']:.2f}", r["merged"], r.get("queue", ""),
                r["metrics"].get("comm.down_scalars", ""),
                r["metrics"].get("comm.up_scalars", "")] for r in shown])

    evals = [r for r in rows if r["type"] == "eval"]
    if evals:
        table("Evaluations",
              ["epoch", "clock_s", "recall@K", "ndcg@K", "loss"],
              [[r["epoch"], f"{r['clock']:.1f}", f"{r['recall']:.5f}",
                f"{r['ndcg']:.5f}", f"{r.get('loss', 0.0):.4f}"]
               for r in evals])

    profiles = [r for r in rows if r["type"] == "profile"]
    if profiles:
        table("Phase profile (wall seconds)",
              ["phase", "calls", "total_s", "self_s"],
              [["  " * r["path"].count("/") + r["path"].rsplit("/", 1)[-1],
                r["calls"], f"{r['total_s']:.3f}", f"{r['self_s']:.3f}"]
               for r in profiles])

    summary = [r for r in rows if r["type"] == "summary"]
    if summary:
        s = summary[0]
        print(f"\nsummary: rounds={s.get('rounds')} merges={s.get('merges')} "
              f"clock={s.get('clock', 0.0):.1f}s "
              f"recall={s.get('recall', 0.0):.5f} "
              f"ndcg={s.get('ndcg', 0.0):.5f} "
              f"scalars={s.get('total_scalars')} "
              f"dropped={s.get('dropped')}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("metrics", nargs="?", help="metrics JSONL stream")
    ap.add_argument("--trace", help="Chrome trace JSON file")
    ap.add_argument("--check", action="store_true",
                    help="validate only; exit nonzero on any violation")
    args = ap.parse_args()
    if not args.metrics and not args.trace:
        ap.error("nothing to do: pass a metrics file and/or --trace")

    if args.metrics:
        rows = load_metrics(args.metrics)
        check_metrics(args.metrics, rows)
        if not args.check:
            render(rows)
    if args.trace:
        check_trace(args.trace)


if __name__ == "__main__":
    main()
