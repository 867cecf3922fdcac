#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads, checked output.

Run from the repository root:

    python3 perfbench/run.py --workload paper-sync --seed 7 --seconds 20 --trace 0

Builds the library and the harness (perfbench/CMakeLists.txt) into
.bench_build/, then measures one workload in a closed loop: one in-process
caller runs a job to completion before the next starts. Each measured run is
its own process (peak RSS is the process high-water mark, which only grows),
doing `setup_warmups` untimed and `setup_reps` timed set-ups, one untimed
warm-up pass and `passes` timed passes; processes repeat until --seconds is
used up and the medians are reported. --trace 1 instead makes one traced run: the benchmark's replay of
the workload with a span around every layer call (perfbench/replay.h) and
the per-layer metrics derived from those spans.

Every run is checked: each process's timed pass must reproduce its warm-up
pass and the set's first process exactly; at a seed with a recorded
reference (perfbench/reference.json: seeds 0-15 for the fp64 workloads, the
default seed 7 for async-fleet) fp64 workloads must match it exactly and
async-fleet must lie within 1e-3 of its fp64 twin; a traced run's replay
must do the same work as the untraced run. A run that crashes or
fails a check counts in `failed`, and the command then exits 1.

The last stdout line is one JSON object: correct, attempted, failed and
metrics ({name: {value, unit}}).
"""

import argparse
import dataclasses
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "hfr_perfbench")
REFERENCE = os.path.join(HERE, "reference.json")

# A whole invocation must end within 180 s; children get what is left of
# this budget.
INVOCATION_BUDGET_S = 170
# Absolute tolerance of the fp32 backend against its fp64 twin
# (docs/PERFORMANCE.md, "Tolerance contract").
FP32_TOLERANCE = 1e-3
# Output an fp64 workload must reproduce bit for bit at a recorded seed:
# the quality metrics and a function of every final table value.
REFERENCE_KEYS = ("ndcg20", "recall20", "collapse_var")


@dataclasses.dataclass(frozen=True)
class Workload:
    """One declarative benchmark configuration.

    num_threads, server_shards and clients_per_round play the roles of a
    parameter-server benchmark's trainer_count, parameter_server_count and
    batch_size. `flags` are the remaining experiment flags of hfr_perfbench
    (the repository's shared experiment flags plus dataset/model/schedule).
    The workload's name and rationale are declared in BENCHMARK.json.
    """

    name: str
    kind: str  # "train": ExperimentRunner::Create/Run; "rank": Evaluator
    num_threads: int
    server_shards: int
    clients_per_round: int | None  # None: the workload has no rounds
    setup_warmups: int  # untimed set-ups per process before the timed ones
    setup_reps: int  # timed set-ups per process; their median is setup_s
    passes: int  # timed passes per process after the warm-up
    trace_pairs: int  # untraced/traced replay pairs of a traced run
    flags: dict
    twin: dict = dataclasses.field(default_factory=dict)  # fp64 twin flags
    tiny: dict = dataclasses.field(default_factory=dict)  # self-test size

    def args(self, tiny=False):
        flags = {
            "kind": self.kind,
            "threads": self.num_threads,
            "server_shards": self.server_shards,
            **self.flags,
        }
        if self.clients_per_round is not None:
            flags["clients_per_round"] = self.clients_per_round
        if tiny:
            flags.update(self.tiny)
        return [f"--{k}={v}" for k, v in flags.items()]


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="paper-sync",
            kind="train",
            num_threads=1,
            server_shards=0,
            clients_per_round=256,
            setup_warmups=10,
            setup_reps=15,
            passes=3,
            trace_pairs=3,
            flags={"model": "ncf", "dataset": "ml", "data_scale": 0.06,
                   "epochs": 2, "eval_users": 0, "compute_backend": "fp64"},
            tiny={"data_scale": 0.02, "epochs": 1},
        ),
        Workload(
            name="async-fleet",
            kind="train",
            num_threads=2,
            server_shards=4,
            clients_per_round=32,
            setup_warmups=6,
            setup_reps=8,
            passes=3,
            trace_pairs=3,
            flags={"model": "lightgcn", "dataset": "anime", "data_scale": 0.05,
                   "epochs": 2, "eval_users": 0,
                   "compute_backend": "fp32_simd",
                   # Pinned so the fp64 twin runs the same merge schedule.
                   "wire_format": "fp32",
                   "async": "true", "async_dispatch_batch": 8,
                   "async_max_staleness": 64,
                   "availability": 0.8, "net_bandwidth_sigma": 1.0,
                   "net_latency_sigma": 0.3, "delta_downloads": "true",
                   "sparse_comm": "true", "fault_upload_loss": 0.03,
                   "fault_crash": 0.02, "fault_corrupt": 0.03,
                   # Finite scan and row-norm clipping only: the z-score
                   # gate's verdicts depend on update norms, so the fp64
                   # twin would merge on another schedule.
                   "admission": "true", "admit_max_row_norm": 1.0},
            twin={"compute_backend": "fp64"},
            tiny={"data_scale": 0.02, "epochs": 1},
        ),
        Workload(
            name="rank-anime",
            kind="rank",
            num_threads=1,
            server_shards=0,
            clients_per_round=None,
            setup_warmups=0,
            setup_reps=2,
            passes=2,
            trace_pairs=1,
            flags={"model": "lightgcn", "dataset": "anime", "data_scale": 1.0,
                   "eval_users": 0, "compute_backend": "fp64"},
            tiny={"data_scale": 0.05},
        ),
    ]
}


def declared_metrics(section):
    """{name: unit} of BENCHMARK.json's `section`, in its order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once and builds incrementally; returns False on failure."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release", *gen])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", BUILD, "-j", jobs])
        # Compiler temporaries stay inside the checkout too.
        tmp = os.path.join(BUILD, "tmp")
        os.makedirs(tmp, exist_ok=True)
        env = dict(os.environ, TMPDIR=tmp)
        with open(log_path, "w") as out:
            for cmd in steps:
                if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT,
                                   cwd=ROOT, env=env) != 0:
                    with open(log_path) as f:
                        log(f.read()[-4000:])
                    return False
    return True


def run_child(args, timeout):
    """Runs hfr_perfbench; returns its last-line JSON or None on failure."""
    try:
        proc = subprocess.run([BINARY, *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"timeout after {timeout:.0f} s: {' '.join(args)}")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"exit {proc.returncode}: {' '.join(args)}\n{proc.stderr[-2000:]}")
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"unparseable output: {lines[-1][:200]}")
        return None


def load_reference(workload, seed):
    try:
        with open(REFERENCE) as f:
            return json.load(f).get(workload, {}).get(str(seed))
    except FileNotFoundError:
        return None


def quality_errors(w, counts, first, ref):
    """Correctness of one run's output; returns a list of problems."""
    errors = []
    if first is not None and counts != first:
        errors.append("does not reproduce the set's first run")
    for key, want in (ref or {}).items():
        got = counts[key]
        if w.twin:
            if abs(got - want) > FP32_TOLERANCE:
                errors.append(f"{key} {got} is more than {FP32_TOLERANCE} "
                              f"from the fp64 twin's {want}")
        elif got != want:
            errors.append(f"{key} {got!r} != reference {want!r}")
    return errors


def spread(values):
    """(median, q1, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def measure(w, seed, seconds, tiny):
    """Untraced runs until `seconds` is used up; returns the result object."""
    ref = None if tiny else load_reference(w.name, seed)
    base = [f"--seed={seed}", "--mode=e2e", *w.args(tiny),
            f"--setup_warmups={w.setup_warmups}",
            f"--setup_reps={w.setup_reps}", f"--passes={w.passes}"]
    runs, failed, attempted = [], 0, 0
    first = None
    start = time.monotonic()
    longest = 0.0
    while True:
        elapsed = time.monotonic() - start
        if attempted > 0 and elapsed + longest > seconds:
            break
        attempted += 1
        t0 = time.monotonic()
        out = run_child(base, max(10.0, INVOCATION_BUDGET_S - elapsed))
        longest = max(longest, time.monotonic() - t0)
        if out is None:
            failed += 1
            continue
        errors = quality_errors(w, out["counts"], first, ref)
        if not out["warm_matches"]:
            errors.append("the timed pass does not reproduce the warm-up")
        if errors:
            log(f"{w.name} seed {seed}: " + "; ".join(errors))
            failed += 1
            continue
        first = first or out["counts"]
        runs.append(out)
    values = {
        "setup_s": [s for r in runs for s in r["setup_s"]],
        "run_s": [t for r in runs for t in r["run_s"]],
        "work_per_s": [r["work"] / t for r in runs for t in r["run_s"]],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
    }
    metrics = {}
    print(f"{w.name} seed={seed}: {len(runs)} measured runs "
          f"({attempted} attempted, {failed} failed)")
    for name, unit in declared_metrics("end_to_end").items():
        if not values[name]:
            continue
        med, q1, q3 = spread(values[name])
        metrics[name] = {"value": med, "unit": unit}
        print(f"  {name:<12} median {med:.6g} {unit}  "
              f"q1 {q1:.6g}  q3 {q3:.6g}  n={len(values[name])}")
    if first is not None:
        print(f"  work: {first}")
    return {"correct": failed == 0 and bool(runs), "attempted": attempted,
            "failed": failed, "metrics": metrics}


def trace(w, seed, tiny):
    """One traced run; returns the result object with per-layer metrics."""
    ref = None if tiny else load_reference(w.name, seed)
    os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
    spans = os.path.join(BUILD, "traces", f"{w.name}-seed{seed}.json")
    out = run_child([f"--seed={seed}", "--mode=trace", *w.args(tiny),
                     f"--trace_pairs={w.trace_pairs}",
                     f"--spans_out={spans}"], INVOCATION_BUDGET_S)
    if out is None:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    run = out["run_counts"]
    errors = quality_errors(w, run, None, ref)
    if out["replay_counts"] != run or not out["replays_agree"]:
        errors.append("the replay's work differs from the untraced run's")
    if not out["spans_written"]:
        errors.append(f"could not write {spans}")
    print(f"{w.name} seed={seed}: traced replay, {out['spans']} spans -> "
          f"{os.path.relpath(spans, ROOT)}")
    print(f"  {'work count':<16} {'run':>20} {'replay':>20}")
    for key in run:
        print(f"  {key:<16} {str(run[key]):>20} "
              f"{str(out['replay_counts'][key]):>20}")
    for e in errors:
        log(f"{w.name} seed {seed}: {e}")
    raw = dict(out["metrics"])
    raw["quality.ndcg20"] = run["ndcg20"]
    raw["quality.recall20"] = run["recall20"]
    metrics = {name: {"value": raw[name], "unit": unit}
               for name, unit in declared_metrics("per_layer").items()}
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    return {"correct": not errors, "attempted": 1, "failed": int(bool(errors)),
            "metrics": metrics}


def record(w, seeds):
    """Writes the reference output of `w` at `seeds` into reference.json:
    the workload's own for fp64 workloads, its fp64 twin's quality
    otherwise."""
    try:
        with open(REFERENCE) as f:
            table = json.load(f)
    except FileNotFoundError:
        table = {}
    flags = [*w.args(), *[f"--{k}={v}" for k, v in w.twin.items()]]
    for seed in seeds:
        out = run_child([f"--seed={seed}", "--mode=e2e", *flags],
                        INVOCATION_BUDGET_S)
        if out is None or not out["warm_matches"]:
            log(f"{w.name} seed {seed}: no reference recorded")
            return 1
        keys = ("ndcg20", "recall20") if w.twin else REFERENCE_KEYS
        table.setdefault(w.name, {})[str(seed)] = {
            k: out["counts"][k] for k in keys}
        print(f"{w.name} seed {seed}: {table[w.name][str(seed)]}")
    with open(REFERENCE, "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all"],
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="self-test size (no reference check)")
    ap.add_argument("--record", metavar="FIRST-LAST",
                    help="record reference metrics for this seed range")
    args = ap.parse_args()
    if not os.path.exists(os.path.join(ROOT, "src", "core", "trainer.h")):
        log(f"perfbench: no HeteFedRec sources under {ROOT}/src")
        return 2
    if not build():
        log("perfbench: build failed")
        return 3
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        w = WORKLOADS[name]
        if args.record:
            first, last = (int(x) for x in args.record.split("-"))
            status |= record(w, range(first, last + 1))
            continue
        if args.trace:
            result = trace(w, args.seed, args.tiny)
        else:
            result = measure(w, args.seed, args.seconds, args.tiny)
        print(json.dumps(result), flush=True)
        status |= 0 if result["correct"] else 1
    return status


if __name__ == "__main__":
    sys.exit(main())
