#!/usr/bin/env python3
"""qTask end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

with <name> one of full_sim, push_one_session, mixed_edits,
session_push, or `all` to run each of them in turn.

Builds the `perfbench` package (a cargo package of its own, in this
directory) from source, runs the chosen workload, and prints as its last
line one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`. With `--trace 0` the metrics are the `end_to_end` metrics
named in BENCHMARK.json, measured untraced in several fresh processes
that share the measured time; each metric is the median over them.
With `--trace 1` they are the `per_layer` metrics of one traced process.

The wrapper also accounts for a workload process that dies: every op it
began and did not finish counts as failed, and so does every op it would
still have run in the remaining measured time, at the rate it had
reached. The signal and the seed and op index of the first failure are
printed. Failures are never retried.

Build output goes to $CARGO_TARGET_DIR (default: perfbench/target), and
traces to `perfbench-out/` inside it.
"""

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

WORKLOADS = ("full_sim", "push_one_session", "mixed_edits", "session_push")
HERE = os.path.dirname(os.path.abspath(__file__))
# Seconds a workload process may take beyond its measured time.
CHILD_TIMEOUT_S = 120
# An untraced run splits its measured time over several fresh processes in
# turn and reports each metric's median over them. On a shared host one
# process can run up to twice as fast as the next for its whole life, and
# each process's cold op (or first set-up) is one sample of the cold cost.
PROCS = {"full_sim": 10, "push_one_session": 10, "mixed_edits": 5, "session_push": 5}


# The same measurements under the names each workload's users know them
# by: (generic metric, name, scale).
ALIASES = {
    "full_sim": [("op_p50_ms", "full_sim_s", 1e-3), ("cold_start_ms", "full_sim_cold_s", 1e-3),
                 ("peak_mb", "peak_mb", 1)],
    "push_one_session": [("op_p50_ms", "push_p50_ms", 1), ("op_p99_ms", "push_p99_ms", 1),
                         ("ops_per_s", "edits_per_s", 1), ("read_p50_us", "read_p50_us", 1)],
    "mixed_edits": [("op_p50_ms", "edit_p50_ms", 1), ("op_p90_ms", "edit_p90_ms", 1),
                    ("ops_per_s", "edits_per_s", 1)],
    "session_push": [("op_p50_ms", "push_p50_ms", 1), ("op_p99_ms", "push_p99_ms", 1),
                     ("ops_per_s", "edits_per_s", 1), ("read_p50_us", "read_p50_us", 1)],
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def target_dir(root):
    return os.path.abspath(os.path.join(root, os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target"))))


def build(root):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir(root))
    proc = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=880)
    if proc.returncode != 0:
        log("perfbench: build failed (exit %d)" % proc.returncode)
        sys.exit(2)
    exe = os.path.join(target_dir(root), "release", "perfbench")
    if not os.path.isfile(exe):
        log("perfbench: built binary missing at %s" % exe)
        sys.exit(2)
    return exe


def source_digest(root):
    """SHA-256 over the sources the binary is built from (a checkout
    without git history still gets a stable identity)."""
    h = hashlib.sha256()
    roots = [os.path.join(root, p) for p in ("Cargo.toml", "Cargo.lock", "crates", "src")]
    roots.append(HERE)
    skip = {"target", ".bench_build"}
    for top in roots:
        if os.path.isfile(top):
            files = [top]
        else:
            files = []
            for d, dirs, names in os.walk(top):
                dirs[:] = sorted(x for x in dirs if x not in skip)
                files.extend(os.path.join(d, n) for n in sorted(names))
        for f in files:
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit(root):
    """HEAD of the repository rooted at `root`, or "unknown" (a checkout
    without history, or one nested in another repository)."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode == 0 and len(lines) == 2 and os.path.realpath(lines[0]) == os.path.realpath(root):
        return lines[1]
    return "unknown"


def run_child(exe, args, out_dir, seconds):
    """Runs one workload process measuring for `seconds`; returns its exit
    code, RESULT object, provenance, and the op accounting read from its
    progress lines."""
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace), "--out", out_dir]
    # glibc reads MALLOC_ARENA_MAX when the allocator initialises, so it
    # is set before exec (see qtask_bench::harness_init).
    env = dict(os.environ, MALLOC_ARENA_MAX="2")
    begun, ended, failed_ops, fails = set(), set(), set(), []
    result, provenance, measuring_at = None, None, None
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True, bufsize=1)
    timed_out = threading.Event()

    def kill():
        timed_out.set()
        proc.kill()

    watchdog = threading.Timer(CHILD_TIMEOUT_S + seconds, kill)
    watchdog.start()
    try:
        for line in proc.stdout:
            line = line.rstrip("\n")
            head, _, rest = line.partition(" ")
            if head == "BEGIN":
                begun.add(int(rest))
            elif head == "END":
                ended.add(int(rest))
            elif head == "MEASURING":
                measuring_at = time.monotonic()
            elif head == "RESULT":
                result = json.loads(rest)
            elif head == "PROVENANCE":
                provenance = json.loads(rest)
            else:
                if head == "FAIL":
                    fails.append(rest)
                    for word in rest.split():
                        if word.startswith("op=") and word[3:].isdigit():
                            failed_ops.add(int(word[3:]))
                print(line, flush=True)
    finally:
        rc = proc.wait()
        watchdog.cancel()
    return {
        "rc": rc, "timed_out": timed_out.is_set(), "seconds": seconds, "result": result, "provenance": provenance,
        "begun": begun, "ended": ended, "failed_ops": failed_ops, "fails": fails,
        "measuring_at": measuring_at, "finished_at": time.monotonic(),
    }


def died_result(args, run):
    """Failure accounting for a process that did not finish its run:
    returns (attempted, failed)."""
    unfinished = run["begun"] - run["ended"]
    remaining = 0
    if run["measuring_at"] is not None:
        elapsed = run["finished_at"] - run["measuring_at"]
        rate = len(run["ended"]) / elapsed if elapsed > 0 else 0.0
        remaining = math.ceil(max(0.0, run["seconds"] - elapsed) * rate)
    failed = len(unfinished | run["failed_ops"]) + remaining
    attempted = max(1, len(run["begun"]) + remaining)
    rc = run["rc"]
    if run["timed_out"]:
        how = "killed after %ds" % (CHILD_TIMEOUT_S + run["seconds"])
    elif rc < 0:
        how = "died of %s" % signal.Signals(-rc).name
    else:
        how = "exited with code %d without a result" % rc
    first = run["fails"][0] if run["fails"] else (
        "seed=%d op=%d unfinished when the process %s" % (args.seed, min(unfinished), how)
        if unfinished else "seed=%d before any op" % args.seed)
    print("workload process %s: %d ops began, %d ended, %d more expected in the remaining time"
          % (how, len(run["begun"]), len(run["ended"]), remaining))
    print("first failure: %s" % first)
    return attempted, failed


def merge(args, runs, names):
    """One result from a run's processes: ops and failures summed, each
    metric the median over the processes that finished."""
    done = [r["result"] for r in runs if r["rc"] == 0 and not r["timed_out"] and r["result"]]
    attempted = sum(int(res["attempted"]) for res in done)
    failed = sum(int(res["failed"]) for res in done)
    for run in runs:
        if not (run["rc"] == 0 and not run["timed_out"] and run["result"]):
            a, f = died_result(args, run)
            attempted, failed = attempted + a, failed + f
    metrics = {}
    for res in done:
        for n, m in res["metrics"].items():
            metrics.setdefault(n, {"values": [], "unit": m["unit"]})["values"].append(m["value"])
    if len(runs) > 1:
        for n, _ in names:
            if n in metrics:
                print("%s per process: %s" % (n, ", ".join("%.6g" % v for v in metrics[n]["values"])))
    return {
        "correct": len(done) == len(runs) and all(res["correct"] for res in done),
        "attempted": max(1, attempted), "failed": failed,
        "metrics": {n: {"value": statistics.median(m["values"]), "unit": m["unit"]} for n, m in metrics.items()},
    }


def run_all(args):
    """Runs every workload in turn, each in its own invocation, and ends
    with one JSON object holding each workload's result."""
    results = {}
    for w in WORKLOADS:
        print("== %s" % w, flush=True)
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", w, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = out.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]), flush=True)
        results[w] = json.loads(lines[-1]) if out.returncode == 0 and lines else {"exit": out.returncode}
    print(json.dumps(results), flush=True)


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    if args.workload == "all":
        return run_all(args)
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = [(m["name"], m["unit"]) for m in wanted]
    # A workload outside BENCHMARK.json still runs; it reports every
    # metric it measured, the ones no gated workload exercises included.
    gated = args.workload in [w["name"] for w in spec["workloads"]]

    exe = build(root)
    out_dir = os.path.join(target_dir(root), "perfbench-out")
    procs = 1 if args.trace else PROCS[args.workload]
    runs = [run_child(exe, args, out_dir, args.seconds / procs) for _ in range(procs)]

    prov = dict(next((r["provenance"] for r in runs if r["provenance"]), {}))
    prov.update({"git_commit": git_commit(root), "source_sha256": source_digest(root),
                 "run_seconds": args.seconds, "processes": procs,
                 "malloc_arena_max_set_by": "run.py, before exec"})
    print("provenance: " + json.dumps(prov, sort_keys=True))

    res = merge(args, runs, names)
    metrics = res["metrics"]
    if res["correct"] and gated:
        missing = [n for n, _ in names if n not in metrics]
        if missing:
            log("perfbench: workload %s reported no %s" % (args.workload, ", ".join(missing)))
            sys.exit(3)
        for n, u in names:
            if metrics[n]["unit"] != u:
                log("perfbench: metric %s has unit %s, BENCHMARK.json says %s" % (n, metrics[n]["unit"], u))
                sys.exit(3)
    if gated:
        metrics = {n: metrics.get(n, {"value": 0.0, "unit": u}) for n, u in names}
    final = {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
             "metrics": metrics}
    if res["metrics"]:
        print("all metrics: " + ", ".join(
            "%s=%.6g %s" % (n, m["value"], m["unit"]) for n, m in sorted(res["metrics"].items())))
        named = [(alias, res["metrics"][n]["value"] * scale)
                 for n, alias, scale in ALIASES[args.workload] if n in res["metrics"]]
        if named:
            print("%s: %s" % (args.workload, ", ".join("%s=%.6g" % a for a in named)))
    print("%s: %d ops attempted, %d failed, correct=%s"
          % (args.workload, final["attempted"], final["failed"], final["correct"]))
    print(json.dumps(final), flush=True)


if __name__ == "__main__":
    main()
