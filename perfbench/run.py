#!/usr/bin/env python3
"""End-to-end benchmark entry point.

    python3 perfbench/run.py --workload point_txn --seed 1 --seconds 20 --trace 0

Builds the benchmark (perfbench/CMakeLists.txt, an optimized build of the
library from src/ plus the benchmark program in perfbench/src) into .bench_build,
runs one workload in its own process, and prints as the last line of
standard output one JSON object: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end_to_end metrics of
BENCHMARK.json; with --trace 1 they are its per_layer metrics, from an
untraced and a traced run of the same seed (seconds/2 each), summarized
by perfbench/trace_summary.py.

Exits nonzero without printing a result when the build fails, a run
fails, or an output check (oracle) or the stationarity guard fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # write nothing into the source tree

import trace_summary  # noqa: E402

WORKLOADS = ("point_txn", "bulk_rules")
# Every run of the benchmark binary ends within this many seconds of the
# first one's start, so a hung run cannot hold the caller past 3 minutes.
RUN_BUDGET_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    # The build tree lives in the checkout; CARGO_TARGET_DIR names it when
    # set (relative to the checkout root).
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures (once) and builds; returns the benchmark binary's path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)  # retry configure next time
            return None
    done = subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                          stdout=sys.stderr)
    binary = out / "perfbench"
    return binary if done.returncode == 0 and binary.exists() else None


def run_binary(binary, args, workdir, deadline):
    """Runs the benchmark binary once; returns its parsed result or None."""
    cmd = [str(binary)] + args + ["--dir", str(workdir)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("perfbench: run timed out")
        return None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        log(f"perfbench: benchmark binary exited with {proc.returncode}")
        return None
    lines = [line for line in stdout.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="self-test size (not for measurements)")
    parser.add_argument("--cycles", type=int, default=0,
                        help="run exactly this many loop cycles")
    parser.add_argument("--counts-out", help="write per-op work counts here")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    binary = build()
    if binary is None:
        log("perfbench: build failed")
        return 1

    work = build_dir() / "work" / f"{args.workload}-{os.getpid()}"
    deadline = time.monotonic() + RUN_BUDGET_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.small:
        common.append("--small")
    if args.cycles:
        common += ["--cycles", str(args.cycles)]

    if args.trace == 0:
        extra = ["--counts-out", args.counts_out] if args.counts_out else []
        res = run_binary(binary, common + ["--seconds", str(args.seconds)] +
                         extra, work, deadline)
        if res is None:
            return 1
        wanted = spec["end_to_end"]
    else:
        # Untraced and traced halves of the same seed; their ops_per_s
        # difference is the tracing overhead.
        half = str(args.seconds / 2)
        plain = run_binary(binary, common + ["--seconds", half,
                                             "--setups", "1"], work, deadline)
        if plain is None:
            return 1
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        span_file = traces / f"{args.workload}-seed{args.seed}.jsonl"
        res = run_binary(binary, common + ["--seconds", half, "--setups", "1",
                                           "--trace-out", str(span_file)],
                         work, deadline)
        if res is None:
            return 1
        with open(span_file, "a") as f:
            f.write(json.dumps({"type": "overhead",
                                "untraced_ops_per_s":
                                    plain["metrics"]["ops_per_s"],
                                "traced_ops_per_s":
                                    res["metrics"]["ops_per_s"]}) + "\n")
        summary = trace_summary.summarize(span_file)
        log(trace_summary.report(summary))
        log(f"perfbench: spans in {span_file}")
        res["metrics"] = summary["metrics"]
        res["attempted"] += plain["attempted"]
        res["failed"] += plain["failed"]
        wanted = spec["per_layer"]

    print("perfbench: %s seed %d: %d cycles in %.1f s, samples %s, "
          "probe %.4f ms, error_rate %.6f" % (
              args.workload, args.seed, res["cycles"], res["loop_s"],
              json.dumps(res["samples"]), res["probe_ms"],
              res["failed"] / max(1, res["attempted"])))
    metrics = {}
    for m in wanted:
        if m["name"] not in res["metrics"]:
            log(f"perfbench: metric {m['name']} missing")
            return 1
        metrics[m["name"]] = {"value": res["metrics"][m["name"]],
                              "unit": m["unit"]}
    print(json.dumps({"correct": True, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
