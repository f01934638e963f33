#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

For each workload, at the small self-test size and a fixed number of loop
cycles: two untraced runs with one seed must pass their output checks and
record identical per-op work and byte counts; one run with a second seed
must pass its output checks; one traced run must report every per_layer
metric of BENCHMARK.json. Exits nonzero if any check fails.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("point_txn", "bulk_rules")
CYCLES = "6"


def run(workload, seed, extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--small",
           "--cycles", CYCLES] + extra
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    tmp = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "selftest"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        for workload in WORKLOADS:
            counts = []
            for attempt in range(2):
                path = tmp / f"{workload}-{attempt}.counts"
                res = run(workload, 7, ["--trace", "0", "--counts-out",
                                        str(path)])
                if res is None or not res["correct"] or res["failed"]:
                    failures.append(f"{workload}: seed 7 run {attempt} failed")
                    break
                counts.append(path.read_text())
            if len(counts) == 2 and counts[0] != counts[1]:
                failures.append(f"{workload}: per-op counts differ between "
                                "two runs of seed 7")
            res = run(workload, 8, ["--trace", "0"])
            if res is None or not res["correct"] or res["failed"]:
                failures.append(f"{workload}: seed 8 run failed")
            res = run(workload, 7, ["--trace", "1"])
            wanted = {m["name"] for m in spec["per_layer"]}
            if res is None or set(res["metrics"]) != wanted:
                failures.append(f"{workload}: traced run failed or misses "
                                "per-layer metrics")
            status = "FAIL" if any(f.startswith(workload) for f in failures) \
                else "ok"
            print(f"selftest {workload}: {status}", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for failure in failures:
        print(f"selftest: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
