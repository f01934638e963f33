#!/usr/bin/env python3
"""Per-layer summary of a traced benchmark run.

    python3 perfbench/trace_summary.py .bench_build/traces/point_txn-seed1.jsonl

Reads the span file a traced run writes (one JSON object per line: ops
with their per-op counts, spans with name, start, end, parent span and op
id) and prints, per op kind, each layer's self time per op and how much
of the op latency the layers cover, then the per-layer metrics of
BENCHMARK.json. Layer names are src/ modules.

A layer's self time is the time of its calls minus the part of that time
its callees account for. The benchmark wraps every call it makes into the
library in a span; time inside a call is split further with the exact
registry sums (.sum_us) read around the op, and with side calls the
traced run makes outside the op's timed interval (the base copy + seal,
BuildNewObjectBase and ComputeDelta of a commit).
"""

import json
import sys
from collections import defaultdict

OP_KINDS = ("commit", "read", "query", "checkpoint", "reopen")


def load(path):
    ops, spans, overhead, workload = {}, defaultdict(list), None, "?"
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            kind = rec["type"]
            if kind == "meta":
                workload = rec["workload"]
            elif kind == "op":
                ops[rec["op"]] = rec
            elif kind == "span" and rec["parent"] != 0:
                spans[rec["op"]].append(rec)
            elif kind == "overhead":
                overhead = rec
    return workload, ops, spans, overhead


def span_ms(spans, name):
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name) / 1e6


def self_times(op, spans):
    """Layer -> self time (ms) of one op, plus the time its spans cover."""
    c = op["counts"]
    us = lambda key: c.get(key, 0) / 1000.0  # noqa: E731
    calls = {n: span_ms(spans, n) for n in (
        "Session::Refresh", "Session::Prepare", "Statement::Execute",
        "ResultSet::release", "Connection::Checkpoint", "Connection::Open",
        "Connection::OpenSession", "CREATE VIEW")}
    covered = sum(calls.values())
    stmt = (calls["Session::Prepare"] + calls["Statement::Execute"] +
            calls["ResultSet::release"])
    layers = defaultdict(float)
    kind = op["kind"]
    if kind == "commit":
        layers["analysis"] = us("reg.analysis_us")
        layers["core"] = us("reg.evaluate_us")
        layers["storage"] = (us("reg.wal_append_us") + us("reg.install_us") +
                             c.get("side.diff_ms", 0))
        layers["views"] = us("reg.fanout_us")
        layers["api"] = stmt - sum(layers.values())
    elif kind == "read":
        layers["api"] = calls["Session::Refresh"] + stmt
    elif kind == "query":
        layers["analysis"] = us("reg.analysis_us")
        layers["query"] = us("reg.query_eval_us")
        layers["api"] = stmt - layers["analysis"] - layers["query"]
    elif kind == "checkpoint":
        layers["store"] = calls["Connection::Checkpoint"]
    elif kind == "reopen":
        layers["storage"] = calls["Connection::Open"]
        layers["views"] = calls["CREATE VIEW"]
        layers["api"] = calls["Connection::OpenSession"] + stmt
    return layers, covered


def mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def summarize(path):
    workload, ops, spans, overhead = load(path)
    by_kind = defaultdict(list)
    for op in ops.values():
        by_kind[op["kind"]].append(op)

    table = {}
    for kind in OP_KINDS:
        rows = by_kind.get(kind, [])
        if not rows:
            continue
        totals, covered, latency = defaultdict(float), 0.0, 0.0
        for op in rows:
            layers, cov = self_times(op, spans[op["op"]])
            for name, ms in layers.items():
                totals[name] += ms
            covered += cov
            latency += (op["end"] - op["start"] - op["paused"]) / 1e6
        n = len(rows)
        table[kind] = {"ops": n, "latency_ms": latency / n,
                       "covered_ms": covered / n,
                       "layers": {k: v / n for k, v in sorted(totals.items())}}

    def per(kind, key, scale=1.0):
        return mean(op["counts"].get(key, 0) * scale for op in by_kind[kind])

    def calls(kinds, name):
        return mean(s["end"] / 1e6 - s["start"] / 1e6
                    for k in kinds for op in by_kind[k]
                    for s in spans[op["op"]] if s["name"] == name)

    def total(kind, key):
        return sum(op["counts"].get(key, 0) for op in by_kind[kind])

    stmt_kinds = ("commit", "read", "query")
    probes = total("commit", "eval.index_probes")
    overdeleted = total("commit", "views.overdeleted")
    run_ms = per("commit", "reg.evaluate_us", 1e-3)
    seal_ms = per("commit", "side.seal_ms")
    build_ms = per("commit", "side.build_base_ms")
    metrics = {
        "api.prepare_ms": calls(stmt_kinds, "Session::Prepare"),
        "api.execute_ms": calls(stmt_kinds, "Statement::Execute"),
        "api.release_ms": calls(stmt_kinds, "ResultSet::release"),
        "api.pin_ms": calls(("read",), "Session::Refresh"),
        "api.rows_per_read": per("read", "rows"),
        "analysis.analyze_ms": mean(
            op["counts"].get("reg.analysis_us", 0) / 1000.0
            for k in ("commit", "query") for op in by_kind[k]),
        "core.run_ms": run_ms,
        "core.seal_ms": seal_ms,
        "core.build_base_ms": build_ms,
        "core.fixpoint_ms": run_ms - seal_ms - build_ms,
        "core.strata": per("commit", "eval.strata"),
        "core.rounds": per("commit", "eval.rounds"),
        "core.body_matches": per("commit", "eval.body_matches"),
        "core.updates_derived": per("commit", "eval.updates_derived"),
        "core.versions_materialized":
            per("commit", "eval.versions_materialized"),
        "core.index_probes": per("commit", "eval.index_probes"),
        "core.index_hit_ratio":
            total("commit", "eval.index_hits") / probes if probes else 0.0,
        "storage.diff_ms": per("commit", "side.diff_ms"),
        "storage.wal_append_ms": per("commit", "reg.wal_append_us", 1e-3),
        "storage.install_ms": per("commit", "reg.install_us", 1e-3),
        "storage.delta_facts": per("commit", "reg.delta_facts"),
        "storage.wal_bytes": per("commit", "wal_bytes"),
        "storage.recovery_ms": calls(("reopen",), "Connection::Open"),
        "storage.replayed_frames": per("reopen", "replayed_frames"),
        "store.checkpoint_ms": calls(("checkpoint",), "Connection::Checkpoint"),
        "store.puts": per("checkpoint", "reg.store_puts"),
        "store.keys_scanned": per("reopen", "reg.store_keys"),
        "store.file_bytes": per("checkpoint", "store.file_bytes"),
        "views.maintain_ms": per("commit", "reg.fanout_us", 1e-3),
        "views.create_ms": calls(("reopen",), "CREATE VIEW"),
        "views.delta_facts": per("commit", "views.delta_facts"),
        "views.facts_added": per("commit", "views.facts_added"),
        "views.facts_removed": per("commit", "views.facts_removed"),
        "views.overdeleted": per("commit", "views.overdeleted"),
        "views.rederived": per("commit", "views.rederived"),
        "views.rederive_ratio": total("commit", "views.rederived") /
                                overdeleted if overdeleted else 0.0,
        "query.eval_ms": per("query", "reg.query_eval_us", 1e-3),
        "query.rounds": per("query", "query.rounds"),
        "query.derived_facts": per("query", "query.derived_facts"),
        "query.index_probes": per("query", "query.index_probes"),
        "obs.trace_overhead_pct": 0.0,
    }
    if overhead and overhead["traced_ops_per_s"] > 0:
        metrics["obs.trace_overhead_pct"] = 100.0 * (
            overhead["untraced_ops_per_s"] / overhead["traced_ops_per_s"] - 1)
    return {"workload": workload, "table": table, "metrics": metrics,
            "overhead": overhead}


def report(summary):
    lines = [f"== {summary['workload']}: layer self time per op (ms)"]
    for kind, row in summary["table"].items():
        parts = " ".join(f"{k}={v:.3f}" for k, v in row["layers"].items())
        share = row["covered_ms"] / row["latency_ms"] if row["latency_ms"] else 0
        lines.append(f"  {kind:10s} n={row['ops']:<5d} latency={row['latency_ms']:.3f}"
                     f" layers_sum={sum(row['layers'].values()):.3f}"
                     f" ({share:.1%} of latency)  {parts}")
    lines.append("  per-layer metrics:")
    for name, value in summary["metrics"].items():
        lines.append(f"    {name:28s} {value:.6g}")
    return "\n".join(lines)


def main(paths):
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    for path in paths:
        print(report(summarize(path)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
