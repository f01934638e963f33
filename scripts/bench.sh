#!/usr/bin/env bash
# Builds the benchmarks in Release mode and records the perf trajectory:
# bench_tp_operator (single application + iterated fixpoint, naive vs
# semi-naive), bench_fig2_enterprise (the paper's end-to-end enterprise
# update), bench_views (incremental view maintenance vs from-scratch
# recomputation), bench_api (client-API facade: session open / snapshot
# pin, snapshot reads under concurrent commits, subscription fan-out),
# bench_snapshots (pin cost under ongoing commits and the T_P step-2
# state copy, each against its fact-by-fact baseline, and the live heap
# per object), bench_index (bound-result probes: body matching and a
# closure view's lookups, each against a scan written in the benchmark,
# and DRed rederive probes), bench_obs (the always-on metrics
# registry: fixpoint + commit workloads with metrics enabled vs the
# registry-disabled ablation — the On/Off pairs bound the
# instrumentation's overhead), bench_store (the src/store checkpoint
# store: put/scan, checkpoint cost, checkpointed cold-open vs
# full-WAL-replay restart, and WAL-suffix replay with and without
# repeated facts),
# bench_analysis (the static rule-program analyzer: full analysis runs
# at 256-4096 generated rules and the prepare overhead it adds to a
# Statement, on vs off), and bench_query (the derived-method query
# fixpoint, semi-naive vs naive, on random-graph and deep-chain
# transitive closures). JSON results land next to this repo's root so
# successive PRs can diff them.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${BUILD_DIR:-build-bench}

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j"$(nproc)" \
      --target bench_tp_operator bench_fig2_enterprise bench_views \
               bench_api bench_snapshots bench_index bench_obs bench_store \
               bench_analysis bench_query

"$BUILD_DIR"/bench_tp_operator \
    --benchmark_format=json \
    --benchmark_out=BENCH_tp.json \
    --benchmark_out_format=json
"$BUILD_DIR"/bench_fig2_enterprise \
    --benchmark_format=json \
    --benchmark_out=BENCH_fig2.json \
    --benchmark_out_format=json
# Three single recordings of one bench_views binary read
# BM_ViewMaintainEnterprise/256 from 1.21 to 1.48 µs: interleave
# repetitions and record medians, as for bench_api and bench_store.
"$BUILD_DIR"/bench_views \
    --benchmark_enable_random_interleaving=true \
    --benchmark_repetitions=5 \
    --benchmark_report_aggregates_only=true \
    --benchmark_format=json \
    --benchmark_out=BENCH_views.json \
    --benchmark_out_format=json
# Single recordings of one bench_api binary moved by up to half on a
# shared 4-CPU host (BM_ApiCommitOnly/256: 9.3 and 14.5 µs): interleave
# repetitions and record medians, as for bench_store below.
"$BUILD_DIR"/bench_api \
    --benchmark_enable_random_interleaving=true \
    --benchmark_repetitions=5 \
    --benchmark_report_aggregates_only=true \
    --benchmark_format=json \
    --benchmark_out=BENCH_api.json \
    --benchmark_out_format=json
# The step-2 copy, the pin and the bound-result probes are read from
# these two: interleave repetitions and record medians, as above.
"$BUILD_DIR"/bench_snapshots \
    --benchmark_enable_random_interleaving=true \
    --benchmark_repetitions=5 \
    --benchmark_report_aggregates_only=true \
    --benchmark_format=json \
    --benchmark_out=BENCH_snapshots.json \
    --benchmark_out_format=json
"$BUILD_DIR"/bench_index \
    --benchmark_enable_random_interleaving=true \
    --benchmark_repetitions=5 \
    --benchmark_report_aggregates_only=true \
    --benchmark_format=json \
    --benchmark_out=BENCH_index.json \
    --benchmark_out_format=json
# The obs ablation compares On/Off pairs of the same workload, so the
# run-order drift of a busy host would masquerade as instrumentation
# overhead: interleave repetitions and record medians instead. The
# median of n repetitions has a standard error near 1.25 cv / sqrt(n):
# with 30 and a repetition cv of 0.12 that is about 2.7%. On a shared
# 4-CPU host the cv of the fixpoint pair reached 0.22, and then even 30
# cannot resolve ±5%; the commit path's clock reads are pinned by a test
# (MetricsApiTest.OneCommitReadsTheClockOncePerPhaseBoundary) instead.
"$BUILD_DIR"/bench_obs \
    --benchmark_enable_random_interleaving=true \
    --benchmark_repetitions=30 \
    --benchmark_report_aggregates_only=true \
    --benchmark_format=json \
    --benchmark_out=BENCH_obs.json \
    --benchmark_out_format=json
# The cold-open points of bench_store move by up to a third between
# single recordings of one binary, more than the recovery changes they
# are read for: interleave repetitions and record medians here too.
"$BUILD_DIR"/bench_store \
    --benchmark_enable_random_interleaving=true \
    --benchmark_repetitions=5 \
    --benchmark_report_aggregates_only=true \
    --benchmark_format=json \
    --benchmark_out=BENCH_store.json \
    --benchmark_out_format=json
"$BUILD_DIR"/bench_analysis \
    --benchmark_format=json \
    --benchmark_out=BENCH_analysis.json \
    --benchmark_out_format=json
"$BUILD_DIR"/bench_query \
    --benchmark_format=json \
    --benchmark_out=BENCH_query.json \
    --benchmark_out_format=json

echo "Wrote BENCH_tp.json, BENCH_fig2.json, BENCH_views.json," \
     "BENCH_api.json, BENCH_snapshots.json, BENCH_index.json," \
     "BENCH_obs.json, BENCH_store.json, BENCH_analysis.json, and" \
     "BENCH_query.json"
