// Checkpoint store throughput (src/store) and the restart economics the
// subsystem exists for:
//
//   * put/scan — the raw component API cost (a put commits a whole-image
//     rewrite);
//   * BM_CheckpointAfterPointCommits / BM_CheckpointAfterFullChurn — a
//     checkpoint writes the versions changed since the last one, so its
//     cost follows the churn behind it: 32 one-object commits (what
//     perfbench's point_txn runs between checkpoints) against one commit
//     that touches every object;
//   * BM_ColdOpenCheckpointed vs BM_ColdOpenFullWalReplay — the headline:
//     after a checkpoint a cold Database::Open loads the store image and
//     replays only the WAL suffix, while an uncheckpointed directory
//     replays the full commit history (chunked imports + update churn),
//     so the checkpointed open must win clearly at 4096 objects;
//   * BM_ReplayWalSuffix — a cold open of a checkpointed base plus a
//     16-frame WAL suffix, in two shapes: `mirrored` commits flip every
//     object's salary and back, so each fact is logged 16 times (the
//     shape of perfbench's bulk_rules cycles), and `distinct` commits
//     each add a fresh fact per object, so no fact repeats (the shape of
//     point_txn). `fact_ops` counts the logged fact operations and
//     `distinct_facts` the distinct facts among them.
//
// The cold opens time Database::Open alone: the recovered Database and
// Engine are torn down with the timer paused. All I/O runs against a
// FaultInjectingEnv (in-memory, fault-free here): the benchmarks compare
// code paths, not disk hardware.

#include <benchmark/benchmark.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "parser/parser.h"
#include "storage/codec.h"
#include "storage/database.h"
#include "storage/wal.h"
#include "store/store.h"
#include "util/fault_env.h"

namespace verso::bench {
namespace {

constexpr const char* kDir = "/bench";

std::string Key(size_t i) { return "b/key" + std::to_string(i); }

std::unique_ptr<Store> MustOpen(Env* env) {
  Result<std::unique_ptr<Store>> store = Store::Open(kDir, env);
  return store.ok() ? std::move(store).value() : nullptr;
}

/// Preloads `n` keys with `value_bytes`-sized values, 64 per commit.
Status Preload(Store& store, size_t n, size_t value_bytes) {
  const std::string value(value_bytes, 'v');
  for (size_t i = 0; i < n;) {
    WriteTransaction txn = store.BeginWrite();
    for (size_t k = 0; k < 64 && i < n; ++k, ++i) txn.Put(Key(i), value);
    Status s = txn.Commit();
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

void BM_StorePut(benchmark::State& state) {
  FaultInjectingEnv env;
  std::unique_ptr<Store> store = MustOpen(&env);
  if (store == nullptr) {
    state.SkipWithError("open failed");
    return;
  }
  const size_t keys = static_cast<size_t>(state.range(0));
  const std::string value(128, 'v');
  size_t next = 0;
  for (auto _ : state) {
    // One transaction of 8 puts over a rotating key window: overwrites
    // dominate once the window wraps.
    WriteTransaction txn = store->BeginWrite();
    for (size_t k = 0; k < 8; ++k) {
      txn.Put(Key(next), value);
      next = (next + 1) % keys;
    }
    Status s = txn.Commit();
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      return;
    }
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_StorePut)->Arg(256)->Arg(4096);

void BM_StoreScan(benchmark::State& state) {
  FaultInjectingEnv env;
  std::unique_ptr<Store> store = MustOpen(&env);
  const size_t keys = static_cast<size_t>(state.range(0));
  if (store == nullptr || !Preload(*store, keys, 128).ok()) {
    state.SkipWithError("setup failed");
    return;
  }
  for (auto _ : state) {
    size_t seen = 0;
    size_t bytes = 0;
    Status s = store->Scan("b/", [&](std::string_view, std::string_view value) {
      ++seen;
      bytes += value.size();
      return Status::Ok();
    });
    if (!s.ok() || seen != keys) {
      state.SkipWithError("scan failed");
      return;
    }
    benchmark::DoNotOptimize(bytes);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(keys));
}
BENCHMARK(BM_StoreScan)->Arg(256)->Arg(4096);

// ---- database-level restart economics --------------------------------------

/// Commits `objects` into a fresh database as 16 chunked imports plus
/// four full-base update-churn rounds, so the WAL carries ~5x the base in
/// replay work — the history a checkpoint folds away.
std::unique_ptr<Database> BuildHistory(FaultInjectingEnv& env, Engine& engine,
                                       size_t objects) {
  DatabaseOptions options;
  options.env = &env;
  options.retry_backoff_us = 0;
  Result<std::unique_ptr<Database>> db = Database::Open(kDir, engine, options);
  if (!db.ok()) return nullptr;
  ObjectBase base = engine.MakeBase();
  const size_t chunk = (objects + 15) / 16;
  for (size_t done = 0; done < objects;) {
    for (size_t k = 0; k < chunk && done < objects; ++k, ++done) {
      std::string name = "o" + std::to_string(done);
      engine.AddFact(base, name, "isa", "thing");
      engine.AddFact(base, name, "sal",
                     static_cast<int64_t>(100 + (done % 977)));
    }
    if (!(*db)->ImportBase(base).ok()) return nullptr;
  }
  Result<Program> doubling = ParseProgram(
      "r: mod[E].sal -> (S, S2) <- E.isa -> thing, E.sal -> S, S2 = S * 2.",
      engine);
  Result<Program> halving = ParseProgram(
      "r: mod[E].sal -> (S, S2) <- E.isa -> thing, E.sal -> S, S2 = S / 2.",
      engine);
  if (!doubling.ok() || !halving.ok()) return nullptr;
  for (int round = 0; round < 4; ++round) {
    if (!(*db)->Execute(*doubling).ok() || !(*db)->Execute(*halving).ok()) {
      return nullptr;
    }
  }
  return std::move(db).value();
}

/// Timed checkpoints, each after `per_checkpoint` commits that run the
/// `sources` programs in rotation with the timer paused; reports the
/// store puts per checkpoint.
void CheckpointAfter(benchmark::State& state,
                     const std::vector<std::string>& sources,
                     size_t per_checkpoint) {
  FaultInjectingEnv env;
  Engine engine;
  std::unique_ptr<Database> db =
      BuildHistory(env, engine, static_cast<size_t>(state.range(0)));
  std::vector<Program> programs;
  for (const std::string& source : sources) {
    Result<Program> program = ParseProgram(source, engine);
    if (!program.ok()) break;
    programs.push_back(std::move(program).value());
  }
  if (db == nullptr || programs.size() != sources.size() ||
      !db->Checkpoint().ok()) {
    state.SkipWithError("setup failed");
    return;
  }
  Counter& puts = MetricsRegistry::Global().GetCounter("store.puts");
  uint64_t put_count = 0;
  size_t next = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Status s;
    for (size_t k = 0; k < per_checkpoint && s.ok(); ++k) {
      s = db->Execute(programs[next]).status();
      next = (next + 1) % programs.size();
    }
    const uint64_t before = puts.value();
    state.ResumeTiming();
    if (s.ok()) s = db->Checkpoint();
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      return;
    }
    put_count += puts.value() - before;
  }
  state.counters["store_puts"] =
      benchmark::Counter(static_cast<double>(put_count),
                         benchmark::Counter::kAvgIterations);
}

void BM_CheckpointAfterPointCommits(benchmark::State& state) {
  // One-object salary bumps on a window that walks the base: every
  // checkpoint follows 32 commits on 32 objects.
  std::vector<std::string> bumps;
  for (int64_t i = 0; i < state.range(0); ++i) {
    const std::string o = "o" + std::to_string(i);
    bumps.push_back("r: mod[" + o + "].sal -> (S, S2) <- " + o +
                    ".sal -> S, S2 = S + 1.");
  }
  CheckpointAfter(state, bumps, 32);
}
BENCHMARK(BM_CheckpointAfterPointCommits)->Arg(256)->Arg(4096);

void BM_CheckpointAfterFullChurn(benchmark::State& state) {
  // One commit that raises every salary: every version changes.
  CheckpointAfter(state,
                  {"r: mod[E].sal -> (S, S2) <- E.isa -> thing, "
                   "E.sal -> S, S2 = S + 1."},
                  1);
}
BENCHMARK(BM_CheckpointAfterFullChurn)->Arg(256)->Arg(4096);

void ColdOpen(benchmark::State& state, bool checkpointed) {
  FaultInjectingEnv env;
  size_t facts = 0;
  {
    Engine engine;
    std::unique_ptr<Database> db =
        BuildHistory(env, engine, static_cast<size_t>(state.range(0)));
    if (db == nullptr || (checkpointed && !db->Checkpoint().ok())) {
      state.SkipWithError("setup failed");
      return;
    }
    facts = db->current().fact_count();
  }
  DatabaseOptions options;
  options.env = &env;
  options.retry_backoff_us = 0;
  size_t replayed = 0;
  for (auto _ : state) {
    {
      Engine engine;
      Result<std::unique_ptr<Database>> db =
          Database::Open(kDir, engine, options);
      if (!db.ok() || (*db)->current().fact_count() != facts) {
        state.SkipWithError("recovery failed");
        return;
      }
      replayed = (*db)->wal_records_since_checkpoint();
      benchmark::DoNotOptimize(db);
      state.PauseTiming();
    }
    state.ResumeTiming();
  }
  state.counters["replayed_frames"] = static_cast<double>(replayed);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(facts));
}

void BM_ColdOpenCheckpointed(benchmark::State& state) {
  ColdOpen(state, /*checkpointed=*/true);
}
void BM_ColdOpenFullWalReplay(benchmark::State& state) {
  ColdOpen(state, /*checkpointed=*/false);
}
BENCHMARK(BM_ColdOpenCheckpointed)->Arg(256)->Arg(4096);
BENCHMARK(BM_ColdOpenFullWalReplay)->Arg(256)->Arg(4096);

/// Counts the fact operations the WAL in `env` logs and the distinct
/// facts among them.
void CountLoggedFacts(FaultInjectingEnv& env, size_t& ops, size_t& distinct) {
  ops = 0;
  std::set<std::string> facts;
  Engine engine;
  Result<WalReadResult> wal = ReadWal(std::string(kDir) + "/wal.log", &env);
  if (!wal.ok()) return;
  for (const std::string& payload : wal->records) {
    Result<std::vector<FactDelta>> deltas =
        DecodeDeltaBatch(payload, engine.symbols(), engine.versions());
    if (!deltas.ok()) return;
    for (const FactDelta& delta : *deltas) {
      for (const auto* list : {&delta.added, &delta.removed}) {
        for (const DecodedFact& fact : *list) {
          BufferWriter writer;
          EncodeFact(writer, fact.vid, fact.method, fact.app,
                     engine.symbols(), engine.versions());
          facts.insert(writer.Take());
          ++ops;
        }
      }
    }
  }
  distinct = facts.size();
}

void BM_ReplayWalSuffix(benchmark::State& state, bool mirrored) {
  const size_t objects = static_cast<size_t>(state.range(0));
  FaultInjectingEnv env;
  DatabaseOptions options;
  options.env = &env;
  options.retry_backoff_us = 0;
  size_t facts = 0;
  {
    Engine engine;
    Result<std::unique_ptr<Database>> db =
        Database::Open(kDir, engine, options);
    if (!db.ok()) {
      state.SkipWithError("open failed");
      return;
    }
    ObjectBase base = engine.MakeBase();
    ObjectBase doubled = engine.MakeBase();
    for (size_t i = 0; i < objects; ++i) {
      const std::string name = "o" + std::to_string(i);
      const int64_t sal = static_cast<int64_t>(100 + i % 977);
      engine.AddFact(base, name, "isa", "thing");
      engine.AddFact(base, name, "sal", sal);
      engine.AddFact(doubled, name, "isa", "thing");
      engine.AddFact(doubled, name, "sal", 2 * sal);
    }
    Status s = (*db)->ImportBase(base);
    if (s.ok()) s = (*db)->Checkpoint();
    for (int frame = 0; frame < 16 && s.ok(); ++frame) {
      if (mirrored) {
        s = (*db)->ImportBase(frame % 2 == 0 ? doubled : base);
        continue;
      }
      const std::string method = "t" + std::to_string(frame);
      for (size_t i = 0; i < objects; ++i) {
        engine.AddFact(base, "o" + std::to_string(i), method,
                       static_cast<int64_t>(frame));
      }
      s = (*db)->ImportBase(base);
    }
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      return;
    }
    facts = (*db)->current().fact_count();
  }
  size_t ops = 0;
  size_t distinct = 0;
  CountLoggedFacts(env, ops, distinct);
  for (auto _ : state) {
    {
      Engine engine;
      Result<std::unique_ptr<Database>> db =
          Database::Open(kDir, engine, options);
      if (!db.ok() || (*db)->current().fact_count() != facts ||
          (*db)->wal_records_since_checkpoint() != 16) {
        state.SkipWithError("recovery failed");
        return;
      }
      benchmark::DoNotOptimize(db);
      state.PauseTiming();
    }
    state.ResumeTiming();
  }
  state.counters["fact_ops"] = static_cast<double>(ops);
  state.counters["distinct_facts"] = static_cast<double>(distinct);
}
BENCHMARK_CAPTURE(BM_ReplayWalSuffix, mirrored, true)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096);
BENCHMARK_CAPTURE(BM_ReplayWalSuffix, distinct, false)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096);

}  // namespace
}  // namespace verso::bench

BENCHMARK_MAIN();
