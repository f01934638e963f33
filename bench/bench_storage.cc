// Experiment E12: persistence substrate throughput — the checkpoint's
// per-version record codec, the frame CRC-32, WAL append, delta
// compute/apply, and full database transactions, including commits under
// transient faults.

#include <benchmark/benchmark.h>

#include <filesystem>

#include "bench_common.h"
#include "storage/codec.h"
#include "storage/database.h"
#include "storage/wal.h"
#include "util/crc32.h"
#include "util/fault_env.h"
#include "util/io.h"

namespace verso::bench {
namespace {

std::string BenchDir() {
  std::string dir = std::filesystem::temp_directory_path().string() +
                    "/verso_bench_storage";
  std::filesystem::remove_all(dir);
  EnsureDirectory(dir).ok();
  return dir;
}

std::unique_ptr<World> BaseWorld(size_t employees) {
  return MakeEnterpriseWorld(employees, kEnterpriseProgramText);
}

/// The base as a checkpoint stores it: one (key, record) per version.
std::vector<std::pair<std::string, std::string>> EncodeRecords(
    const World& world) {
  std::vector<std::pair<std::string, std::string>> records;
  for (const auto& [vid, state] : world.base.versions()) {
    records.emplace_back(
        EncodeVersionKey(vid, world.engine->symbols(),
                         world.engine->versions()),
        EncodeVersionRecord(vid, *state, world.engine->symbols(),
                            world.engine->versions()));
  }
  return records;
}

int64_t TotalBytes(
    const std::vector<std::pair<std::string, std::string>>& records) {
  int64_t bytes = 0;
  for (const auto& [key, record] : records) {
    bytes += static_cast<int64_t>(record.size());
  }
  return bytes;
}

void BM_EncodeVersionRecords(benchmark::State& state) {
  std::unique_ptr<World> world = BaseWorld(static_cast<size_t>(state.range(0)));
  int64_t bytes = 0;
  for (auto _ : state) {
    std::vector<std::pair<std::string, std::string>> records =
        EncodeRecords(*world);
    bytes = TotalBytes(records);
    benchmark::DoNotOptimize(records);
  }
  state.SetBytesProcessed(state.iterations() * bytes);
  state.counters["facts"] = static_cast<double>(world->base.fact_count());
}
BENCHMARK(BM_EncodeVersionRecords)->Arg(256)->Arg(1024)->Arg(4096);

void BM_DecodeVersionRecords(benchmark::State& state) {
  std::unique_ptr<World> world = BaseWorld(static_cast<size_t>(state.range(0)));
  const std::vector<std::pair<std::string, std::string>> records =
      EncodeRecords(*world);
  for (auto _ : state) {
    Engine engine;
    ObjectBase decoded = engine.MakeBase();
    FactDecoder decoder(engine.symbols(), engine.versions());
    for (const auto& [key, record] : records) {
      Result<size_t> facts =
          DecodeVersionRecordInto(key, record, decoder, decoded);
      if (!facts.ok()) {
        state.SkipWithError(facts.status().ToString().c_str());
        return;
      }
    }
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(state.iterations() * TotalBytes(records));
}
BENCHMARK(BM_DecodeVersionRecords)->Arg(256)->Arg(1024)->Arg(4096);

void BM_DeltaComputeApply(benchmark::State& state) {
  std::unique_ptr<World> world = BaseWorld(static_cast<size_t>(state.range(0)));
  Result<RunOutcome> outcome = world->engine->Run(world->program, world->base);
  if (!outcome.ok()) {
    state.SkipWithError("run failed");
    return;
  }
  ObjectBase sealed = world->base;
  sealed.SealExistence();
  size_t delta_size = 0;
  for (auto _ : state) {
    FactDelta delta = ComputeDelta(sealed, outcome->new_base);
    delta_size = delta.added.size() + delta.removed.size();
    ObjectBase patched = sealed;
    ApplyDelta(delta, patched);
    benchmark::DoNotOptimize(patched);
  }
  state.counters["delta_facts"] = static_cast<double>(delta_size);
}
BENCHMARK(BM_DeltaComputeApply)->Arg(256)->Arg(1024);

void BM_Crc32(benchmark::State& state) {
  // The frame checksum every WAL append, store commit and recovery pays;
  // 491520 B is about the store image of perfbench's 4096-employee base.
  std::string data(static_cast<size_t>(state.range(0)), '\0');
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<char>(i * 131 + 7);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(data.data(), data.size()));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(4096)->Arg(491520);

void BM_WalAppend(benchmark::State& state) {
  std::string dir = BenchDir();
  WalWriter wal(dir + "/bench.log");
  std::string payload(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    Status s = wal.Append(payload);
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      return;
    }
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(payload.size()));
  RemoveFile(dir + "/bench.log").ok();
}
BENCHMARK(BM_WalAppend)->Arg(128)->Arg(4096)->Arg(65536);

void BM_DatabaseTransaction(benchmark::State& state) {
  const size_t employees = static_cast<size_t>(state.range(0));
  std::string dir = BenchDir() + "/db";
  Engine engine;
  Result<std::unique_ptr<Database>> db = Database::Open(dir, engine);
  if (!db.ok()) {
    state.SkipWithError("open failed");
    return;
  }
  ObjectBase base = engine.MakeBase();
  EnterpriseOptions options;
  options.employees = employees;
  MakeEnterprise(options, engine, base);
  if (!(*db)->ImportBase(base).ok()) {
    state.SkipWithError("import failed");
    return;
  }
  // A self-inverting transaction keeps the database size stable across
  // iterations: double every salary, then halve it.
  Result<Program> doubling = ParseProgram(
      "r: mod[E].sal -> (S, S2) <- E.isa -> empl, E.sal -> S, S2 = S * 2.",
      engine);
  Result<Program> halving = ParseProgram(
      "r: mod[E].sal -> (S, S2) <- E.isa -> empl, E.sal -> S, S2 = S / 2.",
      engine);
  if (!doubling.ok() || !halving.ok()) {
    state.SkipWithError("parse failed");
    return;
  }
  for (auto _ : state) {
    if (!(*db)->Execute(*doubling).ok() || !(*db)->Execute(*halving).ok()) {
      state.SkipWithError("execute failed");
      return;
    }
  }
  state.counters["wal_records"] =
      static_cast<double>((*db)->wal_records_since_checkpoint());
  state.counters["io_failures"] =
      static_cast<double>((*db)->stats().io_failures);
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_DatabaseTransaction)->Arg(64)->Arg(256);

void BM_TransientRetryCommit(benchmark::State& state) {
  // The degraded-mode commit path under a flaky device: every WAL append
  // fails transiently `range(0)` times before succeeding, exercising the
  // rollback-and-retry loop. Counters report the fault behavior the same
  // way the other benches report index hits.
  const uint32_t flaky = static_cast<uint32_t>(state.range(0));
  FaultInjectingEnv env;
  Engine engine;
  DatabaseOptions options;
  options.env = &env;
  options.retry_backoff_us = 0;  // measure the I/O path, not the sleep
  options.wal_retry_limit = flaky + 1;
  Result<std::unique_ptr<Database>> db =
      Database::Open("/bench", engine, options);
  if (!db.ok()) {
    state.SkipWithError(db.status().ToString().c_str());
    return;
  }
  Result<ObjectBase> base =
      ParseObjectBase("e.isa -> empl.  e.sal -> 100.", engine);
  if (!base.ok() || !(*db)->ImportBase(*base).ok()) {
    state.SkipWithError("setup failed");
    return;
  }
  Result<Program> doubling = ParseProgram(
      "r: mod[E].sal -> (S, S2) <- E.isa -> empl, E.sal -> S, S2 = S * 2.",
      engine);
  Result<Program> halving = ParseProgram(
      "r: mod[E].sal -> (S, S2) <- E.isa -> empl, E.sal -> S, S2 = S / 2.",
      engine);
  if (!doubling.ok() || !halving.ok()) {
    state.SkipWithError("parse failed");
    return;
  }
  FaultInjectingEnv::FaultPlan plan;
  plan.kind = FaultInjectingEnv::FaultKind::kTransient;
  plan.filter = FaultInjectingEnv::OpFilter::kAppend;
  plan.repeat = flaky;
  size_t iter = 0;
  for (auto _ : state) {
    if (flaky > 0) {
      plan.fail_at = 0;  // the next append, then `repeat` in a row
      env.SetPlan(plan);
    }
    Program& program = (iter++ % 2 == 0) ? *doubling : *halving;
    if (!(*db)->Execute(program).ok()) {
      state.SkipWithError((*db)->health().ToString().c_str());
      return;
    }
  }
  state.counters["io_failures"] =
      static_cast<double>((*db)->stats().io_failures);
  state.counters["retries"] = static_cast<double>((*db)->stats().retries);
  state.counters["degraded_entered"] =
      static_cast<double>((*db)->stats().degraded_entered);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TransientRetryCommit)->Arg(0)->Arg(1)->Arg(3);

}  // namespace
}  // namespace verso::bench

BENCHMARK_MAIN();
