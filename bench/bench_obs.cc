// Ablation for the always-on metrics subsystem (src/obs): the same
// workloads with the global registry enabled vs disabled price what the
// instrumentation costs when it stays on in Release. Two shapes:
//
//   * fixpoint — the recursive ancestors closure through Engine::Run,
//     whose evaluator adds its eval.* and index.* counters to the
//     registry once per run;
//   * commit — client-API commits through Connection/Session, covering
//     the commit-path phase timers (evaluate/install/fan-out spans) and
//     the statement counters.
//
// The On/Off pairs should stay within a few percent of each other: a
// disabled registry skips every clock read and atomic bump, so the Off
// run is the "no instrumentation" baseline.

#include <benchmark/benchmark.h>

#include "api/api.h"
#include "bench_common.h"
#include "obs/metrics.h"

namespace verso::bench {
namespace {

/// Flips the global registry for one benchmark run and restores it.
class ScopedEnabled {
 public:
  explicit ScopedEnabled(bool on)
      : registry_(MetricsRegistry::Global()), was_(registry_.enabled()) {
    registry_.set_enabled(on);
  }
  ~ScopedEnabled() { registry_.set_enabled(was_); }

 private:
  MetricsRegistry& registry_;
  bool was_;
};

void RunObsFixpoint(benchmark::State& state, bool metrics_on) {
  ScopedEnabled scoped(metrics_on);
  const size_t persons = static_cast<size_t>(state.range(0));
  auto world = std::make_unique<World>();
  world->base = world->engine->MakeBase();
  GenealogyOptions options;
  options.persons = persons;
  options.max_parents = 2;
  MakeGenealogy(options, *world->engine, world->base);
  Result<Program> program =
      ParseProgram(kAncestorsProgramText, *world->engine);
  if (!program.ok()) {
    state.SkipWithError(program.status().ToString().c_str());
    return;
  }
  world->program = std::move(program).value();

  for (auto _ : state) {
    Result<RunOutcome> outcome =
        world->engine->Run(world->program, world->base);
    if (!outcome.ok()) {
      state.SkipWithError(outcome.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(outcome->result);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(persons));
}

void BM_ObsFixpointMetricsOn(benchmark::State& state) {
  RunObsFixpoint(state, /*metrics_on=*/true);
}
void BM_ObsFixpointMetricsOff(benchmark::State& state) {
  RunObsFixpoint(state, /*metrics_on=*/false);
}
BENCHMARK(BM_ObsFixpointMetricsOn)->Arg(256)->Arg(4096);
BENCHMARK(BM_ObsFixpointMetricsOff)->Arg(256)->Arg(4096);

void RunObsCommit(benchmark::State& state, bool metrics_on) {
  ScopedEnabled scoped(metrics_on);
  const size_t employees = static_cast<size_t>(state.range(0));
  auto conn_result = Connection::OpenInMemory();
  if (!conn_result.ok()) {
    state.SkipWithError(conn_result.status().ToString().c_str());
    return;
  }
  std::unique_ptr<Connection> conn = std::move(*conn_result);
  {
    ObjectBase base = conn->engine().MakeBase();
    EnterpriseOptions options;
    options.employees = employees;
    MakeEnterprise(options, conn->engine(), base);
    Status imported = conn->Import(base);
    if (!imported.ok()) {
      state.SkipWithError(imported.ToString().c_str());
      return;
    }
  }
  auto session = conn->OpenSession();
  Result<Statement> ins = session->Prepare("t: ins[emp0].flag -> on.");
  Result<Statement> del = session->Prepare("t: del[emp0].flag -> on.");
  if (!ins.ok() || !del.ok()) {
    state.SkipWithError("prepare failed");
    return;
  }
  // Two one-fact commits per iteration (insert then delete), so every
  // iteration exercises the full commit pipeline with a non-empty delta.
  for (auto _ : state) {
    Result<ResultSet> added = ins->Execute();
    Result<ResultSet> removed = del->Execute();
    if (!added.ok() || !removed.ok()) {
      state.SkipWithError("commit failed");
      return;
    }
    benchmark::DoNotOptimize(added->size());
    benchmark::DoNotOptimize(removed->size());
  }
  state.SetItemsProcessed(state.iterations() * 2);
}

void BM_ObsCommitMetricsOn(benchmark::State& state) {
  RunObsCommit(state, /*metrics_on=*/true);
}
void BM_ObsCommitMetricsOff(benchmark::State& state) {
  RunObsCommit(state, /*metrics_on=*/false);
}
BENCHMARK(BM_ObsCommitMetricsOn)->Arg(256)->Arg(4096);
BENCHMARK(BM_ObsCommitMetricsOff)->Arg(256)->Arg(4096);

}  // namespace
}  // namespace verso::bench

BENCHMARK_MAIN();
