// Incremental view maintenance vs from-scratch recomputation: the point
// of src/views. A registered view absorbs one committed transaction's
// delta (delete-and-rederive, stratum by stratum); the baseline re-runs
// EvaluateQueries over the whole base. Expected shape: maintenance cost
// tracks the delta's footprint, recomputation cost tracks the base, so
// the gap widens with scale — the acceptance bar is >= 5x at 4096
// objects with single-transaction deltas.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "query/query.h"
#include "views/view.h"

namespace verso::bench {
namespace {

// Enterprise views: a built-in filter (a non-recursive stratum) plus the
// recursive chain of command.
constexpr const char* kEnterpriseViews = R"(
    q1: derive X.rich -> yes <- X.sal -> S, S > 5000.
    q2: derive X.chain -> Y <- X.boss -> Y.
    q3: derive X.chain -> Z <- X.chain -> Y, Y.boss -> Z.
)";

// The chain of command alone (DRed).
constexpr const char* kChainViews = R"(
    q2: derive X.chain -> Y <- X.boss -> Y.
    q3: derive X.chain -> Z <- X.chain -> Y, Y.boss -> Z.
)";

// Graph view: transitive closure (DRed).
constexpr const char* kGraphViews = R"(
    q1: derive X.reaches -> Y <- X.edge -> Y.
    q2: derive X.reaches -> Z <- X.reaches -> Y, Y.edge -> Z.
)";

ObjectBase MakeEnterpriseBase(Engine& engine, size_t employees) {
  ObjectBase base = engine.MakeBase();
  EnterpriseOptions options;
  options.employees = employees;
  MakeEnterprise(options, engine, base);
  return base;
}

ObjectBase MakeGraphBase(Engine& engine, size_t nodes) {
  ObjectBase base = engine.MakeBase();
  // Degree ~1 keeps the closure size linear-ish so the recompute baseline
  // finishes at 4096 nodes.
  MakeGraph(nodes, nodes, /*seed=*/5, engine, base);
  return base;
}

/// One single-transaction delta: flip `object.method` from `from` to `to`
/// (a mod-style change), alternating direction per iteration.
DeltaLog FlipDelta(Engine& engine, const std::string& object,
                   const char* method, Oid from, Oid to) {
  Vid vid = engine.versions().OfOid(engine.symbols().Symbol(object));
  MethodId m = engine.symbols().Method(method);
  GroundApp old_app;
  old_app.result = from;
  GroundApp new_app;
  new_app.result = to;
  return DeltaLog{{vid, m, old_app, /*added=*/false},
                  {vid, m, new_app, /*added=*/true}};
}

void BM_ViewMaintainEnterprise(benchmark::State& state) {
  const size_t employees = static_cast<size_t>(state.range(0));
  Engine engine;
  ObjectBase base = MakeEnterpriseBase(engine, employees);
  Result<QueryProgram> program =
      ParseQueryProgram(kEnterpriseViews, engine.symbols());
  if (!program.ok()) {
    state.SkipWithError(program.status().ToString().c_str());
    return;
  }
  Result<std::unique_ptr<MaterializedView>> view = MaterializedView::Create(
      "enterprise", std::move(*program), base, engine.symbols(),
      engine.versions());
  if (!view.ok()) {
    state.SkipWithError(view.status().ToString().c_str());
    return;
  }

  // One employee's salary oscillates across the rich threshold: every
  // transaction exercises the non-recursive stratum, while the chain
  // stratum sees no relevant change and is skipped outright.
  Oid low = engine.symbols().Int(100);
  Oid high = engine.symbols().Int(9999);
  // Align the flip's starting point with the generated salary.
  const std::string subject = "emp1";
  Vid vid = engine.versions().OfOid(engine.symbols().Symbol(subject));
  MethodId sal = engine.symbols().Method("sal");
  GroundApp current = (*(*view)->result().StateOf(vid)->Find(sal))[0];
  DeltaLog to_low = FlipDelta(engine, subject, "sal", current.result, low);
  DeltaLog to_high = FlipDelta(engine, subject, "sal", low, high);
  DeltaLog back = FlipDelta(engine, subject, "sal", high, low);

  Status first = (*view)->ApplyBaseDelta(to_low);
  if (!first.ok()) {
    state.SkipWithError(first.ToString().c_str());
    return;
  }
  bool up = true;
  for (auto _ : state) {
    Status status = (*view)->ApplyBaseDelta(up ? to_high : back);
    if (!status.ok()) {
      state.SkipWithError(status.ToString().c_str());
      return;
    }
    up = !up;
    benchmark::DoNotOptimize((*view)->result());
  }
  state.counters["employees"] = static_cast<double>(employees);
  state.counters["view_facts"] =
      static_cast<double>((*view)->result().fact_count() - base.fact_count());
}
BENCHMARK(BM_ViewMaintainEnterprise)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096);

// One leaf employee's boss moves between two managers, alternating. The
// boss change binds Y in `X.chain -> Y, Y.boss -> Z`, so DRed's
// overdelete and insert phases each probe `X.chain -> leaf` with X free:
// the view's cross-version result index answers it from the versions
// holding that result (none: nobody reports to a leaf) instead of every
// `chain` holder. `index_probes` counts the per-version probes per move.
void BM_ViewMaintainBossMove(benchmark::State& state) {
  const size_t employees = static_cast<size_t>(state.range(0));
  Engine engine;
  ObjectBase base = engine.MakeBase();
  EnterpriseOptions options;
  options.employees = employees;
  const Enterprise enterprise = MakeEnterprise(options, engine, base);
  Result<QueryProgram> program =
      ParseQueryProgram(kChainViews, engine.symbols());
  if (!program.ok()) {
    state.SkipWithError(program.status().ToString().c_str());
    return;
  }
  Result<std::unique_ptr<MaterializedView>> view = MaterializedView::Create(
      "chain", std::move(*program), base, engine.symbols(),
      engine.versions());
  if (!view.ok()) {
    state.SkipWithError(view.status().ToString().c_str());
    return;
  }

  size_t leaf = 0;
  while (enterprise.is_manager[leaf]) ++leaf;
  const int home = enterprise.boss[leaf];
  int away = 0;
  while (!enterprise.is_manager[away] || away == home) ++away;
  Oid home_oid = engine.symbols().Symbol(enterprise.names[home]);
  Oid away_oid = engine.symbols().Symbol(enterprise.names[away]);
  const std::string& subject = enterprise.names[leaf];
  DeltaLog there = FlipDelta(engine, subject, "boss", home_oid, away_oid);
  DeltaLog back = FlipDelta(engine, subject, "boss", away_oid, home_oid);

  const uint64_t probes_before = (*view)->stats().index_probes;
  bool moved = false;
  for (auto _ : state) {
    Status status = (*view)->ApplyBaseDelta(moved ? back : there);
    if (!status.ok()) {
      state.SkipWithError(status.ToString().c_str());
      return;
    }
    moved = !moved;
    benchmark::DoNotOptimize((*view)->result());
  }
  state.counters["employees"] = static_cast<double>(employees);
  state.counters["index_probes"] = benchmark::Counter(
      static_cast<double>((*view)->stats().index_probes - probes_before),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ViewMaintainBossMove)->Arg(256)->Arg(1024)->Arg(4096);

void BM_ViewRecomputeEnterprise(benchmark::State& state) {
  const size_t employees = static_cast<size_t>(state.range(0));
  Engine engine;
  ObjectBase base = MakeEnterpriseBase(engine, employees);
  Result<QueryProgram> program =
      ParseQueryProgram(kEnterpriseViews, engine.symbols());
  if (!program.ok()) {
    state.SkipWithError(program.status().ToString().c_str());
    return;
  }
  // The same oscillating single-fact change, paid as a full recompute.
  Oid low = engine.symbols().Int(100);
  Oid high = engine.symbols().Int(9999);
  Vid vid = engine.versions().OfOid(engine.symbols().Symbol("emp1"));
  MethodId sal = engine.symbols().Method("sal");
  GroundApp current = (*base.StateOf(vid)->Find(sal))[0];
  base.Erase(vid, sal, current);
  GroundApp app;
  app.result = low;
  base.Insert(vid, sal, app);
  bool up = true;
  for (auto _ : state) {
    GroundApp old_app;
    old_app.result = up ? low : high;
    GroundApp new_app;
    new_app.result = up ? high : low;
    base.Erase(vid, sal, old_app);
    base.Insert(vid, sal, new_app);
    up = !up;
    Result<ObjectBase> out = EvaluateQueries(*program, base, engine);
    if (!out.ok()) {
      state.SkipWithError(out.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(*out);
  }
  state.counters["employees"] = static_cast<double>(employees);
}
BENCHMARK(BM_ViewRecomputeEnterprise)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096);

void BM_ViewMaintainGraph(benchmark::State& state) {
  const size_t nodes = static_cast<size_t>(state.range(0));
  Engine engine;
  ObjectBase base = MakeGraphBase(engine, nodes);
  Result<QueryProgram> program =
      ParseQueryProgram(kGraphViews, engine.symbols());
  if (!program.ok()) {
    state.SkipWithError(program.status().ToString().c_str());
    return;
  }
  Result<std::unique_ptr<MaterializedView>> view = MaterializedView::Create(
      "closure", std::move(*program), base, engine.symbols(),
      engine.versions());
  if (!view.ok()) {
    state.SkipWithError(view.status().ToString().c_str());
    return;
  }

  // One edge toggles on and off: insertion propagation one iteration,
  // overdelete + rederive the next.
  Vid from = engine.versions().OfOid(engine.symbols().Symbol("n1"));
  MethodId edge = engine.symbols().Method("edge");
  GroundApp app;
  app.result = engine.symbols().Symbol("n2");
  DeltaLog ins{{from, edge, app, /*added=*/true}};
  DeltaLog del{{from, edge, app, /*added=*/false}};
  bool present = (*view)->result().Contains(from, edge, app);
  for (auto _ : state) {
    Status status = (*view)->ApplyBaseDelta(present ? del : ins);
    if (!status.ok()) {
      state.SkipWithError(status.ToString().c_str());
      return;
    }
    present = !present;
    benchmark::DoNotOptimize((*view)->result());
  }
  state.counters["nodes"] = static_cast<double>(nodes);
  state.counters["overdeleted"] =
      static_cast<double>((*view)->stats().overdeleted);
  state.counters["rederived"] =
      static_cast<double>((*view)->stats().rederived);
}
BENCHMARK(BM_ViewMaintainGraph)->Arg(256)->Arg(1024)->Arg(4096);

void BM_ViewRecomputeGraph(benchmark::State& state) {
  const size_t nodes = static_cast<size_t>(state.range(0));
  Engine engine;
  ObjectBase base = MakeGraphBase(engine, nodes);
  Result<QueryProgram> program =
      ParseQueryProgram(kGraphViews, engine.symbols());
  if (!program.ok()) {
    state.SkipWithError(program.status().ToString().c_str());
    return;
  }
  Vid from = engine.versions().OfOid(engine.symbols().Symbol("n1"));
  MethodId edge = engine.symbols().Method("edge");
  GroundApp app;
  app.result = engine.symbols().Symbol("n2");
  bool present = base.Contains(from, edge, app);
  for (auto _ : state) {
    if (present) {
      base.Erase(from, edge, app);
    } else {
      base.Insert(from, edge, app);
    }
    present = !present;
    Result<ObjectBase> out = EvaluateQueries(*program, base, engine);
    if (!out.ok()) {
      state.SkipWithError(out.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(*out);
  }
  state.counters["nodes"] = static_cast<double>(nodes);
}
BENCHMARK(BM_ViewRecomputeGraph)->Arg(256)->Arg(1024)->Arg(4096);

}  // namespace
}  // namespace verso::bench

BENCHMARK_MAIN();
