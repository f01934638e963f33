// Snapshots and state copies (src/core/object_base.h): what a pin and
// a T_P step-2 copy cost when a version's state is one refcounted
// block of sorted facts, and what a state holds in memory.
//
//   * Pin under ongoing commits: each commit invalidates the shared
//     snapshot, so the next session open rebuilds it: O(1) copies of the
//     base and every view result. The deep-copy baseline rebuilds all of
//     them fact by fact (what Connection::Pin cost before sharing).
//   * T_P step-2 materialization: preparing an inactive target's state
//     copies v*'s block whole; the baseline re-inserts its facts one by
//     one.
//   * Live heap per object: N employees that each hold the perfbench
//     base's six facts, read with mallinfo2 after malloc_trim.

#include <benchmark/benchmark.h>
#include <malloc.h>

#include <memory>
#include <string>
#include <vector>

#include "api/api.h"

namespace verso::bench {
namespace {

/// N objects, each carrying 14 facts over 4 methods (argument-bearing
/// applications included, so a deep copy pays real allocation work).
void FillBase(Engine& engine, ObjectBase& base, size_t objects) {
  for (size_t i = 0; i < objects; ++i) {
    std::string name = "o" + std::to_string(i);
    engine.AddFact(base, name, "isa", "thing");
    engine.AddFact(base, name, "sal",
                   static_cast<int64_t>(1000 + (i % 977)));
    for (int64_t k = 0; k < 8; ++k) {
      engine.AddFact(base, name, "tag", {engine.symbols().Int(k)},
                     engine.symbols().Int(static_cast<int64_t>(i) + k));
    }
    for (int64_t k = 0; k < 4; ++k) {
      engine.AddFact(base, name, "ref",
                     engine.symbols().Symbol("o" + std::to_string(
                                                 (i + 17 * (k + 1)) % objects)));
    }
  }
}

constexpr const char* kRichView =
    "CREATE VIEW rich AS q: derive X.rich -> yes <- X.sal -> S, S > 1500.";
constexpr const char* kBumpTxn =
    "t: mod[o0].sal -> (S, S2) <- o0.sal -> S, S2 = S + 1.";

std::unique_ptr<Connection> SizedConnection(size_t objects) {
  Result<std::unique_ptr<Connection>> conn = Connection::OpenInMemory();
  if (!conn.ok()) return nullptr;
  ObjectBase base = (*conn)->engine().MakeBase();
  FillBase((*conn)->engine(), base, objects);
  if (!(*conn)->Import(base).ok()) return nullptr;
  std::unique_ptr<Session> session = (*conn)->OpenSession();
  if (!session->Execute(kRichView).ok()) return nullptr;
  return std::move(conn).value();
}

/// The pre-COW cost of one ObjectBase copy: every fact re-inserted.
ObjectBase DeepClone(const ObjectBase& base) {
  ObjectBase out(base.exists_method(), base.version_table());
  for (const auto& [vid, state] : base.versions()) {
    for (const VersionState::Fact& fact : state->facts()) {
      out.Insert(vid, fact.method, fact);
    }
  }
  return out;
}

/// One T_P step-2 state copy built fact by fact.
VersionState DeepCloneState(const VersionState& state) {
  VersionState out;
  for (const VersionState::Fact& fact : state.facts()) {
    out.Insert(fact.method, fact);
  }
  return out;
}

/// Pin under ongoing commits, COW: every iteration commits (invalidating
/// the shared snapshot) outside the timed region, then times the session
/// open that rebuilds it — base + view result, shared structurally.
void BM_SnapPinUnderCommits(benchmark::State& state) {
  std::unique_ptr<Connection> conn = SizedConnection(state.range(0));
  if (conn == nullptr) {
    state.SkipWithError("setup failed");
    return;
  }
  std::unique_ptr<Session> writer = conn->OpenSession();
  Result<Statement> bump = writer->Prepare(kBumpTxn);
  if (!bump.ok()) {
    state.SkipWithError(bump.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    state.PauseTiming();
    if (!bump->Execute().ok()) {
      state.SkipWithError("commit failed");
      return;
    }
    state.ResumeTiming();
    std::unique_ptr<Session> session = conn->OpenSession();
    benchmark::DoNotOptimize(session->epoch());
  }
  state.counters["base_facts"] = static_cast<double>(
      conn->database().current().fact_count());
}
BENCHMARK(BM_SnapPinUnderCommits)->Arg(256)->Arg(1024)->Arg(4096);

/// The deep-copy baseline for the same pin: clone the committed base and
/// the view result fact by fact, as the pre-sharing snapshot did.
void BM_SnapPinDeepCopyBaseline(benchmark::State& state) {
  std::unique_ptr<Connection> conn = SizedConnection(state.range(0));
  if (conn == nullptr) {
    state.SkipWithError("setup failed");
    return;
  }
  std::unique_ptr<Session> writer = conn->OpenSession();
  Result<Statement> bump = writer->Prepare(kBumpTxn);
  if (!bump.ok()) {
    state.SkipWithError(bump.status().ToString().c_str());
    return;
  }
  const MaterializedView* rich = conn->catalog().Find("rich");
  for (auto _ : state) {
    state.PauseTiming();
    if (!bump->Execute().ok()) {
      state.SkipWithError("commit failed");
      return;
    }
    state.ResumeTiming();
    ObjectBase base_copy = DeepClone(conn->database().current());
    ObjectBase view_copy = DeepClone(rich->result());
    benchmark::DoNotOptimize(base_copy.fact_count());
    benchmark::DoNotOptimize(view_copy.fact_count());
  }
}
BENCHMARK(BM_SnapPinDeepCopyBaseline)->Arg(256)->Arg(1024)->Arg(4096);

/// T_P step 2+3 per target, COW: copy each version's state (pointer
/// bumps) and apply one insert (detaches just the written method).
void BM_SnapTpStep2Cow(benchmark::State& state) {
  Engine engine;
  ObjectBase base = engine.MakeBase();
  FillBase(engine, base, state.range(0));
  base.SealExistence();
  MethodId touched = engine.symbols().Method("touched");
  GroundApp yes;
  yes.result = engine.symbols().Symbol("yes");
  size_t facts = 0;
  for (auto _ : state) {
    for (const auto& [vid, vstate] : base.versions()) {
      VersionState copy = *vstate;  // step 2: materialize from v*
      copy.Insert(touched, yes);    // step 3: apply the derived update
      facts += copy.fact_count();
      benchmark::DoNotOptimize(facts);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(base.version_count()));
}
BENCHMARK(BM_SnapTpStep2Cow)->Arg(256)->Arg(1024)->Arg(4096);

/// The fact-by-fact baseline for step 2: re-insert every fact of v*'s
/// state before applying the update.
void BM_SnapTpStep2DeepCopyBaseline(benchmark::State& state) {
  Engine engine;
  ObjectBase base = engine.MakeBase();
  FillBase(engine, base, state.range(0));
  base.SealExistence();
  MethodId touched = engine.symbols().Method("touched");
  GroundApp yes;
  yes.result = engine.symbols().Symbol("yes");
  size_t facts = 0;
  for (auto _ : state) {
    for (const auto& [vid, vstate] : base.versions()) {
      VersionState copy = DeepCloneState(*vstate);
      copy.Insert(touched, yes);
      facts += copy.fact_count();
      benchmark::DoNotOptimize(facts);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(base.version_count()));
}
BENCHMARK(BM_SnapTpStep2DeepCopyBaseline)->Arg(256)->Arg(1024)->Arg(4096);

/// End-to-end sanity: one single-object update committed against an
/// N-object base. With sharing, the evaluator's working copy, the
/// rebuilt ob', and ComputeDelta are all O(changed), so this should
/// grow far slower than the base.
void BM_SnapCommitTouchingOneObject(benchmark::State& state) {
  std::unique_ptr<Connection> conn = SizedConnection(state.range(0));
  if (conn == nullptr) {
    state.SkipWithError("setup failed");
    return;
  }
  std::unique_ptr<Session> writer = conn->OpenSession();
  Result<Statement> bump = writer->Prepare(kBumpTxn);
  if (!bump.ok()) {
    state.SkipWithError(bump.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    if (!bump->Execute().ok()) {
      state.SkipWithError("commit failed");
      return;
    }
  }
}
BENCHMARK(BM_SnapCommitTouchingOneObject)->Arg(256)->Arg(1024)->Arg(4096);

/// Bytes the heap holds in use, after returning free memory to the OS.
size_t LiveHeapBytes() {
  malloc_trim(0);
  return mallinfo2().uordblks;
}

/// Live heap per object: N employees that each hold the perfbench base's
/// six facts (exists, isa, sal, dept, boss, pos), inserted one by one into
/// a fresh engine's base. The figure is everything that leaves allocated,
/// the objects' symbols and versions included, divided by N.
void BM_LiveHeapPerObject(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  double per_object = 0;
  size_t facts = 0;
  for (auto _ : state) {
    const size_t before = LiveHeapBytes();
    Engine engine;
    SymbolTable& symbols = engine.symbols();
    ObjectBase base = engine.MakeBase();
    const MethodId exists = symbols.exists_method();
    const MethodId isa = symbols.Method("isa");
    const MethodId sal = symbols.Method("sal");
    const MethodId dept = symbols.Method("dept");
    const MethodId boss = symbols.Method("boss");
    const MethodId pos = symbols.Method("pos");
    const Oid empl = symbols.Symbol("empl");
    const Oid mgr = symbols.Symbol("mgr");
    auto employee = [&](size_t i) {
      return symbols.Symbol("e" + std::to_string(i));
    };
    for (size_t i = 0; i < n; ++i) {
      const Oid self = employee(i);
      const Vid vid = engine.versions().OfOid(self);
      auto add = [&](MethodId method, Oid result) {
        GroundApp app;
        app.result = result;
        base.Insert(vid, method, std::move(app));
      };
      add(exists, self);
      add(isa, empl);
      add(sal, symbols.Int(20000 + static_cast<int64_t>((i * 7919) % 70000)));
      add(dept, symbols.Symbol("d" + std::to_string(i % 64)));
      add(boss, employee(i / 4));
      add(pos, mgr);
    }
    per_object = static_cast<double>(LiveHeapBytes() - before) /
                 static_cast<double>(n);
    facts = base.fact_count();
  }
  state.counters["heap_bytes_per_object"] = per_object;
  state.counters["facts"] = static_cast<double>(facts);
}
BENCHMARK(BM_LiveHeapPerObject)
    ->Arg(4096)
    ->Arg(65536)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace verso::bench

BENCHMARK_MAIN();
