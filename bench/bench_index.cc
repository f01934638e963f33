// Bound-result probes (VersionState::ForEachAppWithResult,
// src/core/object_base.h): what an `X.m -> c` lookup with the result
// ground at bind time costs. A version's facts are one sorted block, and
// a method's argument-free facts are ordered by result, so the probe is
// a binary search of them plus a scan of the method's argument-bearing
// facts.
//
//   * Bound-result body match: one rule whose single body literal names
//     a ground result, matched over N objects carrying kLikes facts of
//     the probed method each — the matcher's hottest literal form. Its
//     baseline matches the same literal with the result free and keeps
//     the wanted result in the benchmark's sink: a full scan of the
//     method.
//   * DRed rederive: a recursive closure view absorbing an edge delete +
//     re-insert; Phase A/B probes bind rule heads, so their body literals
//     arrive with results bound.
//   * Closure probe: one bound-result lookup per node of that view's
//     64-fact reaches-lists, against a scan of the list written here.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/match.h"
#include "parser/parser.h"
#include "query/query.h"
#include "views/view.h"

namespace verso::bench {
namespace {

constexpr size_t kLikes = 32;   // facts of the probed method per object
constexpr size_t kGenres = 64;  // distinct result constants

/// N objects, each liking kLikes of the kGenres genres (13 is coprime to
/// kGenres, so the likes of one object are distinct).
void FillLikes(Engine& engine, ObjectBase& base, size_t objects) {
  for (size_t i = 0; i < objects; ++i) {
    std::string name = "p" + std::to_string(i);
    for (size_t k = 0; k < kLikes; ++k) {
      size_t genre = (i * 7 + k * 13) % kGenres;
      engine.AddFact(base, name, "likes",
                     "g" + std::to_string(genre));
    }
  }
}

/// Shared body of the bound-result match benchmark. With `scan`, the
/// rule leaves the result free and the sink keeps the matches whose
/// result is g7: the same matches, found by scanning the method.
void RunBoundResultMatch(benchmark::State& state, bool scan) {
  Engine engine;
  ObjectBase base = engine.MakeBase();
  FillLikes(engine, base, static_cast<size_t>(state.range(0)));

  Result<Program> program = ParseProgram(
      scan ? "r: ins[x].hit -> E <- E.likes -> G."
           : "r: ins[x].hit -> E <- E.likes -> g7.",
      engine);
  if (!program.ok() ||
      !AnalyzeRule(program->rules[0], engine.symbols()).ok()) {
    state.SkipWithError("setup failed");
    return;
  }
  const Rule& rule = program->rules[0];
  const Oid wanted = engine.symbols().Symbol("g7");
  size_t result_var = 0;
  for (size_t i = 0; i < rule.var_names.size(); ++i) {
    if (rule.var_names[i] == "G") result_var = i;
  }

  IndexStats istats;
  MatchContext ctx{engine.symbols(), engine.versions(), base, &istats};
  size_t matches = 0;
  for (auto _ : state) {
    Status status =
        ForEachBodyMatch(rule, ctx, [&](const Bindings& bindings) {
          if (!scan || bindings[result_var] == wanted) ++matches;
          return Status::Ok();
        });
    if (!status.ok()) {
      state.SkipWithError(status.ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(matches);
  }
  state.counters["matches_per_run"] =
      static_cast<double>(matches) / static_cast<double>(state.iterations());
  // Per-probe fact visits: a scan visits every fact of the method
  // (kLikes); the probe visits kLikes minus what it avoided.
  const double probes = static_cast<double>(istats.index_probes);
  const double visits =
      probes * kLikes - static_cast<double>(istats.indexed_scan_avoided_facts);
  state.counters["probes"] = probes;
  state.counters["avoided_facts"] =
      static_cast<double>(istats.indexed_scan_avoided_facts);
  state.counters["visits_per_probe"] = probes == 0 ? 0 : visits / probes;
}

void BM_IdxBoundResultMatch(benchmark::State& state) {
  RunBoundResultMatch(state, /*scan=*/false);
}
BENCHMARK(BM_IdxBoundResultMatch)->Arg(256)->Arg(1024)->Arg(4096);

void BM_IdxBoundResultMatchScanBaseline(benchmark::State& state) {
  RunBoundResultMatch(state, /*scan=*/true);
}
BENCHMARK(BM_IdxBoundResultMatchScanBaseline)->Arg(256)->Arg(1024)->Arg(4096);

constexpr const char* kClosureView = R"(
    q1: derive X.reaches -> Y <- X.edge -> Y.
    q2: derive X.reaches -> Z <- X.reaches -> Y, Y.edge -> Z.
)";

constexpr size_t kChainLength = 64;

/// N nodes arranged in chains of kChainLength: long enough reaches-lists
/// that a rederive probe's bound-result lookup has real scanning to skip.
ObjectBase MakeChains(Engine& engine, size_t nodes) {
  ObjectBase base = engine.MakeBase();
  for (size_t i = 0; i + 1 < nodes; ++i) {
    if ((i + 1) % kChainLength == 0) continue;  // chain boundary
    engine.AddFact(base, "n" + std::to_string(i), "edge",
                   "n" + std::to_string(i + 1));
  }
  return base;
}

/// The chains' closure view, materialized over `nodes` nodes.
Result<std::unique_ptr<MaterializedView>> ClosureView(Engine& engine,
                                                      const ObjectBase& base) {
  VERSO_ASSIGN_OR_RETURN(QueryProgram program,
                         ParseQueryProgram(kClosureView, engine.symbols()));
  return MaterializedView::Create("closure", std::move(program), base,
                                  engine.symbols(), engine.versions());
}

/// DRed maintenance: toggle one mid-chain edge, so every other iteration
/// overdeletes the crossing reaches-facts and rederives via
/// goal-directed (head-bound) probes.
void BM_IdxDRedRederive(benchmark::State& state) {
  Engine engine;
  ObjectBase base = MakeChains(engine, static_cast<size_t>(state.range(0)));
  Result<std::unique_ptr<MaterializedView>> view = ClosureView(engine, base);
  if (!view.ok()) {
    state.SkipWithError(view.status().ToString().c_str());
    return;
  }

  // The toggled edge sits mid-chain, so the overdelete cascade crosses
  // it from both sides and Phase B probes every overdeleted fact.
  Vid from = engine.versions().OfOid(engine.symbols().Symbol("n16"));
  MethodId edge = engine.symbols().Method("edge");
  GroundApp app;
  app.result = engine.symbols().Symbol("n17");
  DeltaLog ins{{from, edge, app, /*added=*/true}};
  DeltaLog del{{from, edge, app, /*added=*/false}};
  bool present = true;
  for (auto _ : state) {
    Status status = (*view)->ApplyBaseDelta(present ? del : ins);
    if (!status.ok()) {
      state.SkipWithError(status.ToString().c_str());
      return;
    }
    present = !present;
    benchmark::DoNotOptimize((*view)->result());
  }
  const ViewStats& stats = (*view)->stats();
  state.counters["rederive_probes"] =
      static_cast<double>(stats.rederive_probes);
  state.counters["index_probes"] = static_cast<double>(stats.index_probes);
  state.counters["avoided_facts"] =
      static_cast<double>(stats.indexed_scan_avoided_facts);
}
BENCHMARK(BM_IdxDRedRederive)->Arg(256)->Arg(1024)->Arg(4096);

/// One `n_i.reaches -> n_(i+32)`-shaped lookup per node of the closure
/// result (the first node's result, mid-chain). With `scan`, the lookup
/// walks the node's whole reaches-list and compares each result here.
void RunClosureProbe(benchmark::State& state, bool scan) {
  Engine engine;
  const size_t nodes = static_cast<size_t>(state.range(0));
  ObjectBase base = MakeChains(engine, nodes);
  Result<std::unique_ptr<MaterializedView>> view = ClosureView(engine, base);
  if (!view.ok()) {
    state.SkipWithError(view.status().ToString().c_str());
    return;
  }
  const ObjectBase& result = (*view)->result();
  const MethodId reaches = engine.symbols().Method("reaches");
  std::vector<std::pair<const VersionState*, Oid>> lookups;
  for (size_t i = 0; i < nodes; ++i) {
    const VersionState* node = result.StateOf(
        engine.versions().OfOid(engine.symbols().Symbol("n" + std::to_string(i))));
    if (node == nullptr) continue;
    const size_t chain_end = (i / kChainLength + 1) * kChainLength;
    const size_t target = std::min(i + kChainLength / 2, chain_end - 1);
    lookups.emplace_back(
        node, engine.symbols().Symbol("n" + std::to_string(target)));
  }
  size_t found = 0;
  for (auto _ : state) {
    for (const auto& [node, target] : lookups) {
      Status status = Status::Ok();
      if (scan) {
        status = node->ForEachApp(reaches, [&](const GroundApp& app) {
          if (app.result == target) ++found;
          return Status::Ok();
        });
      } else {
        status = node->ForEachAppWithResult(reaches, target, nullptr,
                                            [&](const GroundApp&) {
                                              ++found;
                                              return Status::Ok();
                                            });
      }
      if (!status.ok()) {
        state.SkipWithError(status.ToString().c_str());
        return;
      }
    }
    benchmark::DoNotOptimize(found);
  }
  state.counters["lookups"] = static_cast<double>(lookups.size());
  state.counters["found_per_run"] =
      static_cast<double>(found) / static_cast<double>(state.iterations());
}

void BM_IdxClosureProbe(benchmark::State& state) {
  RunClosureProbe(state, /*scan=*/false);
}
BENCHMARK(BM_IdxClosureProbe)->Arg(256)->Arg(1024)->Arg(4096);

void BM_IdxClosureProbeScanBaseline(benchmark::State& state) {
  RunClosureProbe(state, /*scan=*/true);
}
BENCHMARK(BM_IdxClosureProbeScanBaseline)->Arg(256)->Arg(1024)->Arg(4096);

}  // namespace
}  // namespace verso::bench

BENCHMARK_MAIN();
