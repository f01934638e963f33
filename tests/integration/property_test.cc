// Parameterized property sweeps over generated workloads: the semantic
// invariants the paper's construction guarantees, checked at scale and
// across seeds.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <random>
#include <set>
#include <tuple>
#include <vector>

#include "baselines/baselines.h"
#include "core/engine.h"
#include "core/pretty.h"
#include "parser/parser.h"
#include "storage/codec.h"
#include "workloads/workloads.h"

namespace verso {
namespace {

struct SweepParam {
  size_t employees;
  uint64_t seed;
};

class EnterpriseSweep : public ::testing::TestWithParam<SweepParam> {};

// Invariant bundle on the paper's running program over random
// enterprises:
//  * termination in exactly 2 rounds per stratum (non-recursive rules),
//  * every employee's salary raised exactly once (exact rationals),
//  * fired employees vanish; survivors keep all untouched methods,
//  * hpe membership is exactly "survivor with raised salary > 4500",
//  * bystander objects are byte-identical (frame property),
//  * result(P) is version-linear (commit succeeds).
TEST_P(EnterpriseSweep, RunningExampleInvariants) {
  const SweepParam param = GetParam();
  Engine engine;
  ObjectBase base = engine.MakeBase();
  EnterpriseOptions options;
  options.employees = param.employees;
  options.seed = param.seed;
  options.bystanders = 16;
  Enterprise enterprise = MakeEnterprise(options, engine, base);

  Result<Program> program = ParseProgram(kEnterpriseProgramText, engine);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  Result<RunOutcome> outcome = engine.Run(*program, base);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();

  // Termination shape: 3 strata, each fixpointing in 2 rounds.
  ASSERT_EQ(outcome->stats.strata.size(), 3u);
  for (const StratumStats& s : outcome->stats.strata) {
    EXPECT_LE(s.rounds, 2u);
  }

  const SymbolTable& sym = engine.symbols();
  VersionTable& ver = engine.versions();
  MethodId sal = engine.symbols().Method("sal");
  MethodId isa = engine.symbols().Method("isa");
  Numeric rate = *Numeric::Parse("1.1");

  // Reference semantics computed independently in plain C++.
  const size_t n = enterprise.names.size();
  std::vector<Numeric> raised(n);
  for (size_t i = 0; i < n; ++i) {
    Numeric s = Numeric::FromInt(enterprise.salary[i]);
    Numeric r = *Numeric::Mul(s, rate);
    if (enterprise.is_manager[i]) r = *Numeric::Add(r, Numeric::FromInt(200));
    raised[i] = r;
  }
  std::vector<bool> fired(n, false);
  for (size_t i = 0; i < n; ++i) {
    if (enterprise.boss[i] >= 0 &&
        Numeric::Compare(raised[i],
                         raised[static_cast<size_t>(enterprise.boss[i])]) > 0) {
      fired[i] = true;
    }
  }

  for (size_t i = 0; i < n; ++i) {
    Vid v = ver.OfOid(engine.symbols().Symbol(enterprise.names[i]));
    const VersionState* state = outcome->new_base.StateOf(v);
    if (fired[i]) {
      EXPECT_EQ(state, nullptr) << enterprise.names[i] << " should be fired";
      continue;
    }
    ASSERT_NE(state, nullptr) << enterprise.names[i];
    // Salary raised exactly once.
    VersionState::Run sal_apps = state->Find(sal);
    ASSERT_EQ(sal_apps.size(), 1u);
    EXPECT_EQ(sym.NumberValue(sal_apps[0].result), raised[i])
        << enterprise.names[i];
    // hpe membership.
    GroundApp hpe;
    hpe.result = engine.symbols().Symbol("hpe");
    bool expect_hpe = Numeric::Compare(raised[i], Numeric::FromInt(4500)) > 0;
    EXPECT_EQ(state->Contains(isa, hpe), expect_hpe) << enterprise.names[i];
    // Untouched methods preserved.
    GroundApp empl;
    empl.result = engine.symbols().Symbol("empl");
    EXPECT_TRUE(state->Contains(isa, empl));
  }

  // Frame property: bystanders are untouched, fact for fact.
  MethodId mass = engine.symbols().Method("mass");
  for (size_t i = 0; i < options.bystanders; ++i) {
    Vid rock = ver.OfOid(engine.symbols().Symbol("rock" + std::to_string(i)));
    const VersionState* before = base.StateOf(rock);
    const VersionState* after = outcome->new_base.StateOf(rock);
    ASSERT_NE(before, nullptr);
    ASSERT_NE(after, nullptr);
    ASSERT_FALSE(before->Find(mass).empty());
    ASSERT_FALSE(after->Find(mass).empty());
    EXPECT_EQ(before->Find(mass)[0].result, after->Find(mass)[0].result);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, EnterpriseSweep,
    ::testing::Values(SweepParam{2, 1}, SweepParam{8, 2}, SweepParam{32, 3},
                      SweepParam{64, 4}, SweepParam{128, 5},
                      SweepParam{64, 99}, SweepParam{64, 1234}),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return "n" + std::to_string(info.param.employees) + "_seed" +
             std::to_string(info.param.seed);
    });

class GenealogySweep : public ::testing::TestWithParam<SweepParam> {};

// The recursive insert program computes exactly the transitive closure of
// `parents` (reference closure computed independently).
TEST_P(GenealogySweep, AncestorsAreTransitiveClosure) {
  Engine engine;
  ObjectBase base = engine.MakeBase();
  GenealogyOptions options;
  options.persons = GetParam().employees;
  options.seed = GetParam().seed;
  Genealogy g = MakeGenealogy(options, engine, base);

  Result<Program> program = ParseProgram(kAncestorsProgramText, engine);
  ASSERT_TRUE(program.ok());
  Result<RunOutcome> outcome = engine.Run(*program, base);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();

  std::vector<std::vector<int>> closure = g.AncestorClosure();
  MethodId anc = engine.symbols().Method("anc");
  for (size_t i = 0; i < g.names.size(); ++i) {
    Vid v = engine.versions().OfOid(engine.symbols().Symbol(g.names[i]));
    const VersionState* state = outcome->new_base.StateOf(v);
    ASSERT_NE(state, nullptr);
    size_t got = state->Find(anc).size();
    EXPECT_EQ(got, closure[i].size()) << g.names[i];
    for (int a : closure[i]) {
      GroundApp app;
      app.result = engine.symbols().Symbol(g.names[static_cast<size_t>(a)]);
      EXPECT_TRUE(state->Contains(anc, app))
          << g.names[i] << " anc " << g.names[static_cast<size_t>(a)];
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, GenealogySweep,
    ::testing::Values(SweepParam{4, 11}, SweepParam{16, 12},
                      SweepParam{48, 13}, SweepParam{96, 14},
                      SweepParam{48, 500}),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return "n" + std::to_string(info.param.employees) + "_seed" +
             std::to_string(info.param.seed);
    });

// The facts of `method` in `state` whose result is `result`, found by a
// walk over the whole block: the brute-force filter the bound-result
// probe (binary search of the argument-free facts, scan of the rest) is
// checked against.
std::vector<GroundApp> FilterByResult(const VersionState& state,
                                      MethodId method, Oid result) {
  std::vector<GroundApp> out;
  for (const VersionState::Fact& fact : state.facts()) {
    if (fact.method == method && fact.result == result) out.push_back(fact);
  }
  return out;
}

// Probe consistency: after any randomized sequence of inserts, erases,
// COW copies (detach points), and version replacements, a bound-result
// lookup (ForEachAppWithResult) and HoldsResult agree with the
// brute-force filter, on methods mixing facts of 0-3 arguments.
TEST(PropertyTest, ResultIndexLookupsMatchFullScans) {
  for (uint64_t seed : {7ull, 77ull, 777ull}) {
    std::mt19937_64 rng(seed);
    SymbolTable symbols;
    VersionTable versions;
    ObjectBase base(symbols.exists_method(), &versions);

    constexpr int kVersions = 6;
    constexpr int kMethods = 4;
    constexpr int kResults = 5;
    constexpr int kArgs = 3;
    std::vector<Vid> vids;
    for (int i = 0; i < kVersions; ++i) {
      vids.push_back(
          versions.OfOid(symbols.Symbol("o" + std::to_string(i))));
    }
    std::vector<MethodId> methods;
    for (int i = 0; i < kMethods; ++i) {
      methods.push_back(symbols.Method("m" + std::to_string(i)));
    }
    std::vector<Oid> results;
    for (int i = 0; i < kResults; ++i) {
      results.push_back(symbols.Symbol("r" + std::to_string(i)));
    }

    auto random_app = [&]() {
      GroundApp app;
      const size_t arity = rng() % 4;
      for (size_t a = 0; a < arity; ++a) {
        app.args.push_back(symbols.Int(static_cast<int64_t>(rng() % kArgs)));
      }
      app.result = results[rng() % kResults];
      return app;
    };

    // `shadow` holds COW copies taken mid-sequence: every copy is a
    // detach point for later writes to `base`, and each copy's lookups
    // must keep agreeing with the filter after the original moves on.
    std::vector<ObjectBase> shadow;
    auto check_one = [&](const ObjectBase& b) {
      for (Vid vid : vids) {
        const VersionState* state = b.StateOf(vid);
        if (state == nullptr) continue;
        for (MethodId method : methods) {
          for (Oid result : results) {
            std::vector<GroundApp> probed;
            IndexStats stats;
            Status s = state->ForEachAppWithResult(
                method, result, &stats, [&](const GroundApp& app) {
                  probed.push_back(app);
                  return Status::Ok();
                });
            ASSERT_TRUE(s.ok());
            const std::vector<GroundApp> filtered =
                FilterByResult(*state, method, result);
            EXPECT_EQ(probed, filtered);
            EXPECT_EQ(state->HoldsResult(method, result), !filtered.empty());
            EXPECT_EQ(stats.index_probes, 1u);
            EXPECT_EQ(stats.index_hits, filtered.empty() ? 0u : 1u);
          }
        }
      }
    };

    for (int step = 0; step < 300; ++step) {
      Vid vid = vids[rng() % vids.size()];
      MethodId method = methods[rng() % methods.size()];
      switch (rng() % 6) {
        case 0:
        case 1:
          base.Insert(vid, method, random_app());
          break;
        case 2:
          base.Erase(vid, method, random_app());
          break;
        case 3: {  // COW copy: later writes to base must detach.
          if (shadow.size() < 4) shadow.push_back(base);
          break;
        }
        case 4: {  // Replace a version with a mutated copy.
          const VersionState* cur = base.StateOf(vid);
          VersionState next = cur == nullptr ? VersionState() : *cur;
          next.Insert(method, random_app());
          next.Erase(method, random_app());
          base.ReplaceVersion(vid, std::move(next));
          break;
        }
        case 5: {  // Probe mid-sequence.
          const VersionState* state = base.StateOf(vid);
          if (state != nullptr) {
            Status s = state->ForEachAppWithResult(
                method, results[rng() % results.size()], nullptr,
                [&](const GroundApp&) { return Status::Ok(); });
            ASSERT_TRUE(s.ok());
          }
          break;
        }
      }
      if (step % 50 == 49) {
        check_one(base);
        for (const ObjectBase& copy : shadow) check_one(copy);
      }
    }
    check_one(base);
    for (const ObjectBase& copy : shadow) {
      check_one(copy);
      // A fact-by-fact rebuild (distinct storage) compares equal.
      ObjectBase rebuilt(copy.exists_method(), copy.version_table());
      for (const auto& [vid, state] : copy.versions()) {
        for (const VersionState::Fact& fact : state->facts()) {
          rebuilt.Insert(vid, fact.method, fact);
        }
      }
      EXPECT_TRUE(copy == rebuilt);
    }
  }
}

// One version's state against a std::set model: generated sequences of
// inserts (duplicates included) and erases, in phases that grow methods
// past 64 facts and shrink them to nothing, run on a VersionState and on
// an ObjectBase's one version. Methods mix facts of 0-3 arguments. After
// every step both must hold exactly the model's facts in its order;
// bound-result probes and HoldsResult must equal a filter of the model;
// ForEachFactChange from the previous state must list exactly the
// changed facts in sorted order; and copies taken along the way must
// stay as they were taken while either side is written.
TEST(PropertyTest, VersionStateMatchesSetModel) {
  // (method, args, result): the state's own order.
  using Fact = std::tuple<uint32_t, std::vector<uint32_t>, uint32_t>;
  using Model = std::set<Fact>;
  for (uint64_t seed : {3ull, 33ull, 333ull}) {
    std::mt19937_64 rng(seed);
    SymbolTable symbols;
    VersionTable versions;
    const Vid vid = versions.OfOid(symbols.Symbol("o"));
    std::vector<MethodId> methods;
    for (int i = 0; i < 3; ++i) {
      methods.push_back(symbols.Method("m" + std::to_string(i)));
    }
    std::vector<Oid> values;
    for (int i = 0; i < 6; ++i) values.push_back(symbols.Int(i));

    auto app_of = [](const Fact& fact) {
      GroundApp app;
      for (uint32_t arg : std::get<1>(fact)) app.args.push_back(Oid(arg));
      app.result = Oid(std::get<2>(fact));
      return app;
    };
    auto fact_of = [](MethodId method, const GroundApp& app) {
      std::vector<uint32_t> args;
      for (Oid arg : app.args) args.push_back(arg.value);
      return Fact{method.value, std::move(args), app.result.value};
    };
    auto random_fact = [&]() {
      std::vector<uint32_t> args(rng() % 4);
      for (uint32_t& arg : args) arg = values[rng() % 4].value;
      return Fact{methods[rng() % methods.size()].value, std::move(args),
                  values[rng() % values.size()].value};
    };
    auto facts_in = [&](const VersionState* state) {
      std::vector<Fact> out;
      if (state == nullptr) return out;
      for (const VersionState::Fact& fact : state->facts()) {
        out.push_back(fact_of(fact.method, fact));
      }
      return out;
    };
    auto check = [&](const VersionState* state, const Model& model) {
      ASSERT_EQ(facts_in(state), std::vector<Fact>(model.begin(), model.end()));
      const size_t count = state == nullptr ? 0 : state->fact_count();
      ASSERT_EQ(count, model.size());
      if (state == nullptr) return;
      for (MethodId method : methods) {
        std::vector<Fact> run;
        for (const GroundApp& app : state->Find(method)) {
          run.push_back(fact_of(method, app));
        }
        std::vector<Fact> expected;
        for (const Fact& fact : model) {
          if (std::get<0>(fact) == method.value) expected.push_back(fact);
        }
        EXPECT_EQ(run, expected);
        EXPECT_EQ(state->HasMethod(method), !expected.empty());
        for (Oid result : values) {
          std::vector<Fact> probed;
          Status status = state->ForEachAppWithResult(
              method, result, nullptr, [&](const GroundApp& app) {
                probed.push_back(fact_of(method, app));
                return Status::Ok();
              });
          ASSERT_TRUE(status.ok());
          std::vector<Fact> filtered;
          for (const Fact& fact : expected) {
            if (std::get<2>(fact) == result.value) filtered.push_back(fact);
          }
          EXPECT_EQ(probed, filtered);
          EXPECT_EQ(state->HoldsResult(method, result), !filtered.empty());
        }
      }
      for (int probe = 0; probe < 8; ++probe) {
        const Fact fact = random_fact();
        EXPECT_EQ(state->Contains(MethodId(std::get<0>(fact)), app_of(fact)),
                  model.count(fact) == 1);
      }
    };

    VersionState state;
    Model model;
    ObjectBase base(symbols.exists_method(), &versions);
    // Copies taken along the way, each with the model it was taken at.
    std::vector<std::pair<VersionState, Model>> copies;
    std::vector<std::pair<ObjectBase, Model>> base_copies;
    size_t longest_run = 0;
    bool emptied = false;
    for (int phase = 0; phase < 6; ++phase) {
      // Growing phases insert nine times in ten; shrinking phases erase
      // held facts nineteen times in twenty, until the state is empty.
      const bool grow = phase % 2 == 0;
      for (int step = 0; step < 400; ++step) {
        const VersionState before = state;
        const Model before_model = model;
        Fact fact = random_fact();
        const bool insert = grow ? rng() % 10 != 0 : rng() % 20 == 0;
        if (!insert && !model.empty() && (!grow || rng() % 2 == 0)) {
          // Erase a fact that is there, so shrinking reaches empty.
          auto it = model.begin();
          std::advance(it, static_cast<long>(rng() % model.size()));
          fact = *it;
        }
        const MethodId method(std::get<0>(fact));
        const GroundApp app = app_of(fact);
        if (insert) {
          const bool fresh = model.insert(fact).second;
          EXPECT_EQ(state.Insert(method, app), fresh);
          EXPECT_EQ(base.Insert(vid, method, app), fresh);
        } else {
          const bool held = model.erase(fact) == 1;
          EXPECT_EQ(state.Erase(method, app), held);
          EXPECT_EQ(base.Erase(vid, method, app), held);
        }
        check(&state, model);
        check(base.StateOf(vid), model);
        EXPECT_EQ(base.StateOf(vid) == nullptr, model.empty());
        for (MethodId m : methods) {
          const ObjectBase::VidSet* holders = base.VidsWithMethod(m);
          EXPECT_EQ(holders != nullptr && holders->Contains(vid),
                    state.HasMethod(m));
        }
        emptied = emptied || (model.empty() && step > 0);
        for (MethodId m : methods) {
          longest_run = std::max(longest_run, state.Find(m).size());
        }

        // The change list from the previous state: the symmetric
        // difference of the two models, in sorted order.
        std::vector<std::pair<Fact, bool>> changes;
        ForEachFactChange(&before, &state,
                          [&](MethodId m, const GroundApp& a, bool added) {
                            changes.emplace_back(fact_of(m, a), added);
                          });
        std::vector<std::pair<Fact, bool>> expected;
        for (const Fact& f : before_model) {
          if (model.count(f) == 0) expected.emplace_back(f, false);
        }
        for (const Fact& f : model) {
          if (before_model.count(f) == 0) expected.emplace_back(f, true);
        }
        std::sort(expected.begin(), expected.end(),
                  [](const auto& a, const auto& b) { return a.first < b.first; });
        EXPECT_EQ(changes, expected);

        if (rng() % 40 == 0 && copies.size() < 6) {
          copies.emplace_back(state, model);
          base_copies.emplace_back(base, model);
          // Write the copy at once: the original must not see it.
          Fact extra = random_fact();
          VersionState& copy = copies.back().first;
          Model& copy_model = copies.back().second;
          EXPECT_EQ(copy.Insert(MethodId(std::get<0>(extra)), app_of(extra)),
                    copy_model.insert(extra).second);
          check(&copy, copy_model);
          check(&state, model);
        }
      }
      for (auto& [copy, copy_model] : copies) check(&copy, copy_model);
      for (auto& [copy, copy_model] : base_copies) {
        check(copy.StateOf(vid), copy_model);
      }
    }
    EXPECT_GT(longest_run, 64u);
    EXPECT_TRUE(emptied);
  }
}

// The persistent object base against a plain model. Random inserts,
// erases, version replacements, adoptions, copies and destructions run
// over a few thousand versions (plain and non-plain), so the version
// trie has three levels and sparse leaves and copies share nodes at
// every level. Every live base must keep agreeing with its own
// std::map model — so no copy sees another's later writes — on
// StateOf, VidsWithMethod (size, members, ascending order),
// non_plain_versions, the exists-only count, fact_count, ==,
// SealExistence, and on ComputeDelta against every other live base and
// against a rebuilt base that shares no storage. Random live bases also
// index random methods by result (IndexResults), before and after
// copies are taken: after every step each index must list, per result,
// exactly the model's versions holding such a fact, ascending, and a
// base must report no index for a method it never indexed (nor inherited
// from the base it was copied from).
TEST(PropertyTest, PersistentBaseMatchesMapModel) {
  // (vid, method, arg, result) — every app carries one argument.
  using Fact = std::tuple<uint32_t, uint32_t, uint32_t, uint32_t>;
  using Model = std::set<Fact>;
  for (uint64_t seed : {5ull, 55ull, 555ull}) {
    std::mt19937_64 rng(seed);
    SymbolTable symbols;
    VersionTable versions;
    const MethodId exists = symbols.exists_method();

    // 2500 plain versions and mod() versions of every fifth object:
    // Vids 0..2999, interleaved. `sibling` pairs o with mod(o).
    std::vector<Vid> vids;
    std::map<uint32_t, Vid> sibling;
    for (int i = 0; i < 2500; ++i) {
      Vid plain = versions.OfOid(symbols.Symbol("o" + std::to_string(i)));
      vids.push_back(plain);
      if (i % 5 == 0) {
        Vid staged = versions.Child(plain, UpdateKind::kModify);
        vids.push_back(staged);
        sibling[plain.value] = staged;
        sibling[staged.value] = plain;
      }
    }
    std::vector<MethodId> methods = {exists};
    for (int i = 0; i < 4; ++i) {
      methods.push_back(symbols.Method("m" + std::to_string(i)));
    }
    std::vector<Oid> values;
    for (int i = 0; i < 3; ++i) values.push_back(symbols.Int(i));

    auto fact_of = [](Vid vid, MethodId method, const GroundApp& app) {
      return Fact{vid.value, method.value, app.args[0].value,
                  app.result.value};
    };
    auto app_of = [](const Fact& fact) {
      GroundApp app;
      app.args.push_back(Oid(std::get<2>(fact)));
      app.result = Oid(std::get<3>(fact));
      return app;
    };
    // A random fact; exists facts follow the paper's `v.exists -> root`.
    auto random_fact = [&](Vid vid) {
      MethodId method = methods[rng() % methods.size()];
      GroundApp app;
      app.args.push_back(values[rng() % values.size()]);
      app.result = method == exists ? Oid(versions.root(vid).value)
                                    : values[rng() % values.size()];
      return fact_of(vid, method, app);
    };
    auto facts_of = [](const Model& model, uint32_t vid) {
      return Model(model.lower_bound(Fact{vid, 0, 0, 0}),
                   model.lower_bound(Fact{vid + 1, 0, 0, 0}));
    };
    auto state_facts = [&](Vid vid, const VersionState* state) {
      Model out;
      if (state == nullptr) return out;
      for (const VersionState::Fact& fact : state->facts()) {
        out.insert(fact_of(vid, fact.method, fact));
      }
      return out;
    };

    std::vector<ObjectBase> bases;
    std::vector<Model> models;
    bases.emplace_back(exists, &versions);
    models.emplace_back();
    // The methods each live base indexes by result (a copy inherits its
    // source's). Drawn from a stream of its own, so the write sequence
    // is the one the model checks above were written against; the
    // indexable subset varies by seed.
    std::mt19937_64 index_rng(seed + 1);
    std::vector<std::set<uint32_t>> indexed(1);
    size_t copies_left_unindexed = 0;
    std::vector<MethodId> indexable;
    for (MethodId method : methods) {
      if (indexable.size() < 2 || index_rng() % 2 == 0) {
        indexable.push_back(method);
      }
    }

    auto check = [&](const ObjectBase& base, const Model& model) {
      ASSERT_EQ(base.fact_count(), model.size());
      // Versions: ascending, exactly the model's, each state exact.
      std::set<uint32_t> model_vids;
      for (const Fact& fact : model) model_vids.insert(std::get<0>(fact));
      std::vector<uint32_t> seen;
      for (const auto& [vid, state] : base.versions()) {
        seen.push_back(vid.value);
        EXPECT_EQ(state_facts(vid, state.get()), facts_of(model, vid.value));
      }
      EXPECT_EQ(seen, std::vector<uint32_t>(model_vids.begin(),
                                            model_vids.end()));
      EXPECT_EQ(base.version_count(), model_vids.size());
      for (int probe = 0; probe < 64; ++probe) {
        Vid vid = vids[rng() % vids.size()];
        EXPECT_EQ(base.StateOf(vid) == nullptr,
                  facts_of(model, vid.value).empty());
      }
      // Non-plain versions: ascending, exactly the model's.
      std::vector<uint32_t> non_plain;
      for (Vid vid : base.non_plain_versions()) non_plain.push_back(vid.value);
      std::vector<uint32_t> expected_non_plain;
      for (uint32_t vid : model_vids) {
        if (versions.depth(Vid(vid)) != 0) expected_non_plain.push_back(vid);
      }
      EXPECT_EQ(non_plain, expected_non_plain);
      // Plain versions holding only exists facts: the count that lets
      // BuildNewObjectBase skip its walk over exists-only objects.
      size_t exists_only = 0;
      for (uint32_t vid : model_vids) {
        if (versions.depth(Vid(vid)) != 0) continue;
        bool only = true;
        for (const Fact& fact : facts_of(model, vid)) {
          only = only && std::get<1>(fact) == exists.value;
        }
        if (only) ++exists_only;
      }
      EXPECT_EQ(base.exists_only_plain_count(), exists_only);
      // Method sets: ascending, exactly the versions carrying the method.
      for (MethodId method : methods) {
        std::set<uint32_t> carriers;
        for (const Fact& fact : model) {
          if (std::get<1>(fact) == method.value) {
            carriers.insert(std::get<0>(fact));
          }
        }
        const ObjectBase::VidSet* set = base.VidsWithMethod(method);
        if (carriers.empty()) {
          EXPECT_EQ(set, nullptr);
          continue;
        }
        ASSERT_NE(set, nullptr);
        EXPECT_EQ(set->size(), carriers.size());
        std::vector<uint32_t> members;
        for (Vid vid : *set) members.push_back(vid.value);
        EXPECT_EQ(members,
                  std::vector<uint32_t>(carriers.begin(), carriers.end()));
        for (int probe = 0; probe < 16; ++probe) {
          Vid vid = vids[rng() % vids.size()];
          EXPECT_EQ(set->Contains(vid), carriers.count(vid.value) == 1);
        }
      }
    };
    // Every indexed method's result index against the model: per result,
    // the versions holding a fact of the method with it, ascending and
    // once each, and no result the model lacks. Unindexed methods have
    // no index.
    auto check_index = [&](const ObjectBase& base, const Model& model,
                           const std::set<uint32_t>& on) {
      std::map<std::pair<uint32_t, uint32_t>, std::set<uint32_t>> want;
      for (const Fact& fact : model) {
        if (on.count(std::get<1>(fact)) == 0) continue;
        want[{std::get<1>(fact), std::get<3>(fact)}].insert(std::get<0>(fact));
      }
      for (MethodId method : methods) {
        const ObjectBase::VidsByResult* index = base.ResultIndexOf(method);
        if (on.count(method.value) == 0) {
          EXPECT_EQ(index, nullptr);
          continue;
        }
        ASSERT_NE(index, nullptr);
        std::map<std::pair<uint32_t, uint32_t>, std::set<uint32_t>> got;
        for (const auto& [result, vids] : *index) {
          std::vector<uint32_t> members;
          for (Vid vid : vids) members.push_back(vid.value);
          EXPECT_TRUE(std::is_sorted(members.begin(), members.end()));
          EXPECT_EQ(vids.size(), members.size());
          std::set<uint32_t>& listed = got[{method.value, result.value}];
          listed.insert(members.begin(), members.end());
          EXPECT_EQ(listed.size(), members.size());  // once each
        }
        auto first = want.lower_bound({method.value, 0});
        auto last = want.lower_bound({method.value + 1, 0});
        const decltype(want) expected(first, last);
        EXPECT_EQ(got, expected);
      }
    };
    // The same, for one version of one base: cheap enough to run on every
    // live base after every step, so a write leaking into another
    // copy's index shows at once.
    auto check_index_at = [&](const ObjectBase& base, const Model& model,
                              const std::set<uint32_t>& on, Vid vid) {
      const Model facts = facts_of(model, vid.value);
      std::vector<Oid> results = values;
      results.push_back(versions.root(vid));
      for (MethodId method : methods) {
        const ObjectBase::VidsByResult* index = base.ResultIndexOf(method);
        if (on.count(method.value) == 0) {
          EXPECT_EQ(index, nullptr);
          continue;
        }
        ASSERT_NE(index, nullptr);
        for (Oid result : results) {
          const bool holds =
              std::any_of(facts.begin(), facts.end(), [&](const Fact& f) {
                return std::get<1>(f) == method.value &&
                       std::get<3>(f) == result.value;
              });
          const ObjectBase::VidSet* vids = index->Find(result);
          EXPECT_EQ(vids != nullptr && vids->Contains(vid), holds);
          if (vids != nullptr) EXPECT_FALSE(vids->empty());
        }
      }
    };
    // ComputeDelta(a, b) is exactly the model's fact-set difference.
    auto check_delta = [&](const ObjectBase& a, const Model& ma,
                           const ObjectBase& b, const Model& mb) {
      FactDelta delta = ComputeDelta(a, b);
      Model added;
      Model removed;
      for (const DecodedFact& f : delta.added) {
        EXPECT_TRUE(added.insert(fact_of(f.vid, f.method, f.app)).second);
      }
      for (const DecodedFact& f : delta.removed) {
        EXPECT_TRUE(removed.insert(fact_of(f.vid, f.method, f.app)).second);
      }
      Model want_added;
      Model want_removed;
      std::set_difference(mb.begin(), mb.end(), ma.begin(), ma.end(),
                          std::inserter(want_added, want_added.end()));
      std::set_difference(ma.begin(), ma.end(), mb.begin(), mb.end(),
                          std::inserter(want_removed, want_removed.end()));
      EXPECT_EQ(added, want_added);
      EXPECT_EQ(removed, want_removed);
      EXPECT_EQ(a == b, ma == mb);
    };
    // Erases from a copy every fact `drop` selects: whole leaves and
    // whole method sets empty out, so pruning is exercised.
    auto erase_where = [&](const ObjectBase& base, const Model& model,
                           auto drop, ObjectBase* out, Model* out_model) {
      *out = base;
      *out_model = model;
      for (const Fact& fact : model) {
        if (!drop(fact)) continue;
        EXPECT_TRUE(out->Erase(Vid(std::get<0>(fact)),
                               MethodId(std::get<1>(fact)), app_of(fact)));
        out_model->erase(fact);
      }
    };
    auto check_all = [&]() {
      for (size_t i = 0; i < bases.size(); ++i) {
        check(bases[i], models[i]);
        check_index(bases[i], models[i], indexed[i]);
        // Copies that lose one method entirely, every version below 300,
        // or every version from 32 up (a one-leaf trie next to a
        // three-level one).
        const uint32_t gone = methods[rng() % methods.size()].value;
        ObjectBase thinned(exists, &versions);
        Model thinned_model;
        erase_where(
            bases[i], models[i],
            [&](const Fact& f) { return std::get<1>(f) == gone; }, &thinned,
            &thinned_model);
        check(thinned, thinned_model);
        check_index(thinned, thinned_model, indexed[i]);
        check_delta(bases[i], models[i], thinned, thinned_model);
        erase_where(
            bases[i], models[i],
            [](const Fact& f) { return std::get<0>(f) < 300; }, &thinned,
            &thinned_model);
        check(thinned, thinned_model);
        check_delta(thinned, thinned_model, bases[i], models[i]);
        erase_where(
            bases[i], models[i],
            [](const Fact& f) { return std::get<0>(f) >= 32; }, &thinned,
            &thinned_model);
        check(thinned, thinned_model);
        check_delta(bases[i], models[i], thinned, thinned_model);
        check_delta(thinned, thinned_model, bases[i], models[i]);
        // The same facts built fresh: a one-leaf trie against a
        // three-level one.
        ObjectBase low(exists, &versions);
        for (const Fact& fact : thinned_model) {
          low.Insert(Vid(std::get<0>(fact)), MethodId(std::get<1>(fact)),
                     app_of(fact));
        }
        check(low, thinned_model);
        check_delta(bases[i], models[i], low, thinned_model);
        check_delta(low, thinned_model, bases[i], models[i]);
        ObjectBase empty(exists, &versions);
        check_delta(empty, Model(), bases[i], models[i]);
        // A base rebuilt fact by fact shares no storage with it. Half of
        // its methods are indexed before the inserts, the rest after:
        // upkeep and the one-shot build must agree.
        ObjectBase rebuilt(exists, &versions);
        std::set<uint32_t> all_methods;
        for (size_t k = 0; k < methods.size(); k += 2) {
          rebuilt.IndexResults(methods[k]);
        }
        for (const Fact& fact : models[i]) {
          rebuilt.Insert(Vid(std::get<0>(fact)), MethodId(std::get<1>(fact)),
                         app_of(fact));
        }
        for (MethodId method : methods) {
          rebuilt.IndexResults(method);
          all_methods.insert(method.value);
        }
        check_index(rebuilt, models[i], all_methods);
        check_delta(bases[i], models[i], rebuilt, models[i]);
        check_delta(rebuilt, models[i], bases[0], models[0]);
        for (size_t j = 0; j < bases.size(); ++j) {
          check_delta(bases[i], models[i], bases[j], models[j]);
        }
        // SealExistence adds exactly the missing `o.exists -> o` facts
        // (argument-free, unlike the model's random ones).
        ObjectBase sealed = bases[i];
        sealed.SealExistence();
        size_t plain_without_exists = 0;
        for (const auto& [vid, state] : bases[i].versions()) {
          GroundApp sealed_exists;
          sealed_exists.result = versions.root(vid);
          if (versions.depth(vid) == 0 &&
              !state->Contains(exists, sealed_exists)) {
            ++plain_without_exists;
            EXPECT_TRUE(sealed.Contains(vid, exists, sealed_exists));
          }
        }
        EXPECT_EQ(sealed.fact_count(),
                  bases[i].fact_count() + plain_without_exists);
      }
    };

    for (int step = 0; step < 6000; ++step) {
      const size_t w = rng() % bases.size();
      ObjectBase& base = bases[w];
      Model& model = models[w];
      const Vid vid = vids[rng() % vids.size()];
      switch (rng() % 12) {
        case 0:
        case 1:
        case 2:
        case 3: {
          Fact fact = random_fact(vid);
          EXPECT_EQ(base.Insert(vid, MethodId(std::get<1>(fact)), app_of(fact)),
                    model.insert(fact).second);
          break;
        }
        case 4:
        case 5: {  // Erase a present fact (or miss on an empty model).
          Fact fact = random_fact(vid);
          if (!model.empty() && rng() % 4 != 0) {
            auto it = model.lower_bound(fact);
            if (it == model.end()) it = model.begin();
            fact = *it;
          }
          EXPECT_EQ(base.Erase(Vid(std::get<0>(fact)),
                               MethodId(std::get<1>(fact)), app_of(fact)),
                    model.erase(fact) == 1);
          break;
        }
        case 6: {  // Replace a version with an edited copy of its state.
          const VersionState* current = base.StateOf(vid);
          VersionState next = current == nullptr ? VersionState() : *current;
          Model next_facts = facts_of(model, vid.value);
          for (int k = 0; k < 3; ++k) {
            Fact fact = random_fact(vid);
            if (rng() % 3 == 0) {
              next.Erase(MethodId(std::get<1>(fact)), app_of(fact));
              next_facts.erase(fact);
            } else {
              next.Insert(MethodId(std::get<1>(fact)), app_of(fact));
              next_facts.insert(fact);
            }
          }
          DeltaLog diff;
          base.ReplaceVersion(vid, std::move(next), &diff);
          for (const Fact& fact : facts_of(model, vid.value)) {
            model.erase(fact);
          }
          model.insert(next_facts.begin(), next_facts.end());
          break;
        }
        case 7: {  // Adopt a live base's state of o or mod(o) (or none).
          // Facts never mention their VID, but exists facts name the
          // root: adopt only between versions of one object.
          const size_t from = rng() % bases.size();
          auto pair = sibling.find(vid.value);
          const Vid source =
              pair != sibling.end() && rng() % 2 == 0 ? pair->second : vid;
          std::shared_ptr<const VersionState> state =
              rng() % 5 == 0 ? nullptr : bases[from].SharedStateOf(source);
          Model adopted;
          if (state != nullptr) {
            for (const Fact& fact : facts_of(models[from], source.value)) {
              adopted.insert(Fact{vid.value, std::get<1>(fact),
                                  std::get<2>(fact), std::get<3>(fact)});
            }
          }
          base.AdoptVersion(vid, std::move(state));
          for (const Fact& fact : facts_of(model, vid.value)) {
            model.erase(fact);
          }
          model.insert(adopted.begin(), adopted.end());
          break;
        }
        case 8:
        case 9: {  // Copy: later writes on either side must not leak.
          if (bases.size() < 5) {
            bases.push_back(base);
            models.push_back(model);
            indexed.push_back(indexed[w]);
          }
          break;
        }
        case 10: {  // Destroy a base (never the last one).
          if (bases.size() > 1) {
            bases.erase(bases.begin() + static_cast<long>(w));
            models.erase(models.begin() + static_cast<long>(w));
            indexed.erase(indexed.begin() + static_cast<long>(w));
          }
          break;
        }
        case 11: {  // Assign over a base: drops its old nodes.
          const size_t from = rng() % bases.size();
          bases[w] = bases[from];
          models[w] = models[from];
          indexed[w] = indexed[from];
          break;
        }
      }
      // Now and then a random live base indexes a random method; the
      // other live bases that lack it must go on reporting no index.
      if (index_rng() % 400 == 0) {
        const size_t b = index_rng() % bases.size();
        const MethodId method = indexable[index_rng() % indexable.size()];
        bases[b].IndexResults(method);
        if (indexed[b].insert(method.value).second) {
          for (size_t i = 0; i < bases.size(); ++i) {
            if (indexed[i].count(method.value) == 0) ++copies_left_unindexed;
          }
        }
      }
      const size_t written = std::min(w, bases.size() - 1);
      check_index(bases[written], models[written], indexed[written]);
      for (size_t i = 0; i < bases.size(); ++i) {
        check_index_at(bases[i], models[i], indexed[i], vid);
      }
      if (step % 1000 == 999) {
        check_all();
        if (::testing::Test::HasFailure()) return;
      }
    }
    check_all();
    EXPECT_GE(models[0].size() + models.back().size(), 1000u);
    // Indexing met live copies that had to stay unindexed.
    EXPECT_GT(copies_left_unindexed, 0u);
  }
}

// A program whose bodies never match leaves ob' == sealed input.
TEST(PropertyTest, NoOpProgramIsIdentity) {
  Engine engine;
  ObjectBase base = engine.MakeBase();
  EnterpriseOptions options;
  options.employees = 32;
  MakeEnterprise(options, engine, base);
  Result<Program> program = ParseProgram(
      "r: ins[E].tag -> t <- E.isa -> unicorn.", engine);
  ASSERT_TRUE(program.ok());
  Result<RunOutcome> outcome = engine.Run(*program, base);
  ASSERT_TRUE(outcome.ok());
  ObjectBase sealed = base;
  sealed.SealExistence();
  EXPECT_TRUE(outcome->new_base == sealed);
  EXPECT_EQ(outcome->stats.versions_materialized, 0u);
}

// Determinism: two runs over the same seed produce identical canonical
// prints (set semantics, no iteration-order leakage).
TEST(PropertyTest, RunsAreDeterministic) {
  std::string first;
  for (int run = 0; run < 2; ++run) {
    Engine engine;
    ObjectBase base = engine.MakeBase();
    EnterpriseOptions options;
    options.employees = 48;
    options.seed = 77;
    MakeEnterprise(options, engine, base);
    Result<Program> program = ParseProgram(kEnterpriseProgramText, engine);
    ASSERT_TRUE(program.ok());
    Result<RunOutcome> outcome = engine.Run(*program, base);
    ASSERT_TRUE(outcome.ok());
    std::string printed = ObjectBaseToString(
        outcome->new_base, engine.symbols(), engine.versions());
    if (run == 0) {
      first = printed;
    } else {
      EXPECT_EQ(printed, first);
    }
  }
}

// The guarded modular baseline (manual control) agrees with verso on the
// committed result for the running example, across seeds.
TEST(PropertyTest, GuardedModularBaselineAgreesWithVerso) {
  for (uint64_t seed : {21ull, 22ull, 23ull}) {
    Engine engine;
    ObjectBase base = engine.MakeBase();
    EnterpriseOptions options;
    options.employees = 40;
    options.seed = seed;
    MakeEnterprise(options, engine, base);

    Result<Program> program = ParseProgram(kEnterpriseProgramText, engine);
    ASSERT_TRUE(program.ok());
    Result<RunOutcome> verso_out = engine.Run(*program, base);
    ASSERT_TRUE(verso_out.ok());

    std::vector<Program> modules;
    auto add = [&](const char* text) {
      Result<Program> m = ParseProgram(text, engine);
      ASSERT_TRUE(m.ok());
      modules.push_back(std::move(m).value());
    };
    add("m1a: mod[E].sal -> (S, S2) <- E.isa -> empl / pos -> mgr / sal -> S,"
        " not E.raised -> yes, S2 = S * 1.1 + 200."
        "m1b: mod[E].sal -> (S, S2) <- E.isa -> empl / sal -> S,"
        " not E.pos -> mgr, not E.raised -> yes, S2 = S * 1.1."
        "m1c: ins[E].raised -> yes <- E.isa -> empl.");
    add("m2: del[E].* <- E.isa -> empl / boss -> B / sal -> SE,"
        " B.isa -> empl / sal -> SB, SE > SB.");
    add("m3: ins[E].isa -> hpe <- E.isa -> empl / sal -> S, S > 4500.");
    Result<InPlaceOutcome> modular = RunModularUpdate(
        modules, base, engine.symbols(), engine.versions());
    ASSERT_TRUE(modular.ok());
    ASSERT_FALSE(modular->diverged);

    // Compare survivor salaries and hpe membership (the baseline keeps
    // husk objects and `raised` tags, so compare method-by-method).
    MethodId sal = engine.symbols().Method("sal");
    MethodId isa = engine.symbols().Method("isa");
    for (const auto& [vid, state] : verso_out->new_base.versions()) {
      VersionState::Run vs = state->Find(sal);
      if (vs.empty()) continue;
      const VersionState* ms = modular->base.StateOf(vid);
      ASSERT_NE(ms, nullptr);
      EXPECT_EQ(std::vector<GroundApp>(ms->Find(sal).begin(),
                                       ms->Find(sal).end()),
                std::vector<GroundApp>(vs.begin(), vs.end()));
      GroundApp hpe;
      hpe.result = engine.symbols().Symbol("hpe");
      EXPECT_EQ(ms->Contains(isa, hpe), state->Contains(isa, hpe));
    }
  }
}

}  // namespace
}  // namespace verso
