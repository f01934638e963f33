// Randomized differential test of incremental view maintenance: after
// EVERY committed transaction in a generated update sequence, each
// maintained view must be bit-identical to a from-scratch EvaluateQueries
// over the current committed base. Exercises insert-, delete-, and
// mod-heavy mixes over the enterprise and graph workloads, through
// non-recursive (incl. negation) and recursive strata, all maintained by
// DRed.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "parser/parser.h"
#include "query/query.h"
#include "storage/database.h"
#include "views/catalog.h"
#include "workloads/workloads.h"

namespace verso {
namespace {

struct Mix {
  const char* name;
  int insert_weight;
  int delete_weight;
  int modify_weight;
};

class ViewsDiffTest : public ::testing::Test {
 protected:
  ViewsDiffTest() {
    dir_ = ::testing::TempDir() + "/verso_views_diff_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }

  std::unique_ptr<Database> OpenDb() {
    Result<std::unique_ptr<Database>> db = Database::Open(dir_, engine_);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    return std::move(db).value();
  }

  /// Deterministic sorted snapshot of (object, result) pairs carrying
  /// `method` at depth 0 — the sample space for delete/modify txns.
  std::vector<std::pair<std::string, std::string>> FactsOf(
      const ObjectBase& base, const char* method) {
    std::vector<std::pair<std::string, std::string>> facts;
    MethodId m = engine_.symbols().Method(method);
    const auto* vids = base.VidsWithMethod(m);
    if (vids == nullptr) return facts;
    for (Vid vid : *vids) {
      if (engine_.versions().depth(vid) != 0) continue;
      for (const GroundApp& app : base.StateOf(vid)->Find(m)) {
        facts.emplace_back(
            engine_.symbols().OidToString(engine_.versions().root(vid)),
            engine_.symbols().OidToString(app.result));
      }
    }
    std::sort(facts.begin(), facts.end());
    return facts;
  }

  void RunSequence(Database& db, ViewCatalog& catalog,
                   const std::vector<const char*>& view_rules,
                   const Mix& mix, size_t txns, uint64_t seed,
                   const std::vector<std::string>& objects,
                   const char* link_method, bool numeric_method) {
    Rng rng(seed);
    int total = mix.insert_weight + mix.delete_weight + mix.modify_weight;
    for (size_t t = 0; t < txns; ++t) {
      std::string text = MakeTxn(db.current(), rng,
                                 static_cast<int>(rng.Below(
                                     static_cast<uint64_t>(total))),
                                 mix, objects, link_method, numeric_method);
      Result<Program> program = ParseProgram(text, engine_);
      ASSERT_TRUE(program.ok())
          << program.status().ToString() << "\n" << text;
      Result<RunOutcome> out = db.Execute(*program);
      ASSERT_TRUE(out.ok()) << out.status().ToString() << "\n" << text;

      // Differential check: every view equals a fresh evaluation.
      for (size_t v = 0; v < view_rules.size(); ++v) {
        Result<QueryProgram> fresh_program =
            ParseQueryProgram(view_rules[v], engine_.symbols());
        ASSERT_TRUE(fresh_program.ok());
        Result<ObjectBase> fresh =
            EvaluateQueries(*fresh_program, db.current(), engine_);
        ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
        const MaterializedView* view =
            catalog.Find("v" + std::to_string(v));
        ASSERT_NE(view, nullptr);
        ASSERT_TRUE(view->result() == *fresh)
            << mix.name << ": view v" << v << " diverged after txn " << t
            << " (" << text << ")";
      }
    }
  }

  /// One single-update transaction: insert a random link/value, delete a
  /// random existing fact, or modify a random existing fact.
  std::string MakeTxn(const ObjectBase& base, Rng& rng, int pick,
                      const Mix& mix, const std::vector<std::string>& objects,
                      const char* link_method, bool numeric_method) {
    const std::string& subject =
        objects[rng.Below(objects.size())];
    auto existing = FactsOf(base, link_method);
    std::string value =
        numeric_method ? std::to_string(100 + rng.Below(9000))
                       : objects[rng.Below(objects.size())];
    if (pick < mix.insert_weight || existing.empty()) {
      return "t: ins[" + subject + "]." + link_method + " -> " + value + ".";
    }
    const auto& victim = existing[rng.Below(existing.size())];
    if (pick < mix.insert_weight + mix.delete_weight) {
      return "t: del[" + victim.first + "]." + link_method + " -> " +
             victim.second + ".";
    }
    return "t: mod[" + victim.first + "]." + link_method + " -> (" +
           victim.second + ", " + value + ").";
  }

  Engine engine_;
  std::string dir_;
};

// Graph workload: recursive closure + a non-recursive stratum with
// negation layered on top of the recursive one.
TEST_F(ViewsDiffTest, GraphMixes) {
  const std::vector<const char*> kViews = {
      // v0: recursive reachability.
      "q1: derive X.reaches -> Y <- X.edge -> Y."
      "q2: derive X.reaches -> Z <- X.reaches -> Y, Y.edge -> Z.",
      // v1: direct links that are NOT on a cycle back to themselves.
      "q1: derive X.linked -> Y <- X.edge -> Y."
      "q2: derive X.linked -> Z <- X.linked -> Y, Y.edge -> Z."
      "q3: derive X.acyclic -> yes <- X.edge -> Y, not X.linked -> X.",
      // v2: NONLINEAR closure — a body joining two recursive literals
      // exercises DRed derivations through multiple overdeleted facts.
      "q1: derive X.path -> Y <- X.edge -> Y."
      "q2: derive X.path -> Z <- X.path -> Y, Y.path -> Z.",
      // v3: a changed edge matches both body literals of this rule (a
      // 2-cycle through it), so one derivation is met at two occurrences.
      "q: derive X.mutual -> Y <- X.edge -> Y, Y.edge -> X.",
  };
  const std::vector<Mix> kMixes = {
      {"insert-heavy", 6, 1, 1},
      {"delete-heavy", 1, 6, 1},
      {"mod-heavy", 1, 1, 6},
  };

  size_t nodes = 16;
  std::vector<std::string> objects;
  for (size_t i = 0; i < nodes; ++i) {
    objects.push_back("n" + std::to_string(i));
  }

  uint64_t seed = 0;
  for (const Mix& mix : kMixes) {
    SCOPED_TRACE(mix.name);
    std::filesystem::remove_all(dir_);
    std::unique_ptr<Database> db = OpenDb();
    ObjectBase base = engine_.MakeBase();
    MakeGraph(nodes, /*edges=*/24, /*seed=*/7 + seed, engine_, base);
    ASSERT_TRUE(db->ImportBase(base).ok());

    ViewCatalog catalog(engine_);
    for (size_t v = 0; v < kViews.size(); ++v) {
      ASSERT_TRUE(catalog
                      .RegisterText("v" + std::to_string(v), kViews[v],
                                    db->current())
                      .ok());
    }
    catalog.Attach(*db);
    RunSequence(*db, catalog, kViews, mix, /*txns=*/40, 1000 + seed,
                objects, "edge", /*numeric_method=*/false);
    ++seed;
  }
}

// Generated programs: random stratified rules over binary derived methods,
// mixing recursion, negation of lower strata and repeated reads of the
// changed method, so DRed meets stratum shapes no hand-written view has.
TEST_F(ViewsDiffTest, GeneratedPrograms) {
  const Mix kMix = {"mixed", 2, 1, 1};
  const size_t kNodes = 8;
  std::vector<std::string> objects;
  for (size_t i = 0; i < kNodes; ++i) {
    objects.push_back("n" + std::to_string(i));
  }
  Rng rng(77);
  auto derived = [&] { return "d" + std::to_string(rng.Below(4)); };
  auto random_program = [&] {
    std::string text;
    const uint64_t rules = 2 + rng.Below(4);
    for (uint64_t r = 0; r < rules; ++r) {
      text += "r" + std::to_string(r) + ": derive X." + derived() +
              " -> Y <- X.edge -> Y";
      const uint64_t literals = rng.Below(3);
      for (uint64_t i = 0; i < literals; ++i) {
        switch (rng.Below(4)) {
          case 0: text += ", Y.edge -> X"; break;
          case 1: text += ", Y.edge -> Z"; break;
          case 2: text += ", X." + derived() + " -> Y"; break;
          default: text += ", not Y." + derived() + " -> X"; break;
        }
      }
      text += ".";
    }
    return text;
  };

  for (uint64_t round = 0; round < 6; ++round) {
    // Keep the first four stratifiable programs the generator yields.
    std::vector<std::string> programs;
    while (programs.size() < 4) {
      std::string text = random_program();
      Result<QueryProgram> program =
          ParseQueryProgram(text, engine_.symbols());
      ASSERT_TRUE(program.ok()) << program.status().ToString() << "\n"
                                << text;
      if (AnalyzeQueryProgram(*program, engine_.symbols()).ok()) {
        programs.push_back(std::move(text));
      }
    }
    std::vector<const char*> views;
    for (const std::string& text : programs) views.push_back(text.c_str());

    SCOPED_TRACE("round " + std::to_string(round));
    std::filesystem::remove_all(dir_);
    std::unique_ptr<Database> db = OpenDb();
    ObjectBase base = engine_.MakeBase();
    MakeGraph(kNodes, /*edges=*/14, /*seed=*/500 + round, engine_, base);
    ASSERT_TRUE(db->ImportBase(base).ok());
    ViewCatalog catalog(engine_);
    for (size_t v = 0; v < views.size(); ++v) {
      ASSERT_TRUE(catalog
                      .RegisterText("v" + std::to_string(v), views[v],
                                    db->current())
                      .ok())
          << views[v];
    }
    catalog.Attach(*db);
    RunSequence(*db, catalog, views, kMix, /*txns=*/30, 4000 + round,
                objects, "edge", /*numeric_method=*/false);
  }
}

// Enterprise workload: non-recursive strata over salaries (built-ins) and
// the boss forest (recursive chain-of-command + negation).
TEST_F(ViewsDiffTest, EnterpriseMixes) {
  const std::vector<const char*> kViews = {
      // v0: who earns above the bar (built-in comparisons).
      "q: derive X.rich -> yes <- X.sal -> S, S > 5000.",
      // v1: recursive chain of command.
      "q1: derive X.chain -> Y <- X.boss -> Y."
      "q2: derive X.chain -> Z <- X.chain -> Y, Y.boss -> Z.",
      // v2: employees with no boss at all (negation over a lower derived
      // stratum — two non-recursive strata rippling).
      "q1: derive X.hasboss -> yes <- X.boss -> B."
      "q2: derive X.root -> yes <- X.isa -> empl, not X.hasboss -> yes.",
  };
  const std::vector<Mix> kMixes = {
      {"insert-heavy", 6, 1, 1},
      {"delete-heavy", 1, 6, 1},
      {"mod-heavy", 1, 1, 6},
  };

  EnterpriseOptions options;
  options.employees = 24;
  std::vector<std::string> objects;
  for (size_t i = 0; i < options.employees; ++i) {
    objects.push_back("emp" + std::to_string(i));
  }

  uint64_t seed = 0;
  for (const Mix& mix : kMixes) {
    SCOPED_TRACE(mix.name);
    std::filesystem::remove_all(dir_);
    std::unique_ptr<Database> db = OpenDb();
    ObjectBase base = engine_.MakeBase();
    options.seed = 42 + seed;
    MakeEnterprise(options, engine_, base);
    ASSERT_TRUE(db->ImportBase(base).ok());

    ViewCatalog catalog(engine_);
    for (size_t v = 0; v < kViews.size(); ++v) {
      ASSERT_TRUE(catalog
                      .RegisterText("v" + std::to_string(v), kViews[v],
                                    db->current())
                      .ok());
    }
    catalog.Attach(*db);
    // Alternate between the salary column and the boss forest.
    RunSequence(*db, catalog, kViews, mix, /*txns=*/20, 2000 + seed,
                objects, "sal", /*numeric_method=*/true);
    RunSequence(*db, catalog, kViews, mix, /*txns=*/20, 3000 + seed,
                objects, "boss", /*numeric_method=*/false);
    ++seed;
  }
}

}  // namespace
}  // namespace verso
