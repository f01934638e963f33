// Differential tests for the delta-driven fixpoint: semi-naive and naive
// evaluation must be observationally identical — same result(P), same
// committed object base, same cumulative T¹ and round counts — across
// every paper example and randomized generated workloads. On multi-round
// fixpoints the delta path must also do strictly less matching work,
// which is the whole point of seeding from deltas.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>

#include "core/engine.h"
#include "core/pretty.h"
#include "parser/parser.h"
#include "storage/database.h"
#include "util/fault_env.h"
#include "workloads/workloads.h"

namespace verso {
namespace {

struct ModeOutcome {
  std::string result_text;    // canonical print of result(P)
  std::string new_base_text;  // canonical print of the committed base
  EvalStats stats;
};

using BaseFiller = std::function<void(Engine&, ObjectBase&)>;

ModeOutcome RunMode(const BaseFiller& fill, const std::string& program_text,
                    bool semi_naive) {
  Engine engine;
  ObjectBase base = engine.MakeBase();
  fill(engine, base);
  Result<Program> program = ParseProgram(program_text, engine);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  EvalOptions options;
  options.semi_naive = semi_naive;
  Result<RunOutcome> outcome = engine.Run(*program, base, options);
  EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
  ModeOutcome mode;
  mode.result_text =
      ObjectBaseToString(outcome->result, engine.symbols(), engine.versions());
  mode.new_base_text = ObjectBaseToString(outcome->new_base, engine.symbols(),
                                          engine.versions());
  mode.stats = std::move(outcome->stats);
  return mode;
}

BaseFiller Parsed(const char* base_text) {
  return [base_text](Engine& engine, ObjectBase& base) {
    Status s = ParseObjectBaseInto(base_text, engine.symbols(),
                                   engine.versions(), base);
    ASSERT_TRUE(s.ok()) << s.ToString();
  };
}

/// Runs both modes and asserts observational equality; returns the pair
/// for additional per-test assertions.
std::pair<ModeOutcome, ModeOutcome> Differential(
    const BaseFiller& fill, const std::string& program_text) {
  ModeOutcome semi = RunMode(fill, program_text, /*semi_naive=*/true);
  ModeOutcome naive = RunMode(fill, program_text, /*semi_naive=*/false);
  EXPECT_EQ(semi.result_text, naive.result_text);
  EXPECT_EQ(semi.new_base_text, naive.new_base_text);
  EXPECT_EQ(semi.stats.total_t1_updates(), naive.stats.total_t1_updates());
  EXPECT_EQ(semi.stats.total_rounds(), naive.stats.total_rounds());
  EXPECT_EQ(semi.stats.strata.size(), naive.stats.strata.size());
  for (size_t i = 0;
       i < std::min(semi.stats.strata.size(), naive.stats.strata.size());
       ++i) {
    EXPECT_EQ(semi.stats.strata[i].t1_updates,
              naive.stats.strata[i].t1_updates)
        << "stratum " << i;
    EXPECT_EQ(semi.stats.strata[i].rounds, naive.stats.strata[i].rounds)
        << "stratum " << i;
  }
  return {std::move(semi), std::move(naive)};
}

TEST(SemiNaiveDifferential, SalaryRaise) {
  Differential(Parsed("henry.isa -> empl.  henry.salary -> 250."),
               "mod[E].salary -> (S, S2) <- E.isa -> empl, E.salary -> S, "
               "S2 = S * 1.1.");
}

// The full Section 2.3 enterprise program: modifies, a delete-all head,
// and negation — every rule is residual, so this exercises the
// method-relevance gating rather than the seeding.
TEST(SemiNaiveDifferential, EnterpriseProgram) {
  Differential(Parsed("phil.isa -> empl.  phil.pos -> mgr.   "
                      "phil.sal -> 4000.  bob.isa -> empl.   "
                      "bob.boss -> phil.  bob.sal -> 4200."),
               kEnterpriseProgramText);
}

// Example 2: nested hypothetical versions (mod(mod(e))) and negation.
TEST(SemiNaiveDifferential, HypotheticalRaise) {
  Differential(Parsed("peter.isa -> empl.  peter.sal -> 100.  "
                      "peter.factor -> 3.  anna.isa -> empl.   "
                      "anna.sal -> 200.   anna.factor -> 1."),
               HypotheticalProgramText("peter"));
}

// Example 3: the recursive set-valued `anc` closure — insert-only rules,
// the seeded fast path.
TEST(SemiNaiveDifferential, RecursiveAncestors) {
  Differential(Parsed("p1.isa -> person.  p1.parents -> p2.  "
                      "p1.parents -> p3.  p2.isa -> person.  "
                      "p2.parents -> p4.  p3.isa -> person.  "
                      "p4.isa -> person.  p4.parents -> p5.  "
                      "p5.isa -> person."),
               kAncestorsProgramText);
}

// A deep chain drives a long fixpoint (one round per hop): the delta path
// must re-derive strictly fewer matches than the naive full re-match —
// the headline property of semi-naive evaluation.
TEST(SemiNaiveDifferential, DeepChainDoesStrictlyLessMatching) {
  constexpr int kChain = 24;
  BaseFiller fill = [](Engine& engine, ObjectBase& base) {
    for (int i = 0; i < kChain; ++i) {
      std::string name = "n" + std::to_string(i);
      if (i + 1 < kChain) {
        engine.AddFact(base, name, "next",
                       engine.symbols().Symbol("n" + std::to_string(i + 1)));
      } else {
        engine.AddFact(base, name, "last", engine.symbols().Symbol("yes"));
      }
    }
  };
  auto [semi, naive] = Differential(
      fill,
      "r1: ins[X].reach -> Y <- X.next -> Y."
      "r2: ins[X].reach -> Z <- ins(X).reach -> Y, Y.next -> Z.");
  EXPECT_GT(semi.stats.total_rounds(), 10u);  // genuinely multi-round
  EXPECT_LT(semi.stats.total_body_matches(), naive.stats.total_body_matches());
  // Round 0 matched in full; afterwards only delta-seeded probes ran.
  EXPECT_GT(semi.stats.strata[0].seed_probes, 0u);
  EXPECT_EQ(semi.stats.strata[0].residual_rule_runs, 0u);
}

// Chained modifies across a version chain force the residual path through
// several strata; both modes must still agree exactly.
TEST(SemiNaiveDifferential, ChainedModifies) {
  Differential(Parsed("o.val -> 1."),
               "r1: mod[o].val -> (V, V2) <- o.val -> V, V2 = V + 1."
               "r2: mod[mod(o)].val -> (V, V2) <- mod(o).val -> V, "
               "V2 = V * 10.");
}

// Randomized genealogies: the recursive program over several seeds.
TEST(SemiNaiveDifferential, RandomGenealogies) {
  for (uint64_t seed : {1u, 7u, 13u, 42u}) {
    BaseFiller fill = [seed](Engine& engine, ObjectBase& base) {
      GenealogyOptions options;
      options.persons = 48;
      options.max_parents = 2;
      options.seed = seed;
      MakeGenealogy(options, engine, base);
    };
    Differential(fill, kAncestorsProgramText);
  }
}

// The persistence differential: committing the same program through a
// persistent Database — and recovering it cold after a checkpoint — must
// yield a base bit-identical to the bare engine run. The third leg of the
// semi-naive/naive/persisted triangle.
TEST(SemiNaiveDifferential, PersistedCommitIsBitIdenticalToTheEngineRun) {
  struct Case {
    const char* name;
    const char* base;
    std::string program;
  };
  const Case cases[] = {
      {"enterprise",
       "phil.isa -> empl.  phil.pos -> mgr.   phil.sal -> 4000.  "
       "bob.isa -> empl.   bob.boss -> phil.  bob.sal -> 4200.",
       kEnterpriseProgramText},
      {"hypothetical",
       "peter.isa -> empl.  peter.sal -> 100.  peter.factor -> 3.  "
       "anna.isa -> empl.   anna.sal -> 200.   anna.factor -> 1.",
       HypotheticalProgramText("peter")},
      {"ancestors",
       "p1.isa -> person.  p1.parents -> p2.  p1.parents -> p3.  "
       "p2.isa -> person.  p2.parents -> p4.  p3.isa -> person.  "
       "p4.isa -> person.  p4.parents -> p5.  p5.isa -> person.",
       kAncestorsProgramText},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    ModeOutcome reference =
        RunMode(Parsed(c.base), c.program, /*semi_naive=*/true);
    FaultInjectingEnv env;
    DatabaseOptions options;
    options.env = &env;
    options.retry_backoff_us = 0;
    {
      Engine engine;
      Result<std::unique_ptr<Database>> db =
          Database::Open("/db", engine, options);
      ASSERT_TRUE(db.ok()) << db.status().ToString();
      Result<ObjectBase> base = ParseObjectBase(c.base, engine);
      ASSERT_TRUE(base.ok());
      ASSERT_TRUE((*db)->ImportBase(*base).ok());
      Result<Program> program = ParseProgram(c.program, engine);
      ASSERT_TRUE(program.ok()) << program.status().ToString();
      Result<RunOutcome> out = (*db)->Execute(*program);
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      EXPECT_EQ(ObjectBaseToString((*db)->current(), engine.symbols(),
                                   engine.versions()),
                reference.new_base_text);
      ASSERT_TRUE((*db)->Checkpoint().ok());
    }
    // Cold recovery from the checkpointed store alone (no WAL left).
    Engine engine;
    Result<std::unique_ptr<Database>> db =
        Database::Open("/db", engine, options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_EQ((*db)->wal_records_since_checkpoint(), 0u);
    EXPECT_EQ(ObjectBaseToString((*db)->current(), engine.symbols(),
                                 engine.versions()),
              reference.new_base_text);
  }
}

// Randomized enterprises: the four-rule paper program over several seeds
// (deletes, modifies, negation, multiple strata).
TEST(SemiNaiveDifferential, RandomEnterprises) {
  for (uint64_t seed : {3u, 11u, 42u}) {
    BaseFiller fill = [seed](Engine& engine, ObjectBase& base) {
      EnterpriseOptions options;
      options.employees = 64;
      options.manager_every = 8;
      options.seed = seed;
      MakeEnterprise(options, engine, base);
    };
    Differential(fill, kEnterpriseProgramText);
  }
}

}  // namespace
}  // namespace verso
