// The commit path builds ob' on its input and records the delta as it
// goes (BuildNewObjectBaseOn, inside Engine::Run), then installs that very
// base. Its references: BuildNewObjectBase over result(P) for the base,
// and ComputeDelta(input, ob') for the delta, diffed on generated bases —
// unsealed as an import leaves them, with exists-only objects and
// versioned facts — under generated update-programs and the paper's.

#include <gtest/gtest.h>

#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "core/engine.h"
#include "parser/parser.h"
#include "storage/codec.h"
#include "storage/database.h"
#include "util/fault_env.h"
#include "workloads/workloads.h"

namespace verso {
namespace {

/// What the generated cases reached; each must be hit at least once.
struct Coverage {
  size_t runs = 0;
  size_t failed_runs = 0;
  size_t unsealed_inputs = 0;
  size_t exists_only_inputs = 0;
  size_t versioned_inputs = 0;
  size_t removals = 0;
  size_t vanished_objects = 0;
};

/// ob' must equal BuildNewObjectBase(result(P)) by value, and the delta
/// recorded while building it must equal ComputeDelta(input, that base)
/// element by element, in order.
void ExpectBuildMatchesReference(Engine& engine, const ObjectBase& input,
                                 const RunOutcome& outcome,
                                 Coverage* coverage = nullptr) {
  Result<ObjectBase> reference = BuildNewObjectBase(
      outcome.result, engine.symbols(), engine.versions());
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  EXPECT_TRUE(outcome.new_base == *reference);
  const DeltaLog expected = ToDeltaLog(ComputeDelta(input, *reference));
  ASSERT_EQ(outcome.committed_delta.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    const DeltaFact& got = outcome.committed_delta[i];
    const DeltaFact& want = expected[i];
    EXPECT_EQ(got.vid, want.vid) << "delta fact " << i;
    EXPECT_EQ(got.method, want.method) << "delta fact " << i;
    EXPECT_TRUE(got.app == want.app) << "delta fact " << i;
    EXPECT_EQ(got.added, want.added) << "delta fact " << i;
  }
  if (coverage == nullptr) return;
  for (const DeltaFact& fact : expected) coverage->removals += !fact.added;
  for (const auto& [vid, state] : input.versions()) {
    if (engine.versions().depth(vid) == 0 &&
        reference->StateOf(vid) == nullptr) {
      ++coverage->vanished_objects;
    }
  }
}

/// Every version of `a` holds the very state handle `b` holds, and the
/// other way round.
void ExpectSharesEveryState(const ObjectBase& a, const ObjectBase& b) {
  EXPECT_EQ(a.version_count(), b.version_count());
  for (const auto& [vid, state] : a.versions()) {
    EXPECT_EQ(state.get(), b.StateOf(vid)) << "version " << vid.value;
  }
}

/// Random facts over objects o0..o{n-1} and methods m0..m2 with small
/// integer values, some with an argument, none with its exists fact (as
/// an import leaves a base); with `extras`, also objects holding only
/// exists facts (their own, or another object's) and a versioned fact,
/// which an import may carry too.
std::string RandomFacts(std::mt19937_64& rng, const std::string& prefix,
                        size_t objects, bool extras) {
  std::string text;
  for (size_t o = 0; o < objects; ++o) {
    const std::string name = prefix + std::to_string(o);
    const size_t facts = 1 + rng() % 3;
    for (size_t f = 0; f < facts; ++f) {
      const size_t method = rng() % 3;
      text += name + ".m" + std::to_string(method);
      if (method == 2) text += "@" + std::to_string(rng() % 2);
      text += " -> " + std::to_string(rng() % 3) + ". ";
    }
    if (rng() % 2 == 0) text += name + ".exists -> " + name + ". ";
  }
  if (extras) {
    text += prefix + "g0.exists -> " + prefix + "g0. ";
    text += prefix + "g1.exists -> " + prefix + "0. ";
    text += "ins(" + prefix + "1).m1 -> 2. ";
  }
  return text;
}

/// A random update-program from templates over m0..m2: inserts, deletes,
/// modifies, delete-all heads, negation, a second stage on a modified
/// version, an insert creating an object. Some combinations break
/// version linearity or stratification; the caller skips those runs.
std::string RandomProgram(std::mt19937_64& rng) {
  auto method = [&rng]() { return "m" + std::to_string(rng() % 2); };
  auto value = [&rng]() { return std::to_string(rng() % 3); };
  std::string text;
  const size_t rules = 1 + rng() % 2;
  for (size_t r = 0; r < rules; ++r) {
    const std::string label = "r" + std::to_string(r) + ": ";
    const std::string m = method();
    const std::string n = m == "m0" ? "m1" : "m0";
    switch (rng() % 7) {
      case 0:
        text += label + "ins[X]." + m + " -> " + value() + " <- X." + n +
                " -> " + value() + ". ";
        break;
      case 1:
        text += label + "del[X]." + m + " -> V <- X." + m + " -> V, X." + n +
                " -> " + value() + ". ";
        break;
      case 2:
        text += label + "mod[X]." + m + " -> (V, V2) <- X." + m +
                " -> V, V2 = V + 1. ";
        break;
      case 3:
        text += label + "del[X].* <- X." + m + " -> " + value() + ". ";
        break;
      case 4:
        text += label + "ins[X]." + m + " -> 9 <- X." + n +
                " -> V, not X." + m + " -> V. ";
        break;
      case 5:
        text += label + "mod[X]." + m + " -> (V, V2) <- X." + m +
                " -> V, V2 = V * 2. s" + std::to_string(r) + ": ins[mod(X)]." +
                n + " -> 1 <- mod(X)." + m + " -> V2. ";
        break;
      default:
        text += label + "ins[new" + value() + "]." + m + " -> 1. ";
        break;
    }
  }
  return text;
}

// Generated histories: each step runs a random program on the previous
// step's ob' (sealed, as a commit leaves it), and now and then on a base
// with freshly imported facts (unsealed, exists-only, versioned).
TEST(CommitBuildOracle, GeneratedProgramsMatchTheReference) {
  Coverage coverage;
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    Engine engine;
    ObjectBase input = engine.MakeBase();
    ASSERT_TRUE(ParseObjectBaseInto(RandomFacts(rng, "o", 12, true),
                                    engine.symbols(), engine.versions(),
                                    input)
                    .ok());
    for (int step = 0; step < 24; ++step) {
      if (step % 6 == 5) {
        const std::string facts =
            RandomFacts(rng, "i" + std::to_string(step) + "_", 4, true);
        ASSERT_TRUE(ParseObjectBaseInto(facts, engine.symbols(),
                                        engine.versions(), input)
                        .ok());
      }
      const std::string text = RandomProgram(rng);
      SCOPED_TRACE(text);
      Result<Program> program = ParseProgram(text, engine);
      ASSERT_TRUE(program.ok()) << program.status().ToString();
      Result<RunOutcome> outcome = engine.Run(*program, input);
      if (!outcome.ok()) {
        ++coverage.failed_runs;
        continue;
      }
      ++coverage.runs;
      ObjectBase sealed = input;
      coverage.unsealed_inputs += !sealed.SealExistence().empty();
      coverage.exists_only_inputs += input.exists_only_plain_count() != 0;
      coverage.versioned_inputs += !input.non_plain_versions().empty();
      ExpectBuildMatchesReference(engine, input, *outcome, &coverage);
      if (::testing::Test::HasFailure()) return;
      input = outcome->new_base;
    }
  }
  std::printf(
      "%zu runs (%zu refused), %zu on unsealed inputs, %zu with exists-only "
      "objects, %zu with versioned facts; %zu removals, %zu objects "
      "vanished\n",
      coverage.runs, coverage.failed_runs, coverage.unsealed_inputs,
      coverage.exists_only_inputs, coverage.versioned_inputs,
      coverage.removals, coverage.vanished_objects);
  EXPECT_GT(coverage.runs, 100u);
  EXPECT_GT(coverage.unsealed_inputs, 0u);
  EXPECT_GT(coverage.exists_only_inputs, 0u);
  EXPECT_GT(coverage.versioned_inputs, 0u);
  EXPECT_GT(coverage.removals, 0u);
  EXPECT_GT(coverage.vanished_objects, 0u);
}

// The paper's programs over the generators the semi-naive and property
// suites use, first on the unsealed generated base and then on the ob'
// the first run built.
TEST(CommitBuildOracle, PaperProgramsOnGeneratedBasesMatchTheReference) {
  for (uint64_t seed : {3u, 11u, 42u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Engine engine;
    ObjectBase enterprise = engine.MakeBase();
    EnterpriseOptions eopts;
    eopts.employees = 64;
    eopts.manager_every = 8;
    eopts.bystanders = 8;
    eopts.seed = seed;
    MakeEnterprise(eopts, engine, enterprise);
    ObjectBase genealogy = engine.MakeBase();
    GenealogyOptions gopts;
    gopts.persons = 48;
    gopts.max_parents = 2;
    gopts.seed = seed;
    MakeGenealogy(gopts, engine, genealogy);
    const std::pair<ObjectBase*, std::string> cases[] = {
        {&enterprise, kEnterpriseProgramText},
        {&enterprise, HypotheticalProgramText("emp0")},
        {&genealogy, kAncestorsProgramText},
    };
    for (const auto& [base, text] : cases) {
      Result<Program> program = ParseProgram(text, engine);
      ASSERT_TRUE(program.ok()) << program.status().ToString();
      ObjectBase input = *base;
      for (int run = 0; run < 2; ++run) {
        Result<RunOutcome> outcome = engine.Run(*program, input);
        ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
        ExpectBuildMatchesReference(engine, input, *outcome);
        input = outcome->new_base;
      }
    }
  }
}

// A commit installs the base it evaluated: after Execute, and after an
// ExecuteBatch group, current() holds the very state handles of the last
// member's new_base. Each member's base and delta match the reference
// against its own input, the previous member's new_base.
TEST(CommitBuildOracle, DatabaseInstallsTheBaseItEvaluated) {
  for (bool persistent : {true, false}) {
    SCOPED_TRACE(persistent ? "persistent" : "in memory");
    FaultInjectingEnv env;
    DatabaseOptions options;
    options.env = &env;
    Engine engine;
    Result<std::unique_ptr<Database>> db =
        persistent ? Database::Open("/db", engine, options)
                   : Database::OpenInMemory(engine);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ObjectBase base = engine.MakeBase();
    EnterpriseOptions eopts;
    eopts.employees = 48;
    eopts.manager_every = 6;
    eopts.seed = 9;
    MakeEnterprise(eopts, engine, base);
    ASSERT_TRUE((*db)->ImportBase(base).ok());
    ExpectSharesEveryState((*db)->current(), base);

    Result<Program> raise = ParseProgram(
        "raise: mod[E].sal -> (S, S2) <- E.isa -> empl, E.sal -> S, "
        "S2 = S + 10.",
        engine);
    Result<Program> noop =
        ParseProgram("n: ins[E].tag -> t <- E.isa -> unicorn.", engine);
    Result<Program> paper = ParseProgram(kEnterpriseProgramText, engine);
    ASSERT_TRUE(raise.ok() && noop.ok() && paper.ok());

    const ObjectBase before = (*db)->current();
    Result<RunOutcome> out = (*db)->Execute(*raise);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    ASSERT_FALSE(out->committed_delta.empty());
    ExpectBuildMatchesReference(engine, before, *out);
    ExpectSharesEveryState((*db)->current(), out->new_base);

    const ObjectBase group_input = (*db)->current();
    Result<std::vector<RunOutcome>> group =
        (*db)->ExecuteBatch({&*paper, &*noop, &*raise});
    ASSERT_TRUE(group.ok()) << group.status().ToString();
    ASSERT_EQ(group->size(), 3u);
    EXPECT_TRUE((*group)[1].committed_delta.empty());
    for (size_t i = 0; i < group->size(); ++i) {
      SCOPED_TRACE("member " + std::to_string(i));
      ExpectBuildMatchesReference(
          engine, i == 0 ? group_input : (*group)[i - 1].new_base,
          (*group)[i]);
    }
    ExpectSharesEveryState((*db)->current(), group->back().new_base);
  }
}

// The WAL bytes a fixed history writes, pinned: an import, a commit, a
// group with a no-op member, and a commit that deletes objects. The
// delta each record encodes is the one the engine recorded, and its
// bytes are those the diff-based commit path wrote.
TEST(CommitBuildOracle, FixedHistoryWritesTheSameWal) {
  FaultInjectingEnv env;
  DatabaseOptions options;
  options.env = &env;
  Engine engine;
  Result<std::unique_ptr<Database>> db = Database::Open("/db", engine, options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  Result<ObjectBase> base = ParseObjectBase(
      "ann.sal -> 10. ann.boss -> bob. bob.sal -> 30. cy.m@1 -> 2. "
      "cy.exists -> cy.",
      engine);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE((*db)->ImportBase(*base).ok());
  const char* programs[] = {
      "r: mod[E].sal -> (S, S2) <- E.sal -> S, S2 = S + 1.",
      "i: ins[dee].sal -> 5.",
      "n: ins[E].tag -> t <- E.sal -> 1000.",
      "d: del[E].* <- E.boss -> bob.",
  };
  std::vector<Program> parsed;
  for (const char* text : programs) {
    Result<Program> program = ParseProgram(text, engine);
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    parsed.push_back(std::move(program).value());
  }
  ASSERT_TRUE((*db)->Execute(parsed[0]).ok());
  ASSERT_TRUE((*db)->ExecuteBatch({&parsed[1], &parsed[2]}).ok());
  ASSERT_TRUE((*db)->Execute(parsed[3]).ok());
  Result<std::string> wal = env.ReadFile("/db/wal.log");
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  std::string hex;
  for (unsigned char byte : *wal) {
    static const char kDigits[] = "0123456789abcdef";
    hex += kDigits[byte >> 4];
    hex += kDigits[byte & 0xf];
  }
  // Recorded from the diff-based commit path that came before: the
  // import, then one frame per commit and one for the group.
  EXPECT_EQ(hex,
            "4f0000c0c75557799cb70f8f0105000003616e6e0373616c0001140100000361"
            "6e6e04626f7373000003626f62000003626f620373616c00013c010000026379"
            "0665786973747300000263790000026379016d0101020101040100610000c0ca"
            "8dba39dd2f1f8d0104000003616e6e06657869737473000003616e6e00000361"
            "6e6e0373616c00011601000003626f6206657869737473000003626f62000003"
            "626f620373616c00013e0102000003616e6e0373616c00011401000003626f62"
            "0373616c00013c01260000c04eed793f9d35a5c3020200000364656506657869"
            "7374730000036465650000036465650373616c00010a01000000350000c03f15"
            "d57dd1a25db2010003000003616e6e06657869737473000003616e6e00000361"
            "6e6e0373616c00011601000003616e6e04626f7373000003626f62");
}

}  // namespace
}  // namespace verso
