// The static rule-program analyzer: safety, stratifiability with cycle
// paths, update-conflict detection over write sets, dead rules, and the
// dependency/independence report — positive (workload programs are
// clean) and negative (each check fires with rule-level position).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/rw_sets.h"
#include "core/engine.h"
#include "parser/parser.h"
#include "query/query.h"
#include "workloads/workloads.h"

namespace verso {
namespace {

AnalysisReport AnalyzeUpdateText(Engine& engine, std::string_view text,
                                 const AnalysisContext& context = {}) {
  Result<Program> program = ParseProgram(text, engine.symbols());
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return AnalyzeUpdateProgram(*program, engine.symbols(), context);
}

AnalysisReport AnalyzeDeriveText(Engine& engine, std::string_view text,
                                 const AnalysisContext& context = {}) {
  Result<QueryProgram> program =
      ParseQueryProgram(text, engine.symbols());
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return AnalyzeDerivedProgram(*program, engine.symbols(), context);
}

size_t CountCheck(const AnalysisReport& report, std::string_view check) {
  size_t n = 0;
  for (const Diagnostic& diag : report.diagnostics) {
    if (diag.check == check) ++n;
  }
  return n;
}

// ---- the shared workload programs are clean --------------------------------

TEST(AnalyzerTest, EnterpriseProgramHasNoErrorsOrWarnings) {
  Engine engine;
  AnalysisReport report = AnalyzeUpdateText(engine, kEnterpriseProgramText);
  EXPECT_EQ(report.errors(), 0u) << report.ToText();
  EXPECT_EQ(report.warnings(), 0u) << report.ToText();
  EXPECT_TRUE(report.stratifiable);
  EXPECT_EQ(report.rule_count, 4u);
  // rule1/rule2 both mod the same (version, method); the complementary
  // `pos -> mgr` guard downgrades the conflict to a note.
  EXPECT_EQ(report.notes(), 1u) << report.ToText();
  EXPECT_EQ(CountCheck(report, kCheckUpdateConflict), 1u);
  // Their shared stratum is therefore not independent; the strata of
  // rule3 and rule4 are singletons and are.
  ASSERT_FALSE(report.strata.empty());
  ASSERT_EQ(report.stratum_of_rule.size(), 4u);
  const AnalysisReport::StratumReport& first =
      report.strata[report.stratum_of_rule[0]];
  EXPECT_EQ(report.stratum_of_rule[0], report.stratum_of_rule[1]);
  EXPECT_FALSE(first.independent);
  ASSERT_EQ(first.conflict_pairs.size(), 1u);
  EXPECT_EQ(first.conflict_pairs[0], (std::pair<uint32_t, uint32_t>(0, 1)));
  EXPECT_TRUE(report.strata[report.stratum_of_rule[2]].independent);
  EXPECT_TRUE(report.strata[report.stratum_of_rule[3]].independent);
}

TEST(AnalyzerTest, HypotheticalProgramHasNoErrors) {
  Engine engine;
  AnalysisReport report =
      AnalyzeUpdateText(engine, HypotheticalProgramText("peter"));
  EXPECT_EQ(report.errors(), 0u) << report.ToText();
  EXPECT_TRUE(report.stratifiable);
}

TEST(AnalyzerTest, AncestorsProgramOverlapsButDoesNotConflict) {
  Engine engine;
  AnalysisReport report = AnalyzeUpdateText(engine, kAncestorsProgramText);
  EXPECT_EQ(report.errors(), 0u) << report.ToText();
  EXPECT_EQ(report.warnings(), 0u) << report.ToText();
  EXPECT_TRUE(report.stratifiable);
  // r1 and r2 both ins[X].anc: confluent overlap — no diagnostic, but
  // the stratum is not independent.
  ASSERT_EQ(report.stratum_of_rule.size(), 2u);
  EXPECT_EQ(report.stratum_of_rule[0], report.stratum_of_rule[1]);
  const AnalysisReport::StratumReport& stratum =
      report.strata[report.stratum_of_rule[0]];
  EXPECT_FALSE(stratum.independent);
  EXPECT_EQ(stratum.overlap_pairs.size(), 1u);
  EXPECT_TRUE(stratum.conflict_pairs.empty());
}

// ---- safety ---------------------------------------------------------------

TEST(AnalyzerTest, UnsafeHeadVariableIsAnError) {
  Engine engine;
  AnalysisReport report = AnalyzeUpdateText(
      engine, "bad: ins[X].flag -> Y <- X.isa -> thing.");
  EXPECT_EQ(report.errors(), 1u) << report.ToText();
  ASSERT_EQ(CountCheck(report, kCheckUnsafeRule), 1u);
  const Diagnostic& diag = report.diagnostics[0];
  EXPECT_EQ(diag.severity, Severity::kError);
  EXPECT_EQ(diag.rule, 0);
  EXPECT_EQ(diag.rule_label, "bad");
  EXPECT_GT(diag.line, 0);
  EXPECT_EQ(diag.ToStatus().code(), StatusCode::kUnsafeRule);
}

TEST(AnalyzerTest, EveryUnsafeRuleIsReportedNotJustTheFirst) {
  Engine engine;
  AnalysisReport report = AnalyzeUpdateText(
      engine,
      "a: ins[X].p -> Y <- X.isa -> t.\n"
      "ok: ins[X].q -> yes <- X.isa -> t.\n"
      "b: ins[X].r -> Z <- X.isa -> t.");
  EXPECT_EQ(CountCheck(report, kCheckUnsafeRule), 2u) << report.ToText();
}

// ---- stratifiability ------------------------------------------------------

TEST(AnalyzerTest, NegationCycleNamesThePath) {
  Engine engine;
  // Ground versions keep the dependency graph exact: the only strict
  // edges are a -> b and b -> a, so the report names that two-rule cycle.
  AnalysisReport report = AnalyzeUpdateText(
      engine,
      "a: ins[alice].p -> yes <- not ins[bob].q -> yes.\n"
      "b: ins[bob].q -> yes <- not ins[alice].p -> yes.");
  EXPECT_FALSE(report.stratifiable);
  EXPECT_TRUE(report.strata.empty());
  ASSERT_EQ(CountCheck(report, kCheckNegationCycle), 1u) << report.ToText();
  const Diagnostic& diag = report.diagnostics[0];
  EXPECT_EQ(diag.severity, Severity::kError);
  EXPECT_TRUE(diag.message.find("a -> b -> a") != std::string::npos ||
              diag.message.find("b -> a -> b") != std::string::npos)
      << diag.message;
  EXPECT_EQ(diag.ToStatus().code(), StatusCode::kNotStratifiable);
}

TEST(AnalyzerTest, SelfNegationIsAOneRuleCycle) {
  Engine engine;
  // A rule whose own write is visible to its negated read: the cycle
  // path degenerates to the rule itself.
  AnalysisReport report = AnalyzeUpdateText(
      engine, "a: ins[X].p -> yes <- X.isa -> t, not ins[X].p -> yes.");
  EXPECT_FALSE(report.stratifiable);
  ASSERT_EQ(CountCheck(report, kCheckNegationCycle), 1u) << report.ToText();
  EXPECT_NE(report.diagnostics[0].message.find("a -> a"), std::string::npos)
      << report.diagnostics[0].message;
}

TEST(AnalyzerTest, DerivedNegationCycleNamesTheMethodPath) {
  Engine engine;
  AnalysisReport report = AnalyzeDeriveText(
      engine,
      "derive X.win -> yes <- X.move -> Y, not Y.win -> yes.");
  EXPECT_FALSE(report.stratifiable);
  ASSERT_EQ(CountCheck(report, kCheckNegationCycle), 1u) << report.ToText();
  EXPECT_NE(report.diagnostics[0].message.find("win -> win"),
            std::string::npos)
      << report.diagnostics[0].message;
}

// The cycle a diagnostic names is the shortest path back from the
// offending edge, found breadth-first in the graph's own edge order.
std::string OnlyNegationCycle(const AnalysisReport& report) {
  EXPECT_EQ(CountCheck(report, kCheckNegationCycle), 1u) << report.ToText();
  for (const Diagnostic& diag : report.diagnostics) {
    if (diag.check == kCheckNegationCycle) {
      EXPECT_EQ(diag.rule, 0);
      return diag.message;
    }
  }
  return "";
}

TEST(AnalyzerTest, UpdateCycleIsTheShortestPathStrictEdgesFirst) {
  Engine engine;
  // Cycle a -> b -> c -> a with the chord b -> a (StratifyTest's twin).
  EXPECT_EQ(OnlyNegationCycle(AnalyzeUpdateText(
                engine,
                "a: ins[oa].p -> yes <- ins(oc).p -> yes, ins(ob).p -> yes.\n"
                "b: ins[ob].p -> yes <- not ins(oa).p -> yes.\n"
                "c: ins[oc].p -> yes <- not ins(ob).p -> yes.")),
            "no stratification satisfies conditions (a)-(d): strict "
            "dependency cycle a -> b -> a");
  // Two paths of length two: the strict b -> d precedes the weak b -> c.
  EXPECT_EQ(OnlyNegationCycle(AnalyzeUpdateText(
                engine,
                "a: ins[oa].p -> yes <- ins(oc).p -> yes, ins(od).p -> yes.\n"
                "b: ins[ob].p -> yes <- not ins(oa).p -> yes.\n"
                "c: ins[oc].p -> yes <- ins(ob).p -> yes.\n"
                "d: ins[od].p -> yes <- not ins(ob).p -> yes.")),
            "no stratification satisfies conditions (a)-(d): strict "
            "dependency cycle a -> b -> d -> a");
}

TEST(AnalyzerTest, DerivedCycleIsTheShortestPathInRuleOrder) {
  Engine engine;
  // Cycle p -> q -> r -> p with the chord q -> p (QueryTest's twin).
  EXPECT_EQ(OnlyNegationCycle(AnalyzeDeriveText(
                engine,
                "r1: derive X.p -> yes <- X.e -> yes, not X.q -> yes.\n"
                "r2: derive X.q -> yes <- X.r -> yes, X.p -> yes.\n"
                "r3: derive X.r -> yes <- X.p -> yes.")),
            "derived methods are recursive through negation: p -> q -> p");
  // Two paths of length two back from q: the rule reading s comes first.
  EXPECT_EQ(OnlyNegationCycle(AnalyzeDeriveText(
                engine,
                "r1: derive X.p -> yes <- X.e -> yes, not X.q -> yes.\n"
                "r2: derive X.q -> yes <- X.s -> yes.\n"
                "r3: derive X.q -> yes <- X.r -> yes.\n"
                "r4: derive X.r -> yes <- X.p -> yes.\n"
                "r5: derive X.s -> yes <- X.p -> yes.")),
            "derived methods are recursive through negation: "
            "p -> q -> s -> p");
}

// ---- update conflicts -----------------------------------------------------

TEST(AnalyzerTest, InsAgainstDelOnSameMethodIsAConflictWarning) {
  Engine engine;
  AnalysisReport report = AnalyzeUpdateText(
      engine,
      "add: ins[X].flag -> on <- X.isa -> t.\n"
      "rem: del[X].flag -> on <- X.isa -> t.");
  EXPECT_EQ(report.errors(), 0u);
  ASSERT_EQ(CountCheck(report, kCheckUpdateConflict), 1u) << report.ToText();
  const Diagnostic& diag = report.diagnostics[0];
  EXPECT_EQ(diag.severity, Severity::kWarning);
  EXPECT_NE(diag.message.find("ins vs del"), std::string::npos)
      << diag.message;
  const AnalysisReport::StratumReport& stratum =
      report.strata[report.stratum_of_rule[0]];
  EXPECT_FALSE(stratum.independent);
  EXPECT_EQ(stratum.conflict_pairs.size(), 1u);
}

TEST(AnalyzerTest, ComplementaryGuardsDowngradeTheConflictToANote) {
  Engine engine;
  AnalysisReport report = AnalyzeUpdateText(
      engine,
      "yes: mod[X].s -> (A, B) <- X.s -> A, X.m -> y, B = A + 1.\n"
      "no:  mod[X].s -> (A, B) <- X.s -> A, not X.m -> y, B = A + 2.");
  EXPECT_EQ(report.warnings(), 0u) << report.ToText();
  ASSERT_EQ(CountCheck(report, kCheckUpdateConflict), 1u);
  EXPECT_EQ(report.diagnostics[0].severity, Severity::kNote);
}

TEST(AnalyzerTest, DisjointMethodsAreIndependent) {
  Engine engine;
  AnalysisReport report = AnalyzeUpdateText(
      engine,
      "a: ins[X].p -> yes <- X.isa -> t.\n"
      "b: ins[X].q -> yes <- X.isa -> t.");
  EXPECT_TRUE(report.diagnostics.empty()) << report.ToText();
  for (const AnalysisReport::StratumReport& stratum : report.strata) {
    EXPECT_TRUE(stratum.independent);
    EXPECT_TRUE(stratum.overlap_pairs.empty());
  }
}

TEST(AnalyzerTest, NonUnifiableVersionsAreDisjoint) {
  Engine engine;
  // Same kind and method, but the updated versions mod(X) and ins(X) are
  // sibling successor states — no fact can be written by both.
  AnalysisReport report = AnalyzeUpdateText(
      engine,
      "a: ins[mod(X)].p -> yes <- mod(X).isa -> t.\n"
      "b: ins[ins(X)].p -> yes <- ins(X).isa -> t.");
  EXPECT_TRUE(report.diagnostics.empty()) << report.ToText();
  for (const AnalysisReport::StratumReport& stratum : report.strata) {
    EXPECT_TRUE(stratum.independent);
  }
}

TEST(AnalyzerTest, DeleteAllOverlapsEveryMethod) {
  Rule ins_rule;
  ins_rule.head.kind = UpdateKind::kInsert;
  ins_rule.head.version.base = ObjTerm::Var(VarId(0));
  ins_rule.head.app.method = MethodId(3);
  Rule wipe;
  wipe.head.kind = UpdateKind::kDelete;
  wipe.head.version.base = ObjTerm::Var(VarId(0));
  wipe.head.delete_all = true;
  EXPECT_EQ(ClassifyWritePair(ins_rule, wipe), WriteOverlap::kConflict);
}

// Randomized mixed strata: clean recursive closures on private methods
// (overlap pairs only) shuffled together with ins-vs-del conflict pairs.
// Rule dependencies are version-term level, so every draw collapses into
// ONE stratum; a single conflicting pair anywhere in it must show up in
// the stratum's conflict pairs and break its independence.
TEST(AnalyzerTest, RandomMixedStrataReportEveryConflict) {
  for (uint64_t seed : {1u, 5u, 9u, 13u, 17u, 23u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    const size_t clean_groups = 1 + rng.Below(2);  // 1..2
    const size_t conflict_groups = rng.Below(3);   // 0..2
    std::vector<std::string> groups;
    for (size_t k = 0; k < clean_groups; ++k) {
      std::string m = "m" + std::to_string(k);
      std::string p = "c" + std::to_string(k);
      groups.push_back(p + "a: ins[X]." + m + " -> Y <- X.next -> Y." +
                       p + "b: ins[X]." + m + " -> Z <- ins(X)." + m +
                       " -> Y, Y.next -> Z.");
    }
    for (size_t k = 0; k < conflict_groups; ++k) {
      std::string m = "w" + std::to_string(k);
      std::string p = "p" + std::to_string(k);
      groups.push_back(p + "a: ins[X]." + m + " -> on <- X.next -> Y." +
                       p + "b: del[X]." + m + " -> on <- X.next -> Y.");
    }
    for (size_t i = groups.size(); i > 1; --i) {
      std::swap(groups[i - 1], groups[rng.Below(i)]);
    }
    std::string program_text;
    for (const std::string& group : groups) program_text += group;

    Engine engine;
    AnalysisReport report = AnalyzeUpdateText(engine, program_text);
    ASSERT_TRUE(report.stratifiable) << report.ToText();
    ASSERT_EQ(report.strata.size(), 1u) << report.ToText();
    EXPECT_EQ(report.strata[0].conflict_pairs.empty(), conflict_groups == 0)
        << report.ToText();
    if (conflict_groups > 0) EXPECT_FALSE(report.strata[0].independent);
  }
}

// ---- dead rules -----------------------------------------------------------

TEST(AnalyzerTest, ContradictoryBodyIsDead) {
  Engine engine;
  AnalysisReport report = AnalyzeUpdateText(
      engine, "r: ins[X].p -> yes <- X.isa -> t, not X.isa -> t.");
  ASSERT_EQ(CountCheck(report, kCheckDeadRule), 1u) << report.ToText();
  EXPECT_EQ(report.diagnostics[0].severity, Severity::kWarning);
  EXPECT_EQ(report.diagnostics[0].literal, 1);
}

TEST(AnalyzerTest, FalseGroundBuiltinIsDead) {
  Engine engine;
  AnalysisReport report = AnalyzeUpdateText(
      engine, "r: ins[X].p -> yes <- X.isa -> t, 1 > 2.");
  ASSERT_EQ(CountCheck(report, kCheckDeadRule), 1u) << report.ToText();
  EXPECT_NE(report.diagnostics[0].message.find("always false"),
            std::string::npos);
}

TEST(AnalyzerTest, UnproducibleBodyUpdateLiteralIsDead) {
  Engine engine;
  // No rule performs del[_].q, so the positive body test can never hold.
  AnalysisReport report = AnalyzeUpdateText(
      engine, "r: ins[X].p -> yes <- X.isa -> t, del[X].q -> gone.");
  ASSERT_EQ(CountCheck(report, kCheckDeadRule), 1u) << report.ToText();
  EXPECT_NE(report.diagnostics[0].message.find("no rule head"),
            std::string::npos);
}

TEST(AnalyzerTest, ProducedBodyUpdateLiteralIsNotDead) {
  Engine engine;
  AnalysisReport report = AnalyzeUpdateText(
      engine,
      "mk: del[X].q -> gone <- X.isa -> t.\n"
      "r: ins[del(X)].p -> yes <- del[X].q -> gone.");
  EXPECT_EQ(CountCheck(report, kCheckDeadRule), 0u) << report.ToText();
}

TEST(AnalyzerTest, BaseContextFlagsUnreadableMethods) {
  Engine engine;
  const char* text = "r: ins[X].p -> yes <- X.zzz -> w.";
  // Without schema context: silent (zzz may exist in some base).
  EXPECT_EQ(CountCheck(AnalyzeUpdateText(engine, text), kCheckDeadRule), 0u);
  // With a base that has no zzz facts: the read is unsatisfiable.
  AnalysisContext context;
  context.has_base = true;
  context.base_methods.push_back(engine.symbols().Method("isa"));
  std::sort(context.base_methods.begin(), context.base_methods.end());
  AnalysisReport report = AnalyzeUpdateText(engine, text, context);
  ASSERT_EQ(CountCheck(report, kCheckDeadRule), 1u) << report.ToText();
  EXPECT_NE(report.diagnostics[0].message.find("zzz"), std::string::npos);
}

// ---- derived programs -----------------------------------------------------

TEST(AnalyzerTest, TwoRulesDefiningOneMethodOverlap) {
  Engine engine;
  AnalysisReport report = AnalyzeDeriveText(
      engine,
      "derive X.r -> yes <- X.a -> Y.\n"
      "derive X.r -> yes <- X.b -> Y.");
  EXPECT_EQ(report.errors(), 0u) << report.ToText();
  EXPECT_TRUE(report.stratifiable);
  ASSERT_EQ(report.stratum_of_rule.size(), 2u);
  EXPECT_EQ(report.stratum_of_rule[0], report.stratum_of_rule[1]);
  const AnalysisReport::StratumReport& stratum =
      report.strata[report.stratum_of_rule[0]];
  EXPECT_FALSE(stratum.independent);
  EXPECT_EQ(stratum.overlap_pairs.size(), 1u);
}

TEST(AnalyzerTest, DerivedBaseContextFlagsUnreadableMethods) {
  Engine engine;
  AnalysisContext context;
  context.has_base = true;
  context.base_methods.push_back(engine.symbols().Method("edge"));
  std::sort(context.base_methods.begin(), context.base_methods.end());
  AnalysisReport report = AnalyzeDeriveText(
      engine,
      "derive X.reach -> Y <- X.edge -> Y.\n"
      "derive X.far -> Y <- X.wormhole -> Y.",
      context);
  ASSERT_EQ(CountCheck(report, kCheckDeadRule), 1u) << report.ToText();
  EXPECT_EQ(report.diagnostics[0].rule, 1);
  EXPECT_NE(report.diagnostics[0].message.find("wormhole"),
            std::string::npos);
}

// ---- report renderings ----------------------------------------------------

TEST(AnalyzerTest, JsonIsStableAndCarriesTheSchema) {
  Engine engine;
  AnalysisReport report = AnalyzeUpdateText(engine, kEnterpriseProgramText);
  std::string json = report.ToJson();
  EXPECT_EQ(json, report.ToJson());  // byte-identical re-render
  for (const char* key :
       {"\"verso_analysis_version\":1", "\"program\"", "\"summary\"",
        "\"diagnostics\"", "\"rules\"", "\"dependency_graph\"",
        "\"strata\"", "\"independent\"", "\"stratifiable\":true"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << "\n" << json;
  }
  // Two engines, same program text: the report must not depend on
  // interning order or any run-to-run state.
  Engine other;
  EXPECT_EQ(AnalyzeUpdateText(other, kEnterpriseProgramText).ToJson(), json);
}

TEST(AnalyzerTest, TextRenderingNamesRulesAndVerdicts) {
  Engine engine;
  AnalysisReport report = AnalyzeUpdateText(engine, kEnterpriseProgramText);
  std::string text = report.ToText();
  EXPECT_NE(text.find("rule1"), std::string::npos) << text;
  EXPECT_NE(text.find("independent"), std::string::npos) << text;
  EXPECT_NE(text.find("stratum"), std::string::npos) << text;
}

TEST(AnalyzerTest, EmptyProgramIsCleanAndStratifiable) {
  // The parser rejects empty sources; programmatic callers can still
  // hand the analyzer an empty program and must get a clean report.
  Engine engine;
  Program empty;
  AnalysisReport report =
      AnalyzeUpdateProgram(empty, engine.symbols());
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.stratifiable);
  EXPECT_EQ(report.rule_count, 0u);
  EXPECT_TRUE(report.strata.empty());
}

TEST(AnalyzerTest, FirstBlockingHonorsTheSeverityPolicy) {
  Engine engine;
  AnalysisReport report = AnalyzeUpdateText(
      engine,
      "add: ins[X].flag -> on <- X.isa -> t.\n"
      "rem: del[X].flag -> on <- X.isa -> t.");
  AnalysisOptions lax;
  EXPECT_TRUE(report.FirstBlocking(lax).ok());
  AnalysisOptions strict;
  strict.warnings_block = true;
  Status blocked = report.FirstBlocking(strict);
  EXPECT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace verso
