// OID-sorted unification of version-id-terms and the stratification
// conditions (a)-(d) of Section 4, including the paper's own strata and
// programs that must be rejected.

#include <gtest/gtest.h>

#include "analysis/analyzer.h"
#include "core/engine.h"
#include "core/stratify.h"
#include "core/unify.h"
#include "parser/parser.h"

namespace verso {
namespace {

VidTerm T(std::vector<UpdateKind> ops, ObjTerm base) {
  VidTerm t;
  t.ops = std::move(ops);
  t.base = base;
  return t;
}

constexpr UpdateKind kIns = UpdateKind::kInsert;
constexpr UpdateKind kDel = UpdateKind::kDelete;
constexpr UpdateKind kMod = UpdateKind::kModify;

TEST(UnifyTest, PlainTerms) {
  ObjTerm x = ObjTerm::Var(VarId(0));
  ObjTerm y = ObjTerm::Var(VarId(1));
  ObjTerm henry = ObjTerm::Const(Oid(7));
  ObjTerm bob = ObjTerm::Const(Oid(8));
  EXPECT_TRUE(UnifyVidTerms(T({}, x), T({}, y)));
  EXPECT_TRUE(UnifyVidTerms(T({}, x), T({}, henry)));
  EXPECT_TRUE(UnifyVidTerms(T({}, henry), T({}, henry)));
  EXPECT_FALSE(UnifyVidTerms(T({}, henry), T({}, bob)));
}

TEST(UnifyTest, FunctorChainsMustMatchExactly) {
  ObjTerm x = ObjTerm::Var(VarId(0));
  ObjTerm e = ObjTerm::Var(VarId(1));
  EXPECT_TRUE(UnifyVidTerms(T({kMod}, x), T({kMod}, e)));
  EXPECT_FALSE(UnifyVidTerms(T({kMod}, x), T({kDel}, e)));
  EXPECT_FALSE(UnifyVidTerms(T({kMod, kMod}, x), T({kMod}, e)));
}

// The load-bearing restriction: a variable is quantified over O, so it
// never unifies with a term containing a functor. Without this, rule 4's
// head ins(mod(E)) would unify with rule 3's head subterm E and force
// rule4 strictly below rule3 — contradicting the paper's strata.
TEST(UnifyTest, VariablesNeverBindVersionedTerms) {
  ObjTerm e = ObjTerm::Var(VarId(0));
  EXPECT_FALSE(UnifyVidTerms(T({}, e), T({kMod}, ObjTerm::Var(VarId(1)))));
  EXPECT_FALSE(
      UnifyVidTerms(T({kIns, kMod}, ObjTerm::Var(VarId(1))), T({}, e)));
}

TEST(UnifyTest, SubtermsAreFunctorSuffixes) {
  VidTerm t = T({kIns, kDel, kMod}, ObjTerm::Var(VarId(0)));
  std::vector<VidTerm> subs = VidSubterms(t);
  ASSERT_EQ(subs.size(), 4u);
  EXPECT_EQ(subs[0].ops, (std::vector<UpdateKind>{kIns, kDel, kMod}));
  EXPECT_EQ(subs[1].ops, (std::vector<UpdateKind>{kDel, kMod}));
  EXPECT_EQ(subs[2].ops, (std::vector<UpdateKind>{kMod}));
  EXPECT_TRUE(subs[3].ops.empty());
}

// ---- Stratification ---------------------------------------------------

class StratifyTest : public ::testing::Test {
 protected:
  Result<Stratification> StratifyText(const char* text) {
    Result<Program> program = ParseProgram(text, symbols_);
    EXPECT_TRUE(program.ok()) << program.status().ToString();
    program_ = std::move(program).value();
    return Stratify(program_);
  }

  SymbolTable symbols_;
  Program program_;
};

// Section 4's worked result for Example 1: {r1,r2}, {r3}, {r4}.
TEST_F(StratifyTest, PaperExample1Strata) {
  Result<Stratification> s = StratifyText(R"(
      rule1: mod[E].sal -> (S, S2) <-
          E.isa -> empl / pos -> mgr / sal -> S, S2 = S * 1.1 + 200.
      rule2: mod[E].sal -> (S, S2) <-
          E.isa -> empl / sal -> S, not E.pos -> mgr, S2 = S * 1.1.
      rule3: del[mod(E)].* <-
          mod(E).isa -> empl / boss -> B / sal -> SE,
          mod(B).isa -> empl / sal -> SB, SE > SB.
      rule4: ins[mod(E)].isa -> hpe <-
          mod(E).isa -> empl / sal -> S, S > 4500,
          not del[mod(E)].isa -> empl.
  )");
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  EXPECT_EQ(s->stratum_count(), 3u);
  EXPECT_EQ(s->stratum_of_rule[0], 0u);
  EXPECT_EQ(s->stratum_of_rule[1], 0u);
  EXPECT_EQ(s->stratum_of_rule[2], 1u);
  EXPECT_EQ(s->stratum_of_rule[3], 2u);
}

// Condition (a) alone (paper's first illustration): {r1,r2},{r3,r4} is a
// valid (a)-stratification, and with (c)/(d) rule4 lands above rule3.
TEST_F(StratifyTest, ConditionAWritersBelowExtenders) {
  Result<Stratification> s = StratifyText(R"(
      w: mod[E].sal -> (S, S2) <- E.sal -> S, S2 = S + 1.
      x: del[mod(E)].sal -> S <- mod(E).sal -> S, S > 10.
  )");
  ASSERT_TRUE(s.ok());
  EXPECT_LT(s->stratum_of_rule[0], s->stratum_of_rule[1]);
}

// Positive recursion through the same version shape shares a stratum
// (paper Example 3).
TEST_F(StratifyTest, PositiveRecursionSharesStratum) {
  Result<Stratification> s = StratifyText(R"(
      r1: ins[X].anc -> P <- X.isa -> person / parents -> P.
      r2: ins[X].anc -> P <- ins(X).isa -> person / anc -> A,
                             A.isa -> person / parents -> P.
  )");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->stratum_count(), 1u);
}

// Condition (c): negation through the same head version is rejected.
TEST_F(StratifyTest, NegativeRecursionIsRejected) {
  Result<Stratification> s = StratifyText(R"(
      r1: ins[X].odd -> yes <- X.isa -> n, not ins(X).odd -> yes.
  )");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.status().code(), StatusCode::kNotStratifiable);
}

// Condition (d): a rule may not read the del(.)-version it is itself
// deleting from (the copied state would still be shrinking).
TEST_F(StratifyTest, ReadingOwnDeleteTargetIsRejected) {
  Result<Stratification> s = StratifyText(R"(
      r1: del[V].m -> X <- del(V).q -> X.
  )");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.status().code(), StatusCode::kNotStratifiable);
}

// The rendered cycle is the shortest path back from the offending edge's
// target, found breadth-first with strict edges before weak ones. Ground
// versions keep the edges exact: each rule writes its own object, so a
// positive read of ins(o) is a weak edge from o's writer and a negated
// read a strict one.
TEST_F(StratifyTest, CycleMessageIsTheShortestPathInEdgeOrder) {
  // Cycle a -> b -> c -> a with the chord b -> a: the chord closes the
  // cycle, though b's strict edge to c comes first in b's adjacency.
  Result<Stratification> chord = StratifyText(R"(
      a: ins[oa].p -> yes <- ins(oc).p -> yes, ins(ob).p -> yes.
      b: ins[ob].p -> yes <- not ins(oa).p -> yes.
      c: ins[oc].p -> yes <- not ins(ob).p -> yes.
  )");
  ASSERT_FALSE(chord.ok());
  EXPECT_EQ(chord.status().ToString(),
            "NotStratifiable: rules 'a' and 'b' are mutually recursive "
            "through a constraint that requires 'a' to be in a strictly "
            "lower stratum (conditions (a)-(d) of Section 4); dependency "
            "cycle: a -> b -> a");

  // Two paths of length two back from b: the strict b -> d is visited
  // before the weak b -> c, so the cycle runs through d.
  Result<Stratification> tie = StratifyText(R"(
      a: ins[oa].p -> yes <- ins(oc).p -> yes, ins(od).p -> yes.
      b: ins[ob].p -> yes <- not ins(oa).p -> yes.
      c: ins[oc].p -> yes <- ins(ob).p -> yes.
      d: ins[od].p -> yes <- not ins(ob).p -> yes.
  )");
  ASSERT_FALSE(tie.ok());
  EXPECT_EQ(tie.status().ToString(),
            "NotStratifiable: rules 'a' and 'b' are mutually recursive "
            "through a constraint that requires 'a' to be in a strictly "
            "lower stratum (conditions (a)-(d) of Section 4); dependency "
            "cycle: a -> b -> d -> a");
}

TEST_F(StratifyTest, ModReadersAboveModWriters) {
  Result<Stratification> s = StratifyText(R"(
      w: mod[E].sal -> (S, S2) <- E.raise -> yes, E.sal -> S, S2 = S + 1.
      r: ins[E].log -> S <- mod(E).sal -> S.
  )");
  ASSERT_TRUE(s.ok());
  // Condition (d): the mod-writer is strictly below the mod-reader.
  EXPECT_LT(s->stratum_of_rule[0], s->stratum_of_rule[1]);
}

// Hypothetical-raise program (Example 2): stratifiable, with r1 below
// everything and r4 on top.
TEST_F(StratifyTest, PaperExample2IsStratifiable) {
  Result<Stratification> s = StratifyText(R"(
      r1: mod[E].sal -> (S, S2) <- E.sal -> S / factor -> F, S2 = S * F.
      r2: mod[mod(E)].sal -> (S2, S) <- mod(E).sal -> S2, E.sal -> S.
      r3: ins[mod(mod(peter))].richest -> no <-
          mod(E).sal -> SE, mod(peter).sal -> SP, SE > SP.
      r4: ins[ins(mod(mod(peter)))].richest -> yes <-
          not ins(mod(mod(peter))).richest -> no.
  )");
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  const auto& l = s->stratum_of_rule;
  EXPECT_LT(l[0], l[1]);
  EXPECT_LT(l[0], l[2]);
  EXPECT_LT(l[1], l[3]);
  EXPECT_LT(l[2], l[3]);
}

// Independent rules about different objects land in stratum 0 together.
TEST_F(StratifyTest, IndependentRulesShareBottomStratum) {
  Result<Stratification> s = StratifyText(R"(
      a: ins[x].m -> 1 <- x.p -> 2.
      b: ins[y].n -> 3 <- y.q -> 4.
  )");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->stratum_count(), 1u);
}

// Constants matter for unification: updates of distinct constants do not
// constrain each other, updates of the same constant do.
TEST_F(StratifyTest, ConstantsSeparateStrataConstraints) {
  Result<Stratification> s = StratifyText(R"(
      a: mod[henry].sal -> (S, S2) <- henry.sal -> S, S2 = S + 1.
      b: ins[bob].log -> S <- mod(henry).sal -> S.
      c: ins[bob].note -> S <- mod(carl).sal -> S.
  )");
  ASSERT_TRUE(s.ok());
  const auto& l = s->stratum_of_rule;
  EXPECT_LT(l[0], l[1]);   // (d): a writes mod(henry), b reads it
  EXPECT_EQ(l[2], 0u);     // c reads mod(carl): no writer, bottom stratum
}

// Update-facts (empty bodies) stratify too.
TEST_F(StratifyTest, UpdateFactsWork) {
  Result<Stratification> s = StratifyText(R"(
      f: ins[henry].isa -> empl.
      g: ins[ins(henry)].isa -> mgr.
  )");
  ASSERT_TRUE(s.ok());
  EXPECT_LT(s->stratum_of_rule[0], s->stratum_of_rule[1]);  // condition (a)
}

// A program is stratified once: the prepare-time analysis computes the
// stratification and keeps it on the program, and every Engine::Run
// reuses it. Add() and a change in the rule count drop it, and so does
// ClearStratification() after an edit in place, which alone the program
// cannot see.
TEST(ProgramStratificationTest, KeptUntilTheRulesChange) {
  Engine engine;
  Result<Program> program = ParseProgram(
      "low: ins[X].b -> 1 <- X.a -> 1. "
      "high: ins[ins(X)].c -> 1 <- X.a -> 1, not ins(X).b -> 1.",
      engine);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  AnalysisReport report = AnalyzeUpdateProgram(*program, engine.symbols());
  ASSERT_TRUE(report.stratifiable);
  Result<const Stratification*> analyzed = program->stratification();
  ASSERT_TRUE(analyzed.ok());
  EXPECT_EQ((*analyzed)->stratum_of_rule, (std::vector<uint32_t>{0, 1}));

  Result<ObjectBase> base = ParseObjectBase("o.a -> 1.", engine);
  ASSERT_TRUE(base.ok());
  for (int run = 0; run < 2; ++run) {
    Result<RunOutcome> outcome = engine.Run(*program, *base);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_EQ(outcome->stratification.stratum_of_rule,
              (std::vector<uint32_t>{0, 1}));
    Result<const Stratification*> reused = program->stratification();
    ASSERT_TRUE(reused.ok());
    EXPECT_EQ(*reused, *analyzed);  // the same object: nothing recomputed
  }

  // An edit in place keeps the rule count: the kept stratification stays
  // until the program is told.
  std::swap(program->rules[0], program->rules[1]);
  EXPECT_EQ((*program->stratification())->stratum_of_rule,
            (std::vector<uint32_t>{0, 1}));
  program->ClearStratification();
  EXPECT_EQ((*program->stratification())->stratum_of_rule,
            (std::vector<uint32_t>{1, 0}));

  // Add() drops it; so does a rule appended to `rules` directly.
  Result<Program> more = ParseProgram(
      "top: ins[ins(ins(X))].d -> 1 <- X.a -> 1, not ins(ins(X)).c -> 1. "
      "side: ins[X].e -> 1 <- X.a -> 1.",
      engine);
  ASSERT_TRUE(more.ok());
  program->Add(std::move(more->rules[0]));
  EXPECT_EQ((*program->stratification())->stratum_of_rule,
            (std::vector<uint32_t>{1, 0, 2}));
  program->rules.push_back(std::move(more->rules[1]));
  EXPECT_EQ((*program->stratification())->stratum_of_rule,
            (std::vector<uint32_t>{1, 0, 2, 0}));
  Result<RunOutcome> outcome = engine.Run(*program, *base);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->stratification.stratum_count(), 3u);
}

}  // namespace
}  // namespace verso
