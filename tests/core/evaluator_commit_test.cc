// Stratum-by-stratum fixpoint evaluation (Section 4), the run-time
// version-linearity check, and the construction of the new object base
// (Section 5).

#include <gtest/gtest.h>

#include "core/commit.h"
#include "core/engine.h"
#include "core/pretty.h"
#include "parser/parser.h"

namespace verso {
namespace {

class EvaluatorTest : public ::testing::Test {
 protected:
  Result<RunOutcome> Run(const char* base_text, const char* program_text,
                         EvalOptions options = EvalOptions()) {
    Result<ObjectBase> base = ParseObjectBase(base_text, engine_);
    EXPECT_TRUE(base.ok()) << base.status().ToString();
    Result<Program> program = ParseProgram(program_text, engine_);
    EXPECT_TRUE(program.ok()) << program.status().ToString();
    program_ = std::move(program).value();
    return engine_.Run(program_, *base, options);
  }

  Engine engine_;
  Program program_;
};

TEST_F(EvaluatorTest, FixpointInTwoRoundsForNonRecursive) {
  Result<RunOutcome> r = Run("a.sal -> 1.  b.sal -> 2.",
                             "f: mod[E].sal -> (S, S2) <- E.sal -> S, "
                             "S2 = S * 2.");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.strata.size(), 1u);
  EXPECT_EQ(r->stats.strata[0].rounds, 2u);  // change + confirm
  EXPECT_EQ(r->stats.versions_materialized, 2u);
}

TEST_F(EvaluatorTest, RecursiveStratumIteratesToClosure) {
  // Chain of 6: transitive closure needs several rounds.
  Result<RunOutcome> r = Run(
      "n1.next -> n2. n2.next -> n3. n3.next -> n4. n4.next -> n5. "
      "n5.next -> n6.",
      "r1: ins[X].reach -> Y <- X.next -> Y."
      "r2: ins[X].reach -> Z <- ins(X).reach -> Y, Y.next -> Z.");
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r->stats.strata[0].rounds, 5u);
  Oid n1 = engine_.symbols().Symbol("n1");
  Vid v = engine_.versions().OfOid(n1);
  GroundApp app;
  app.result = engine_.symbols().Symbol("n6");
  EXPECT_TRUE(r->new_base.Contains(v, engine_.symbols().Method("reach"), app));
}

TEST_F(EvaluatorTest, LinearityViolationIsDetected) {
  // Both a modify and a delete of the same object fire: mod(o) and
  // del(o) are incomparable versions (the paper's Section 5 example).
  Result<RunOutcome> r = Run("o.m -> a.",
                             "r1: mod[o].m -> (a, b) <- o.m -> a."
                             "r2: del[o].m -> a <- o.m -> a.");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotVersionLinear);
  // The diagnostic names the object and both versions.
  EXPECT_NE(r.status().message().find("mod(o)"), std::string::npos);
  EXPECT_NE(r.status().message().find("del(o)"), std::string::npos);
}

TEST_F(EvaluatorTest, LinearityCheckCanBeDisabled) {
  EvalOptions options;
  options.check_version_linearity = false;
  Result<RunOutcome> r = Run("o.m -> a.",
                             "r1: mod[o].m -> (a, b) <- o.m -> a."
                             "r2: del[o].m -> a <- o.m -> a.",
                             options);
  // The evaluator no longer objects; the commit-time re-check still does.
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotVersionLinear);
}

TEST_F(EvaluatorTest, EmptyProgramIsIdentityPlusExists) {
  Program empty;
  Result<ObjectBase> base = ParseObjectBase("a.m -> 1.", engine_);
  ASSERT_TRUE(base.ok());
  Result<RunOutcome> r = engine_.Run(empty, *base);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(ObjectBaseToString(r->new_base, engine_.symbols(),
                               engine_.versions()),
            "a.exists -> a.\na.m -> 1.\n");
}

TEST_F(EvaluatorTest, UntouchedObjectsSurviveUnchanged) {
  Result<RunOutcome> r = Run(
      "a.isa -> empl.  a.sal -> 10.  rock.isa -> stone.  rock.mass -> 99.",
      "f: mod[E].sal -> (S, S2) <- E.isa -> empl, E.sal -> S, S2 = S + 1.");
  ASSERT_TRUE(r.ok());
  Vid rock = engine_.versions().OfOid(engine_.symbols().Symbol("rock"));
  GroundApp mass;
  mass.result = engine_.symbols().Int(99);
  EXPECT_TRUE(r->new_base.Contains(rock, engine_.symbols().Method("mass"),
                                   mass));
  // Only a was versioned.
  EXPECT_EQ(r->stats.versions_materialized, 1u);
}

TEST_F(EvaluatorTest, UntouchedExistsOnlyObjectIsDropped) {
  // `b` carries nothing but its exists fact and the program never
  // versions it: the commit still drops it, like an object whose final
  // version lost everything but `exists`.
  Result<RunOutcome> r =
      Run("a.sal -> 1.  b.exists -> b.",
          "f: mod[a].sal -> (S, S2) <- a.sal -> S, S2 = S + 1.");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(ObjectBaseToString(r->new_base, engine_.symbols(),
                               engine_.versions()),
            "a.exists -> a.\na.sal -> 2.\n");
}

// ---- Commit (Section 5) -------------------------------------------------

class CommitTest : public ::testing::Test {
 protected:
  CommitTest() : base_(symbols_.exists_method(), &versions_) {}

  void Facts(const char* text) {
    ASSERT_TRUE(
        ParseObjectBaseInto(text, symbols_, versions_, base_).ok());
  }

  SymbolTable symbols_;
  VersionTable versions_;
  ObjectBase base_;
};

TEST_F(CommitTest, FinalVersionWins) {
  Facts(R"(
      o.exists -> o.          o.sal -> 1.
      mod(o).exists -> o.     mod(o).sal -> 2.
      ins(mod(o)).exists -> o.  ins(mod(o)).sal -> 2.  ins(mod(o)).tag -> t.
  )");
  Result<ObjectBase> fresh = BuildNewObjectBase(base_, symbols_, versions_);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(ObjectBaseToString(*fresh, symbols_, versions_),
            "o.exists -> o.\no.sal -> 2.\no.tag -> t.\n");
}

TEST_F(CommitTest, ExistsOnlyFinalVersionVanishes) {
  Facts(R"(
      o.exists -> o.  o.sal -> 1.
      del(o).exists -> o.
  )");
  Result<ObjectBase> fresh = BuildNewObjectBase(base_, symbols_, versions_);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->fact_count(), 0u);
}

TEST_F(CommitTest, ExistsOnlyPlainObjectVanishesWithoutVersions) {
  // No non-plain version at all: the exists-only object is dropped and
  // the rest of the base is kept as it is.
  Facts("a.exists -> a.  a.m -> 1.  b.exists -> b.");
  Result<ObjectBase> fresh = BuildNewObjectBase(base_, symbols_, versions_);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(ObjectBaseToString(*fresh, symbols_, versions_),
            "a.exists -> a.\na.m -> 1.\n");
  Vid a = versions_.OfOid(symbols_.Symbol("a"));
  EXPECT_EQ(fresh->SharedStateOf(a), base_.SharedStateOf(a));
}

TEST_F(CommitTest, IncomparableVersionsAreRejected) {
  Facts(R"(
      o.exists -> o.  o.sal -> 1.
      mod(o).exists -> o.  mod(o).sal -> 2.
      del(o).exists -> o.
  )");
  Result<ObjectBase> fresh = BuildNewObjectBase(base_, symbols_, versions_);
  ASSERT_FALSE(fresh.ok());
  EXPECT_EQ(fresh.status().code(), StatusCode::kNotVersionLinear);
}

TEST_F(CommitTest, IndependentObjectsCommitIndependently) {
  Facts(R"(
      a.exists -> a.  a.m -> 1.  mod(a).exists -> a.  mod(a).m -> 2.
      b.exists -> b.  b.m -> 3.
  )");
  Result<ObjectBase> fresh = BuildNewObjectBase(base_, symbols_, versions_);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(ObjectBaseToString(*fresh, symbols_, versions_),
            "a.exists -> a.\na.m -> 2.\nb.exists -> b.\nb.m -> 3.\n");
}

}  // namespace
}  // namespace verso
