// Baseline (non-versioned) update semantics from Section 2.4's
// discussion: the naive in-place semantics loops on the paper's first
// rule, and Logres-style modules need manual ordering to reproduce what
// verso derives from VID structure.

#include "baselines/baselines.h"

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/pretty.h"
#include "parser/parser.h"

namespace verso {
namespace {

class BaselinesTest : public ::testing::Test {
 protected:
  ObjectBase Base(const char* text) {
    Result<ObjectBase> base = ParseObjectBase(text, engine_);
    EXPECT_TRUE(base.ok()) << base.status().ToString();
    return std::move(base).value();
  }
  Program Prog(const char* text) {
    Result<Program> p = ParseProgram(text, engine_);
    EXPECT_TRUE(p.ok()) << p.status().ToString();
    return std::move(p).value();
  }

  Engine engine_;
};

// The paper's motivating observation: without versions, the salary raise
// re-applies every round — each round sees the already-raised salary.
TEST_F(BaselinesTest, NaiveSalaryRaiseDiverges) {
  ObjectBase base = Base("henry.isa -> empl.  henry.salary -> 100.");
  Program p = Prog(
      "raise: mod[E].salary -> (S, S2) <- E.isa -> empl, E.salary -> S, "
      "S2 = S * 2.");
  InPlaceOptions options;
  options.max_rounds = 16;
  Result<InPlaceOutcome> out = RunNaiveUpdate(
      p, base, engine_.symbols(), engine_.versions(), options);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_TRUE(out->diverged);
  EXPECT_EQ(out->rounds, 16u);
  // The salary kept doubling: 100 * 2^15 after 15 effective rounds.
  Vid henry = engine_.versions().OfOid(engine_.symbols().Symbol("henry"));
  VersionState::Run apps =
      out->base.StateOf(henry)->Find(engine_.symbols().Method("salary"));
  ASSERT_EQ(apps.size(), 1u);
  EXPECT_GT(Numeric::Compare(
                engine_.symbols().NumberValue(apps[0].result),
                Numeric::FromInt(100000)),
            0);
}

// A monotone insert program converges in place just fine.
TEST_F(BaselinesTest, NaiveMonotoneInsertsConverge) {
  ObjectBase base =
      Base("a.edge -> b.  b.edge -> c.  a.isa -> node.  b.isa -> node. "
           "c.isa -> node.");
  Program p = Prog(
      "r1: ins[X].reach -> Y <- X.edge -> Y."
      "r2: ins[X].reach -> Z <- X.reach -> Y, Y.edge -> Z.");
  Result<InPlaceOutcome> out =
      RunNaiveUpdate(p, base, engine_.symbols(), engine_.versions());
  ASSERT_TRUE(out.ok());
  EXPECT_FALSE(out->diverged);
  Vid a = engine_.versions().OfOid(engine_.symbols().Symbol("a"));
  GroundApp app;
  app.result = engine_.symbols().Symbol("c");
  EXPECT_TRUE(out->base.Contains(a, engine_.symbols().Method("reach"), app));
}

// Logres-style: with the enterprise update split into hand-ordered
// modules, the baseline reproduces verso's committed result.
TEST_F(BaselinesTest, ModularReproducesEnterpriseOutcome) {
  const char* base_text = R"(
      phil.isa -> empl.  phil.pos -> mgr.   phil.sal -> 4000.
      bob.isa -> empl.   bob.boss -> phil.  bob.sal -> 4200.
  )";
  std::vector<Program> modules;
  modules.push_back(Prog(R"(
      m1a: mod[E].sal -> (S, S2) <- E.isa -> empl / pos -> mgr / sal -> S,
                                    S2 = S * 1.1 + 200.
      m1b: mod[E].sal -> (S, S2) <- E.isa -> empl / sal -> S,
                                    not E.pos -> mgr, S2 = S * 1.1.
  )"));
  modules.push_back(Prog(R"(
      m2: del[E].* <- E.isa -> empl / boss -> B / sal -> SE,
                      B.isa -> empl / sal -> SB, SE > SB.
  )"));
  modules.push_back(Prog(R"(
      m3: ins[E].isa -> hpe <- E.isa -> empl / sal -> S, S > 4500.
  )"));
  InPlaceOptions options;
  options.max_rounds = 8;
  Result<InPlaceOutcome> out = RunModularUpdate(
      modules, Base(base_text), engine_.symbols(), engine_.versions(),
      options);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  // Module 1 would loop (same raise rule); Logres avoids that only with
  // inflationary semantics per module — here it hits the round cap.
  // That *is* the comparison point: the versioned program needed no cap.
  EXPECT_TRUE(out->diverged);
}

// With delta-guards added by hand (the "manual control" of Section 2.4),
// the modular baseline terminates and matches verso's ob'.
TEST_F(BaselinesTest, ModularWithGuardsMatchesVerso) {
  const char* base_text = R"(
      phil.isa -> empl.  phil.pos -> mgr.   phil.sal -> 4000.
      bob.isa -> empl.   bob.boss -> phil.  bob.sal -> 4200.
  )";
  // Manual guard: tag raised employees so the raise fires once.
  std::vector<Program> modules;
  modules.push_back(Prog(R"(
      m1a: mod[E].sal -> (S, S2) <- E.isa -> empl / pos -> mgr / sal -> S,
                                    not E.raised -> yes, S2 = S * 1.1 + 200.
      m1b: mod[E].sal -> (S, S2) <- E.isa -> empl / sal -> S,
                                    not E.pos -> mgr, not E.raised -> yes,
                                    S2 = S * 1.1.
      m1c: ins[E].raised -> yes <- E.isa -> empl.
  )"));
  modules.push_back(Prog(R"(
      m2: del[E].* <- E.isa -> empl / boss -> B / sal -> SE,
                      B.isa -> empl / sal -> SB, SE > SB.
  )"));
  modules.push_back(Prog(R"(
      m3: ins[E].isa -> hpe <- E.isa -> empl / sal -> S, S > 4500.
  )"));
  Result<InPlaceOutcome> out = RunModularUpdate(
      modules, Base(base_text), engine_.symbols(), engine_.versions());
  ASSERT_TRUE(out.ok());
  ASSERT_FALSE(out->diverged);

  Vid phil = engine_.versions().OfOid(engine_.symbols().Symbol("phil"));
  Vid bob = engine_.versions().OfOid(engine_.symbols().Symbol("bob"));
  GroundApp sal4600;
  sal4600.result = engine_.symbols().Int(4600);
  EXPECT_TRUE(out->base.Contains(phil, engine_.symbols().Method("sal"),
                                 sal4600));
  GroundApp hpe;
  hpe.result = engine_.symbols().Symbol("hpe");
  EXPECT_TRUE(out->base.Contains(phil, engine_.symbols().Method("isa"), hpe));
  // bob's facts were deleted in place (exists remains as a husk).
  const VersionState* bob_state = out->base.StateOf(bob);
  ASSERT_NE(bob_state, nullptr);
  EXPECT_TRUE(bob_state->OnlyExists(engine_.symbols().exists_method()));
}

TEST_F(BaselinesTest, ValidationRejectsVersionedConstructs) {
  ObjectBase base = Base("a.m -> 1.");
  Program versioned_head = Prog("r: ins[mod(E)].m -> 1 <- E.m -> 1.");
  EXPECT_FALSE(
      RunNaiveUpdate(versioned_head, base, engine_.symbols(),
                     engine_.versions())
          .ok());
  Program versioned_body = Prog("r: ins[E].m -> 2 <- mod(E).m -> 1.");
  EXPECT_FALSE(
      RunNaiveUpdate(versioned_body, base, engine_.symbols(),
                     engine_.versions())
          .ok());
  Program update_body = Prog("r: ins[E].m -> 2 <- del[E].m -> 1.");
  EXPECT_FALSE(
      RunNaiveUpdate(update_body, base, engine_.symbols(),
                     engine_.versions())
          .ok());
}

TEST_F(BaselinesTest, InPlaceDeleteRequiresPresentFact) {
  ObjectBase base = Base("a.m -> 1.");
  Program p = Prog("r: del[a].m -> 2.");  // 2 is not there
  Result<InPlaceOutcome> out =
      RunNaiveUpdate(p, base, engine_.symbols(), engine_.versions());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->updates_applied, 0u);
}

}  // namespace
}  // namespace verso
