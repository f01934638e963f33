// The three-step immediate consequence operator T_P (Section 3):
// head-truth filtering in step 1, active-vs-prior copies in step 2, and
// the simultaneous two-phase application in step 3.

#include "core/tp_operator.h"

#include <gtest/gtest.h>

#include "parser/parser.h"

namespace verso {
namespace {

class TpOperatorTest : public ::testing::Test {
 protected:
  TpOperatorTest() : base_(symbols_.exists_method(), &versions_) {}

  void Facts(const char* text) {
    Status s = ParseObjectBaseInto(text, symbols_, versions_, base_);
    ASSERT_TRUE(s.ok()) << s.ToString();
    base_.SealExistence();
  }

  TpResult Apply(const char* program_text) {
    Result<Program> program = ParseProgram(program_text, symbols_);
    EXPECT_TRUE(program.ok()) << program.status().ToString();
    program_ = std::move(program).value();
    EXPECT_TRUE(program_.Analyze(symbols_).ok());
    std::vector<uint32_t> all;
    for (uint32_t i = 0; i < program_.rules.size(); ++i) all.push_back(i);
    TpOperator tp(symbols_, versions_);
    Result<TpResult> result = tp.Apply(program_, all, base_, nullptr);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).value();
  }

  Vid V(const char* chain) {
    // "mod(a)" etc. — reuse the object-base parser by parsing a fact.
    ObjectBase scratch(symbols_.exists_method(), &versions_);
    std::string text = std::string(chain) + ".probe -> probe.";
    Status s = ParseObjectBaseInto(text, symbols_, versions_, scratch);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return (*scratch.versions().begin()).first;
  }

  GroundApp App(Oid result) {
    GroundApp app;
    app.result = result;
    return app;
  }

  SymbolTable symbols_;
  VersionTable versions_;
  ObjectBase base_;
  Program program_;
};

TEST_F(TpOperatorTest, InsertHeadIsAlwaysTrue) {
  Facts("a.isa -> empl.");
  TpResult r = Apply("f: ins[a].tag -> fresh.");
  EXPECT_EQ(r.t1_updates, 1u);
  ASSERT_EQ(r.new_states.size(), 1u);
  const VersionState& state = r.new_states.begin()->second;
  EXPECT_TRUE(state.Contains(symbols_.Method("tag"),
                             App(symbols_.Symbol("fresh"))));
  // Copied from the v* stage a (isa + exists), plus the insert.
  EXPECT_EQ(state.fact_count(), 3u);
  EXPECT_EQ(r.t2_copies_from_prior, 1u);
}

TEST_F(TpOperatorTest, DeleteHeadRequiresOldFact) {
  Facts("a.isa -> empl.");
  // Deleting a fact that is not there derives nothing (head untrue).
  TpResult r = Apply("f: del[a].isa -> mgr.");
  EXPECT_EQ(r.t1_updates, 0u);
  EXPECT_TRUE(r.new_states.empty());
}

TEST_F(TpOperatorTest, ModifyHeadRequiresOldValue) {
  Facts("a.sal -> 100.");
  TpResult none = Apply("f: mod[a].sal -> (999, 1).");
  EXPECT_EQ(none.t1_updates, 0u);
  TpResult some = Apply("f: mod[a].sal -> (100, 110).");
  EXPECT_EQ(some.t1_updates, 1u);
  const VersionState& state = some.new_states.begin()->second;
  EXPECT_TRUE(state.Contains(symbols_.Method("sal"), App(symbols_.Int(110))));
  EXPECT_FALSE(state.Contains(symbols_.Method("sal"), App(symbols_.Int(100))));
}

// Step 3 is simultaneous: mod(a->b) and mod(b->c) in one application
// yield {b, c}, not {c} (removals all happen before additions).
TEST_F(TpOperatorTest, SimultaneousModifiesDoNotShadow) {
  Facts("x.m -> a.  x.m -> b.");
  TpResult r = Apply(R"(
      f: mod[x].m -> (a, b).
      g: mod[x].m -> (b, c).
  )");
  EXPECT_EQ(r.t1_updates, 2u);
  const VersionState& state = r.new_states.at(V("mod(x)"));
  MethodId m = symbols_.Method("m");
  EXPECT_FALSE(state.Contains(m, App(symbols_.Symbol("a"))));
  EXPECT_TRUE(state.Contains(m, App(symbols_.Symbol("b"))));
  EXPECT_TRUE(state.Contains(m, App(symbols_.Symbol("c"))));
}

TEST_F(TpOperatorTest, DeleteAllExpandsFromVStarSparingExists) {
  Facts("a.isa -> empl.  a.sal -> 10.  a.boss -> b.  b.isa -> empl.");
  TpResult r = Apply("f: del[a].* <- a.isa -> empl.");
  EXPECT_EQ(r.t1_updates, 3u);  // isa, sal, boss — not exists
  const VersionState& state = r.new_states.at(V("del(a)"));
  EXPECT_TRUE(state.OnlyExists(symbols_.exists_method()));
}

TEST_F(TpOperatorTest, ActiveTargetCopiesItself) {
  Facts(R"(
      a.sal -> 100.
      ins(a).exists -> a.  ins(a).sal -> 100.  ins(a).tag -> old.
  )");
  TpResult r = Apply("f: ins[a].tag -> newer.");
  EXPECT_EQ(r.t2_copies_from_self, 1u);
  EXPECT_EQ(r.t2_copies_from_prior, 0u);
  const VersionState& state = r.new_states.at(V("ins(a)"));
  // Keeps its own facts (tag -> old) and gains the new insert.
  EXPECT_TRUE(state.Contains(symbols_.Method("tag"),
                             App(symbols_.Symbol("old"))));
  EXPECT_TRUE(state.Contains(symbols_.Method("tag"),
                             App(symbols_.Symbol("newer"))));
}

TEST_F(TpOperatorTest, RelevantNotActiveCopiesFromVStar) {
  // v = mod(a) is not materialized; v* is a. The copy seeds del(mod(a))
  // from a's state.
  Facts("a.sal -> 10.  a.isa -> empl.");
  TpResult r = Apply("f: del[mod(a)].sal -> 10.");
  EXPECT_EQ(r.t1_updates, 1u);
  const VersionState& state = r.new_states.at(V("del(mod(a))"));
  EXPECT_FALSE(state.Contains(symbols_.Method("sal"), App(symbols_.Int(10))));
  EXPECT_TRUE(state.Contains(symbols_.Method("isa"),
                             App(symbols_.Symbol("empl"))));
  EXPECT_TRUE(state.Contains(symbols_.exists_method(),
                             App(symbols_.Symbol("a"))));
}

// Inserting on an OID absent from ob creates a fresh object whose version
// carries an injected exists-fact (documented extension).
TEST_F(TpOperatorTest, FreshObjectCreation) {
  Facts("a.isa -> empl.");
  TpResult r = Apply("f: ins[newguy].isa -> empl <- a.isa -> empl.");
  EXPECT_EQ(r.fresh_objects, 1u);
  const VersionState& state = r.new_states.at(V("ins(newguy)"));
  EXPECT_TRUE(state.Contains(symbols_.exists_method(),
                             App(symbols_.Symbol("newguy"))));
  EXPECT_TRUE(state.Contains(symbols_.Method("isa"),
                             App(symbols_.Symbol("empl"))));
}

TEST_F(TpOperatorTest, DuplicateDerivationsCollapseInT1) {
  Facts("a.isa -> empl.  a.isa -> mgr.");
  // Two body matches derive the same ground insert.
  TpResult r = Apply("f: ins[a].tag -> t <- a.isa -> X.");
  EXPECT_EQ(r.t1_updates, 1u);
}

TEST_F(TpOperatorTest, StatsCountCopiedFacts) {
  Facts("a.p -> 1.  a.q -> 2.  a.r -> 3.");
  TpResult r = Apply("f: ins[a].s -> 4.");
  // 3 facts + exists copied from a.
  EXPECT_EQ(r.t2_copied_facts, 4u);
}

}  // namespace
}  // namespace verso
