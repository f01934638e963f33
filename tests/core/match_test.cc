// Body matching: enumeration and the paper's truth definitions for
// version- and update-terms in rule bodies (Section 3).

#include <gtest/gtest.h>

#include <set>

#include "core/match.h"
#include "parser/parser.h"

namespace verso {
namespace {

class MatchTest : public ::testing::Test {
 protected:
  MatchTest() : base_(symbols_.exists_method(), &versions_) {}

  void Facts(const char* text) {
    Status s = ParseObjectBaseInto(text, symbols_, versions_, base_);
    ASSERT_TRUE(s.ok()) << s.ToString();
    base_.SealExistence();
  }

  /// Parses "<head> <- <body>." as a rule, analyzes it, and returns every
  /// binding of variable `var` (sorted, as surface strings).
  std::multiset<std::string> MatchesOf(const char* rule_text,
                                       const char* var) {
    Result<Program> program = ParseProgram(rule_text, symbols_);
    EXPECT_TRUE(program.ok()) << program.status().ToString();
    rule_ = std::move(program->rules[0]);
    Status s = AnalyzeRule(rule_, symbols_);
    EXPECT_TRUE(s.ok()) << s.ToString();
    int var_index = -1;
    for (size_t i = 0; i < rule_.var_names.size(); ++i) {
      if (rule_.var_names[i] == var) var_index = static_cast<int>(i);
    }
    EXPECT_GE(var_index, 0) << "no variable " << var;
    std::multiset<std::string> out;
    MatchContext ctx{symbols_, versions_, base_, &istats_};
    Status status = ForEachBodyMatch(
        rule_, ctx, [&](const Bindings& bindings) -> Status {
          Oid v = bindings[static_cast<size_t>(var_index)];
          out.insert(v.valid() ? symbols_.OidToString(v) : "<unbound>");
          return Status::Ok();
        });
    EXPECT_TRUE(status.ok()) << status.ToString();
    return out;
  }

  /// Parses and analyzes the first rule of `rule_text`.
  Rule Analyzed(const char* rule_text) {
    Result<Program> program = ParseProgram(rule_text, symbols_);
    EXPECT_TRUE(program.ok()) << program.status().ToString();
    Rule rule = std::move(program->rules[0]);
    Status s = AnalyzeRule(rule, symbols_);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return rule;
  }

  /// Every satisfying binding over `base`, in enumeration order: a `Run`
  /// entry when `skip_literal` is -1 and `seed` empty, else a `RunFrom`
  /// entry. `probes` receives the per-version index probes made.
  std::vector<Bindings> Enumerate(const Rule& rule, const ObjectBase& base,
                                  const Bindings& seed, int skip_literal,
                                  size_t* probes) {
    IndexStats stats;
    MatchContext ctx{symbols_, versions_, base, &stats};
    std::vector<Bindings> out;
    auto sink = [&](const Bindings& bindings) -> Status {
      out.push_back(bindings);
      return Status::Ok();
    };
    Status status = seed.empty()
                        ? ForEachBodyMatch(rule, ctx, sink)
                        : ForEachBodyMatchFrom(rule, ctx, seed, skip_literal,
                                               sink);
    EXPECT_TRUE(status.ok()) << status.ToString();
    *probes = stats.index_probes;
    return out;
  }

  int VarIndex(const Rule& rule, const char* name) {
    for (size_t i = 0; i < rule.var_names.size(); ++i) {
      if (rule.var_names[i] == name) return static_cast<int>(i);
    }
    ADD_FAILURE() << "no variable " << name;
    return 0;
  }

  SymbolTable symbols_;
  VersionTable versions_;
  ObjectBase base_;
  Rule rule_;
  IndexStats istats_;
};

/// Forces ForEachAppWithResult onto the pre-index full scan for the
/// duration of a scope (the ablation toggle; diffed against the indexed
/// default below).
class ScanModeGuard {
 public:
  ScanModeGuard() { SharedApps::EnableResultIndex(false); }
  ~ScanModeGuard() { SharedApps::EnableResultIndex(true); }
};

TEST_F(MatchTest, PlainVersionTermEnumerates) {
  Facts("a.isa -> empl.  b.isa -> empl.  c.isa -> mgr.");
  EXPECT_EQ(MatchesOf("r: ins[E].m -> 1 <- E.isa -> empl.", "E"),
            (std::multiset<std::string>{"a", "b"}));
}

TEST_F(MatchTest, BoundVersionLookupAndArgPatterns) {
  Facts("m.at@1,1 -> 10.  m.at@1,2 -> 20.  m.at@2,2 -> 40.");
  EXPECT_EQ(MatchesOf("r: ins[x].m -> V <- m.at@1,J -> V.", "V"),
            (std::multiset<std::string>{"10", "20"}));
  // Repeated variable forces equal args.
  EXPECT_EQ(MatchesOf("r: ins[x].m -> V <- m.at@I,I -> V.", "V"),
            (std::multiset<std::string>{"10", "40"}));
}

TEST_F(MatchTest, ShapeFilteringSeparatesVersions) {
  Facts("a.sal -> 1.  mod(a).sal -> 2.  mod(b).sal -> 3. "
        "del(mod(a)).sal -> 4.");
  EXPECT_EQ(MatchesOf("r: ins[x].m -> S <- E.sal -> S.", "S"),
            (std::multiset<std::string>{"1"}));
  EXPECT_EQ(MatchesOf("r: ins[x].m -> S <- mod(E).sal -> S.", "S"),
            (std::multiset<std::string>{"2", "3"}));
  EXPECT_EQ(MatchesOf("r: ins[x].m -> S <- del(mod(E)).sal -> S.", "S"),
            (std::multiset<std::string>{"4"}));
}

TEST_F(MatchTest, NegatedVersionTermFiltersBindings) {
  Facts("a.isa -> empl.  b.isa -> empl.  a.pos -> mgr.");
  EXPECT_EQ(MatchesOf(
                "r: ins[E].m -> 1 <- E.isa -> empl, not E.pos -> mgr.", "E"),
            (std::multiset<std::string>{"b"}));
}

TEST_F(MatchTest, BuiltinsFilterAndBind) {
  Facts("a.sal -> 100.  b.sal -> 300.");
  EXPECT_EQ(MatchesOf("r: ins[E].m -> 1 <- E.sal -> S, S > 200.", "E"),
            (std::multiset<std::string>{"b"}));
  EXPECT_EQ(MatchesOf("r: ins[E].m -> S2 <- E.sal -> S, S2 = S * 2.", "S2"),
            (std::multiset<std::string>{"200", "600"}));
  EXPECT_EQ(
      MatchesOf("r: ins[E].m -> 1 <- E.sal -> S, not S = 100.", "E"),
      (std::multiset<std::string>{"b"}));
}

// Body ins[v].m->r is true iff ins(v).m->r holds (Section 3).
TEST_F(MatchTest, InsertBodyTruth) {
  Facts("a.isa -> empl.  ins(a).tag -> new.");
  EXPECT_EQ(MatchesOf("r: ins[x].m -> T <- ins[E].tag -> T.", "T"),
            (std::multiset<std::string>{"new"}));
  // Negated: b has no ins-version.
  Facts("b.isa -> empl.");
  EXPECT_EQ(MatchesOf("r: ins[x].m -> 1 <- E.isa -> empl, "
                      "not ins[E].tag -> new.", "E"),
            (std::multiset<std::string>{"b"}));
}

// Body del[v].m->r: v*.m->r held, del(v) exists, del(v).m->r gone.
TEST_F(MatchTest, DeleteBodyTruth) {
  Facts(R"(
      a.isa -> empl.  a.sal -> 10.
      del(a).exists -> a.  del(a).sal -> 10.
      b.isa -> empl.  b.sal -> 20.
      del(b).exists -> b.
  )");
  // For a: isa was deleted (missing from del(a)), sal was not.
  // For b: everything was deleted.
  EXPECT_EQ(MatchesOf("r: ins[x].m -> E <- del[E].isa -> empl.", "E"),
            (std::multiset<std::string>{"a", "b"}));
  EXPECT_EQ(MatchesOf("r: ins[x].m -> E <- del[E].sal -> S.", "E"),
            (std::multiset<std::string>{"b"}));
  // Ground negated form (footnote 2's distinction lives here): only a's
  // salary survived its delete; b's was deleted, so b is excluded.
  EXPECT_EQ(MatchesOf("r: ins[x].m -> E <- E.isa -> empl, E.sal -> S, "
                      "not del[E].sal -> S.", "E"),
            (std::multiset<std::string>{"a"}));
}

// Body mod[v].m->(r,r'): r != r' means changed away; r == r' means still
// present in both stages.
TEST_F(MatchTest, ModifyBodyTruth) {
  Facts(R"(
      a.sal -> 100.  a.grade -> 3.
      mod(a).exists -> a.  mod(a).sal -> 110.  mod(a).grade -> 3.
  )");
  EXPECT_EQ(MatchesOf("r: ins[x].m -> S2 <- mod[E].sal -> (S, S2).", "S2"),
            (std::multiset<std::string>{"110"}));
  // Unchanged methods match as (r, r).
  EXPECT_EQ(MatchesOf("r: ins[x].m -> G <- mod[E].grade -> (G, G).", "G"),
            (std::multiset<std::string>{"3"}));
  // sal did change, so (S, S) must not match it.
  EXPECT_EQ(MatchesOf("r: ins[x].m -> S <- mod[E].sal -> (S, S).", "S"),
            (std::multiset<std::string>{}));
}

TEST_F(MatchTest, ModifyBodyGroundNegation) {
  Facts(R"(
      a.sal -> 100.
      mod(a).exists -> a.  mod(a).sal -> 110.
      b.sal -> 100.
  )");
  EXPECT_EQ(MatchesOf("r: ins[x].m -> E <- E.sal -> 100, "
                      "not mod[E].sal -> (100, 110).", "E"),
            (std::multiset<std::string>{"b"}));
}

// ---- Bound-result literals: indexed path vs scan path ----------------

TEST_F(MatchTest, GroundResultLiteralMatchesScanPath) {
  Facts("a.likes -> jazz.  a.likes -> rock.  b.likes -> jazz. "
        "c.likes -> folk.  c.likes -> rock.  c.likes -> ska.");
  const char* rule = "r: ins[x].m -> E <- E.likes -> jazz.";
  std::multiset<std::string> indexed = MatchesOf(rule, "E");
  EXPECT_EQ(indexed, (std::multiset<std::string>{"a", "b"}));
  EXPECT_GT(istats_.index_probes, 0u);
  EXPECT_GT(istats_.indexed_scan_avoided_facts, 0u);
  ScanModeGuard scan;
  EXPECT_EQ(MatchesOf(rule, "E"), indexed);
}

TEST_F(MatchTest, ResultBoundEarlierInBodyMatchesScanPath) {
  Facts("boss.likes -> jazz.  a.likes -> jazz.  a.likes -> rock. "
        "b.likes -> rock.  c.likes -> jazz.");
  // T is ground by the time F.likes -> T is enumerated (the first
  // literal's version is a constant, so it is planned first); the second
  // literal takes the indexed path per candidate F.
  const char* rule = "r: ins[x].m -> F <- boss.likes -> T, F.likes -> T.";
  std::multiset<std::string> indexed = MatchesOf(rule, "F");
  EXPECT_EQ(indexed, (std::multiset<std::string>{"a", "boss", "c"}));
  EXPECT_GT(istats_.index_probes, 0u);
  ScanModeGuard scan;
  EXPECT_EQ(MatchesOf(rule, "F"), indexed);
}

TEST_F(MatchTest, NegatedBoundResultLiteralMatchesScanPath) {
  Facts("a.likes -> jazz.  a.isa -> fan.  b.isa -> fan. "
        "b.likes -> rock.  c.isa -> fan.");
  const char* rule =
      "r: ins[x].m -> E <- E.isa -> fan, not E.likes -> jazz.";
  std::multiset<std::string> indexed = MatchesOf(rule, "E");
  EXPECT_EQ(indexed, (std::multiset<std::string>{"b", "c"}));
  ScanModeGuard scan;
  EXPECT_EQ(MatchesOf(rule, "E"), indexed);
}

TEST_F(MatchTest, BoundResultUpdateLiteralsMatchScanPath) {
  Facts(R"(
      a.isa -> empl.  a.sal -> 10.
      del(a).exists -> a.
      b.isa -> empl.  b.sal -> 10.
      del(b).exists -> b.  del(b).sal -> 10.
      c.sal -> 100.
      mod(c).exists -> c.  mod(c).sal -> 110.
  )");
  // del[E].sal -> 10: ground result, enumerated from v*'s state.
  const char* del_rule = "r: ins[x].m -> E <- del[E].sal -> 10.";
  std::multiset<std::string> del_indexed = MatchesOf(del_rule, "E");
  EXPECT_EQ(del_indexed, (std::multiset<std::string>{"a"}));
  // mod[E].sal -> (100, S2): ground old result indexes into v*.
  const char* mod_rule = "r: ins[x].m -> S2 <- mod[E].sal -> (100, S2).";
  std::multiset<std::string> mod_indexed = MatchesOf(mod_rule, "S2");
  EXPECT_EQ(mod_indexed, (std::multiset<std::string>{"110"}));
  EXPECT_GT(istats_.index_probes, 0u);
  ScanModeGuard scan;
  EXPECT_EQ(MatchesOf(del_rule, "E"), del_indexed);
  EXPECT_EQ(MatchesOf(mod_rule, "S2"), mod_indexed);
}

// ---- Free-object literals: the cross-version result index ------------
//
// The oracle is the same base without the index: an indexed method must
// give the same bindings in the same order, from fewer candidates.

TEST_F(MatchTest, ResultIndexedRunMatchesMethodScan) {
  Facts("boss.likes -> jazz.  a.likes -> jazz.  a.likes -> rock. "
        "b.likes -> rock.  c.likes -> jazz.  d.likes -> folk. "
        "e.likes -> jazz.  e.likes -> ska.");
  const MethodId likes = symbols_.Method("likes");
  // A constant result, and one bound by an earlier literal.
  for (const char* text :
       {"r: ins[x].m -> E <- E.likes -> jazz.",
        "r: ins[x].m -> F <- boss.likes -> T, F.likes -> T."}) {
    Rule rule = Analyzed(text);
    size_t scan_probes = 0;
    size_t index_probes = 0;
    std::vector<Bindings> scanned =
        Enumerate(rule, base_, Bindings(), -1, &scan_probes);
    ObjectBase indexed = base_;
    indexed.IndexResults(likes);
    ASSERT_EQ(base_.ResultIndexOf(likes), nullptr);
    std::vector<Bindings> matched =
        Enumerate(rule, indexed, Bindings(), -1, &index_probes);
    EXPECT_EQ(matched, scanned) << text;
    EXPECT_FALSE(matched.empty());
    EXPECT_LT(index_probes, scan_probes) << text;
  }
}

TEST_F(MatchTest, ResultIndexedSeededMatchMatchesMethodScan) {
  Facts("a.edge -> b.  b.edge -> c.  d.edge -> b.  d.edge -> e. "
        "e.edge -> b.  f.edge -> c.  g.edge -> a.");
  Rule rule = Analyzed("r: ins[X].m -> Z <- X.edge -> Y, Y.edge -> Z.");
  // The delta fact b.edge -> c seeds literal 1, leaving X.edge -> b with
  // a free object and a ground result.
  Bindings seed(rule.var_count(), Oid());
  seed[static_cast<size_t>(VarIndex(rule, "Y"))] = symbols_.Symbol("b");
  seed[static_cast<size_t>(VarIndex(rule, "Z"))] = symbols_.Symbol("c");
  size_t scan_probes = 0;
  size_t index_probes = 0;
  std::vector<Bindings> scanned =
      Enumerate(rule, base_, seed, /*skip_literal=*/1, &scan_probes);
  ObjectBase indexed = base_;
  indexed.IndexResults(symbols_.Method("edge"));
  std::vector<Bindings> matched =
      Enumerate(rule, indexed, seed, /*skip_literal=*/1, &index_probes);
  EXPECT_EQ(matched, scanned);
  std::vector<std::string> xs;
  for (const Bindings& b : matched) {
    xs.push_back(symbols_.OidToString(
        b[static_cast<size_t>(VarIndex(rule, "X"))]));
  }
  EXPECT_EQ(xs, (std::vector<std::string>{"a", "d", "e"}));
  EXPECT_EQ(index_probes, 3u);  // one per version holding edge -> b
  EXPECT_EQ(scan_probes, 6u);   // one per version holding edge
}

TEST_F(MatchTest, ResultIndexListsAVersionOnceAndEnumeratesEachFact) {
  // a holds two facts of `score` with result top; it is one candidate,
  // and both facts bind, in the state's sorted order (`math` is interned
  // before `art`).
  Facts("a.score@math -> top.  a.score@art -> top.  b.score@math -> low. "
        "c.score@art -> top.  c.score@math -> low.");
  const MethodId score = symbols_.Method("score");
  Rule rule = Analyzed("r: ins[x].m -> G <- E.score@G -> top.");
  size_t scan_probes = 0;
  size_t index_probes = 0;
  std::vector<Bindings> scanned =
      Enumerate(rule, base_, Bindings(), -1, &scan_probes);
  ObjectBase indexed = base_;
  indexed.IndexResults(score);
  const ObjectBase::VidsByResult* index = indexed.ResultIndexOf(score);
  ASSERT_NE(index, nullptr);
  const ObjectBase::VidSet* top = index->Find(symbols_.Symbol("top"));
  ASSERT_NE(top, nullptr);
  std::vector<Vid> listed;
  for (Vid vid : *top) listed.push_back(vid);
  EXPECT_EQ(listed, (std::vector<Vid>{versions_.OfOid(symbols_.Symbol("a")),
                                      versions_.OfOid(symbols_.Symbol("c"))}));
  std::vector<Bindings> matched =
      Enumerate(rule, indexed, Bindings(), -1, &index_probes);
  EXPECT_EQ(matched, scanned);
  std::vector<std::string> pairs;
  for (const Bindings& b : matched) {
    pairs.push_back(
        symbols_.OidToString(b[static_cast<size_t>(VarIndex(rule, "E"))]) +
        "/" +
        symbols_.OidToString(b[static_cast<size_t>(VarIndex(rule, "G"))]));
  }
  EXPECT_EQ(pairs, (std::vector<std::string>{"a/math", "a/art", "c/art"}));
  EXPECT_EQ(index_probes, 2u);
  EXPECT_EQ(scan_probes, 3u);

  // Dropping one of a's two top facts keeps a listed; dropping both
  // unlists it. A copy taken before the erases keeps listing it.
  const ObjectBase before = indexed;
  Vid a = versions_.OfOid(symbols_.Symbol("a"));
  GroundApp art;
  art.args.push_back(symbols_.Symbol("art"));
  art.result = symbols_.Symbol("top");
  GroundApp math = art;
  math.args[0] = symbols_.Symbol("math");
  ASSERT_TRUE(indexed.Erase(a, score, art));
  EXPECT_TRUE(indexed.ResultIndexOf(score)
                  ->Find(symbols_.Symbol("top"))
                  ->Contains(a));
  ASSERT_TRUE(indexed.Erase(a, score, math));
  EXPECT_FALSE(indexed.ResultIndexOf(score)
                   ->Find(symbols_.Symbol("top"))
                   ->Contains(a));
  EXPECT_TRUE(before.ResultIndexOf(score)
                  ->Find(symbols_.Symbol("top"))
                  ->Contains(a));
}

TEST_F(MatchTest, ResultIndexedLiteralWithAnUnheldResultHasNoCandidates) {
  Facts("a.likes -> jazz.  b.likes -> rock.  c.likes -> folk.");
  const MethodId likes = symbols_.Method("likes");
  Rule rule = Analyzed("r: ins[x].m -> E <- E.likes -> polka.");
  size_t scan_probes = 0;
  size_t index_probes = 0;
  EXPECT_TRUE(Enumerate(rule, base_, Bindings(), -1, &scan_probes).empty());
  EXPECT_EQ(scan_probes, 3u);
  ObjectBase indexed = base_;
  indexed.IndexResults(likes);
  EXPECT_EQ(indexed.ResultIndexOf(likes)->Find(symbols_.Symbol("polka")),
            nullptr);
  EXPECT_TRUE(Enumerate(rule, indexed, Bindings(), -1, &index_probes).empty());
  EXPECT_EQ(index_probes, 0u);
}

TEST_F(MatchTest, SemiNaiveSeededMatch) {
  Facts("a.edge -> b.  b.edge -> c.");
  Result<Program> program = ParseProgram(
      "r: ins[X].m -> Z <- X.edge -> Y, Y.edge -> Z.", symbols_);
  ASSERT_TRUE(program.ok());
  Rule rule = std::move(program->rules[0]);
  ASSERT_TRUE(AnalyzeRule(rule, symbols_).ok());

  // Seed Y=b via "delta" on the second literal and skip it.
  Bindings seed(rule.var_count(), Oid());
  int y = -1, z = -1;
  for (size_t i = 0; i < rule.var_names.size(); ++i) {
    if (rule.var_names[i] == "Y") y = static_cast<int>(i);
    if (rule.var_names[i] == "Z") z = static_cast<int>(i);
  }
  ASSERT_GE(y, 0);
  ASSERT_GE(z, 0);
  // Literal 1 is Y.edge -> Z; seed both of its variables.
  seed[static_cast<size_t>(y)] = symbols_.Symbol("b");
  seed[static_cast<size_t>(z)] = symbols_.Symbol("c");
  MatchContext ctx{symbols_, versions_, base_};
  int matches = 0;
  Status s = ForEachBodyMatchFrom(
      rule, ctx, seed, /*skip_literal=*/1,
      [&](const Bindings& bindings) -> Status {
        ++matches;
        EXPECT_EQ(bindings[0], symbols_.Symbol("a"));  // X
        return Status::Ok();
      });
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(matches, 1);
}

TEST_F(MatchTest, ErrorsPropagateFromSink) {
  Facts("a.isa -> empl.");
  Result<Program> program =
      ParseProgram("r: ins[E].m -> 1 <- E.isa -> empl.", symbols_);
  ASSERT_TRUE(program.ok());
  Rule rule = std::move(program->rules[0]);
  ASSERT_TRUE(AnalyzeRule(rule, symbols_).ok());
  MatchContext ctx{symbols_, versions_, base_};
  Status s = ForEachBodyMatch(rule, ctx, [&](const Bindings&) {
    return Status::Internal("stop");
  });
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace verso
