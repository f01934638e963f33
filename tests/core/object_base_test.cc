#include "core/object_base.h"

#include <gtest/gtest.h>

#include "core/symbol_table.h"

namespace verso {
namespace {

class ObjectBaseTest : public ::testing::Test {
 protected:
  ObjectBaseTest() : base_(symbols_.exists_method(), &versions_) {}

  GroundApp App(Oid result, std::vector<Oid> args = {}) {
    GroundApp app;
    app.args = std::move(args);
    app.result = result;
    return app;
  }

  SymbolTable symbols_;
  VersionTable versions_;
  ObjectBase base_;
};

TEST_F(ObjectBaseTest, InsertContainsErase) {
  Vid henry = versions_.OfOid(symbols_.Symbol("henry"));
  MethodId sal = symbols_.Method("sal");
  EXPECT_TRUE(base_.Insert(henry, sal, App(symbols_.Int(250))));
  EXPECT_FALSE(base_.Insert(henry, sal, App(symbols_.Int(250))));  // dup
  EXPECT_TRUE(base_.Contains(henry, sal, App(symbols_.Int(250))));
  EXPECT_EQ(base_.fact_count(), 1u);
  EXPECT_TRUE(base_.Erase(henry, sal, App(symbols_.Int(250))));
  EXPECT_FALSE(base_.Erase(henry, sal, App(symbols_.Int(250))));
  EXPECT_EQ(base_.fact_count(), 0u);
  EXPECT_EQ(base_.StateOf(henry), nullptr);  // empty states vanish
}

TEST_F(ObjectBaseTest, MethodsAreSetValued) {
  // Several results for the same (version, method, args) coexist — the
  // paper's set semantics.
  Vid p = versions_.OfOid(symbols_.Symbol("p1"));
  MethodId anc = symbols_.Method("anc");
  EXPECT_TRUE(base_.Insert(p, anc, App(symbols_.Symbol("p2"))));
  EXPECT_TRUE(base_.Insert(p, anc, App(symbols_.Symbol("p3"))));
  EXPECT_EQ(base_.StateOf(p)->Find(anc).size(), 2u);
}

TEST_F(ObjectBaseTest, ArgsDistinguishApplications) {
  Vid m = versions_.OfOid(symbols_.Symbol("matrix"));
  MethodId at = symbols_.Method("at");
  Oid one = symbols_.Int(1);
  Oid two = symbols_.Int(2);
  EXPECT_TRUE(base_.Insert(m, at, App(symbols_.Int(10), {one, one})));
  EXPECT_TRUE(base_.Insert(m, at, App(symbols_.Int(20), {one, two})));
  EXPECT_TRUE(base_.Contains(m, at, App(symbols_.Int(10), {one, one})));
  EXPECT_FALSE(base_.Contains(m, at, App(symbols_.Int(10), {one, two})));
}

TEST_F(ObjectBaseTest, MethodIndexTracksVersions) {
  Vid a = versions_.OfOid(symbols_.Symbol("a"));
  Vid b = versions_.OfOid(symbols_.Symbol("b"));
  MethodId isa = symbols_.Method("isa");
  Oid empl = symbols_.Symbol("empl");
  base_.Insert(a, isa, App(empl));
  base_.Insert(b, isa, App(empl));
  const auto* vids = base_.VidsWithMethod(isa);
  ASSERT_NE(vids, nullptr);
  EXPECT_EQ(vids->size(), 2u);
  base_.Erase(a, isa, App(empl));
  vids = base_.VidsWithMethod(isa);
  ASSERT_NE(vids, nullptr);
  EXPECT_EQ(vids->size(), 1u);
  EXPECT_TRUE(vids->Contains(b));
  base_.Erase(b, isa, App(empl));
  EXPECT_EQ(base_.VidsWithMethod(isa), nullptr);
}

TEST_F(ObjectBaseTest, ReplaceVersionSwapsStateAndIndex) {
  Vid o = versions_.OfOid(symbols_.Symbol("o"));
  MethodId m1 = symbols_.Method("m1");
  MethodId m2 = symbols_.Method("m2");
  base_.Insert(o, m1, App(symbols_.Int(1)));

  VersionState next;
  next.Insert(m2, App(symbols_.Int(2)));
  EXPECT_TRUE(base_.ReplaceVersion(o, next));
  EXPECT_FALSE(base_.Contains(o, m1, App(symbols_.Int(1))));
  EXPECT_TRUE(base_.Contains(o, m2, App(symbols_.Int(2))));
  EXPECT_EQ(base_.VidsWithMethod(m1), nullptr);
  ASSERT_NE(base_.VidsWithMethod(m2), nullptr);

  // Replacing with an equal state reports "no change".
  EXPECT_FALSE(base_.ReplaceVersion(o, next));
  // Replacing with the empty state removes the version.
  EXPECT_TRUE(base_.ReplaceVersion(o, VersionState()));
  EXPECT_EQ(base_.StateOf(o), nullptr);
  EXPECT_EQ(base_.fact_count(), 0u);
}

TEST_F(ObjectBaseTest, ReplaceVersionReportsFactLevelDiff) {
  Vid o = versions_.OfOid(symbols_.Symbol("o"));
  MethodId m1 = symbols_.Method("m1");
  MethodId m2 = symbols_.Method("m2");
  MethodId m3 = symbols_.Method("m3");
  base_.Insert(o, m1, App(symbols_.Int(1)));
  base_.Insert(o, m2, App(symbols_.Int(2)));
  base_.Insert(o, m2, App(symbols_.Int(3)));

  // New state: m1 unchanged, m2 loses 2 and gains 4, m3 appears.
  VersionState next;
  next.Insert(m1, App(symbols_.Int(1)));
  next.Insert(m2, App(symbols_.Int(3)));
  next.Insert(m2, App(symbols_.Int(4)));
  next.Insert(m3, App(symbols_.Int(5)));

  DeltaLog diff;
  EXPECT_TRUE(base_.ReplaceVersion(o, next, &diff));
  ASSERT_EQ(diff.size(), 3u);
  // Merge order: methods ascending, removals/additions per method in
  // application order.
  EXPECT_EQ(diff[0].method, m2);
  EXPECT_FALSE(diff[0].added);
  EXPECT_EQ(diff[0].app, App(symbols_.Int(2)));
  EXPECT_EQ(diff[1].method, m2);
  EXPECT_TRUE(diff[1].added);
  EXPECT_EQ(diff[1].app, App(symbols_.Int(4)));
  EXPECT_EQ(diff[2].method, m3);
  EXPECT_TRUE(diff[2].added);
  for (const DeltaFact& fact : diff) EXPECT_EQ(fact.vid, o);

  // The method index followed the diff.
  EXPECT_NE(base_.VidsWithMethod(m3), nullptr);
  EXPECT_EQ(base_.fact_count(), 4u);

  // Equal state: no change, no diff entries.
  diff.clear();
  EXPECT_FALSE(base_.ReplaceVersion(o, next, &diff));
  EXPECT_TRUE(diff.empty());
}

TEST_F(ObjectBaseTest, ReplaceVersionDiffOnNewAndRemovedVersions) {
  Vid o = versions_.OfOid(symbols_.Symbol("o"));
  MethodId m = symbols_.Method("m");

  VersionState first;
  first.Insert(m, App(symbols_.Int(1)));
  DeltaLog diff;
  EXPECT_TRUE(base_.ReplaceVersion(o, first, &diff));
  ASSERT_EQ(diff.size(), 1u);  // every fact of a new version is an addition
  EXPECT_TRUE(diff[0].added);

  diff.clear();
  EXPECT_TRUE(base_.ReplaceVersion(o, VersionState(), &diff));
  ASSERT_EQ(diff.size(), 1u);  // removal wipes every fact
  EXPECT_FALSE(diff[0].added);
  EXPECT_EQ(base_.StateOf(o), nullptr);
  EXPECT_EQ(base_.VidsWithMethod(m), nullptr);
}

TEST_F(ObjectBaseTest, SealExistenceAddsExistsForPlainObjects) {
  Vid o = versions_.OfOid(symbols_.Symbol("o"));
  MethodId isa = symbols_.Method("isa");
  base_.Insert(o, isa, App(symbols_.Symbol("empl")));
  EXPECT_FALSE(base_.VersionExists(o));
  base_.SealExistence();
  EXPECT_TRUE(base_.VersionExists(o));
  // Idempotent.
  size_t facts = base_.fact_count();
  base_.SealExistence();
  EXPECT_EQ(base_.fact_count(), facts);
}

TEST_F(ObjectBaseTest, LatestExistingStageWalksToDeepestMaterialized) {
  Vid o = versions_.OfOid(symbols_.Symbol("o"));
  Vid mod_o = versions_.Child(o, UpdateKind::kModify);
  Vid del_mod_o = versions_.Child(mod_o, UpdateKind::kDelete);
  Oid root = symbols_.Symbol("o");

  // Nothing materialized: no v*.
  EXPECT_FALSE(base_.LatestExistingStage(del_mod_o).valid());

  base_.Insert(o, symbols_.exists_method(), App(root));
  EXPECT_EQ(base_.LatestExistingStage(del_mod_o), o);
  EXPECT_EQ(base_.LatestExistingStage(o), o);

  base_.Insert(mod_o, symbols_.exists_method(), App(root));
  EXPECT_EQ(base_.LatestExistingStage(del_mod_o), mod_o);
  // v* of the middle stage is itself.
  EXPECT_EQ(base_.LatestExistingStage(mod_o), mod_o);
}

TEST_F(ObjectBaseTest, OnlyExistsDetectsInformationlessVersions) {
  Vid o = versions_.OfOid(symbols_.Symbol("o"));
  base_.Insert(o, symbols_.exists_method(), App(symbols_.Symbol("o")));
  EXPECT_TRUE(base_.StateOf(o)->OnlyExists(symbols_.exists_method()));
  base_.Insert(o, symbols_.Method("isa"), App(symbols_.Symbol("empl")));
  EXPECT_FALSE(base_.StateOf(o)->OnlyExists(symbols_.exists_method()));
}

TEST_F(ObjectBaseTest, EqualityIsStateEquality) {
  ObjectBase other(symbols_.exists_method(), &versions_);
  Vid o = versions_.OfOid(symbols_.Symbol("o"));
  MethodId m = symbols_.Method("m");
  base_.Insert(o, m, App(symbols_.Int(1)));
  EXPECT_FALSE(base_ == other);
  other.Insert(o, m, App(symbols_.Int(1)));
  EXPECT_TRUE(base_ == other);
}

TEST_F(ObjectBaseTest, CopyIsIndependent) {
  Vid o = versions_.OfOid(symbols_.Symbol("o"));
  MethodId m = symbols_.Method("m");
  base_.Insert(o, m, App(symbols_.Int(1)));
  ObjectBase copy = base_;
  copy.Insert(o, m, App(symbols_.Int(2)));
  EXPECT_EQ(base_.fact_count(), 1u);
  EXPECT_EQ(copy.fact_count(), 2u);
}

// ---- Copy-on-write structural sharing --------------------------------

TEST_F(ObjectBaseTest, CopySharesStateAndDetachesOnFirstWrite) {
  Vid a = versions_.OfOid(symbols_.Symbol("a"));
  Vid b = versions_.OfOid(symbols_.Symbol("b"));
  MethodId m = symbols_.Method("m");
  base_.Insert(a, m, App(symbols_.Int(1)));
  base_.Insert(b, m, App(symbols_.Int(2)));

  ObjectBase copy = base_;
  // Copying shares every version's state handle: no fact was copied.
  EXPECT_EQ(copy.SharedStateOf(a), base_.SharedStateOf(a));
  EXPECT_EQ(copy.SharedStateOf(b), base_.SharedStateOf(b));

  // Writing one version through the copy detaches only that version.
  copy.Insert(a, m, App(symbols_.Int(3)));
  EXPECT_NE(copy.SharedStateOf(a), base_.SharedStateOf(a));
  EXPECT_EQ(copy.SharedStateOf(b), base_.SharedStateOf(b));
  EXPECT_FALSE(base_.Contains(a, m, App(symbols_.Int(3))));
  EXPECT_TRUE(copy.Contains(a, m, App(symbols_.Int(3))));
  EXPECT_EQ(base_.fact_count(), 2u);
  EXPECT_EQ(copy.fact_count(), 3u);
}

TEST_F(ObjectBaseTest, NoOpMutationsDoNotDetachSharedState) {
  Vid a = versions_.OfOid(symbols_.Symbol("a"));
  MethodId m = symbols_.Method("m");
  base_.Insert(a, m, App(symbols_.Int(1)));
  ObjectBase copy = base_;
  // A duplicate insert and a miss erase must leave the sharing intact.
  EXPECT_FALSE(copy.Insert(a, m, App(symbols_.Int(1))));
  EXPECT_FALSE(copy.Erase(a, m, App(symbols_.Int(99))));
  EXPECT_EQ(copy.SharedStateOf(a), base_.SharedStateOf(a));
}

TEST_F(ObjectBaseTest, EraseThroughCopyLeavesOriginalIntact) {
  Vid a = versions_.OfOid(symbols_.Symbol("a"));
  MethodId m = symbols_.Method("m");
  base_.Insert(a, m, App(symbols_.Int(1)));
  ObjectBase copy = base_;
  EXPECT_TRUE(copy.Erase(a, m, App(symbols_.Int(1))));
  EXPECT_EQ(copy.StateOf(a), nullptr);
  // The original still holds the fact and still answers its index.
  EXPECT_TRUE(base_.Contains(a, m, App(symbols_.Int(1))));
  ASSERT_NE(base_.VidsWithMethod(m), nullptr);
  EXPECT_TRUE(base_.VidsWithMethod(m)->Contains(a));
  EXPECT_EQ(copy.VidsWithMethod(m), nullptr);
}

TEST_F(ObjectBaseTest, VersionStateCopyIsIndependentOfItsSource) {
  VersionState s1;
  MethodId m1 = symbols_.Method("m1");
  MethodId m2 = symbols_.Method("m2");
  s1.Insert(m1, App(symbols_.Int(1)));
  s1.Insert(m2, App(symbols_.Int(2)));

  VersionState s2 = s1;  // T_P step-2 copy: the whole block
  EXPECT_TRUE(s1 == s2);
  EXPECT_NE(s1.facts().begin(), s2.facts().begin());

  // A write to either side leaves the other as it was.
  s2.Insert(m1, App(symbols_.Int(3)));
  s1.Erase(m2, App(symbols_.Int(2)));
  EXPECT_FALSE(s1.Contains(m1, App(symbols_.Int(3))));
  EXPECT_TRUE(s2.Contains(m1, App(symbols_.Int(3))));
  EXPECT_TRUE(s2.Contains(m2, App(symbols_.Int(2))));
  EXPECT_EQ(s1.fact_count(), 1u);
  EXPECT_EQ(s2.fact_count(), 3u);
  EXPECT_FALSE(s1 == s2);
}

TEST_F(ObjectBaseTest, ReplaceVersionDiffsSharedStatesCorrectly) {
  Vid a = versions_.OfOid(symbols_.Symbol("a"));
  MethodId keep = symbols_.Method("keep");
  MethodId touch = symbols_.Method("touch");
  base_.Insert(a, keep, App(symbols_.Int(1)));
  base_.Insert(a, touch, App(symbols_.Int(2)));

  // The step-2 pattern: copy the state, mutate one method, swap it back.
  VersionState next = *base_.StateOf(a);
  next.Erase(touch, App(symbols_.Int(2)));
  next.Insert(touch, App(symbols_.Int(3)));

  DeltaLog diff;
  EXPECT_TRUE(base_.ReplaceVersion(a, std::move(next), &diff));
  // Only the touched method contributes delta facts; the shared `keep`
  // method was skipped by pointer equality.
  ASSERT_EQ(diff.size(), 2u);
  EXPECT_FALSE(diff[0].added);
  EXPECT_EQ(diff[0].method, touch);
  EXPECT_TRUE(diff[1].added);
  EXPECT_EQ(diff[1].method, touch);
  EXPECT_TRUE(base_.Contains(a, keep, App(symbols_.Int(1))));
  EXPECT_TRUE(base_.Contains(a, touch, App(symbols_.Int(3))));
  EXPECT_FALSE(base_.Contains(a, touch, App(symbols_.Int(2))));
}

TEST_F(ObjectBaseTest, AdoptVersionSharesAcrossBases) {
  Vid a = versions_.OfOid(symbols_.Symbol("a"));
  Vid b = versions_.OfOid(symbols_.Symbol("b"));
  MethodId m = symbols_.Method("m");
  base_.Insert(a, m, App(symbols_.Int(1)));
  base_.Insert(a, m, App(symbols_.Int(2)));

  // Rebinding a's state under vid b in another base copies no fact (the
  // BuildNewObjectBase pattern: facts never mention their VID).
  ObjectBase other(symbols_.exists_method(), &versions_);
  DeltaLog diff;
  EXPECT_TRUE(other.AdoptVersion(b, base_.SharedStateOf(a), &diff));
  EXPECT_EQ(diff.size(), 2u);
  EXPECT_EQ(other.fact_count(), 2u);
  EXPECT_TRUE(other.Contains(b, m, App(symbols_.Int(1))));
  ASSERT_NE(other.VidsWithMethod(m), nullptr);
  EXPECT_TRUE(other.VidsWithMethod(m)->Contains(b));

  // Adopted storage is shared until written; a write detaches.
  other.Insert(b, m, App(symbols_.Int(3)));
  EXPECT_FALSE(base_.Contains(a, m, App(symbols_.Int(3))));
  EXPECT_EQ(base_.fact_count(), 2u);

  // Re-adopting an identical handle is a no-op.
  ObjectBase third(symbols_.exists_method(), &versions_);
  EXPECT_TRUE(third.AdoptVersion(b, base_.SharedStateOf(a)));
  EXPECT_FALSE(third.AdoptVersion(b, base_.SharedStateOf(a)));
}

// ---- Bound-result probes -------------------------------------------

/// Collects ForEachAppWithResult's enumeration into a vector.
std::vector<GroundApp> IndexLookup(const VersionState& state, MethodId method,
                                   Oid result, IndexStats* stats = nullptr) {
  std::vector<GroundApp> out;
  Status s = state.ForEachAppWithResult(method, result, stats,
                                        [&](const GroundApp& app) {
                                          out.push_back(app);
                                          return Status::Ok();
                                        });
  EXPECT_TRUE(s.ok()) << s.ToString();
  return out;
}

TEST_F(ObjectBaseTest, ForEachAppWithResultEnumeratesExactlyMatching) {
  Vid a = versions_.OfOid(symbols_.Symbol("a"));
  MethodId m = symbols_.Method("m");
  Oid one = symbols_.Int(1);
  Oid two = symbols_.Int(2);
  Oid hot = symbols_.Symbol("hot");
  Oid cold = symbols_.Symbol("cold");
  base_.Insert(a, m, App(hot, {one}));
  base_.Insert(a, m, App(cold, {one}));
  base_.Insert(a, m, App(hot, {two}));
  base_.Insert(a, m, App(cold));
  base_.Insert(a, m, App(hot));

  IndexStats stats;
  std::vector<GroundApp> hits =
      IndexLookup(*base_.StateOf(a), m, hot, &stats);
  ASSERT_EQ(hits.size(), 3u);
  // Scan order: sorted by args then result, argument-free facts first.
  EXPECT_EQ(hits[0], App(hot));
  EXPECT_EQ(hits[1], App(hot, {one}));
  EXPECT_EQ(hits[2], App(hot, {two}));
  EXPECT_EQ(stats.index_probes, 1u);
  EXPECT_EQ(stats.index_hits, 1u);
  // The binary search skipped the argument-free cold fact; the three
  // argument-bearing facts were scanned.
  EXPECT_EQ(stats.indexed_scan_avoided_facts, 1u);

  // A missing result is a probe without a hit.
  EXPECT_TRUE(IndexLookup(*base_.StateOf(a), m, symbols_.Int(99),
                          &stats).empty());
  EXPECT_EQ(stats.index_probes, 2u);
  EXPECT_EQ(stats.index_hits, 1u);
  EXPECT_EQ(stats.indexed_scan_avoided_facts, 3u);

  // The lookup stays correct after writes move facts in the block.
  base_.Insert(a, m, App(hot, {symbols_.Int(3)}));
  base_.Erase(a, m, App(hot, {one}));
  base_.Erase(a, m, App(hot));
  hits = IndexLookup(*base_.StateOf(a), m, hot);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0], App(hot, {two}));
  EXPECT_EQ(hits[1], App(hot, {symbols_.Int(3)}));
}

TEST_F(ObjectBaseTest, IndexDetachesWithWriterNotWithReader) {
  Vid a = versions_.OfOid(symbols_.Symbol("a"));
  MethodId m = symbols_.Method("m");
  Oid hot = symbols_.Symbol("hot");
  base_.Insert(a, m, App(hot, {symbols_.Int(1)}));
  base_.Insert(a, m, App(hot, {symbols_.Int(2)}));

  ObjectBase copy = base_;
  // Reader probes through the copy: a probe is not a write.
  EXPECT_EQ(IndexLookup(*copy.StateOf(a), m, hot).size(), 2u);
  EXPECT_EQ(copy.SharedStateOf(a), base_.SharedStateOf(a));

  // Writer mutates the original: it detaches; the copy keeps answering
  // from the block it retained.
  base_.Insert(a, m, App(hot, {symbols_.Int(3)}));
  EXPECT_NE(copy.SharedStateOf(a), base_.SharedStateOf(a));
  EXPECT_EQ(IndexLookup(*copy.StateOf(a), m, hot).size(), 2u);
  EXPECT_EQ(IndexLookup(*base_.StateOf(a), m, hot).size(), 3u);
}

TEST_F(ObjectBaseTest, EqualityUsesContentNotStorageIdentity) {
  Vid a = versions_.OfOid(symbols_.Symbol("a"));
  MethodId m = symbols_.Method("m");
  base_.Insert(a, m, App(symbols_.Int(1)));

  ObjectBase shared = base_;           // shares storage
  ObjectBase rebuilt(symbols_.exists_method(), &versions_);
  rebuilt.Insert(a, m, App(symbols_.Int(1)));  // equal, distinct storage
  EXPECT_TRUE(base_ == shared);
  EXPECT_TRUE(base_ == rebuilt);

  rebuilt.Insert(a, m, App(symbols_.Int(2)));
  EXPECT_FALSE(base_ == rebuilt);
}

TEST_F(ObjectBaseTest, HoldsResultSeesFactsWithAndWithoutArguments) {
  // A method mixing argument-free facts (searched) with ones carrying
  // arguments (scanned).
  MethodId m = symbols_.Method("m");
  Oid three = symbols_.Int(3);
  VersionState state;
  state.Insert(m, App(three));
  state.Insert(m, App(symbols_.Int(5)));
  state.Insert(m, App(symbols_.Int(7), {symbols_.Int(1)}));
  state.Insert(m, App(three, {symbols_.Int(2)}));
  EXPECT_TRUE(state.HoldsResult(m, three));
  EXPECT_TRUE(state.HoldsResult(m, symbols_.Int(5)));
  EXPECT_TRUE(state.HoldsResult(m, symbols_.Int(7)));
  EXPECT_FALSE(state.HoldsResult(m, symbols_.Int(4)));
  EXPECT_FALSE(state.HoldsResult(symbols_.Method("other"), three));
  state.Erase(m, App(three));
  EXPECT_TRUE(state.HoldsResult(m, three));  // m@2 -> 3 remains
  state.Erase(m, App(three, {symbols_.Int(2)}));
  EXPECT_FALSE(state.HoldsResult(m, three));
}

TEST_F(ObjectBaseTest, ResultIndexFollowsEveryWritePath) {
  Vid a = versions_.OfOid(symbols_.Symbol("a"));
  Vid b = versions_.OfOid(symbols_.Symbol("b"));
  MethodId m = symbols_.Method("m");
  MethodId other = symbols_.Method("other");
  Oid hot = symbols_.Symbol("hot");
  Oid cold = symbols_.Symbol("cold");
  base_.Insert(a, m, App(hot));
  base_.Insert(b, m, App(cold));
  base_.Insert(b, other, App(hot));
  EXPECT_EQ(base_.ResultIndexOf(m), nullptr);

  auto listed = [&](const ObjectBase& base, Oid result) {
    std::vector<Vid> out;
    const ObjectBase::VidSet* vids = base.ResultIndexOf(m)->Find(result);
    if (vids != nullptr) {
      for (Vid vid : *vids) out.push_back(vid);
    }
    return out;
  };
  base_.IndexResults(m);
  ASSERT_NE(base_.ResultIndexOf(m), nullptr);
  EXPECT_EQ(base_.ResultIndexOf(other), nullptr);
  EXPECT_EQ(listed(base_, hot), std::vector<Vid>{a});
  EXPECT_EQ(listed(base_, cold), std::vector<Vid>{b});

  // Insert and Erase; a copy keeps what it saw.
  const ObjectBase before = base_;
  base_.Insert(b, m, App(hot));
  base_.Erase(a, m, App(hot));
  EXPECT_EQ(listed(base_, hot), std::vector<Vid>{b});
  EXPECT_EQ(listed(before, hot), std::vector<Vid>{a});

  // ReplaceVersion and AdoptVersion go through one install path.
  VersionState next;
  next.Insert(m, App(cold));
  base_.ReplaceVersion(a, std::move(next));
  EXPECT_EQ(listed(base_, cold), (std::vector<Vid>{a, b}));
  base_.AdoptVersion(b, nullptr);
  EXPECT_EQ(listed(base_, cold), std::vector<Vid>{a});
  EXPECT_TRUE(listed(base_, hot).empty());
  base_.AdoptVersion(b, before.SharedStateOf(b));
  EXPECT_EQ(listed(base_, cold), (std::vector<Vid>{a, b}));
  EXPECT_EQ(listed(before, cold), std::vector<Vid>{b});

  // Derived state: equality ignores it.
  ObjectBase plain(symbols_.exists_method(), &versions_);
  for (const auto& [vid, state] : base_.versions()) {
    plain.ReplaceVersion(vid, *state);
  }
  EXPECT_EQ(plain.ResultIndexOf(m), nullptr);
  EXPECT_TRUE(plain == base_);
}

}  // namespace
}  // namespace verso
