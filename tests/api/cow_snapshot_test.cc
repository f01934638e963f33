// Copy-on-write structural sharing across the facade: pinned snapshots
// and view results must be bit-stable while the live base keeps
// committing (detach-before-write), Pin must stay keyed on view DDL as
// well as the commit epoch, and subscription deltas must carry the
// triggering batch member's own epoch.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "api/api.h"
#include "core/pretty.h"

namespace verso {
namespace {

std::unique_ptr<Connection> MemConnection() {
  Result<std::unique_ptr<Connection>> conn = Connection::OpenInMemory();
  EXPECT_TRUE(conn.ok()) << conn.status().ToString();
  return std::move(conn).value();
}

std::string Dump(const Connection& conn, const ObjectBase& base) {
  return ObjectBaseToString(base, conn.symbols(), conn.versions());
}

constexpr const char* kBase =
    "x.isa -> empl. x.sal -> 2000. x.dept -> eng. x.tag -> a. x.tag -> b. "
    "y.isa -> empl. y.sal -> 500. "
    "z.isa -> dept. z.head -> y.";

constexpr const char* kRichView =
    "CREATE VIEW rich AS derive X.rich -> yes <- X.sal -> S, S > 1000.";

TEST(CowSnapshotTest, PinSharesStateWithTheCommittedBase) {
  std::unique_ptr<Connection> conn = MemConnection();
  ASSERT_TRUE(conn->ImportText(kBase).ok());
  std::unique_ptr<Session> session = conn->OpenSession();

  // The pinned base is a structural copy: every version's state handle
  // is shared with db.current() — pinning copied no fact.
  const ObjectBase& live = conn->database().current();
  const ObjectBase& pinned = session->base();
  EXPECT_EQ(pinned.fact_count(), live.fact_count());
  for (const auto& [vid, state] : live.versions()) {
    EXPECT_EQ(pinned.SharedStateOf(vid), state);
  }
}

/// A write's committed delta as sorted "+fact" / "-fact" lines.
std::vector<std::string> DeltaLines(ResultSet& rs) {
  std::vector<std::string> lines;
  while (rs.Next()) {
    lines.push_back((rs.added() ? "+" : "-") + rs.RowToString());
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

constexpr const char* kRaiseX =
    "t: mod[x].sal -> (S, S2) <- x.sal -> S, S2 = S + 1.";

TEST(CowSnapshotTest, FirstCommitAfterImportSealsEveryObject) {
  // kBase carries no exists facts. The first commit adds one per object
  // on top of its own change; from then on a commit's delta holds only
  // what the program changed.
  std::unique_ptr<Connection> conn = MemConnection();
  ASSERT_TRUE(conn->ImportText(kBase).ok());
  std::unique_ptr<Session> session = conn->OpenSession();
  Result<ResultSet> first = session->Execute(kRaiseX);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(DeltaLines(*first),
            (std::vector<std::string>{
                "+x.exists -> x.", "+x.sal -> 2001.", "+y.exists -> y.",
                "+z.exists -> z.", "-x.sal -> 2000."}));
  Result<ResultSet> second = session->Execute(kRaiseX);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(DeltaLines(*second),
            (std::vector<std::string>{"+x.sal -> 2002.", "-x.sal -> 2001."}));
}

TEST(CowSnapshotTest, CommitKeepsUntouchedStatesSharedWithThePin) {
  std::unique_ptr<Connection> conn = MemConnection();
  ASSERT_TRUE(conn->ImportText(kBase).ok());
  std::unique_ptr<Session> writer = conn->OpenSession();
  ASSERT_TRUE(writer->Execute(kRaiseX).ok());  // seals the base

  // A reader pins the sealed base; the writer then commits a change to x
  // alone. Every other object's state in the new committed base is the
  // very handle the pin holds.
  std::unique_ptr<Session> reader = conn->OpenSession();
  const ObjectBase& pinned = reader->base();
  ASSERT_TRUE(writer->Execute(kRaiseX).ok());
  const ObjectBase& live = conn->database().current();
  Vid x = conn->engine().versions().OfOid(
      conn->engine().symbols().Symbol("x"));
  size_t untouched = 0;
  for (const auto& [vid, state] : pinned.versions()) {
    if (vid == x) {
      EXPECT_NE(live.SharedStateOf(vid), state);
      continue;
    }
    EXPECT_EQ(live.SharedStateOf(vid), state);
    ++untouched;
  }
  EXPECT_EQ(untouched, 2u);
}

TEST(CowSnapshotTest, PinnedReadersAreImmuneToLaterCommits) {
  std::unique_ptr<Connection> conn = MemConnection();
  ASSERT_TRUE(conn->ImportText(kBase).ok());
  std::unique_ptr<Session> writer = conn->OpenSession();
  ASSERT_TRUE(writer->Execute(kRichView).ok());

  std::unique_ptr<Session> reader = conn->OpenSession();
  const std::string base_before = Dump(*conn, reader->base());
  Result<const ObjectBase*> view = reader->ViewSnapshot("rich");
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  const std::string view_before = Dump(*conn, **view);

  // Mutate the live base through the shared state: a modify on y and a
  // del[x].* fan-out, which derives one delete per fact of x's state —
  // the heaviest write-through-shared-storage case (every touched
  // method vector must detach, none may write through to the pin).
  ASSERT_TRUE(
      writer->Execute("t: mod[y].sal -> (S, S2) <- y.sal -> S, S2 = S + 1.")
          .ok());
  ASSERT_TRUE(writer->Execute("t: del[x].* <- x.isa -> empl.").ok());

  // The reader's pinned images are bit-identical to their pin time.
  EXPECT_EQ(Dump(*conn, reader->base()), base_before);
  Result<const ObjectBase*> view_again = reader->ViewSnapshot("rich");
  ASSERT_TRUE(view_again.ok());
  EXPECT_EQ(Dump(*conn, **view_again), view_before);
  EXPECT_NE(base_before.find("x.sal -> 2000"), std::string::npos);

  // The live state moved on: x vanished (all information deleted), y got
  // its raise, and a fresh session sees exactly that.
  std::unique_ptr<Session> fresh = conn->OpenSession();
  const std::string now = Dump(*conn, fresh->base());
  EXPECT_EQ(now.find("x."), std::string::npos);
  EXPECT_NE(now.find("y.sal -> 501"), std::string::npos);
}

TEST(CowSnapshotTest, SubscribedViewDeltasSurviveLaterCommits) {
  std::unique_ptr<Connection> conn = MemConnection();
  ASSERT_TRUE(conn->ImportText(kBase).ok());
  std::unique_ptr<Session> session = conn->OpenSession();
  ASSERT_TRUE(session->Execute(kRichView).ok());

  // Replaying the subscription stream over a pinned copy of the view
  // result must land on the live result even though the pinned copy
  // shares storage with a base that keeps being rewritten underneath.
  session->Refresh();
  std::vector<DeltaLog> stream;
  Result<uint64_t> sub = session->Subscribe(
      "rich", [&](const ViewDelta& d) { stream.push_back(d.facts); });
  ASSERT_TRUE(sub.ok());
  Result<const ObjectBase*> seed = session->ViewSnapshot("rich");
  ASSERT_TRUE(seed.ok());
  ObjectBase replay = **seed;  // shared at first, detached by the replay

  ASSERT_TRUE(
      session->Execute("t: mod[y].sal -> (S, S2) <- y.sal -> S, S2 = S * 4.")
          .ok());
  ASSERT_TRUE(session->Execute("t: del[x].* <- x.isa -> empl.").ok());

  for (const DeltaLog& facts : stream) {
    for (const DeltaFact& fact : facts) {
      if (fact.added) {
        replay.Insert(fact.vid, fact.method, fact.app);
      } else {
        replay.Erase(fact.vid, fact.method, fact.app);
      }
    }
  }
  EXPECT_EQ(Dump(*conn, replay),
            Dump(*conn, conn->catalog().Find("rich")->result()));
}

TEST(CowSnapshotTest, BatchMembersStampTheirOwnEpochOnViewDeltas) {
  std::unique_ptr<Connection> conn = MemConnection();
  ASSERT_TRUE(conn->ImportText(kBase).ok());
  std::unique_ptr<Session> session = conn->OpenSession();
  ASSERT_TRUE(session->Execute(kRichView).ok());

  std::vector<uint64_t> delta_epochs;
  Result<uint64_t> sub = session->Subscribe(
      "rich", [&](const ViewDelta& d) { delta_epochs.push_back(d.epoch); });
  ASSERT_TRUE(sub.ok());

  Result<Statement> s1 =
      session->Prepare("t: ins[z].note -> one <- z.isa -> dept.");
  Result<Statement> s2 =
      session->Prepare("t: mod[y].sal -> (S, S2) <- y.sal -> S, S2 = S + 7.");
  Result<Statement> s3 =
      session->Prepare("t: ins[z].note -> two <- z.isa -> dept.");
  ASSERT_TRUE(s1.ok() && s2.ok() && s3.ok());
  Result<std::vector<ResultSet>> rs =
      session->ExecuteBatch({&*s1, &*s2, &*s3});
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->size(), 3u);

  // One view delta per member, stamped with that member's OWN commit
  // epoch — not the batch's final epoch at delivery time.
  ASSERT_EQ(delta_epochs.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(delta_epochs[i], (*rs)[i].epoch()) << "member " << i;
  }
  EXPECT_LT(delta_epochs[0], delta_epochs[1]);
  EXPECT_LT(delta_epochs[1], delta_epochs[2]);
}

TEST(CowSnapshotTest, ViewDdlBetweenCommitsInvalidatesTheCachedSnapshot) {
  std::unique_ptr<Connection> conn = MemConnection();
  ASSERT_TRUE(conn->ImportText(kBase).ok());

  // Build and cache a snapshot at the current epoch.
  std::unique_ptr<Session> first = conn->OpenSession();
  EXPECT_FALSE(first->ViewSnapshot("rich").ok());

  // Register a view through the catalog escape hatch — the path that
  // bypasses Connection::CreateView and its InvalidateSnapshot call.
  // CREATE VIEW does not advance the commit epoch, so only the DDL
  // generation can tell the cached snapshot is stale.
  ASSERT_TRUE(conn->catalog()
                  .RegisterText("rich",
                                "derive X.rich -> yes <- X.sal -> S, "
                                "S > 1000.",
                                conn->database().current())
                  .ok());
  std::unique_ptr<Session> second = conn->OpenSession();
  EXPECT_TRUE(second->ViewSnapshot("rich").ok())
      << "cached snapshot served a stale view set (missing CREATE VIEW)";

  // And the dual: a drop through the escape hatch must not leave the
  // dropped view servable from the cache.
  ASSERT_TRUE(conn->catalog().Drop("rich").ok());
  std::unique_ptr<Session> third = conn->OpenSession();
  EXPECT_FALSE(third->ViewSnapshot("rich").ok())
      << "cached snapshot served a dropped view";

  // The first session's pin predates the DDL and legitimately keeps its
  // view-less world view.
  EXPECT_FALSE(first->ViewSnapshot("rich").ok());
}

}  // namespace
}  // namespace verso
