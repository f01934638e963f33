// The verso::Connection / Session / Statement / ResultSet facade: the
// unified statement grammar, snapshot-isolated reads, prepared-statement
// reuse, view DDL, subscriptions, and the persistent round-trip.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "api/api.h"
#include "core/pretty.h"
#include "util/fault_env.h"

namespace verso {
namespace {

std::unique_ptr<Connection> MemConnection() {
  Result<std::unique_ptr<Connection>> conn = Connection::OpenInMemory();
  EXPECT_TRUE(conn.ok()) << conn.status().ToString();
  return std::move(conn).value();
}

/// True iff `object.method -> result` (a symbol) is in `base`.
bool Holds(const Connection& conn, const ObjectBase& base, const char* object,
           const char* method, const char* result) {
  const SymbolTable& symbols = conn.symbols();
  Oid oid = symbols.FindSymbol(object);
  MethodId m = symbols.FindMethod(method);
  Oid r = symbols.FindSymbol(result);
  if (!oid.valid() || !m.valid() || !r.valid()) return false;
  // Depth-0 VIDs coincide with OIDs, so rendering the VID of `object`
  // needs no table mutation: scan the method index instead.
  const auto* vids = base.VidsWithMethod(m);
  if (vids == nullptr) return false;
  for (Vid vid : *vids) {
    const VersionState* state = base.StateOf(vid);
    const std::vector<GroundApp>* apps = state->Find(m);
    if (apps == nullptr) continue;
    for (const GroundApp& app : *apps) {
      if (app.result == r && app.args.empty() &&
          base.version_table()->ToString(vid, symbols) == object) {
        return true;
      }
    }
  }
  return false;
}

TEST(ApiStatementTest, PrepareClassifiesTheUnifiedGrammar) {
  std::unique_ptr<Connection> conn = MemConnection();
  std::unique_ptr<Session> session = conn->OpenSession();

  struct Case {
    const char* text;
    Statement::Kind kind;
  };
  const std::vector<Case> cases = {
      {"t: ins[ann].sal -> 100.", Statement::Kind::kUpdate},
      {"mod[E].sal -> (S, S2) <- E.sal -> S, S2 = S + 1.",
       Statement::Kind::kUpdate},
      {"derive X.rich -> yes <- X.sal -> S, S > 10.",
       Statement::Kind::kQuery},
      {"q: derive X.rich -> yes <- X.sal -> S, S > 10.",
       Statement::Kind::kQuery},
      {"CREATE VIEW rich AS derive X.rich -> yes <- X.sal -> S, S > 10.",
       Statement::Kind::kCreateView},
      {"create view rich as derive X.rich -> yes <- X.sal -> S, S > 10.",
       Statement::Kind::kCreateView},
      {"DROP VIEW rich", Statement::Kind::kDropView},
      {"drop view rich.", Statement::Kind::kDropView},
      {"QUERY rich", Statement::Kind::kQueryView},
      {"% comment first\n  query rich.", Statement::Kind::kQueryView},
      // Leading keywords used as rule labels stay program text.
      {"query: ins[ann].sal -> 100.", Statement::Kind::kUpdate},
      {"create: ins[ann].sal -> 100.", Statement::Kind::kUpdate},
      {"derive: ins[ann].sal -> 100.", Statement::Kind::kUpdate},
  };
  for (const Case& c : cases) {
    Result<Statement> stmt = session->Prepare(c.text);
    ASSERT_TRUE(stmt.ok()) << c.text << ": " << stmt.status().ToString();
    EXPECT_EQ(stmt->kind(), c.kind) << c.text;
  }

  EXPECT_FALSE(session->Prepare("create view rich").ok());
  EXPECT_FALSE(session->Prepare("create table rich as x").ok());
  EXPECT_FALSE(session->Prepare("query").ok());
  EXPECT_FALSE(session->Prepare("drop view").ok());
  EXPECT_FALSE(session->Prepare("query rich trailing").ok());
  EXPECT_FALSE(session->Prepare("complete garbage !!").ok());
}

TEST(ApiWriteTest, CommitExposesDeltaStatsAndEpoch) {
  std::unique_ptr<Connection> conn = MemConnection();
  ASSERT_TRUE(conn->ImportText("ann.isa -> empl. ann.sal -> 100.").ok());
  EXPECT_EQ(conn->epoch(), 1u);

  std::unique_ptr<Session> session = conn->OpenSession();
  Result<ResultSet> rs = session->Execute(
      "t: mod[ann].sal -> (S, S2) <- ann.sal -> S, S2 = S * 2.");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->kind(), ResultSet::Kind::kWrite);
  EXPECT_EQ(rs->epoch(), 2u);
  EXPECT_EQ(conn->epoch(), 2u);
  EXPECT_EQ(session->epoch(), 2u);  // a session reads its own commit

  // The committed delta: sal 100 removed, sal 200 added.
  bool saw_remove = false, saw_add = false;
  while (rs->Next()) {
    if (rs->method() != "sal") continue;
    ASSERT_TRUE(rs->result_is_number());
    if (!rs->added() && rs->result_number() == Numeric::FromInt(100)) {
      saw_remove = true;
      EXPECT_EQ(rs->object(), "ann");
      EXPECT_EQ(rs->arg_count(), 0u);
    }
    if (rs->added() && rs->result_number() == Numeric::FromInt(200)) {
      saw_add = true;
    }
  }
  EXPECT_TRUE(saw_remove);
  EXPECT_TRUE(saw_add);

  // Write introspection is present; query introspection is not.
  EXPECT_NE(rs->eval_stats(), nullptr);
  EXPECT_NE(rs->stratification(), nullptr);
  EXPECT_NE(rs->update_result(), nullptr);
  EXPECT_EQ(rs->query_stats(), nullptr);

  // Cursor protocol: Rewind re-reads from the start.
  rs->Rewind();
  size_t rows = 0;
  while (rs->Next()) ++rows;
  EXPECT_EQ(rows, rs->size());
}

TEST(ApiWriteTest, IndexCountersMoveOnAnIndexedWorkload) {
  std::unique_ptr<Connection> conn = MemConnection();
  // Every object carries several `likes` facts, so a bound-result body
  // literal has real scanning to avoid.
  std::string facts;
  for (int i = 0; i < 16; ++i) {
    std::string name = "p" + std::to_string(i);
    facts += name + ".isa -> fan. ";
    facts += name + ".likes -> jazz. ";
    facts += name + ".likes -> g" + std::to_string(i % 5) + ". ";
    facts += name + ".likes -> h" + std::to_string(i % 7) + ". ";
  }
  ASSERT_TRUE(conn->ImportText(facts).ok());

  std::unique_ptr<Session> session = conn->OpenSession();
  Result<ResultSet> rs = session->Execute(
      "t: ins[E].tag -> hot <- E.isa -> fan, E.likes -> jazz.");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();

  // The bound-result literal (likes -> jazz) probed the result index
  // once per candidate, hit every time, and skipped the other likes
  // facts a full scan would have visited.
  const EvalStats* stats = rs->eval_stats();
  ASSERT_NE(stats, nullptr);
  EXPECT_GE(stats->total_index_probes(), 16u);
  EXPECT_GE(stats->total_index_hits(), 16u);
  EXPECT_GE(stats->total_indexed_scan_avoided_facts(), 32u);
  EXPECT_GE(stats->total_index_probes(), stats->total_index_hits());
}

TEST(ApiTraceTest, SetTraceReachesEvaluationViewsAndFaultsThenLetsGo) {
  FaultInjectingEnv env;
  ConnectionOptions options;
  options.env = &env;
  options.retry_backoff_us = 0;
  Result<std::unique_ptr<Connection>> opened = Connection::Open("/db", options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Connection& conn = **opened;
  std::unique_ptr<Session> session = conn.OpenSession();
  ASSERT_TRUE(session->Execute("t: ins[ann].sal -> 1000.").ok());
  ASSERT_TRUE(session
                  ->Execute("CREATE VIEW rich AS "
                            "q: derive X.rich -> yes <- X.sal -> S, S > 1500.")
                  .ok());

  // Each commit below meets one transient WAL-append failure and retries
  // to success, so the connection stays writable.
  FaultInjectingEnv::FaultPlan flaky;
  flaky.fail_at = 0;
  flaky.kind = FaultInjectingEnv::FaultKind::kTransient;
  flaky.filter = FaultInjectingEnv::OpFilter::kAppend;
  const char* const raise =
      "raise: mod[E].sal -> (S, S2) <- E.sal -> S, S2 = S * 2.";
  {
    // Wired after CREATE VIEW: the view reads the catalog's sink when it
    // maintains, so it reports to this one too.
    RecordingTrace trace(conn.symbols(), conn.versions());
    conn.SetTrace(&trace);
    env.SetPlan(flaky);
    ASSERT_TRUE(session->Execute(raise).ok());
    conn.SetTrace(nullptr);
    const std::string text = trace.ToString();
    EXPECT_NE(text.find("stratum 0 (1 rules)"), std::string::npos) << text;
    EXPECT_NE(text.find("raise derives"), std::string::npos) << text;
    EXPECT_NE(text.find("view rich: 2 delta fact(s) -> +1/-0"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("storage fault on wal-append (attempt 0)"),
              std::string::npos)
        << text;
  }
  // The sink is destroyed: further commits, view maintenance and faults
  // must not touch it (AddressSanitizer reports a stale pointer here).
  env.SetPlan(flaky);
  ASSERT_TRUE(session->Execute(raise).ok());
  ASSERT_TRUE(session->Execute("t: ins[bob].sal -> 9000.").ok());
  EXPECT_TRUE(conn.health().ok());
  EXPECT_EQ(conn.storage_stats().retries, 2u);
  Result<ViewStats> stats = conn.GetViewStats("rich");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->maintenance_runs, 3u);
}

TEST(ApiWriteTest, PreparedStatementIsReusable) {
  std::unique_ptr<Connection> conn = MemConnection();
  ASSERT_TRUE(conn->ImportText("ann.sal -> 100.").ok());
  std::unique_ptr<Session> session = conn->OpenSession();

  Result<Statement> raise = session->Prepare(
      "t: mod[ann].sal -> (S, S2) <- ann.sal -> S, S2 = S + 1.");
  ASSERT_TRUE(raise.ok());
  for (int i = 0; i < 5; ++i) {
    Result<ResultSet> rs = raise->Execute();
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  }
  EXPECT_EQ(conn->epoch(), 6u);  // import + five raises
  // The value is numeric; verify through a query over the snapshot.
  Result<ResultSet> rs =
      session->Execute("derive X.high -> yes <- X.sal -> S, S > 104.");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->size(), 1u);
}

TEST(ApiQueryTest, AdHocDeriveReadsTheSnapshot) {
  std::unique_ptr<Connection> conn = MemConnection();
  ASSERT_TRUE(conn->ImportText(R"(
      ann.boss -> bob.   bob.boss -> eve.
  )").ok());
  std::unique_ptr<Session> session = conn->OpenSession();

  Result<Statement> chain = session->Prepare(
      "q1: derive X.chain -> Y <- X.boss -> Y."
      "q2: derive X.chain -> Z <- X.chain -> Y, Y.boss -> Z.");
  ASSERT_TRUE(chain.ok()) << chain.status().ToString();
  Result<ResultSet> rs = chain->Execute();
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->kind(), ResultSet::Kind::kQuery);
  EXPECT_EQ(rs->size(), 3u);  // ann->bob, ann->eve, bob->eve
  EXPECT_NE(rs->query_stats(), nullptr);
  EXPECT_EQ(rs->eval_stats(), nullptr);

  // The query derived nothing into the committed base.
  std::unique_ptr<Session> fresh = conn->OpenSession();
  EXPECT_FALSE(conn->symbols().FindMethod("chain").valid() &&
               fresh->base().VidsWithMethod(
                   conn->symbols().FindMethod("chain")) != nullptr);
}

TEST(ApiViewTest, CreateQueryDropLifecycle) {
  std::unique_ptr<Connection> conn = MemConnection();
  ASSERT_TRUE(conn->ImportText("ann.sal -> 2000. bob.sal -> 9000.").ok());
  std::unique_ptr<Session> session = conn->OpenSession();

  ASSERT_TRUE(session->Execute(
      "CREATE VIEW rich AS "
      "derive X.rich -> yes <- X.sal -> S, S > 5000.").ok());
  EXPECT_EQ(conn->view_names(), std::vector<std::string>{"rich"});
  EXPECT_TRUE(conn->ViewHealth("rich").ok());

  Result<ResultSet> rs = session->Execute("QUERY rich");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->kind(), ResultSet::Kind::kView);
  ASSERT_EQ(rs->size(), 1u);
  ASSERT_TRUE(rs->Next());
  EXPECT_EQ(rs->object(), "bob");
  EXPECT_EQ(rs->method(), "rich");
  EXPECT_EQ(rs->result_text(), "yes");
  EXPECT_EQ(rs->RowToString(), "bob.rich -> yes.");

  // A commit crossing the bar maintains the view; QUERY sees it after the
  // session's own write re-pins.
  ASSERT_TRUE(session->Execute(
      "t: mod[ann].sal -> (S, S2) <- ann.sal -> S, S2 = S * 4.").ok());
  rs = session->Execute("QUERY rich");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->size(), 2u);

  Result<ViewStats> stats = conn->GetViewStats("rich");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->maintenance_runs, 1u);
  EXPECT_EQ(stats->facts_added, 1u);

  // Duplicate registration fails; DROP removes; QUERY then misses.
  EXPECT_FALSE(session->Execute(
      "CREATE VIEW rich AS derive X.rich -> yes <- X.sal -> S, S > 1.").ok());
  ASSERT_TRUE(session->Execute("DROP VIEW rich").ok());
  EXPECT_TRUE(conn->view_names().empty());
  Result<ResultSet> gone = session->Execute("QUERY rich");
  EXPECT_FALSE(gone.ok());
  EXPECT_EQ(gone.status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(session->Execute("DROP VIEW rich").ok());
}

TEST(ApiSnapshotTest, ReadersAreIsolatedFromLaterCommits) {
  std::unique_ptr<Connection> conn = MemConnection();
  ASSERT_TRUE(conn->ImportText("ann.pos -> clerk.").ok());
  ASSERT_TRUE(conn->OpenSession()->Execute(
      "CREATE VIEW mgrs AS "
      "derive X.mgr -> yes <- X.pos -> mgr.").ok());

  std::unique_ptr<Session> reader = conn->OpenSession();
  uint64_t pinned = reader->epoch();
  Result<const ObjectBase*> view0 = reader->ViewSnapshot("mgrs");
  ASSERT_TRUE(view0.ok());
  std::string before = ObjectBaseToString(**view0, conn->symbols(),
                                          conn->versions());

  std::unique_ptr<Session> writer = conn->OpenSession();
  ASSERT_TRUE(writer->Execute(
      "t: mod[ann].pos -> (clerk, mgr).").ok());

  // The writer sees its commit; the reader still reads the pinned epoch.
  EXPECT_TRUE(Holds(*conn, writer->base(), "ann", "pos", "mgr"));
  EXPECT_TRUE(Holds(*conn, reader->base(), "ann", "pos", "clerk"));
  EXPECT_EQ(reader->epoch(), pinned);
  Result<ResultSet> rs = reader->Execute("QUERY mgrs");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->size(), 0u);
  Result<const ObjectBase*> view1 = reader->ViewSnapshot("mgrs");
  ASSERT_TRUE(view1.ok());
  EXPECT_EQ(ObjectBaseToString(**view1, conn->symbols(), conn->versions()),
            before);

  // Refresh re-pins: the reader now sees the commit and the view delta.
  reader->Refresh();
  EXPECT_GT(reader->epoch(), pinned);
  EXPECT_TRUE(Holds(*conn, reader->base(), "ann", "pos", "mgr"));
  rs = reader->Execute("QUERY mgrs");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->size(), 1u);
}

TEST(ApiSubscriptionTest, DeliversEpochTaggedViewDeltas) {
  std::unique_ptr<Connection> conn = MemConnection();
  ASSERT_TRUE(conn->ImportText("ann.sal -> 100. bob.sal -> 9000.").ok());
  std::unique_ptr<Session> session = conn->OpenSession();
  ASSERT_TRUE(session->Execute(
      "CREATE VIEW rich AS "
      "derive X.rich -> yes <- X.sal -> S, S > 5000.").ok());

  std::vector<ViewDelta> events;
  Result<uint64_t> sub = session->Subscribe(
      "rich", [&](const ViewDelta& delta) { events.push_back(delta); });
  ASSERT_TRUE(sub.ok()) << sub.status().ToString();
  EXPECT_FALSE(session->Subscribe("nosuch", [](const ViewDelta&) {}).ok());

  ASSERT_TRUE(session->Execute(
      "t: mod[ann].sal -> (S, S2) <- ann.sal -> S, S2 = S * 100.").ok());
  ASSERT_TRUE(session->Execute(
      "t: mod[bob].sal -> (S, S2) <- bob.sal -> S, S2 = S - 8000.").ok());

  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].view, "rich");
  EXPECT_EQ(events[1].epoch, events[0].epoch + 1);
  EXPECT_EQ(events[1].epoch, conn->epoch());
  // Commit 1: ann's sal base change + ann.rich gained.
  bool gained = false;
  for (const DeltaFact& fact : events[0].facts) {
    if (fact.method == conn->symbols().FindMethod("rich")) {
      EXPECT_TRUE(fact.added);
      gained = true;
    }
  }
  EXPECT_TRUE(gained);
  // Commit 2: bob.rich lost.
  bool lost = false;
  for (const DeltaFact& fact : events[1].facts) {
    if (fact.method == conn->symbols().FindMethod("rich") && !fact.added) {
      lost = true;
    }
  }
  EXPECT_TRUE(lost);

  // Unsubscribe stops delivery; a second Unsubscribe reports NotFound.
  ASSERT_TRUE(session->Unsubscribe(*sub).ok());
  EXPECT_FALSE(session->Unsubscribe(*sub).ok());
  ASSERT_TRUE(session->Execute(
      "t: mod[ann].sal -> (S, S2) <- ann.sal -> S, S2 = S + 1.").ok());
  EXPECT_EQ(events.size(), 2u);

  // A closed session's subscriptions die with it.
  {
    std::unique_ptr<Session> other = conn->OpenSession();
    ASSERT_TRUE(other
                    ->Subscribe("rich",
                                [&](const ViewDelta& delta) {
                                  events.push_back(delta);
                                })
                    .ok());
  }
  ASSERT_TRUE(session->Execute(
      "t: mod[ann].sal -> (S, S2) <- ann.sal -> S, S2 = S + 1.").ok());
  EXPECT_EQ(events.size(), 2u);

  // DROP VIEW cancels its subscriptions: a same-named CREATE VIEW later
  // is a NEW view and must not revive the old stream.
  ASSERT_TRUE(session
                  ->Subscribe("rich",
                              [&](const ViewDelta& delta) {
                                events.push_back(delta);
                              })
                  .ok());
  ASSERT_TRUE(session->Execute("DROP VIEW rich").ok());
  ASSERT_TRUE(session->Execute(
      "CREATE VIEW rich AS "
      "derive X.rich -> yes <- X.sal -> S, S > 1.").ok());
  ASSERT_TRUE(session->Execute(
      "t: mod[ann].sal -> (S, S2) <- ann.sal -> S, S2 = S + 1.").ok());
  EXPECT_EQ(events.size(), 2u);
}

TEST(ApiSubscriptionTest, UnsubscribeInsideCallbackIsSafe) {
  std::unique_ptr<Connection> conn = MemConnection();
  ASSERT_TRUE(conn->ImportText("ann.sal -> 100.").ok());
  std::unique_ptr<Session> session = conn->OpenSession();
  ASSERT_TRUE(session->Execute(
      "CREATE VIEW rich AS "
      "derive X.rich -> yes <- X.sal -> S, S > 5000.").ok());

  // A one-shot subscriber cancels itself from inside its own callback.
  int fired = 0;
  uint64_t id = 0;
  Result<uint64_t> sub = session->Subscribe(
      "rich", [&](const ViewDelta&) {
        ++fired;
        EXPECT_TRUE(session->Unsubscribe(id).ok());
      });
  ASSERT_TRUE(sub.ok());
  id = *sub;
  ASSERT_TRUE(session->Execute(
      "t: mod[ann].sal -> (S, S2) <- ann.sal -> S, S2 = S + 1.").ok());
  ASSERT_TRUE(session->Execute(
      "t: mod[ann].sal -> (S, S2) <- ann.sal -> S, S2 = S + 1.").ok());
  EXPECT_EQ(fired, 1);
}

TEST(ApiBatchTest, ExecuteBatchGroupCommits) {
  std::string dir = ::testing::TempDir() + "/verso_api_batch";
  std::filesystem::remove_all(dir);
  Result<std::unique_ptr<Connection>> conn = Connection::Open(dir);
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  ASSERT_TRUE((*conn)->ImportText("a.sal -> 100.").ok());
  size_t records = (*conn)->wal_records_since_checkpoint();

  std::unique_ptr<Session> session = (*conn)->OpenSession();
  Result<Statement> s1 = session->Prepare(
      "t: mod[a].sal -> (S, S2) <- a.sal -> S, S2 = S + 1.");
  Result<Statement> s2 = session->Prepare("t: ins[b].sal -> 7.");
  ASSERT_TRUE(s1.ok() && s2.ok());
  Result<std::vector<ResultSet>> out =
      session->ExecuteBatch({&*s1, &*s2});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->size(), 2u);
  // One WAL record for the whole group; two epochs, and each result is
  // tagged with its OWN transaction's commit epoch.
  EXPECT_EQ((*conn)->wal_records_since_checkpoint(), records + 1);
  EXPECT_EQ((*conn)->epoch(), 3u);
  EXPECT_FALSE((*out)[0].empty());
  EXPECT_FALSE((*out)[1].empty());
  EXPECT_EQ((*out)[0].epoch(), 2u);
  EXPECT_EQ((*out)[1].epoch(), 3u);

  // Non-update statements are rejected up front.
  Result<Statement> q = session->Prepare("QUERY nosuch");
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(session->ExecuteBatch({&*q}).ok());
}

TEST(ApiPersistenceTest, ReopenRecoversCommittedState) {
  std::string dir = ::testing::TempDir() + "/verso_api_reopen";
  std::filesystem::remove_all(dir);
  {
    Result<std::unique_ptr<Connection>> conn = Connection::Open(dir);
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE((*conn)->ImportText("ann.sal -> 100.").ok());
    std::unique_ptr<Session> session = (*conn)->OpenSession();
    ASSERT_TRUE(session->Execute(
        "t: mod[ann].sal -> (S, S2) <- ann.sal -> S, S2 = S * 3.").ok());
    ASSERT_TRUE((*conn)->Checkpoint().ok());
  }
  {
    Result<std::unique_ptr<Connection>> conn = Connection::Open(dir);
    ASSERT_TRUE(conn.ok());
    EXPECT_EQ((*conn)->epoch(), 0u);  // epochs count commits since open
    std::unique_ptr<Session> session = (*conn)->OpenSession();
    Result<ResultSet> rs = session->Execute(
        "derive X.high -> yes <- X.sal -> S, S > 299.");
    ASSERT_TRUE(rs.ok());
    EXPECT_EQ(rs->size(), 1u);
  }
}

TEST(ApiObserverFailureTest, PoisonedViewSurfacesButCommitStands) {
  std::unique_ptr<Connection> conn = MemConnection();
  ASSERT_TRUE(conn->ImportText("ann.sal -> 100.").ok());
  std::unique_ptr<Session> session = conn->OpenSession();
  ASSERT_TRUE(session->Execute(
      "CREATE VIEW rich AS "
      "derive X.rich -> yes <- X.sal -> S, S > 5000.").ok());

  // A base transaction writing the view's derived method poisons the
  // view; the commit itself is installed (kObserverFailed contract).
  Result<ResultSet> rs = session->Execute("t: ins[ann].rich -> oops.");
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), StatusCode::kObserverFailed);
  EXPECT_FALSE(conn->ViewHealth("rich").ok());
  // The session re-pinned past its own (durable) commit.
  MethodId rich = conn->symbols().FindMethod("rich");
  EXPECT_NE(session->base().VidsWithMethod(rich), nullptr);
  // The poisoned view is no longer served in snapshots.
  EXPECT_FALSE(session->ViewSnapshot("rich").ok());
  // Drop and re-create to recover.
  ASSERT_FALSE(session->Execute("QUERY rich").ok());
  ASSERT_TRUE(session->Execute("DROP VIEW rich").ok());
}

TEST(ApiSnapshotTest, SessionsBetweenCommitsShareOneSnapshot) {
  std::unique_ptr<Connection> conn = MemConnection();
  ASSERT_TRUE(conn->ImportText("a.m -> 1.").ok());
  std::unique_ptr<Session> s1 = conn->OpenSession();
  std::unique_ptr<Session> s2 = conn->OpenSession();
  // Same epoch, same retained image (refcounted, not re-copied).
  EXPECT_EQ(&s1->base(), &s2->base());
  ASSERT_TRUE(s2->Execute("t: ins[b].m -> 2.").ok());
  EXPECT_NE(&s1->base(), &s2->base());  // writer re-pinned, reader kept
}

}  // namespace
}  // namespace verso
