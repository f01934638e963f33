// API-level observability tests: `QUERY METRICS` and
// Connection::DumpMetrics read the identical snapshot of the one global
// registry after a scripted workload, metric counters survive and count
// degraded-mode rejections, and the metrics surface keeps serving while
// the connection is read-only.
//
// These tests read MetricsRegistry::Global(); each gtest TEST runs as its
// own process (gtest_discover_tests), so the global state is per-test.

#include <gtest/gtest.h>

#include <sstream>

#include "api/api.h"
#include "obs/metrics.h"
#include "util/fault_env.h"

namespace verso {
namespace {

using FaultKind = FaultInjectingEnv::FaultKind;
using OpFilter = FaultInjectingEnv::OpFilter;

int64_t MetricValue(const std::vector<MetricsRegistry::Entry>& entries,
                    const std::string& name) {
  for (const auto& entry : entries) {
    if (entry.name == name) return entry.value;
  }
  ADD_FAILURE() << "missing metric " << name;
  return -1;
}

/// Commits, DDL, a subscription, reads — every layer the registry hears.
void RunScriptedWorkload(Connection& conn, Session& session,
                         size_t* deliveries) {
  ASSERT_TRUE(conn.ImportText(R"(
      ann.isa -> empl.  ann.sal -> 1000.
      bob.isa -> empl.  bob.sal -> 400.
  )").ok());
  ASSERT_TRUE(session
                  .Execute("CREATE VIEW rich AS derive X.rich -> yes <- "
                           "X.sal -> S, S > 500.")
                  .ok());
  ASSERT_TRUE(session
                  .Subscribe("rich",
                             [deliveries](const ViewDelta&) {
                               ++*deliveries;
                             })
                  .ok());
  ASSERT_TRUE(session
                  .Execute("raise: mod[E].sal -> (S, S2) <- E.isa -> empl, "
                           "E.sal -> S, S2 = S * 2.")
                  .ok());
  Result<Statement> b1 = session.Prepare("t: ins[cal].sal -> 600.");
  Result<Statement> b2 = session.Prepare("t: ins[dee].sal -> 700.");
  ASSERT_TRUE(b1.ok() && b2.ok());
  ASSERT_TRUE(session.ExecuteBatch({&*b1, &*b2}).ok());
  ASSERT_TRUE(
      session.Execute("derive X.poor -> yes <- X.sal -> S, S < 500.").ok());
  ASSERT_TRUE(session.Execute("QUERY rich").ok());
}

TEST(MetricsApiTest, QueryMetricsEqualsDumpMetricsAfterScriptedWorkload) {
  Result<std::unique_ptr<Connection>> conn = Connection::OpenInMemory();
  ASSERT_TRUE(conn.ok());
  auto session = (*conn)->OpenSession();
  size_t deliveries = 0;
  RunScriptedWorkload(**conn, *session, &deliveries);
  EXPECT_GT(deliveries, 0u);

  // QUERY METRICS bumps nothing during execution, so its snapshot and a
  // DumpMetrics right after serialize byte-identically.
  Result<ResultSet> rs = session->Execute("QUERY METRICS");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->kind(), ResultSet::Kind::kMetrics);
  EXPECT_FALSE(rs->empty());
  std::ostringstream from_query;
  MetricsRegistry::WriteJson(rs->metrics(), from_query);
  std::ostringstream from_dump;
  (*conn)->DumpMetrics(from_dump);
  EXPECT_EQ(from_query.str(), from_dump.str());

  // The cursor renders the same entries as name/value rows, in order.
  size_t row = 0;
  while (rs->Next()) {
    EXPECT_EQ(rs->metric_name(), rs->metrics()[row].name);
    EXPECT_EQ(rs->metric_value(), rs->metrics()[row].value);
    ++row;
  }
  EXPECT_EQ(row, rs->size());

  // Every layer reported: commit pipeline, evaluation bridge, views,
  // sessions, statements, subscriptions.
  const auto& entries = rs->metrics();
  EXPECT_GE(MetricValue(entries, "commit.count"), 4);  // import+raise+batch
  EXPECT_GE(MetricValue(entries, "commit.batches"), 1);
  EXPECT_GT(MetricValue(entries, "commit.delta_facts"), 0);
  EXPECT_GT(MetricValue(entries, "commit.total_us.count"), 0);
  // One evaluate span for the raise and one for the batch; inside them
  // one seal / fixpoint / build-base span per transaction (the raise and
  // both batch members). Every commit path, the import included, times
  // its delta diff.
  EXPECT_EQ(MetricValue(entries, "commit.evaluate_us.count"), 2);
  EXPECT_EQ(MetricValue(entries, "commit.seal_us.count"), 3);
  EXPECT_EQ(MetricValue(entries, "commit.fixpoint_us.count"), 3);
  EXPECT_EQ(MetricValue(entries, "commit.build_base_us.count"), 3);
  EXPECT_EQ(MetricValue(entries, "commit.diff_us.count"), 4);
  EXPECT_GT(MetricValue(entries, "eval.strata"), 0);
  EXPECT_GT(MetricValue(entries, "eval.rounds"), 0);
  EXPECT_GT(MetricValue(entries, "eval.updates_derived"), 0);
  EXPECT_GT(MetricValue(entries, "view.maintenance_runs"), 0);
  // The rich view's probes bind X.sal -> S from the changed fact itself,
  // so they launch seed probes but no per-version result lookup.
  EXPECT_GT(MetricValue(entries, "view.seed_probes"), 0);
  EXPECT_EQ(MetricValue(entries, "view.index_probes"), 0);
  EXPECT_GT(MetricValue(entries, "session.opened"), 0);
  EXPECT_GT(MetricValue(entries, "session.pins"), 0);
  EXPECT_GT(MetricValue(entries, "statement.prepared"), 0);
  EXPECT_GT(MetricValue(entries, "query.count"), 0);
  EXPECT_GE(MetricValue(entries, "query.view_reads"), 1);
  EXPECT_GT(MetricValue(entries, "subscription.deliveries"), 0);
  EXPECT_EQ(MetricValue(entries, "storage.faults"), 0);
}

TEST(MetricsApiTest, QueryMetricsKeywordIsCaseInsensitive) {
  Result<std::unique_ptr<Connection>> conn = Connection::OpenInMemory();
  ASSERT_TRUE(conn.ok());
  auto session = (*conn)->OpenSession();
  for (const char* text :
       {"QUERY METRICS", "query metrics", "Query Metrics."}) {
    Result<Statement> stmt = session->Prepare(text);
    ASSERT_TRUE(stmt.ok()) << text;
    EXPECT_EQ(stmt->kind(), Statement::Kind::kMetrics) << text;
    EXPECT_TRUE(stmt->Execute().ok()) << text;
  }
  // METRICS is reserved: a view of that name can exist, but QUERY
  // resolves the word to the registry, never the view.
  ASSERT_TRUE(session
                  ->Execute("CREATE VIEW metrics AS derive X.m -> yes <- "
                            "X.sal -> S.")
                  .ok());
  Result<ResultSet> rs = session->Execute("QUERY metrics");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->kind(), ResultSet::Kind::kMetrics);
}

TEST(MetricsApiTest, DegradedModeRejectionsAreCountedAndMetricsStillServe) {
  FaultInjectingEnv env;
  ConnectionOptions options;
  options.env = &env;
  options.retry_backoff_us = 0;
  Result<std::unique_ptr<Connection>> conn = Connection::Open("/db", options);
  ASSERT_TRUE(conn.ok());
  auto session = (*conn)->OpenSession();
  ASSERT_TRUE(session->Execute("t: ins[ann].sal -> 1000.").ok());

  FaultInjectingEnv::FaultPlan plan;
  plan.fail_at = 0;
  plan.kind = FaultKind::kEnospc;
  plan.filter = OpFilter::kAppend;
  env.SetPlan(plan);
  ASSERT_FALSE(session->Execute("t: ins[bob].sal -> 2000.").ok());
  ASSERT_FALSE((*conn)->health().ok());
  env.Disarm();

  // Two refused writes while degraded, each counted.
  EXPECT_EQ(session->Execute("t: ins[cal].sal -> 3000.").status().code(),
            StatusCode::kReadOnly);
  EXPECT_EQ(session->Execute("t: ins[dee].sal -> 4000.").status().code(),
            StatusCode::kReadOnly);

  // The metrics surface is a read: it serves while degraded, and the
  // failure path is on it — fault, degradation, and rejections counted.
  Result<ResultSet> rs = session->Execute("QUERY METRICS");
  ASSERT_TRUE(rs.ok());
  const auto& entries = rs->metrics();
  EXPECT_GE(MetricValue(entries, "storage.faults"), 1);
  EXPECT_EQ(MetricValue(entries, "storage.degraded_entered"), 1);
  EXPECT_EQ(MetricValue(entries, "commit.rejected_readonly"), 2);
  // The failed commit's WAL span recorded even though the append failed.
  EXPECT_GT(MetricValue(entries, "commit.wal_append_us.count"), 0);
  std::ostringstream dump;
  (*conn)->DumpMetrics(dump);
  std::ostringstream from_query;
  MetricsRegistry::WriteJson(rs->metrics(), from_query);
  EXPECT_EQ(from_query.str(), dump.str());
}

TEST(MetricsApiTest, RecoveryAndCheckpointCountersAreReported) {
  // The storage.* recovery surface: after a checkpoint plus a two-commit
  // WAL suffix, a cold reopen reports exactly the suffix as replayed
  // frames, the base as recovered store keys, and the checkpoint itself
  // on the store/checkpoint counters.
  FaultInjectingEnv env;
  ConnectionOptions options;
  options.env = &env;
  options.retry_backoff_us = 0;
  options.store_backend = StoreBackend::kPageLog;
  {
    Result<std::unique_ptr<Connection>> conn =
        Connection::Open("/db", options);
    ASSERT_TRUE(conn.ok());
    auto session = (*conn)->OpenSession();
    ASSERT_TRUE(session->Execute("t: ins[ann].sal -> 1000.").ok());
    ASSERT_TRUE(session->Execute("t: ins[bob].sal -> 2000.").ok());
    ASSERT_TRUE(session->Execute("t: ins[cal].sal -> 3000.").ok());
    ASSERT_TRUE((*conn)->Checkpoint().ok());
    ASSERT_TRUE(session->Execute("t: ins[dee].sal -> 4000.").ok());
    ASSERT_TRUE(session->Execute("t: ins[eve].sal -> 5000.").ok());
  }
  // The first open of an empty directory replayed nothing; snapshot the
  // counters before the reopen so the assertions see only its deltas.
  MetricsRegistry& registry = MetricsRegistry::Global();
  int64_t frames_before =
      static_cast<int64_t>(registry.GetCounter("storage.recovery_replayed_frames").value());
  int64_t keys_before =
      static_cast<int64_t>(registry.GetCounter("storage.recovery_store_keys").value());
  EXPECT_EQ(frames_before, 0);

  Result<std::unique_ptr<Connection>> conn = Connection::Open("/db", options);
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  auto session = (*conn)->OpenSession();
  Result<ResultSet> rs = session->Execute("QUERY METRICS");
  ASSERT_TRUE(rs.ok());
  const auto& entries = rs->metrics();
  EXPECT_EQ(MetricValue(entries, "storage.recovery_replayed_frames") -
                frames_before,
            2);  // only the post-checkpoint WAL suffix
  EXPECT_GT(MetricValue(entries, "storage.recovery_store_keys") - keys_before,
            0);  // ann/bob/cal came from the store, not the WAL
  EXPECT_GE(MetricValue(entries, "storage.recovery_us"), 0);
  EXPECT_EQ(MetricValue(entries, "storage.checkpoints"), 1);
  EXPECT_EQ(MetricValue(entries, "storage.auto_checkpoints"), 0);
  EXPECT_GE(MetricValue(entries, "store.commits"), 1);
  EXPECT_GT(MetricValue(entries, "store.puts"), 0);
  EXPECT_GT(MetricValue(entries, "storage.checkpoint_us.count"), 0);
}

}  // namespace
}  // namespace verso
