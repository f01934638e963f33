// API-level observability tests: `QUERY METRICS` and
// Connection::DumpMetrics read the identical snapshot of the one global
// registry after a scripted workload, metric counters survive and count
// degraded-mode rejections, and the metrics surface keeps serving while
// the connection is read-only.
//
// These tests read MetricsRegistry::Global(); each gtest TEST runs as its
// own process (gtest_discover_tests), so the global state is per-test.

#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "api/api.h"
#include "obs/metrics.h"
#include "parser/parser.h"
#include "storage/database.h"
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

std::map<std::string, int64_t> Values() {
  std::map<std::string, int64_t> values;
  for (const auto& entry : MetricsRegistry::Global().Snapshot()) {
    values[entry.name] = entry.value;
  }
  return values;
}

/// What the eval.* and index.* counters must add for one evaluation.
void AddEvalStats(const EvalStats& stats, std::map<std::string, int64_t>& want) {
  want["eval.strata"] += stats.strata.size();
  want["eval.versions_materialized"] += stats.versions_materialized;
  for (const StratumStats& s : stats.strata) {
    want["eval.rounds"] += s.rounds;
    want["eval.delta_rounds"] += s.rounds - 1;
    want["eval.delta_facts"] += s.delta_facts;
    want["eval.seed_probes"] += s.seed_probes;
    want["eval.residual_rule_runs"] += s.residual_rule_runs;
    want["eval.updates_derived"] += s.t1_updates;
    want["index.probes"] += s.index_probes;
    want["index.hits"] += s.index_hits;
    want["index.scan_avoided_facts"] += s.indexed_scan_avoided_facts;
  }
}

/// What the view.* counters must add for the view's runs between two
/// reads of its stats.
void AddViewStats(const ViewStats& before, const ViewStats& after,
                  std::map<std::string, int64_t>& want) {
  want["view.maintenance_runs"] +=
      after.maintenance_runs - before.maintenance_runs;
  want["view.delta_facts"] += after.delta_facts_seen - before.delta_facts_seen;
  want["view.facts_added"] += after.facts_added - before.facts_added;
  want["view.facts_removed"] += after.facts_removed - before.facts_removed;
  want["view.overdeleted"] += after.overdeleted - before.overdeleted;
  want["view.rederived"] += after.rederived - before.rederived;
  want["view.seed_probes"] += after.seed_probes - before.seed_probes;
  want["view.index_probes"] += after.index_probes - before.index_probes;
}

/// Counts the storage-fault events a connection reports.
class FaultEvents : public TraceSink {
 public:
  void OnStorageFault(std::string_view, const Status&, uint32_t,
                      bool degraded) override {
    ++faults;
    if (degraded) ++degrading;
  }
  int64_t faults = 0;
  int64_t degrading = 0;
};

// First in the file, so the registry is empty when it opens its first
// connection even when the whole binary runs in one process.
TEST(MetricsApiTest, RegistryEqualsTheStatsEachLayerKeeps) {
  // A fresh connection lists every counter the layers below it add to,
  // at 0, before any work.
  ASSERT_TRUE(MetricsRegistry::Global().Snapshot().empty());
  ASSERT_TRUE(Connection::OpenInMemory().ok());
  std::vector<std::string> fresh;
  for (const auto& [name, value] : Values()) {
    EXPECT_EQ(value, 0) << name;
    fresh.push_back(name);
  }
  const std::vector<std::string> expected_fresh = {
      "eval.delta_facts", "eval.delta_rounds", "eval.residual_rule_runs",
      "eval.rounds", "eval.seed_probes", "eval.strata",
      "eval.updates_derived", "eval.versions_materialized", "index.hits",
      "index.probes", "index.scan_avoided_facts", "storage.auto_checkpoints",
      "storage.checkpoint_us.count", "storage.checkpoint_us.p50_us",
      "storage.checkpoint_us.p95_us", "storage.checkpoint_us.p99_us",
      "storage.checkpoint_us.sum_us", "storage.checkpoints",
      "storage.degraded_entered", "storage.faults",
      "storage.recovery_facts_decoded", "storage.recovery_replayed_frames",
      "storage.recovery_store_keys", "storage.recovery_us",
      "view.delta_facts", "view.facts_added", "view.facts_removed",
      "view.index_probes", "view.maintenance_runs", "view.overdeleted",
      "view.rederived", "view.seed_probes"};
  EXPECT_EQ(fresh, expected_fresh);

  FaultInjectingEnv env;
  FaultEvents events;
  ConnectionOptions options;
  options.env = &env;
  options.retry_backoff_us = 0;
  options.trace = &events;
  Result<std::unique_ptr<Connection>> opened = Connection::Open("/db", options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Connection& conn = **opened;
  auto session = conn.OpenSession();
  ASSERT_TRUE(conn.ImportText(R"(
      ann.isa -> empl.  ann.boss -> bob.  ann.sal -> 1000.
      bob.isa -> empl.  bob.boss -> eve.  bob.sal -> 2000.
      eve.isa -> empl.  eve.sal -> 3000.
  )").ok());
  ASSERT_TRUE(session
                  ->Execute("CREATE VIEW rich AS "
                            "q: derive X.rich -> yes <- X.sal -> S, S > 2500.")
                  .ok());
  ASSERT_TRUE(session
                  ->Execute("CREATE VIEW chain AS "
                            "q1: derive X.chain -> Y <- X.boss -> Y."
                            "q2: derive X.chain -> Z <- X.chain -> Y, "
                            "Y.boss -> Z.")
                  .ok());

  const std::map<std::string, int64_t> before = Values();
  Result<ViewStats> rich_before = conn.GetViewStats("rich");
  Result<ViewStats> chain_before = conn.GetViewStats("chain");
  ASSERT_TRUE(rich_before.ok() && chain_before.ok());
  std::map<std::string, int64_t> want;

  // Execute: a bound-result body literal (index probes) that moves the
  // counting view.
  Result<ResultSet> raise = session->Execute(
      "raise: mod[E].sal -> (S, S2) <- E.isa -> empl, E.sal -> S, "
      "S2 = S * 2.");
  ASSERT_TRUE(raise.ok()) << raise.status().ToString();
  AddEvalStats(*raise->eval_stats(), want);
  // ExecuteBatch: a boss move the DRed view overdeletes and rederives, a
  // no-op member, and a recursive update-program (semi-naive delta
  // rounds with seed probes).
  Result<Statement> move = session->Prepare("m: mod[ann].boss -> (bob, eve).");
  Result<Statement> noop =
      session->Prepare("n: ins[ann].bonus -> B <- ann.nosuch -> B.");
  Result<Statement> reach = session->Prepare(
      "r1: ins[X].reach -> Y <- X.boss -> Y."
      "r2: ins[X].reach -> Z <- ins(X).reach -> Y, Y.boss -> Z.");
  ASSERT_TRUE(move.ok() && noop.ok() && reach.ok());
  Result<std::vector<ResultSet>> batch =
      session->ExecuteBatch({&*move, &*noop, &*reach});
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  for (const ResultSet& rs : *batch) AddEvalStats(*rs.eval_stats(), want);
  Result<ViewStats> rich_after = conn.GetViewStats("rich");
  Result<ViewStats> chain_after = conn.GetViewStats("chain");
  ASSERT_TRUE(rich_after.ok() && chain_after.ok());
  AddViewStats(*rich_before, *rich_after, want);
  AddViewStats(*chain_before, *chain_after, want);

  std::map<std::string, int64_t> after = Values();
  for (const auto& [name, value] : want) {
    EXPECT_EQ(after[name] - before.at(name), value) << name;
  }
  // The workload reaches every kind of work the counters describe.
  for (const char* name :
       {"eval.delta_rounds", "eval.seed_probes", "index.probes",
        "index.hits", "view.overdeleted", "view.rederived",
        "view.facts_added", "view.facts_removed", "view.index_probes"}) {
    EXPECT_GT(want[name], 0) << name;
  }
  // The versions given a step-2 state: the raise's three mod(E), the
  // move's mod(ann), and the reach program's ins(ann) and ins(bob).
  EXPECT_EQ(after["eval.versions_materialized"] -
                before.at("eval.versions_materialized"),
            6);

  // Faults: one transient WAL-append failure retried to success, then a
  // permanent one that degrades the connection.
  FaultInjectingEnv::FaultPlan plan;
  plan.fail_at = 0;
  plan.kind = FaultKind::kTransient;
  plan.filter = OpFilter::kAppend;
  env.SetPlan(plan);
  ASSERT_TRUE(session->Execute("t: ins[cal].sal -> 100.").ok());
  plan.kind = FaultKind::kEnospc;
  env.SetPlan(plan);
  ASSERT_FALSE(session->Execute("t: ins[dee].sal -> 100.").ok());
  env.Disarm();
  after = Values();
  EXPECT_EQ(events.faults, 2);
  EXPECT_EQ(events.degrading, 1);
  EXPECT_EQ(after["storage.faults"] - before.at("storage.faults"),
            events.faults);
  EXPECT_EQ(after["storage.degraded_entered"] -
                before.at("storage.degraded_entered"),
            events.degrading);
  EXPECT_EQ(conn.storage_stats().io_failures, 2u);
  EXPECT_EQ(conn.storage_stats().degraded_entered, 1u);
  // Later tests in a one-process run expect a zeroed registry.
  MetricsRegistry::Global().Reset();
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

/// Counts its reads; each read moves time on by one microsecond.
class CountingClock : public Clock {
 public:
  uint64_t NowNanos() override {
    ++reads;
    now += 1000;
    return now;
  }
  void SleepMicros(uint64_t micros) override { now += micros * 1000; }

  int reads = 0;
  uint64_t now = 0;
};

// A one-member commit reads the registry clock once per phase boundary:
// the start, the end of the program's analysis, the seal, the fixpoint,
// the build of ob' with its delta, the WAL encode and append (persistent
// only), the install and the fan-out. Every span records one sample, and
// with one microsecond per read each lap reads 1 µs while evaluate and
// total span their laps with no read of their own. A disabled registry
// reads no clock.
TEST(MetricsApiTest, OneCommitReadsTheClockOncePerPhaseBoundary) {
  const char* spans[] = {"commit.total_us",   "commit.evaluate_us",
                         "commit.seal_us",    "commit.fixpoint_us",
                         "commit.build_base_us", "commit.diff_us",
                         "commit.wal_append_us", "commit.install_us",
                         "commit.fanout_us"};
  MetricsRegistry& registry = MetricsRegistry::Global();
  for (bool persistent : {true, false}) {
    SCOPED_TRACE(persistent ? "persistent" : "in memory");
    FaultInjectingEnv env;
    DatabaseOptions options;
    options.env = &env;
    Engine engine;
    Result<std::unique_ptr<Database>> db =
        persistent ? Database::Open("/db", engine, options)
                   : Database::OpenInMemory(engine);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    Result<ObjectBase> base =
        ParseObjectBase("ann.sal -> 10. bob.sal -> 20.", engine);
    ASSERT_TRUE(base.ok());
    ASSERT_TRUE((*db)->ImportBase(*base).ok());
    Result<Program> program =
        ParseProgram("r: mod[E].sal -> (S, S2) <- E.sal -> S, S2 = S + 1.",
                     engine);
    ASSERT_TRUE(program.ok());

    std::map<std::string, std::pair<uint64_t, uint64_t>> before;
    for (const char* name : spans) {
      Histogram& hist = registry.GetHistogram(name);
      before[name] = {hist.count(), hist.sum_micros()};
    }
    CountingClock clock;
    registry.set_clock(&clock);
    Result<RunOutcome> out = (*db)->Execute(*program);
    registry.set_clock(nullptr);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(clock.reads, persistent ? 8 : 7);
    const std::map<std::string, uint64_t> want_us = {
        {"commit.total_us", persistent ? 7 : 6},
        {"commit.evaluate_us", 4},
        {"commit.seal_us", 1},
        {"commit.fixpoint_us", 1},
        {"commit.build_base_us", 1},
        {"commit.diff_us", 0},
        {"commit.wal_append_us", persistent ? 1 : 0},
        {"commit.install_us", 1},
        {"commit.fanout_us", 1}};
    for (const char* name : spans) {
      SCOPED_TRACE(name);
      Histogram& hist = registry.GetHistogram(name);
      const bool recorded =
          persistent || std::string(name) != "commit.wal_append_us";
      EXPECT_EQ(hist.count() - before[name].first, recorded ? 1u : 0u);
      EXPECT_EQ(hist.sum_micros() - before[name].second, want_us.at(name));
    }

    CountingClock idle;
    registry.set_clock(&idle);
    registry.set_enabled(false);
    Result<RunOutcome> dark = (*db)->Execute(*program);
    registry.set_enabled(true);
    registry.set_clock(nullptr);
    ASSERT_TRUE(dark.ok());
    EXPECT_EQ(idle.reads, 0);
  }
}

TEST(MetricsApiTest, VersionsMaterializedHasOneDefinition) {
  // ins(a) holds a fact but not its exists-fact, so the update gives it a
  // step-2 state although the input base already had one: the stats and
  // the registry both count it.
  Result<std::unique_ptr<Connection>> opened = Connection::OpenInMemory();
  ASSERT_TRUE(opened.ok());
  Connection& conn = **opened;
  ASSERT_TRUE(conn.ImportText("a.isa -> x. ins(a).m -> 1.").ok());
  const int64_t before = Values().at("eval.versions_materialized");
  Result<ResultSet> rs = conn.OpenSession()->Execute("t: ins[a].n -> 2.");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->eval_stats()->versions_materialized, 1u);
  EXPECT_EQ(Values().at("eval.versions_materialized") - before, 1);
}

TEST(MetricsApiTest, QueryMetricsEqualsDumpMetricsAfterScriptedWorkload) {
  Result<std::unique_ptr<Connection>> conn = Connection::OpenInMemory();
  ASSERT_TRUE(conn.ok());
  auto session = (*conn)->OpenSession();
  // The registry is process-global, and earlier tests in this binary
  // commit too: the span counts below are the workload's own deltas.
  const std::map<std::string, int64_t> before = Values();
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

  // Every layer reported: commit pipeline, evaluation, views, sessions,
  // statements, subscriptions.
  const auto& entries = rs->metrics();
  EXPECT_GE(MetricValue(entries, "commit.count"), 4);  // import+raise+batch
  EXPECT_GE(MetricValue(entries, "commit.batches"), 1);
  EXPECT_GT(MetricValue(entries, "commit.delta_facts"), 0);
  EXPECT_GT(MetricValue(entries, "commit.total_us.count"), 0);
  // One evaluate span for the raise and one for the batch; inside them
  // one seal / fixpoint / build-base span per transaction (the raise and
  // both batch members). Every commit path, the import included, times
  // its delta diff.
  auto added = [&](const char* name) {
    auto it = before.find(name);
    return MetricValue(entries, name) - (it == before.end() ? 0 : it->second);
  };
  EXPECT_EQ(added("commit.evaluate_us.count"), 2);
  EXPECT_EQ(added("commit.seal_us.count"), 3);
  EXPECT_EQ(added("commit.fixpoint_us.count"), 3);
  EXPECT_EQ(added("commit.build_base_us.count"), 3);
  EXPECT_EQ(added("commit.diff_us.count"), 4);
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
