// The client API facade (src/api): what a session costs and what it
// buys. Session open against a warm shared snapshot is a refcount
// bump; a commit invalidates the shared snapshot, so commit-then-open
// pays one snapshot copy (base + every view result) — the price of
// retained epochs. A view read is measured alone (a pinned session's
// QUERY <view>, no commit in the loop) and while a writer keeps
// committing (the pinned reader must not slow down or change), and
// subscription fan-out measures delivering one commit's view delta to
// N subscribers.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "api/api.h"
#include "workloads/workloads.h"

namespace verso::bench {
namespace {

constexpr const char* kRichView =
    "CREATE VIEW rich AS "
    "q: derive X.rich -> yes <- X.sal -> S, S > 5000.";
constexpr const char* kChainView =
    "CREATE VIEW chain AS "
    "q1: derive X.chain -> Y <- X.boss -> Y."
    "q2: derive X.chain -> Z <- X.chain -> Y, Y.boss -> Z.";

/// A salary bump on one employee: always applicable, so every execution
/// commits a non-empty delta through both views' maintenance.
constexpr const char* kBumpTxn =
    "t: mod[emp1].sal -> (S, S2) <- emp1.sal -> S, S2 = S + 1.";

std::unique_ptr<Connection> EnterpriseConnection(size_t employees,
                                                 bool with_views) {
  Result<std::unique_ptr<Connection>> conn = Connection::OpenInMemory();
  if (!conn.ok()) return nullptr;
  ObjectBase base = (*conn)->engine().MakeBase();
  EnterpriseOptions options;
  options.employees = employees;
  MakeEnterprise(options, (*conn)->engine(), base);
  if (!(*conn)->Import(base).ok()) return nullptr;
  if (with_views) {
    std::unique_ptr<Session> session = (*conn)->OpenSession();
    if (!session->Execute(kRichView).ok()) return nullptr;
    if (!session->Execute(kChainView).ok()) return nullptr;
  }
  return std::move(conn).value();
}

/// Session open while the shared snapshot is warm: a refcount bump.
void BM_ApiSessionOpenWarm(benchmark::State& state) {
  std::unique_ptr<Connection> conn =
      EnterpriseConnection(state.range(0), /*with_views=*/true);
  if (conn == nullptr) {
    state.SkipWithError("setup failed");
    return;
  }
  conn->OpenSession();  // builds the epoch's shared snapshot
  for (auto _ : state) {
    std::unique_ptr<Session> session = conn->OpenSession();
    benchmark::DoNotOptimize(session->epoch());
  }
}
BENCHMARK(BM_ApiSessionOpenWarm)->Arg(256)->Arg(1024)->Arg(4096);

/// Commit + session open: the commit invalidates the shared snapshot, so
/// the open pays the full snapshot copy (base + both view results).
void BM_ApiCommitThenPin(benchmark::State& state) {
  std::unique_ptr<Connection> conn =
      EnterpriseConnection(state.range(0), /*with_views=*/true);
  if (conn == nullptr) {
    state.SkipWithError("setup failed");
    return;
  }
  std::unique_ptr<Session> writer = conn->OpenSession();
  Result<Statement> bump = writer->Prepare(kBumpTxn);
  if (!bump.ok()) {
    state.SkipWithError(bump.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    if (!bump->Execute().ok()) {
      state.SkipWithError("commit failed");
      return;
    }
    std::unique_ptr<Session> session = conn->OpenSession();
    benchmark::DoNotOptimize(session->epoch());
  }
}
BENCHMARK(BM_ApiCommitThenPin)->Arg(256)->Arg(1024)->Arg(4096);

/// Commit alone (lazy re-pin: after its open-time pin, a session
/// committing in a loop never re-copies a snapshot).
void BM_ApiCommitOnly(benchmark::State& state) {
  std::unique_ptr<Connection> conn =
      EnterpriseConnection(state.range(0), /*with_views=*/true);
  if (conn == nullptr) {
    state.SkipWithError("setup failed");
    return;
  }
  std::unique_ptr<Session> writer = conn->OpenSession();
  Result<Statement> bump = writer->Prepare(kBumpTxn);
  if (!bump.ok()) {
    state.SkipWithError(bump.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    if (!bump->Execute().ok()) {
      state.SkipWithError("commit failed");
      return;
    }
  }
}
BENCHMARK(BM_ApiCommitOnly)->Arg(256)->Arg(1024)->Arg(4096);

/// A pinned session's QUERY <view> and nothing else: building the
/// ResultSet's rows and releasing it, per read.
void BM_ApiViewRead(benchmark::State& state, const char* text) {
  std::unique_ptr<Connection> conn =
      EnterpriseConnection(state.range(0), /*with_views=*/true);
  if (conn == nullptr) {
    state.SkipWithError("setup failed");
    return;
  }
  std::unique_ptr<Session> reader = conn->OpenSession();
  Result<Statement> query = reader->Prepare(text);
  if (!query.ok()) {
    state.SkipWithError(query.status().ToString().c_str());
    return;
  }
  size_t rows = 0;
  for (auto _ : state) {
    Result<ResultSet> rs = query->Execute();
    if (!rs.ok()) {
      state.SkipWithError(rs.status().ToString().c_str());
      return;
    }
    rows += rs->size();
    benchmark::DoNotOptimize(rows);
  }
  state.counters["rows_per_read"] =
      benchmark::Counter(static_cast<double>(rows),
                         benchmark::Counter::kAvgIterations);
}
BENCHMARK_CAPTURE(BM_ApiViewRead, rich, "QUERY rich")
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096);
BENCHMARK_CAPTURE(BM_ApiViewRead, chain, "QUERY chain")
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096);

/// A pinned reader's QUERY <view> while a writer commits every
/// iteration: the read must stay flat — it answers from the retained
/// snapshot, untouched by the concurrent commit stream.
void BM_ApiSnapshotReadUnderCommits(benchmark::State& state) {
  std::unique_ptr<Connection> conn =
      EnterpriseConnection(state.range(0), /*with_views=*/true);
  if (conn == nullptr) {
    state.SkipWithError("setup failed");
    return;
  }
  std::unique_ptr<Session> reader = conn->OpenSession();
  std::unique_ptr<Session> writer = conn->OpenSession();
  Result<Statement> query = reader->Prepare("QUERY rich");
  Result<Statement> bump = writer->Prepare(kBumpTxn);
  if (!query.ok() || !bump.ok()) {
    state.SkipWithError("prepare failed");
    return;
  }
  size_t rows = 0;
  for (auto _ : state) {
    if (!bump->Execute().ok()) {
      state.SkipWithError("commit failed");
      return;
    }
    Result<ResultSet> rs = query->Execute();
    if (!rs.ok()) {
      state.SkipWithError(rs.status().ToString().c_str());
      return;
    }
    rows += rs->size();
    benchmark::DoNotOptimize(rows);
  }
  state.counters["rows_per_read"] =
      benchmark::Counter(static_cast<double>(rows),
                         benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ApiSnapshotReadUnderCommits)->Arg(256)->Arg(1024)->Arg(4096);

/// One commit delivering its view delta to N subscribers.
void BM_ApiSubscriptionFanout(benchmark::State& state) {
  std::unique_ptr<Connection> conn =
      EnterpriseConnection(1024, /*with_views=*/true);
  if (conn == nullptr) {
    state.SkipWithError("setup failed");
    return;
  }
  size_t delivered = 0;
  std::vector<std::unique_ptr<Session>> subscribers;
  for (int64_t i = 0; i < state.range(0); ++i) {
    subscribers.push_back(conn->OpenSession());
    if (!subscribers.back()
             ->Subscribe("rich",
                         [&delivered](const ViewDelta& delta) {
                           delivered += delta.facts.size();
                         })
             .ok()) {
      state.SkipWithError("subscribe failed");
      return;
    }
  }
  std::unique_ptr<Session> writer = conn->OpenSession();
  Result<Statement> bump = writer->Prepare(kBumpTxn);
  if (!bump.ok()) {
    state.SkipWithError(bump.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    if (!bump->Execute().ok()) {
      state.SkipWithError("commit failed");
      return;
    }
    benchmark::DoNotOptimize(delivered);
  }
  state.counters["facts_delivered"] =
      benchmark::Counter(static_cast<double>(delivered),
                         benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ApiSubscriptionFanout)->Arg(1)->Arg(16)->Arg(64)->Arg(256);

}  // namespace
}  // namespace verso::bench

BENCHMARK_MAIN();
