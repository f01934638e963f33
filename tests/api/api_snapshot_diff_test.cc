// Acceptance differential for the client API:
//
//   1. A session's snapshot reads stay bit-identical to a from-scratch
//      EvaluateQueries over the pinned base while >= 100 later
//      transactions commit.
//   2. The subscription delta stream, replayed on top of the initial
//      view result, reconstructs MaterializedView::result() exactly.
//   3. Rows are references built in order: on generated commits every
//      QUERY <view>, ad-hoc derive and write ResultSet equals, row for
//      row, a copy of the facts sorted into canonical order, and a
//      ResultSet stays valid after later commits, a re-pin, DROP VIEW of
//      its view and a move.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "api/api.h"
#include "core/pretty.h"
#include "query/query.h"
#include "util/fault_env.h"
#include "workloads/workloads.h"

namespace verso {
namespace {

constexpr const char* kChainRules =
    "q1: derive X.chain -> Y <- X.boss -> Y."
    "q2: derive X.chain -> Z <- X.chain -> Y, Y.boss -> Z.";

constexpr const char* kGradeRules =
    "q1: derive X.rich -> yes <- X.sal -> S, S > 4000."
    "q2: derive X.modest -> yes <- X.sal -> S, not X.rich -> yes.";

std::string Render(const ObjectBase& base, const Connection& conn) {
  return ObjectBaseToString(base, conn.symbols(), conn.versions());
}

std::string RenderRows(ResultSet& rs) {
  std::string out;
  rs.Rewind();
  while (rs.Next()) {
    out += rs.RowToString();
    out += '\n';
  }
  return out;
}

/// From-scratch evaluation of `rules` over `base`, rendered canonically.
std::string EvalFromScratch(const char* rules, const ObjectBase& base,
                            Connection& conn) {
  Result<QueryProgram> program =
      ParseQueryProgram(rules, conn.engine().symbols());
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  Result<ObjectBase> full =
      EvaluateQueries(*program, base, conn.engine().symbols(),
                      conn.engine().versions());
  EXPECT_TRUE(full.ok()) << full.status().ToString();
  return Render(*full, conn);
}

TEST(ApiSnapshotDiffTest, PinnedReadsSurviveOneHundredCommits) {
  Result<std::unique_ptr<Connection>> opened = Connection::OpenInMemory();
  ASSERT_TRUE(opened.ok());
  Connection& conn = **opened;

  // An eight-employee boss chain with salaries straddling the rich bar.
  std::string base_text;
  for (int i = 0; i < 8; ++i) {
    std::string e = "e" + std::to_string(i);
    base_text += e + ".isa -> empl. ";
    base_text += e + ".sal -> " + std::to_string(1000 * (i + 1)) + ". ";
    if (i < 7) base_text += e + ".boss -> e" + std::to_string(i + 1) + ". ";
  }
  ASSERT_TRUE(conn.ImportText(base_text).ok());

  std::unique_ptr<Session> admin = conn.OpenSession();
  ASSERT_TRUE(admin->Execute(std::string("CREATE VIEW chain AS ") +
                             kChainRules).ok());
  ASSERT_TRUE(admin->Execute(std::string("CREATE VIEW grade AS ") +
                             kGradeRules).ok());

  // The long-running reader pins here...
  std::unique_ptr<Session> reader = conn.OpenSession();
  const uint64_t pinned = reader->epoch();
  Result<const ObjectBase*> chain0 = reader->ViewSnapshot("chain");
  Result<const ObjectBase*> grade0 = reader->ViewSnapshot("grade");
  ASSERT_TRUE(chain0.ok() && grade0.ok());
  // ... retains the initial view results (replay seeds) ...
  ObjectBase chain_replay = **chain0;
  ObjectBase grade_replay = **grade0;
  // ... and records what its reads look like now.
  Result<ResultSet> chain_rs = reader->Execute("QUERY chain");
  Result<ResultSet> grade_rs = reader->Execute("QUERY grade");
  ASSERT_TRUE(chain_rs.ok() && grade_rs.ok());
  const std::string chain_rows0 = RenderRows(*chain_rs);
  const std::string grade_rows0 = RenderRows(*grade_rs);
  EXPECT_NE(chain_rows0.find("e0.chain -> e7."), std::string::npos);

  // The pinned view snapshots are bit-identical to a from-scratch
  // evaluation over the pinned base.
  EXPECT_EQ(Render(**chain0, conn),
            EvalFromScratch(kChainRules, reader->base(), conn));
  EXPECT_EQ(Render(**grade0, conn),
            EvalFromScratch(kGradeRules, reader->base(), conn));

  // Subscribe to both views' delta streams.
  std::vector<ViewDelta> chain_deltas, grade_deltas;
  ASSERT_TRUE(reader
                  ->Subscribe("chain", [&](const ViewDelta& d) {
                    chain_deltas.push_back(d);
                  })
                  .ok());
  ASSERT_TRUE(reader
                  ->Subscribe("grade", [&](const ViewDelta& d) {
                    grade_deltas.push_back(d);
                  })
                  .ok());

  // 120 writer transactions: salary bumps walking the employees, plus an
  // alternating rewire of e3's boss edge every third transaction (churn
  // for the recursive chain view).
  std::unique_ptr<Session> writer = conn.OpenSession();
  int rewires = 0;
  for (int i = 0; i < 120; ++i) {
    // A session opened at the head reads both views, then this commit
    // maintains them: the rows point into the facts of the result the
    // session pinned, which the view's next write must leave in place.
    std::unique_ptr<Session> latest = conn.OpenSession();
    Result<ResultSet> latest_chain = latest->Execute("QUERY chain");
    Result<ResultSet> latest_grade = latest->Execute("QUERY grade");
    ASSERT_TRUE(latest_chain.ok() && latest_grade.ok());
    const std::string latest_chain_rows = RenderRows(*latest_chain);
    const std::string latest_grade_rows = RenderRows(*latest_grade);
    std::string text;
    if (i % 3 == 0) {
      text = (rewires++ % 2 == 0)
                 ? "t: mod[e3].boss -> (e4, e5) <- e3.boss -> e4."
                 : "t: mod[e3].boss -> (e5, e4) <- e3.boss -> e5.";
    } else {
      std::string e = "e" + std::to_string(i % 8);
      text = "t: mod[" + e + "].sal -> (S, S2) <- " + e +
             ".sal -> S, S2 = S + 700.";
    }
    Result<ResultSet> rs = writer->Execute(text);
    ASSERT_TRUE(rs.ok()) << "txn " << i << ": " << rs.status().ToString();
    ASSERT_FALSE(rs->empty()) << "txn " << i << " was a no-op";
    EXPECT_EQ(RenderRows(*latest_chain), latest_chain_rows) << "txn " << i;
    EXPECT_EQ(RenderRows(*latest_grade), latest_grade_rows) << "txn " << i;

    // Every tenth commit, re-check the pinned reader end to end.
    if (i % 10 == 9) {
      EXPECT_EQ(reader->epoch(), pinned);
      Result<ResultSet> again = reader->Execute("QUERY chain");
      ASSERT_TRUE(again.ok());
      EXPECT_EQ(RenderRows(*again), chain_rows0) << "after txn " << i;
      again = reader->Execute("QUERY grade");
      ASSERT_TRUE(again.ok());
      EXPECT_EQ(RenderRows(*again), grade_rows0) << "after txn " << i;
      // The result sets read at the pin still hold their rows.
      EXPECT_EQ(RenderRows(*chain_rs), chain_rows0) << "after txn " << i;
      EXPECT_EQ(RenderRows(*grade_rs), grade_rows0) << "after txn " << i;
    }
  }
  ASSERT_GE(conn.epoch() - pinned, 100u);

  // The pinned snapshot still matches a fresh evaluation over the pinned
  // base, bit for bit, and the retained pointers never moved.
  EXPECT_EQ(Render(**chain0, conn),
            EvalFromScratch(kChainRules, reader->base(), conn));
  EXPECT_EQ(Render(**grade0, conn),
            EvalFromScratch(kGradeRules, reader->base(), conn));

  // Replay the subscription streams on top of the initial view results:
  // each must reconstruct the live MaterializedView::result() exactly.
  ASSERT_EQ(chain_deltas.size(), 120u);  // one delta per commit
  ASSERT_EQ(grade_deltas.size(), 120u);
  uint64_t last_epoch = pinned;
  for (const ViewDelta& event : chain_deltas) {
    EXPECT_EQ(event.view, "chain");
    EXPECT_EQ(event.epoch, last_epoch + 1);  // gapless, in commit order
    last_epoch = event.epoch;
    for (const DeltaFact& fact : event.facts) {
      bool changed =
          fact.added
              ? chain_replay.Insert(fact.vid, fact.method, fact.app)
              : chain_replay.Erase(fact.vid, fact.method, fact.app);
      ASSERT_TRUE(changed) << "replay desync at epoch " << event.epoch;
    }
  }
  for (const ViewDelta& event : grade_deltas) {
    for (const DeltaFact& fact : event.facts) {
      bool changed =
          fact.added
              ? grade_replay.Insert(fact.vid, fact.method, fact.app)
              : grade_replay.Erase(fact.vid, fact.method, fact.app);
      ASSERT_TRUE(changed) << "replay desync at epoch " << event.epoch;
    }
  }

  std::unique_ptr<Session> head = conn.OpenSession();
  Result<const ObjectBase*> chain_live = head->ViewSnapshot("chain");
  Result<const ObjectBase*> grade_live = head->ViewSnapshot("grade");
  ASSERT_TRUE(chain_live.ok() && grade_live.ok());
  EXPECT_TRUE(chain_replay == **chain_live);
  EXPECT_TRUE(grade_replay == **grade_live);
  EXPECT_EQ(Render(chain_replay, conn), Render(**chain_live, conn));
  EXPECT_EQ(Render(grade_replay, conn), Render(**grade_live, conn));

  // And the live result is itself still exact w.r.t. recomputation.
  EXPECT_EQ(Render(**chain_live, conn),
            EvalFromScratch(kChainRules, head->base(), conn));
  EXPECT_EQ(Render(**grade_live, conn),
            EvalFromScratch(kGradeRules, head->base(), conn));
}

TEST(ApiSnapshotDiffTest, StoreBackendsStayBitIdentical) {
  // Three lanes run the same transaction script: an ephemeral in-memory
  // connection and one persistent connection per store backend. After
  // every commit the committed base and the live view result must render
  // bit-identically across all lanes; at the end each persistent lane
  // checkpoints, reopens cold, and must still match.
  struct Lane {
    const char* name;
    bool persistent;
    StoreBackend backend;
    std::unique_ptr<FaultInjectingEnv> env;
    std::unique_ptr<Connection> conn;
    std::unique_ptr<Session> session;
  };
  Lane lanes[] = {
      {"ephemeral", false, StoreBackend::kMem, nullptr, nullptr, nullptr},
      {"mem", true, StoreBackend::kMem, nullptr, nullptr, nullptr},
      {"pagelog", true, StoreBackend::kPageLog, nullptr, nullptr, nullptr},
  };

  std::string base_text;
  for (int i = 0; i < 6; ++i) {
    std::string e = "e" + std::to_string(i);
    base_text += e + ".isa -> empl. ";
    base_text += e + ".sal -> " + std::to_string(1500 * (i + 1)) + ". ";
    if (i < 5) base_text += e + ".boss -> e" + std::to_string(i + 1) + ". ";
  }

  for (Lane& lane : lanes) {
    SCOPED_TRACE(lane.name);
    if (lane.persistent) {
      lane.env = std::make_unique<FaultInjectingEnv>();
      ConnectionOptions options;
      options.env = lane.env.get();
      options.retry_backoff_us = 0;
      options.store_backend = lane.backend;
      Result<std::unique_ptr<Connection>> opened =
          Connection::Open("/db", options);
      ASSERT_TRUE(opened.ok()) << opened.status().ToString();
      lane.conn = std::move(opened).value();
    } else {
      Result<std::unique_ptr<Connection>> opened = Connection::OpenInMemory();
      ASSERT_TRUE(opened.ok()) << opened.status().ToString();
      lane.conn = std::move(opened).value();
    }
    ASSERT_TRUE(lane.conn->ImportText(base_text).ok());
    lane.session = lane.conn->OpenSession();
    ASSERT_TRUE(lane.session
                    ->Execute(std::string("CREATE VIEW chain AS ") +
                              kChainRules)
                    .ok());
    ASSERT_TRUE(lane.session
                    ->Execute(std::string("CREATE VIEW grade AS ") +
                              kGradeRules)
                    .ok());
  }

  auto lane_render = [](Lane& lane) {
    std::string out = Render(lane.conn->database().current(), *lane.conn);
    Result<const ObjectBase*> chain = lane.session->ViewSnapshot("chain");
    Result<const ObjectBase*> grade = lane.session->ViewSnapshot("grade");
    EXPECT_TRUE(chain.ok() && grade.ok());
    if (chain.ok()) out += "--chain--\n" + Render(**chain, *lane.conn);
    if (grade.ok()) out += "--grade--\n" + Render(**grade, *lane.conn);
    return out;
  };

  for (int i = 0; i < 30; ++i) {
    std::string text;
    if (i % 3 == 0) {
      text = (i % 2 == 0)
                 ? "t: mod[e2].boss -> (e3, e4) <- e2.boss -> e3."
                 : "t: mod[e2].boss -> (e4, e3) <- e2.boss -> e4.";
    } else {
      std::string e = "e" + std::to_string(i % 6);
      text = "t: mod[" + e + "].sal -> (S, S2) <- " + e +
             ".sal -> S, S2 = S + 900.";
    }
    std::string reference;
    for (Lane& lane : lanes) {
      SCOPED_TRACE(std::string(lane.name) + " txn " + std::to_string(i));
      // Keep the session fresh: Session pins its open epoch, so reopen
      // one at head per commit to read the live state.
      lane.session = lane.conn->OpenSession();
      Result<ResultSet> rs = lane.session->Execute(text);
      ASSERT_TRUE(rs.ok()) << rs.status().ToString();
      lane.session = lane.conn->OpenSession();
      std::string render = lane_render(lane);
      if (&lane == &lanes[0]) {
        reference = render;
      } else {
        EXPECT_EQ(render, reference) << "lane diverged at txn " << i;
      }
    }
  }

  // Checkpoint + cold reopen: the recovered persistent lanes must still
  // render exactly like the ephemeral reference.
  lanes[0].session = lanes[0].conn->OpenSession();
  const std::string reference = lane_render(lanes[0]);
  for (Lane& lane : lanes) {
    if (!lane.persistent) continue;
    SCOPED_TRACE(std::string(lane.name) + " recovery");
    ASSERT_TRUE(lane.conn->Checkpoint().ok());
    lane.session.reset();
    lane.conn.reset();
    ConnectionOptions options;
    options.env = lane.env.get();
    options.retry_backoff_us = 0;
    options.store_backend = lane.backend;
    Result<std::unique_ptr<Connection>> reopened =
        Connection::Open("/db", options);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    lane.conn = std::move(reopened).value();
    lane.session = lane.conn->OpenSession();
    ASSERT_TRUE(lane.session
                    ->Execute(std::string("CREATE VIEW chain AS ") +
                              kChainRules)
                    .ok());
    ASSERT_TRUE(lane.session
                    ->Execute(std::string("CREATE VIEW grade AS ") +
                              kGradeRules)
                    .ok());
    EXPECT_EQ(lane_render(lane), reference);
  }
}


// -- rows by reference against the copy-and-sort oracle -------------------

/// Canonical row order: by version, method, application, polarity.
void SortRows(DeltaLog& rows) {
  std::sort(rows.begin(), rows.end(),
            [](const DeltaFact& a, const DeltaFact& b) {
              if (a.vid.value != b.vid.value) return a.vid.value < b.vid.value;
              if (a.method.value != b.method.value) {
                return a.method.value < b.method.value;
              }
              if (!(a.app == b.app)) return a.app < b.app;
              return a.added < b.added;
            });
}

/// All facts of `methods` in `base`, copied and sorted: how fact-shaped
/// ResultSets were built before they held references.
DeltaLog CollectFacts(const ObjectBase& base,
                      const std::vector<MethodId>& methods) {
  DeltaLog rows;
  for (MethodId method : methods) {
    const ObjectBase::VidSet* vids = base.VidsWithMethod(method);
    if (vids == nullptr) continue;
    for (Vid vid : *vids) {
      Status status = base.ForEachApp(vid, method, [&](const GroundApp& app) {
        rows.push_back(DeltaFact{vid, method, app, /*added=*/true});
        return Status::Ok();
      });
      EXPECT_TRUE(status.ok());
    }
  }
  SortRows(rows);
  return rows;
}

/// One row as the comparison sees it: vid, method, args, result, added.
using RowTuple =
    std::tuple<uint32_t, uint32_t, std::vector<uint32_t>, uint32_t, bool>;

RowTuple Tuple(Vid vid, MethodId method, const GroundApp& app, bool added) {
  std::vector<uint32_t> args;
  for (Oid arg : app.args) args.push_back(arg.value);
  return {vid.value, method.value, std::move(args), app.result.value, added};
}

std::vector<RowTuple> Tuples(ResultSet& rs) {
  std::vector<RowTuple> rows;
  rs.Rewind();
  while (rs.Next()) {
    EXPECT_EQ(rs.arg_count(), rs.row().app->args.size());
    EXPECT_EQ(rs.result(), rs.row().app->result);
    rows.push_back(
        Tuple(rs.row().vid, rs.row().method, *rs.row().app, rs.added()));
  }
  rs.Rewind();
  return rows;
}

std::vector<RowTuple> Tuples(const DeltaLog& log) {
  std::vector<RowTuple> rows;
  for (const DeltaFact& fact : log) {
    rows.push_back(Tuple(fact.vid, fact.method, fact.app, fact.added));
  }
  return rows;
}

/// Keeps each committed transaction's delta, by epoch, sorted as the old
/// write ResultSet sorted its copy of it.
class DeltaRecorder : public CommitObserver {
 public:
  Status OnCommit(const DeltaLog& delta, const ObjectBase&,
                  uint64_t epoch) override {
    DeltaLog rows = delta;
    SortRows(rows);
    by_epoch[epoch] = std::move(rows);
    return Status::Ok();
  }
  std::map<uint64_t, DeltaLog> by_epoch;
};

constexpr const char* kRichRules =
    "q: derive X.rich -> yes <- X.sal -> S, S > 4000.";
constexpr const char* kViaRules =
    "d: derive X.via@Y -> Z <- X.boss -> Y, Y.boss -> Z.";
/// The ad-hoc read: two methods that the same versions hold.
constexpr const char* kPayDerive =
    "q1: derive X.pay -> S <- X.sal -> S."
    "q2: derive X.top -> Y <- X.boss -> Y.";

struct ViewDef {
  const char* name;
  const char* rules;
};
constexpr ViewDef kViews[] = {
    {"rich", kRichRules},
    {"grade", kGradeRules},
    {"d", kViaRules},
    {"chain", kChainRules},
};

/// A seeded enterprise behind a connection with the four views.
class RowsByReference {
 public:
  explicit RowsByReference(uint64_t seed) : rng_(seed) {
    Result<std::unique_ptr<Connection>> opened = Connection::OpenInMemory();
    EXPECT_TRUE(opened.ok());
    conn_ = std::move(opened).value();
    ObjectBase base = conn_->engine().MakeBase();
    EnterpriseOptions options;
    options.employees = kEmployees;
    options.manager_every = 4;
    options.min_salary = 1000;
    options.max_salary = 7000;
    options.seed = seed;
    MakeEnterprise(options, conn_->engine(), base);
    EXPECT_TRUE(conn_->Import(base).ok());
    writer_ = conn_->OpenSession();
    for (const ViewDef& view : kViews) {
      Result<ResultSet> created = writer_->Execute(
          std::string("CREATE VIEW ") + view.name + " AS " + view.rules);
      EXPECT_TRUE(created.ok()) << view.name << ": "
                                << created.status().ToString();
    }
    reader_ = conn_->OpenSession();
    conn_->database().AddObserver(&recorder_);
  }

  ~RowsByReference() { conn_->database().RemoveObserver(&recorder_); }

  Connection& conn() { return *conn_; }
  Session& reader() { return *reader_; }

  /// One random commit through Execute, or a group through ExecuteBatch
  /// whose middle member changes nothing. Every write ResultSet must
  /// equal its transaction's delta, copied and sorted.
  std::vector<ResultSet> Commit() {
    std::vector<ResultSet> results;
    if (rng_.Below(4) == 0) {
      std::vector<Statement> statements;
      for (const std::string& text :
           {Transaction(),
            std::string("t: mod[nobody].sal -> (S, S2) <- nobody.sal -> S, "
                        "S2 = S + 1."),
            Transaction()}) {
        Result<Statement> stmt = writer_->Prepare(text);
        EXPECT_TRUE(stmt.ok()) << text << ": " << stmt.status().ToString();
        if (!stmt.ok()) return results;
        statements.push_back(std::move(stmt).value());
      }
      std::vector<Statement*> group;
      for (Statement& stmt : statements) group.push_back(&stmt);
      Result<std::vector<ResultSet>> batch = writer_->ExecuteBatch(group);
      EXPECT_TRUE(batch.ok()) << batch.status().ToString();
      if (!batch.ok()) return results;
      EXPECT_TRUE((*batch)[1].empty());
      ++batches_;
      results = std::move(batch).value();
    } else {
      const std::string text = Transaction();
      Result<ResultSet> rs = writer_->Execute(text);
      EXPECT_TRUE(rs.ok()) << text << ": " << rs.status().ToString();
      if (!rs.ok()) return results;
      results.push_back(std::move(rs).value());
    }
    for (ResultSet& rs : results) {
      EXPECT_EQ(rs.kind(), ResultSet::Kind::kWrite);
      if (rs.empty()) continue;
      auto it = recorder_.by_epoch.find(rs.epoch());
      if (it == recorder_.by_epoch.end()) {
        ADD_FAILURE() << "no delta committed at epoch " << rs.epoch();
        continue;
      }
      EXPECT_EQ(Tuples(rs), Tuples(it->second)) << "epoch " << rs.epoch();
      for (const RowTuple& row : Tuples(rs)) {
        ++(std::get<4>(row) ? added_rows_ : removed_rows_);
      }
    }
    return results;
  }

  /// Re-pins the reader and checks every view read and the ad-hoc derive
  /// against the oracle over the same pinned state.
  void CheckReads() {
    reader_->Refresh();
    for (const ViewDef& view : kViews) {
      SCOPED_TRACE(view.name);
      Result<ResultSet> rs =
          reader_->Execute(std::string("QUERY ") + view.name);
      ASSERT_TRUE(rs.ok()) << rs.status().ToString();
      EXPECT_EQ(rs->kind(), ResultSet::Kind::kView);
      Result<const ObjectBase*> pinned = reader_->ViewSnapshot(view.name);
      ASSERT_TRUE(pinned.ok());
      std::vector<MethodId> methods =
          conn_->catalog().Find(view.name)->DerivedMethods();
      std::sort(methods.begin(), methods.end());
      EXPECT_EQ(Tuples(*rs), Tuples(CollectFacts(**pinned, methods)));
      view_rows_ += rs->size();
    }
    Result<ResultSet> rs = reader_->Execute(kPayDerive);
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    EXPECT_EQ(rs->kind(), ResultSet::Kind::kQuery);
    Result<QueryProgram> program =
        ParseQueryProgram(kPayDerive, conn_->engine().symbols());
    ASSERT_TRUE(program.ok());
    Result<ObjectBase> full =
        EvaluateQueries(*program, reader_->base(), conn_->engine().symbols(),
                        conn_->engine().versions());
    ASSERT_TRUE(full.ok());
    std::vector<MethodId> methods = program->derived_methods;
    std::sort(methods.begin(), methods.end());
    EXPECT_EQ(Tuples(*rs), Tuples(CollectFacts(*full, methods)));
    EXPECT_FALSE(rs->empty());
  }

  size_t batches() const { return batches_; }
  size_t added_rows() const { return added_rows_; }
  size_t removed_rows() const { return removed_rows_; }
  size_t view_rows() const { return view_rows_; }

 private:
  static constexpr size_t kEmployees = 24;

  std::string Emp(uint64_t i) const { return "emp" + std::to_string(i); }

  /// A random update-program: a salary set or raise across the rich bar,
  /// an all-employee raise, a boss move, a boss removal, or a hire.
  std::string Transaction() {
    const std::string e = Emp(rng_.Below(kEmployees));
    switch (rng_.Below(6)) {
      case 0:
        return "t: mod[" + e + "].sal -> (S, " +
               std::to_string(1000 + 500 * rng_.Below(13)) + ") <- " + e +
               ".sal -> S.";
      case 1:
        return "t: mod[E].sal -> (S, S2) <- E.isa -> empl, E.sal -> S, "
               "S2 = S + " +
               std::to_string(static_cast<int64_t>(rng_.Below(1001)) - 500) +
               ".";
      case 2: {
        const std::string boss = Emp(rng_.Below(kEmployees));
        return "t: mod[" + e + "].boss -> (B, " + boss + ") <- " + e +
               ".boss -> B.";
      }
      case 3:
        return "t: del[" + e + "].boss -> B <- " + e + ".boss -> B.";
      case 4:
        return "t: ins[" + e + "].boss -> " + Emp(rng_.Below(kEmployees)) +
               ".";
      default: {
        const std::string hire = "hire" + std::to_string(hires_++);
        return "t1: ins[" + hire + "].isa -> empl. t2: ins[" + hire +
               "].sal -> " + std::to_string(1000 + 500 * rng_.Below(13)) +
               ". t3: ins[" + hire + "].boss -> " + e + ".";
      }
    }
  }

  Rng rng_;
  std::unique_ptr<Connection> conn_;
  std::unique_ptr<Session> writer_;
  std::unique_ptr<Session> reader_;
  DeltaRecorder recorder_;
  size_t hires_ = 0;
  size_t batches_ = 0;
  size_t added_rows_ = 0;
  size_t removed_rows_ = 0;
  size_t view_rows_ = 0;
};

TEST(ApiSnapshotDiffTest, RowsEqualTheCopyAndSortOracleOnGeneratedCommits) {
  for (uint64_t seed : {11u, 12u, 13u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RowsByReference run(seed);
    run.CheckReads();
    for (int i = 0; i < 60 && !::testing::Test::HasFailure(); ++i) {
      SCOPED_TRACE("commit " + std::to_string(i));
      run.Commit();
      run.CheckReads();
    }
    // The generator reached batches and both row polarities.
    EXPECT_GT(run.batches(), 0u);
    EXPECT_GT(run.added_rows(), 0u);
    EXPECT_GT(run.removed_rows(), 0u);
    EXPECT_GT(run.view_rows(), 0u);
  }
}

TEST(ApiSnapshotDiffTest, ResultSetsOutliveCommitsRefreshDropViewAndMove) {
  RowsByReference run(21);
  // Managers have no boss in a generated enterprise: give one a boss, so
  // `via` holds rows too.
  ASSERT_TRUE(run.reader().Execute("t: ins[emp0].boss -> emp4.").ok());
  std::vector<ResultSet> held;
  std::vector<std::string> rendered;
  auto hold = [&](Result<ResultSet> rs) {
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    rendered.push_back(RenderRows(*rs));
    held.push_back(std::move(rs).value());
  };
  for (const ViewDef& view : kViews) {
    hold(run.reader().Execute(std::string("QUERY ") + view.name));
  }
  hold(run.reader().Execute(kPayDerive));
  while (held.size() == std::size(kViews) + 1) {
    for (ResultSet& rs : run.Commit()) {
      if (rs.empty()) continue;  // a no-op member, or a no-op commit
      rendered.push_back(RenderRows(rs));
      held.push_back(std::move(rs));
    }
  }
  for (const std::string& rows : rendered) EXPECT_FALSE(rows.empty());

  for (int i = 0; i < 100; ++i) run.Commit();
  run.reader().Refresh();
  for (const ViewDef& view : kViews) {
    ASSERT_TRUE(
        run.reader().Execute(std::string("DROP VIEW ") + view.name).ok());
  }
  ASSERT_TRUE(run.conn().view_names().empty());
  run.Commit();
  // Moved once more, into storage of its own.
  std::vector<ResultSet> moved;
  for (ResultSet& rs : held) moved.push_back(std::move(rs));
  held.clear();
  ASSERT_EQ(moved.size(), rendered.size());
  for (size_t i = 0; i < moved.size(); ++i) {
    EXPECT_EQ(RenderRows(moved[i]), rendered[i]) << "result set " << i;
  }
}

}  // namespace
}  // namespace verso
