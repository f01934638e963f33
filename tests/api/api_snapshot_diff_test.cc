// Acceptance differential for the client API (ISSUE 3):
//
//   1. A session's snapshot reads stay bit-identical to a from-scratch
//      EvaluateQueries over the pinned base while >= 100 later
//      transactions commit.
//   2. The subscription delta stream, replayed on top of the initial
//      view result, reconstructs MaterializedView::result() exactly.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "api/api.h"
#include "core/pretty.h"
#include "query/query.h"
#include "util/fault_env.h"

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

    // Every tenth commit, re-check the pinned reader end to end.
    if (i % 10 == 9) {
      EXPECT_EQ(reader->epoch(), pinned);
      Result<ResultSet> again = reader->Execute("QUERY chain");
      ASSERT_TRUE(again.ok());
      EXPECT_EQ(RenderRows(*again), chain_rows0) << "after txn " << i;
      again = reader->Execute("QUERY grade");
      ASSERT_TRUE(again.ok());
      EXPECT_EQ(RenderRows(*again), grade_rows0) << "after txn " << i;
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

}  // namespace
}  // namespace verso
