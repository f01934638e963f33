// Incremental materialized views: delete-and-rederive maintenance of
// non-recursive and recursive strata, catalog wiring into the Database
// commit stream, and the observability hooks.

#include <gtest/gtest.h>

#include <filesystem>

#include "parser/parser.h"
#include "query/query.h"
#include "storage/database.h"
#include "views/catalog.h"
#include "views/view.h"
#include "workloads/workloads.h"

namespace verso {
namespace {

class ViewsTest : public ::testing::Test {
 protected:
  ViewsTest() {
    dir_ = ::testing::TempDir() + "/verso_views_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }

  std::unique_ptr<Database> OpenDb() {
    Result<std::unique_ptr<Database>> db = Database::Open(dir_, engine_);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    return std::move(db).value();
  }

  ObjectBase Base(const char* text) {
    Result<ObjectBase> base = ParseObjectBase(text, engine_);
    EXPECT_TRUE(base.ok()) << base.status().ToString();
    return std::move(base).value();
  }

  void Exec(Database& db, const std::string& text) {
    Result<Program> program = ParseProgram(text, engine_);
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    Result<RunOutcome> out = db.Execute(*program);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
  }

  bool Holds(const ObjectBase& base, const char* object, const char* method,
             const char* result) {
    Vid vid = engine_.versions().OfOid(engine_.symbols().Symbol(object));
    GroundApp app;
    app.result = engine_.symbols().Symbol(result);
    return base.Contains(vid, engine_.symbols().Method(method), app);
  }

  /// The view's result must equal a from-scratch evaluation of the same
  /// rules over the current committed base.
  void ExpectFresh(const MaterializedView& view, const ObjectBase& base,
                   const char* rules) {
    Result<QueryProgram> program =
        ParseQueryProgram(rules, engine_.symbols());
    ASSERT_TRUE(program.ok());
    Result<ObjectBase> fresh = EvaluateQueries(*program, base, engine_);
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
    EXPECT_TRUE(view.result() == *fresh);
  }

  Engine engine_;
  std::string dir_;
};

constexpr const char* kRichRules =
    "q: derive X.rich -> yes <- X.sal -> S, S > 3000.";

TEST_F(ViewsTest, CountingMaintenanceTracksInsertsAndDeletes) {
  std::unique_ptr<Database> db = OpenDb();
  ASSERT_TRUE(db->ImportBase(Base("a.sal -> 100.  b.sal -> 4000.")).ok());

  ViewCatalog catalog(engine_);
  ASSERT_TRUE(catalog.RegisterText("rich", kRichRules, db->current()).ok());
  catalog.Attach(*db);
  const MaterializedView* view = catalog.Find("rich");
  ASSERT_NE(view, nullptr);
  EXPECT_FALSE(Holds(view->result(), "a", "rich", "yes"));
  EXPECT_TRUE(Holds(view->result(), "b", "rich", "yes"));

  // a gets a raise above the threshold.
  Exec(*db, "t: mod[a].sal -> (S, 5000) <- a.sal -> S.");
  EXPECT_TRUE(Holds(view->result(), "a", "rich", "yes"));
  ExpectFresh(*view, db->current(), kRichRules);

  // b drops below it.
  Exec(*db, "t: mod[b].sal -> (S, 10) <- b.sal -> S.");
  EXPECT_FALSE(Holds(view->result(), "b", "rich", "yes"));
  ExpectFresh(*view, db->current(), kRichRules);
  EXPECT_EQ(view->stats().maintenance_runs, 2u);
  EXPECT_GT(view->stats().overdeleted, 0u);
}

TEST_F(ViewsTest, SupportCountsKeepMultiplyDerivedFactsAlive) {
  std::unique_ptr<Database> db = OpenDb();
  // c.flag is derivable from either of two premises.
  ASSERT_TRUE(db->ImportBase(Base("c.p -> 1.  c.q -> 1.")).ok());
  const char* rules =
      "r1: derive X.flag -> yes <- X.p -> 1."
      "r2: derive X.flag -> yes <- X.q -> 1.";

  ViewCatalog catalog(engine_);
  ASSERT_TRUE(catalog.RegisterText("flag", rules, db->current()).ok());
  catalog.Attach(*db);
  const MaterializedView* view = catalog.Find("flag");
  EXPECT_TRUE(Holds(view->result(), "c", "flag", "yes"));

  // Losing one derivation must not retract the fact...
  Exec(*db, "t: del[c].p -> 1.");
  EXPECT_TRUE(Holds(view->result(), "c", "flag", "yes"));
  ExpectFresh(*view, db->current(), rules);

  // ...losing the second one must.
  Exec(*db, "t: del[c].q -> 1.");
  EXPECT_FALSE(Holds(view->result(), "c", "flag", "yes"));
  ExpectFresh(*view, db->current(), rules);
  // The first deletion overdeleted c.flag and rederived it through r2.
  EXPECT_GT(view->stats().rederived, 0u);
}

TEST_F(ViewsTest, NegationGainsAndLosesMatches) {
  std::unique_ptr<Database> db = OpenDb();
  ASSERT_TRUE(
      db->ImportBase(Base("a.isa -> empl.  b.isa -> empl.  b.pos -> mgr."))
          .ok());
  const char* rules =
      "q: derive X.peon -> yes <- X.isa -> empl, not X.pos -> mgr.";

  ViewCatalog catalog(engine_);
  ASSERT_TRUE(catalog.RegisterText("peon", rules, db->current()).ok());
  catalog.Attach(*db);
  const MaterializedView* view = catalog.Find("peon");
  EXPECT_TRUE(Holds(view->result(), "a", "peon", "yes"));
  EXPECT_FALSE(Holds(view->result(), "b", "peon", "yes"));

  // Promoting a destroys its match through the negated literal.
  Exec(*db, "t: ins[a].pos -> mgr.");
  EXPECT_FALSE(Holds(view->result(), "a", "peon", "yes"));
  ExpectFresh(*view, db->current(), rules);

  // Demoting b creates one.
  Exec(*db, "t: del[b].pos -> mgr.");
  EXPECT_TRUE(Holds(view->result(), "b", "peon", "yes"));
  ExpectFresh(*view, db->current(), rules);
}

constexpr const char* kClosureRules =
    "q1: derive X.reaches -> Y <- X.edge -> Y."
    "q2: derive X.reaches -> Z <- X.reaches -> Y, Y.edge -> Z.";

TEST_F(ViewsTest, DRedMaintainsTransitiveClosure) {
  std::unique_ptr<Database> db = OpenDb();
  ASSERT_TRUE(db->ImportBase(
                    Base("a.edge -> b.  b.edge -> c.  c.edge -> d."))
                  .ok());

  ViewCatalog catalog(engine_);
  ASSERT_TRUE(
      catalog.RegisterText("closure", kClosureRules, db->current()).ok());
  catalog.Attach(*db);
  const MaterializedView* view = catalog.Find("closure");
  ASSERT_EQ(view->stratification().strata.size(), 1u);
  EXPECT_TRUE(view->stratification().strata[0].recursive);
  EXPECT_TRUE(Holds(view->result(), "a", "reaches", "d"));

  // Inserting a shortcut edge: insertion propagation only.
  Exec(*db, "t: ins[d].edge -> a.");
  EXPECT_TRUE(Holds(view->result(), "d", "reaches", "c"));
  ExpectFresh(*view, db->current(), kClosureRules);

  // Deleting the cycle-closing edge: overdelete + rederive.
  Exec(*db, "t: del[d].edge -> a.");
  EXPECT_FALSE(Holds(view->result(), "d", "reaches", "a"));
  EXPECT_TRUE(Holds(view->result(), "a", "reaches", "d"));
  ExpectFresh(*view, db->current(), kClosureRules);
  EXPECT_GT(view->stats().overdeleted, 0u);
}

TEST_F(ViewsTest, DRedRederivesFactsWithAlternativeProofs) {
  std::unique_ptr<Database> db = OpenDb();
  // Two disjoint paths a->c: deleting one must keep a.reaches->c.
  ASSERT_TRUE(db->ImportBase(
                    Base("a.edge -> b.  b.edge -> c.  a.edge -> x.  "
                         "x.edge -> c."))
                  .ok());

  ViewCatalog catalog(engine_);
  ASSERT_TRUE(
      catalog.RegisterText("closure", kClosureRules, db->current()).ok());
  catalog.Attach(*db);
  const MaterializedView* view = catalog.Find("closure");

  Exec(*db, "t: del[a].edge -> b.");
  EXPECT_TRUE(Holds(view->result(), "a", "reaches", "c"));
  EXPECT_FALSE(Holds(view->result(), "a", "reaches", "b"));
  ExpectFresh(*view, db->current(), kClosureRules);
  EXPECT_GT(view->stats().rederived, 0u);
}

TEST_F(ViewsTest, DRedHandlesNonlinearRecursion) {
  // path <- path, path: a derivation can join TWO simultaneously
  // overdeleted facts, so overdeletion must probe against the full old
  // database (regression test: erasing cascade facts eagerly missed the
  // joint derivation of a.path->c and left it dangling).
  std::unique_ptr<Database> db = OpenDb();
  ASSERT_TRUE(db->ImportBase(Base("a.edge -> b.  b.edge -> c.")).ok());
  const char* rules =
      "q1: derive X.path -> Y <- X.edge -> Y."
      "q2: derive X.path -> Z <- X.path -> Y, Y.path -> Z.";

  ViewCatalog catalog(engine_);
  ASSERT_TRUE(catalog.RegisterText("path", rules, db->current()).ok());
  catalog.Attach(*db);
  const MaterializedView* view = catalog.Find("path");
  EXPECT_TRUE(Holds(view->result(), "a", "path", "c"));

  // One transaction deletes both supporting edges.
  Result<Program> both = ParseProgram(
      "t1: del[a].edge -> b.  t2: del[b].edge -> c.", engine_);
  ASSERT_TRUE(both.ok());
  ASSERT_TRUE(db->Execute(*both).ok());
  EXPECT_FALSE(Holds(view->result(), "a", "path", "c"));
  ExpectFresh(*view, db->current(), rules);
}

// A boss change binds Y in `X.chain -> Y, Y.boss -> Z`, leaving
// `X.chain -> Y` with a free object and a ground result. The view indexes
// `chain` by result, so moving a leaf employee (whom nobody reports to)
// probes no `chain` holder at all, where a method scan probes every one
// of them, in both DRed's overdelete and insert phases. The index is
// built at the first commit that reaches the chain stratum: not at
// CREATE, and not for commits that change only salaries.
TEST_F(ViewsTest, ChainViewProbesOnlyTheHoldersOfTheMovedResult) {
  const char* rules =
      "q0: derive X.rich -> yes <- X.sal -> S, S > 5000."
      "q1: derive X.chain -> Y <- X.boss -> Y."
      "q2: derive X.chain -> Z <- X.chain -> Y, Y.boss -> Z.";
  constexpr size_t kEmployees = 1024;
  std::unique_ptr<Database> db = OpenDb();
  ObjectBase base = engine_.MakeBase();
  EnterpriseOptions options;
  options.employees = kEmployees;
  const Enterprise enterprise = MakeEnterprise(options, engine_, base);
  ASSERT_TRUE(db->ImportBase(base).ok());
  ViewCatalog catalog(engine_);
  ASSERT_TRUE(catalog.RegisterText("chain", rules, db->current()).ok());
  catalog.Attach(*db);
  const MaterializedView* view = catalog.Find("chain");
  const MethodId chain = engine_.symbols().Method("chain");
  EXPECT_EQ(view->result().ResultIndexOf(chain), nullptr);

  Exec(*db, "t: mod[emp1].sal -> (S, 9000) <- emp1.sal -> S.");
  Exec(*db, "t: mod[emp2].sal -> (S, 100) <- emp2.sal -> S.");
  EXPECT_EQ(view->stats().maintenance_runs, 2u);
  EXPECT_EQ(view->result().ResultIndexOf(chain), nullptr);

  // A leaf employee moves to another manager.
  size_t leaf = 0;
  while (enterprise.is_manager[leaf]) ++leaf;
  size_t target = 0;
  while (!enterprise.is_manager[target] ||
         static_cast<int>(target) == enterprise.boss[leaf]) {
    ++target;
  }
  const std::string& name = enterprise.names[leaf];
  const uint64_t probes_before = view->stats().index_probes;
  Exec(*db, "t: mod[" + name + "].boss -> (B, " + enterprise.names[target] +
                ") <- " + name + ".boss -> B.");
  EXPECT_TRUE(Holds(view->result(), name.c_str(), "chain",
                    enterprise.names[target].c_str()));
  EXPECT_NE(view->result().ResultIndexOf(chain), nullptr);
  EXPECT_LT(view->stats().index_probes - probes_before, kEmployees);
  ExpectFresh(*view, db->current(), rules);
}

TEST_F(ViewsTest, ObserverErrorPoisonsOneViewNotTheCommit) {
  std::unique_ptr<Database> db = OpenDb();
  ASSERT_TRUE(db->ImportBase(Base("a.sal -> 100.")).ok());
  ViewCatalog catalog(engine_);
  // "bad" derives `marker`; a later transaction writes marker as a base
  // method, which only this view must reject.
  ASSERT_TRUE(catalog
                  .RegisterText("bad",
                                "q: derive X.marker -> yes <- X.sal -> S.",
                                db->current())
                  .ok());
  ASSERT_TRUE(catalog.RegisterText("rich", kRichRules, db->current()).ok());
  catalog.Attach(*db);

  Result<Program> toxic = ParseProgram(
      "t1: ins[z].marker -> yes.  t2: mod[a].sal -> (S, 9000) <- a.sal -> S.",
      engine_);
  ASSERT_TRUE(toxic.ok());
  Result<RunOutcome> out = db->Execute(*toxic);
  // The maintenance error surfaces, but the commit stands...
  ASSERT_FALSE(out.ok());
  Vid a = engine_.versions().OfOid(engine_.symbols().Symbol("a"));
  GroundApp sal;
  sal.result = engine_.symbols().Int(9000);
  EXPECT_TRUE(
      db->current().Contains(a, engine_.symbols().Method("sal"), sal));
  // ...the failing view is poisoned, and the healthy one kept tracking.
  EXPECT_FALSE(catalog.Find("bad")->health().ok());
  EXPECT_TRUE(catalog.Find("rich")->health().ok());
  EXPECT_TRUE(Holds(catalog.Find("rich")->result(), "a", "rich", "yes"));
  ExpectFresh(*catalog.Find("rich"), db->current(), kRichRules);

  // Subsequent commits keep maintaining the healthy view; the poisoned
  // one keeps refusing with its original error.
  Exec(*db, "t: mod[a].sal -> (S, 10) <- a.sal -> S.");
  EXPECT_FALSE(Holds(catalog.Find("rich")->result(), "a", "rich", "yes"));
  EXPECT_FALSE(catalog.Find("bad")->health().ok());
}

TEST_F(ViewsTest, ExecuteBatchObserverErrorStillInstallsAllDeltas) {
  std::unique_ptr<Database> db = OpenDb();
  ASSERT_TRUE(db->ImportBase(Base("a.sal -> 100.")).ok());
  ViewCatalog catalog(engine_);
  ASSERT_TRUE(catalog
                  .RegisterText("bad",
                                "q: derive X.marker -> yes <- X.sal -> S.",
                                db->current())
                  .ok());
  ASSERT_TRUE(catalog.RegisterText("rich", kRichRules, db->current()).ok());
  catalog.Attach(*db);

  // Transaction 1 poisons the "bad" view; transaction 2 must still be
  // applied in memory (both are already durable in the WAL) AND delivered
  // to the healthy view.
  Result<Program> p1 = ParseProgram("t: ins[z].marker -> yes.", engine_);
  Result<Program> p2 = ParseProgram(
      "t: mod[a].sal -> (S, 9000) <- a.sal -> S.", engine_);
  ASSERT_TRUE(p1.ok() && p2.ok());
  std::vector<Program*> batch = {&*p1, &*p2};
  Result<std::vector<RunOutcome>> out = db->ExecuteBatch(batch);
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kObserverFailed);
  Vid a = engine_.versions().OfOid(engine_.symbols().Symbol("a"));
  GroundApp sal;
  sal.result = engine_.symbols().Int(9000);
  EXPECT_TRUE(
      db->current().Contains(a, engine_.symbols().Method("sal"), sal));
  EXPECT_FALSE(catalog.Find("bad")->health().ok());
  EXPECT_TRUE(catalog.Find("rich")->health().ok());
  EXPECT_TRUE(Holds(catalog.Find("rich")->result(), "a", "rich", "yes"));
  ExpectFresh(*catalog.Find("rich"), db->current(), kRichRules);
}

TEST_F(ViewsTest, StratifiedViewRipplesAcrossStrata) {
  std::unique_ptr<Database> db = OpenDb();
  ASSERT_TRUE(db->ImportBase(
                    Base("a.edge -> b.  b.edge -> c.  s.node -> a.  "
                         "s.node -> b.  s.node -> c."))
                  .ok());
  const char* rules =
      "q1: derive X.reaches -> Y <- X.edge -> Y."
      "q2: derive X.reaches -> Z <- X.reaches -> Y, Y.edge -> Z."
      "q3: derive X.stuck -> yes <- S.node -> X, not X.reaches -> X.";

  ViewCatalog catalog(engine_);
  ASSERT_TRUE(catalog.RegisterText("stuck", rules, db->current()).ok());
  catalog.Attach(*db);
  const MaterializedView* view = catalog.Find("stuck");
  EXPECT_TRUE(Holds(view->result(), "a", "stuck", "yes"));

  // Closing the cycle flips reaches->self for all three, which must
  // retract their stuck facts through the negated literal upstairs.
  Exec(*db, "t: ins[c].edge -> a.");
  EXPECT_FALSE(Holds(view->result(), "a", "stuck", "yes"));
  EXPECT_FALSE(Holds(view->result(), "b", "stuck", "yes"));
  ExpectFresh(*view, db->current(), rules);

  Exec(*db, "t: del[c].edge -> a.");
  EXPECT_TRUE(Holds(view->result(), "a", "stuck", "yes"));
  ExpectFresh(*view, db->current(), rules);
}

TEST_F(ViewsTest, ImportBaseFlowsThroughAttachedCatalog) {
  std::unique_ptr<Database> db = OpenDb();
  ViewCatalog catalog(engine_);
  // Register over the empty base, then import: the commit stream must
  // carry the view to the same state as evaluating over the import.
  ASSERT_TRUE(catalog.RegisterText("rich", kRichRules, db->current()).ok());
  catalog.Attach(*db);
  ASSERT_TRUE(db->ImportBase(Base("a.sal -> 100.  b.sal -> 4000.")).ok());
  const MaterializedView* view = catalog.Find("rich");
  EXPECT_TRUE(Holds(view->result(), "b", "rich", "yes"));
  ExpectFresh(*view, db->current(), kRichRules);
}

TEST_F(ViewsTest, ExecuteBatchNotifiesPerTransaction) {
  std::unique_ptr<Database> db = OpenDb();
  ASSERT_TRUE(db->ImportBase(Base("a.sal -> 100.")).ok());
  ViewCatalog catalog(engine_);
  ASSERT_TRUE(catalog.RegisterText("rich", kRichRules, db->current()).ok());
  catalog.Attach(*db);

  Result<Program> p1 =
      ParseProgram("t: mod[a].sal -> (S, 5000) <- a.sal -> S.", engine_);
  Result<Program> p2 =
      ParseProgram("t: mod[a].sal -> (S, 20) <- a.sal -> S.", engine_);
  ASSERT_TRUE(p1.ok() && p2.ok());
  std::vector<Program*> batch = {&*p1, &*p2};
  Result<std::vector<RunOutcome>> out = db->ExecuteBatch(batch);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->size(), 2u);
  // One WAL record for the group, two maintenance runs for the view.
  EXPECT_EQ(db->wal_records_since_checkpoint(), 2u);  // import + batch
  const MaterializedView* view = catalog.Find("rich");
  EXPECT_EQ(view->stats().maintenance_runs, 2u);
  EXPECT_FALSE(Holds(view->result(), "a", "rich", "yes"));
  ExpectFresh(*view, db->current(), kRichRules);
}

TEST_F(ViewsTest, RegistrationRejectsStoredDerivedMethod) {
  ObjectBase base = Base("a.rich -> yes.");
  ViewCatalog catalog(engine_);
  Status status = catalog.RegisterText("rich", kRichRules, base);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST_F(ViewsTest, CommitWritingDerivedMethodIsRejected) {
  std::unique_ptr<Database> db = OpenDb();
  ASSERT_TRUE(db->ImportBase(Base("a.sal -> 5000.")).ok());
  ViewCatalog catalog(engine_);
  ASSERT_TRUE(catalog.RegisterText("rich", kRichRules, db->current()).ok());
  catalog.Attach(*db);
  Result<Program> bad = ParseProgram("t: ins[z].rich -> yes.", engine_);
  ASSERT_TRUE(bad.ok());
  Result<RunOutcome> out = db->Execute(*bad);
  ASSERT_FALSE(out.ok());
  // kObserverFailed: the commit IS durable — callers must not retry.
  EXPECT_EQ(out.status().code(), StatusCode::kObserverFailed);
  Vid z = engine_.versions().OfOid(engine_.symbols().Symbol("z"));
  GroundApp yes;
  yes.result = engine_.symbols().Symbol("yes");
  EXPECT_TRUE(
      db->current().Contains(z, engine_.symbols().Method("rich"), yes));
}

TEST_F(ViewsTest, CatalogSurvivesDatabaseDestruction) {
  ViewCatalog catalog(engine_);
  {
    std::unique_ptr<Database> db = OpenDb();
    ASSERT_TRUE(db->ImportBase(Base("a.sal -> 100.")).ok());
    ASSERT_TRUE(catalog.RegisterText("rich", kRichRules, db->current()).ok());
    catalog.Attach(*db);
  }
  // The database died first; the catalog must have been told and must not
  // touch the freed database on Detach/destruction.
  catalog.Detach();
  EXPECT_NE(catalog.Find("rich"), nullptr);
}

TEST_F(ViewsTest, DoubleAttachMaintainsOnce) {
  std::unique_ptr<Database> db = OpenDb();
  ASSERT_TRUE(db->ImportBase(Base("a.sal -> 100.")).ok());
  ViewCatalog catalog(engine_);
  ASSERT_TRUE(catalog.RegisterText("rich", kRichRules, db->current()).ok());
  // Attaching twice (or thrice) must not double-register the observer:
  // doubled maintenance would double stats and poison the view.
  catalog.Attach(*db);
  catalog.Attach(*db);
  catalog.Attach(*db);
  Exec(*db, "t: mod[a].sal -> (S, 5000) <- a.sal -> S.");
  const MaterializedView* view = catalog.Find("rich");
  EXPECT_EQ(view->stats().maintenance_runs, 1u);
  EXPECT_EQ(view->stats().facts_added, 1u);
  EXPECT_TRUE(Holds(view->result(), "a", "rich", "yes"));
  ExpectFresh(*view, db->current(), kRichRules);
  // And one Detach fully severs the (single) registration.
  catalog.Detach();
  Exec(*db, "t: mod[a].sal -> (S, 100) <- a.sal -> S.");
  EXPECT_EQ(view->stats().maintenance_runs, 1u);
}

TEST_F(ViewsTest, OnDatabaseClosedOrderingWhenCatalogOutlivesDatabase) {
  // A second observer registered AFTER the catalog, to pin down the
  // notification order among observers at destruction time.
  class ClosedRecorder : public CommitObserver {
   public:
    explicit ClosedRecorder(std::vector<std::string>* log, std::string name)
        : log_(log), name_(std::move(name)) {}
    Status OnCommit(const DeltaLog&, const ObjectBase&, uint64_t) override {
      return Status::Ok();
    }
    void OnDatabaseClosed() override { log_->push_back(name_); }

   private:
    std::vector<std::string>* log_;
    std::string name_;
  };

  std::vector<std::string> closed;
  ViewCatalog catalog(engine_);
  ClosedRecorder recorder(&closed, "recorder");
  {
    std::unique_ptr<Database> db = OpenDb();
    ASSERT_TRUE(db->ImportBase(Base("a.sal -> 100.")).ok());
    ASSERT_TRUE(catalog.RegisterText("rich", kRichRules, db->current()).ok());
    catalog.Attach(*db);
    db->AddObserver(&recorder);
    closed.push_back("alive");
  }
  // ~Database notified observers in registration order (catalog first),
  // strictly after the last commit.
  ASSERT_EQ(closed.size(), 2u);
  EXPECT_EQ(closed[0], "alive");
  EXPECT_EQ(closed[1], "recorder");

  // The catalog forgot the dead database: Detach is a no-op, and it can
  // re-attach to a successor database and resume maintenance exactly
  // where the view state left off.
  catalog.Detach();
  std::filesystem::remove_all(dir_);
  std::unique_ptr<Database> next = OpenDb();
  ASSERT_TRUE(next->ImportBase(Base("a.sal -> 100.")).ok());
  catalog.Attach(*next);
  Exec(*next, "t: mod[a].sal -> (S, 9000) <- a.sal -> S.");
  const MaterializedView* view = catalog.Find("rich");
  EXPECT_EQ(view->stats().maintenance_runs, 1u);
  EXPECT_TRUE(Holds(view->result(), "a", "rich", "yes"));
}

TEST_F(ViewsTest, DeltaSinkPublishesResultLevelDeltas) {
  class Recorder : public ViewDeltaSink {
   public:
    void OnViewDelta(const MaterializedView& view, const DeltaLog& delta,
                     uint64_t epoch) override {
      names.push_back(view.name());
      deltas.push_back(delta);
      epochs.push_back(epoch);
    }
    std::vector<std::string> names;
    std::vector<DeltaLog> deltas;
    std::vector<uint64_t> epochs;
  };

  std::unique_ptr<Database> db = OpenDb();
  ASSERT_TRUE(db->ImportBase(Base("a.sal -> 100.")).ok());
  ViewCatalog catalog(engine_);
  ASSERT_TRUE(catalog.RegisterText("rich", kRichRules, db->current()).ok());
  catalog.Attach(*db);
  Recorder recorder;
  catalog.SetDeltaSink(&recorder);

  // Replaying the published delta on a copy of the pre-commit result
  // must land exactly on the post-commit result.
  ObjectBase replay = catalog.Find("rich")->result();
  Exec(*db, "t: mod[a].sal -> (S, 5000) <- a.sal -> S.");
  ASSERT_EQ(recorder.names, std::vector<std::string>{"rich"});
  ASSERT_EQ(recorder.deltas.size(), 1u);
  // The delta is result-level: the base transition AND the derived gain.
  bool rich_gained = false;
  for (const DeltaFact& fact : recorder.deltas[0]) {
    if (fact.method == engine_.symbols().Method("rich") && fact.added) {
      rich_gained = true;
    }
  }
  EXPECT_TRUE(rich_gained);
  for (const DeltaFact& fact : recorder.deltas[0]) {
    bool changed = fact.added ? replay.Insert(fact.vid, fact.method, fact.app)
                              : replay.Erase(fact.vid, fact.method, fact.app);
    ASSERT_TRUE(changed);
  }
  EXPECT_TRUE(replay == catalog.Find("rich")->result());

  // Unregistering the sink stops publication.
  catalog.SetDeltaSink(nullptr);
  Exec(*db, "t: mod[a].sal -> (S, 100) <- a.sal -> S.");
  EXPECT_EQ(recorder.deltas.size(), 1u);
}

TEST_F(ViewsTest, CatalogRegisterDropAndDuplicate) {
  ObjectBase base = Base("a.sal -> 5000.");
  ViewCatalog catalog(engine_);
  ASSERT_TRUE(catalog.RegisterText("rich", kRichRules, base).ok());
  EXPECT_EQ(catalog.size(), 1u);
  EXPECT_EQ(catalog.names(), std::vector<std::string>{"rich"});
  Status dup = catalog.RegisterText("rich", kRichRules, base);
  EXPECT_EQ(dup.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(catalog.Drop("rich").ok());
  EXPECT_EQ(catalog.Find("rich"), nullptr);
  EXPECT_EQ(catalog.Drop("rich").code(), StatusCode::kNotFound);
}

TEST_F(ViewsTest, DetachedCatalogStopsMaintaining) {
  std::unique_ptr<Database> db = OpenDb();
  ASSERT_TRUE(db->ImportBase(Base("a.sal -> 100.")).ok());
  ViewCatalog catalog(engine_);
  ASSERT_TRUE(catalog.RegisterText("rich", kRichRules, db->current()).ok());
  catalog.Attach(*db);
  catalog.Detach();
  Exec(*db, "t: mod[a].sal -> (S, 5000) <- a.sal -> S.");
  const MaterializedView* view = catalog.Find("rich");
  EXPECT_EQ(view->stats().maintenance_runs, 0u);
  EXPECT_FALSE(Holds(view->result(), "a", "rich", "yes"));
}

TEST_F(ViewsTest, TraceSinkSeesViewMaintenance) {
  std::unique_ptr<Database> db = OpenDb();
  ASSERT_TRUE(db->ImportBase(Base("a.sal -> 100.")).ok());
  RecordingTrace trace(engine_.symbols(), engine_.versions());
  ViewCatalog catalog(engine_.symbols(), engine_.versions(), &trace);
  ASSERT_TRUE(catalog.RegisterText("rich", kRichRules, db->current()).ok());
  catalog.Attach(*db);
  Exec(*db, "t: mod[a].sal -> (S, 5000) <- a.sal -> S.");
  bool saw_view_line = false;
  for (const std::string& line : trace.lines()) {
    if (line.find("view rich:") == std::string::npos) continue;
    saw_view_line = true;
    // The commit also seals a's exists fact. One seed probe per changed
    // sal fact, and the probe binds the only body literal, so no
    // per-version result lookup follows.
    EXPECT_EQ(line,
              "view rich: 3 delta fact(s) -> +1/-0 (overdeleted 0, "
              "rederived 0; 2 seed probe(s), 0 index probe(s))");
  }
  EXPECT_TRUE(saw_view_line);
}

}  // namespace
}  // namespace verso
