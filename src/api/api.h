#ifndef VERSO_API_API_H_
#define VERSO_API_API_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/analyzer.h"
#include "core/engine.h"
#include "obs/metrics.h"
#include "query/query.h"
#include "storage/database.h"
#include "util/numeric.h"
#include "views/catalog.h"

/// The verso client API — the one public surface of the library.
///
///     Connection  owns the engine, the persistent database, and the view
///                 catalog; all commits and DDL flow through it.
///     Session     a per-client handle with SNAPSHOT-ISOLATED reads: the
///                 session pins an epoch of the committed base and of
///                 every materialized view, so long-running readers see a
///                 consistent state while writers keep committing.
///     Statement   one prepared statement: update-programs, ad-hoc
///                 derived-method queries, CREATE VIEW / DROP VIEW /
///                 QUERY text commands — one grammar, parsed once,
///                 executable many times.
///     ResultSet   a uniform typed-row cursor over the facts a statement
///                 produced (committed delta for writes, derived facts
///                 for queries).
///
/// Typical use:
///
///     auto conn = *verso::Connection::Open("/data/db");
///     auto session = conn->OpenSession();
///     session->Execute("t: ins[ann].sal -> 2000.");
///     session->Execute("CREATE VIEW rich AS "
///                      "derive X.rich -> yes <- X.sal -> S, S > 1000.");
///     auto rs = *session->Execute("QUERY rich");
///     while (rs.Next()) std::cout << rs.RowToString() << "\n";
///
/// Threading: like the layers below, a Connection and all its sessions
/// belong to one thread (the usual embedded-store contract). Sessions and
/// statements must not outlive their connection.
namespace verso {

class Connection;
class Session;
class Statement;
class ResultSet;

/// Options fixed when a connection opens.
struct ConnectionOptions {
  /// Evaluation of update-programs (writes).
  EvalOptions eval;
  /// Evaluation of ad-hoc derived-method queries (reads).
  QueryOptions query;
  /// Static analysis run at Statement prepare time and on CREATE VIEW
  /// (src/analysis). Enabled by default; diagnostic-only unless a
  /// blocking severity fires (errors always block — the evaluator would
  /// reject those programs anyway, just later and with less position).
  AnalysisOptions analysis;
  /// Observes rule firings, commits, view maintenance, and storage
  /// faults (not owned; must outlive the connection).
  TraceSink* trace = nullptr;
  /// Filesystem backend every persisted byte goes through; nullptr means
  /// the real filesystem. Tests substitute a FaultInjectingEnv.
  Env* env = nullptr;
  /// Retry budget and backoff for transient WAL-append failures before
  /// the connection degrades to read-only (see DatabaseOptions).
  uint32_t wal_retry_limit = 3;
  uint32_t retry_backoff_us = 100;
  /// Monotonic clock the WAL retry backoff sleeps through; nullptr means
  /// Clock::Default() (see DatabaseOptions::clock).
  Clock* clock = nullptr;
  /// When > 0, a commit that leaves the WAL at or past this many bytes
  /// triggers an automatic Checkpoint(), bounding recovery replay (see
  /// DatabaseOptions::checkpoint_wal_bytes). 0 disables.
  size_t checkpoint_wal_bytes = 0;
};

/// One commit's change to one materialized view's result, delivered to
/// Session::Subscribe callbacks: the base transition plus every derived
/// fact the maintenance run added or removed, in installation order.
/// Replaying the `facts` of successive ViewDeltas on top of a pinned copy
/// of the view result reconstructs the live result exactly — the delta
/// stream a read replica would consume.
struct ViewDelta {
  std::string view;
  /// The commit epoch this delta belongs to (Database::commit_epoch()).
  uint64_t epoch = 0;
  DeltaLog facts;
};

using ViewCallback = std::function<void(const ViewDelta&)>;

namespace internal {

/// A pinned point-in-time image: the committed base and every healthy
/// view's result at one epoch. Shared (refcounted) between all sessions
/// pinned to the same epoch; released when the last session lets go.
/// Pinning is cheap: the base and every view result are copy-on-write
/// images (ObjectBase structural sharing), so a snapshot shares all
/// unchanged per-version state with the committed base — and with the
/// previous epoch's snapshot — instead of deep-copying every fact.
struct Snapshot {
  explicit Snapshot(ObjectBase b) : base(std::move(b)) {}

  uint64_t epoch = 0;
  /// View-DDL generation of the catalog at pin time: CREATE/DROP VIEW do
  /// not advance the commit epoch, so the cached snapshot must also be
  /// keyed on this to never serve a dropped view or miss a fresh one.
  uint64_t ddl_generation = 0;
  ObjectBase base;

  struct ViewEntry {
    ObjectBase result;
    std::vector<MethodId> methods;  // the view's derived methods, sorted
  };
  std::map<std::string, ViewEntry, std::less<>> views;
};

}  // namespace internal

/// Uniform typed-row cursor over the facts a statement produced. Each row
/// is one ground fact `object.method@args -> result`; rows come in
/// canonical order (by version, method, application, removals before
/// additions), so equal states render identically. For write statements
/// the rows are the committed delta (`added()` distinguishes insertions
/// from removals); for queries and QUERY <view> they are the derived
/// facts.
///
/// Rows are references, not copies: a ResultSet keeps alive the immutable
/// state its rows reference (a view's pinned result, a query's evaluated
/// base, a write's committed delta), so it stays valid after later
/// commits, re-pins, DROP VIEW and moves. Execute builds every row; Next()
/// only advances a cursor. It renders names through its connection's
/// symbol tables, so it must not outlive the connection.
///
/// kMetrics results are the one non-fact shape: their rows are name/value
/// metric entries (metric_name()/metric_value()); the fact-typed
/// accessors must not be used on them.
class ResultSet {
 public:
  enum class Kind {
    kWrite,     // update-program: rows = committed delta
    kQuery,     // ad-hoc derived query: rows = derived facts
    kView,      // QUERY <view>: rows = the view's derived facts
    kDdl,       // CREATE VIEW / DROP VIEW: no rows
    kMetrics,   // QUERY METRICS: rows = name/value metric entries
    kAnalysis,  // QUERY ANALYZE <program>: rows = diagnostics
  };

  /// One fact row: a reference to a ground fact inside the state the
  /// ResultSet keeps alive.
  struct Row {
    Vid vid;
    MethodId method;
    const GroundApp* app;
    bool added;
  };

  ResultSet(ResultSet&&) = default;
  ResultSet& operator=(ResultSet&&) = default;

  Kind kind() const { return kind_; }
  /// The commit epoch the statement executed at: for writes the epoch the
  /// commit produced, for reads the session's pinned epoch.
  uint64_t epoch() const { return epoch_; }

  size_t size() const {
    if (kind_ == Kind::kMetrics) return metrics_.size();
    if (kind_ == Kind::kAnalysis) return analysis_->diagnostics.size();
    return rows_.size();
  }
  bool empty() const { return size() == 0; }

  /// Advances to the next row; false when the cursor moves past the end.
  /// A fresh ResultSet starts before the first row.
  bool Next();
  /// Moves the cursor back before the first row.
  void Rewind();
  /// The current row; Next() must have returned true.
  const Row& row() const { return *current_; }

  // -- typed accessors on the current row ------------------------------
  /// The version term, rendered: "ann", "mod(ann)", ...
  std::string object() const;
  std::string method() const;
  size_t arg_count() const { return row().app->args.size(); }
  Oid arg(size_t i) const { return row().app->args[i]; }
  std::string arg_text(size_t i) const;
  Oid result() const { return row().app->result; }
  bool result_is_number() const;
  /// The result as an exact rational; result_is_number() must hold.
  const Numeric& result_number() const;
  std::string result_text() const;
  /// False only for rows of a write's committed delta that were removals.
  bool added() const { return row().added; }
  /// The whole row in surface syntax: "vid.m@a1,..,ak -> r."
  std::string RowToString() const;

  // -- write-statement introspection (nullptr for other kinds) ---------
  const EvalStats* eval_stats() const;
  const Stratification* stratification() const;
  /// result(P): the full fixpoint with all intermediate versions, for
  /// hypothetical reasoning over the run's middle stages.
  const ObjectBase* update_result() const;

  // -- query-statement introspection (nullptr for other kinds) ---------
  const QueryStats* query_stats() const;

  // -- metrics rows (kMetrics only) ------------------------------------
  /// All metric entries, name-sorted — the same snapshot
  /// Connection::DumpMetrics would serialize at this point in time.
  const std::vector<MetricsRegistry::Entry>& metrics() const {
    return metrics_;
  }
  /// Name/value of the current metrics row; Next() must have returned
  /// true on a kMetrics result.
  const std::string& metric_name() const { return current_metric_->name; }
  int64_t metric_value() const { return current_metric_->value; }

  // -- analysis report (kAnalysis only) --------------------------------
  /// The full structured report (dependency graph, independence verdict,
  /// ToText()/ToJson() renderings); nullptr for other kinds. Rows of a
  /// kAnalysis result are the report's diagnostics, one per Next().
  const AnalysisReport* analysis() const { return analysis_.get(); }
  /// The current diagnostic row; Next() must have returned true on a
  /// kAnalysis result.
  const Diagnostic& diagnostic() const {
    return analysis_->diagnostics[next_ - 1];
  }

 private:
  friend class Connection;
  friend class Statement;

  /// kDdl: no rows.
  ResultSet(Kind kind, uint64_t epoch, const SymbolTable* symbols,
            const VersionTable* versions)
      : kind_(kind), epoch_(epoch), symbols_(symbols), versions_(versions) {}

  /// kView / kQuery: every fact of `methods` (sorted ascending) in
  /// `facts`, which the result keeps. One walk of each method's versions
  /// in ascending order, merged by version when there are several
  /// methods; each state's applications are already sorted.
  ResultSet(Kind kind, uint64_t epoch, ObjectBase facts,
            const std::vector<MethodId>& methods, const SymbolTable* symbols,
            const VersionTable* versions);

  /// kWrite: the outcome's committed delta, which the result keeps,
  /// merged from its two ordered runs (removals, then additions).
  ResultSet(std::shared_ptr<RunOutcome> outcome, const SymbolTable* symbols,
            const VersionTable* versions);

  /// kMetrics: metric entries live beside the (empty) fact rows instead
  /// of being interned as facts — metric values change every commit, and
  /// interning them would grow the symbol table without bound.
  ResultSet(uint64_t epoch, std::vector<MetricsRegistry::Entry> entries,
            const SymbolTable* symbols, const VersionTable* versions)
      : kind_(Kind::kMetrics),
        epoch_(epoch),
        metrics_(std::move(entries)),
        symbols_(symbols),
        versions_(versions) {}

  /// kAnalysis: the rows are the report's diagnostics; like metrics rows
  /// they are not facts and never touch the symbol table.
  ResultSet(uint64_t epoch, std::shared_ptr<const AnalysisReport> report,
            const SymbolTable* symbols, const VersionTable* versions)
      : kind_(Kind::kAnalysis),
        epoch_(epoch),
        symbols_(symbols),
        versions_(versions),
        analysis_(std::move(report)) {}

  Kind kind_;
  uint64_t epoch_;
  std::vector<Row> rows_;
  /// kView / kQuery: the immutable base rows_ points into (kWrite rows
  /// point into outcome_'s committed delta).
  std::optional<ObjectBase> facts_;
  std::vector<MetricsRegistry::Entry> metrics_;  // kMetrics
  size_t next_ = 0;
  const Row* current_ = nullptr;
  const MetricsRegistry::Entry* current_metric_ = nullptr;
  const SymbolTable* symbols_;
  const VersionTable* versions_;
  std::shared_ptr<RunOutcome> outcome_;    // kWrite
  std::shared_ptr<QueryStats> qstats_;     // kQuery
  std::shared_ptr<const AnalysisReport> analysis_;  // kAnalysis
};

/// One prepared statement, bound to the session that prepared it. The
/// text is parsed once at Prepare time; Execute() can run it repeatedly
/// (each run re-reads the session's current snapshot or commits a new
/// transaction). The unified grammar:
///
///     <update-program>                   e.g. "t: mod[E].sal -> (S,S2) <- ..."
///     [label:] derive <rules>            ad-hoc derived-method query
///     CREATE VIEW <name> AS <rules>      register a materialized view
///     DROP VIEW <name>                   drop it
///     QUERY <name>                       read a view from the snapshot
///     QUERY METRICS                      snapshot the metrics registry
///     QUERY ANALYZE <program>            static analysis report (update
///                                        or derive program; never runs it)
///
/// Keywords are case-insensitive; `%` starts a to-end-of-line comment.
/// METRICS and ANALYZE are reserved: QUERY resolves them (in any case) to
/// the metrics snapshot / the analyzer, never to views of those names.
///
/// Preparing a kUpdate, kQuery, or kCreateView statement also runs the
/// static analyzer (ConnectionOptions::analysis): blocking diagnostics
/// fail the Prepare with the same status code evaluation would have
/// produced, and the full report stays readable via analysis().
class Statement {
 public:
  enum class Kind {
    kUpdate,
    kQuery,
    kCreateView,
    kDropView,
    kQueryView,
    kMetrics,
    kAnalyze,
  };

  Statement(Statement&&) = default;
  Statement& operator=(Statement&&) = default;

  Kind kind() const { return kind_; }
  const std::string& text() const { return text_; }
  /// The view a kCreateView/kDropView/kQueryView statement names.
  const std::string& view_name() const { return view_name_; }
  /// The parsed update-program of a kUpdate statement (pairs with a
  /// write ResultSet's stratification() for StratificationToString).
  const Program& program() const { return program_; }
  /// The prepare-time analysis report of a kUpdate / kQuery / kCreateView
  /// statement, or nullptr (analysis disabled, or other kinds).
  const AnalysisReport* analysis() const { return analysis_.get(); }

  /// Runs the statement. Reads (kQuery, kQueryView) evaluate against the
  /// session's pinned snapshot; writes (kUpdate) commit against the
  /// latest state and re-pin the session; DDL applies to the catalog.
  Result<ResultSet> Execute();

 private:
  friend class Session;
  friend class Connection;

  Statement(Session* session, Kind kind, std::string text)
      : session_(session), kind_(kind), text_(std::move(text)) {}

  Session* session_;
  Kind kind_;
  std::string text_;
  std::string view_name_;  // view statements
  std::string body_text_;  // kAnalyze: the program after the keyword
  Program program_;        // kUpdate
  QueryProgram query_;     // kQuery, kCreateView
  std::shared_ptr<const AnalysisReport> analysis_;  // prepare-time report
};

/// A per-client handle. Opening a session pins the current commit epoch:
/// the committed base and every healthy view's result are retained (via a
/// refcounted snapshot shared by all sessions at that epoch) and every
/// read — QUERY <view>, ad-hoc derive queries, base()/ViewSnapshot() —
/// answers from the pinned state, unaffected by later commits.
///
/// Writes are not isolated: an update-program executed through a session
/// commits against the latest state (first-committer-wins, as in the
/// layers below), and on success the session re-pins to its own commit,
/// so a session always reads its own writes. Refresh() re-pins to the
/// latest committed state on demand.
class Session {
 public:
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// The pinned commit epoch this session reads at.
  uint64_t epoch() const;

  /// Re-pins to the latest committed state (also picks up view DDL).
  void Refresh();

  /// Parses `text` into a prepared statement (see Statement for the
  /// grammar). The statement must not outlive this session.
  Result<Statement> Prepare(std::string_view text);

  /// Prepare + Execute in one step.
  Result<ResultSet> Execute(std::string_view text);

  /// Group commit: executes the given kUpdate statements as one
  /// durability write (one WAL record for the whole batch),
  /// all-or-nothing on evaluation failure. Re-pins on success.
  Result<std::vector<ResultSet>> ExecuteBatch(
      const std::vector<Statement*>& statements);

  /// The pinned committed base.
  const ObjectBase& base() const;

  /// The pinned result of a registered view (base + derived facts), or
  /// NotFound if the view did not exist (or was poisoned) at pin time.
  /// The pointer stays valid until the session re-pins or closes.
  Result<const ObjectBase*> ViewSnapshot(std::string_view view) const;

  /// Subscribes to a view's per-commit delta stream: from the next commit
  /// on, `callback` receives one ViewDelta per committed transaction (the
  /// first brick of read-replica fan-out). Delivery is synchronous within
  /// the committing call, in subscription order; callbacks must not
  /// commit or open sessions themselves.
  ///
  /// To build a replay seed (the ViewDelta recipe), pin and subscribe at
  /// the same epoch: call Refresh(), then Subscribe, then copy
  /// ViewSnapshot(view) — the stream continues exactly where the seed
  /// stops. A seed pinned at an OLDER epoch than the subscription start
  /// is missing the commits in between.
  ///
  /// Returns a token for Unsubscribe; closing the session cancels its
  /// subscriptions, and so does dropping the subscribed view (a later
  /// CREATE VIEW reusing the name is a new view — subscribe again).
  /// Subscribing to a view that is not registered fails with NotFound.
  Result<uint64_t> Subscribe(std::string_view view, ViewCallback callback);
  Status Unsubscribe(uint64_t subscription);

 private:
  friend class Connection;
  friend class Statement;

  explicit Session(Connection* conn);

  /// The pinned snapshot. Opening a session pins eagerly (the "pins the
  /// current epoch" contract); after one of this session's OWN writes the
  /// slot is cleared and re-pinned lazily at the next read, so a session
  /// committing in a loop does not re-copy a snapshot per commit.
  const internal::Snapshot& snap() const;

  Connection* conn_;
  mutable std::shared_ptr<const internal::Snapshot> snap_;
};

/// The unified client entry point: owns the engine (symbol/version
/// universe), the database (durability + commit stream), and the view
/// catalog (incremental maintenance), wired together. All client work
/// flows through sessions; see the file comment for the model.
class Connection : public ViewDeltaSink {
 public:
  /// Opens (creating if needed) a persistent connection on `dir`,
  /// recovering committed state. Views are not persistent yet: re-create
  /// them after opening (initial evaluation runs once per registration).
  static Result<std::unique_ptr<Connection>> Open(
      const std::string& dir, ConnectionOptions options = ConnectionOptions());

  /// An ephemeral connection: same semantics, nothing touches disk.
  static Result<std::unique_ptr<Connection>> OpenInMemory(
      ConnectionOptions options = ConnectionOptions());

  ~Connection() override;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Opens a session pinned to the current committed epoch. The session
  /// must not outlive the connection.
  std::unique_ptr<Session> OpenSession();

  /// Parses `source` (.vob ground-fact syntax) and commits it as one
  /// transaction. The usual initial-load path.
  Status ImportText(std::string_view source);
  /// Commits `base` (replacing the committed base wholesale) as one
  /// transaction.
  Status Import(const ObjectBase& base);

  /// Number of transactions committed since open.
  uint64_t epoch() const;

  /// Registered view names, sorted.
  std::vector<std::string> view_names() const;
  /// Maintenance counters of one view, or NotFound.
  Result<ViewStats> GetViewStats(std::string_view name) const;
  /// Ok while the view is live; the first maintenance error after it
  /// poisoned (drop and re-create to recover); NotFound if unregistered.
  Status ViewHealth(std::string_view name) const;

  /// Statically analyzes `program_text` (an update-program, or a derived-
  /// method program starting with `derive`) against the CURRENT committed
  /// base's schema, without executing anything: safety, stratifiability
  /// with cycle paths, same-stratum update conflicts, dead rules, and the
  /// rule dependency graph with a per-stratum independence verdict. The
  /// kAnalysis result carries the report (ResultSet::analysis() — text
  /// via ToText(), stable JSON via ToJson()); its rows are the
  /// diagnostics. Parse failures fail the call; analysis findings never
  /// do (errors are rows, like any diagnostic). The machine-readable twin
  /// of `QUERY ANALYZE <program>`.
  Result<ResultSet> AnalyzeProgram(std::string_view program_text);

  /// Writes the current state of the process-wide metrics registry
  /// (MetricsRegistry::Global()) as a stable JSON document: name-sorted
  /// flat keys under "metrics", integer values, byte-identical for equal
  /// snapshots. The machine-readable twin of `QUERY METRICS` — a QUERY
  /// METRICS result and a DumpMetrics call with no events in between
  /// serialize the identical snapshot. Works while degraded (it is a
  /// read).
  void DumpMetrics(std::ostream& out) const;

  /// Ok while the connection accepts writes; after a durability failure
  /// on the commit path, the Status that caused degraded (read-only)
  /// mode. While degraded, every write statement returns kReadOnly but
  /// reads — pinned sessions, QUERY <view>, subscriptions already
  /// delivered — keep serving the last committed state. Sticky for the
  /// handle's lifetime; reopen the connection to recover.
  const Status& health() const;
  /// Storage-fault counters (io_failures / retries / degraded_entered).
  const StorageStats& storage_stats() const;

  /// Folds the WAL into the checkpoint store (no-op for in-memory).
  Status Checkpoint();
  size_t wal_records_since_checkpoint() const;
  /// True if recovery at open found a torn/corrupt WAL tail and dropped
  /// it (the dropped bytes are kept in `wal.log.corrupt` for forensics).
  bool recovered_from_torn_wal() const;
  /// Ok unless the forensic copy of a dropped WAL tail is incomplete
  /// (side-file write failure or growth cap); recovery itself succeeded.
  const Status& corrupt_tail_preservation() const;

  /// Symbol/version tables, for rendering results (pretty.h).
  const SymbolTable& symbols() const { return engine_->symbols(); }
  const VersionTable& versions() const { return engine_->versions(); }

  /// Wires a trace sink after open — handy because a StreamTrace is built
  /// over the connection's own tables. From the next statement on, the
  /// sink hears every evaluation, the maintenance of every view (views
  /// registered before the call included) and every storage fault (not
  /// owned; nullptr to unwire, after which nothing touches the old sink).
  /// The metrics registry does not depend on it: each layer counts into
  /// the registry itself.
  void SetTrace(TraceSink* trace);

  /// Internal escape hatches for code not yet migrated to the facade and
  /// for tests; everything a client needs is on Connection/Session.
  Engine& engine() { return *engine_; }
  Database& database() { return *db_; }
  ViewCatalog& catalog() { return *catalog_; }

 private:
  friend class Session;
  friend class Statement;

  explicit Connection(ConnectionOptions options);

  /// Wires catalog + delta sink once db_ is open.
  void Finish();

  /// ViewDeltaSink: fans a view's per-commit delta out to subscriptions.
  /// `epoch` is the triggering transaction's own commit epoch (within an
  /// ExecuteBatch group, the member's epoch — not the batch's last).
  void OnViewDelta(const MaterializedView& view, const DeltaLog& view_delta,
                   uint64_t epoch) override;

  /// The shared snapshot of the current epoch, built on first demand
  /// after each commit (all sessions pinned between two commits share
  /// one copy).
  std::shared_ptr<const internal::Snapshot> Pin();
  void InvalidateSnapshot() { cached_.reset(); }

  Result<ResultSet> ExecuteWrite(Session& session, Program& program);
  Result<std::vector<ResultSet>> ExecuteWriteBatch(
      Session& session, const std::vector<Program*>& programs);
  Result<ResultSet> CreateView(Session& session, const std::string& name,
                               const QueryProgram& program);
  Result<ResultSet> DropView(Session& session, const std::string& name);

  uint64_t AddSubscription(std::string view, Session* owner,
                           ViewCallback callback);
  Status RemoveSubscription(Session* owner, uint64_t id);
  void RemoveSessionSubscriptions(Session* owner);

  /// options_.trace is the one client sink, handed as is to the
  /// database, the catalog and each evaluation (SetTrace rewires all
  /// three).
  ConnectionOptions options_;
  std::unique_ptr<Engine> engine_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<ViewCatalog> catalog_;
  std::shared_ptr<const internal::Snapshot> cached_;

  struct SubscriptionRec {
    uint64_t id;
    std::string view;
    Session* owner;
    ViewCallback callback;
  };
  std::vector<SubscriptionRec> subscriptions_;
  uint64_t next_subscription_ = 1;
};

}  // namespace verso

#endif  // VERSO_API_API_H_
