#ifndef VERSO_VIEWS_CATALOG_H_
#define VERSO_VIEWS_CATALOG_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "storage/database.h"
#include "views/view.h"

namespace verso {

/// Observer of per-commit view deltas: after a commit's maintenance run
/// succeeds for a view, the catalog hands the *result-level* fact changes
/// of that view (base transition + derived changes, in installation
/// order) to its registered sink. This is the publication point view
/// subscriptions (src/api) fan out from. Poisoned views and failed
/// maintenance runs publish nothing.
class ViewDeltaSink {
 public:
  virtual ~ViewDeltaSink() = default;
  /// `epoch` is the commit epoch of the transaction this delta belongs to
  /// (threaded from CommitObserver::OnCommit, so within an ExecuteBatch
  /// group every member's deltas carry that member's own epoch).
  virtual void OnViewDelta(const MaterializedView& view,
                           const DeltaLog& view_delta, uint64_t epoch) = 0;
};

/// Registry of named materialized views, maintained from a Database's
/// commit delta stream. Register a view once (full evaluation), attach the
/// catalog to a database, and every committed transaction — Execute,
/// ExecuteBatch, ImportBase — keeps all registered views incrementally
/// up to date; result(name) always equals a from-scratch EvaluateQueries
/// over the current committed base.
class ViewCatalog : public CommitObserver {
 public:
  ViewCatalog(SymbolTable& symbols, VersionTable& versions,
              TraceSink* trace = nullptr)
      : symbols_(symbols), versions_(versions), trace_(trace) {}
  explicit ViewCatalog(Engine& engine, TraceSink* trace = nullptr)
      : ViewCatalog(engine.symbols(), engine.versions(), trace) {}
  ~ViewCatalog() override { Detach(); }

  ViewCatalog(const ViewCatalog&) = delete;
  ViewCatalog& operator=(const ViewCatalog&) = delete;

  /// Registers `program` as a materialized view over `base` (typically
  /// db.current()), evaluating it in full once. Fails on duplicate names,
  /// and on blocking static-analysis diagnostics (see
  /// MaterializedView::Create; pass analysis.enabled = false to skip).
  Status Register(std::string name, QueryProgram program,
                  const ObjectBase& base,
                  const AnalysisOptions& analysis = AnalysisOptions());

  /// Parses `source` as a derived-method program and registers it.
  Status RegisterText(std::string name, std::string_view source,
                      const ObjectBase& base,
                      const AnalysisOptions& analysis = AnalysisOptions());

  /// Drops a registered view.
  Status Drop(std::string_view name);

  /// The registered view, or nullptr.
  const MaterializedView* Find(std::string_view name) const;

  /// Registered view names, sorted.
  std::vector<std::string> names() const;
  size_t size() const { return views_.size(); }

  /// Subscribes this catalog to `db`'s commit stream (AddObserver). The
  /// catalog must outlive the attachment; the destructor detaches.
  /// Attaching to the database the catalog is already attached to is a
  /// no-op — maintenance runs exactly once per commit regardless of how
  /// often Attach is called.
  void Attach(Database& db);
  void Detach();

  /// Registers the sink per-commit view deltas are published to (not
  /// owned; nullptr to unregister). At most one sink.
  void SetDeltaSink(ViewDeltaSink* sink) { sink_ = sink; }

  /// Replaces the trace sink every view's maintenance reports to from the
  /// next commit on (not owned; nullptr for none). Views keep no copy.
  void set_trace(TraceSink* trace) { trace_ = trace; }

  /// Monotone counter bumped by every successful Register/Drop. Cached
  /// snapshots (Connection::Pin) compare it to detect view DDL between
  /// commits — CREATE VIEW / DROP VIEW do not advance the commit epoch,
  /// so the epoch alone cannot invalidate a snapshot's view set.
  uint64_t ddl_generation() const { return ddl_generation_; }

  /// CommitObserver: routes the committed delta to every registered view.
  Status OnCommit(const DeltaLog& delta, const ObjectBase& committed,
                  uint64_t epoch) override;

  /// CommitObserver: the attached database is going away — forget it so
  /// a later Detach()/destruction does not touch freed memory.
  void OnDatabaseClosed() override { attached_ = nullptr; }

 private:
  SymbolTable& symbols_;
  VersionTable& versions_;
  TraceSink* trace_;
  ViewDeltaSink* sink_ = nullptr;
  Database* attached_ = nullptr;
  uint64_t ddl_generation_ = 0;
  std::map<std::string, std::unique_ptr<MaterializedView>, std::less<>>
      views_;
};

}  // namespace verso

#endif  // VERSO_VIEWS_CATALOG_H_
