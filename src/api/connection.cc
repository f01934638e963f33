#include <algorithm>
#include <ostream>

#include "api/api.h"
#include "parser/parser.h"

namespace verso {

namespace {

/// Connection-layer handles into the global registry, bound once.
struct ConnMetrics {
  Counter& sessions_opened;
  Counter& pins;
  Histogram& pin_us;
  Counter& deliveries;
  Counter& delivered_facts;
  Histogram& delivery_fanout_us;

  static ConnMetrics& Get() {
    static ConnMetrics* metrics =
        new ConnMetrics(MetricsRegistry::Global());  // never dies
    return *metrics;
  }

  explicit ConnMetrics(MetricsRegistry& registry)
      : sessions_opened(registry.GetCounter("session.opened")),
        pins(registry.GetCounter("session.pins")),
        pin_us(registry.GetHistogram("session.pin_us")),
        deliveries(registry.GetCounter("subscription.deliveries")),
        delivered_facts(registry.GetCounter("subscription.delivered_facts")),
        delivery_fanout_us(
            registry.GetHistogram("subscription.fanout_us")) {}
};

}  // namespace

Connection::Connection(ConnectionOptions options)
    : options_(options), engine_(std::make_unique<Engine>()) {
  // Each layer counts into the registry itself; list its counters from
  // the open on, before the first evaluation or view maintenance.
  Evaluator::RegisterMetrics();
  MaterializedView::RegisterMetrics();
}

Connection::~Connection() = default;

void Connection::Finish() {
  catalog_ = std::make_unique<ViewCatalog>(*engine_);
  catalog_->Attach(*db_);
  catalog_->SetDeltaSink(this);
  SetTrace(options_.trace);
}

Result<std::unique_ptr<Connection>> Connection::Open(
    const std::string& dir, ConnectionOptions options) {
  std::unique_ptr<Connection> conn(new Connection(options));
  DatabaseOptions db_options;
  db_options.env = options.env;
  db_options.wal_retry_limit = options.wal_retry_limit;
  db_options.retry_backoff_us = options.retry_backoff_us;
  db_options.clock = options.clock;
  db_options.checkpoint_wal_bytes = options.checkpoint_wal_bytes;
  VERSO_ASSIGN_OR_RETURN(conn->db_,
                         Database::Open(dir, *conn->engine_, db_options));
  conn->Finish();
  return conn;
}

Result<std::unique_ptr<Connection>> Connection::OpenInMemory(
    ConnectionOptions options) {
  std::unique_ptr<Connection> conn(new Connection(options));
  VERSO_ASSIGN_OR_RETURN(conn->db_, Database::OpenInMemory(*conn->engine_));
  conn->Finish();
  return conn;
}

std::unique_ptr<Session> Connection::OpenSession() {
  ConnMetrics::Get().sessions_opened.Add();
  return std::unique_ptr<Session>(new Session(this));
}

Status Connection::ImportText(std::string_view source) {
  ObjectBase base = db_->current();
  VERSO_RETURN_IF_ERROR(ParseObjectBaseInto(source, engine_->symbols(),
                                            engine_->versions(), base));
  return Import(base);
}

Status Connection::Import(const ObjectBase& base) {
  Status status = db_->ImportBase(base);
  // Even a kObserverFailed import committed; readers must re-pin.
  if (status.ok() || status.code() == StatusCode::kObserverFailed) {
    InvalidateSnapshot();
  }
  return status;
}

uint64_t Connection::epoch() const { return db_->commit_epoch(); }

std::vector<std::string> Connection::view_names() const {
  return catalog_->names();
}

Result<ViewStats> Connection::GetViewStats(std::string_view name) const {
  const MaterializedView* view = catalog_->Find(name);
  if (view == nullptr) {
    return Status::NotFound("view '" + std::string(name) +
                            "' is not registered");
  }
  return view->stats();
}

Status Connection::ViewHealth(std::string_view name) const {
  const MaterializedView* view = catalog_->Find(name);
  if (view == nullptr) {
    return Status::NotFound("view '" + std::string(name) +
                            "' is not registered");
  }
  return view->health();
}

void Connection::SetTrace(TraceSink* trace) {
  options_.trace = trace;
  db_->set_trace(trace);
  catalog_->set_trace(trace);
}

void Connection::DumpMetrics(std::ostream& out) const {
  MetricsRegistry::Global().DumpJson(out);
}

const Status& Connection::health() const { return db_->health(); }

const StorageStats& Connection::storage_stats() const { return db_->stats(); }

Status Connection::Checkpoint() { return db_->Checkpoint(); }

size_t Connection::wal_records_since_checkpoint() const {
  return db_->wal_records_since_checkpoint();
}

bool Connection::recovered_from_torn_wal() const {
  return db_->recovered_from_torn_wal();
}

const Status& Connection::corrupt_tail_preservation() const {
  return db_->corrupt_tail_preservation();
}

std::shared_ptr<const internal::Snapshot> Connection::Pin() {
  uint64_t now = db_->commit_epoch();
  uint64_t ddl = catalog_->ddl_generation();
  // The cached snapshot is only current if BOTH the commit epoch and the
  // view-DDL generation match: CREATE VIEW / DROP VIEW between commits
  // change the view set without advancing the epoch, and a snapshot
  // keyed on the epoch alone could serve a dropped view (or hide a new
  // one) even if some DDL path forgot to call InvalidateSnapshot.
  if (cached_ != nullptr && cached_->epoch == now &&
      cached_->ddl_generation == ddl) {
    return cached_;
  }
  // Cache miss: a fresh snapshot is actually built (COW-cheap, but not
  // free) — the hit path above stays untimed and uncounted.
  ConnMetrics& metrics = ConnMetrics::Get();
  metrics.pins.Add();
  ScopedTimer pin_timer(MetricsRegistry::Global(), metrics.pin_us);
  auto snap = std::make_shared<internal::Snapshot>(db_->current());
  snap->epoch = now;
  snap->ddl_generation = ddl;
  for (const std::string& name : catalog_->names()) {
    const MaterializedView* view = catalog_->Find(name);
    if (!view->health().ok()) continue;  // poisoned: stale, do not serve
    snap->views.emplace(
        name,
        internal::Snapshot::ViewEntry{view->result(), view->DerivedMethods()});
  }
  cached_ = std::move(snap);
  return cached_;
}

void Connection::OnViewDelta(const MaterializedView& view,
                             const DeltaLog& view_delta, uint64_t epoch) {
  // Walk a snapshot of ids and re-resolve each: a callback may
  // unsubscribe (itself or others) without invalidating this delivery.
  std::vector<uint64_t> ids;
  for (const SubscriptionRec& sub : subscriptions_) {
    if (sub.view == view.name()) ids.push_back(sub.id);
  }
  if (ids.empty()) return;  // nobody listening: skip the delta copy
  ConnMetrics& metrics = ConnMetrics::Get();
  ScopedTimer fanout_timer(MetricsRegistry::Global(),
                           metrics.delivery_fanout_us);
  ViewDelta event;
  event.view = view.name();
  // The triggering member's own epoch, threaded from the commit: reading
  // db_->commit_epoch() at delivery time would mislabel a member's delta
  // with a later member's epoch if delivery ever happened after further
  // epoch bumps (and replay consumers key their streams on this tag).
  event.epoch = epoch;
  event.facts = view_delta;
  for (uint64_t id : ids) {
    ViewCallback callback;  // copied out: the callback may mutate the list
    for (const SubscriptionRec& sub : subscriptions_) {
      if (sub.id == id) {
        callback = sub.callback;
        break;
      }
    }
    if (callback) {
      callback(event);
      metrics.deliveries.Add();
      metrics.delivered_facts.Add(event.facts.size());
    }
  }
}

Result<ResultSet> Connection::ExecuteWrite(Session& session,
                                           Program& program) {
  VERSO_ASSIGN_OR_RETURN(std::vector<ResultSet> results,
                         ExecuteWriteBatch(session, {&program}));
  return std::move(results.front());
}

Result<std::vector<ResultSet>> Connection::ExecuteWriteBatch(
    Session& session, const std::vector<Program*>& programs) {
  Result<std::vector<RunOutcome>> out =
      db_->ExecuteBatch(programs, options_.eval, options_.trace);
  if (!out.ok()) {
    if (out.status().code() == StatusCode::kObserverFailed) {
      // The commit stands (see CommitObserver); only the observer work is
      // incomplete. Drop the session's pin so its next read sees its own
      // (durable) commit.
      InvalidateSnapshot();
      session.snap_.reset();
    }
    return out.status();
  }
  InvalidateSnapshot();
  session.snap_.reset();  // lazily re-pins at the next read
  std::vector<ResultSet> results;
  results.reserve(out->size());
  for (RunOutcome& one : *out) {
    // Each transaction of the group carries its OWN commit epoch — the
    // one its subscription deltas were tagged with.
    results.push_back(ResultSet(std::make_shared<RunOutcome>(std::move(one)),
                                &engine_->symbols(), &engine_->versions()));
  }
  return results;
}

Result<ResultSet> Connection::CreateView(Session& session,
                                         const std::string& name,
                                         const QueryProgram& program) {
  VERSO_RETURN_IF_ERROR(
      catalog_->Register(name, program, db_->current(), options_.analysis));
  // The epoch is unchanged but the view set is not: invalidate the shared
  // snapshot so this session (and new ones) read the view from now on.
  InvalidateSnapshot();
  session.snap_.reset();
  return ResultSet(ResultSet::Kind::kDdl, db_->commit_epoch(),
                   &engine_->symbols(), &engine_->versions());
}

Result<ResultSet> Connection::DropView(Session& session,
                                       const std::string& name) {
  VERSO_RETURN_IF_ERROR(catalog_->Drop(name));
  // Cancel the dropped view's subscriptions: a later CREATE VIEW reusing
  // the name is a NEW view, and silently re-binding old subscribers to
  // it would corrupt their replay streams.
  subscriptions_.erase(
      std::remove_if(subscriptions_.begin(), subscriptions_.end(),
                     [&name](const SubscriptionRec& sub) {
                       return sub.view == name;
                     }),
      subscriptions_.end());
  InvalidateSnapshot();
  session.snap_.reset();
  return ResultSet(ResultSet::Kind::kDdl, db_->commit_epoch(),
                   &engine_->symbols(), &engine_->versions());
}

uint64_t Connection::AddSubscription(std::string view, Session* owner,
                                     ViewCallback callback) {
  uint64_t id = next_subscription_++;
  subscriptions_.push_back(
      SubscriptionRec{id, std::move(view), owner, std::move(callback)});
  return id;
}

Status Connection::RemoveSubscription(Session* owner, uint64_t id) {
  for (auto it = subscriptions_.begin(); it != subscriptions_.end(); ++it) {
    if (it->id != id) continue;
    if (it->owner != owner) {
      return Status::InvalidArgument(
          "subscription belongs to another session");
    }
    subscriptions_.erase(it);
    return Status::Ok();
  }
  return Status::NotFound("no such subscription");
}

void Connection::RemoveSessionSubscriptions(Session* owner) {
  subscriptions_.erase(
      std::remove_if(subscriptions_.begin(), subscriptions_.end(),
                     [owner](const SubscriptionRec& sub) {
                       return sub.owner == owner;
                     }),
      subscriptions_.end());
}

}  // namespace verso
