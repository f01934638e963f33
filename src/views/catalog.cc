#include "views/catalog.h"

namespace verso {

Status ViewCatalog::Register(std::string name, QueryProgram program,
                             const ObjectBase& base,
                             const AnalysisOptions& analysis) {
  if (views_.count(name)) {
    return Status::InvalidArgument("view '" + name + "' already registered");
  }
  VERSO_ASSIGN_OR_RETURN(
      std::unique_ptr<MaterializedView> view,
      MaterializedView::Create(name, std::move(program), base, symbols_,
                               versions_, analysis));
  views_.emplace(std::move(name), std::move(view));
  ++ddl_generation_;
  return Status::Ok();
}

Status ViewCatalog::RegisterText(std::string name, std::string_view source,
                                 const ObjectBase& base,
                                 const AnalysisOptions& analysis) {
  VERSO_ASSIGN_OR_RETURN(QueryProgram program,
                         ParseQueryProgram(source, symbols_));
  return Register(std::move(name), std::move(program), base, analysis);
}

Status ViewCatalog::Drop(std::string_view name) {
  auto it = views_.find(name);
  if (it == views_.end()) {
    return Status::NotFound("view '" + std::string(name) +
                            "' is not registered");
  }
  views_.erase(it);
  ++ddl_generation_;
  return Status::Ok();
}

const MaterializedView* ViewCatalog::Find(std::string_view name) const {
  auto it = views_.find(name);
  return it == views_.end() ? nullptr : it->second.get();
}

std::vector<std::string> ViewCatalog::names() const {
  std::vector<std::string> out;
  out.reserve(views_.size());
  for (const auto& [name, view] : views_) out.push_back(name);
  return out;
}

void ViewCatalog::Attach(Database& db) {
  // Re-attaching to the same database must not re-register the observer:
  // a doubled registration would run maintenance twice per commit,
  // doubling work and stats, and the second run would find its delta out
  // of sync with the view base and poison the view.
  if (attached_ == &db) return;
  Detach();
  attached_ = &db;
  db.AddObserver(this);
}

void ViewCatalog::Detach() {
  if (attached_ != nullptr) {
    attached_->RemoveObserver(this);
    attached_ = nullptr;
  }
}

Status ViewCatalog::OnCommit(const DeltaLog& delta,
                             const ObjectBase& committed, uint64_t epoch) {
  (void)committed;
  // Fan the delta out to EVERY live view even if one fails: a failure
  // poisons that view alone (see MaterializedView::health); the other
  // views must keep tracking the commit stream. The error surfaces to the
  // committer once — already-poisoned views are skipped afterwards, so a
  // broken view does not wedge every subsequent commit (its health() and
  // Drop/re-Register are the recovery path).
  Status first_error;
  DeltaLog view_delta;
  for (auto& [name, view] : views_) {
    if (!view->health().ok()) continue;
    view_delta.clear();
    Status status = view->ApplyBaseDelta(
        delta, sink_ != nullptr ? &view_delta : nullptr, trace_);
    if (!status.ok()) {
      if (first_error.ok()) first_error = status;
      continue;  // a failed run has no coherent delta to publish
    }
    if (sink_ != nullptr) sink_->OnViewDelta(*view, view_delta, epoch);
  }
  return first_error;
}

}  // namespace verso
