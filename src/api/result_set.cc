#include "api/api.h"

#include "core/pretty.h"

namespace verso {

static_assert(sizeof(ResultSet::Row) == 24, "a row is a 24-byte reference");

ResultSet::ResultSet(Kind kind, uint64_t epoch, ObjectBase facts,
                     const std::vector<MethodId>& methods,
                     const SymbolTable* symbols, const VersionTable* versions)
    : ResultSet(kind, epoch, symbols, versions) {
  facts_.emplace(std::move(facts));
  // One cursor per method over the versions carrying it. Each step takes
  // the least version any cursor stands on and emits its methods in
  // ascending order, so rows come out by (version, method, application).
  struct Cursor {
    MethodId method;
    ObjectBase::VidSet::const_iterator at, end;
  };
  std::vector<Cursor> cursors;
  size_t at_least = 0;  // a row per (version, method) pair
  for (MethodId method : methods) {
    const ObjectBase::VidSet* vids = facts_->VidsWithMethod(method);
    if (vids == nullptr) continue;
    cursors.push_back({method, vids->begin(), vids->end()});
    at_least += vids->size();
  }
  rows_.reserve(at_least);
  for (;;) {
    Vid vid;
    for (const Cursor& cursor : cursors) {
      if (cursor.at != cursor.end && (!vid.valid() || *cursor.at < vid)) {
        vid = *cursor.at;
      }
    }
    if (!vid.valid()) break;
    const VersionState& state = *facts_->StateOf(vid);
    for (Cursor& cursor : cursors) {
      if (cursor.at == cursor.end || *cursor.at != vid) continue;
      for (const GroundApp& app : state.Find(cursor.method)) {
        rows_.push_back(Row{vid, cursor.method, &app, /*added=*/true});
      }
      ++cursor.at;
    }
  }
}

ResultSet::ResultSet(std::shared_ptr<RunOutcome> outcome,
                     const SymbolTable* symbols, const VersionTable* versions)
    : ResultSet(Kind::kWrite, outcome->committed_epoch, symbols, versions) {
  // committed_delta holds the removals, then the additions, each run in
  // (version, method, application) order: merge the two runs, a removal
  // first where both name one fact.
  const DeltaLog& delta = outcome->committed_delta;
  auto fact_less = [](const DeltaFact& a, const DeltaFact& b) {
    if (a.vid != b.vid) return a.vid < b.vid;
    if (a.method != b.method) return a.method < b.method;
    return a.app < b.app;
  };
  size_t removed = 0;
  while (removed < delta.size() && !delta[removed].added) ++removed;
  rows_.reserve(delta.size());
  size_t r = 0;
  size_t a = removed;
  while (r < removed || a < delta.size()) {
    const DeltaFact& fact =
        a == delta.size() || (r < removed && !fact_less(delta[a], delta[r]))
            ? delta[r++]
            : delta[a++];
    rows_.push_back(Row{fact.vid, fact.method, &fact.app, fact.added});
  }
  outcome_ = std::move(outcome);
}

bool ResultSet::Next() {
  if (kind_ == Kind::kMetrics) {
    if (next_ >= metrics_.size()) {
      current_metric_ = nullptr;
      return false;
    }
    current_metric_ = &metrics_[next_++];
    return true;
  }
  if (kind_ == Kind::kAnalysis) {
    if (next_ >= analysis_->diagnostics.size()) return false;
    ++next_;
    return true;
  }
  if (next_ >= rows_.size()) {
    current_ = nullptr;
    return false;
  }
  current_ = &rows_[next_++];
  return true;
}

void ResultSet::Rewind() {
  next_ = 0;
  current_ = nullptr;
  current_metric_ = nullptr;
}

std::string ResultSet::object() const {
  return versions_->ToString(row().vid, *symbols_);
}

std::string ResultSet::method() const {
  return std::string(symbols_->MethodName(row().method));
}

std::string ResultSet::arg_text(size_t i) const {
  return symbols_->OidToString(row().app->args[i]);
}

bool ResultSet::result_is_number() const {
  return symbols_->IsNumber(row().app->result);
}

const Numeric& ResultSet::result_number() const {
  return symbols_->NumberValue(row().app->result);
}

std::string ResultSet::result_text() const {
  return symbols_->OidToString(row().app->result);
}

std::string ResultSet::RowToString() const {
  if (kind_ == Kind::kMetrics) {
    return current_metric_->name + " = " +
           std::to_string(current_metric_->value);
  }
  if (kind_ == Kind::kAnalysis) return diagnostic().ToString();
  return FactToString(row().vid, row().method, *row().app, *symbols_,
                      *versions_);
}

const EvalStats* ResultSet::eval_stats() const {
  return outcome_ ? &outcome_->stats : nullptr;
}

const Stratification* ResultSet::stratification() const {
  return outcome_ ? &outcome_->stratification : nullptr;
}

const ObjectBase* ResultSet::update_result() const {
  return outcome_ ? &outcome_->result : nullptr;
}

const QueryStats* ResultSet::query_stats() const { return qstats_.get(); }

}  // namespace verso
