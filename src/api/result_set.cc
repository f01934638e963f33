#include "api/api.h"

#include <algorithm>

#include "core/pretty.h"

namespace verso {

namespace internal {

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
      (void)status;  // the sink never fails
    }
  }
  SortRows(rows);
  return rows;
}

}  // namespace internal

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
  return symbols_->OidToString(row().app.args[i]);
}

bool ResultSet::result_is_number() const {
  return symbols_->IsNumber(row().app.result);
}

const Numeric& ResultSet::result_number() const {
  return symbols_->NumberValue(row().app.result);
}

std::string ResultSet::result_text() const {
  return symbols_->OidToString(row().app.result);
}

std::string ResultSet::RowToString() const {
  if (kind_ == Kind::kMetrics) {
    return current_metric_->name + " = " +
           std::to_string(current_metric_->value);
  }
  if (kind_ == Kind::kAnalysis) return diagnostic().ToString();
  return FactToString(row().vid, row().method, row().app, *symbols_,
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
