#include "obs/metrics_sink.h"

namespace verso {

MetricsTraceSink::MetricsTraceSink(MetricsRegistry& registry, TraceSink* next)
    : next_(next),
      strata_(registry.GetCounter("eval.strata")),
      rounds_(registry.GetCounter("eval.rounds")),
      delta_rounds_(registry.GetCounter("eval.delta_rounds")),
      delta_facts_(registry.GetCounter("eval.delta_facts")),
      seed_probes_(registry.GetCounter("eval.seed_probes")),
      residual_rule_runs_(registry.GetCounter("eval.residual_rule_runs")),
      updates_derived_(registry.GetCounter("eval.updates_derived")),
      versions_materialized_(
          registry.GetCounter("eval.versions_materialized")),
      index_probes_(registry.GetCounter("index.probes")),
      index_hits_(registry.GetCounter("index.hits")),
      index_avoided_(registry.GetCounter("index.scan_avoided_facts")),
      view_runs_(registry.GetCounter("view.maintenance_runs")),
      view_delta_facts_(registry.GetCounter("view.delta_facts")),
      view_added_(registry.GetCounter("view.facts_added")),
      view_removed_(registry.GetCounter("view.facts_removed")),
      view_overdeleted_(registry.GetCounter("view.overdeleted")),
      view_rederived_(registry.GetCounter("view.rederived")),
      view_seed_probes_(registry.GetCounter("view.seed_probes")),
      view_index_probes_(registry.GetCounter("view.index_probes")),
      storage_faults_(registry.GetCounter("storage.faults")),
      storage_degraded_(registry.GetCounter("storage.degraded_entered")) {}

void MetricsTraceSink::OnStratumBegin(uint32_t stratum, size_t rule_count) {
  strata_.Add();
  if (next_ != nullptr) next_->OnStratumBegin(stratum, rule_count);
}

void MetricsTraceSink::OnRoundBegin(uint32_t stratum, uint32_t round) {
  rounds_.Add();
  if (next_ != nullptr) next_->OnRoundBegin(stratum, round);
}

void MetricsTraceSink::OnDeltaRound(uint32_t stratum, uint32_t round,
                                    size_t delta_facts, size_t seed_probes,
                                    size_t residual_rules) {
  delta_rounds_.Add();
  delta_facts_.Add(delta_facts);
  seed_probes_.Add(seed_probes);
  residual_rule_runs_.Add(residual_rules);
  if (next_ != nullptr) {
    next_->OnDeltaRound(stratum, round, delta_facts, seed_probes,
                        residual_rules);
  }
}

void MetricsTraceSink::OnUpdateDerived(const Rule& rule,
                                       const GroundUpdate& update) {
  updates_derived_.Add();
  if (next_ != nullptr) next_->OnUpdateDerived(rule, update);
}

void MetricsTraceSink::OnVersionMaterialized(Vid version, Vid copied_from,
                                             size_t copied_facts) {
  versions_materialized_.Add();
  if (next_ != nullptr) {
    next_->OnVersionMaterialized(version, copied_from, copied_facts);
  }
}

void MetricsTraceSink::OnIndexUse(uint32_t stratum, size_t probes,
                                  size_t hits, size_t avoided_facts) {
  index_probes_.Add(probes);
  index_hits_.Add(hits);
  index_avoided_.Add(avoided_facts);
  if (next_ != nullptr) {
    next_->OnIndexUse(stratum, probes, hits, avoided_facts);
  }
}

void MetricsTraceSink::OnStratumFixpoint(uint32_t stratum, uint32_t rounds) {
  if (next_ != nullptr) next_->OnStratumFixpoint(stratum, rounds);
}

void MetricsTraceSink::OnViewMaintenance(std::string_view view,
                                         size_t delta_facts, size_t added,
                                         size_t removed, size_t overdeleted,
                                         size_t rederived, size_t seed_probes,
                                         size_t index_probes) {
  view_runs_.Add();
  view_delta_facts_.Add(delta_facts);
  view_added_.Add(added);
  view_removed_.Add(removed);
  view_overdeleted_.Add(overdeleted);
  view_rederived_.Add(rederived);
  view_seed_probes_.Add(seed_probes);
  view_index_probes_.Add(index_probes);
  if (next_ != nullptr) {
    next_->OnViewMaintenance(view, delta_facts, added, removed, overdeleted,
                             rederived, seed_probes, index_probes);
  }
}

void MetricsTraceSink::OnStorageFault(std::string_view op,
                                      const Status& status, uint32_t attempt,
                                      bool degraded) {
  storage_faults_.Add();
  if (degraded) storage_degraded_.Add();
  if (next_ != nullptr) next_->OnStorageFault(op, status, attempt, degraded);
}

}  // namespace verso
