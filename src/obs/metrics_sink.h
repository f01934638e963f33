#ifndef VERSO_OBS_METRICS_SINK_H_
#define VERSO_OBS_METRICS_SINK_H_

#include "core/trace.h"
#include "obs/metrics.h"

namespace verso {

/// Bridges every TraceSink hook into a MetricsRegistry, then forwards to
/// an optional downstream sink. Connection installs one permanently, so
/// evaluation, view maintenance, and storage-fault events feed the
/// registry always-on, while a client-supplied TraceSink
/// (ConnectionOptions::trace / Connection::SetTrace) still sees the raw
/// event stream unchanged.
///
/// The TraceSink contract stays the one-way street it always was: the
/// bridge only counts; it never mutates events or suppresses forwarding.
class MetricsTraceSink : public TraceSink {
 public:
  explicit MetricsTraceSink(MetricsRegistry& registry,
                            TraceSink* next = nullptr);

  /// The downstream sink events are forwarded to (not owned; nullptr for
  /// none). Rewirable at any time — Connection::SetTrace goes through
  /// this.
  void set_next(TraceSink* next) { next_ = next; }
  TraceSink* next() const { return next_; }

  void OnStratumBegin(uint32_t stratum, size_t rule_count) override;
  void OnRoundBegin(uint32_t stratum, uint32_t round) override;
  void OnDeltaRound(uint32_t stratum, uint32_t round, size_t delta_facts,
                    size_t seed_probes, size_t residual_rules) override;
  void OnUpdateDerived(const Rule& rule, const GroundUpdate& update) override;
  void OnVersionMaterialized(Vid version, Vid copied_from,
                             size_t copied_facts) override;
  void OnIndexUse(uint32_t stratum, size_t probes, size_t hits,
                  size_t avoided_facts) override;
  void OnStratumFixpoint(uint32_t stratum, uint32_t rounds) override;
  void OnViewMaintenance(std::string_view view, size_t delta_facts,
                         size_t added, size_t removed, size_t overdeleted,
                         size_t rederived, size_t seed_probes,
                         size_t index_probes) override;
  void OnStorageFault(std::string_view op, const Status& status,
                      uint32_t attempt, bool degraded) override;

 private:
  TraceSink* next_;

  Counter& strata_;
  Counter& rounds_;
  Counter& delta_rounds_;
  Counter& delta_facts_;
  Counter& seed_probes_;
  Counter& residual_rule_runs_;
  Counter& updates_derived_;
  Counter& versions_materialized_;
  Counter& index_probes_;
  Counter& index_hits_;
  Counter& index_avoided_;
  Counter& view_runs_;
  Counter& view_delta_facts_;
  Counter& view_added_;
  Counter& view_removed_;
  Counter& view_overdeleted_;
  Counter& view_rederived_;
  Counter& view_seed_probes_;
  Counter& view_index_probes_;
  Counter& storage_faults_;
  Counter& storage_degraded_;
};

}  // namespace verso

#endif  // VERSO_OBS_METRICS_SINK_H_
