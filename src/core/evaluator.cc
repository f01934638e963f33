#include "core/evaluator.h"

#include "obs/metrics.h"

namespace verso {

namespace {

/// Evaluation handles into the global registry, bound once (registration
/// takes a mutex; a run must not). Run adds each finished evaluation's
/// EvalStats totals; delta rounds are the rounds >= 1 of a stratum.
struct EvalMetrics {
  Counter& strata;
  Counter& rounds;
  Counter& delta_rounds;
  Counter& delta_facts;
  Counter& seed_probes;
  Counter& residual_rule_runs;
  Counter& updates_derived;
  Counter& versions_materialized;
  Counter& index_probes;
  Counter& index_hits;
  Counter& index_avoided;

  static EvalMetrics& Get() {
    static EvalMetrics* metrics =
        new EvalMetrics(MetricsRegistry::Global());  // never dies
    return *metrics;
  }

  explicit EvalMetrics(MetricsRegistry& registry)
      : strata(registry.GetCounter("eval.strata")),
        rounds(registry.GetCounter("eval.rounds")),
        delta_rounds(registry.GetCounter("eval.delta_rounds")),
        delta_facts(registry.GetCounter("eval.delta_facts")),
        seed_probes(registry.GetCounter("eval.seed_probes")),
        residual_rule_runs(registry.GetCounter("eval.residual_rule_runs")),
        updates_derived(registry.GetCounter("eval.updates_derived")),
        versions_materialized(
            registry.GetCounter("eval.versions_materialized")),
        index_probes(registry.GetCounter("index.probes")),
        index_hits(registry.GetCounter("index.hits")),
        index_avoided(registry.GetCounter("index.scan_avoided_facts")) {}
};

}  // namespace

void Evaluator::RegisterMetrics() { EvalMetrics::Get(); }

Status Evaluator::NoteMaterialized(
    Vid vid, std::unordered_map<Oid, Vid>& deepest) const {
  Oid root = versions_.root(vid);
  auto it = deepest.find(root);
  if (it == deepest.end()) {
    deepest.emplace(root, vid);
    return Status::Ok();
  }
  if (versions_.IsSubterm(it->second, vid)) {
    it->second = vid;
    return Status::Ok();
  }
  if (versions_.IsSubterm(vid, it->second)) return Status::Ok();
  return Status::NotVersionLinear(
      "object '" + symbols_.OidToString(root) + "' has incomparable versions " +
      versions_.ToString(it->second, symbols_) + " and " +
      versions_.ToString(vid, symbols_) +
      " (neither is a subterm of the other; Section 5 requires a linear "
      "version order)");
}

Result<EvalStats> Evaluator::Run(const Program& program,
                                 const Stratification& stratification,
                                 ObjectBase& base) {
  EvalStats stats;
  stats.strata.resize(stratification.stratum_count());

  // A plain version is a subterm of every version of its object, so it
  // can never break linearity: only the non-plain ones need noting.
  std::unordered_map<Oid, Vid> deepest;
  if (options_.check_version_linearity) {
    for (Vid vid : base.non_plain_versions()) {
      VERSO_RETURN_IF_ERROR(NoteMaterialized(vid, deepest));
    }
  }

  TpOperator tp(symbols_, versions_);
  for (uint32_t stratum = 0; stratum < stratification.stratum_count();
       ++stratum) {
    const std::vector<uint32_t>& rules = stratification.strata[stratum];
    if (trace_ != nullptr) trace_->OnStratumBegin(stratum, rules.size());
    StratumStats& sstats = stats.strata[stratum];

    TpStratumState sstate;
    DeltaLog delta;
    DeltaLog next_delta;
    for (uint32_t round = 0;; ++round) {
      if (round >= options_.max_rounds_per_stratum) {
        return Status::Divergence(
            "stratum " + std::to_string(stratum) + " did not reach a "
            "fixpoint within " +
            std::to_string(options_.max_rounds_per_stratum) + " rounds");
      }
      if (trace_ != nullptr) trace_->OnRoundBegin(stratum, round);

      TpRoundStats rstats;
      if (round == 0 || !options_.semi_naive) {
        VERSO_RETURN_IF_ERROR(
            tp.DeriveFull(program, rules, base, sstate, rstats, trace_));
        // A naive delta round re-matches every rule of the stratum.
        if (round > 0) rstats.residual_rules = rules.size();
      } else {
        VERSO_RETURN_IF_ERROR(tp.DeriveSeeded(program, rules, base, delta,
                                              sstate, rstats, trace_));
      }

      next_delta.clear();
      VERSO_ASSIGN_OR_RETURN(
          TpApplyResult applied,
          tp.ApplyRound(sstate, base, next_delta, rstats, trace_));
      if (options_.check_version_linearity) {
        for (Vid vid : applied.materialized) {
          VERSO_RETURN_IF_ERROR(NoteMaterialized(vid, deepest));
        }
      }

      sstats.rounds = round + 1;
      sstats.t1_updates += rstats.fresh_updates;
      sstats.states_replaced += rstats.states_changed;
      sstats.copied_facts += rstats.copied_facts;
      sstats.body_matches += rstats.body_matches;
      sstats.delta_facts += next_delta.size();
      sstats.seed_probes += rstats.seed_probes;
      sstats.seed_pairs_skipped += rstats.seed_pairs_skipped;
      sstats.residual_rule_runs += rstats.residual_rules;
      sstats += rstats.index;
      stats.versions_materialized += rstats.versions_prepared;
      // Every consumed round notifies, in naive mode too (naive rounds
      // report 0 seed probes and their full re-matches as residual
      // runs), so a sink hears the same per-commit event stream
      // regardless of evaluation mode or of whether the commit arrived
      // through Execute or as an ExecuteBatch member.
      if (trace_ != nullptr && round > 0) {
        trace_->OnDeltaRound(stratum, round, delta.size(), rstats.seed_probes,
                             rstats.residual_rules);
      }

      delta.swap(next_delta);
      if (delta.empty()) break;
    }
    if (trace_ != nullptr) {
      // Unconditional (zero probes included): whether a sink hears the
      // index summary must not depend on the commit's shape — a batch of
      // probe-free members would otherwise be invisible to sinks that
      // account per-commit index behavior.
      trace_->OnIndexUse(stratum, sstats.index_probes, sstats.index_hits,
                         sstats.indexed_scan_avoided_facts);
      trace_->OnStratumFixpoint(stratum, sstats.rounds);
    }
  }

  EvalMetrics& metrics = EvalMetrics::Get();
  metrics.strata.Add(stats.strata.size());
  for (const StratumStats& sstats : stats.strata) {
    metrics.rounds.Add(sstats.rounds);
    metrics.delta_rounds.Add(sstats.rounds - 1);
    metrics.delta_facts.Add(sstats.delta_facts);
    metrics.seed_probes.Add(sstats.seed_probes);
    metrics.residual_rule_runs.Add(sstats.residual_rule_runs);
    metrics.updates_derived.Add(sstats.t1_updates);
    metrics.index_probes.Add(sstats.index_probes);
    metrics.index_hits.Add(sstats.index_hits);
    metrics.index_avoided.Add(sstats.indexed_scan_avoided_facts);
  }
  metrics.versions_materialized.Add(stats.versions_materialized);
  return stats;
}

}  // namespace verso
