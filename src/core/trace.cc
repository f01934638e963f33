#include "core/trace.h"

#include <ostream>

#include "core/pretty.h"

namespace verso {

void LineTrace::OnStratumBegin(uint32_t stratum, size_t rule_count) {
  Emit("stratum " + std::to_string(stratum) + " (" +
       std::to_string(rule_count) + " rules)");
}

void LineTrace::OnRoundBegin(uint32_t stratum, uint32_t round) {
  Emit("  round " + std::to_string(stratum) + "." + std::to_string(round));
}

void LineTrace::OnDeltaRound(uint32_t stratum, uint32_t round,
                             size_t delta_facts, size_t seed_probes,
                             size_t residual_rules) {
  Emit("  delta " + std::to_string(stratum) + "." + std::to_string(round) +
       ": " + std::to_string(delta_facts) + " fact(s), " +
       std::to_string(seed_probes) + " seed probe(s), " +
       std::to_string(residual_rules) + " residual rule(s)");
}

void LineTrace::OnUpdateDerived(const Rule& rule, const GroundUpdate& update) {
  Emit("    " + rule.DisplayName() + " derives " +
       GroundUpdateToString(update, symbols_, versions_));
}

void LineTrace::OnVersionMaterialized(Vid version, Vid copied_from,
                                      size_t copied_facts) {
  std::string from = copied_from.valid()
                         ? versions_.ToString(copied_from, symbols_)
                         : std::string("<fresh>");
  Emit("    materialize " + versions_.ToString(version, symbols_) + " from " +
       from + " (" + std::to_string(copied_facts) + " facts)");
}

void LineTrace::OnIndexUse(uint32_t stratum, size_t probes, size_t hits,
                           size_t avoided_facts) {
  Emit("stratum " + std::to_string(stratum) + " index: " +
       std::to_string(probes) + " probe(s), " + std::to_string(hits) +
       " hit(s), " + std::to_string(avoided_facts) + " scan fact(s) avoided");
}

void LineTrace::OnStratumFixpoint(uint32_t stratum, uint32_t rounds) {
  Emit("stratum " + std::to_string(stratum) + " fixpoint after " +
       std::to_string(rounds) + " round(s)");
}

void LineTrace::OnViewMaintenance(std::string_view view, size_t delta_facts,
                                  size_t added, size_t removed,
                                  size_t overdeleted, size_t rederived,
                                  size_t seed_probes, size_t index_probes) {
  Emit("view " + std::string(view) + ": " + std::to_string(delta_facts) +
       " delta fact(s) -> +" + std::to_string(added) + "/-" +
       std::to_string(removed) + " (overdeleted " +
       std::to_string(overdeleted) + ", rederived " +
       std::to_string(rederived) + "; " + std::to_string(seed_probes) +
       " seed probe(s), " + std::to_string(index_probes) +
       " index probe(s))");
}

void LineTrace::OnStorageFault(std::string_view op, const Status& status,
                               uint32_t attempt, bool degraded) {
  Emit("storage fault on " + std::string(op) + " (attempt " +
       std::to_string(attempt) + "): " + status.ToString() +
       (degraded ? " -> DEGRADED (read-only)" : ""));
}

std::string RecordingTrace::ToString() const {
  std::string out;
  for (const std::string& line : lines_) {
    out += line;
    out += '\n';
  }
  return out;
}

void StreamTrace::Emit(std::string line) { out_ << line << '\n'; }

}  // namespace verso
