#include "core/trace.h"

#include <ostream>

#include "core/pretty.h"

namespace verso {

void RecordingTrace::OnStratumBegin(uint32_t stratum, size_t rule_count) {
  lines_.push_back("stratum " + std::to_string(stratum) + " (" +
                   std::to_string(rule_count) + " rules)");
}

void RecordingTrace::OnRoundBegin(uint32_t stratum, uint32_t round) {
  lines_.push_back("  round " + std::to_string(stratum) + "." +
                   std::to_string(round));
}

void RecordingTrace::OnDeltaRound(uint32_t stratum, uint32_t round,
                                  size_t delta_facts, size_t seed_probes,
                                  size_t residual_rules) {
  lines_.push_back("  delta " + std::to_string(stratum) + "." +
                   std::to_string(round) + ": " +
                   std::to_string(delta_facts) + " fact(s), " +
                   std::to_string(seed_probes) + " seed probe(s), " +
                   std::to_string(residual_rules) + " residual rule(s)");
}

void RecordingTrace::OnUpdateDerived(const Rule& rule,
                                     const GroundUpdate& update) {
  lines_.push_back("    " + rule.DisplayName() + " derives " +
                   GroundUpdateToString(update, symbols_, versions_));
}

void RecordingTrace::OnVersionMaterialized(Vid version, Vid copied_from,
                                           size_t copied_facts) {
  std::string from = copied_from.valid()
                         ? versions_.ToString(copied_from, symbols_)
                         : std::string("<fresh>");
  lines_.push_back("    materialize " + versions_.ToString(version, symbols_) +
                   " from " + from + " (" + std::to_string(copied_facts) +
                   " facts)");
}

void RecordingTrace::OnIndexUse(uint32_t stratum, size_t probes, size_t hits,
                                size_t avoided_facts) {
  lines_.push_back("stratum " + std::to_string(stratum) + " index: " +
                   std::to_string(probes) + " probe(s), " +
                   std::to_string(hits) + " hit(s), " +
                   std::to_string(avoided_facts) + " scan fact(s) avoided");
}

void RecordingTrace::OnStratumFixpoint(uint32_t stratum, uint32_t rounds) {
  lines_.push_back("stratum " + std::to_string(stratum) + " fixpoint after " +
                   std::to_string(rounds) + " round(s)");
}

void RecordingTrace::OnViewMaintenance(std::string_view view,
                                       size_t delta_facts, size_t added,
                                       size_t removed, size_t overdeleted,
                                       size_t rederived, size_t seed_probes,
                                       size_t index_probes) {
  lines_.push_back("view " + std::string(view) + ": " +
                   std::to_string(delta_facts) + " delta fact(s) -> +" +
                   std::to_string(added) + "/-" + std::to_string(removed) +
                   " (overdeleted " + std::to_string(overdeleted) +
                   ", rederived " + std::to_string(rederived) + "; " +
                   std::to_string(seed_probes) + " seed probe(s), " +
                   std::to_string(index_probes) + " index probe(s))");
}

void RecordingTrace::OnStorageFault(std::string_view op, const Status& status,
                                    uint32_t attempt, bool degraded) {
  lines_.push_back("storage fault on " + std::string(op) + " (attempt " +
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

void StreamTrace::OnStratumBegin(uint32_t stratum, size_t rule_count) {
  out_ << "stratum " << stratum << " (" << rule_count << " rules)\n";
}

void StreamTrace::OnRoundBegin(uint32_t stratum, uint32_t round) {
  out_ << "  round " << stratum << "." << round << "\n";
}

void StreamTrace::OnDeltaRound(uint32_t stratum, uint32_t round,
                               size_t delta_facts, size_t seed_probes,
                               size_t residual_rules) {
  out_ << "  delta " << stratum << "." << round << ": " << delta_facts
       << " fact(s), " << seed_probes << " seed probe(s), " << residual_rules
       << " residual rule(s)\n";
}

void StreamTrace::OnUpdateDerived(const Rule& rule,
                                  const GroundUpdate& update) {
  out_ << "    " << rule.DisplayName() << " derives "
       << GroundUpdateToString(update, symbols_, versions_) << "\n";
}

void StreamTrace::OnVersionMaterialized(Vid version, Vid copied_from,
                                        size_t copied_facts) {
  out_ << "    materialize " << versions_.ToString(version, symbols_)
       << " from "
       << (copied_from.valid() ? versions_.ToString(copied_from, symbols_)
                               : std::string("<fresh>"))
       << " (" << copied_facts << " facts)\n";
}

void StreamTrace::OnIndexUse(uint32_t stratum, size_t probes, size_t hits,
                             size_t avoided_facts) {
  out_ << "stratum " << stratum << " index: " << probes << " probe(s), "
       << hits << " hit(s), " << avoided_facts << " scan fact(s) avoided\n";
}

void StreamTrace::OnStratumFixpoint(uint32_t stratum, uint32_t rounds) {
  out_ << "stratum " << stratum << " fixpoint after " << rounds
       << " round(s)\n";
}

void StreamTrace::OnViewMaintenance(std::string_view view, size_t delta_facts,
                                    size_t added, size_t removed,
                                    size_t overdeleted, size_t rederived,
                                    size_t seed_probes, size_t index_probes) {
  out_ << "view " << view << ": " << delta_facts << " delta fact(s) -> +"
       << added << "/-" << removed << " (overdeleted " << overdeleted
       << ", rederived " << rederived << "; " << seed_probes
       << " seed probe(s), " << index_probes << " index probe(s))\n";
}

void StreamTrace::OnStorageFault(std::string_view op, const Status& status,
                                 uint32_t attempt, bool degraded) {
  out_ << "storage fault on " << op << " (attempt " << attempt
       << "): " << status.ToString()
       << (degraded ? " -> DEGRADED (read-only)" : "") << "\n";
}

}  // namespace verso
