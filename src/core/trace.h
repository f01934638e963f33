#ifndef VERSO_CORE_TRACE_H_
#define VERSO_CORE_TRACE_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "core/rule.h"
#include "core/symbol_table.h"
#include "core/update.h"
#include "core/version_table.h"
#include "util/status.h"

namespace verso {

/// Observer interface over the update-process. The evaluator invokes the
/// hooks during bottom-up evaluation, and view maintenance and the
/// storage layer report through them as well; sinks render Figure-2
/// style process traces and let tests assert process properties.
/// Counters do not come from sinks: each layer adds its own to the
/// metrics registry. All hooks default to no-ops.
class TraceSink {
 public:
  virtual ~TraceSink() = default;

  virtual void OnStratumBegin(uint32_t stratum, size_t rule_count) {
    (void)stratum;
    (void)rule_count;
  }
  virtual void OnRoundBegin(uint32_t stratum, uint32_t round) {
    (void)stratum;
    (void)round;
  }
  /// A delta round (any round >= 1 of a stratum's fixpoint, in naive
  /// mode too) finished: `delta_facts` fact-level changes were consumed,
  /// `seed_probes` delta-seeded partial matches were launched, and
  /// `residual_rules` rules needed a full re-match (in naive mode every
  /// rule is a residual run and seed_probes is 0). Emitted identically
  /// for single Execute commits and for each ExecuteBatch member.
  virtual void OnDeltaRound(uint32_t stratum, uint32_t round,
                            size_t delta_facts, size_t seed_probes,
                            size_t residual_rules) {
    (void)stratum;
    (void)round;
    (void)delta_facts;
    (void)seed_probes;
    (void)residual_rules;
  }
  /// A rule instance contributed `update` to T¹ in the current round.
  virtual void OnUpdateDerived(const Rule& rule, const GroundUpdate& update) {
    (void)rule;
    (void)update;
  }
  /// A version was materialized for the first time; `copied_from` is the
  /// stage whose state seeded it (invalid Vid for fresh objects).
  virtual void OnVersionMaterialized(Vid version, Vid copied_from,
                                     size_t copied_facts) {
    (void)version;
    (void)copied_from;
    (void)copied_facts;
  }
  /// A stratum reached its fixpoint having answered `probes` bound-result
  /// lookups through the (method, result) index: `hits` enumerated at
  /// least one fact and `avoided_facts` full-scan fact visits were
  /// skipped. Emitted before OnStratumFixpoint for every stratum —
  /// probes may be 0 — so per-commit coverage does not depend on the
  /// commit's shape (and is identical for ExecuteBatch members).
  virtual void OnIndexUse(uint32_t stratum, size_t probes, size_t hits,
                          size_t avoided_facts) {
    (void)stratum;
    (void)probes;
    (void)hits;
    (void)avoided_facts;
  }
  virtual void OnStratumFixpoint(uint32_t stratum, uint32_t rounds) {
    (void)stratum;
    (void)rounds;
  }
  /// A materialized view absorbed one committed delta: `delta_facts`
  /// base-level changes were consumed, `added`/`removed` view facts were
  /// installed/retracted, and DRed overdeleted/rederived that many facts.
  /// `seed_probes` delta-seeded partial matches were launched, and they
  /// made `index_probes` per-version bound-result lookups (ViewStats).
  virtual void OnViewMaintenance(std::string_view view, size_t delta_facts,
                                 size_t added, size_t removed,
                                 size_t overdeleted, size_t rederived,
                                 size_t seed_probes, size_t index_probes) {
    (void)view;
    (void)delta_facts;
    (void)added;
    (void)removed;
    (void)overdeleted;
    (void)rederived;
    (void)seed_probes;
    (void)index_probes;
  }
  /// The storage layer hit an I/O fault on operation `op`: "wal-append",
  /// "wal-rollback", "checkpoint-store" or "checkpoint-truncate".
  /// `attempt` counts retries already spent on the operation (0 = first
  /// try); `degraded` is true when this fault tipped the database into
  /// read-only degraded mode.
  virtual void OnStorageFault(std::string_view op, const Status& status,
                              uint32_t attempt, bool degraded) {
    (void)op;
    (void)status;
    (void)attempt;
    (void)degraded;
  }
};

/// Renders each event as one readable line (the Figure 2 process trace)
/// and hands it to Emit; RecordingTrace keeps the lines, StreamTrace
/// prints them.
class LineTrace : public TraceSink {
 public:
  LineTrace(const SymbolTable& symbols, const VersionTable& versions)
      : symbols_(symbols), versions_(versions) {}

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

 protected:
  /// One event's line, without a trailing newline.
  virtual void Emit(std::string line) = 0;

 private:
  const SymbolTable& symbols_;
  const VersionTable& versions_;
};

/// Records a readable line per event; handy in tests and examples.
class RecordingTrace : public LineTrace {
 public:
  using LineTrace::LineTrace;

  const std::vector<std::string>& lines() const { return lines_; }
  /// All lines joined with newlines.
  std::string ToString() const;

 private:
  void Emit(std::string line) override { lines_.push_back(std::move(line)); }

  std::vector<std::string> lines_;
};

/// Streams events to an ostream as they happen (used by the CLI's
/// --trace flag and the example binaries).
class StreamTrace : public LineTrace {
 public:
  StreamTrace(std::ostream& out, const SymbolTable& symbols,
              const VersionTable& versions)
      : LineTrace(symbols, versions), out_(out) {}

 private:
  void Emit(std::string line) override;

  std::ostream& out_;
};

}  // namespace verso

#endif  // VERSO_CORE_TRACE_H_
