#ifndef VERSO_CORE_ENGINE_H_
#define VERSO_CORE_ENGINE_H_

#include <optional>

#include "core/commit.h"
#include "core/evaluator.h"
#include "core/object_base.h"
#include "core/program.h"
#include "core/stratify.h"
#include "core/symbol_table.h"
#include "core/trace.h"
#include "core/version_table.h"
#include "util/result.h"

namespace verso {

class PhaseClock;

/// Everything a run of an update-program produces.
struct RunOutcome {
  /// result(P): the fixpoint with all intermediate versions, queryable
  /// for hypothetical reasoning (Section 2.3, Example 2).
  ObjectBase result;
  /// ob': the new object base built from the final versions (Section 5)
  /// on an O(1) copy of the input; a commit installs exactly this base.
  ObjectBase new_base;
  Stratification stratification;
  EvalStats stats;
  /// The fact-level delta from the input to new_base, removals first then
  /// additions (ApplyDelta order), each run in (version, method,
  /// application) order as ComputeDelta emits them; a write's ResultSet
  /// merges the two runs into its rows. Engine::Run records it while it
  /// builds new_base, so a bare Run leaves here what committing new_base
  /// would change, though it commits nothing; Database::Execute /
  /// ExecuteBatch log and publish exactly this delta. Empty for a no-op
  /// transaction.
  DeltaLog committed_delta;
  /// The database's commit epoch after this transaction committed (its
  /// own epoch tag within a batch; a no-op transaction keeps the
  /// previous epoch). 0 for a bare Engine::Run.
  uint64_t committed_epoch = 0;
};

/// Facade tying the pipeline together:
///   validate + analyze -> stratify -> seal exists -> evaluate -> commit.
/// An Engine owns the OID/VID universe; every object base it manipulates
/// must have been created through MakeBase() (or the parser bound to the
/// same engine).
class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  SymbolTable& symbols() { return symbols_; }
  const SymbolTable& symbols() const { return symbols_; }
  VersionTable& versions() { return versions_; }
  const VersionTable& versions() const { return versions_; }

  /// An empty object base bound to this engine's universe.
  ObjectBase MakeBase() const {
    return ObjectBase(symbols_.exists_method(), &versions_);
  }

  /// Convenience for assembling object bases in code and tests:
  /// adds `object.method@args -> result` (all symbols interned).
  void AddFact(ObjectBase& base, std::string_view object,
               std::string_view method, std::initializer_list<Oid> args,
               Oid result);
  void AddFact(ObjectBase& base, std::string_view object,
               std::string_view method, Oid result);
  /// Result given as a symbol name.
  void AddFact(ObjectBase& base, std::string_view object,
               std::string_view method, std::string_view result);
  /// Result given as an integer value.
  void AddFact(ObjectBase& base, std::string_view object,
               std::string_view method, int64_t result);

  /// Runs `program` against `input` (untouched; the engine works on a
  /// copy sealed with exists-facts). Analyze() is applied to the program
  /// if it has not been already (execution orders are recomputed); the
  /// stratification is the program's cached one. ob' and its delta are
  /// built on an O(1) copy of `input` (BuildNewObjectBaseOn).
  /// The seal, the fixpoint and that build are timed into commit.seal_us /
  /// commit.fixpoint_us / commit.build_base_us, as laps of `phases` when
  /// the caller times a larger operation (the commit path).
  ///
  /// NOTE: this is an internal entry point — nothing is committed or made
  /// durable. Client code should execute programs through the
  /// `verso::Connection` / `verso::Session` facade (src/api/api.h).
  Result<RunOutcome> Run(Program& program, const ObjectBase& input,
                         const EvalOptions& options = EvalOptions(),
                         TraceSink* trace = nullptr,
                         PhaseClock* phases = nullptr);

 private:
  SymbolTable symbols_;
  mutable VersionTable versions_;
};

}  // namespace verso

#endif  // VERSO_CORE_ENGINE_H_
