#include "core/engine.h"

#include <optional>

#include "obs/metrics.h"

namespace verso {

namespace {

/// Phase-span handles into the global registry, bound once (registration
/// takes a mutex; a run must not): the working copy's existence seal,
/// the T_P fixpoint over all strata, and the construction of ob' with
/// its delta. On the commit path they split commit.evaluate_us.
struct RunMetrics {
  Histogram& seal_us;
  Histogram& fixpoint_us;
  Histogram& build_base_us;

  static RunMetrics& Get() {
    static RunMetrics* metrics =
        new RunMetrics(MetricsRegistry::Global());  // never dies
    return *metrics;
  }

  explicit RunMetrics(MetricsRegistry& registry)
      : seal_us(registry.GetHistogram("commit.seal_us")),
        fixpoint_us(registry.GetHistogram("commit.fixpoint_us")),
        build_base_us(registry.GetHistogram("commit.build_base_us")) {}
};

}  // namespace

void Engine::AddFact(ObjectBase& base, std::string_view object,
                     std::string_view method, std::initializer_list<Oid> args,
                     Oid result) {
  Vid vid = versions_.OfOid(symbols_.Symbol(object));
  GroundApp app;
  app.args.assign(args.begin(), args.end());
  app.result = result;
  base.Insert(vid, symbols_.Method(method), std::move(app));
}

void Engine::AddFact(ObjectBase& base, std::string_view object,
                     std::string_view method, Oid result) {
  AddFact(base, object, method, {}, result);
}

void Engine::AddFact(ObjectBase& base, std::string_view object,
                     std::string_view method, std::string_view result) {
  AddFact(base, object, method, {}, symbols_.Symbol(result));
}

void Engine::AddFact(ObjectBase& base, std::string_view object,
                     std::string_view method, int64_t result) {
  AddFact(base, object, method, {}, symbols_.Int(result));
}

Result<RunOutcome> Engine::Run(Program& program, const ObjectBase& input,
                               const EvalOptions& options, TraceSink* trace,
                               PhaseClock* phases) {
  VERSO_RETURN_IF_ERROR(program.Analyze(symbols_));
  VERSO_ASSIGN_OR_RETURN(const Stratification* stratification,
                         program.stratification());
  RunMetrics& metrics = RunMetrics::Get();
  // The seal starts here: the caller's clock ticks past the analysis.
  std::optional<PhaseClock> own;
  if (phases == nullptr) {
    phases = &own.emplace(MetricsRegistry::Global());
  } else {
    phases->Tick();
  }

  ObjectBase working = input;
  const std::vector<Vid> sealed = working.SealExistence();
  phases->Lap(metrics.seal_us);

  Evaluator evaluator(symbols_, versions_, options, trace);
  Result<EvalStats> stats = evaluator.Run(program, *stratification, working);
  phases->Lap(metrics.fixpoint_us);
  VERSO_RETURN_IF_ERROR(stats.status());

  DeltaLog delta;
  Result<ObjectBase> fresh = BuildNewObjectBaseOn(input, sealed, working,
                                                  symbols_, versions_, &delta);
  phases->Lap(metrics.build_base_us);
  VERSO_RETURN_IF_ERROR(fresh.status());

  RunOutcome outcome{std::move(working), std::move(fresh).value(),
                     *stratification, std::move(stats).value(),
                     std::move(delta)};
  return outcome;
}

}  // namespace verso
