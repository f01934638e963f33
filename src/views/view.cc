#include "views/view.h"

#include <algorithm>
#include <deque>

#include "core/match.h"
#include "obs/metrics.h"

namespace verso {

namespace {

/// View-maintenance handles into the global registry, bound once. Each
/// successful maintenance run adds its share of its view's ViewStats.
struct ViewMetrics {
  Counter& runs;
  Counter& delta_facts;
  Counter& added;
  Counter& removed;
  Counter& overdeleted;
  Counter& rederived;
  Counter& seed_probes;
  Counter& index_probes;

  static ViewMetrics& Get() {
    static ViewMetrics* metrics =
        new ViewMetrics(MetricsRegistry::Global());  // never dies
    return *metrics;
  }

  explicit ViewMetrics(MetricsRegistry& registry)
      : runs(registry.GetCounter("view.maintenance_runs")),
        delta_facts(registry.GetCounter("view.delta_facts")),
        added(registry.GetCounter("view.facts_added")),
        removed(registry.GetCounter("view.facts_removed")),
        overdeleted(registry.GetCounter("view.overdeleted")),
        rederived(registry.GetCounter("view.rederived")),
        seed_probes(registry.GetCounter("view.seed_probes")),
        index_probes(registry.GetCounter("view.index_probes")) {}
};

DeltaFact ToDeltaFact(const ViewFactKey& key, bool added) {
  return DeltaFact{key.vid, key.method, key.app, added};
}

/// The sink of one rule's maintenance probes: appends each match's head
/// fact to `heads` (a trigger probe), or, with `heads` null, records that
/// a match exists and stops the enumeration (a rederivation probe).
struct HeadSink {
  const Rule* rule;
  VersionTable* versions;
  std::vector<ViewFactKey>* heads = nullptr;
  bool found = false;

  Status operator()(const Bindings& bindings) {
    if (heads == nullptr) {
      found = true;
      // Abort enumeration: one derivation is enough.
      return Status::NotFound("derivation found");
    }
    VERSO_ASSIGN_OR_RETURN(DeltaFact head,
                           ResolveHeadFact(*rule, bindings, *versions));
    heads->push_back({head.vid, head.method, std::move(head.app)});
    return Status::Ok();
  }
};

/// The methods of the positive version literals that maintenance reaches
/// with an unbound object variable and a ground result. It walks the
/// rule's execution order from each entry point: seeded at a version
/// literal, which is then skipped (ProbeTrigger), and seeded from the
/// head (HasDerivation). Without an index such a literal visits every
/// version that holds the method.
std::vector<MethodId> FreeObjectProbes(const Rule& rule) {
  std::vector<MethodId> methods;
  auto walk = [&](std::vector<bool> bound, int skip) {
    for (uint32_t li : rule.execution_order) {
      if (static_cast<int>(li) == skip) continue;
      const Literal& lit = rule.body[li];
      if (lit.kind == Literal::Kind::kVersion && !lit.negated) {
        const ObjTerm& object = lit.version.version.base;
        const ObjTerm& result = lit.version.app.result;
        if (object.is_var && !bound[object.var.value] &&
            (!result.is_var || bound[result.var.value])) {
          methods.push_back(lit.version.app.method);
        }
      }
      for (VarId v : LiteralVars(rule, lit)) bound[v.value] = true;
    }
  };
  for (uint32_t li = 0; li < rule.body.size(); ++li) {
    const Literal& lit = rule.body[li];
    if (lit.kind != Literal::Kind::kVersion) continue;
    std::vector<bool> seeded(rule.var_count(), false);
    for (VarId v : LiteralVars(rule, lit)) seeded[v.value] = true;
    walk(std::move(seeded), static_cast<int>(li));
  }
  std::vector<bool> head(rule.var_count(), false);
  auto bind = [&](const ObjTerm& term) {
    if (term.is_var) head[term.var.value] = true;
  };
  bind(rule.head.version.base);
  for (const ObjTerm& arg : rule.head.app.args) bind(arg);
  bind(rule.head.app.result);
  walk(std::move(head), /*skip=*/-1);
  std::sort(methods.begin(), methods.end());
  methods.erase(std::unique(methods.begin(), methods.end()), methods.end());
  return methods;
}

}  // namespace

void MaterializedView::RegisterMetrics() { ViewMetrics::Get(); }

Result<std::unique_ptr<MaterializedView>> MaterializedView::Create(
    std::string name, QueryProgram program, const ObjectBase& base,
    SymbolTable& symbols, VersionTable& versions,
    const AnalysisOptions& analysis) {
  for (MethodId m : program.derived_methods) {
    if (base.VidsWithMethod(m) != nullptr) {
      return Status::InvalidArgument(
          "view '" + name + "': derived method '" +
          std::string(symbols.MethodName(m)) +
          "' already has stored facts in the object base");
    }
  }
  // Analyze-on-CREATE: blocking diagnostics refuse the registration
  // before the (expensive) initial materialization starts.
  std::shared_ptr<const AnalysisReport> report;
  if (analysis.enabled) {
    report = std::make_shared<AnalysisReport>(
        AnalyzeDerivedProgram(program, symbols, ContextFromBase(base)));
    VERSO_RETURN_IF_ERROR(report->FirstBlocking(analysis));
  }
  std::unique_ptr<MaterializedView> view(new MaterializedView(
      std::move(name), std::move(program), base, symbols, versions));
  view->analysis_ = std::move(report);
  VERSO_ASSIGN_OR_RETURN(
      view->stratification_,
      AnalyzeQueryProgram(view->program_, symbols));
  for (MethodId m : view->program_.derived_methods) {
    view->derived_methods_.insert(m.value);
  }
  for (const Rule& rule : view->program_.rules) {
    view->free_object_probes_.push_back(FreeObjectProbes(rule));
  }
  QueryStats qstats;
  VERSO_RETURN_IF_ERROR(EvaluateStrata(view->program_, view->stratification_,
                                       symbols, versions, view->working_,
                                       qstats));
  ++view->stats_.full_evaluations;
  view->stats_.seed_probes += qstats.delta_joins;
  view->stats_ += static_cast<const IndexStats&>(qstats);
  return view;
}

/// One matcher per rule of a stratum, built once per maintenance run of
/// the stratum and reused by every trigger and rederivation probe it
/// makes. Each matcher holds `ctx` and its rule's sink by reference:
/// both are members, and the deque never moves an element.
struct MaterializedView::StratumProbes {
  struct RuleProbe {
    RuleProbe(const Rule& rule, MatchContext& ctx, VersionTable& versions)
        : sink{&rule, &versions}, matcher(rule, ctx, sink) {}
    HeadSink sink;
    Matcher<HeadSink> matcher;
  };

  StratumProbes(MaterializedView& view, const QueryStratum& stratum)
      : ctx{view.symbols_, view.versions_, view.working_, &view.istats_} {
    for (uint32_t r : stratum.rules) {
      rules.emplace_back(view.program_.rules[r], ctx, view.versions_);
    }
  }
  StratumProbes(const StratumProbes&) = delete;
  StratumProbes& operator=(const StratumProbes&) = delete;

  MatchContext ctx;
  std::deque<RuleProbe> rules;
  Bindings seed;
};

std::unordered_set<uint32_t> MaterializedView::ReadMethods(
    const QueryStratum& stratum) const {
  std::unordered_set<uint32_t> methods;
  for (uint32_t r : stratum.rules) {
    for (const Literal& lit : program_.rules[r].body) {
      if (lit.kind != Literal::Kind::kVersion) continue;
      methods.insert(lit.version.app.method.value);
    }
  }
  return methods;
}

void MaterializedView::IndexFreeObjectProbes(const QueryStratum& stratum) {
  for (uint32_t r : stratum.rules) {
    for (MethodId method : free_object_probes_[r]) {
      working_.IndexResults(method);
    }
  }
}

Status MaterializedView::ProbeTrigger(StratumProbes& probes,
                                      const Trigger& trigger,
                                      std::vector<ViewFactKey>& heads) {
  for (StratumProbes::RuleProbe& probe : probes.rules) {
    const Rule& rule = *probe.sink.rule;
    for (uint32_t li = 0; li < rule.body.size(); ++li) {
      const Literal& lit = rule.body[li];
      if (lit.kind != Literal::Kind::kVersion) continue;
      if (lit.negated != trigger.through_negation) continue;
      if (lit.version.app.method != trigger.fact.method) continue;
      if (!UnifyLiteralPattern(rule, li, trigger.fact, versions_,
                               probes.seed)) {
        continue;
      }
      ++stats_.seed_probes;
      probe.sink.heads = &heads;
      VERSO_RETURN_IF_ERROR(
          probe.matcher.RunFrom(probes.seed, static_cast<int>(li)));
    }
  }
  return Status::Ok();
}

Result<bool> MaterializedView::HasDerivation(StratumProbes& probes,
                                             const ViewFactKey& fact) {
  DeltaFact goal = ToDeltaFact(fact, /*added=*/true);
  for (StratumProbes::RuleProbe& probe : probes.rules) {
    const Rule& rule = *probe.sink.rule;
    if (rule.head.app.method != fact.method) continue;
    if (!SeedBindingsFromHead(rule, goal, versions_, probes.seed)) continue;
    ++stats_.rederive_probes;
    probe.sink.heads = nullptr;
    probe.sink.found = false;
    Status status = probe.matcher.RunFrom(probes.seed, /*skip_literal=*/-1);
    if (probe.sink.found) return true;
    VERSO_RETURN_IF_ERROR(status);
  }
  return false;
}

Status MaterializedView::MaintainDRed(const QueryStratum& stratum,
                                      const DeltaLog& input, DeltaLog& out) {
  std::unordered_set<uint32_t> read = ReadMethods(stratum);
  std::vector<const DeltaFact*> facts;
  for (const DeltaFact& fact : input) {
    if (read.count(fact.method.value)) facts.push_back(&fact);
  }
  if (facts.empty()) return Status::Ok();
  IndexFreeObjectProbes(stratum);
  StratumProbes probes(*this, stratum);

  // ---- Phase A: overdelete, evaluated against the old base state. ----
  // Restore the old state of this stratum's inputs (the commit and lower
  // strata already installed the new one).
  for (const DeltaFact* fact : facts) {
    if (fact->added) {
      working_.Erase(fact->vid, fact->method, fact->app);
    } else {
      working_.Insert(fact->vid, fact->method, fact->app);
    }
  }

  std::vector<Trigger> queue;
  for (const DeltaFact* fact : facts) {
    // A removal kills matches through positive occurrences; an addition
    // kills matches through negated occurrences (which held while the
    // fact was absent).
    queue.push_back({*fact, /*through_negation=*/fact->added});
  }

  // Textbook DRed overdeletion: one body literal ranges over the delta
  // (the trigger), every other literal over the FULL old database — so
  // nothing is erased until the cascade completes, or derivations that
  // join two simultaneously-overdeleted facts (nonlinear recursion) would
  // be missed. The `overdeleted` set alone dedups the cascade.
  std::unordered_set<ViewFactKey, ViewFactKeyHash> overdeleted;
  std::vector<ViewFactKey> overdeleted_order;
  std::vector<ViewFactKey> heads;
  for (size_t qi = 0; qi < queue.size(); ++qi) {
    Trigger trigger = queue[qi];
    heads.clear();
    VERSO_RETURN_IF_ERROR(ProbeTrigger(probes, trigger, heads));
    for (ViewFactKey& head : heads) {
      if (!InWorking(head) || overdeleted.count(head)) continue;
      overdeleted.insert(head);
      overdeleted_order.push_back(head);
      ++stats_.overdeleted;
      queue.push_back(
          {ToDeltaFact(head, /*added=*/false), /*through_negation=*/false});
    }
  }

  // Install the overdeletion and the new state of the inputs.
  for (const ViewFactKey& fact : overdeleted_order) {
    working_.Erase(fact.vid, fact.method, fact.app);
  }
  for (const DeltaFact* fact : facts) {
    if (fact->added) {
      working_.Insert(fact->vid, fact->method, fact->app);
    } else {
      working_.Erase(fact->vid, fact->method, fact->app);
    }
  }

  // ---- Phase B: rederive — goal-directed alternative-proof probes. ----
  // Probes run FROZEN: every overdeleted fact is probed against the
  // post-overdeletion state, and the survivors install together at the
  // end. Within a recursive stratum all same-stratum body occurrences are
  // positive (stratified negation), so a fact whose only surviving proofs
  // pass through other rederived facts is recovered by Phase C's
  // insertion propagation: the final state and the emitted delta are the
  // ones eager per-fact reinsertion would produce.
  std::vector<Trigger> insert_queue;
  for (const DeltaFact* fact : facts) {
    // An addition creates matches through positive occurrences; a removal
    // creates matches through negated occurrences.
    insert_queue.push_back({*fact, /*through_negation=*/!fact->added});
  }
  std::vector<const ViewFactKey*> rederivable;
  for (const ViewFactKey& fact : overdeleted_order) {
    VERSO_ASSIGN_OR_RETURN(bool derivable, HasDerivation(probes, fact));
    if (derivable) rederivable.push_back(&fact);
  }
  for (const ViewFactKey* fact : rederivable) {
    working_.Insert(fact->vid, fact->method, fact->app);
    ++stats_.rederived;
    insert_queue.push_back(
        {ToDeltaFact(*fact, /*added=*/true), /*through_negation=*/false});
  }

  // ---- Phase C: semi-naive insertion propagation (new state). --------
  std::vector<ViewFactKey> inserted_order;
  std::unordered_set<ViewFactKey, ViewFactKeyHash> inserted;
  for (size_t qi = 0; qi < insert_queue.size(); ++qi) {
    Trigger trigger = insert_queue[qi];
    heads.clear();
    VERSO_RETURN_IF_ERROR(ProbeTrigger(probes, trigger, heads));
    for (ViewFactKey& head : heads) {
      if (InWorking(head)) continue;
      working_.Insert(head.vid, head.method, head.app);
      if (inserted.insert(head).second) inserted_order.push_back(head);
      insert_queue.push_back(
          {ToDeltaFact(head, /*added=*/true), /*through_negation=*/false});
    }
  }

  // ---- Emit this stratum's net delta. --------------------------------
  for (const ViewFactKey& fact : overdeleted_order) {
    if (!InWorking(fact)) {
      out.push_back(ToDeltaFact(fact, /*added=*/false));
      ++stats_.facts_removed;
    }
  }
  for (const ViewFactKey& fact : inserted_order) {
    // A reinserted overdeleted fact is a net no-op; only genuinely new
    // facts are reported upward.
    if (InWorking(fact) && !overdeleted.count(fact)) {
      out.push_back(ToDeltaFact(fact, /*added=*/true));
      ++stats_.facts_added;
    }
  }
  return Status::Ok();
}

std::vector<MethodId> MaterializedView::DerivedMethods() const {
  std::vector<MethodId> methods = program_.derived_methods;
  std::sort(methods.begin(), methods.end());
  return methods;
}

void MaterializedView::FoldIndexStats() {
  stats_ += istats_;
  istats_ = IndexStats();
}

Status MaterializedView::ApplyBaseDelta(const DeltaLog& delta,
                                        DeltaLog* view_delta,
                                        TraceSink* trace) {
  if (!health_.ok()) return health_;
  Status status = MaintainAll(delta, view_delta, trace);
  if (!status.ok()) health_ = status;
  return status;
}

Status MaterializedView::MaintainAll(const DeltaLog& delta,
                                     DeltaLog* view_delta, TraceSink* trace) {
  const ViewStats before = stats_;
  ++stats_.maintenance_runs;
  stats_.delta_facts_seen += delta.size();

  for (const DeltaFact& fact : delta) {
    if (derived_methods_.count(fact.method.value)) {
      return Status::InvalidArgument(
          "view '" + name_ + "': committed transaction writes derived "
          "method '" + std::string(symbols_.MethodName(fact.method)) + "'");
    }
  }

  // Install the base transition; every stratum below reads it as new.
  for (const DeltaFact& fact : delta) {
    bool changed = fact.added
                       ? working_.Insert(fact.vid, fact.method, fact.app)
                       : working_.Erase(fact.vid, fact.method, fact.app);
    if (!changed) {
      return Status::Internal("view '" + name_ +
                              "': commit delta out of sync with view base");
    }
  }

  // Ripple bottom-up: each stratum consumes the commit delta plus every
  // lower stratum's emitted changes.
  DeltaLog stream = delta;
  for (const QueryStratum& stratum : stratification_.strata) {
    DeltaLog emitted;
    VERSO_RETURN_IF_ERROR(MaintainDRed(stratum, stream, emitted));
    stream.insert(stream.end(), emitted.begin(), emitted.end());
  }

  FoldIndexStats();
  const uint64_t added = stats_.facts_added - before.facts_added;
  const uint64_t removed = stats_.facts_removed - before.facts_removed;
  const uint64_t overdeleted = stats_.overdeleted - before.overdeleted;
  const uint64_t rederived = stats_.rederived - before.rederived;
  const uint64_t seed_probes = stats_.seed_probes - before.seed_probes;
  const uint64_t index_probes = stats_.index_probes - before.index_probes;
  ViewMetrics& metrics = ViewMetrics::Get();
  metrics.runs.Add();
  metrics.delta_facts.Add(delta.size());
  metrics.added.Add(added);
  metrics.removed.Add(removed);
  metrics.overdeleted.Add(overdeleted);
  metrics.rederived.Add(rederived);
  metrics.seed_probes.Add(seed_probes);
  metrics.index_probes.Add(index_probes);
  if (trace != nullptr) {
    trace->OnViewMaintenance(name_, delta.size(), added, removed, overdeleted,
                             rederived, seed_probes, index_probes);
  }
  // `stream` now holds the commit's base transition plus every stratum's
  // emitted derived-fact changes — exactly the transition result() took.
  if (view_delta != nullptr) *view_delta = std::move(stream);
  return Status::Ok();
}

}  // namespace verso
