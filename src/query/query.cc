#include "query/query.h"

#include <algorithm>
#include <set>

#include "core/delta.h"
#include "core/match.h"
#include "parser/parser.h"

namespace verso {

Result<QueryProgram> ParseQueryProgram(std::string_view source,
                                       SymbolTable& symbols) {
  VERSO_ASSIGN_OR_RETURN(Program inner, ParseDerivedRules(source, symbols));
  QueryProgram program;
  std::set<uint32_t> methods;
  for (Rule& rule : inner.rules) {
    methods.insert(rule.head.app.method.value);
    program.rules.push_back(std::move(rule));
  }
  for (uint32_t m : methods) program.derived_methods.push_back(MethodId(m));
  return program;
}

MethodGraph BuildMethodGraph(const QueryProgram& program) {
  MethodGraph graph;
  for (MethodId m : program.derived_methods) {
    graph.node_of_method.emplace(
        m.value, static_cast<uint32_t>(graph.node_of_method.size()));
  }
  graph.method_of_node.resize(graph.node_of_method.size());
  for (MethodId m : program.derived_methods) {
    graph.method_of_node[graph.node_of_method.at(m.value)] = m;
  }
  graph.adjacency.resize(graph.node_of_method.size());
  for (size_t r = 0; r < program.rules.size(); ++r) {
    const Rule& rule = program.rules[r];
    auto head = graph.node_of_method.find(rule.head.app.method.value);
    if (head == graph.node_of_method.end()) {
      if (graph.unlisted_head_rule < 0) {
        graph.unlisted_head_rule = static_cast<int>(r);
      }
      continue;
    }
    for (const Literal& lit : rule.body) {
      if (lit.kind != Literal::Kind::kVersion) continue;
      auto body = graph.node_of_method.find(lit.version.app.method.value);
      if (body == graph.node_of_method.end()) continue;  // base method
      graph.adjacency[head->second].push_back(body->second);
      graph.edges.push_back({head->second, body->second, lit.negated});
    }
  }
  graph.scc = FindSccs(graph.adjacency);
  return graph;
}

std::vector<MethodGraph::Edge> MethodGraph::NegationCycles() const {
  std::vector<Edge> cycles;
  std::vector<bool> reported(static_cast<size_t>(scc.component_count), false);
  for (const Edge& edge : edges) {
    const int component = scc.component[edge.head];
    if (!edge.negated || component != scc.component[edge.body] ||
        reported[static_cast<size_t>(component)]) {
      continue;
    }
    reported[static_cast<size_t>(component)] = true;
    cycles.push_back(edge);
  }
  return cycles;
}

std::string MethodGraph::CycleMessage(const Edge& edge,
                                      const SymbolTable& symbols) const {
  std::string path;
  for (uint32_t node : FindCycle(adjacency, scc.component, edge.head,
                                 edge.body)) {
    if (!path.empty()) path += " -> ";
    path += symbols.MethodName(method_of_node[node]);
  }
  return "derived methods are recursive through negation: " + path;
}

Result<QueryStratification> AnalyzeQueryProgram(QueryProgram& program,
                                                const SymbolTable& symbols) {
  for (Rule& rule : program.rules) {
    VERSO_RETURN_IF_ERROR(AnalyzeRule(rule, symbols));
  }
  MethodGraph graph = BuildMethodGraph(program);
  if (graph.unlisted_head_rule >= 0) {
    // Surface a desynchronized program in-band instead of crashing on a
    // map lookup.
    const Rule& rule = program.rules[graph.unlisted_head_rule];
    return Status::InvalidArgument(
        "derived method '" +
        std::string(symbols.MethodName(rule.head.app.method)) +
        "' is used as a rule head but missing from derived_methods");
  }
  // Condition (d): no negation inside a component.
  std::vector<MethodGraph::Edge> cycles = graph.NegationCycles();
  if (!cycles.empty()) {
    return Status::NotStratifiable(graph.CycleMessage(cycles[0], symbols));
  }

  QueryStratification out;
  out.strata.resize(static_cast<size_t>(graph.scc.component_count));
  for (MethodId m : program.derived_methods) {
    uint32_t component = static_cast<uint32_t>(
        graph.scc.component[graph.node_of_method.at(m.value)]);
    out.strata[component].methods.push_back(m);
    out.stratum_of_method.emplace(m.value, component);
  }
  for (QueryStratum& stratum : out.strata) {
    std::sort(stratum.methods.begin(), stratum.methods.end());
    stratum.recursive = stratum.methods.size() > 1;
  }
  for (uint32_t r = 0; r < program.rules.size(); ++r) {
    const Rule& rule = program.rules[r];
    uint32_t component =
        out.stratum_of_method.at(rule.head.app.method.value);
    QueryStratum& stratum = out.strata[component];
    stratum.rules.push_back(r);
    // Self-loop: a singleton component is still recursive when one of its
    // rules reads the method it defines.
    for (const Literal& lit : rule.body) {
      if (lit.kind != Literal::Kind::kVersion) continue;
      MethodId m = lit.version.app.method;
      if (std::binary_search(stratum.methods.begin(), stratum.methods.end(),
                             m)) {
        stratum.recursive = true;
      }
    }
  }
  return out;
}

Result<DeltaFact> ResolveHeadFact(const Rule& rule, const Bindings& bindings,
                                  VersionTable& versions) {
  Vid vid = ResolveVid(rule.head.version, bindings, versions);
  if (!vid.valid()) {
    return Status::Internal("unbound head version in derived rule");
  }
  return DeltaFact{vid, rule.head.app.method,
                   ResolveApp(rule.head.app, bindings), /*added=*/true};
}

namespace {

/// Semi-naive fixpoint of one recursive stratum (EvaluateStrata).
Status SolveRecursiveStratum(const QueryProgram& program,
                             const QueryStratum& stratum,
                             SymbolTable& symbols, VersionTable& versions,
                             ObjectBase& working, uint32_t max_rounds,
                             QueryStats& stats) {
  IndexStats istats;
  MatchContext ctx{symbols, versions, working, &istats};
  DeltaLog frontier;
  DeltaLog delta;
  // Rounds are frozen: head facts are buffered during derivation (the
  // matcher holds pointers into the base's fact vectors) and installed
  // only at the round boundary. The fixpoint is monotone, so batching
  // installs changes round packaging but not the result.
  std::vector<DeltaFact> pending;
  auto derive_head = [&](const Rule& rule,
                         const Bindings& bindings) -> Status {
    VERSO_ASSIGN_OR_RETURN(DeltaFact head,
                           ResolveHeadFact(rule, bindings, versions));
    pending.push_back(std::move(head));
    return Status::Ok();
  };
  auto install_pending = [&]() {
    for (DeltaFact& fact : pending) {
      if (working.Insert(fact.vid, fact.method, fact.app)) {
        ++stats.derived_facts;
        delta.push_back(std::move(fact));
      }
    }
    pending.clear();
  };

  // Round 0: full evaluation of every rule in the stratum.
  ++stats.rounds;
  for (uint32_t r : stratum.rules) {
    const Rule& rule = program.rules[r];
    VERSO_RETURN_IF_ERROR(ForEachBodyMatch(
        rule, ctx, [&](const Bindings& bindings) {
          return derive_head(rule, bindings);
        }));
  }
  install_pending();

  // Semi-naive rounds: every new fact must be joined through at least one
  // body occurrence of a this-stratum method, found through the
  // frontier's (method, shape) index.
  frontier = std::move(delta);
  delta = DeltaLog();
  DeltaIndex index;
  for (uint32_t round = 1; !frontier.empty(); ++round) {
    if (round >= max_rounds) {
      return Status::Divergence("query stratum exceeded round bound");
    }
    delta.clear();
    ++stats.rounds;
    index.Build(frontier, versions);

    // The round's probe work as (rule, literal, frontier bucket) specs:
    // every seed key is interned before the first probe runs.
    struct ProbeSpec {
      const Rule* rule = nullptr;
      uint32_t literal = 0;
      const std::vector<const DeltaFact*>* bucket = nullptr;
    };
    std::vector<ProbeSpec> specs;
    for (uint32_t r : stratum.rules) {
      const Rule& rule = program.rules[r];
      for (size_t li = 0; li < rule.body.size(); ++li) {
        const Literal& lit = rule.body[li];
        if (lit.kind != Literal::Kind::kVersion || lit.negated) continue;
        if (!std::binary_search(stratum.methods.begin(),
                                stratum.methods.end(),
                                lit.version.app.method)) {
          continue;
        }
        MethodId method;
        VidShape shape;
        if (!SeedKeyForLiteral(rule, static_cast<uint32_t>(li), versions,
                               &method, &shape)) {
          continue;
        }
        const std::vector<const DeltaFact*>* bucket =
            index.Added(method, shape);
        if (bucket == nullptr) {
          stats.seed_pairs_skipped += frontier.size();
          continue;
        }
        stats.seed_pairs_skipped += frontier.size() - bucket->size();
        specs.push_back({&rule, static_cast<uint32_t>(li), bucket});
      }
    }

    for (const ProbeSpec& spec : specs) {
      const Rule& rule = *spec.rule;
      for (const DeltaFact* fact : *spec.bucket) {
        Bindings seed;
        if (!SeedBindingsFromDelta(rule, spec.literal, *fact, versions,
                                   seed)) {
          continue;
        }
        ++stats.delta_joins;
        VERSO_RETURN_IF_ERROR(ForEachBodyMatchFrom(
            rule, ctx, seed, static_cast<int>(spec.literal),
            [&](const Bindings& bindings) {
              return derive_head(rule, bindings);
            }));
      }
    }
    install_pending();
    frontier = std::move(delta);
    delta = DeltaLog();
  }
  stats += istats;
  return Status::Ok();
}

}  // namespace

Status EvaluateStrata(const QueryProgram& program,
                      const QueryStratification& stratification,
                      SymbolTable& symbols, VersionTable& versions,
                      ObjectBase& working, QueryStats& stats,
                      const QueryOptions& options) {
  IndexStats istats;
  MatchContext ctx{symbols, versions, working, &istats};
  stats.strata += static_cast<uint32_t>(stratification.strata.size());

  // Buffered head install, as in SolveRecursiveStratum.
  std::vector<DeltaFact> pending;
  size_t installed = 0;
  auto full_round = [&](const QueryStratum& stratum) -> Status {
    ++stats.rounds;
    installed = 0;
    for (uint32_t r : stratum.rules) {
      const Rule& rule = program.rules[r];
      VERSO_RETURN_IF_ERROR(ForEachBodyMatch(
          rule, ctx, [&](const Bindings& bindings) -> Status {
            VERSO_ASSIGN_OR_RETURN(DeltaFact head,
                                   ResolveHeadFact(rule, bindings, versions));
            pending.push_back(std::move(head));
            return Status::Ok();
          }));
      for (DeltaFact& fact : pending) {
        if (working.Insert(fact.vid, fact.method, fact.app)) {
          ++stats.derived_facts;
          ++installed;
        }
      }
      pending.clear();
    }
    return Status::Ok();
  };

  for (const QueryStratum& stratum : stratification.strata) {
    if (stratum.recursive && options.semi_naive) {
      VERSO_RETURN_IF_ERROR(SolveRecursiveStratum(
          program, stratum, symbols, versions, working,
          options.max_rounds_per_stratum, stats));
      continue;
    }
    // Round 0: for a non-recursive stratum this already is the fixpoint.
    VERSO_RETURN_IF_ERROR(full_round(stratum));
    if (!stratum.recursive) continue;
    // Naive ablation mode: re-run all rules until nothing new is derived.
    for (uint32_t round = 1;; ++round) {
      if (round >= options.max_rounds_per_stratum) {
        return Status::Divergence("query stratum exceeded round bound");
      }
      VERSO_RETURN_IF_ERROR(full_round(stratum));
      if (installed == 0) break;
    }
  }
  stats += istats;
  return Status::Ok();
}

Result<ObjectBase> EvaluateQueries(QueryProgram& program,
                                   const ObjectBase& base,
                                   SymbolTable& symbols,
                                   VersionTable& versions, QueryStats* stats,
                                   const QueryOptions& options) {
  // Derived methods must not be stored: the separation between base
  // methods (updatable) and derived methods (defined by rules) is the
  // paper's own (Section 1: "units for updates are the result sets of
  // base methods").
  for (MethodId m : program.derived_methods) {
    if (base.VidsWithMethod(m) != nullptr) {
      return Status::InvalidArgument(
          "derived method '" + std::string(symbols.MethodName(m)) +
          "' already has stored facts in the object base");
    }
  }
  VERSO_ASSIGN_OR_RETURN(QueryStratification stratification,
                         AnalyzeQueryProgram(program, symbols));

  ObjectBase working = base;
  QueryStats local;
  VERSO_RETURN_IF_ERROR(EvaluateStrata(program, stratification, symbols,
                                       versions, working, local, options));
  if (stats != nullptr) *stats = local;
  return working;
}

Result<ObjectBase> EvaluateQueries(QueryProgram& program,
                                   const ObjectBase& base, Engine& engine,
                                   QueryStats* stats,
                                   const QueryOptions& options) {
  return EvaluateQueries(program, base, engine.symbols(), engine.versions(),
                         stats, options);
}

}  // namespace verso
