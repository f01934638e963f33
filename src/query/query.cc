#include "query/query.h"

#include <algorithm>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "core/delta.h"
#include "core/match.h"
#include "parser/parser.h"

namespace verso {

namespace {

/// Tarjan's SCC algorithm (iterative) over the derived-method dependency
/// graph: node = derived method, edge head -> body-method for every body
/// literal reading a derived method. Tarjan completes a component only
/// after everything it depends on, so components pop in exactly the
/// bottom-up stratum order the evaluator and the view maintainer need.
class MethodSccFinder {
 public:
  explicit MethodSccFinder(size_t node_count)
      : adjacency_(node_count), state_(node_count) {}

  void AddEdge(uint32_t from, uint32_t to) { adjacency_[from].push_back(to); }

  /// Components in reverse-topological (bottom-up dependency) order.
  std::vector<std::vector<uint32_t>> Run() {
    for (uint32_t n = 0; n < state_.size(); ++n) {
      if (state_[n].index == kUnvisited) Visit(n);
    }
    return std::move(components_);
  }

  /// After Run(): the component index of a node.
  uint32_t ComponentOf(uint32_t node) const { return state_[node].component; }

 private:
  static constexpr uint32_t kUnvisited = UINT32_MAX;

  struct NodeState {
    uint32_t index = kUnvisited;
    uint32_t lowlink = 0;
    uint32_t component = kUnvisited;
    bool on_stack = false;
  };

  void Visit(uint32_t root) {
    struct Frame {
      uint32_t node;
      size_t next_edge = 0;
    };
    std::vector<Frame> frames{{root}};
    Push(root);
    while (!frames.empty()) {
      Frame& frame = frames.back();
      NodeState& node = state_[frame.node];
      if (frame.next_edge < adjacency_[frame.node].size()) {
        uint32_t next = adjacency_[frame.node][frame.next_edge++];
        if (state_[next].index == kUnvisited) {
          Push(next);
          frames.push_back({next});
        } else if (state_[next].on_stack) {
          node.lowlink = std::min(node.lowlink, state_[next].index);
        }
        continue;
      }
      if (node.lowlink == node.index) PopComponent(frame.node);
      uint32_t done = frame.node;
      frames.pop_back();
      if (!frames.empty()) {
        NodeState& parent = state_[frames.back().node];
        parent.lowlink = std::min(parent.lowlink, state_[done].lowlink);
      }
    }
  }

  void Push(uint32_t node) {
    state_[node].index = state_[node].lowlink = next_index_++;
    state_[node].on_stack = true;
    stack_.push_back(node);
  }

  void PopComponent(uint32_t head) {
    std::vector<uint32_t> component;
    while (true) {
      uint32_t node = stack_.back();
      stack_.pop_back();
      state_[node].on_stack = false;
      state_[node].component = static_cast<uint32_t>(components_.size());
      component.push_back(node);
      if (node == head) break;
    }
    components_.push_back(std::move(component));
  }

  std::vector<std::vector<uint32_t>> adjacency_;
  std::vector<NodeState> state_;
  std::vector<uint32_t> stack_;
  std::vector<std::vector<uint32_t>> components_;
  uint32_t next_index_ = 0;
};

}  // namespace

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

Result<QueryStratification> AnalyzeQueryProgram(QueryProgram& program,
                                                const SymbolTable& symbols) {
  for (Rule& rule : program.rules) {
    VERSO_RETURN_IF_ERROR(AnalyzeRule(rule, symbols));
  }

  // Dense node ids for the derived methods.
  std::unordered_map<uint32_t, uint32_t> node_of_method;
  for (MethodId m : program.derived_methods) {
    node_of_method.emplace(m.value, static_cast<uint32_t>(node_of_method.size()));
  }

  struct Edge {
    uint32_t head_node;
    uint32_t body_node;
    bool negated;
  };
  std::vector<Edge> edges;
  MethodSccFinder scc(node_of_method.size());
  for (const Rule& rule : program.rules) {
    auto head_it = node_of_method.find(rule.head.app.method.value);
    if (head_it == node_of_method.end()) {
      // Caller-assembled programs can desynchronize the two fields;
      // surface it in-band instead of crashing on a map lookup.
      return Status::InvalidArgument(
          "derived method '" +
          std::string(symbols.MethodName(rule.head.app.method)) +
          "' is used as a rule head but missing from derived_methods");
    }
    uint32_t head_node = head_it->second;
    for (const Literal& lit : rule.body) {
      if (lit.kind != Literal::Kind::kVersion) continue;
      auto it = node_of_method.find(lit.version.app.method.value);
      if (it == node_of_method.end()) continue;  // base method
      scc.AddEdge(head_node, it->second);
      edges.push_back({head_node, it->second, lit.negated});
    }
  }

  std::vector<std::vector<uint32_t>> components = scc.Run();

  // Condition (d): no negation inside a component. The diagnostic names
  // the actual method cycle (head -> negated body -> ... -> head), found
  // by BFS within the component.
  for (const Edge& edge : edges) {
    if (!edge.negated ||
        scc.ComponentOf(edge.head_node) != scc.ComponentOf(edge.body_node)) {
      continue;
    }
    std::vector<MethodId> method_of_node(node_of_method.size());
    for (const auto& [m, node] : node_of_method) {
      method_of_node[node] = MethodId(m);
    }
    std::string path(symbols.MethodName(method_of_node[edge.head_node]));
    if (edge.head_node == edge.body_node) {
      path += " -> ";
      path += symbols.MethodName(method_of_node[edge.head_node]);
    } else {
      std::vector<std::vector<uint32_t>> adj(node_of_method.size());
      for (const Edge& e : edges) adj[e.head_node].push_back(e.body_node);
      // BFS body -> ... -> head inside the component; pred[x] -> x is an
      // edge, so walking pred back from head then reversing yields the
      // closing path in dependency order.
      std::vector<int> pred(node_of_method.size(), -1);
      std::vector<uint32_t> queue{edge.body_node};
      pred[edge.body_node] = static_cast<int>(edge.body_node);
      for (size_t qi = 0; qi < queue.size() && pred[edge.head_node] == -1;
           ++qi) {
        for (uint32_t next : adj[queue[qi]]) {
          if (scc.ComponentOf(next) != scc.ComponentOf(edge.head_node) ||
              pred[next] != -1) {
            continue;
          }
          pred[next] = static_cast<int>(queue[qi]);
          queue.push_back(next);
        }
      }
      std::vector<uint32_t> back{edge.head_node};
      while (back.back() != edge.body_node) {
        back.push_back(static_cast<uint32_t>(pred[back.back()]));
      }
      for (auto it = back.rbegin(); it != back.rend(); ++it) {
        path += " -> ";
        path += symbols.MethodName(method_of_node[*it]);
      }
    }
    return Status::NotStratifiable(
        "derived methods are recursive through negation: " + path);
  }

  QueryStratification out;
  out.strata.resize(components.size());
  for (MethodId m : program.derived_methods) {
    uint32_t component = scc.ComponentOf(node_of_method.at(m.value));
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

Status SolveRecursiveStratum(const QueryProgram& program,
                             const QueryStratum& stratum,
                             SymbolTable& symbols, VersionTable& versions,
                             ObjectBase& working, uint32_t max_rounds,
                             QueryStats* stats) {
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
        if (stats != nullptr) ++stats->derived_facts;
        delta.push_back(std::move(fact));
      }
    }
    pending.clear();
  };

  // Round 0: full evaluation of every rule in the stratum.
  if (stats != nullptr) ++stats->rounds;
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
    if (stats != nullptr) ++stats->rounds;
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
          if (stats != nullptr) stats->seed_pairs_skipped += frontier.size();
          continue;
        }
        if (stats != nullptr) {
          stats->seed_pairs_skipped += frontier.size() - bucket->size();
        }
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
        if (stats != nullptr) ++stats->delta_joins;
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
  if (stats != nullptr) *stats += istats;
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
  IndexStats istats;
  MatchContext ctx{symbols, versions, working, &istats};
  local.strata = static_cast<uint32_t>(stratification.strata.size());

  for (const QueryStratum& stratum : stratification.strata) {
    if (stratum.recursive && options.semi_naive) {
      VERSO_RETURN_IF_ERROR(SolveRecursiveStratum(
          program, stratum, symbols, versions, working,
          options.max_rounds_per_stratum, &local));
      continue;
    }

    // Buffered head install, as in SolveRecursiveStratum.
    std::vector<DeltaFact> pending;
    size_t installed = 0;
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
          ++local.derived_facts;
          ++installed;
        }
      }
      pending.clear();
    };

    // Round 0: full evaluation of every rule in the stratum — for a
    // non-recursive stratum this already is the fixpoint.
    ++local.rounds;
    for (uint32_t r : stratum.rules) {
      const Rule& rule = program.rules[r];
      VERSO_RETURN_IF_ERROR(ForEachBodyMatch(
          rule, ctx,
          [&](const Bindings& bindings) { return derive_head(rule, bindings); }));
      install_pending();
    }
    if (!stratum.recursive) continue;

    // Naive ablation mode: re-run all rules until nothing new is derived.
    for (uint32_t round = 1;; ++round) {
      if (round >= options.max_rounds_per_stratum) {
        return Status::Divergence("query stratum exceeded round bound");
      }
      installed = 0;
      ++local.rounds;
      for (uint32_t r : stratum.rules) {
        const Rule& rule = program.rules[r];
        VERSO_RETURN_IF_ERROR(ForEachBodyMatch(
            rule, ctx, [&](const Bindings& bindings) {
              return derive_head(rule, bindings);
            }));
        install_pending();
      }
      if (installed == 0) break;
    }
  }

  local += istats;
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
