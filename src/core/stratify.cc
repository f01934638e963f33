#include "core/stratify.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>

#include "core/unify.h"

namespace verso {

namespace {

/// One version-id-term occurring in a rule body, with its polarity.
struct BodyTerm {
  VidTerm term;
  bool negated;
};

std::vector<BodyTerm> BodyTermsOf(const Rule& rule) {
  std::vector<BodyTerm> out;
  for (const Literal& lit : rule.body) {
    switch (lit.kind) {
      case Literal::Kind::kVersion:
        out.push_back({lit.version.version, lit.negated});
        break;
      case Literal::Kind::kUpdate:
        out.push_back({lit.update.TargetTerm(), lit.negated});
        break;
      case Literal::Kind::kBuiltin:
        break;
    }
  }
  return out;
}

/// True iff rule r'’s head version-id-term unifies with some subterm of t.
bool HeadUnifiesSubterm(const VidTerm& head_target, const VidTerm& t) {
  for (const VidTerm& sub : VidSubterms(t)) {
    if (UnifyVidTerms(head_target, sub)) return true;
  }
  return false;
}

/// Union adjacency (strict + weak) of the graph.
std::vector<std::vector<uint32_t>> Adjacency(const RuleGraph& graph) {
  std::vector<std::vector<uint32_t>> adj(graph.rule_count);
  for (const auto& [from, to] : graph.strict_edges) adj[from].push_back(to);
  for (const auto& [from, to] : graph.weak_edges) adj[from].push_back(to);
  return adj;
}

}  // namespace

RuleGraph BuildRuleGraph(const Program& program) {
  const size_t n = program.rules.size();

  std::vector<VidTerm> head_target(n);
  std::vector<VidTerm> head_version(n);  // V in head α[V]
  std::vector<std::vector<BodyTerm>> body_terms(n);
  for (size_t r = 0; r < n; ++r) {
    head_target[r] = program.rules[r].head.TargetTerm();
    head_version[r] = program.rules[r].head.version;
    body_terms[r] = BodyTermsOf(program.rules[r]);
  }

  // Edge (from, to): stratum(from) + weight <= stratum(to);
  // weight 1 = strict (lower stratum), weight 0 = weak (at most as high).
  std::set<std::pair<uint32_t, uint32_t>> strict_edges;
  std::set<std::pair<uint32_t, uint32_t>> weak_edges;
  auto add_edge = [&](size_t from, size_t to, bool strict) {
    auto edge = std::make_pair(static_cast<uint32_t>(from),
                               static_cast<uint32_t>(to));
    if (strict) {
      strict_edges.insert(edge);
    } else if (strict_edges.count(edge) == 0) {
      weak_edges.insert(edge);
    }
  };

  for (size_t r = 0; r < n; ++r) {
    // Condition (a): writers of any subterm of the head's version V are
    // strictly below this rule (once copied, a state is final).
    for (size_t rp = 0; rp < n; ++rp) {
      if (HeadUnifiesSubterm(head_target[rp], head_version[r])) {
        add_edge(rp, r, /*strict=*/true);
      }
    }
    for (const BodyTerm& bt : body_terms[r]) {
      // Conditions (b) and (c): writers of (subterms of) a version read in
      // the body are at most as high (positive) / strictly below (negated).
      for (size_t rp = 0; rp < n; ++rp) {
        if (HeadUnifiesSubterm(head_target[rp], bt.term)) {
          add_edge(rp, r, /*strict=*/bt.negated);
        }
      }
      // Condition (d): reading a del(V)/mod(V) version puts the rules that
      // perform the corresponding delete/modify strictly below, so that a
      // shrinking state is never used before it is final.
      if (!bt.term.ops.empty() && (bt.term.ops[0] == UpdateKind::kDelete ||
                                   bt.term.ops[0] == UpdateKind::kModify)) {
        const UpdateKind kind = bt.term.ops[0];
        const VidTerm inner = bt.term.Inner();
        for (size_t rp = 0; rp < n; ++rp) {
          if (program.rules[rp].head.kind != kind) continue;
          if (UnifyVidTerms(inner, head_version[rp])) {
            add_edge(rp, r, /*strict=*/true);
          }
        }
      }
    }
  }

  // Promote: a strict edge supersedes a weak edge between the same rules.
  for (const auto& e : strict_edges) weak_edges.erase(e);

  RuleGraph graph;
  graph.rule_count = n;
  graph.strict_edges.assign(strict_edges.begin(), strict_edges.end());
  graph.weak_edges.assign(weak_edges.begin(), weak_edges.end());

  SccResult scc = FindSccs(Adjacency(graph));
  graph.component = std::move(scc.component);
  graph.component_count = scc.component_count;
  return graph;
}

SccResult FindSccs(const std::vector<std::vector<uint32_t>>& adjacency) {
  const size_t n = adjacency.size();
  SccResult out;
  out.component.assign(n, -1);
  std::vector<int> index(n, -1);
  std::vector<int> lowlink(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<uint32_t> stack;
  int next_index = 0;
  struct Frame {
    uint32_t node;
    size_t child;
  };
  for (uint32_t start = 0; start < n; ++start) {
    if (index[start] != -1) continue;
    std::vector<Frame> frames{{start, 0}};
    index[start] = lowlink[start] = next_index++;
    stack.push_back(start);
    on_stack[start] = true;
    while (!frames.empty()) {
      Frame& frame = frames.back();
      if (frame.child < adjacency[frame.node].size()) {
        uint32_t next = adjacency[frame.node][frame.child++];
        if (index[next] == -1) {
          index[next] = lowlink[next] = next_index++;
          stack.push_back(next);
          on_stack[next] = true;
          frames.push_back({next, 0});
        } else if (on_stack[next]) {
          lowlink[frame.node] = std::min(lowlink[frame.node], index[next]);
        }
        continue;
      }
      if (lowlink[frame.node] == index[frame.node]) {
        while (true) {
          uint32_t w = stack.back();
          stack.pop_back();
          on_stack[w] = false;
          out.component[w] = out.component_count;
          if (w == frame.node) break;
        }
        ++out.component_count;
      }
      uint32_t done = frame.node;
      frames.pop_back();
      if (!frames.empty()) {
        lowlink[frames.back().node] =
            std::min(lowlink[frames.back().node], lowlink[done]);
      }
    }
  }
  return out;
}

std::vector<uint32_t> FindCycle(
    const std::vector<std::vector<uint32_t>>& adjacency,
    const std::vector<int>& component, uint32_t from, uint32_t to) {
  if (component[from] != component[to]) return {};
  if (from == to) return {from, from};
  // BFS from `to` back to `from` inside the SCC; the predecessor chain
  // gives the shortest completing path, so the rendered cycle is minimal.
  std::vector<int> pred(adjacency.size(), -1);
  std::deque<uint32_t> queue{to};
  pred[to] = static_cast<int>(to);
  bool found = false;
  while (!queue.empty() && !found) {
    uint32_t node = queue.front();
    queue.pop_front();
    for (uint32_t next : adjacency[node]) {
      if (component[next] != component[from] || pred[next] != -1) continue;
      pred[next] = static_cast<int>(node);
      if (next == from) {
        found = true;
        break;
      }
      queue.push_back(next);
    }
  }
  if (!found) return {};
  std::vector<uint32_t> back;  // from, pred(from), ..., to
  for (uint32_t at = from;; at = static_cast<uint32_t>(pred[at])) {
    back.push_back(at);
    if (at == to) break;
  }
  std::vector<uint32_t> cycle{from};  // from -> to -> ... -> from
  cycle.insert(cycle.end(), back.rbegin(), back.rend());
  return cycle;
}

std::vector<uint32_t> FindRuleCycle(const RuleGraph& graph, uint32_t from,
                                    uint32_t to) {
  return FindCycle(Adjacency(graph), graph.component, from, to);
}

Result<Stratification> Stratify(const Program& program) {
  return Stratify(program, BuildRuleGraph(program));
}

Result<Stratification> Stratify(const Program& program,
                                const RuleGraph& graph) {
  const size_t n = program.rules.size();

  // A strict edge inside one SCC makes the program non-stratifiable; name
  // the whole offending cycle, not just the edge's endpoints.
  for (const auto& [from, to] : graph.strict_edges) {
    if (graph.SameComponent(from, to)) {
      std::string path;
      for (uint32_t r : FindRuleCycle(graph, from, to)) {
        if (!path.empty()) path += " -> ";
        path += program.rules[r].DisplayName();
      }
      return Status::NotStratifiable(
          "rules '" + program.rules[from].DisplayName() + "' and '" +
          program.rules[to].DisplayName() +
          "' are mutually recursive through a constraint that requires '" +
          program.rules[from].DisplayName() +
          "' to be in a strictly lower stratum (conditions (a)-(d) of "
          "Section 4); dependency cycle: " +
          path);
    }
  }

  // Longest-path layering over the condensation: repeated relaxation (the
  // graph is a DAG after the check above; n is the number of rules, which
  // is small, so Bellman-Ford-style passes are fine).
  std::vector<uint32_t> comp_level(
      static_cast<size_t>(graph.component_count), 0);
  auto relax = [&](uint32_t from, uint32_t to, uint32_t weight) {
    int cf = graph.component[from];
    int ct = graph.component[to];
    if (cf == ct) return;
    comp_level[ct] = std::max(comp_level[ct], comp_level[cf] + weight);
  };
  for (int pass = 0; pass < graph.component_count; ++pass) {
    bool changed = false;
    for (const auto& [from, to] : graph.strict_edges) {
      uint32_t before = comp_level[graph.component[to]];
      relax(from, to, 1);
      changed |= comp_level[graph.component[to]] != before;
    }
    for (const auto& [from, to] : graph.weak_edges) {
      uint32_t before = comp_level[graph.component[to]];
      relax(from, to, 0);
      changed |= comp_level[graph.component[to]] != before;
    }
    if (!changed) break;
  }

  // Compact the stratum numbers to a dense range.
  std::vector<uint32_t> levels;
  levels.reserve(n);
  for (size_t r = 0; r < n; ++r) {
    levels.push_back(comp_level[graph.component[r]]);
  }
  std::vector<uint32_t> sorted = levels;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());

  Stratification out;
  out.stratum_of_rule.resize(n);
  out.strata.resize(sorted.size());
  for (size_t r = 0; r < n; ++r) {
    uint32_t dense = static_cast<uint32_t>(
        std::lower_bound(sorted.begin(), sorted.end(), levels[r]) -
        sorted.begin());
    out.stratum_of_rule[r] = dense;
    out.strata[dense].push_back(static_cast<uint32_t>(r));
  }
  return out;
}

}  // namespace verso
