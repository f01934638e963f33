#ifndef VERSO_CORE_MATCH_H_
#define VERSO_CORE_MATCH_H_

#include <algorithm>
#include <type_traits>
#include <vector>

#include "core/object_base.h"
#include "core/rule.h"
#include "core/symbol_table.h"
#include "core/version_table.h"
#include "util/result.h"

namespace verso {

/// Shared mutable context for matching: the symbol table interns numbers
/// produced by arithmetic, the version table interns VIDs resolved from
/// version-id-terms. The object base is read-only during matching.
/// `istats`, when set, accumulates the bound-result index probe counters
/// (ForEachAppWithResult) the enumeration performs.
struct MatchContext {
  SymbolTable& symbols;
  VersionTable& versions;
  const ObjectBase& base;
  IndexStats* istats = nullptr;
};

/// Resolves a version-id-term whose base is a constant or a bound
/// variable to a concrete (interned) VID. Returns an invalid Vid when the
/// base variable is unbound.
Vid ResolveVid(const VidTerm& term, const Bindings& bindings,
               VersionTable& versions);

/// Resolves a fully bound AppPattern to a ground application.
/// Precondition (guaranteed by safety analysis): every variable bound.
GroundApp ResolveApp(const AppPattern& app, const Bindings& bindings);

/// Evaluates the paper's truth definition (Section 3) for a ground
/// literal: version-terms by membership; body update-terms by the
/// ins/del/mod transition conditions; built-ins by evaluation. The
/// literal's negation flag is applied.
Result<bool> GroundLiteralTruth(const Rule& rule, const Literal& literal,
                                const Bindings& bindings, MatchContext& ctx);

/// Recursive backtracking matcher for one rule body, invoking `sink`
/// once per satisfying binding of the rule's variables (in the order
/// planned by AnalyzeRule); the sink may return an error to abort.
/// Bindings use a trail per choice point; trails are drawn from a
/// per-depth scratch pool, and the pool, the bindings and the trails
/// live as long as the matcher. A loop that matches one rule against
/// many seeds builds one matcher and calls RunFrom per seed, so a probe
/// allocates nothing once the trails have grown. The sink is a template
/// parameter so the per-match call inlines (no std::function indirection
/// on the hot path).
///
/// The matcher holds the rule, `ctx` and `sink` by reference: all three
/// must outlive it. Nothing may write ctx.base while a run enumerates it
/// (a write moves facts in a state's block); a sink that derives facts
/// buffers them until the run returns.
template <typename Sink>
class Matcher {
 public:
  Matcher(const Rule& rule, MatchContext& ctx, Sink& sink)
      : rule_(rule), ctx_(ctx), sink_(sink), scratch_(rule.body.size()) {
    bindings_.assign(rule.var_count(), Oid());
  }

  /// Full match: every body literal, from no bindings.
  Status Run() {
    std::fill(bindings_.begin(), bindings_.end(), Oid());
    skip_literal_ = -1;
    return Step(0);
  }

  /// Semi-naive entry: starts from `initial` bindings and skips the body
  /// literal at index `skip_literal` (-1: none), which the caller has
  /// already matched against a delta fact. `initial` must bind every
  /// variable the skipped literal would have bound.
  Status RunFrom(const Bindings& initial, int skip_literal) {
    bindings_.assign(initial.begin(), initial.end());
    bindings_.resize(rule_.var_count(), Oid());
    skip_literal_ = skip_literal;
    return Step(0);
  }

 private:
  using Trail = std::vector<VarId>;

  /// Trails live per recursion depth: `version` backs the version-variable
  /// binding of the literal at this depth, `fact`/`extra` back the (up to
  /// two) application bindings tried per candidate fact. Reusing them
  /// across candidates at the same depth is safe because candidates are
  /// tried sequentially and deeper steps only touch deeper scratch slots.
  struct DepthScratch {
    Trail version;
    Trail fact;
    Trail extra;
  };

  const Rule& rule_;
  MatchContext& ctx_;
  Sink& sink_;
  Bindings bindings_;
  std::vector<DepthScratch> scratch_;
  int skip_literal_ = -1;

  /// Unifies an object-id-term with a ground OID, recording fresh bindings
  /// on the trail. Returns false on mismatch (trail untouched for the
  /// failed term itself; caller unwinds the whole trail).
  bool BindObj(const ObjTerm& term, Oid value, Trail* trail) {
    if (!term.is_var) return term.oid == value;
    Oid& slot = bindings_[term.var.value];
    if (slot.valid()) return slot == value;
    slot = value;
    trail->push_back(term.var);
    return true;
  }

  void Unwind(const Trail& trail) {
    for (VarId v : trail) bindings_[v.value] = Oid();
  }

  bool TryBindApp(const AppPattern& pattern, const GroundApp& fact,
                  Trail* trail) {
    if (pattern.args.size() != fact.args.size()) return false;
    for (size_t i = 0; i < pattern.args.size(); ++i) {
      if (!BindObj(pattern.args[i], fact.args[i], trail)) return false;
    }
    return BindObj(pattern.result, fact.result, trail);
  }

  /// True iff `term` denotes a ground OID at this point of the match —
  /// a constant, or a variable bound by an earlier literal. Ground
  /// result terms select the indexed enumeration path.
  bool GroundValue(const ObjTerm& term, Oid* out) const {
    if (!term.is_var) {
      *out = term.oid;
      return true;
    }
    Oid value = bindings_[term.var.value];
    if (!value.valid()) return false;
    *out = value;
    return true;
  }

  /// The one candidate-fact enumeration of the matcher: when
  /// `result_term` is ground at this point of the match, only the facts
  /// carrying that result are visited (ForEachAppWithResult, result
  /// index); otherwise the full sorted vector is (ForEachApp).
  template <typename Fn>
  Status ProbeApps(const VersionState& state, MethodId method,
                   const ObjTerm& result_term, Fn&& fn) {
    Oid result;
    if (GroundValue(result_term, &result)) {
      return state.ForEachAppWithResult(method, result, ctx_.istats,
                                        std::forward<Fn>(fn));
    }
    return state.ForEachApp(method, std::forward<Fn>(fn));
  }

  Status Step(size_t pos) {
    if (pos == rule_.execution_order.size()) return sink_(bindings_);
    if (static_cast<int>(rule_.execution_order[pos]) == skip_literal_) {
      return Step(pos + 1);
    }
    const Literal& lit = rule_.body[rule_.execution_order[pos]];
    switch (lit.kind) {
      case Literal::Kind::kBuiltin:
        return StepBuiltin(lit, pos);
      case Literal::Kind::kVersion:
        if (lit.negated) return StepGroundCheck(lit, pos);
        return MatchVersionPattern(lit.version.version,
                                   lit.version.app, pos);
      case Literal::Kind::kUpdate:
        if (lit.negated) return StepGroundCheck(lit, pos);
        switch (lit.update.kind) {
          case UpdateKind::kInsert:
            // Body truth of ins[V].m->r is exactly ins(V).m->r in I.
            return MatchVersionPattern(lit.update.TargetTerm(),
                                       lit.update.app, pos);
          case UpdateKind::kDelete:
            return MatchDelete(lit.update, pos);
          case UpdateKind::kModify:
            return MatchModify(lit.update, pos);
        }
    }
    return Status::Internal("corrupt literal");
  }

  /// Negated (or otherwise ground) literal: evaluate the paper's truth
  /// definition and continue on success.
  Status StepGroundCheck(const Literal& lit, size_t pos) {
    VERSO_ASSIGN_OR_RETURN(
        bool truth, GroundLiteralTruth(rule_, lit, bindings_, ctx_));
    if (!truth) return Status::Ok();
    return Step(pos + 1);
  }

  Status StepBuiltin(const Literal& lit, size_t pos) {
    const BuiltinAtom& b = lit.builtin;
    if (!lit.negated && b.op == CmpOp::kEq) {
      // Binding form `X = expr` / `expr = X`: bind the unbound side.
      VarId var;
      if (rule_.exprs.IsVarRef(b.lhs, &var) && !bindings_[var.value].valid()) {
        return BindEq(var, b.rhs, pos);
      }
      if (rule_.exprs.IsVarRef(b.rhs, &var) && !bindings_[var.value].valid()) {
        return BindEq(var, b.lhs, pos);
      }
    }
    VERSO_ASSIGN_OR_RETURN(
        Oid lhs, EvalExpr(rule_.exprs, b.lhs, bindings_, ctx_.symbols));
    VERSO_ASSIGN_OR_RETURN(
        Oid rhs, EvalExpr(rule_.exprs, b.rhs, bindings_, ctx_.symbols));
    bool truth = EvalCmp(b.op, lhs, rhs, ctx_.symbols);
    if (lit.negated) truth = !truth;
    if (!truth) return Status::Ok();
    return Step(pos + 1);
  }

  Status BindEq(VarId var, ExprId expr, size_t pos) {
    VERSO_ASSIGN_OR_RETURN(
        Oid value, EvalExpr(rule_.exprs, expr, bindings_, ctx_.symbols));
    bindings_[var.value] = value;
    Status status = Step(pos + 1);
    bindings_[var.value] = Oid();
    return status;
  }

  /// Enumerates facts `vid.m@args -> r` matching the pattern, where the
  /// version is given by `vterm`. Handles both the bound-base case (direct
  /// state lookup) and the unbound-base case (method index + shape
  /// filter). With the base unbound and the result ground, a method the
  /// base indexes by result supplies only the versions holding that
  /// result: the same ascending candidates minus ones that cannot match.
  Status MatchVersionPattern(const VidTerm& vterm, const AppPattern& app,
                             size_t pos) {
    if (!vterm.base.is_var || bindings_[vterm.base.var.value].valid()) {
      Vid vid = ResolveVid(vterm, bindings_, ctx_.versions);
      return EnumerateApps(vid, app, pos);
    }
    const ObjectBase::VidSet* candidates = ctx_.base.VidsWithMethod(app.method);
    const ObjectBase::VidsByResult* by_result =
        ctx_.base.ResultIndexOf(app.method);
    Oid result;
    if (by_result != nullptr && GroundValue(app.result, &result)) {
      candidates = by_result->Find(result);
    }
    if (candidates == nullptr) return Status::Ok();
    VidShape shape = ctx_.versions.InternShape(vterm.ops);
    Trail& trail = scratch_[pos].version;
    for (Vid vid : *candidates) {
      if (ctx_.versions.shape(vid) != shape) continue;
      trail.clear();
      if (BindObj(vterm.base, ctx_.versions.root(vid), &trail)) {
        Status status = EnumerateApps(vid, app, pos);
        if (!status.ok()) return status;
      }
      Unwind(trail);
    }
    return Status::Ok();
  }

  /// Enumerates candidate facts of (vid, app.method) through the access
  /// API: when the pattern's result term is ground at this point of the
  /// match, only the facts carrying that result are visited (result
  /// index); otherwise the full sorted vector is.
  Status EnumerateApps(Vid vid, const AppPattern& app, size_t pos) {
    const VersionState* state = ctx_.base.StateOf(vid);
    if (state == nullptr) return Status::Ok();
    Trail& trail = scratch_[pos].fact;
    auto try_fact = [&](const GroundApp& fact) -> Status {
      trail.clear();
      if (TryBindApp(app, fact, &trail)) {
        Status status = Step(pos + 1);
        if (!status.ok()) return status;
      }
      Unwind(trail);
      return Status::Ok();
    };
    return ProbeApps(*state, app.method, app.result, try_fact);
  }

  /// Positive body del[V].m->R: true for facts of v* that are absent from
  /// the materialized version del(V) (paper Section 3). Enumeration of
  /// v*'s facts goes through the access API, so a ground result term
  /// probes the result index instead of scanning the method.
  Status MatchDelete(const UpdateAtom& update, size_t pos) {
    return ForEachTargetVersion(
        update, UpdateKind::kDelete, pos, [&](Vid v, Vid target, size_t p) {
          if (!ctx_.base.VersionExists(target)) return Status::Ok();
          Vid vstar = ctx_.base.LatestExistingStage(v);
          if (!vstar.valid()) return Status::Ok();
          const VersionState* state = ctx_.base.StateOf(vstar);
          if (state == nullptr) return Status::Ok();
          Trail& trail = scratch_[p].fact;
          auto try_fact = [&](const GroundApp& fact) -> Status {
            trail.clear();
            if (TryBindApp(update.app, fact, &trail) &&
                !ctx_.base.ContainsApp(target, update.app.method, fact)) {
              Status status = Step(p + 1);
              if (!status.ok()) return status;
            }
            Unwind(trail);
            return Status::Ok();
          };
          return ProbeApps(*state, update.app.method, update.app.result,
                           try_fact);
        });
  }

  /// Positive body mod[V].m->(R,R'): pairs an old result from v* with a
  /// new result held by mod(V), per the paper's two truth cases (r == r'
  /// means "unchanged and still present", r != r' means "changed away").
  /// Both enumerations go through the access API: a ground old-result
  /// term indexes into v*'s facts, and a new-result term that is ground
  /// once the old fact is bound (constant, bound earlier, or the R == R'
  /// repeated-variable form) indexes into mod(V)'s.
  Status MatchModify(const UpdateAtom& update, size_t pos) {
    return ForEachTargetVersion(
        update, UpdateKind::kModify, pos, [&](Vid v, Vid target, size_t p) {
          Vid vstar = ctx_.base.LatestExistingStage(v);
          if (!vstar.valid()) return Status::Ok();
          const VersionState* old_state = ctx_.base.StateOf(vstar);
          const VersionState* new_state = ctx_.base.StateOf(target);
          if (old_state == nullptr || new_state == nullptr) return Status::Ok();
          Trail& trail = scratch_[p].fact;
          Trail& trail2 = scratch_[p].extra;
          auto try_old = [&](const GroundApp& old_fact) -> Status {
            trail.clear();
            if (!TryBindApp(update.app, old_fact, &trail)) {
              Unwind(trail);
              return Status::Ok();
            }
            auto try_new = [&](const GroundApp& new_fact) -> Status {
              if (new_fact.args != old_fact.args) return Status::Ok();
              if (new_fact.result != old_fact.result &&
                  ctx_.base.ContainsApp(target, update.app.method, old_fact)) {
                // r != r' requires mod(v).m->r to be gone.
                return Status::Ok();
              }
              trail2.clear();
              if (BindObj(update.new_result, new_fact.result, &trail2)) {
                Status status = Step(p + 1);
                if (!status.ok()) return status;
              }
              Unwind(trail2);
              return Status::Ok();
            };
            Status status = ProbeApps(*new_state, update.app.method,
                                      update.new_result, try_new);
            Unwind(trail);
            return status;
          };
          return ProbeApps(*old_state, update.app.method, update.app.result,
                           try_old);
        });
  }

  /// Shared enumeration of the update's pre-version `v` and target version
  /// `kind(v)`: direct when the base is bound; otherwise iterate interned
  /// VIDs of the target's shape (copied first — the recursion may intern
  /// further VIDs and grow the table).
  template <typename Fn>
  Status ForEachTargetVersion(const UpdateAtom& update, UpdateKind kind,
                              size_t pos, Fn&& fn) {
    const VidTerm& vterm = update.version;
    if (!vterm.base.is_var || bindings_[vterm.base.var.value].valid()) {
      Vid v = ResolveVid(vterm, bindings_, ctx_.versions);
      Vid target = ctx_.versions.Child(v, kind);
      return fn(v, target, pos);
    }
    VidTerm target_term = VidTerm::Wrap(kind, vterm);
    VidShape shape = ctx_.versions.InternShape(target_term.ops);
    std::vector<Vid> candidates = ctx_.versions.VidsWithShape(shape);
    Trail& trail = scratch_[pos].version;
    for (Vid target : candidates) {
      const VersionState* state = ctx_.base.StateOf(target);
      if (state == nullptr) continue;
      Vid v = ctx_.versions.parent(target);
      trail.clear();
      if (BindObj(vterm.base, ctx_.versions.root(target), &trail)) {
        Status status = fn(v, target, pos);
        if (!status.ok()) return status;
      }
      Unwind(trail);
    }
    return Status::Ok();
  }
};

/// One full match of the rule's body (Matcher::Run), for callers that
/// match a rule once.
template <typename Sink>
Status ForEachBodyMatch(const Rule& rule, MatchContext& ctx, Sink&& sink) {
  Matcher<std::remove_reference_t<Sink>> matcher(rule, ctx, sink);
  return matcher.Run();
}

}  // namespace verso

#endif  // VERSO_CORE_MATCH_H_
