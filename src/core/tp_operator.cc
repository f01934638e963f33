#include "core/tp_operator.h"

#include <algorithm>
#include <unordered_set>

namespace verso {

namespace {

/// The fact a derived update adds to its target state, or nullopt for
/// deletes (which only remove). Modifies add the old application with the
/// new result.
bool UpdateAddition(const GroundUpdate& update, GroundApp* out) {
  switch (update.kind) {
    case UpdateKind::kInsert:
      *out = update.app;
      return true;
    case UpdateKind::kModify:
      *out = update.app;
      out->result = update.new_result;
      return true;
    case UpdateKind::kDelete:
      return false;
  }
  return false;
}

/// Step 2 for an inactive target: the state to start from — a copy of
/// v*'s state when some stage of the object exists, else the fresh-object
/// state carrying only its exists-fact (documented extension; only
/// inserts can reach the fresh branch, since head truth of del/mod
/// requires a materialized stage). Emits the materialization trace event.
///
/// The "copy" is structural: VersionState shares its per-method
/// application vectors copy-on-write, so materializing the target costs
/// O(#methods) pointer bumps here, and applying the updates below clones
/// only the vectors of the methods actually written — everything else
/// stays shared with v*'s state in the base.
VersionState PrepareInactiveState(Vid target, const ObjectBase& base,
                                  const VersionTable& versions,
                                  TraceSink* trace, bool* copied_from_prior) {
  VersionState state;
  Vid v = versions.parent(target);
  Vid vstar = base.LatestExistingStage(v);
  *copied_from_prior = vstar.valid();
  if (vstar.valid()) {
    state = *base.StateOf(vstar);
    if (trace != nullptr) {
      trace->OnVersionMaterialized(target, vstar, state.fact_count());
    }
  } else {
    GroundApp exists_app;
    exists_app.result = versions.root(target);
    state.Insert(base.exists_method(), std::move(exists_app));
    if (trace != nullptr) trace->OnVersionMaterialized(target, Vid(), 0);
  }
  return state;
}

/// Step 3 on a detached state: all removals (deletes and modify-old-
/// values) before any addition, so simultaneous updates like mod(a->b) +
/// mod(b->c) yield {b,c} and not {c}.
void ApplyUpdatesToState(VersionState& state,
                         const std::vector<const GroundUpdate*>& updates,
                         size_t first, size_t last) {
  for (size_t i = first; i < last; ++i) {
    const GroundUpdate* u = updates[i];
    if (u->kind == UpdateKind::kDelete || u->kind == UpdateKind::kModify) {
      state.Erase(u->method, u->app);
    }
  }
  GroundApp addition;
  for (size_t i = first; i < last; ++i) {
    const GroundUpdate* u = updates[i];
    if (UpdateAddition(*u, &addition)) state.Insert(u->method, addition);
  }
}

}  // namespace

Status TpOperator::DeriveFromBindings(const Rule& rule,
                                      const Bindings& bindings,
                                      const ObjectBase& base,
                                      TpStratumState& state,
                                      TpRoundStats& stats, TraceSink* trace) {
  ++stats.body_matches;
  Vid v = ResolveVid(rule.head.version, bindings, versions_);
  if (!v.valid()) {
    return Status::Internal(rule.DisplayName() +
                            ": unbound head version after matching");
  }
  auto derive = [&](GroundUpdate&& update) {
    auto [it, fresh] = state.t1.insert(std::move(update));
    if (!fresh) return;
    ++stats.fresh_updates;
    const GroundUpdate* u = &*it;
    Vid target = versions_.Child(u->version, u->kind);
    TpStratumState::TargetUpdates& tu = state.by_target[target];
    if (tu.updates.size() == tu.applied) state.dirty.push_back(target);
    tu.updates.push_back(u);
    if (trace != nullptr) trace->OnUpdateDerived(rule, *u);
  };

  if (rule.head.delete_all) {
    // del[V].* expands to one delete per method-application of v*
    // (the system method `exists` is never deletable).
    Vid vstar = base.LatestExistingStage(v);
    if (!vstar.valid()) return Status::Ok();
    const VersionState* vstate = base.StateOf(vstar);
    if (vstate == nullptr) return Status::Ok();
    for (const auto& [method, apps] : vstate->methods()) {
      if (method == base.exists_method()) continue;
      for (const GroundApp& app : apps) {
        GroundUpdate update;
        update.kind = UpdateKind::kDelete;
        update.version = v;
        update.method = method;
        update.app = app;
        derive(std::move(update));
      }
    }
    return Status::Ok();
  }

  GroundUpdate update;
  update.kind = rule.head.kind;
  update.version = v;
  update.method = rule.head.app.method;
  update.app = ResolveApp(rule.head.app, bindings);
  if (rule.head.kind == UpdateKind::kModify) {
    update.new_result = rule.head.new_result.is_var
                            ? bindings[rule.head.new_result.var.value]
                            : rule.head.new_result.oid;
  }

  // Head truth (Section 3): an insert is always true; a delete or
  // modify requires the old application to hold in v*'s state.
  if (rule.head.kind != UpdateKind::kInsert) {
    Vid vstar = base.LatestExistingStage(v);
    if (!vstar.valid() || !base.ContainsApp(vstar, update.method, update.app)) {
      return Status::Ok();
    }
  }
  derive(std::move(update));
  return Status::Ok();
}

Status TpOperator::DeriveFull(const Program& program,
                              const std::vector<uint32_t>& rule_indices,
                              const ObjectBase& base, TpStratumState& state,
                              TpRoundStats& stats, TraceSink* trace) {
  MatchContext ctx{symbols_, versions_, base, &stats.index};
  for (uint32_t rule_index : rule_indices) {
    const Rule& rule = program.rules[rule_index];
    Status status = ForEachBodyMatch(
        rule, ctx, [&](const Bindings& bindings) -> Status {
          return DeriveFromBindings(rule, bindings, base, state, stats, trace);
        });
    VERSO_RETURN_IF_ERROR(status);
  }
  return Status::Ok();
}

Status TpOperator::DeriveSeeded(const Program& program,
                                const std::vector<uint32_t>& rule_indices,
                                const ObjectBase& base, const DeltaLog& delta,
                                TpStratumState& state, TpRoundStats& stats,
                                TraceSink* trace) {
  MatchContext ctx{symbols_, versions_, base, &stats.index};
  std::unordered_set<uint32_t> touched_methods;
  size_t added_total = 0;
  for (const DeltaFact& fact : delta) {
    touched_methods.insert(fact.method.value);
    if (fact.added) ++added_total;
  }
  // Frontier index: probing per (seed literal, delta fact) pair is
  // quadratic in wide deltas; grouping the added facts by (method, shape)
  // jumps straight to the facts a literal can possibly unify with.
  DeltaIndex index;
  index.Build(delta, versions_);

  Bindings seed;
  for (uint32_t rule_index : rule_indices) {
    const Rule& rule = program.rules[rule_index];
    auto sink = [&](const Bindings& bindings) -> Status {
      return DeriveFromBindings(rule, bindings, base, state, stats, trace);
    };
    if (rule.fully_seedable) {
      // Every way this rule can newly match goes through an added fact at
      // one of its membership literals.
      for (uint32_t li : rule.seed_literals) {
        MethodId method;
        VidShape shape;
        if (!SeedKeyForLiteral(rule, li, versions_, &method, &shape)) {
          continue;
        }
        const std::vector<const DeltaFact*>* bucket =
            index.Added(method, shape);
        if (bucket == nullptr) {
          stats.seed_pairs_skipped += added_total;
          continue;
        }
        stats.seed_pairs_skipped += added_total - bucket->size();
        for (const DeltaFact* fact : *bucket) {
          if (!SeedBindingsFromDelta(rule, li, *fact, versions_, seed)) {
            continue;
          }
          ++stats.seed_probes;
          VERSO_RETURN_IF_ERROR(ForEachBodyMatchFrom(
              rule, ctx, seed, static_cast<int>(li), sink));
        }
      }
      continue;
    }
    // Residual rule: full re-match, but only when the delta could affect
    // it (a changed fact of a relevant method; delete-all heads react to
    // everything).
    bool relevant = rule.rerun_on_any_delta;
    for (size_t i = 0; !relevant && i < rule.relevant_methods.size(); ++i) {
      relevant = touched_methods.count(rule.relevant_methods[i].value) != 0;
    }
    if (!relevant) continue;
    ++stats.residual_rules;
    VERSO_RETURN_IF_ERROR(ForEachBodyMatch(rule, ctx, sink));
  }
  return Status::Ok();
}

Result<TpApplyResult> TpOperator::ApplyRound(TpStratumState& state,
                                             ObjectBase& base,
                                             DeltaLog& delta_out,
                                             TpRoundStats& stats,
                                             TraceSink* trace) {
  TpApplyResult result;
  std::sort(state.dirty.begin(), state.dirty.end());
  for (Vid target : state.dirty) {
    TpStratumState::TargetUpdates& tu = state.by_target[target];
    const size_t first_fresh = tu.applied;
    tu.applied = tu.updates.size();

    if (base.VersionExists(target)) {
      // Active target: its own state is the step-2 self-copy; edit it in
      // place. Phase 1: removals of the fresh deletes/modify-old-values.
      const size_t before = delta_out.size();
      const size_t first_erased = delta_out.size();
      for (size_t i = first_fresh; i < tu.updates.size(); ++i) {
        const GroundUpdate* u = tu.updates[i];
        if (u->kind == UpdateKind::kDelete || u->kind == UpdateKind::kModify) {
          if (base.Erase(target, u->method, u->app)) {
            delta_out.push_back({target, u->method, u->app, /*added=*/false});
          }
        }
      }
      const size_t last_erased = delta_out.size();
      // Shield: an older update's addition that a fresh removal just
      // erased must be re-added, because the per-round rebuild would
      // re-derive the older update and re-apply it (e.g. mod(a->b) in
      // round r, mod(b->c) in round r+1 yields {b,c}, not {c}). Older
      // updates stay derivable within a stratum: condition (a) of the
      // Section-4 stratification puts every writer of a subterm of a head
      // version strictly below, so the v* read by del/mod head truth is
      // fixed for the whole stratum.
      if (last_erased > first_erased && first_fresh > 0) {
        GroundApp addition;
        for (size_t i = 0; i < first_fresh; ++i) {
          const GroundUpdate* u = tu.updates[i];
          if (!UpdateAddition(*u, &addition)) continue;
          bool erased = false;
          for (size_t e = first_erased; !erased && e < last_erased; ++e) {
            erased = delta_out[e].method == u->method &&
                     delta_out[e].app == addition;
          }
          if (erased && base.Insert(target, u->method, addition)) {
            delta_out.push_back({target, u->method, addition, true});
          }
        }
      }
      // Phase 2: additions of the fresh inserts/modify-new-values.
      GroundApp addition;
      for (size_t i = first_fresh; i < tu.updates.size(); ++i) {
        const GroundUpdate* u = tu.updates[i];
        if (!UpdateAddition(*u, &addition)) continue;
        if (base.Insert(target, u->method, addition)) {
          delta_out.push_back({target, u->method, addition, true});
        }
      }
      if (delta_out.size() > before) ++stats.states_changed;
      continue;
    }

    // Inactive target: steps 2 and 3 on a detached copy.
    bool copied_from_prior = false;
    VersionState vstate = PrepareInactiveState(target, base, versions_, trace,
                                               &copied_from_prior);
    ++stats.versions_prepared;
    stats.copied_facts += vstate.fact_count();
    ApplyUpdatesToState(vstate, tu.updates, first_fresh, tu.updates.size());

    const bool was_state = base.StateOf(target) != nullptr;
    if (base.ReplaceVersion(target, std::move(vstate), &delta_out)) {
      ++stats.states_changed;
    }
    if (!was_state && base.StateOf(target) != nullptr) {
      result.materialized.push_back(target);
    }
  }
  state.dirty.clear();
  return result;
}

Result<TpResult> TpOperator::Apply(const Program& program,
                                   const std::vector<uint32_t>& rule_indices,
                                   const ObjectBase& base, TraceSink* trace) {
  TpResult result;
  TpStratumState state;
  TpRoundStats rstats;
  VERSO_RETURN_IF_ERROR(
      DeriveFull(program, rule_indices, base, state, rstats, trace));
  result.t1_updates = state.t1.size();

  // ---- Steps 2 and 3 per relevant target.
  for (auto& [target, tu] : state.by_target) {
    VersionState vstate;
    if (base.VersionExists(target)) {
      // Active: copy the target's own current state.
      vstate = *base.StateOf(target);
      ++result.t2_copies_from_self;
    } else {
      bool copied_from_prior = false;
      vstate = PrepareInactiveState(target, base, versions_, trace,
                                    &copied_from_prior);
      if (copied_from_prior) {
        ++result.t2_copies_from_prior;
      } else {
        ++result.fresh_objects;
      }
    }
    result.t2_copied_facts += vstate.fact_count();
    ApplyUpdatesToState(vstate, tu.updates, 0, tu.updates.size());
    result.new_states.emplace(target, std::move(vstate));
  }
  return result;
}

}  // namespace verso
