//! Incremental view maintenance: keep a computed perfect model up to date
//! under EDB fact inserts and retracts without recomputing it from scratch.
//!
//! [`Materialized`] wraps the post-fixpoint [`EvalState`] of one canonical
//! evaluation. [`Materialized::apply`] re-drives the semi-naive delta
//! machinery from a batch of EDB changes, one stratum at a time, using the
//! classic **DRed** (delete-and-rederive) discipline for stratified
//! negation:
//!
//! 1. **Overdelete** — derive every tuple that loses at least one
//!    derivation, evaluating rule bodies under *old-state* semantics (a
//!    deleted body fact still counts present, an inserted one absent);
//!    within a stratum this iterates to fixpoint, since deleting a head
//!    tuple can unsupport further tuples of the same stratum.
//! 2. **Remove** — physically retract the overdeleted tuples.
//! 3. **Rederive** — reinsert overdeleted tuples that still have a
//!    derivation from the surviving state (iterated: a rederived tuple can
//!    resupport another).
//! 4. **Insert** — semi-naive insertion rounds: positive deltas replay
//!    inserted tuples; a negated literal whose relation lost tuples is
//!    replayed by rewriting the negation step into a fully-bound atom step
//!    over the net-deleted tuples (sound because net deletions are, by
//!    construction, absent from the new relation).
//!
//! The net per-predicate insert/delete sets of each stratum seed the next,
//! so changes propagate bottom-up exactly as the original evaluation did.
//!
//! **Applicability.** ID-relations are materialized from a *complete* base
//! relation through a [`crate::tid::TidOracle`]; there is no meaningful
//! incremental update of an ID-assignment (tids may shuffle arbitrarily
//! when the base changes). [`Materialized::apply`] therefore falls back to
//! a full canonical recomputation whenever a changed predicate can reach an
//! ID-literal's base relation — ID-literals over *unaffected* bases keep
//! their materialization, which stays valid because [`CanonicalOracle`] is
//! a pure function of relation content. The fallback also covers ill-typed
//! or otherwise suspicious deltas; the database handed to `apply` is the
//! source of truth either way.

use std::sync::Arc;

use idlog_common::{FxHashMap, FxHashSet, Interner, SymbolId, Tuple, Value};
use idlog_storage::{Database, Relation};

use crate::builtins;
use crate::config::EvalOptions;
use crate::engine::{run_rule, EvalState};
use crate::error::CoreResult;
use crate::eval::evaluate_with_options;
use crate::plan::{AtomStep, RulePlan, Step, TermPat};
use crate::pred::PredKey;
use crate::program::ValidatedProgram;
use crate::stats::EvalStats;
use crate::tid::CanonicalOracle;

/// How [`Materialized::apply`] satisfied a change batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaintainOutcome {
    /// The batch was a no-op (every insert already present, every retract
    /// already absent, or no touched predicate feeds this view).
    Unchanged,
    /// The model was updated in place by delta propagation.
    Incremental,
    /// The change reached an ID-literal's base (or the delta was otherwise
    /// unsuitable), so the model was recomputed from the database.
    Recomputed,
}

/// A batch of EDB changes, as (predicate, tuple) pairs. Inserts are applied
/// before retracts; a tuple appearing in both nets out to no change.
#[derive(Debug, Clone, Default)]
pub struct FactDelta {
    /// Facts to add.
    pub inserts: Vec<(SymbolId, Tuple)>,
    /// Facts to remove.
    pub retracts: Vec<(SymbolId, Tuple)>,
}

impl FactDelta {
    /// A single-fact insertion.
    pub fn insert(pred: SymbolId, tuple: Tuple) -> Self {
        FactDelta {
            inserts: vec![(pred, tuple)],
            retracts: Vec::new(),
        }
    }

    /// A single-fact retraction.
    pub fn retract(pred: SymbolId, tuple: Tuple) -> Self {
        FactDelta {
            inserts: Vec::new(),
            retracts: vec![(pred, tuple)],
        }
    }

    /// True when both lists are empty.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.retracts.is_empty()
    }
}

/// A materialized perfect model (canonical oracle) that can be maintained
/// incrementally as the fact database changes.
///
/// Built from a program's *related portion* (what [`crate::Query`]
/// evaluates) and a database; thereafter [`Materialized::apply`] keeps the
/// relations identical to what a fresh canonical evaluation over the
/// updated database would produce — the equivalence the service layer's
/// byte-identical-responses guarantee rests on.
#[derive(Debug, Clone)]
pub struct Materialized {
    program: ValidatedProgram,
    options: EvalOptions,
    state: EvalState,
    build_stats: EvalStats,
}

/// An ordered, deduplicated set of changed tuples for one predicate.
/// The order is first-change order, so replay work lists are deterministic.
#[derive(Debug, Default, Clone)]
struct NetChange {
    order: Vec<Tuple>,
    set: FxHashSet<Tuple>,
}

impl NetChange {
    fn add(&mut self, t: Tuple) -> bool {
        if self.set.insert(t.clone()) {
            self.order.push(t);
            true
        } else {
            false
        }
    }

    fn remove(&mut self, t: &Tuple) -> bool {
        if self.set.remove(t) {
            self.order.retain(|x| x != t);
            true
        } else {
            false
        }
    }

    fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

type NetMap = FxHashMap<SymbolId, NetChange>;

impl Materialized {
    /// Evaluate `program` over `db` with the [`CanonicalOracle`] and keep
    /// the full fixpoint state for maintenance. Pass the *related* program
    /// of a query (see [`crate::Query::related_program`]) so unrelated
    /// clauses neither cost work nor block incrementality.
    pub fn build(
        program: &ValidatedProgram,
        db: &Database,
        options: &EvalOptions,
    ) -> CoreResult<Materialized> {
        let out = evaluate_with_options(program, db, &mut CanonicalOracle, options)?;
        let (_, state, stats) = out.into_parts();
        Ok(Materialized {
            program: program.clone(),
            options: *options,
            state,
            build_stats: stats,
        })
    }

    /// The interner shared with the program and database.
    pub fn interner(&self) -> &Arc<Interner> {
        self.program.interner()
    }

    /// The current relation for `name` (input or IDB), if the program
    /// mentions it.
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        let id = self.program.interner().get(name)?;
        self.state.get(&PredKey::Ordinary(id))
    }

    /// Statistics of the most recent *full* evaluation (the build, or the
    /// last recompute fallback). Incremental maintenance does not update
    /// them — counters are defined per evaluation, not per lifetime.
    pub fn build_stats(&self) -> EvalStats {
        self.build_stats
    }

    /// Recompute the model from `db` wholesale (also the fallback path of
    /// [`Materialized::apply`]).
    pub fn rebuild(&mut self, db: &Database) -> CoreResult<()> {
        let out = evaluate_with_options(&self.program, db, &mut CanonicalOracle, &self.options)?;
        let (_, state, stats) = out.into_parts();
        self.state = state;
        self.build_stats = stats;
        Ok(())
    }

    /// Apply an EDB change batch. `db` must be the tenant database *after*
    /// the changes (it is read only on the recompute fallback) and must
    /// share the program's interner.
    pub fn apply(&mut self, db: &Database, delta: &FactDelta) -> CoreResult<MaintainOutcome> {
        // 1. Apply the EDB delta to the working input copies, recording the
        //    per-predicate net change. Flags from the storage layer filter
        //    no-ops (re-inserting a present fact, retracting an absent one).
        let mut net_ins: NetMap = NetMap::default();
        let mut net_del: NetMap = NetMap::default();
        for (pred, t) in &delta.inserts {
            match self.classify(*pred, t) {
                EdbFate::Apply => {}
                EdbFate::Ignore => continue,
                EdbFate::Fallback => return self.recompute(db),
            }
            let rel = self
                .state
                .get_mut(&PredKey::Ordinary(*pred))
                .expect("classify checked presence");
            if rel.delta_batch_insert(&[t])[0] {
                net_ins.entry(*pred).or_default().add(t.clone());
            }
        }
        for (pred, t) in &delta.retracts {
            match self.classify(*pred, t) {
                EdbFate::Apply => {}
                EdbFate::Ignore => continue,
                EdbFate::Fallback => return self.recompute(db),
            }
            let rel = self
                .state
                .get_mut(&PredKey::Ordinary(*pred))
                .expect("classify checked presence");
            if rel.remove_batch(&[t])[0] {
                // An insert-then-retract of the same tuple nets out.
                let was_fresh_insert = net_ins.get_mut(pred).is_some_and(|n| n.remove(t));
                if !was_fresh_insert {
                    net_del.entry(*pred).or_default().add(t.clone());
                }
            }
        }
        net_ins.retain(|_, n| !n.is_empty());
        net_del.retain(|_, n| !n.is_empty());
        if net_ins.is_empty() && net_del.is_empty() {
            return Ok(MaintainOutcome::Unchanged);
        }

        // 2. Applicability gate: no changed predicate may reach an
        //    ID-literal's base relation.
        let plans = Arc::clone(self.program.plans());
        let changed: FxHashSet<SymbolId> = net_ins.keys().chain(net_del.keys()).copied().collect();
        let affected = affected_closure(&plans, &changed);
        let id_reachable = plans.iter().any(|plan| {
            plan.steps.iter().any(|s| match s.reads() {
                Some(PredKey::Id(base, _)) => affected.contains(base),
                _ => false,
            })
        });
        if id_reachable {
            return self.recompute(db);
        }

        // 3. Propagate stratum by stratum.
        let by_stratum = self
            .program
            .stratification()
            .clauses_by_stratum(self.program.ast());
        let mut stats = EvalStats::default();
        for clauses in &by_stratum {
            let splans: Vec<&RulePlan> = clauses.iter().map(|&ci| &plans[ci]).collect();
            let touched = splans.iter().any(|p| affected.contains(&p.head_pred));
            if !touched {
                continue;
            }
            self.maintain_stratum(&splans, &mut net_ins, &mut net_del, &mut stats)?;
        }
        Ok(MaintainOutcome::Incremental)
    }

    fn recompute(&mut self, db: &Database) -> CoreResult<MaintainOutcome> {
        self.rebuild(db)?;
        Ok(MaintainOutcome::Recomputed)
    }

    /// Decide what to do with one EDB change pair.
    fn classify(&self, pred: SymbolId, t: &Tuple) -> EdbFate {
        if self.program.idb().contains(&pred) {
            // Facts stored under an IDB predicate: let the full evaluation
            // path produce its canonical Input error.
            return EdbFate::Fallback;
        }
        if !self.program.inputs().contains(&pred) {
            return EdbFate::Ignore; // not part of this view
        }
        match self.state.get(&PredKey::Ordinary(pred)) {
            Some(rel) if rel.check_tuple(t).is_ok() => EdbFate::Apply,
            // Arity/sort mismatch against the working copy (e.g. a relation
            // first populated after the build refined different sorts):
            // recompute from the database, the source of truth.
            _ => EdbFate::Fallback,
        }
    }

    /// DRed phases for one stratum. `net_ins`/`net_del` hold the cumulative
    /// net changes of the EDB and all lower strata on entry, and gain this
    /// stratum's head-predicate nets on exit.
    fn maintain_stratum(
        &mut self,
        splans: &[&RulePlan],
        net_ins: &mut NetMap,
        net_del: &mut NetMap,
        stats: &mut EvalStats,
    ) -> CoreResult<()> {
        let heads: FxHashSet<SymbolId> = splans.iter().map(|p| p.head_pred).collect();

        // Phase 1 — overdelete, under old-state semantics. `deleted` holds
        // the overdeleted set; tuples stay physically present so old reads
        // of this stratum see them.
        let mut deleted: NetMap = NetMap::default();
        let mut cand: Vec<(SymbolId, Tuple)> = Vec::new();
        {
            let view = OldView {
                state: &self.state,
                net_ins,
                net_del,
            };
            for plan in splans {
                for (si, step) in plan.steps.iter().enumerate() {
                    match step {
                        Step::Atom(a) => {
                            let PredKey::Ordinary(p) = &a.key else {
                                continue;
                            };
                            if let Some(d) = net_del.get(p) {
                                if !d.is_empty() {
                                    exec_old(
                                        &view,
                                        plan,
                                        0,
                                        Replay::Pos(si, &d.order),
                                        &mut vec![None; plan.n_vars],
                                        &mut cand,
                                        stats,
                                    )?;
                                }
                            }
                        }
                        Step::Negation { key, .. } => {
                            let PredKey::Ordinary(q) = key else { continue };
                            if let Some(i) = net_ins.get(q) {
                                if !i.is_empty() {
                                    exec_old(
                                        &view,
                                        plan,
                                        0,
                                        Replay::Neg(si, &i.set),
                                        &mut vec![None; plan.n_vars],
                                        &mut cand,
                                        stats,
                                    )?;
                                }
                            }
                        }
                        Step::Builtin { .. } => {}
                    }
                }
            }
        }
        loop {
            let mut next: FxHashMap<SymbolId, Vec<Tuple>> = FxHashMap::default();
            for (p, t) in cand.drain(..) {
                if deleted.entry(p).or_default().add(t.clone()) {
                    next.entry(p).or_default().push(t);
                }
            }
            if next.is_empty() {
                break;
            }
            let view = OldView {
                state: &self.state,
                net_ins,
                net_del,
            };
            for plan in splans {
                for (si, step) in plan.steps.iter().enumerate() {
                    let Step::Atom(a) = step else { continue };
                    let PredKey::Ordinary(p) = &a.key else {
                        continue;
                    };
                    if !heads.contains(p) {
                        continue;
                    }
                    if let Some(d) = next.get(p) {
                        exec_old(
                            &view,
                            plan,
                            0,
                            Replay::Pos(si, d),
                            &mut vec![None; plan.n_vars],
                            &mut cand,
                            stats,
                        )?;
                    }
                }
            }
        }
        deleted.retain(|_, n| !n.is_empty());

        // Phase 2 — physically remove the overdeleted tuples.
        for (p, nc) in &deleted {
            let rel = self
                .state
                .get_mut(&PredKey::Ordinary(*p))
                .expect("stratum head installed");
            let batch: Vec<&Tuple> = nc.order.iter().collect();
            rel.remove_batch(&batch);
        }

        // Phase 3 — rederive: overdeleted tuples still derivable from the
        // surviving state come back, iterated so a rederived tuple can
        // resupport another. Only rules whose head lost tuples can help.
        if !deleted.is_empty() {
            let red_plans: Vec<&RulePlan> = splans
                .iter()
                .filter(|p| deleted.contains_key(&p.head_pred))
                .copied()
                .collect();
            self.state.rebuild_indexes_for(&red_plans);
            let mut out: Vec<(SymbolId, Tuple)> = Vec::new();
            for plan in &red_plans {
                run_rule(&self.state, plan, None, &mut out, stats)?;
            }
            loop {
                let mut reinserted: FxHashMap<SymbolId, Vec<Tuple>> = FxHashMap::default();
                for (p, t) in out.drain(..) {
                    let still_deleted = deleted.get_mut(&p).is_some_and(|n| n.remove(&t));
                    if !still_deleted {
                        continue;
                    }
                    let rel = self
                        .state
                        .get_mut(&PredKey::Ordinary(p))
                        .expect("stratum head installed");
                    if rel.delta_batch_insert(&[&t])[0] {
                        reinserted.entry(p).or_default().push(t);
                    }
                }
                if reinserted.is_empty() {
                    break;
                }
                for plan in &red_plans {
                    for (si, step) in plan.steps.iter().enumerate() {
                        let Step::Atom(a) = step else { continue };
                        let PredKey::Ordinary(p) = &a.key else {
                            continue;
                        };
                        if let Some(d) = reinserted.get(p) {
                            run_rule(&self.state, plan, Some((si, d)), &mut out, stats)?;
                        }
                    }
                }
            }
            deleted.retain(|_, n| !n.is_empty());
        }

        // Phase 4 — insert: semi-naive rounds seeded by the lower strata's
        // net inserts (positive atoms) and net deletes (negated literals,
        // replayed through a negation→atom rewrite).
        let mut adapted: Vec<(RulePlan, usize, Vec<Tuple>)> = Vec::new();
        let mut seeds: Vec<(&RulePlan, usize, Vec<Tuple>)> = Vec::new();
        for plan in splans {
            for (si, step) in plan.steps.iter().enumerate() {
                match step {
                    Step::Atom(a) => {
                        let PredKey::Ordinary(p) = &a.key else {
                            continue;
                        };
                        if let Some(i) = net_ins.get(p) {
                            if !i.is_empty() {
                                seeds.push((*plan, si, i.order.clone()));
                            }
                        }
                    }
                    Step::Negation { key, terms } => {
                        let PredKey::Ordinary(q) = key else { continue };
                        if let Some(d) = net_del.get(q) {
                            if !d.is_empty() {
                                // Rewrite `not q(…)` into a fully-bound atom
                                // probe and replay the net-deleted tuples: a
                                // net-deleted tuple is absent from the new
                                // relation, so each replayed match is exactly
                                // an instantiation where the negation newly
                                // holds.
                                let mut rewritten = (*plan).clone();
                                rewritten.steps[si] = Step::Atom(AtomStep {
                                    key: key.clone(),
                                    probe: terms.iter().copied().enumerate().collect(),
                                    bind: Vec::new(),
                                    check: Vec::new(),
                                });
                                adapted.push((rewritten, si, d.order.clone()));
                            }
                        }
                    }
                    Step::Builtin { .. } => {}
                }
            }
        }
        let mut stratum_ins: NetMap = NetMap::default();
        {
            let mut index_plans: Vec<&RulePlan> = splans.to_vec();
            index_plans.extend(adapted.iter().map(|(p, _, _)| p));
            self.state.rebuild_indexes_for(&index_plans);
        }
        let mut out: Vec<(SymbolId, Tuple)> = Vec::new();
        for (plan, si, tuples) in &seeds {
            run_rule(&self.state, plan, Some((*si, tuples)), &mut out, stats)?;
        }
        for (plan, si, tuples) in &adapted {
            run_rule(&self.state, plan, Some((*si, tuples)), &mut out, stats)?;
        }
        loop {
            let mut fresh: FxHashMap<SymbolId, Vec<Tuple>> = FxHashMap::default();
            for (p, t) in out.drain(..) {
                let rel = self
                    .state
                    .get_mut(&PredKey::Ordinary(p))
                    .expect("stratum head installed");
                if rel.delta_batch_insert(&[&t])[0] {
                    // A tuple that was overdeleted and now reappears through
                    // new support nets out: physically back, no net change.
                    let was_deleted = deleted.get_mut(&p).is_some_and(|n| n.remove(&t));
                    if !was_deleted {
                        stratum_ins.entry(p).or_default().add(t.clone());
                    }
                    fresh.entry(p).or_default().push(t);
                }
            }
            if fresh.is_empty() {
                break;
            }
            for plan in splans {
                for (si, step) in plan.steps.iter().enumerate() {
                    let Step::Atom(a) = step else { continue };
                    let PredKey::Ordinary(p) = &a.key else {
                        continue;
                    };
                    if !heads.contains(p) {
                        continue;
                    }
                    if let Some(d) = fresh.get(p) {
                        run_rule(&self.state, plan, Some((si, d)), &mut out, stats)?;
                    }
                }
            }
        }

        // Publish this stratum's nets for the strata above.
        for (p, nc) in deleted {
            if !nc.is_empty() {
                let slot = net_del.entry(p).or_default();
                for t in nc.order {
                    slot.add(t);
                }
            }
        }
        for (p, nc) in stratum_ins {
            if !nc.is_empty() {
                let slot = net_ins.entry(p).or_default();
                for t in nc.order {
                    slot.add(t);
                }
            }
        }
        Ok(())
    }
}

enum EdbFate {
    Apply,
    Ignore,
    Fallback,
}

/// Head predicates transitively reachable from the changed set.
fn affected_closure(plans: &[RulePlan], changed: &FxHashSet<SymbolId>) -> FxHashSet<SymbolId> {
    let mut affected = changed.clone();
    loop {
        let mut grew = false;
        for plan in plans {
            if affected.contains(&plan.head_pred) {
                continue;
            }
            let feeds = plan
                .steps
                .iter()
                .any(|s| s.reads().is_some_and(|k| affected.contains(&k.base())));
            if feeds {
                affected.insert(plan.head_pred);
                grew = true;
            }
        }
        if !grew {
            return affected;
        }
    }
}

/// Which body step replays a change set during overdeletion.
#[derive(Clone, Copy)]
enum Replay<'a> {
    /// Positive atom step `si` scans the deleted tuples.
    Pos(usize, &'a [Tuple]),
    /// Negation step `si` requires its ground tuple among the inserted set
    /// (the negation held in the old state and fails in the new one).
    Neg(usize, &'a FxHashSet<Tuple>),
}

/// Old-state reads over the partially updated [`EvalState`]: the current
/// contents minus recorded net inserts plus recorded net deletes.
/// Predicates of the stratum being overdeleted have no recorded nets yet
/// and are physically untouched, so they read as old automatically.
struct OldView<'a> {
    state: &'a EvalState,
    net_ins: &'a NetMap,
    net_del: &'a NetMap,
}

impl OldView<'_> {
    fn contains(&self, key: &PredKey, t: &Tuple) -> bool {
        let cur = self.state.get(key).is_some_and(|r| r.contains(t));
        let PredKey::Ordinary(p) = key else {
            return cur; // ID-relations are unaffected (gate) and unchanged
        };
        let ins = self.net_ins.get(p).is_some_and(|n| n.set.contains(t));
        let del = self.net_del.get(p).is_some_and(|n| n.set.contains(t));
        (cur && !ins) || del
    }
}

fn resolve(pat: TermPat, bindings: &[Option<Value>]) -> Value {
    match pat {
        TermPat::Const(c) => c,
        TermPat::Var(v) => bindings[v].expect("variable bound by plan order"),
    }
}

/// Execute one rule plan against the old state, driving the step named by
/// `replay` from the changed tuples. Mirrors the engine's executor, but
/// reads through [`OldView`] and needs no indexes (overdeletion batches are
/// small and scans verify probe positions per tuple).
#[allow(clippy::too_many_arguments)]
fn exec_old(
    view: &OldView<'_>,
    plan: &RulePlan,
    si: usize,
    replay: Replay<'_>,
    bindings: &mut Vec<Option<Value>>,
    out: &mut Vec<(SymbolId, Tuple)>,
    stats: &mut EvalStats,
) -> CoreResult<()> {
    if si == plan.steps.len() {
        stats.instantiations += 1;
        let head: Tuple = plan.head.iter().map(|&p| resolve(p, bindings)).collect();
        out.push((plan.head_pred, head));
        return Ok(());
    }
    match &plan.steps[si] {
        Step::Atom(astep) => {
            if let Replay::Pos(ri, dtuples) = replay {
                if ri == si {
                    for t in dtuples {
                        stats.probes += 1;
                        old_try_tuple(view, plan, si, astep, t, replay, bindings, out, stats)?;
                    }
                    return Ok(());
                }
            }
            // Old contents = current \ net_ins ∪ net_del (disjoint by
            // construction: net inserts are physically present, net deletes
            // physically absent).
            let skip = |t: &Tuple| {
                let PredKey::Ordinary(p) = &astep.key else {
                    return false;
                };
                view.net_ins.get(p).is_some_and(|n| n.set.contains(t))
            };
            if let Some(rel) = view.state.get(&astep.key) {
                for t in rel.iter() {
                    if skip(t) {
                        continue;
                    }
                    stats.probes += 1;
                    old_try_tuple(view, plan, si, astep, t, replay, bindings, out, stats)?;
                }
            }
            if let PredKey::Ordinary(p) = &astep.key {
                if let Some(d) = view.net_del.get(p) {
                    for t in &d.order {
                        stats.probes += 1;
                        old_try_tuple(view, plan, si, astep, t, replay, bindings, out, stats)?;
                    }
                }
            }
            Ok(())
        }
        Step::Negation { key, terms } => {
            let t: Tuple = terms.iter().map(|&p| resolve(p, bindings)).collect();
            stats.probes += 1;
            if let Replay::Neg(ri, inserted) = replay {
                if ri == si {
                    // The driving step: the negation held in the old state
                    // (a net insert was absent) and fails in the new one.
                    if inserted.contains(&t) {
                        exec_old(view, plan, si + 1, replay, bindings, out, stats)?;
                    }
                    return Ok(());
                }
            }
            if !view.contains(key, &t) {
                exec_old(view, plan, si + 1, replay, bindings, out, stats)?;
            }
            Ok(())
        }
        Step::Builtin { op, args, bound } => {
            stats.builtin_evals += 1;
            // `=`/`!=` compare any sort; other builtins are ℕ-arithmetic.
            if matches!(op, idlog_parser::Builtin::Eq | idlog_parser::Builtin::Ne) {
                let vals: Vec<Option<Value>> = args
                    .iter()
                    .zip(bound)
                    .map(|(&a, &b)| b.then(|| resolve(a, bindings)))
                    .collect();
                match (vals[0], vals[1]) {
                    (Some(a), Some(b)) => {
                        if builtins::eq_check(*op, a, b) {
                            exec_old(view, plan, si + 1, replay, bindings, out, stats)?;
                        }
                    }
                    (Some(known), None) | (None, Some(known)) => {
                        let free = if vals[0].is_none() { args[0] } else { args[1] };
                        let TermPat::Var(v) = free else {
                            unreachable!("free side is a variable")
                        };
                        bindings[v] = Some(known);
                        exec_old(view, plan, si + 1, replay, bindings, out, stats)?;
                        bindings[v] = None;
                    }
                    (None, None) => unreachable!("mode table requires one bound side"),
                }
                return Ok(());
            }
            let mut ints: Vec<Option<i64>> = Vec::with_capacity(args.len());
            for (&a, &b) in args.iter().zip(bound) {
                if b {
                    match resolve(a, bindings) {
                        Value::Int(n) => ints.push(Some(n)),
                        Value::Sym(_) => return Ok(()),
                    }
                } else {
                    ints.push(None);
                }
            }
            for sol in builtins::solve(*op, &ints)? {
                let mut newly: Vec<usize> = Vec::new();
                let mut ok = true;
                for (k, &a) in args.iter().enumerate() {
                    let want = Value::Int(sol[k]);
                    match a {
                        TermPat::Const(c) => {
                            if c != want {
                                ok = false;
                                break;
                            }
                        }
                        TermPat::Var(v) => match bindings[v] {
                            Some(cur) => {
                                if cur != want {
                                    ok = false;
                                    break;
                                }
                            }
                            None => {
                                bindings[v] = Some(want);
                                newly.push(v);
                            }
                        },
                    }
                }
                if ok {
                    exec_old(view, plan, si + 1, replay, bindings, out, stats)?;
                }
                for v in newly {
                    bindings[v] = None;
                }
            }
            Ok(())
        }
    }
}

/// Match one candidate tuple in the old-state executor: verify probe
/// positions, bind, check repeats, recurse.
#[allow(clippy::too_many_arguments)]
fn old_try_tuple(
    view: &OldView<'_>,
    plan: &RulePlan,
    si: usize,
    astep: &AtomStep,
    t: &Tuple,
    replay: Replay<'_>,
    bindings: &mut Vec<Option<Value>>,
    out: &mut Vec<(SymbolId, Tuple)>,
    stats: &mut EvalStats,
) -> CoreResult<()> {
    for &(pos, pat) in &astep.probe {
        if t[pos] != resolve(pat, bindings) {
            return Ok(());
        }
    }
    for &(pos, v) in &astep.bind {
        bindings[v] = Some(t[pos]);
    }
    let checks_ok = astep
        .check
        .iter()
        .all(|&(pos, v)| bindings[v].expect("bound earlier in step") == t[pos]);
    if checks_ok {
        exec_old(view, plan, si + 1, replay, bindings, out, stats)?;
    }
    for &(_, v) in &astep.bind {
        bindings[v] = None;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Query;

    /// Drive a program through a change script, asserting after every step
    /// that the maintained state matches a fresh canonical evaluation on
    /// both comparison axes: set equality per predicate and the canonical
    /// string rendering (what the service serves).
    fn check_equivalence(
        src: &str,
        output: &str,
        initial: &[(&str, &[&str])],
        script: &[(Op, &str, &[&str])],
    ) -> Vec<MaintainOutcome> {
        let q = Query::parse(src, output).unwrap();
        let mut db = q.new_database();
        for (pred, cols) in initial {
            db.insert_syms(pred, cols).unwrap();
        }
        let options = EvalOptions::new();
        let mut mat = Materialized::build(q.related_program(), &db, &options).unwrap();
        let mut outcomes = Vec::new();
        for (op, pred, cols) in script {
            let interner = Arc::clone(q.interner());
            let tuple: Tuple = cols
                .iter()
                .map(|c| Value::Sym(interner.intern(c)))
                .collect();
            let pred_id = interner.intern(pred);
            let delta = match op {
                Op::Ins => {
                    db.insert(pred, tuple.clone()).unwrap();
                    FactDelta::insert(pred_id, tuple)
                }
                Op::Del => {
                    db.retract(pred, &tuple).unwrap();
                    FactDelta::retract(pred_id, tuple)
                }
            };
            outcomes.push(mat.apply(&db, &delta).unwrap());
            // Ground truth: fresh evaluation over the updated database.
            let fresh =
                evaluate_with_options(q.related_program(), &db, &mut CanonicalOracle, &options)
                    .unwrap();
            for pred_name in db.predicate_names() {
                let (Some(a), Some(b)) = (mat.relation(&pred_name), fresh.relation(&pred_name))
                else {
                    continue;
                };
                assert!(
                    a.set_eq(b),
                    "{pred_name} diverged after {op:?} {pred}({cols:?}):\n maintained {:?}\n fresh {:?}",
                    a.sorted_canonical(&interner),
                    b.sorted_canonical(&interner),
                );
                assert_eq!(
                    a.sorted_canonical(&interner),
                    b.sorted_canonical(&interner),
                    "canonical rendering diverged for {pred_name}"
                );
            }
            let (a, b) = (
                mat.relation(output).unwrap(),
                fresh.relation(output).unwrap(),
            );
            assert!(a.set_eq(b), "output diverged after {op:?} {pred}({cols:?})");
        }
        outcomes
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Ins,
        Del,
    }

    const TC: &str = "tc(X, Y) :- e(X, Y). tc(X, Y) :- e(X, Z), tc(Z, Y).";

    #[test]
    fn transitive_closure_inserts_are_incremental() {
        let outcomes = check_equivalence(
            TC,
            "tc",
            &[("e", &["a", "b"])],
            &[
                (Op::Ins, "e", &["b", "c"]),
                (Op::Ins, "e", &["c", "d"]),
                (Op::Ins, "e", &["d", "a"]), // closes a cycle
                (Op::Ins, "e", &["a", "b"]), // duplicate: no-op
            ],
        );
        assert_eq!(
            outcomes,
            [
                MaintainOutcome::Incremental,
                MaintainOutcome::Incremental,
                MaintainOutcome::Incremental,
                MaintainOutcome::Unchanged,
            ],
        );
    }

    #[test]
    fn transitive_closure_deletes_rederive() {
        // A diamond: a→b→d and a→c→d; deleting a→b must keep tc(a,d)
        // through the other path (the rederivation case DRed exists for).
        let outcomes = check_equivalence(
            TC,
            "tc",
            &[
                ("e", &["a", "b"]),
                ("e", &["b", "d"]),
                ("e", &["a", "c"]),
                ("e", &["c", "d"]),
                ("e", &["d", "e"]),
            ],
            &[
                (Op::Del, "e", &["a", "b"]),
                (Op::Del, "e", &["c", "d"]), // now tc(a,d) really dies
                (Op::Del, "e", &["x", "y"]), // absent: no-op
                (Op::Ins, "e", &["a", "d"]), // resurrect directly
            ],
        );
        assert_eq!(
            outcomes,
            [
                MaintainOutcome::Incremental,
                MaintainOutcome::Incremental,
                MaintainOutcome::Unchanged,
                MaintainOutcome::Incremental,
            ],
        );
    }

    #[test]
    fn stratified_negation_flips_both_ways() {
        let src = "reach(X) :- start(X).
                   reach(Y) :- reach(X), e(X, Y).
                   far(X) :- node(X), not reach(X).";
        let outcomes = check_equivalence(
            src,
            "far",
            &[
                ("node", &["a"]),
                ("node", &["b"]),
                ("node", &["c"]),
                ("start", &["a"]),
                ("e", &["a", "b"]),
            ],
            &[
                (Op::Ins, "e", &["b", "c"]), // c becomes reachable → far loses c
                (Op::Del, "e", &["a", "b"]), // b, c unreachable → far gains both
                (Op::Ins, "node", &["d"]),   // unreachable node → far gains d
                (Op::Del, "start", &["a"]),  // nothing reachable at all
            ],
        );
        assert!(outcomes.iter().all(|o| *o == MaintainOutcome::Incremental));
    }

    #[test]
    fn affected_id_literal_falls_back_to_recompute() {
        let q = Query::parse("pick(N) :- emp[2](N, D, 0).", "pick").unwrap();
        let mut db = q.new_database();
        db.insert_syms("emp", &["ann", "sales"]).unwrap();
        let options = EvalOptions::default();
        let mut mat = Materialized::build(q.related_program(), &db, &options).unwrap();
        db.insert_syms("emp", &["bob", "sales"]).unwrap();
        let bob: Tuple = ["bob", "sales"]
            .iter()
            .map(|s| Value::Sym(q.interner().intern(s)))
            .collect();
        let outcome = mat
            .apply(&db, &FactDelta::insert(q.interner().intern("emp"), bob))
            .unwrap();
        assert_eq!(outcome, MaintainOutcome::Recomputed);
        let fresh = q.session(&db).run().unwrap();
        assert!(mat.relation("pick").unwrap().set_eq(&fresh.relation));
    }

    #[test]
    fn unaffected_id_literal_stays_incremental() {
        // The ID-literal reads `emp`; the change touches only `bonus`, which
        // cannot reach emp — the materialized ID-relation stays valid.
        let src = "lead(N, D) :- emp[2](N, D, 0).
                   paid(N) :- lead(N, D), bonus(D).";
        let q = Query::parse(src, "paid").unwrap();
        let mut db = q.new_database();
        db.insert_syms("emp", &["ann", "sales"]).unwrap();
        db.insert_syms("emp", &["bob", "sales"]).unwrap();
        let options = EvalOptions::default();
        let mut mat = Materialized::build(q.related_program(), &db, &options).unwrap();
        db.insert_syms("bonus", &["sales"]).unwrap();
        let t: Tuple = vec![Value::Sym(q.interner().intern("sales"))].into();
        let outcome = mat
            .apply(&db, &FactDelta::insert(q.interner().intern("bonus"), t))
            .unwrap();
        assert_eq!(outcome, MaintainOutcome::Incremental);
        let fresh = q.session(&db).run().unwrap();
        assert!(mat.relation("paid").unwrap().set_eq(&fresh.relation));
    }

    #[test]
    fn irrelevant_predicate_changes_are_unchanged() {
        let q = Query::parse(TC, "tc").unwrap();
        let mut db = q.new_database();
        db.insert_syms("e", &["a", "b"]).unwrap();
        let options = EvalOptions::default();
        let mut mat = Materialized::build(q.related_program(), &db, &options).unwrap();
        // A predicate the program never mentions.
        db.insert_syms("noise", &["z"]).unwrap();
        let t: Tuple = vec![Value::Sym(q.interner().intern("z"))].into();
        let outcome = mat
            .apply(&db, &FactDelta::insert(q.interner().intern("noise"), t))
            .unwrap();
        assert_eq!(outcome, MaintainOutcome::Unchanged);
    }

    #[test]
    fn arithmetic_bodies_maintain() {
        let src = "big(M) :- num(N), plus(N, N, M).";
        let q = Query::parse(src, "big").unwrap();
        let mut db = q.new_database();
        db.insert("num", Tuple::new(vec![Value::Int(3)])).unwrap();
        let options = EvalOptions::default();
        let mut mat = Materialized::build(q.related_program(), &db, &options).unwrap();
        let num = q.interner().intern("num");

        let five = Tuple::new(vec![Value::Int(5)]);
        db.insert("num", five.clone()).unwrap();
        assert_eq!(
            mat.apply(&db, &FactDelta::insert(num, five)).unwrap(),
            MaintainOutcome::Incremental
        );
        let three = Tuple::new(vec![Value::Int(3)]);
        db.retract("num", &three).unwrap();
        assert_eq!(
            mat.apply(&db, &FactDelta::retract(num, three)).unwrap(),
            MaintainOutcome::Incremental
        );
        let fresh = q.session(&db).run().unwrap();
        assert!(mat.relation("big").unwrap().set_eq(&fresh.relation));
        assert_eq!(fresh.relation.len(), 1); // only 10 remains
    }

    #[test]
    fn insert_then_retract_nets_out() {
        let q = Query::parse(TC, "tc").unwrap();
        let mut db = q.new_database();
        db.insert_syms("e", &["a", "b"]).unwrap();
        let options = EvalOptions::default();
        let mut mat = Materialized::build(q.related_program(), &db, &options).unwrap();
        let t: Tuple = ["b", "c"]
            .iter()
            .map(|s| Value::Sym(q.interner().intern(s)))
            .collect();
        let e = q.interner().intern("e");
        let delta = FactDelta {
            inserts: vec![(e, t.clone())],
            retracts: vec![(e, t)],
        };
        // db is unchanged overall, and so is the view.
        assert_eq!(mat.apply(&db, &delta).unwrap(), MaintainOutcome::Unchanged);
        let fresh = q.session(&db).run().unwrap();
        assert!(mat.relation("tc").unwrap().set_eq(&fresh.relation));
    }
}
