//! Semi-naive bottom-up execution of rule plans.
//!
//! [`EvalState`] stores one [`Relation`] per [`PredKey`] (ordinary predicates
//! and materialized ID-relations); the engine talks to each only through
//! scan / indexed probe / `delta_batch_insert`. A stratum is evaluated by
//! running every rule once in full, then iterating delta variants — each
//! positive same-stratum atom step replayed against the newly derived tuples
//! — until no new facts appear.
//!
//! Rounds execute shared-nothing parallel: the work list (one item per rule
//! in round 0; one item per (plan, delta step, delta shard) afterwards) is
//! built in a deterministic order, fanned out over a [`std::thread::scope`]
//! pool against the read-only state (indexes are readied *before* the round
//! via [`Relation::ensure_index`], so a round is pure reads), and each
//! worker's local `out` sink and local [`EvalStats`] are merged at the round
//! barrier **in work-item order**. Delta shards are a function of the delta
//! size only — never of the thread count — so answer relations and
//! statistics are identical for any `threads` value.

use idlog_common::{FxHashMap, FxHashSet, SymbolId, Tuple, Value};
use idlog_parser::Builtin;
use idlog_storage::Relation;

use crate::builtins;
use crate::error::{CoreError, CoreResult};
use crate::govern::{panic_message, Governor};
use crate::plan::{AtomStep, RulePlan, Step, TermPat};
use crate::pred::PredKey;
use crate::profile::{ItemRec, RoundProfile, StratumProfile};
use crate::stats::EvalStats;

/// All relations (EDB, IDB, and materialized ID-relations) during one
/// evaluation.
///
/// Indexes live *inside* each relation's tuple store and are maintained
/// incrementally on insert — there is no per-state index cache to rebuild
/// each round, and cloning the state (once
/// per enumeration branch) carries the indexes along, so branches never
/// rebuild them either.
#[derive(Debug, Default, Clone)]
pub struct EvalState {
    rels: FxHashMap<PredKey, Relation>,
}

impl EvalState {
    /// Empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install (or replace) a relation.
    pub fn put(&mut self, key: PredKey, rel: Relation) {
        self.rels.insert(key, rel);
    }

    /// Read a relation.
    pub fn get(&self, key: &PredKey) -> Option<&Relation> {
        self.rels.get(key)
    }

    /// True when the key has been installed (even if empty).
    pub fn has(&self, key: &PredKey) -> bool {
        self.rels.contains_key(key)
    }

    /// Mutable access to a relation (incremental maintenance applies
    /// inserts and removals in place).
    pub(crate) fn get_mut(&mut self, key: &PredKey) -> Option<&mut Relation> {
        self.rels.get_mut(key)
    }

    /// Ready every index the given plans will probe: each probing atom step
    /// gets [`Relation::ensure_index`] on its bound positions. A no-op once
    /// the index exists — relations maintain indexes incrementally from
    /// then on.
    fn ensure_indexes(&mut self, plans: &[&RulePlan]) {
        for plan in plans {
            for step in &plan.steps {
                if let Step::Atom(a) = step {
                    if a.probe.is_empty() {
                        continue;
                    }
                    let positions: Vec<usize> = a.probe.iter().map(|&(p, _)| p).collect();
                    if let Some(rel) = self.rels.get_mut(&a.key) {
                        rel.ensure_index(&positions);
                    }
                }
            }
        }
    }

    /// Ready every index the given plans probe (public entry point for
    /// read-only consumers like the model checker; evaluation calls the
    /// internal version per iteration).
    pub fn rebuild_indexes_for(&mut self, plans: &[&RulePlan]) {
        self.ensure_indexes(plans);
    }

    /// Rough, deterministic estimate of the bytes held by every stored
    /// relation (indexes are derived data and excluded). A pure function of
    /// relation sizes and types, so the governor's `max_bytes` ceiling
    /// trips at the same round at any thread count.
    pub fn estimated_bytes(&self) -> u64 {
        self.rels.values().map(Relation::estimated_bytes).sum()
    }
}

/// One unit of round work: a rule plan, optionally restricted to replaying
/// one atom step against a shard of the round's delta.
struct WorkItem<'a> {
    plan: &'a RulePlan,
    delta: Option<(usize, &'a [Tuple])>,
}

impl WorkItem<'_> {
    /// The profile record for this item's execution.
    fn record(&self, out_len: usize, stats: EvalStats, wall_nanos: u64) -> ItemRec {
        ItemRec {
            clause: self.plan.clause_idx,
            delta_step: self.delta.map(|(si, _)| si),
            delta_tuples: self.delta.map_or(0, |(_, d)| d.len() as u64),
            out_len,
            stats,
            wall_nanos,
        }
    }
}

/// Upper bound on shards per (plan, step, predicate) delta. A small constant:
/// enough slack for an 8-way host, while keeping the per-round item count —
/// and therefore the merge cost — bounded.
const MAX_DELTA_SHARDS: usize = 8;

/// A delta is not split below this many tuples per shard; sharding a tiny
/// delta only buys scheduling overhead.
const SHARD_MIN_TUPLES: usize = 64;

/// Estimated round work (in delta tuples) below which the round runs on the
/// calling thread. Thread-count-independent, so it only affects scheduling,
/// never results.
const PARALLEL_MIN_WORK: usize = 256;

/// Number of shards for a delta of `n` tuples.
///
/// Deliberately a function of `n` **only**: when the delta step is not the
/// plan's first step, the steps before it re-run once per shard, so
/// `EvalStats.probes` depends on the shard count. Deriving it from the
/// thread count would make statistics vary across `--threads` values.
fn shard_count(n: usize) -> usize {
    (n / SHARD_MIN_TUPLES).clamp(1, MAX_DELTA_SHARDS)
}

/// Run one work item with panic containment: a panic inside rule execution
/// (a buggy builtin, a storage fault, an injected failpoint) surfaces as
/// [`CoreError::Internal`] carrying the rule's clause index instead of
/// unwinding across the scoped-thread boundary and aborting the process.
/// Unwind safety: on any error the caller discards `out`, `stats`, and the
/// whole round, so partially mutated locals are never observed.
fn run_item(
    state: &EvalState,
    item: &WorkItem<'_>,
    out: &mut Vec<(SymbolId, Tuple)>,
    stats: &mut EvalStats,
) -> CoreResult<()> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        // The failpoint sits inside the contained region so an injected
        // `panic`/`oom` action exercises the same unwind path a real rule
        // fault would.
        #[cfg(feature = "failpoints")]
        idlog_common::failpoint::hit("eval.worker").map_err(|message| CoreError::Internal {
            clause: Some(item.plan.clause_idx),
            message,
        })?;
        run_rule(state, item.plan, item.delta, out, stats)
    }))
    .unwrap_or_else(|payload| {
        Err(CoreError::Internal {
            clause: Some(item.plan.clause_idx),
            message: format!("rule evaluation panicked: {}", panic_message(payload)),
        })
    })
}

/// Execute one round's work items, serially or over a scoped thread pool,
/// returning the concatenated derivations **in work-item order**. The merged
/// `out` and the statistics are identical for every `threads` value.
///
/// The governor is polled between work items on every path, so a deadline
/// or cancellation stops all workers promptly; the caller discards the
/// round on any error, keeping the surviving state barrier-consistent.
/// Failures (governor trips, rule errors, contained panics) surface as the
/// first failing item in work-item order — the same error the serial path
/// reports, except for the inherently timing-dependent deadline/cancel
/// trips.
///
/// When `recs` is provided, one [`ItemRec`] per work item is appended — in
/// work-item order, so profiles inherit the determinism of the merge. The
/// `recs: None` path is exactly the unprofiled code.
fn run_round(
    state: &EvalState,
    items: &[WorkItem<'_>],
    threads: usize,
    governor: &Governor,
    stats: &mut EvalStats,
    mut recs: Option<&mut Vec<ItemRec>>,
) -> CoreResult<Vec<(SymbolId, Tuple)>> {
    // Estimate the round's work to skip thread spawn for tiny rounds. Full
    // (round 0) items count as heavy; the estimate uses no thread-dependent
    // input, so the serial/parallel decision is the same for a given round
    // regardless of `threads` — and either path computes the same result.
    let est: usize = items
        .iter()
        .map(|it| it.delta.map_or(PARALLEL_MIN_WORK, |(_, d)| d.len()))
        .sum();
    if threads <= 1 || items.len() <= 1 || est < PARALLEL_MIN_WORK {
        if let Some(recs) = recs {
            // Profiled serial path: per-item local stats so counters can be
            // attributed, merged into `stats` exactly as the parallel path
            // does.
            let mut out: Vec<(SymbolId, Tuple)> = Vec::new();
            for item in items {
                governor.poll()?;
                let before = out.len();
                let started = std::time::Instant::now();
                let mut local = EvalStats::default();
                run_item(state, item, &mut out, &mut local)?;
                let nanos = started.elapsed().as_nanos() as u64;
                recs.push(item.record(out.len() - before, local, nanos));
                *stats += local;
            }
            return Ok(out);
        }
        let mut out: Vec<(SymbolId, Tuple)> = Vec::new();
        for item in items {
            governor.poll()?;
            run_item(state, item, &mut out, stats)?;
        }
        return Ok(out);
    }

    type Slot = Option<CoreResult<(Vec<(SymbolId, Tuple)>, EvalStats, u64)>>;
    let profiling = recs.is_some();
    let mut slots: Vec<Slot> = items.iter().map(|_| None).collect();
    let chunk = items.len().div_ceil(threads.min(items.len()));
    std::thread::scope(|scope| {
        for (item_chunk, slot_chunk) in items.chunks(chunk).zip(slots.chunks_mut(chunk)) {
            scope.spawn(move || {
                for (item, slot) in item_chunk.iter().zip(slot_chunk.iter_mut()) {
                    let started = profiling.then(std::time::Instant::now);
                    let mut out: Vec<(SymbolId, Tuple)> = Vec::new();
                    let mut local = EvalStats::default();
                    let res = governor
                        .poll()
                        .and_then(|()| run_item(state, item, &mut out, &mut local));
                    let nanos = started.map_or(0, |t| t.elapsed().as_nanos() as u64);
                    let failed = res.is_err();
                    *slot = Some(res.map(|()| (out, local, nanos)));
                    if failed {
                        // The round is doomed; don't burn time on the rest
                        // of the chunk. Later slots stay `None`.
                        break;
                    }
                }
            });
        }
    });

    // A worker stops at its first failing item, leaving later slots in its
    // chunk empty — so in work-item order every `None` is preceded by that
    // chunk's `Err`, and the first non-Ok slot overall is the error the
    // serial path would have reported.
    if slots.iter().any(|s| !matches!(s, Some(Ok(_)))) {
        for slot in slots {
            if let Some(Err(e)) = slot {
                return Err(e);
            }
        }
        return Err(CoreError::Internal {
            clause: None,
            message: "round worker left no result and no error".to_string(),
        });
    }
    let mut merged: Vec<(SymbolId, Tuple)> = Vec::new();
    for (item, slot) in items.iter().zip(slots) {
        let Some(Ok((out, local, nanos))) = slot else {
            continue; // unreachable: the all-Ok scan above returned otherwise
        };
        if let Some(recs) = recs.as_deref_mut() {
            recs.push(item.record(out.len(), local, nanos));
        }
        merged.extend(out);
        *stats += local;
    }
    Ok(merged)
}

/// Build the delta round's work list in deterministic (plan, step, shard)
/// order. Only positive ordinary atom steps on same-stratum predicates with
/// a non-empty delta contribute items.
fn delta_work_list<'a>(
    plans: &[&'a RulePlan],
    same_stratum: &FxHashSet<SymbolId>,
    delta: &'a FxHashMap<SymbolId, Vec<Tuple>>,
) -> Vec<WorkItem<'a>> {
    let mut items: Vec<WorkItem<'a>> = Vec::new();
    for plan in plans {
        for (si, step) in plan.steps.iter().enumerate() {
            let Step::Atom(astep) = step else { continue };
            let PredKey::Ordinary(pred) = &astep.key else {
                continue;
            };
            if !same_stratum.contains(pred) {
                continue;
            }
            let Some(d) = delta.get(pred) else { continue };
            if d.is_empty() {
                continue;
            }
            let per_shard = d.len().div_ceil(shard_count(d.len()));
            for shard in d.chunks(per_shard) {
                items.push(WorkItem {
                    plan,
                    delta: Some((si, shard)),
                });
            }
        }
    }
    items
}

/// Evaluate one stratum to fixpoint **naively**: every round re-runs every
/// rule in full until nothing new is derived. Exists as the ablation
/// baseline for the semi-naive strategy ([`eval_stratum`]); results are
/// identical, the work is not.
pub fn eval_stratum_naive(
    state: &mut EvalState,
    plans: &[&RulePlan],
    stats: &mut EvalStats,
    threads: usize,
    governor: &Governor,
    mut prof: Option<&mut StratumProfile>,
) -> CoreResult<()> {
    let mut round = 0usize;
    loop {
        state.ensure_indexes(plans);
        let items: Vec<WorkItem> = plans
            .iter()
            .map(|p| WorkItem {
                plan: p,
                delta: None,
            })
            .collect();
        let mut recs = prof.as_ref().map(|_| Vec::new());
        let out = run_round(state, &items, threads, governor, stats, recs.as_mut())?;
        let delta = absorb_contained(state, out, stats, recs.as_mut())?;
        if let (Some(p), Some(recs)) = (prof.as_deref_mut(), recs) {
            p.rounds.push(RoundProfile::from_items(round, recs));
        }
        stats.iterations += 1;
        round += 1;
        if delta.is_empty() {
            return Ok(());
        }
        // Another round is coming: a deterministic barrier, where merged
        // state and stats are thread-count independent — the only place
        // the rounds/tuples/bytes ceilings are allowed to trip.
        governor.check_barrier(stats, || state.estimated_bytes())?;
    }
}

/// Evaluate one stratum to fixpoint.
///
/// `plans` are the rules whose head is in this stratum; `same_stratum` is the
/// set of head predicates of the stratum (used to pick delta steps). Head
/// relations must already be installed in `state`. `threads` bounds the
/// round's worker pool; results and statistics do not depend on it.
pub fn eval_stratum(
    state: &mut EvalState,
    plans: &[&RulePlan],
    same_stratum: &FxHashSet<SymbolId>,
    stats: &mut EvalStats,
    threads: usize,
    governor: &Governor,
    mut prof: Option<&mut StratumProfile>,
) -> CoreResult<()> {
    // Round 0: full evaluation of every rule.
    state.ensure_indexes(plans);
    let full: Vec<WorkItem> = plans
        .iter()
        .map(|p| WorkItem {
            plan: p,
            delta: None,
        })
        .collect();
    let mut recs = prof.as_ref().map(|_| Vec::new());
    let out = run_round(state, &full, threads, governor, stats, recs.as_mut())?;
    let mut delta = absorb_contained(state, out, stats, recs.as_mut())?;
    if let (Some(p), Some(recs)) = (prof.as_deref_mut(), recs) {
        p.rounds.push(RoundProfile::from_items(0, recs));
    }
    stats.iterations += 1;

    // Delta rounds.
    let mut round = 1usize;
    while !delta.is_empty() {
        // Deterministic barrier: merged state and stats are identical at
        // any thread count here, so *whether* and *which* ceiling trips —
        // and the partial output it leaves behind — are too. An evaluation
        // that reaches fixpoint never gets here, so completing runs are
        // never reported as tripped.
        governor.check_barrier(stats, || state.estimated_bytes())?;
        state.ensure_indexes(plans);
        let items = delta_work_list(plans, same_stratum, &delta);
        let mut recs = prof.as_ref().map(|_| Vec::new());
        let out = run_round(state, &items, threads, governor, stats, recs.as_mut())?;
        delta = absorb_contained(state, out, stats, recs.as_mut())?;
        if let (Some(p), Some(recs)) = (prof.as_deref_mut(), recs) {
            p.rounds.push(RoundProfile::from_items(round, recs));
        }
        stats.iterations += 1;
        round += 1;
    }
    Ok(())
}

/// Run [`absorb`] with panic containment: a fault in the storage layer
/// (e.g. an injected `storage.insert` failpoint) becomes a clean
/// [`CoreError::Internal`]. On error the evaluation is abandoned wholesale,
/// so the partially absorbed round is never observed as a barrier state.
fn absorb_contained(
    state: &mut EvalState,
    out: Vec<(SymbolId, Tuple)>,
    stats: &mut EvalStats,
    recs: Option<&mut Vec<ItemRec>>,
) -> CoreResult<FxHashMap<SymbolId, Vec<Tuple>>> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        absorb(state, out, stats, recs)
    }))
    .map_err(|payload| CoreError::Internal {
        clause: None,
        message: format!("tuple store panicked: {}", panic_message(payload)),
    })
}

/// Insert derived tuples as **per-predicate batches** through
/// [`Relation::delta_batch_insert`]; return the per-predicate delta of new
/// facts, in derivation order. Duplicates cost one membership check and no
/// allocation; the delta holds the already-owned tuple, so a new fact is
/// cloned exactly once (into the stored relation).
///
/// With `recs`, `derived`/`inserted` are also attributed to the work item
/// that produced each tuple: `out` is the concatenation of per-item output
/// segments in record order, so a cursor over the records' `out_len`
/// boundaries identifies the owner. Flags are computed per predicate but
/// walked in global derivation order, so the attribution is identical to
/// the former tuple-at-a-time insertion.
fn absorb(
    state: &mut EvalState,
    out: Vec<(SymbolId, Tuple)>,
    stats: &mut EvalStats,
    recs: Option<&mut Vec<ItemRec>>,
) -> FxHashMap<SymbolId, Vec<Tuple>> {
    // Group derivation positions per predicate, in first-seen order.
    let mut pred_slot: FxHashMap<SymbolId, usize> = FxHashMap::default();
    let mut groups: Vec<(SymbolId, Vec<usize>)> = Vec::new();
    for (i, (pred, _)) in out.iter().enumerate() {
        let slot = *pred_slot.entry(*pred).or_insert_with(|| {
            groups.push((*pred, Vec::new()));
            groups.len() - 1
        });
        groups[slot].1.push(i);
    }
    // One batch insert per predicate; flags flow back to global positions.
    let mut flags: Vec<bool> = vec![false; out.len()];
    for (pred, positions) in &groups {
        let batch: Vec<&Tuple> = positions.iter().map(|&i| &out[i].1).collect();
        let rel = state
            .rels
            .get_mut(&PredKey::Ordinary(*pred))
            .expect("IDB relation installed before evaluation");
        let batch_flags = rel.delta_batch_insert(&batch);
        for (&i, f) in positions.iter().zip(batch_flags) {
            flags[i] = f;
        }
    }
    // Walk the derivations in global order: statistics, attribution, delta.
    let mut delta: FxHashMap<SymbolId, Vec<Tuple>> = FxHashMap::default();
    let Some(recs) = recs else {
        for (new, (pred, t)) in flags.into_iter().zip(out) {
            stats.derived += 1;
            if new {
                stats.inserted += 1;
                delta.entry(pred).or_default().push(t);
            }
        }
        return delta;
    };
    let mut ri = 0usize;
    let mut remaining = recs.first().map_or(0, |r| r.out_len);
    for (new, (pred, t)) in flags.into_iter().zip(out) {
        while remaining == 0 {
            ri += 1;
            remaining = recs[ri].out_len;
        }
        stats.derived += 1;
        recs[ri].stats.derived += 1;
        if new {
            stats.inserted += 1;
            recs[ri].stats.inserted += 1;
            delta.entry(pred).or_default().push(t);
        }
        remaining -= 1;
    }
    delta
}

/// Execute one rule, optionally replaying step `delta.0` against the delta
/// tuples `delta.1` (a slice so callers can shard) instead of the stored
/// relation.
pub fn run_rule(
    state: &EvalState,
    plan: &RulePlan,
    delta: Option<(usize, &[Tuple])>,
    out: &mut Vec<(SymbolId, Tuple)>,
    stats: &mut EvalStats,
) -> CoreResult<()> {
    let mut bindings: Vec<Option<Value>> = vec![None; plan.n_vars];
    exec(state, plan, 0, delta, &mut bindings, out, stats)
}

fn resolve(pat: TermPat, bindings: &[Option<Value>]) -> Value {
    match pat {
        TermPat::Const(c) => c,
        TermPat::Var(v) => bindings[v].expect("variable bound by plan order"),
    }
}

fn exec(
    state: &EvalState,
    plan: &RulePlan,
    si: usize,
    delta: Option<(usize, &[Tuple])>,
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
            let is_delta_step = delta.is_some_and(|(di, _)| di == si);
            if is_delta_step {
                let (_, dtuples) = delta.expect("delta step implies delta");
                // Scan the (small) delta shard, re-checking probe positions.
                for t in dtuples {
                    stats.probes += 1;
                    try_tuple(state, plan, si, astep, t, true, delta, bindings, out, stats)?;
                }
            } else if astep.probe.is_empty() {
                let Some(rel) = state.get(&astep.key) else {
                    return Ok(());
                };
                for t in rel.iter() {
                    stats.probes += 1;
                    try_tuple(
                        state, plan, si, astep, t, false, delta, bindings, out, stats,
                    )?;
                }
            } else {
                let positions: Vec<usize> = astep.probe.iter().map(|&(p, _)| p).collect();
                let key_tuple: Tuple = astep
                    .probe
                    .iter()
                    .map(|&(_, pat)| resolve(pat, bindings))
                    .collect();
                let Some(rel) = state.get(&astep.key) else {
                    // No relation installed → no matches.
                    return Ok(());
                };
                for t in rel.probe(&positions, &key_tuple).iter() {
                    stats.probes += 1;
                    // Probe positions already match; only bind/check remain.
                    try_tuple(
                        state, plan, si, astep, t, false, delta, bindings, out, stats,
                    )?;
                }
            }
            Ok(())
        }
        Step::Negation { key, terms } => {
            let t: Tuple = terms.iter().map(|&p| resolve(p, bindings)).collect();
            stats.probes += 1;
            let holds = state.get(key).is_some_and(|rel| rel.contains(&t));
            if !holds {
                exec(state, plan, si + 1, delta, bindings, out, stats)?;
            }
            Ok(())
        }
        Step::Builtin { op, args, bound } => {
            stats.builtin_evals += 1;
            exec_builtin(
                state, plan, si, *op, args, bound, delta, bindings, out, stats,
            )
        }
    }
}

/// Match one candidate tuple against an atom step: verify probe positions
/// (needed for delta scans), bind new variables, check repeats, recurse.
#[allow(clippy::too_many_arguments)]
fn try_tuple(
    state: &EvalState,
    plan: &RulePlan,
    si: usize,
    astep: &AtomStep,
    t: &Tuple,
    verify_probe: bool,
    delta: Option<(usize, &[Tuple])>,
    bindings: &mut Vec<Option<Value>>,
    out: &mut Vec<(SymbolId, Tuple)>,
    stats: &mut EvalStats,
) -> CoreResult<()> {
    if verify_probe {
        for &(pos, pat) in &astep.probe {
            if t[pos] != resolve(pat, bindings) {
                return Ok(());
            }
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
        exec(state, plan, si + 1, delta, bindings, out, stats)?;
    }
    for &(_, v) in &astep.bind {
        bindings[v] = None;
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn exec_builtin(
    state: &EvalState,
    plan: &RulePlan,
    si: usize,
    op: Builtin,
    args: &[TermPat],
    bound: &[bool],
    delta: Option<(usize, &[Tuple])>,
    bindings: &mut Vec<Option<Value>>,
    out: &mut Vec<(SymbolId, Tuple)>,
    stats: &mut EvalStats,
) -> CoreResult<()> {
    // `=` and `!=` work on both sorts; handle them on Values directly.
    if matches!(op, Builtin::Eq | Builtin::Ne) {
        let vals: Vec<Option<Value>> = args
            .iter()
            .zip(bound)
            .map(|(&a, &b)| if b { Some(resolve(a, bindings)) } else { None })
            .collect();
        match (vals[0], vals[1]) {
            (Some(a), Some(b)) => {
                if builtins::eq_check(op, a, b) {
                    exec(state, plan, si + 1, delta, bindings, out, stats)?;
                }
            }
            (Some(known), None) | (None, Some(known)) => {
                debug_assert_eq!(op, Builtin::Eq, "Ne requires both sides bound");
                let free = if vals[0].is_none() { args[0] } else { args[1] };
                let TermPat::Var(v) = free else {
                    unreachable!("free side is a variable")
                };
                bindings[v] = Some(known);
                exec(state, plan, si + 1, delta, bindings, out, stats)?;
                bindings[v] = None;
            }
            (None, None) => unreachable!("mode table requires one bound side"),
        }
        return Ok(());
    }

    // Arithmetic: integer-only.
    let mut ints: Vec<Option<i64>> = Vec::with_capacity(args.len());
    for (&a, &b) in args.iter().zip(bound) {
        if b {
            match resolve(a, bindings) {
                Value::Int(n) => ints.push(Some(n)),
                Value::Sym(_) => return Ok(()), // wrong sort: no solutions
            }
        } else {
            ints.push(None);
        }
    }
    for sol in builtins::solve(op, &ints)? {
        // Walk arguments: bind free vars, check everything else.
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
            exec(state, plan, si + 1, delta, bindings, out, stats)?;
        }
        for v in newly {
            bindings[v] = None;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use idlog_common::{Interner, Value};

    fn rel(i: &Interner, names: &[&str]) -> Relation {
        let mut r = Relation::elementary(1);
        for n in names {
            r.insert(vec![Value::Sym(i.intern(n))].into()).unwrap();
        }
        r
    }

    #[test]
    fn put_get_has_roundtrip() {
        let i = Interner::new();
        let p = i.intern("p");
        let mut state = EvalState::new();
        assert!(!state.has(&PredKey::Ordinary(p)));
        state.put(PredKey::Ordinary(p), rel(&i, &["a"]));
        assert!(state.has(&PredKey::Ordinary(p)));
        assert_eq!(state.get(&PredKey::Ordinary(p)).unwrap().len(), 1);
        // Replacing bumps the version (observable through index staleness,
        // checked below) and swaps the relation.
        state.put(PredKey::Ordinary(p), rel(&i, &["a", "b"]));
        assert_eq!(state.get(&PredKey::Ordinary(p)).unwrap().len(), 2);
    }

    #[test]
    fn ordinary_and_id_keys_are_distinct() {
        let i = Interner::new();
        let p = i.intern("p");
        let mut state = EvalState::new();
        state.put(PredKey::Ordinary(p), rel(&i, &["a"]));
        assert!(!state.has(&PredKey::Id(p, vec![0])));
        let mut idr = Relation::new(idlog_common::RelType::new(vec![
            idlog_common::Sort::U,
            idlog_common::Sort::I,
        ]));
        idr.insert(vec![Value::Sym(i.intern("a")), Value::Int(0)].into())
            .unwrap();
        state.put(PredKey::Id(p, vec![0]), idr);
        assert!(state.has(&PredKey::Id(p, vec![0])));
        assert_ne!(
            state.get(&PredKey::Ordinary(p)).unwrap().arity(),
            state.get(&PredKey::Id(p, vec![0])).unwrap().arity()
        );
    }

    #[test]
    fn clone_keeps_relations_and_their_indexes() {
        let i = Interner::new();
        let p = i.intern("p");
        let mut state = EvalState::new();
        state.put(PredKey::Ordinary(p), rel(&i, &["a", "b"]));
        // Indexes now live inside each relation's store and travel with
        // the clone (enumeration branches reuse them instead of rebuilding).
        if let Some(r) = state.rels.get_mut(&PredKey::Ordinary(p)) {
            r.ensure_index(&[0]);
        }
        let cloned = state.clone();
        let cloned_rel = cloned.get(&PredKey::Ordinary(p)).unwrap();
        assert_eq!(cloned_rel.len(), 2);
        let key: Tuple = vec![Value::Sym(i.intern("a"))].into();
        assert_eq!(cloned_rel.probe(&[0], &key).len(), 1);
    }
}
