//! All-answers enumeration: the query as a set of relations.
//!
//! A non-deterministic IDLOG query maps an input database to the *set* of
//! answers `{ qᴵ : I a finite perfect model }` (\[She90b\] §3.1). Perfect
//! models are in bijection with choices of ID-functions, so enumeration
//! backtracks over every [`idlog_storage::IdAssignment`] at every
//! ID-materialization point,
//! stratum by stratum. The space is a product of factorials; an
//! [`EnumBudget`] bounds the walk, the [`crate::Governor`] limits
//! bound each branch's fixpoint, and the result records *which* stop —
//! model budget, answer budget, a resource ceiling, or cancellation — ended
//! the walk early ([`AnswerSet::stopped`]).

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use idlog_common::{FxHashMap, FxHashSet, Interner, SymbolId, Tuple};
use idlog_storage::{
    make_id_relation, BoundedAssignmentIter, Database, IdAssignmentIter, Relation,
};

use crate::config::EvalOptions;
use crate::engine::{eval_stratum, EvalState};
use crate::error::{CoreError, CoreResult};
use crate::eval;
use crate::govern::{panic_message, CancelToken, Governor, LimitKind, StopReason};
use crate::plan::RulePlan;
use crate::pred::PredKey;
use crate::program::ValidatedProgram;
use crate::stats::EvalStats;
use crate::tid::CanonicalOracle;
use crate::tidbound::tid_bounds;

/// Bounds on enumeration work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnumBudget {
    /// Maximum number of perfect models (leaves) to visit.
    pub max_models: u64,
    /// Maximum number of *distinct answers* to collect.
    pub max_answers: usize,
}

impl Default for EnumBudget {
    fn default() -> Self {
        EnumBudget {
            max_models: 100_000,
            max_answers: 10_000,
        }
    }
}

/// The set of answers of a non-deterministic query.
#[derive(Debug, Clone)]
pub struct AnswerSet {
    answers: Vec<Relation>,
    stop: Option<StopReason>,
    models_explored: u64,
}

impl AnswerSet {
    /// Number of distinct answers.
    pub fn len(&self) -> usize {
        self.answers.len()
    }

    /// True when there are no answers (never the case for a total query on a
    /// stratifiable program — the empty relation is still an answer).
    pub fn is_empty(&self) -> bool {
        self.answers.is_empty()
    }

    /// The distinct answer relations.
    pub fn iter(&self) -> impl Iterator<Item = &Relation> {
        self.answers.iter()
    }

    /// False when a budget, resource limit, or cancellation stopped the walk
    /// before every perfect model was visited.
    pub fn complete(&self) -> bool {
        self.stop.is_none()
    }

    /// Why the walk stopped early, when it did: the enumeration budgets
    /// report as [`LimitKind::Models`]/[`LimitKind::Answers`], governor
    /// ceilings as their own [`LimitKind`], Ctrl-C as
    /// [`StopReason::Cancelled`]. `None` means the walk was exhaustive.
    pub fn stopped(&self) -> Option<StopReason> {
        self.stop
    }

    /// How many perfect models were visited.
    pub fn models_explored(&self) -> u64 {
        self.models_explored
    }

    /// Each answer as a sorted list of rendered tuples; the outer list is
    /// sorted too. Canonical across runs — convenient for tests and reports.
    pub fn to_sorted_strings(&self, interner: &Interner) -> Vec<Vec<String>> {
        let mut out: Vec<Vec<String>> = self
            .answers
            .iter()
            .map(|rel| {
                let mut rows: Vec<String> = rel
                    .sorted_canonical(interner)
                    .iter()
                    .map(|t| t.display(interner).to_string())
                    .collect();
                rows.sort();
                rows
            })
            .collect();
        out.sort();
        out
    }

    /// True when some answer equals exactly `tuples` (order-insensitive).
    pub fn contains_answer(&self, tuples: &[Tuple]) -> bool {
        self.answers
            .iter()
            .any(|rel| rel.len() == tuples.len() && tuples.iter().all(|t| rel.contains(t)))
    }

    /// Build an answer set from raw relations (used by the other language
    /// semantics in this workspace — DATALOG^C and DL — so their answer sets
    /// compare directly with IDLOG's). Deduplicates and sorts canonically.
    /// An incomplete walk (`complete == false`) reports as a model-budget
    /// stop; use [`AnswerSet::collect_stopped`] to carry a precise reason.
    pub fn collect(
        relations: impl IntoIterator<Item = Relation>,
        complete: bool,
        models_explored: u64,
        interner: &Interner,
    ) -> AnswerSet {
        let stop = if complete {
            None
        } else {
            Some(StopReason::Limit(LimitKind::Models))
        };
        AnswerSet::collect_stopped(relations, stop, models_explored, interner)
    }

    /// Like [`AnswerSet::collect`], but records exactly why the walk stopped
    /// early (`None` = exhaustive).
    pub fn collect_stopped(
        relations: impl IntoIterator<Item = Relation>,
        stop: Option<StopReason>,
        models_explored: u64,
        interner: &Interner,
    ) -> AnswerSet {
        let mut keys: FxHashSet<Vec<Tuple>> = FxHashSet::default();
        let mut answers = Vec::new();
        for rel in relations {
            if keys.insert(rel.sorted_canonical(interner)) {
                answers.push(rel);
            }
        }
        answers.sort_by(|a, b| {
            let ka = a.sorted_canonical(interner);
            let kb = b.sorted_canonical(interner);
            ka.len().cmp(&kb.len()).then_with(|| {
                for (x, y) in ka.iter().zip(kb.iter()) {
                    let ord = x.cmp_canonical(y, interner);
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            })
        });
        AnswerSet {
            answers,
            stop,
            models_explored,
        }
    }

    /// Set-equality of two answer sets (same distinct answers).
    pub fn same_answers(&self, other: &AnswerSet, interner: &Interner) -> bool {
        self.to_sorted_strings(interner) == other.to_sorted_strings(interner)
    }
}

/// Enumerate every answer of `output` over `db` under [`EvalOptions`]: the
/// options' budget bounds the walk, and the configured thread budget drives
/// the first choice point's fan-out (whatever is not consumed by branching
/// parallelizes the per-branch fixpoint rounds). Profiling does not apply
/// to enumeration and is ignored.
///
/// ```
/// use idlog_core::Query;
///
/// // Example 2 of the paper: guessing everyone's sex.
/// let q = Query::parse(
///     "sex_guess(X, male) :- person(X).
///      sex_guess(X, female) :- person(X).
///      man(X) :- sex_guess[1](X, male, 1).",
///     "man",
/// ).unwrap();
/// let mut db = q.new_database();
/// db.insert_syms("person", &["a"]).unwrap();
/// db.insert_syms("person", &["b"]).unwrap();
///
/// let answers = q.session(&db).all_answers().unwrap();
/// assert_eq!(answers.len(), 4); // ∅, {a}, {b}, {a, b}
/// assert!(answers.complete());
/// ```
pub fn enumerate_with_options(
    program: &ValidatedProgram,
    db: &Database,
    output: &str,
    options: &EvalOptions,
) -> CoreResult<AnswerSet> {
    enumerate_governed(program, db, output, options, None)
}

/// [`enumerate_with_options`] plus governance: the options'
/// [`Limits`](crate::Limits) bound each branch's fixpoint and the whole walk
/// (deadline), and `cancel` lets a signal handler or embedder stop the walk.
///
/// Limit trips and cancellations are **not errors** here: enumeration is
/// a bounded walk by design, so they end the walk the same way the model
/// budget does, and the returned set reports the reason through
/// [`AnswerSet::stopped`]. Only real failures (validation, arithmetic,
/// contained panics) return `Err`.
pub fn enumerate_governed(
    program: &ValidatedProgram,
    db: &Database,
    output: &str,
    options: &EvalOptions,
    cancel: Option<&CancelToken>,
) -> CoreResult<AnswerSet> {
    let governor = Governor::new(options.limits, cancel.cloned());
    enumerate_impl(program, db, output, &options.budget, options, &governor)
}

/// `Shared::stop` encoding: `0` = still walking; otherwise a [`StopReason`].
/// The first writer wins (compare-exchange from `0`), so the reported reason
/// is the first stop observed anywhere in the walk.
fn encode_stop(reason: StopReason) -> u8 {
    match reason {
        StopReason::Limit(LimitKind::Deadline) => 1,
        StopReason::Limit(LimitKind::Rounds) => 2,
        StopReason::Limit(LimitKind::Tuples) => 3,
        StopReason::Limit(LimitKind::Bytes) => 4,
        StopReason::Limit(LimitKind::Models) => 5,
        StopReason::Limit(LimitKind::Answers) => 6,
        StopReason::Cancelled => 7,
    }
}

fn decode_stop(code: u8) -> Option<StopReason> {
    match code {
        0 => None,
        1 => Some(StopReason::Limit(LimitKind::Deadline)),
        2 => Some(StopReason::Limit(LimitKind::Rounds)),
        3 => Some(StopReason::Limit(LimitKind::Tuples)),
        4 => Some(StopReason::Limit(LimitKind::Bytes)),
        5 => Some(StopReason::Limit(LimitKind::Models)),
        6 => Some(StopReason::Limit(LimitKind::Answers)),
        _ => Some(StopReason::Cancelled),
    }
}

struct Shared {
    budget: EnumBudget,
    /// Perfect models visited, across all workers.
    models: AtomicU64,
    /// First stop reason observed anywhere ([`encode_stop`]); `0` = none.
    stop: AtomicU8,
}

impl Shared {
    /// Record a stop; the first reason wins, later ones are ignored.
    fn stop_with(&self, reason: StopReason) {
        let _ = self.stop.compare_exchange(
            0,
            encode_stop(reason),
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    /// Record the stop corresponding to a governor trip.
    fn stop_for(&self, e: &CoreError) {
        match e {
            CoreError::LimitExceeded { limit } => self.stop_with(StopReason::Limit(*limit)),
            CoreError::Cancelled => self.stop_with(StopReason::Cancelled),
            // Not a stop — real errors propagate as Err, not through here.
            _ => {}
        }
    }

    fn is_stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed) != 0
    }

    fn stopped(&self) -> Option<StopReason> {
        decode_stop(self.stop.load(Ordering::Relaxed))
    }
}

/// Per-worker answer sink (merged after the walk); keeps the hot leaf path
/// free of cross-thread locking.
#[derive(Default)]
struct Local {
    keys: FxHashSet<Vec<Tuple>>,
    answers: Vec<Relation>,
}

fn enumerate_impl(
    program: &ValidatedProgram,
    db: &Database,
    output: &str,
    budget: &EnumBudget,
    options: &EvalOptions,
    governor: &Governor,
) -> CoreResult<AnswerSet> {
    let interner = Arc::clone(program.interner());
    let output_id = interner.get(output).ok_or_else(|| CoreError::Validation {
        clause: None,
        message: format!("output predicate {output} does not occur in the program"),
    })?;

    // Only the program portion related to the output contributes choice
    // points or answers (the paper's P/q).
    let restricted = program.restrict_to(output_id)?;
    if restricted.arity(output_id).is_none() {
        // No clause defines the output: either it is an input predicate
        // (the identity query — one answer, the stored relation) or it does
        // not occur at all.
        return match program.arity(output_id) {
            Some(arity) => {
                let rel = db
                    .relation_by_id(output_id)
                    .cloned()
                    .unwrap_or_else(|| Relation::elementary(arity));
                Ok(AnswerSet::collect([rel], true, 1, &interner))
            }
            None => Err(CoreError::Validation {
                clause: None,
                message: format!("output predicate {output} does not occur in the program"),
            }),
        };
    }

    let strat = restricted.stratification();
    let plans = restricted.plans();
    let by_stratum = strat.clauses_by_stratum(restricted.ast());
    let stratum_plans: Vec<Vec<&RulePlan>> = by_stratum
        .iter()
        .map(|cs| cs.iter().map(|&ci| &plans[ci]).collect())
        .collect();

    let mut state = EvalState::new();
    eval::install_for_enumeration(&restricted, db, &mut state)?;

    // Footnote 6/7 optimization: ID-uses whose tids are provably bounded
    // enumerate k-prefix arrangements instead of full permutations.
    let bounds = tid_bounds(&restricted);

    let shared = Shared {
        budget: *budget,
        models: AtomicU64::new(0),
        stop: AtomicU8::new(0),
    };

    let cx = Cx {
        stratum_plans: &stratum_plans,
        interner: &interner,
        output: output_id,
        shared: &shared,
        bounds: &bounds,
        governor,
    };
    // Cap the fan-out: beyond a small pool the branch chunks stop amortizing
    // the per-branch state clone.
    let threads = options.effective_threads().min(16);
    let mut local = Local::default();
    // The walk is contained: a panic anywhere below surfaces as a clean
    // `Internal` error instead of aborting the caller. Parallel branch
    // workers are additionally contained at their join points in `branch`.
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        explore(&cx, 0, state, threads, &mut local)
    })) {
        Ok(result) => result?,
        Err(payload) => {
            return Err(CoreError::Internal {
                clause: None,
                message: format!("enumeration panicked: {}", panic_message(payload)),
            })
        }
    }

    // `Local` already deduplicates within one worker; parallel workers merge
    // their sinks in `branch`, so at this point `local` holds everything.
    if local.answers.len() > budget.max_answers {
        local.answers.truncate(budget.max_answers);
        shared.stop_with(StopReason::Limit(LimitKind::Answers));
    }
    Ok(AnswerSet::collect_stopped(
        local.answers,
        shared.stopped(),
        shared.models.load(Ordering::Relaxed),
        &interner,
    ))
}

/// Shared read-only context for the recursive walk.
struct Cx<'a> {
    stratum_plans: &'a [Vec<&'a RulePlan>],
    interner: &'a Arc<Interner>,
    output: SymbolId,
    shared: &'a Shared,
    bounds: &'a FxHashMap<(SymbolId, Vec<usize>), usize>,
    governor: &'a Governor,
}

/// Recursive walk: at stratum `k`, branch over the assignments of every
/// ID-relation the stratum reads, evaluate, and descend.
fn explore(
    cx: &Cx<'_>,
    k: usize,
    state: EvalState,
    threads: usize,
    local: &mut Local,
) -> CoreResult<()> {
    if k == cx.stratum_plans.len() {
        let rel = state
            .get(&PredKey::Ordinary(cx.output))
            .cloned()
            .unwrap_or_else(|| Relation::elementary(0));
        let key = rel.sorted_canonical(cx.interner);
        let models = cx.shared.models.fetch_add(1, Ordering::Relaxed) + 1;
        if models > cx.shared.budget.max_models {
            cx.shared.stop_with(StopReason::Limit(LimitKind::Models));
            return Ok(());
        }
        if local.keys.insert(key) {
            if local.answers.len() >= cx.shared.budget.max_answers {
                cx.shared.stop_with(StopReason::Limit(LimitKind::Answers));
                return Ok(());
            }
            local.answers.push(rel);
        }
        return Ok(());
    }

    // Which ID-relations does this stratum need that are not yet chosen?
    let mut needed: Vec<(PredKey, SymbolId, Vec<usize>)> = Vec::new();
    let mut seen: FxHashSet<PredKey> = FxHashSet::default();
    for plan in &cx.stratum_plans[k] {
        for step in &plan.steps {
            if let Some(PredKey::Id(base, grouping)) = step.reads() {
                let key = PredKey::Id(*base, grouping.clone());
                if !state.has(&key) && seen.insert(key.clone()) {
                    needed.push((key, *base, grouping.clone()));
                }
            }
        }
    }
    // Deterministic branch order.
    needed.sort_by_key(|(_, base, grouping)| (cx.interner.resolve(*base), grouping.clone()));

    branch(cx, k, state, threads, &needed, 0, local)
}

/// Branch over assignments of `needed[i..]`, then evaluate stratum `k` and
/// descend.
#[allow(clippy::too_many_arguments)]
fn branch(
    cx: &Cx<'_>,
    k: usize,
    state: EvalState,
    threads: usize,
    needed: &[(PredKey, SymbolId, Vec<usize>)],
    i: usize,
    local: &mut Local,
) -> CoreResult<()> {
    if cx.shared.is_stopped() {
        return Ok(());
    }
    // Timing-dependent stops (deadline, Ctrl-C): a trip ends the walk the
    // same way a budget does — the answers gathered so far stand, and the
    // result records the reason.
    if let Err(e) = cx.governor.poll() {
        cx.shared.stop_for(&e);
        return Ok(());
    }
    if i == needed.len() {
        let mut state = state;
        let same: FxHashSet<SymbolId> = cx.stratum_plans[k].iter().map(|p| p.head_pred).collect();
        let mut stats = EvalStats::default();
        // Threads not consumed by branch fan-out parallelize the rounds.
        // Governor trips inside the branch's fixpoint (per-branch rounds,
        // tuples, bytes, or the shared deadline) stop the walk rather than
        // failing it.
        match eval_stratum(
            &mut state,
            &cx.stratum_plans[k],
            &same,
            &mut stats,
            threads,
            cx.governor,
            None,
        ) {
            Ok(()) => {}
            Err(e @ (CoreError::LimitExceeded { .. } | CoreError::Cancelled)) => {
                cx.shared.stop_for(&e);
                return Ok(());
            }
            Err(e) => return Err(e),
        }
        return explore(cx, k + 1, state, threads, local);
    }

    let (key, base, grouping) = &needed[i];
    let base_rel = state
        .get(&PredKey::Ordinary(*base))
        .ok_or_else(|| CoreError::Eval {
            message: format!("base relation {} missing", cx.interner.resolve(*base)),
        })?;
    // Only distinguishable assignments: k-prefix arrangements when the tid
    // use is bounded, full permutations otherwise.
    let assignments: Vec<_> = match cx.bounds.get(&(*base, grouping.clone())) {
        Some(&bound) => {
            BoundedAssignmentIter::new(base_rel, grouping, bound, cx.interner).collect()
        }
        None => IdAssignmentIter::new(base_rel, grouping, cx.interner).collect(),
    };

    if threads > 1 && assignments.len() > 1 {
        // Distribute the first choice point's branches over a bounded pool:
        // one thread per chunk, each walking its share sequentially into its
        // own local sink (no cross-thread locking on the leaf path). With a
        // single-thread budget (e.g. a single-core host under auto config)
        // this path is skipped — threads would only add overhead.
        let chunk_len = assignments.len().div_ceil(threads);
        let results: Vec<CoreResult<Local>> = std::thread::scope(|scope| {
            let handles: Vec<_> = assignments
                .chunks(chunk_len)
                .map(|chunk| {
                    let state = &state;
                    let key = &key;
                    scope.spawn(move || -> CoreResult<Local> {
                        #[cfg(feature = "failpoints")]
                        if let Err(message) = idlog_common::failpoint::hit("enum.branch") {
                            return Err(CoreError::Internal {
                                clause: None,
                                message,
                            });
                        }
                        let mut mine = Local::default();
                        for assignment in chunk {
                            if cx.shared.is_stopped() {
                                return Ok(mine);
                            }
                            let mut branch_state = state.clone();
                            branch_state
                                .put((*key).clone(), make_id_relation(base_rel, assignment)?);
                            // Only one level of parallelism.
                            branch(cx, k, branch_state, 1, needed, i + 1, &mut mine)?;
                        }
                        Ok(mine)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(r) => r,
                    // A worker panic must not take the process down; surface
                    // it as the same contained-fault error the fixpoint uses.
                    Err(payload) => Err(CoreError::Internal {
                        clause: None,
                        message: format!(
                            "enumeration branch worker panicked: {}",
                            panic_message(payload)
                        ),
                    }),
                })
                .collect()
        });
        for r in results {
            let mine = r?;
            for rel in mine.answers {
                let key = rel.sorted_canonical(cx.interner);
                if local.keys.insert(key) {
                    local.answers.push(rel);
                }
            }
        }
        return Ok(());
    }

    for assignment in &assignments {
        if cx.shared.is_stopped() {
            return Ok(());
        }
        let mut branch_state = state.clone();
        branch_state.put(key.clone(), make_id_relation(base_rel, assignment)?);
        branch(cx, k, branch_state, threads, needed, i + 1, local)?;
    }
    Ok(())
}

/// Deterministic single-model shortcut used by tests: the canonical answer.
pub fn canonical_answer(
    program: &ValidatedProgram,
    db: &Database,
    output: &str,
) -> CoreResult<Relation> {
    let out =
        eval::evaluate_with_options(program, db, &mut CanonicalOracle, &EvalOptions::default())?;
    out.relation(output)
        .cloned()
        .ok_or_else(|| CoreError::Validation {
            clause: None,
            message: format!("output predicate {output} does not occur in the program"),
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(src: &str, facts: &[(&str, &[&str])]) -> (ValidatedProgram, Database) {
        let interner = Arc::new(Interner::new());
        let program = ValidatedProgram::parse(src, Arc::clone(&interner)).unwrap();
        let mut db = Database::with_interner(interner);
        for (pred, cols) in facts {
            db.insert_syms(pred, cols).unwrap();
        }
        (program, db)
    }

    fn enumerate(
        program: &ValidatedProgram,
        db: &Database,
        output: &str,
        budget: &EnumBudget,
    ) -> CoreResult<AnswerSet> {
        enumerate_with_options(program, db, output, &EvalOptions::serial().budget(*budget))
    }

    #[test]
    fn paper_example2_all_answers() {
        // The query man on person={a,b} has answers ∅, {a}, {b}, {a,b}.
        let (p, db) = setup(
            "sex_guess(X, male) :- person(X).
             sex_guess(X, female) :- person(X).
             man(X) :- sex_guess[1](X, male, 1).
             woman(X) :- sex_guess[1](X, female, 1).",
            &[("person", &["a"]), ("person", &["b"])],
        );
        let budget = EnumBudget::default();
        let answers = enumerate(&p, &db, "man", &budget).unwrap();
        assert!(answers.complete());
        assert_eq!(answers.stopped(), None);
        let strings = answers.to_sorted_strings(p.interner());
        assert_eq!(
            strings,
            vec![
                vec![],
                vec!["(a)".to_string()],
                vec!["(a)".to_string(), "(b)".to_string()],
                vec!["(b)".to_string()],
            ]
        );
        // woman has the same answer set by symmetry.
        let answers_w = enumerate(&p, &db, "woman", &budget).unwrap();
        assert_eq!(answers_w.to_sorted_strings(p.interner()), strings);
    }

    #[test]
    fn deterministic_program_has_one_answer() {
        let (p, db) = setup(
            "tc(X, Y) :- e(X, Y). tc(X, Y) :- e(X, Z), tc(Z, Y).",
            &[("e", &["a", "b"]), ("e", &["b", "c"])],
        );
        let answers = enumerate(&p, &db, "tc", &EnumBudget::default()).unwrap();
        assert_eq!(answers.len(), 1);
        assert!(answers.complete());
        assert_eq!(answers.models_explored(), 1);
    }

    #[test]
    fn one_per_group_selection_has_product_many_models_but_fewer_answers() {
        // Pick one employee from the sales group of 3. A constant tid 0
        // bounds the observable tids, so the walk visits 3 distinguishable
        // arrangements (not 3! = 6 permutations) — the footnote 6/7
        // optimization — and finds 3 distinct answers.
        let (p, db) = setup(
            "pick(N) :- emp[2](N, d, 0).",
            &[
                ("emp", &["a", "d"]),
                ("emp", &["b", "d"]),
                ("emp", &["c", "d"]),
            ],
        );
        let answers = enumerate(&p, &db, "pick", &EnumBudget::default()).unwrap();
        assert_eq!(answers.models_explored(), 3);
        assert_eq!(answers.len(), 3);
    }

    #[test]
    fn unbounded_tid_use_walks_full_permutations() {
        // The tid is exposed in the head, so every permutation is a
        // distinguishable model: 3! = 6.
        let (p, db) = setup(
            "pick(N, T) :- emp[2](N, d, T).",
            &[
                ("emp", &["a", "d"]),
                ("emp", &["b", "d"]),
                ("emp", &["c", "d"]),
            ],
        );
        let answers = enumerate(&p, &db, "pick", &EnumBudget::default()).unwrap();
        assert_eq!(answers.models_explored(), 6);
        assert_eq!(answers.len(), 6);
    }

    #[test]
    fn budget_truncates() {
        // The head exposes the tid, so the space is the full 5! = 120
        // permutations; cap at 10.
        let (p, db) = setup(
            "pick(N, T) :- emp[](N, D, T).",
            &[
                ("emp", &["a", "d"]),
                ("emp", &["b", "d"]),
                ("emp", &["c", "d"]),
                ("emp", &["e", "d"]),
                ("emp", &["f", "d"]),
            ],
        );
        let budget = EnumBudget {
            max_models: 10,
            max_answers: 1000,
        };
        let answers = enumerate(&p, &db, "pick", &budget).unwrap();
        assert!(!answers.complete());
        assert_eq!(
            answers.stopped(),
            Some(StopReason::Limit(LimitKind::Models))
        );
        assert!(answers.models_explored() <= 11);
    }

    #[test]
    fn answer_budget_reports_its_own_kind() {
        let (p, db) = setup(
            "pick(N, T) :- emp[](N, D, T).",
            &[
                ("emp", &["a", "d"]),
                ("emp", &["b", "d"]),
                ("emp", &["c", "d"]),
            ],
        );
        let budget = EnumBudget {
            max_models: 1_000,
            max_answers: 2,
        };
        let answers = enumerate(&p, &db, "pick", &budget).unwrap();
        assert!(!answers.complete());
        assert_eq!(
            answers.stopped(),
            Some(StopReason::Limit(LimitKind::Answers))
        );
        assert_eq!(answers.len(), 2);
    }

    #[test]
    fn zero_deadline_stops_the_walk_cleanly() {
        // A deadline trip is a *stop*, not an error: the walk ends where it
        // stands and the result names the timeout.
        let (p, db) = setup(
            "tc(X, Y) :- e(X, Y). tc(X, Y) :- e(X, Z), tc(Z, Y).",
            &[("e", &["a", "b"]), ("e", &["b", "c"])],
        );
        let opts = EvalOptions::serial().deadline(std::time::Duration::ZERO);
        let answers = enumerate_governed(&p, &db, "tc", &opts, None).unwrap();
        assert!(!answers.complete());
        assert_eq!(
            answers.stopped(),
            Some(StopReason::Limit(LimitKind::Deadline))
        );
    }

    #[test]
    fn cancelled_token_stops_the_walk_cleanly() {
        let (p, db) = setup(
            "tc(X, Y) :- e(X, Y). tc(X, Y) :- e(X, Z), tc(Z, Y).",
            &[("e", &["a", "b"])],
        );
        let token = CancelToken::new();
        token.cancel();
        let answers =
            enumerate_governed(&p, &db, "tc", &EvalOptions::serial(), Some(&token)).unwrap();
        assert!(!answers.complete());
        assert_eq!(answers.stopped(), Some(StopReason::Cancelled));
    }

    #[test]
    fn parallel_matches_sequential() {
        let (p, db) = setup(
            "sex_guess(X, male) :- person(X).
             sex_guess(X, female) :- person(X).
             man(X) :- sex_guess[1](X, male, 1).",
            &[("person", &["a"]), ("person", &["b"]), ("person", &["c"])],
        );
        let budget = EnumBudget::default();
        let seq = enumerate(&p, &db, "man", &budget).unwrap();
        let par =
            enumerate_with_options(&p, &db, "man", &EvalOptions::new().budget(budget)).unwrap();
        assert_eq!(
            seq.to_sorted_strings(p.interner()),
            par.to_sorted_strings(p.interner())
        );
    }

    #[test]
    fn unknown_output_is_an_error() {
        let (p, db) = setup("p(X) :- q(X).", &[]);
        assert!(enumerate(&p, &db, "zzz", &EnumBudget::default()).is_err());
    }

    #[test]
    fn unrelated_choice_points_do_not_blow_up() {
        // The ID-use in `noise` is unrelated to `out`; P/q restriction must
        // drop it, leaving exactly one model.
        let (p, db) = setup(
            "noise(N) :- emp[](N, D, 0).
             out(X) :- person(X).",
            &[
                ("person", &["a"]),
                ("emp", &["a", "d"]),
                ("emp", &["b", "d"]),
                ("emp", &["c", "d"]),
            ],
        );
        let answers = enumerate(&p, &db, "out", &EnumBudget::default()).unwrap();
        assert_eq!(answers.models_explored(), 1);
        assert_eq!(answers.len(), 1);
    }

    #[test]
    fn legacy_collect_maps_incomplete_to_model_budget() {
        let interner = Interner::new();
        let set = AnswerSet::collect([Relation::elementary(0)], false, 3, &interner);
        assert!(!set.complete());
        assert_eq!(set.stopped(), Some(StopReason::Limit(LimitKind::Models)));
        let set = AnswerSet::collect([Relation::elementary(0)], true, 1, &interner);
        assert!(set.complete());
        assert_eq!(set.stopped(), None);
    }

    #[test]
    fn stop_codes_round_trip() {
        for reason in [
            StopReason::Limit(LimitKind::Deadline),
            StopReason::Limit(LimitKind::Rounds),
            StopReason::Limit(LimitKind::Tuples),
            StopReason::Limit(LimitKind::Bytes),
            StopReason::Limit(LimitKind::Models),
            StopReason::Limit(LimitKind::Answers),
            StopReason::Cancelled,
        ] {
            assert_eq!(decode_stop(encode_stop(reason)), Some(reason));
        }
        assert_eq!(decode_stop(0), None);
    }
}
