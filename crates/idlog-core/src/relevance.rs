//! Goal-directed relevance: binding-pattern adornment analysis and the
//! certified magic-sets rewrite.
//!
//! A *point query* asks for a small slice of the perfect model — e.g.
//! `query(Y) :- ancestor(ann, Y).` over a huge `parent` EDB — yet bottom-up
//! evaluation computes the whole model because nothing tells the engine
//! which facts are relevant. The classic remedy is static: *adorn* every
//! reachable predicate with a bound/free binding pattern propagated by a
//! sideways-information-passing strategy (SIPS), then rewrite the program
//! with *magic* predicates so that bottom-up evaluation only derives facts
//! relevant to the query constants.
//!
//! This module implements the analysis and the rewrite for the
//! deterministic **left-to-right SIPS**: walking a clause body in textual
//! order, a variable is bound once the bound head positions, the constants,
//! or an earlier positive literal have produced it.
//!
//! The analysis either *certifies* the query (every reachable adorned goal
//! is evaluable) or *refuses* with a span-addressable witness walk:
//!
//! * **floundering** — a negated literal or a builtin is reached with
//!   required positions unbound under the left-to-right SIPS
//!   ([`RefusalReason::Floundering`], surfaced as lint `W030`);
//! * **choice blocked** — the reachable region contains an ID-literal (or
//!   `choice`/`!`): the magic guards would prune the base relation under a
//!   group-wise tid assignment, duplicating or splitting a choice point
//!   ([`RefusalReason::ChoiceSite`], surfaced as lint `W031`, mirroring the
//!   [`crate::taint`] witnesses).
//!
//! On a certificate, [`magic_program`] is a pure `Program → Program`
//! rewrite: adorned predicates with bound positions are renamed (`p__bf`),
//! their clauses guarded by `magic_p__bf(bound args)`, and magic rules are
//! derived from rule-body prefixes — with the query's own constants
//! degenerating into magic *seed facts*. Predicates only ever needed in
//! full (the root, negation targets, all-free occurrences) keep their
//! original name and stay unguarded, so the output predicate of the
//! transformed program is byte-identical to the direct evaluation.

use idlog_common::{FxHashMap, FxHashSet, Interner, SymbolId, Value};
use idlog_parser::{Atom, Clause, Literal, Program, Term};
use idlog_storage::Database;

use crate::eval::EvalOutput;
use crate::program::ValidatedProgram;
use crate::safety::{allowed_modes, builtin_mode_ok, mode_string};

/// Name prefix of the guard predicates introduced by [`magic_program`].
pub const MAGIC_PREFIX: &str = "magic_";

/// A predicate together with one reachable binding pattern (`true` =
/// bound). The all-free pattern is tracked separately by the analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdornedPred {
    /// The predicate.
    pub pred: SymbolId,
    /// Boundness per argument position under the left-to-right SIPS.
    pub pattern: Vec<bool>,
}

impl AdornedPred {
    /// Render as the classic `p^bf` notation.
    pub fn display(&self, interner: &Interner) -> String {
        format!(
            "{}^{}",
            interner.resolve(self.pred),
            pattern_string(&self.pattern)
        )
    }
}

/// Render a binding pattern as `b`/`f` characters (`bf` = first bound).
pub fn pattern_string(pattern: &[bool]) -> String {
    pattern.iter().map(|&b| if b { 'b' } else { 'f' }).collect()
}

/// One step of a refusal witness walk, from the query root down to the
/// offending literal. Mirrors the shape of [`crate::taint::TaintStep`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelevanceStep {
    /// The literal at `(clause, literal)` passes bindings into `to` with
    /// the given pattern — one sideways hop of the SIPS.
    Goal {
        /// Clause index in the analyzed program.
        clause: usize,
        /// Body literal index within that clause.
        literal: usize,
        /// The predicate the walk enters.
        to: SymbolId,
        /// The binding pattern it is entered with.
        pattern: Vec<bool>,
    },
    /// The literal at `(clause, literal)` flounders: boundness is required
    /// but not available under the left-to-right SIPS.
    Flounder {
        /// Clause index in the analyzed program.
        clause: usize,
        /// Body literal index within that clause.
        literal: usize,
        /// Why the literal cannot run (unbound negation, builtin mode).
        message: String,
    },
    /// The literal at `(clause, literal)` is a choice site (ID-literal,
    /// `choice`, or `!`) that magic guards must not split.
    Choice {
        /// Clause index in the analyzed program.
        clause: usize,
        /// Body literal index within that clause.
        literal: usize,
    },
}

/// Why relevance certification was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefusalReason {
    /// A goal floundered under the left-to-right SIPS (lint `W030`).
    Floundering,
    /// The reachable region contains a choice site (lint `W031`).
    ChoiceSite,
}

/// A refusal with its witness walk (never empty: the final step is the
/// offending [`RelevanceStep::Flounder`] or [`RelevanceStep::Choice`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelevanceRefusal {
    /// Why certification was refused.
    pub reason: RefusalReason,
    /// Goal hops from the root, ending at the offending literal.
    pub walk: Vec<RelevanceStep>,
}

impl RelevanceRefusal {
    /// The `(clause, literal)` site of the offending (final) step.
    pub fn site(&self) -> (usize, usize) {
        match self.walk.last() {
            Some(
                RelevanceStep::Flounder {
                    clause, literal, ..
                }
                | RelevanceStep::Choice { clause, literal }
                | RelevanceStep::Goal {
                    clause, literal, ..
                },
            ) => (*clause, *literal),
            None => (0, 0),
        }
    }

    /// One-line human rendering of the walk, for error messages.
    pub fn render(&self, interner: &Interner) -> String {
        let mut out = String::new();
        for step in &self.walk {
            match step {
                RelevanceStep::Goal {
                    to,
                    pattern,
                    clause,
                    literal,
                } => {
                    out.push_str(&format!(
                        " -> {}^{} (clause {}, literal {})",
                        interner.resolve(*to),
                        pattern_string(pattern),
                        clause,
                        literal
                    ));
                }
                RelevanceStep::Flounder {
                    clause,
                    literal,
                    message,
                } => {
                    out.push_str(&format!(
                        " -> flounders at clause {clause}, literal {literal}: {message}"
                    ));
                }
                RelevanceStep::Choice { clause, literal } => {
                    out.push_str(&format!(
                        " -> choice site at clause {clause}, literal {literal} \
                         (magic guards must not split a choice point)"
                    ));
                }
            }
        }
        format!("query root{out}")
    }
}

/// The result of the binding-pattern dataflow for one query root.
#[derive(Debug, Clone, Default)]
pub struct RelevanceAnalysis {
    /// Reachable adorned predicates with at least one bound position, in
    /// deterministic discovery (BFS) order.
    adorned: Vec<AdornedPred>,
    /// Predicates also (or only) needed in full — the root, negation
    /// targets, and all-free occurrences — in discovery order.
    all_free: Vec<SymbolId>,
    /// IDB predicates reachable from the root (denominator of
    /// [`RelevanceAnalysis::pruned_fraction`]).
    related_idb: usize,
    /// The refusal, when the analysis could not certify.
    refusal: Option<RelevanceRefusal>,
}

impl RelevanceAnalysis {
    /// True when every reachable adorned goal is evaluable and choice-free:
    /// [`magic_program`] is semantics-preserving.
    pub fn certified(&self) -> bool {
        self.refusal.is_none()
    }

    /// True when this is a certified *point query*: at least one reachable
    /// predicate is entered with a bound position, so magic guards prune.
    pub fn is_point_query(&self) -> bool {
        self.certified() && !self.adorned.is_empty()
    }

    /// The refusal witness, when not certified.
    pub fn refusal(&self) -> Option<&RelevanceRefusal> {
        self.refusal.as_ref()
    }

    /// Reachable adorned predicates with at least one bound position.
    pub fn adorned(&self) -> &[AdornedPred] {
        &self.adorned
    }

    /// Predicates needed in full (unguarded in the rewrite).
    pub fn all_free(&self) -> &[SymbolId] {
        &self.all_free
    }

    /// `(guarded, reachable)` IDB predicate counts: `guarded` predicates
    /// are only ever entered with bound positions, so *every* clause of
    /// theirs gets a magic guard — the statically pruned fraction of the
    /// dependency graph.
    pub fn pruned_fraction(&self) -> (usize, usize) {
        let free: FxHashSet<SymbolId> = self.all_free.iter().copied().collect();
        let mut guarded: FxHashSet<SymbolId> = FxHashSet::default();
        for a in &self.adorned {
            if !free.contains(&a.pred) {
                guarded.insert(a.pred);
            }
        }
        (guarded.len(), self.related_idb)
    }

    /// A stable cache-key component describing this analysis, used by the
    /// server to key prepared magic plans.
    pub fn fingerprint(&self) -> String {
        match &self.refusal {
            None => {
                let (guarded, total) = self.pruned_fraction();
                format!(
                    "relevance=cert;point={};guarded={guarded}/{total}",
                    self.is_point_query()
                )
            }
            Some(r) => match r.reason {
                RefusalReason::Floundering => "relevance=flounder".to_string(),
                RefusalReason::ChoiceSite => "relevance=choice".to_string(),
            },
        }
    }
}

/// One positive IDB occurrence discovered while walking a clause, with the
/// binding pattern the left-to-right SIPS passes into it.
struct Occurrence {
    literal: usize,
    base: SymbolId,
    pattern: Vec<bool>,
}

/// Everything the walk of one clause under one head pattern yields.
struct ClauseWalk {
    occurrences: Vec<Occurrence>,
    refusal: Option<(usize, RelevanceStep)>,
    plain: Vec<(usize, SymbolId)>,
}

/// Walk `clause`'s body textually left to right with the head positions of
/// `pattern` bound, recording every positive IDB occurrence's adornment,
/// every IDB predicate needed in full, and the first floundering or choice
/// site.
fn walk_clause(clause: &Clause, pattern: &[bool], idb: &FxHashSet<SymbolId>) -> ClauseWalk {
    let mut bound: FxHashSet<&str> = FxHashSet::default();
    let head = &clause.head[0].atom;
    for (pos, term) in head.terms.iter().enumerate() {
        if pattern.get(pos).copied().unwrap_or(false) {
            if let Term::Var(v) = term {
                bound.insert(v.as_str());
            }
        }
    }
    let mut walk = ClauseWalk {
        occurrences: Vec::new(),
        refusal: None,
        plain: Vec::new(),
    };
    let refuse = |walk: &mut ClauseWalk, li: usize, step: RelevanceStep| {
        if walk.refusal.is_none() {
            walk.refusal = Some((li, step));
        }
    };
    for (li, lit) in clause.body.iter().enumerate() {
        match lit {
            Literal::Pos(a) => {
                if a.pred.is_id_version() {
                    refuse(
                        &mut walk,
                        li,
                        RelevanceStep::Choice {
                            clause: 0,
                            literal: li,
                        },
                    );
                } else {
                    let base = a.pred.base();
                    if idb.contains(&base) {
                        let pat: Vec<bool> = a
                            .terms
                            .iter()
                            .map(|t| {
                                t.is_ground()
                                    || matches!(t, Term::Var(v) if bound.contains(v.as_str()))
                            })
                            .collect();
                        if pat.iter().any(|&b| b) {
                            walk.occurrences.push(Occurrence {
                                literal: li,
                                base,
                                pattern: pat,
                            });
                        } else {
                            walk.plain.push((li, base));
                        }
                    }
                }
                for t in &a.terms {
                    if let Term::Var(v) = t {
                        bound.insert(v.as_str());
                    }
                }
            }
            Literal::Neg(a) => {
                if a.pred.is_id_version() {
                    refuse(
                        &mut walk,
                        li,
                        RelevanceStep::Choice {
                            clause: 0,
                            literal: li,
                        },
                    );
                    continue;
                }
                let unbound: Vec<&str> = a
                    .terms
                    .iter()
                    .filter_map(Term::as_var)
                    .filter(|v| !bound.contains(v))
                    .collect();
                if !unbound.is_empty() {
                    refuse(
                        &mut walk,
                        li,
                        RelevanceStep::Flounder {
                            clause: 0,
                            literal: li,
                            message: format!(
                                "negated goal reached with {} unbound \
                                 under the left-to-right SIPS",
                                unbound
                                    .iter()
                                    .map(|v| format!("`{v}`"))
                                    .collect::<Vec<_>>()
                                    .join(", ")
                            ),
                        },
                    );
                }
                let base = a.pred.base();
                if idb.contains(&base) {
                    walk.plain.push((li, base));
                }
            }
            Literal::Builtin { op, args } => {
                let pat: Vec<bool> = args
                    .iter()
                    .map(|t| {
                        t.is_ground() || matches!(t, Term::Var(v) if bound.contains(v.as_str()))
                    })
                    .collect();
                if !builtin_mode_ok(*op, &pat) {
                    refuse(
                        &mut walk,
                        li,
                        RelevanceStep::Flounder {
                            clause: 0,
                            literal: li,
                            message: format!(
                                "`{}` reached with binding pattern {} but its input \
                                 modes allow only {}",
                                op.name(),
                                mode_string(&pat),
                                allowed_modes(*op)
                            ),
                        },
                    );
                }
                for t in args {
                    if let Term::Var(v) = t {
                        bound.insert(v.as_str());
                    }
                }
            }
            Literal::Choice { .. } | Literal::Cut => {
                refuse(
                    &mut walk,
                    li,
                    RelevanceStep::Choice {
                        clause: 0,
                        literal: li,
                    },
                );
            }
        }
    }
    walk
}

type TaskKey = (SymbolId, Vec<bool>);

/// Compute the reachable adorned predicates of `program` for a query on
/// `root` with all output positions free (boundness originates from the
/// constants in clause bodies), under the deterministic left-to-right SIPS.
///
/// The walk is a BFS over `(predicate, pattern)` tasks, so both the
/// discovery order and the refusal witness are deterministic.
pub fn analyze_relevance(program: &Program, root: SymbolId) -> RelevanceAnalysis {
    let idb: FxHashSet<SymbolId> = program.head_predicates();
    let mut clauses_of: FxHashMap<SymbolId, Vec<usize>> = FxHashMap::default();
    for (ci, clause) in program.clauses.iter().enumerate() {
        clauses_of
            .entry(clause.head[0].atom.pred.base())
            .or_default()
            .push(ci);
    }

    let root_arity = clauses_of
        .get(&root)
        .and_then(|cs| cs.first())
        .map(|&ci| program.clauses[ci].head[0].atom.terms.len())
        .unwrap_or(0);

    let mut analysis = RelevanceAnalysis::default();
    let mut seen: FxHashSet<TaskKey> = FxHashSet::default();
    let mut parent: FxHashMap<TaskKey, (Option<TaskKey>, usize, usize)> = FxHashMap::default();
    let mut queue: std::collections::VecDeque<TaskKey> = std::collections::VecDeque::new();
    let mut reachable_idb: FxHashSet<SymbolId> = FxHashSet::default();

    let root_key: TaskKey = (root, vec![false; root_arity]);
    seen.insert(root_key.clone());
    parent.insert(root_key.clone(), (None, 0, 0));
    queue.push_back(root_key);
    reachable_idb.insert(root);
    analysis.all_free.push(root);

    while let Some(task) = queue.pop_front() {
        let (pred, pattern) = &task;
        let Some(clauses) = clauses_of.get(pred) else {
            continue;
        };
        for &ci in clauses {
            let clause = &program.clauses[ci];
            let walk = walk_clause(clause, pattern, &idb);
            let enqueue =
                |key: TaskKey,
                 li: usize,
                 seen: &mut FxHashSet<TaskKey>,
                 parent: &mut FxHashMap<TaskKey, (Option<TaskKey>, usize, usize)>,
                 queue: &mut std::collections::VecDeque<TaskKey>| {
                    if seen.insert(key.clone()) {
                        parent.insert(key.clone(), (Some(task.clone()), ci, li));
                        queue.push_back(key);
                    }
                };
            for occ in &walk.occurrences {
                reachable_idb.insert(occ.base);
                if analysis
                    .adorned
                    .iter()
                    .all(|a| a.pred != occ.base || a.pattern != occ.pattern)
                {
                    analysis.adorned.push(AdornedPred {
                        pred: occ.base,
                        pattern: occ.pattern.clone(),
                    });
                }
                enqueue(
                    (occ.base, occ.pattern.clone()),
                    occ.literal,
                    &mut seen,
                    &mut parent,
                    &mut queue,
                );
            }
            for &(li, base) in &walk.plain {
                reachable_idb.insert(base);
                let arity = program.clauses[clauses_of[&base][0]].head[0]
                    .atom
                    .terms
                    .len();
                if !analysis.all_free.contains(&base) {
                    analysis.all_free.push(base);
                }
                enqueue(
                    (base, vec![false; arity]),
                    li,
                    &mut seen,
                    &mut parent,
                    &mut queue,
                );
            }
            if let Some((_, step)) = walk.refusal {
                // Rebuild the Goal chain from the root to this task, then
                // pin the offending step to its real clause index.
                let mut hops: Vec<RelevanceStep> = Vec::new();
                let mut at = Some(task.clone());
                while let Some(key) = at {
                    let (prev, pci, pli) = parent[&key].clone();
                    if prev.is_some() {
                        hops.push(RelevanceStep::Goal {
                            clause: pci,
                            literal: pli,
                            to: key.0,
                            pattern: key.1.clone(),
                        });
                    }
                    at = prev;
                }
                hops.reverse();
                let step = match step {
                    RelevanceStep::Flounder {
                        literal, message, ..
                    } => RelevanceStep::Flounder {
                        clause: ci,
                        literal,
                        message,
                    },
                    RelevanceStep::Choice { literal, .. } => RelevanceStep::Choice {
                        clause: ci,
                        literal,
                    },
                    goal => goal,
                };
                let reason = match &step {
                    RelevanceStep::Choice { .. } => RefusalReason::ChoiceSite,
                    _ => RefusalReason::Floundering,
                };
                hops.push(step);
                analysis.refusal = Some(RelevanceRefusal { reason, walk: hops });
                analysis.related_idb = reachable_idb.len();
                return analysis;
            }
        }
    }
    analysis.related_idb = reachable_idb.len();
    analysis
}

/// The renamed predicate for an adorned occurrence, e.g. `ancestor__bf`.
fn adorned_symbol(interner: &Interner, pred: SymbolId, pattern: &[bool]) -> SymbolId {
    interner.intern(&format!(
        "{}__{}",
        interner.resolve(pred),
        pattern_string(pattern)
    ))
}

/// The magic guard predicate for an adorned predicate, e.g.
/// `magic_ancestor__bf` (arity = number of bound positions).
fn magic_symbol(interner: &Interner, pred: SymbolId, pattern: &[bool]) -> SymbolId {
    interner.intern(&format!(
        "{MAGIC_PREFIX}{}__{}",
        interner.resolve(pred),
        pattern_string(pattern)
    ))
}

/// Apply the magic-sets transformation for a query on `root`, guided by a
/// certified `analysis` (returns `None` on a refusal — callers surface the
/// witness instead of rewriting).
///
/// The rewrite is pure `Program → Program`: for every reachable
/// `(predicate, pattern)` pair with bound positions, each clause of the
/// predicate is copied with its head renamed to `p__bf…`, a guard
/// `magic_p__bf…(bound head args)` prepended, and bound positive IDB body
/// occurrences renamed to their adorned versions; a *magic rule* per bound
/// occurrence derives the guard tuples from the prefix of the body before
/// it (supplementary predicates are not needed for the left-to-right SIPS —
/// the prefix literals serve directly). Predicates reached all-free (the
/// root, negation targets) keep their original name and clauses unguarded,
/// and a bound occurrence in a prefix with no guard and no preceding
/// literals degenerates into a magic **seed fact** over the query
/// constants. EDB literals are never renamed or guarded.
pub fn magic_program(
    program: &Program,
    root: SymbolId,
    interner: &Interner,
    analysis: &RelevanceAnalysis,
) -> Option<Program> {
    if !analysis.certified() {
        return None;
    }
    let idb: FxHashSet<SymbolId> = program.head_predicates();
    let mut clauses_of: FxHashMap<SymbolId, Vec<usize>> = FxHashMap::default();
    for (ci, clause) in program.clauses.iter().enumerate() {
        clauses_of
            .entry(clause.head[0].atom.pred.base())
            .or_default()
            .push(ci);
    }
    let root_arity = clauses_of
        .get(&root)
        .and_then(|cs| cs.first())
        .map(|&ci| program.clauses[ci].head[0].atom.terms.len())
        .unwrap_or(0);

    // Tasks in deterministic order: the all-free predicates first (root
    // leading), then every bound adornment in discovery order.
    let mut tasks: Vec<TaskKey> = Vec::new();
    let mut task_set: FxHashSet<TaskKey> = FxHashSet::default();
    let push = |key: TaskKey, tasks: &mut Vec<TaskKey>, set: &mut FxHashSet<TaskKey>| {
        if set.insert(key.clone()) {
            tasks.push(key);
        }
    };
    push((root, vec![false; root_arity]), &mut tasks, &mut task_set);
    for &p in &analysis.all_free {
        if let Some(cs) = clauses_of.get(&p) {
            let arity = program.clauses[cs[0]].head[0].atom.terms.len();
            push((p, vec![false; arity]), &mut tasks, &mut task_set);
        }
    }
    for a in &analysis.adorned {
        push((a.pred, a.pattern.clone()), &mut tasks, &mut task_set);
    }

    let bound_terms = |atom: &Atom, pattern: &[bool]| -> Vec<Term> {
        atom.terms
            .iter()
            .zip(pattern)
            .filter(|(_, &b)| b)
            .map(|(t, _)| t.clone())
            .collect()
    };

    let mut rules: Vec<Clause> = Vec::new();
    let mut seeds: Vec<Clause> = Vec::new();
    for (pred, pattern) in &tasks {
        let free = pattern.iter().all(|&b| !b);
        let Some(clauses) = clauses_of.get(pred) else {
            continue;
        };
        for &ci in clauses {
            let clause = &program.clauses[ci];
            let walk = walk_clause(clause, pattern, &idb);
            debug_assert!(walk.refusal.is_none(), "rewrite requires a certificate");
            let adorned_at: FxHashMap<usize, &Occurrence> =
                walk.occurrences.iter().map(|o| (o.literal, o)).collect();
            // Transformed body: bound positive IDB occurrences renamed.
            let body: Vec<Literal> = clause
                .body
                .iter()
                .enumerate()
                .map(|(li, lit)| match (lit, adorned_at.get(&li)) {
                    (Literal::Pos(a), Some(occ)) => Literal::Pos(Atom::ordinary(
                        adorned_symbol(interner, occ.base, &occ.pattern),
                        a.terms.clone(),
                    )),
                    _ => lit.clone(),
                })
                .collect();
            let head_atom = &clause.head[0].atom;
            let guard = (!free).then(|| {
                Literal::Pos(Atom::ordinary(
                    magic_symbol(interner, *pred, pattern),
                    bound_terms(head_atom, pattern),
                ))
            });
            // Magic rules: one per bound occurrence, from the body prefix.
            for occ in &walk.occurrences {
                let src = clause.body[occ.literal]
                    .atom()
                    .expect("occurrence indexes a positive atom");
                let magic_head = Atom::ordinary(
                    magic_symbol(interner, occ.base, &occ.pattern),
                    bound_terms(src, &occ.pattern),
                );
                let magic_body: Vec<Literal> = guard
                    .iter()
                    .cloned()
                    .chain(body[..occ.literal].iter().cloned())
                    .collect();
                let rule = Clause::new(magic_head, magic_body);
                if rule.is_fact() {
                    seeds.push(rule);
                } else {
                    rules.push(rule);
                }
            }
            // The rewritten clause itself.
            let new_head = if free {
                Atom::ordinary(head_atom.pred.base(), head_atom.terms.clone())
            } else {
                Atom::ordinary(
                    adorned_symbol(interner, *pred, pattern),
                    head_atom.terms.clone(),
                )
            };
            let new_body: Vec<Literal> = guard.into_iter().chain(body).collect();
            rules.push(Clause::new(new_head, new_body));
        }
    }
    let clauses: Vec<Clause> = seeds.into_iter().chain(rules).collect();
    Some(Program { clauses })
}

/// The *tuples pruned* metric of one magic evaluation: for every EDB atom
/// in a guarded clause of the transformed program, the number of stored
/// tuples the magic guard's bindings (and the atom's constants) rule out of
/// the join. Computed post-hoc from the final relations, so it is
/// byte-identical across thread counts, and `0` when nothing was prunable.
pub fn magic_tuples_pruned(magic: &ValidatedProgram, db: &Database, out: &EvalOutput) -> u64 {
    let interner = magic.interner();
    let mut projections: FxHashMap<(SymbolId, usize), FxHashSet<Value>> = FxHashMap::default();
    let project = |pred: SymbolId, col: usize, out: &EvalOutput| -> FxHashSet<Value> {
        let name = interner.resolve(pred);
        let mut set = FxHashSet::default();
        if let Some(rel) = out.relation(&name) {
            for t in rel.iter() {
                if let Some(&v) = t.values().get(col) {
                    set.insert(v);
                }
            }
        }
        set
    };
    #[derive(Hash, PartialEq, Eq, Clone)]
    enum Constraint {
        InGuard(SymbolId, usize),
        Equal(Value),
    }
    let mut counted: FxHashSet<(SymbolId, Vec<(usize, Constraint)>)> = FxHashSet::default();
    let mut pruned: u64 = 0;
    for clause in &magic.ast().clauses {
        // A guarded clause starts with its magic guard.
        let Some(Literal::Pos(guard)) = clause.body.first() else {
            continue;
        };
        let guard_pred = guard.pred.base();
        if !interner.resolve(guard_pred).starts_with(MAGIC_PREFIX) {
            continue;
        }
        let mut guard_cols: FxHashMap<&str, usize> = FxHashMap::default();
        for (col, term) in guard.terms.iter().enumerate() {
            if let Term::Var(v) = term {
                guard_cols.entry(v.as_str()).or_insert(col);
            }
        }
        for lit in &clause.body[1..] {
            let Literal::Pos(atom) = lit else { continue };
            let base = atom.pred.base();
            if !magic.inputs().contains(&base) {
                continue;
            }
            let mut constraints: Vec<(usize, Constraint)> = Vec::new();
            let mut restricted = false;
            for (col, term) in atom.terms.iter().enumerate() {
                match term {
                    Term::Var(v) => {
                        if let Some(&gcol) = guard_cols.get(v.as_str()) {
                            constraints.push((col, Constraint::InGuard(guard_pred, gcol)));
                            restricted = true;
                        }
                    }
                    Term::Sym(s) => constraints.push((col, Constraint::Equal(Value::Sym(*s)))),
                    Term::Int(i) => constraints.push((col, Constraint::Equal(Value::Int(*i)))),
                }
            }
            if !restricted || !counted.insert((base, constraints.clone())) {
                continue;
            }
            let Some(rel) = db.relation_by_id(base) else {
                continue;
            };
            for (col, c) in &constraints {
                if let Constraint::InGuard(gp, gc) = c {
                    let _ = (col, gp, gc);
                    projections
                        .entry((*gp, *gc))
                        .or_insert_with(|| project(*gp, *gc, out));
                }
            }
            let relevant = rel
                .iter()
                .filter(|t| {
                    constraints.iter().all(|(col, c)| {
                        let Some(&v) = t.values().get(*col) else {
                            return false;
                        };
                        match c {
                            Constraint::Equal(want) => v == *want,
                            Constraint::InGuard(gp, gc) => projections[&(*gp, *gc)].contains(&v),
                        }
                    })
                })
                .count();
            pruned += (rel.len() - relevant) as u64;
        }
    }
    pruned
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use idlog_parser::parse_program;

    const ANCESTOR: &str = "
        ancestor(X, Y) :- parent(X, Y).
        ancestor(X, Z) :- ancestor(X, Y), parent(Y, Z).
        query(Y) :- ancestor(ann, Y).
    ";

    fn analyzed(src: &str, root: &str) -> (RelevanceAnalysis, Program, Arc<Interner>) {
        let interner = Arc::new(Interner::new());
        let program = parse_program(src, &interner).expect("test program parses");
        let a = analyze_relevance(&program, interner.intern(root));
        (a, program, interner)
    }

    #[test]
    fn ancestor_point_query_is_certified() {
        let (a, _, interner) = analyzed(ANCESTOR, "query");
        assert!(a.certified());
        assert!(a.is_point_query());
        let shown: Vec<String> = a.adorned().iter().map(|p| p.display(&interner)).collect();
        assert_eq!(shown, vec!["ancestor^bf"]);
        assert_eq!(a.pruned_fraction(), (1, 2));
        assert!(
            a.fingerprint().contains("point=true"),
            "{}",
            a.fingerprint()
        );
    }

    #[test]
    fn all_free_query_is_certified_but_not_point() {
        let (a, _, _) = analyzed("tc(X, Y) :- e(X, Y). tc(X, Z) :- tc(X, Y), e(Y, Z).", "tc");
        assert!(a.certified());
        assert!(!a.is_point_query());
        assert!(a.adorned().is_empty());
        assert_eq!(a.pruned_fraction(), (0, 1));
    }

    #[test]
    fn unbound_negation_flounders_with_witness_walk() {
        let src = "
            reach(X, Y) :- edge(X, Y).
            reach(X, Z) :- reach(X, Y), edge(Y, Z).
            unreached(X, Y) :- not reach(X, Y), node(Y).
            q(Y) :- unreached(a, Y).
        ";
        let (a, _, interner) = analyzed(src, "q");
        assert!(!a.certified());
        let r = a.refusal().expect("refused");
        assert_eq!(r.reason, RefusalReason::Floundering);
        // The walk hops into unreached^bf, then flounders at the negation.
        assert!(matches!(
            r.walk.first(),
            Some(RelevanceStep::Goal { to, pattern, .. })
                if *to == interner.intern("unreached") && pattern == &vec![true, false]
        ));
        match r.walk.last() {
            Some(RelevanceStep::Flounder {
                clause,
                literal,
                message,
            }) => {
                assert_eq!((*clause, *literal), (2, 0));
                assert!(message.contains("`Y`"), "{message}");
            }
            other => panic!("unexpected final step {other:?}"),
        }
        assert!(r.render(&interner).contains("unreached^bf"));
    }

    #[test]
    fn builtin_mode_flounders() {
        let src = "
            scaled(X, Y) :- times(X, K, Y), factor(K).
            q(Y) :- scaled(Y, 42).
        ";
        // `times` needs two bound arguments, but under the left-to-right
        // SIPS it is reached as ffb (only the head-bound product).
        let (a, _, _) = analyzed(src, "q");
        assert!(!a.certified());
        let r = a.refusal().unwrap();
        assert_eq!(r.reason, RefusalReason::Floundering);
        match r.walk.last() {
            Some(RelevanceStep::Flounder { message, .. }) => {
                assert!(message.contains("times"), "{message}");
                assert!(message.contains("mode"), "{message}");
            }
            other => panic!("unexpected final step {other:?}"),
        }
    }

    #[test]
    fn id_literal_blocks_with_choice_witness() {
        let src = "
            picked(X, Y) :- pref[2](X, Y, 0).
            pref(X, Y) :- likes(X, Y).
            q(Y) :- picked(a, Y).
        ";
        let (a, _, _) = analyzed(src, "q");
        assert!(!a.certified());
        let r = a.refusal().unwrap();
        assert_eq!(r.reason, RefusalReason::ChoiceSite);
        assert!(matches!(
            r.walk.last(),
            Some(RelevanceStep::Choice {
                clause: 0,
                literal: 0
            })
        ));
    }

    #[test]
    fn magic_rewrite_has_seed_guard_and_magic_rule() {
        let (a, program, interner) = analyzed(ANCESTOR, "query");
        let magic =
            magic_program(&program, interner.intern("query"), &interner, &a).expect("certified");
        let rendered = format!("{}", magic.display(&interner));
        // Seed fact from the query constant.
        assert!(rendered.contains("magic_ancestor__bf(ann)."), "{rendered}");
        // Guarded adorned clauses.
        assert!(
            rendered.contains("ancestor__bf(X, Y) :- magic_ancestor__bf(X), parent(X, Y)."),
            "{rendered}"
        );
        // The recursive magic rule chases bound arguments forward.
        assert!(
            rendered.contains("magic_ancestor__bf(X) :- magic_ancestor__bf(X)."),
            "{rendered}"
        );
        // The root keeps its name and reads the adorned predicate.
        assert!(
            rendered.contains("query(Y) :- ancestor__bf(ann, Y)."),
            "{rendered}"
        );
        // EDB literals are untouched.
        assert!(!rendered.contains("magic_parent"), "{rendered}");
    }

    #[test]
    fn magic_rewrite_refused_without_certificate() {
        let src = "picked(X) :- pool[](X, 0). q(X) :- picked(X).";
        let (a, program, interner) = analyzed(src, "q");
        assert!(magic_program(&program, interner.intern("q"), &interner, &a).is_none());
    }

    #[test]
    fn magic_program_validates_and_agrees_with_direct() {
        let interner = Arc::new(Interner::new());
        let program = parse_program(ANCESTOR, &interner).unwrap();
        let a = analyze_relevance(&program, interner.intern("query"));
        let magic = magic_program(&program, interner.intern("query"), &interner, &a).unwrap();
        let direct = ValidatedProgram::new(program, Arc::clone(&interner)).unwrap();
        let magicked = ValidatedProgram::new(magic, Arc::clone(&interner)).unwrap();

        let mut db = idlog_storage::Database::with_interner(Arc::clone(&interner));
        for (x, y) in [
            ("ann", "bob"),
            ("bob", "cal"),
            ("cal", "dee"),
            ("eve", "fay"),
            ("fay", "gus"),
        ] {
            db.insert_syms("parent", &[x, y]).unwrap();
        }
        let opts = crate::EvalOptions::serial();
        let d =
            crate::eval::evaluate_with_options(&direct, &db, &mut crate::CanonicalOracle, &opts)
                .unwrap();
        let m =
            crate::eval::evaluate_with_options(&magicked, &db, &mut crate::CanonicalOracle, &opts)
                .unwrap();
        let dr = d.relation("query").unwrap();
        let mr = m.relation("query").unwrap();
        assert!(dr.set_eq(mr), "magic answers differ from direct");
        assert_eq!(dr.len(), 3);
        // Profit: the magic run derives strictly fewer tuples (it never
        // touches the eve/fay branch).
        assert!(
            m.stats().inserted < d.stats().inserted,
            "magic {} vs direct {}",
            m.stats().inserted,
            d.stats().inserted
        );
        // And the pruned metric sees the irrelevant parent tuples.
        let pruned = magic_tuples_pruned(&magicked, &db, &m);
        assert!(pruned > 0, "expected pruned EDB tuples");
    }

    #[test]
    fn negation_target_is_kept_plain_and_answers_agree() {
        let src = "
            good(X) :- cand(X), not bad(X).
            bad(X) :- flag(X).
            q(X) :- good(X).
        ";
        // `good` is reached all-free, `bad` is a negation target: both stay
        // plain and the rewrite degenerates to the original program shape.
        let (a, program, interner) = analyzed(src, "q");
        assert!(a.certified());
        assert!(!a.is_point_query());
        let magic = magic_program(&program, interner.intern("q"), &interner, &a).unwrap();
        let rendered = format!("{}", magic.display(&interner));
        assert!(!rendered.contains("magic_"), "{rendered}");
    }
}
