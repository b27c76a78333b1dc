//! The IDLOG engine: stratified deductive evaluation with tuple-identifier
//! non-determinism.
//!
//! This crate implements the language of \[She90b\]/\[She91\]: DATALOG with
//! stratified negation, arithmetic predicates under the paper's safety
//! discipline, and **ID-literals** `p[s](…, Tid)` that read an *ID-relation*
//! of `p` — the relation augmented with tuple identifiers drawn per
//! sub-relation of `p` grouped by the attribute set `s`.
//!
//! The semantics is the paper's perfect-model semantics: given a concrete
//! choice of ID-functions (a [`tid::TidOracle`]), a stratified program has a
//! unique perfect model computed bottom-up stratum by stratum; varying the
//! choice of ID-functions yields the *set* of answers of the
//! non-deterministic query ([`enumerate`]).
//!
//! Pipeline:
//!
//! 1. [`program::ValidatedProgram::new`] — arity/head-shape validation,
//!    sort inference ([`sorts`]), safety ([`safety`]);
//! 2. [`stratify`] — dependency analysis; negation **and** ID-literal edges
//!    must not be cyclic;
//! 3. [`plan`] — each clause becomes an ordered sequence of join steps;
//! 4. [`eval`] — semi-naive evaluation per stratum, materializing
//!    ID-relations of lower strata through a [`tid::TidOracle`];
//! 5. [`query`] — the user-facing API; [`enumerate`] — all answers.

#![warn(missing_docs)]

pub mod builtins;
pub mod config;
pub mod engine;
pub mod enumerate;
pub mod error;
pub mod eval;
pub mod explain;
pub mod facts;
pub mod govern;
pub mod maintain;
pub mod modelcheck;
pub mod plan;
pub mod pred;
pub mod profile;
pub mod program;
pub mod query;
pub mod relevance;
pub mod safety;
pub mod service;
pub mod sorts;
pub mod stats;
pub mod stratify;
pub mod taint;
pub mod termination;
pub mod tid;
pub mod tidbound;

pub use config::{EvalOptions, THREADS_ENV_VAR};
pub use enumerate::{enumerate_governed, enumerate_with_options, AnswerSet, EnumBudget};
pub use error::{CoreError, CoreResult, ErrorCode};
pub use eval::{evaluate_governed, evaluate_with_options, EvalOutput, Strategy};
pub use explain::{explain, explain_analyze};
pub use facts::load_facts;
pub use govern::{CancelToken, EvalError, Governor, LimitKind, Limits, StopReason};
pub use maintain::{FactDelta, MaintainOutcome, Materialized};
pub use modelcheck::{verify_model, ModelViolation};
pub use pred::PredKey;
pub use profile::{Profile, RuleTotals, PROFILE_JSON_SCHEMA};
pub use program::ValidatedProgram;
pub use query::{EvalResult, Query, Session};
pub use relevance::{
    analyze_relevance, magic_program, magic_tuples_pruned, pattern_string, AdornedPred,
    RefusalReason, RelevanceAnalysis, RelevanceRefusal, RelevanceStep, MAGIC_PREFIX,
};
pub use service::{
    negotiate_schema, render_answers, render_tuple, FactValue, Request, Response, RunRequest,
    ServeMode, SERVICE_SCHEMA, SUPPORTED_SCHEMAS,
};
pub use stats::EvalStats;
pub use taint::{analyze_taint, choice_free_occurrence, TaintAnalysis, TaintStep};
pub use termination::{
    analyze_termination, FlowEdge, FlowNode, RecursionKind, SccSummary, TerminationCert,
    UnboundedIdSite,
};
pub use tid::{CanonicalOracle, ExplicitOracle, SeededOracle, TidOracle};

// Re-export the pieces callers need to build inputs and read outputs.
pub use idlog_common::{Interner, Json, RelType, Sort, SymbolId, Tuple, Value};
pub use idlog_parser::{parse_clause, parse_program, Program};
pub use idlog_storage::{Database, Relation};
