//! Regression gate against the committed baseline sweep.
//!
//! `BENCH_6.json` (schema `idlog-bench/6`) is committed at the repository
//! root as the performance record of the previous PR. [`regressions`]
//! compares the current sweep's runs against it: `rounds` and `tuples` are engine counters and must match **exactly**
//! for every `(program, strategy, threads)` the baseline records; `wall_ms`
//! only gates within a deliberately generous tolerance
//! ([`WALL_TOLERANCE_FACTOR`] with a [`WALL_FLOOR_MS`] floor), because CI
//! machines vary while counters do not.
//!
//! The workspace vendors no JSON crate; parsing goes through the shared
//! [`idlog_common::json`] module (re-exported through `idlog_core`), which
//! is enough for the sweep files this suite itself writes.

pub use idlog_core::Json;

use crate::{strategy_name, SuiteReport};

/// A current wall time may exceed the baseline by this factor before the
/// gate fails.
pub const WALL_TOLERANCE_FACTOR: f64 = 10.0;

/// Wall times below this floor (in ms) never fail the gate: sub-millisecond
/// baselines amplified by `WALL_TOLERANCE_FACTOR` would still be noise.
pub const WALL_FLOOR_MS: f64 = 50.0;

/// One run of the committed baseline sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineRun {
    /// Program file name.
    pub program: String,
    /// Strategy name as recorded (`semi-naive` / `naive`).
    pub strategy: String,
    /// Worker threads.
    pub threads: usize,
    /// Fixpoint rounds.
    pub rounds: u64,
    /// Inserted tuples.
    pub tuples: u64,
    /// Wall time in milliseconds.
    pub wall_ms: f64,
    /// Whether the governed round ceiling tripped.
    pub tripped: bool,
}

/// Parse a committed `BENCH_*.json` into its per-run records. Runs without
/// a backend field (schema `idlog-bench/6`, and every sweep written now)
/// are all kept. The committed schema 7–10 files also record runs on the
/// since-deleted columnar backend; only their `"backend": "hash"` runs are
/// kept, so any committed file can serve as the baseline unchanged.
pub fn parse_baseline(src: &str) -> Result<Vec<BaselineRun>, String> {
    let doc = Json::parse(src)?;
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("baseline has no schema tag")?;
    if !schema.starts_with("idlog-bench/") {
        return Err(format!("unexpected baseline schema {schema:?}"));
    }
    let mut out = Vec::new();
    for case in doc
        .get("cases")
        .and_then(Json::as_array)
        .ok_or("baseline has no cases array")?
    {
        if case.get("skipped").is_some() {
            continue;
        }
        let program = case
            .get("program")
            .and_then(Json::as_str)
            .ok_or("case has no program")?;
        for run in case
            .get("runs")
            .and_then(Json::as_array)
            .ok_or_else(|| format!("{program}: no runs"))?
        {
            if let Some(backend) = run.get("backend").and_then(Json::as_str) {
                if backend != "hash" {
                    continue;
                }
            }
            let field = |k: &str| {
                run.get(k)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{program}: run has no {k}"))
            };
            out.push(BaselineRun {
                program: program.to_string(),
                strategy: run
                    .get("strategy")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("{program}: run has no strategy"))?
                    .to_string(),
                threads: field("threads")? as usize,
                rounds: field("rounds")? as u64,
                tuples: field("tuples")? as u64,
                wall_ms: field("wall_ms")?,
                tripped: run.get("tripped") == Some(&Json::Bool(true)),
            });
        }
    }
    Ok(out)
}

/// Compare the current sweep's runs against a committed baseline. Returns one message per regression; empty means the gate
/// passes. Programs the baseline does not record (new corpus entries) are
/// not gated; programs it records but the sweep lost are.
pub fn regressions(report: &SuiteReport, baseline_src: &str) -> Result<Vec<String>, String> {
    let baseline = parse_baseline(baseline_src)?;
    let mut failures = Vec::new();
    for base in &baseline {
        let Some(case) = report.cases.iter().find(|c| c.case.program == base.program) else {
            failures.push(format!("{}: dropped from the corpus", base.program));
            continue;
        };
        let Some(run) = case
            .runs
            .iter()
            .find(|r| strategy_name(r.strategy) == base.strategy && r.threads == base.threads)
        else {
            failures.push(format!(
                "{}: no run for ({}, {} threads)",
                base.program, base.strategy, base.threads
            ));
            continue;
        };
        if run.rounds != base.rounds || run.tuples != base.tuples || run.tripped != base.tripped {
            failures.push(format!(
                "{} ({}, {} threads): counters moved: rounds {} -> {}, tuples {} -> {}, \
                 tripped {} -> {}",
                base.program,
                base.strategy,
                base.threads,
                base.rounds,
                run.rounds,
                base.tuples,
                run.tuples,
                base.tripped,
                run.tripped
            ));
        }
        let ceiling = (base.wall_ms * WALL_TOLERANCE_FACTOR).max(WALL_FLOOR_MS);
        if run.wall_ms > ceiling {
            failures.push(format!(
                "{} ({}, {} threads): wall time {:.3}ms exceeds {:.3}ms \
                 (baseline {:.3}ms x {WALL_TOLERANCE_FACTOR}, floor {WALL_FLOOR_MS}ms)",
                base.program, base.strategy, base.threads, run.wall_ms, ceiling, base.wall_ms
            ));
        }
    }
    Ok(failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_baseline_parses() {
        let src = std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_6.json"),
        )
        .unwrap();
        let runs = parse_baseline(&src).unwrap();
        // 6 non-skipped programs x 2 strategies x 3 thread counts.
        assert_eq!(runs.len(), 36, "{runs:?}");
        assert!(runs.iter().any(|r| r.program == "diverge.idl" && r.tripped));
    }

    #[test]
    fn gate_passes_on_a_fresh_sweep_and_catches_planted_regressions() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../programs");
        let report = crate::run_suite(&dir).unwrap();
        let baseline_src = std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_6.json"),
        )
        .unwrap();
        assert_eq!(
            regressions(&report, &baseline_src).unwrap(),
            Vec::<String>::new()
        );

        // Plant a counter regression: the gate must name it.
        let mut broken = report.clone();
        let case = broken
            .cases
            .iter_mut()
            .find(|c| c.skipped.is_none())
            .unwrap();
        case.runs[0].rounds += 1;
        let failures = regressions(&broken, &baseline_src).unwrap();
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("counters moved"), "{failures:?}");

        // Drop a program: the gate must notice the hole.
        let mut dropped = report.clone();
        dropped.cases.retain(|c| c.case.program != "parity.idl");
        let failures = regressions(&dropped, &baseline_src).unwrap();
        assert!(
            failures.iter().all(|f| f.starts_with("parity.idl")) && !failures.is_empty(),
            "{failures:?}"
        );
    }

    #[test]
    fn seven_schema_baselines_keep_only_hash_runs() {
        let src = r#"{
            "schema": "idlog-bench/7",
            "cases": [
                {"program": "p.idl", "facts": null, "facts_loaded": 1, "bounded": true,
                 "round_bound": 5, "runs": [
                    {"backend": "hash", "strategy": "semi-naive", "threads": 1,
                     "rounds": 3, "tuples": 4, "wall_ms": 0.1, "tripped": false},
                    {"backend": "columnar", "strategy": "semi-naive", "threads": 1,
                     "rounds": 3, "tuples": 4, "wall_ms": 0.2, "tripped": false}
                 ]}
            ]
        }"#;
        let runs = parse_baseline(src).unwrap();
        assert_eq!(runs.len(), 1, "{runs:?}");
        assert_eq!(runs[0].rounds, 3);
    }
}
