//! Cross-program benchmark suite: run every shipped example under every
//! {strategy × thread-count} combination and record the engine's
//! own counters (fixpoint rounds, inserted tuples, wall time).
//!
//! The binary (`cargo run -p idlog-suite --release`) writes the sweep as
//! `BENCH_9.json` at the repository root — schema `idlog-bench/9` — which
//! CI regenerates and uploads as an artifact on every push, and gates the
//! runs against the committed `BENCH_8.json` baseline
//! ([`baseline::regressions`]: rounds/tuples exact, wall time within a
//! generous tolerance). The suite leans on [`idlog_core::termination`]:
//! programs whose certificate has a growth witness (the shipped
//! `diverge.idl`) are run under a round ceiling and recorded as `tripped`
//! instead of hanging the sweep.
//!
//! Schema 8 added a `served` section: the [`served`] module measures the
//! `idlog-server` incremental-maintenance path against full recompute over
//! the same wire protocol, and the binary gates `incremental_ms <
//! recompute_ms` so the service's reason to exist stays measurable.
//!
//! Schema 9 added a `magic` section: the [`magic`] module evaluates a
//! certified point query directly and under `strategy=magic` at every
//! thread count, asserts byte-identical answers, and the binary gates
//! [`magic::MagicBench::strictly_prunes`] — the rewrite must insert and
//! probe strictly fewer tuples.
//!
//! Schema 10 adds a `durability` section: the [`durability`] module
//! measures what a restart of a durable tenant costs — WAL replay from
//! genesis vs recovery from a checkpoint vs cold recompute — plus an
//! fsync-policy throughput sweep, and the binary gates
//! [`durability::DurabilityBench::checkpoint_beats_genesis`].

#![warn(missing_docs)]

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use idlog_core::{
    analyze_termination, CanonicalOracle, CoreError, EvalOptions, Interner, Strategy,
    TerminationCert, ValidatedProgram,
};
use idlog_storage::Database;

pub mod baseline;
pub mod durability;
pub mod magic;
pub mod served;

/// Round ceiling for programs whose termination certificate carries a
/// growth witness: enough to measure per-round cost, small enough that the
/// sweep stays fast.
pub const GOVERNED_ROUNDS: u64 = 60;

/// The strategies the sweep covers.
pub const STRATEGIES: [Strategy; 2] = [Strategy::SemiNaive, Strategy::Naive];

/// The thread counts the sweep covers.
pub const THREADS: [usize; 3] = [1, 2, 4];

/// The JSON name of a strategy (stable across schema versions).
pub fn strategy_name(strategy: Strategy) -> &'static str {
    match strategy {
        Strategy::SemiNaive => "semi-naive",
        Strategy::Naive => "naive",
        Strategy::Magic => "magic",
    }
}

/// One program of the corpus, with its sidecar facts file (when one is
/// shipped for it).
#[derive(Debug, Clone)]
pub struct Case {
    /// Program file name (relative to the programs directory).
    pub program: String,
    /// Facts file name, when the program has a shipped EDB.
    pub facts: Option<String>,
}

/// One measured evaluation.
#[derive(Debug, Clone)]
pub struct Run {
    /// Evaluation strategy used.
    pub strategy: Strategy,
    /// Worker threads used.
    pub threads: usize,
    /// Semi-naive iterations across all strata.
    pub rounds: u64,
    /// Genuinely new facts derived.
    pub tuples: u64,
    /// Wall-clock time in milliseconds.
    pub wall_ms: f64,
    /// Whether the round ceiling stopped the run (diverging programs).
    pub tripped: bool,
}

/// The full record for one corpus program.
#[derive(Debug, Clone)]
pub struct CaseReport {
    /// The program and its facts sidecar.
    pub case: Case,
    /// Why the program was skipped (choice dialect), if it was.
    pub skipped: Option<String>,
    /// Number of EDB facts loaded.
    pub facts_loaded: usize,
    /// Whether the termination certificate bounds the program.
    pub bounded: bool,
    /// The certified round bound for the loaded database, when bounded.
    pub round_bound: Option<u64>,
    /// One entry per {strategy × threads} combination.
    pub runs: Vec<Run>,
}

/// The whole sweep.
#[derive(Debug, Clone)]
pub struct SuiteReport {
    /// Per-program reports, in corpus order.
    pub cases: Vec<CaseReport>,
    /// The served-mode latency record, when the service bench ran.
    pub served: Option<served::ServedBench>,
    /// The goal-directed point-query record, when the magic bench ran.
    pub magic: Option<magic::MagicBench>,
    /// The restart-cost record, when the durability bench ran.
    pub durability: Option<durability::DurabilityBench>,
}

/// The shipped facts sidecar for a program stem, mirroring the pairings
/// the CLI integration tests and the README use.
fn facts_for(stem: &str) -> Option<&'static str> {
    match stem {
        "all_depts" | "dept_sizes" | "sampling" => Some("company.facts"),
        "ancestor" => Some("ancestor.facts"),
        "coloring" => Some("cycle.facts"),
        "parity" => Some("people.facts"),
        _ => None,
    }
}

/// Enumerate the corpus: every `*.idl` under `dir`, sorted by name.
pub fn corpus(dir: &Path) -> std::io::Result<Vec<Case>> {
    let mut programs: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "idl"))
        .collect();
    programs.sort();
    Ok(programs
        .into_iter()
        .map(|p| {
            let stem = p.file_stem().unwrap_or_default().to_string_lossy();
            Case {
                facts: facts_for(&stem).map(str::to_string),
                program: p
                    .file_name()
                    .unwrap_or_default()
                    .to_string_lossy()
                    .into_owned(),
            }
        })
        .collect())
}

/// Is this source in the DATALOG^C dialect (any `choice` literal)? Choice
/// programs are translated, not evaluated directly, so the sweep skips
/// them.
fn is_choice_dialect(src: &str, interner: &Interner) -> bool {
    let Ok(program) = idlog_parser::parse_program(src, interner) else {
        return false;
    };
    program.clauses.iter().any(|c| {
        c.body
            .iter()
            .any(|l| matches!(l, idlog_parser::Literal::Choice { .. }))
    })
}

/// Run one corpus case across every {strategy × threads} combination.
pub fn run_case(dir: &Path, case: &Case) -> Result<CaseReport, String> {
    let path = dir.join(&case.program);
    let src = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", case.program))?;
    let interner = Arc::new(Interner::new());
    if is_choice_dialect(&src, &interner) {
        return Ok(CaseReport {
            case: case.clone(),
            skipped: Some("choice dialect (translate first)".into()),
            facts_loaded: 0,
            bounded: false,
            round_bound: None,
            runs: Vec::new(),
        });
    }
    let program = ValidatedProgram::parse(&src, Arc::clone(&interner))
        .map_err(|e| format!("{}: {e}", case.program))?;
    let mut db = Database::with_interner(Arc::clone(&interner));
    if let Some(facts) = &case.facts {
        let facts_src =
            std::fs::read_to_string(dir.join(facts)).map_err(|e| format!("{facts}: {e}"))?;
        idlog_core::load_facts(&facts_src, &mut db).map_err(|e| format!("{facts}: {e}"))?;
    }
    let facts_loaded = db.iter().map(|(_, r)| r.len()).sum();
    let cert: TerminationCert = analyze_termination(program.ast());
    let governed = cert.growth_witness().is_some();

    let mut runs = Vec::new();
    for strategy in STRATEGIES {
        for threads in THREADS {
            let mut options = EvalOptions::new().strategy(strategy).threads(threads);
            if governed {
                options = options.max_rounds(GOVERNED_ROUNDS);
            }
            let mut oracle = CanonicalOracle;
            let start = Instant::now();
            let outcome = idlog_core::evaluate_with_options(&program, &db, &mut oracle, &options);
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            let run = match outcome {
                Ok(out) => Run {
                    strategy,
                    threads,
                    rounds: out.stats().iterations,
                    tuples: out.stats().inserted,
                    wall_ms,
                    tripped: false,
                },
                Err(CoreError::LimitExceeded { .. }) => Run {
                    strategy,
                    threads,
                    rounds: GOVERNED_ROUNDS,
                    tuples: 0,
                    wall_ms,
                    tripped: true,
                },
                Err(e) => return Err(format!("{}: {e}", case.program)),
            };
            runs.push(run);
        }
    }
    Ok(CaseReport {
        case: case.clone(),
        skipped: None,
        facts_loaded,
        bounded: cert.bounded(),
        round_bound: cert.round_bound(&db),
        runs,
    })
}

/// Run the whole corpus under `dir`.
pub fn run_suite(dir: &Path) -> Result<SuiteReport, String> {
    let cases = corpus(dir).map_err(|e| e.to_string())?;
    if cases.is_empty() {
        return Err(format!("no .idl programs under {}", dir.display()));
    }
    let mut reports = Vec::new();
    for case in &cases {
        reports.push(run_case(dir, case)?);
    }
    Ok(SuiteReport {
        cases: reports,
        served: None,
        magic: None,
        durability: None,
    })
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", idlog_common::json::escape(s))
}

impl SuiteReport {
    /// Render the sweep as schema-tagged JSON (`idlog-bench/9`).
    pub fn to_json(&self) -> String {
        let mut cases = Vec::new();
        for r in &self.cases {
            let mut fields = vec![format!("\"program\": {}", json_str(&r.case.program))];
            match &r.case.facts {
                Some(f) => fields.push(format!("\"facts\": {}", json_str(f))),
                None => fields.push("\"facts\": null".into()),
            }
            if let Some(reason) = &r.skipped {
                fields.push(format!("\"skipped\": {}", json_str(reason)));
            } else {
                fields.push(format!("\"facts_loaded\": {}", r.facts_loaded));
                fields.push(format!("\"bounded\": {}", r.bounded));
                match r.round_bound {
                    Some(b) => fields.push(format!("\"round_bound\": {b}")),
                    None => fields.push("\"round_bound\": null".into()),
                }
                let runs: Vec<String> = r
                    .runs
                    .iter()
                    .map(|run| {
                        format!(
                            "{{\"strategy\": {}, \"threads\": {}, \
                             \"rounds\": {}, \"tuples\": {}, \"wall_ms\": {:.3}, \
                             \"tripped\": {}}}",
                            json_str(strategy_name(run.strategy)),
                            run.threads,
                            run.rounds,
                            run.tuples,
                            run.wall_ms,
                            run.tripped
                        )
                    })
                    .collect();
                fields.push(format!("\"runs\": [{}]", runs.join(", ")));
            }
            cases.push(format!("  {{{}}}", fields.join(", ")));
        }
        let served = match &self.served {
            None => "null".to_string(),
            Some(s) => {
                let modes: Vec<String> = s.modes.iter().map(|m| json_str(m)).collect();
                format!(
                    "{{\"nodes\": {}, \"inserts\": {}, \"incremental_ms\": {:.3}, \
                     \"recompute_ms\": {:.3}, \"speedup\": {:.3}, \"modes\": [{}]}}",
                    s.nodes,
                    s.inserts,
                    s.incremental_ms,
                    s.recompute_ms,
                    s.speedup(),
                    modes.join(", ")
                )
            }
        };
        let magic = match &self.magic {
            None => "null".to_string(),
            Some(m) => {
                let runs: Vec<String> = m
                    .runs
                    .iter()
                    .map(|r| {
                        format!(
                            "{{\"threads\": {}, \
                             \"direct_inserted\": {}, \"direct_probes\": {}, \
                             \"magic_inserted\": {}, \"magic_probes\": {}, \
                             \"pruned\": {}}}",
                            r.threads,
                            r.direct_inserted,
                            r.direct_probes,
                            r.magic_inserted,
                            r.magic_probes,
                            r.pruned
                        )
                    })
                    .collect();
                format!(
                    "{{\"chains\": {}, \"chain_len\": {}, \"answers\": {}, \
                     \"strictly_prunes\": {}, \"runs\": [{}]}}",
                    m.chains,
                    m.chain_len,
                    m.answers,
                    m.strictly_prunes(),
                    runs.join(", ")
                )
            }
        };
        let durability = match &self.durability {
            None => "null".to_string(),
            Some(d) => {
                let fsync: Vec<String> = d
                    .fsync
                    .iter()
                    .map(|f| {
                        format!(
                            "{{\"policy\": {}, \"writes\": {}, \"wall_ms\": {:.3}, \
                             \"writes_per_sec\": {:.1}}}",
                            json_str(&f.policy),
                            f.writes,
                            f.wall_ms,
                            f.writes_per_sec()
                        )
                    })
                    .collect();
                format!(
                    "{{\"nodes\": {}, \"churn\": {}, \
                     \"genesis_wal_records\": {}, \"genesis_replay_ms\": {:.3}, \
                     \"checkpoint_wal_records\": {}, \"checkpoint_recovery_ms\": {:.3}, \
                     \"cold_recompute_ms\": {:.3}, \"checkpoint_beats_genesis\": {}, \
                     \"fsync\": [{}]}}",
                    d.nodes,
                    d.churn,
                    d.genesis_wal_records,
                    d.genesis_replay_ms,
                    d.checkpoint_wal_records,
                    d.checkpoint_recovery_ms,
                    d.cold_recompute_ms,
                    d.checkpoint_beats_genesis(),
                    fsync.join(", ")
                )
            }
        };
        format!(
            "{{\n\"schema\": \"idlog-bench/10\",\n\"served\": {served},\n\"magic\": {magic},\n\
             \"durability\": {durability},\n\"cases\": [\n{}\n]\n}}\n",
            cases.join(",\n")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn programs_dir() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../programs")
    }

    #[test]
    fn sweep_covers_corpus_and_stays_deterministic() {
        let report = run_suite(&programs_dir()).unwrap();
        assert!(report.cases.len() >= 5, "{}", report.cases.len());
        for case in &report.cases {
            if case.skipped.is_some() {
                continue;
            }
            // Rounds and tuples are engine counters, promised identical
            // across thread counts per strategy.
            for strategy in STRATEGIES {
                let per: Vec<&Run> = case
                    .runs
                    .iter()
                    .filter(|r| r.strategy == strategy)
                    .collect();
                assert_eq!(per.len(), THREADS.len(), "{}", case.case.program);
                assert!(
                    per.windows(2)
                        .all(|w| w[0].rounds == w[1].rounds && w[0].tuples == w[1].tuples),
                    "{} not thread-deterministic: {:?}",
                    case.case.program,
                    per
                );
            }
            // A certified bound is an over-approximation of the real
            // round count on this very database.
            if let Some(bound) = case.round_bound {
                for run in &case.runs {
                    assert!(
                        run.rounds <= bound,
                        "{}: {} rounds > certified bound {bound}",
                        case.case.program,
                        run.rounds
                    );
                }
            }
        }
        // The shipped diverging program must be governed, not hung.
        let diverge = report
            .cases
            .iter()
            .find(|c| c.case.program == "diverge.idl")
            .expect("diverge.idl in corpus");
        assert!(!diverge.bounded);
        assert!(diverge.runs.iter().all(|r| r.tripped), "{diverge:?}");
    }

    #[test]
    fn json_is_schema_tagged_and_escaped() {
        let report = SuiteReport {
            cases: vec![CaseReport {
                case: Case {
                    program: "a\"b.idl".into(),
                    facts: None,
                },
                skipped: Some("choice dialect (translate first)".into()),
                facts_loaded: 0,
                bounded: false,
                round_bound: None,
                runs: Vec::new(),
            }],
            served: Some(served::ServedBench {
                nodes: 10,
                inserts: 2,
                incremental_ms: 1.0,
                recompute_ms: 4.0,
                modes: vec!["incremental".into(), "incremental".into()],
            }),
            magic: Some(magic::MagicBench {
                chains: 3,
                chain_len: 20,
                answers: 19,
                runs: vec![magic::MagicRun {
                    threads: 1,
                    direct_inserted: 100,
                    direct_probes: 200,
                    magic_inserted: 40,
                    magic_probes: 80,
                    pruned: 38,
                }],
            }),
            durability: Some(durability::DurabilityBench {
                nodes: 200,
                churn: 400,
                genesis_wal_records: 1000,
                genesis_replay_ms: 8.0,
                checkpoint_wal_records: 0,
                checkpoint_recovery_ms: 2.0,
                cold_recompute_ms: 40.0,
                fsync: vec![durability::FsyncRun {
                    policy: "always".into(),
                    writes: 1000,
                    wall_ms: 500.0,
                }],
            }),
        };
        let json = report.to_json();
        assert!(json.contains("\"idlog-bench/10\""), "{json}");
        assert!(json.contains("a\\\"b.idl"), "{json}");
        assert!(json.contains("\"speedup\": 4.000"), "{json}");
        assert!(
            json.contains("\"modes\": [\"incremental\", \"incremental\"]"),
            "{json}"
        );
        assert!(json.contains("\"strictly_prunes\": true"), "{json}");
        assert!(
            json.contains("\"magic_inserted\": 40, \"magic_probes\": 80, \"pruned\": 38"),
            "{json}"
        );
        assert!(
            json.contains("\"checkpoint_beats_genesis\": true"),
            "{json}"
        );
        assert!(
            json.contains("\"policy\": \"always\", \"writes\": 1000, \"wall_ms\": 500.000"),
            "{json}"
        );
        assert!(json.contains("\"writes_per_sec\": 2000.0"), "{json}");
    }

    #[test]
    fn json_renders_runs_and_null_sections() {
        let report = SuiteReport {
            cases: vec![CaseReport {
                case: Case {
                    program: "p.idl".into(),
                    facts: None,
                },
                skipped: None,
                facts_loaded: 1,
                bounded: true,
                round_bound: Some(5),
                runs: vec![Run {
                    strategy: Strategy::SemiNaive,
                    threads: 2,
                    rounds: 3,
                    tuples: 4,
                    wall_ms: 0.5,
                    tripped: false,
                }],
            }],
            served: None,
            magic: None,
            durability: None,
        };
        let json = report.to_json();
        assert!(json.contains("\"served\": null"), "{json}");
        assert!(json.contains("\"magic\": null"), "{json}");
        assert!(json.contains("\"durability\": null"), "{json}");
        assert!(
            json.contains(
                "{\"strategy\": \"semi-naive\", \"threads\": 2, \"rounds\": 3, \
                 \"tuples\": 4, \"wall_ms\": 0.500, \"tripped\": false}"
            ),
            "{json}"
        );
        assert!(!json.contains("backend"), "{json}");
    }
}
