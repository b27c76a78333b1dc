//! `idlog-perfbench`: one seeded benchmark for the IDLOG workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <eval-closure|eval-idlog|serve-read|serve-write|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload generates its inputs from the seed, sets up several times
//! (the median is `setup_s`), measures for `--seconds`, and checks every
//! output. The report lines name every end-to-end metric that applies,
//! with its unit; the last line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the end-to-end ones gated in `BENCHMARK.json`; with `--trace 1` a
//! traced run records spans around every call into a layer and reports
//! the per-layer metrics, writing the spans to
//! `.perfbench/traces/<workload>-seed<n>.jsonl`. A failed output check
//! exits with status 1.

mod evalwork;
mod gen;
mod report;
mod servework;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{Metric, Metrics};
use trace::Tracer;

pub const WORKLOADS: [&str; 4] = ["eval-closure", "eval-idlog", "serve-read", "serve-write"];

/// The workloads `BENCHMARK.json` gates. `eval-closure` runs on request
/// only: its pass time is bound by memory access (tens of millions of
/// hash probes) and swings with the load other tenants put on a shared
/// host, so its spread across seeds comes too close to the largest bound
/// the gate allows.
pub const GATED_WORKLOADS: [&str; 3] = ["eval-idlog", "serve-read", "serve-write"];

/// End-to-end metrics every workload reports and `BENCHMARK.json` gates.
/// `eval_s` (eval-* only), `write_p50_ms`/`write_p95_ms` (serve-*),
/// `restart_ms` (serve-write) and `error_rate` go to the report lines.
pub const GATED: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "op/s"),
    ("run_p50_ms", "ms"),
    ("run_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics of the result line of a traced run, with their
/// units: those the gated workloads report. A layer that a workload does
/// not reach reports 0. `eval-closure`'s per-program metrics
/// (`eval.tc_*`) are report lines only.
pub fn layer_metrics() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("service.render_ms", "ms"),
        ("service.encode_ms", "ms"),
        ("service.client_parse_ms", "ms"),
        ("service.response_bytes", "bytes"),
        ("service.request_decode_us", "us"),
        ("server.residual_ms", "ms"),
        ("server.cache_hit_ratio", "ratio"),
        ("server.overloaded", "count"),
        ("durability.append_us", "us"),
        ("durability.wal_bytes_per_user_byte", "ratio"),
        ("durability.checkpoint_ms", "ms"),
        ("durability.checkpoints", "count"),
        ("durability.recover_ms", "ms"),
        ("durability.records_replayed", "count"),
        ("query.prepare_ms", "ms"),
        ("maintain.build_ms", "ms"),
        ("maintain.apply_ms", "ms"),
        ("maintain.incremental_share", "ratio"),
        ("idrel.group_ms", "ms"),
        ("idrel.assign_ms", "ms"),
        ("idrel.build_ms", "ms"),
        ("eval.id_relations", "count"),
        ("optimizer.rewrite_ms", "ms"),
        ("trace.overhead_ratio", "ratio"),
    ]
    .iter()
    .map(|(n, u)| (n.to_string(), *u))
    .collect();
    for p in evalwork::IDLOG_PROGRAMS {
        for (m, u) in [
            ("ms", "ms"),
            ("probes", "count"),
            ("instantiations", "count"),
            ("inserted", "count"),
            ("iterations", "count"),
            ("probes_per_inst", "ratio"),
            ("threads2_ratio", "ratio"),
        ] {
            out.push((format!("eval.{p}.{m}"), u));
        }
    }
    out
}

#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny inputs, for the benchmark's own tests.
    pub tiny: bool,
    /// A run sets up at least `setups` times and for at least
    /// `setup_budget_s` seconds in all; `setup_s` is the median set-up.
    pub setups: usize,
    pub setup_budget_s: f64,
    /// Reopenings of the durable tenant; `restart_ms` is their median.
    pub restarts: usize,
    /// Scratch space inside the working directory (data dirs, replay).
    pub work_dir: PathBuf,
}

impl Opts {
    /// Whether a run that has timed `done` set-ups should set up again.
    pub fn more_setups(&self, done: &[f64]) -> bool {
        done.len() < self.setups || done.iter().sum::<f64>() < self.setup_budget_s
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Output-check failures; any makes the run incorrect.
    pub failures: Vec<String>,
    pub e2e: Metrics,
    pub layers: Metrics,
    pub notes: Vec<String>,
    pub trace: Option<Tracer>,
}

fn run_workload(name: &str, opts: &Opts) -> Outcome {
    use evalwork::{ClosureSize, IdlogSize};
    use servework::ServeSize;
    let tiny = opts.tiny;
    match name {
        "eval-closure" => evalwork::eval_closure(
            opts,
            if tiny {
                ClosureSize {
                    chain_edges: 30,
                    dag_nodes: 60,
                    dag_blocks: 2,
                    dag_window: 10,
                    dag_extra: 0.3,
                }
            } else {
                ClosureSize {
                    chain_edges: 400,
                    dag_nodes: 2_000,
                    dag_blocks: 40,
                    dag_window: 25,
                    dag_extra: 0.2,
                }
            },
        ),
        "eval-idlog" => evalwork::eval_idlog(
            opts,
            if tiny {
                IdlogSize {
                    employees: 600,
                    skewed_depts: 40,
                    singleton_depts: 5,
                }
            } else {
                IdlogSize {
                    employees: 100_000,
                    skewed_depts: 1_800,
                    singleton_depts: 200,
                }
            },
        ),
        "serve-read" => servework::serve(
            opts,
            ServeSize::Read {
                chain_nodes: if tiny { 20 } else { 150 },
                pool_per_conn: if tiny { 3 } else { 8 },
            },
        ),
        "serve-write" => servework::serve(
            opts,
            if tiny {
                ServeSize::Write {
                    roots: 3,
                    tree_nodes: 10,
                    pool_per_conn: 3,
                    cargo_len: 3,
                }
            } else {
                ServeSize::Write {
                    roots: 8,
                    tree_nodes: 105,
                    pool_per_conn: 12,
                    cargo_len: 6,
                }
            },
        ),
        other => unreachable!("workload {other} was validated"),
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: idlog-perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

/// Print the report and the result line; the exit status says whether
/// every output check passed.
fn finish(workload: &str, opts: &Opts, out: &Outcome) -> ExitCode {
    println!(
        "# workload {workload} seed {} seconds {} trace {} cores {}",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for note in &out.notes {
        println!("# {note}");
    }
    for m in &out.e2e.0 {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
    println!("error_rate {error_rate} ratio");
    for m in &out.layers.0 {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    for f in &out.failures {
        println!("# CHECK FAILED: {f}");
    }
    let correct = out.failures.is_empty();
    let metrics: Vec<Metric> = if opts.trace {
        if let Some(t) = &out.trace {
            let path = PathBuf::from(".perfbench/traces")
                .join(format!("{workload}-seed{}.jsonl", opts.seed));
            match t.write_jsonl(&path) {
                Ok(()) => println!("# spans: {} written to {}", t.spans().len(), path.display()),
                Err(e) => println!("# spans not written: {e}"),
            }
        }
        layer_metrics()
            .into_iter()
            .map(|(name, unit)| Metric {
                value: out.layers.get(&name).unwrap_or(0.0),
                name,
                unit,
            })
            .collect()
    } else {
        GATED
            .iter()
            .map(|(name, unit)| Metric {
                name: name.to_string(),
                value: out.e2e.get(name).unwrap_or(0.0),
                unit,
            })
            .collect()
    };
    let refs: Vec<&Metric> = metrics.iter().collect();
    println!(
        "{}",
        report::result_line(correct, out.attempted.max(1), out.failed, &refs)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// `--workload all`: each workload in a fresh process (so `peak_rss_mb`
/// is its own), then one combined result line.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("cannot find own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut parts = Vec::new();
    for w in WORKLOADS {
        let mut child_args = args.to_vec();
        let at = child_args
            .iter()
            .position(|a| a == "--workload")
            .expect("checked");
        child_args[at + 1] = w.to_string();
        let output = std::process::Command::new(&exe).args(&child_args).output();
        let Ok(output) = output else {
            eprintln!("cannot run workload {w}");
            return ExitCode::from(2);
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let lines: Vec<&str> = stdout.lines().collect();
        for l in &lines[..lines.len().saturating_sub(1)] {
            println!("{l}");
        }
        let last = lines.last().copied().unwrap_or("");
        let Ok(j) = idlog_common::Json::parse(last) else {
            println!("# {w}: no result line");
            correct = false;
            continue;
        };
        correct &=
            output.status.success() && j.get("correct").and_then(|c| c.as_bool()) == Some(true);
        attempted += j.get("attempted").and_then(|v| v.as_u64()).unwrap_or(0);
        failed += j.get("failed").and_then(|v| v.as_u64()).unwrap_or(0);
        if let Some(idlog_common::Json::Object(fields)) = j.get("metrics") {
            for (k, v) in fields {
                parts.push(format!("\"{w}.{k}\": {}", v.render()));
            }
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        parts.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage();
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => match value.as_str() {
                "0" => traced = false,
                "1" => traced = true,
                _ => return usage(),
            },
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds)) = (workload, seed, seconds) else {
        return usage();
    };
    if workload == "all" {
        return run_all(&args);
    }
    if !WORKLOADS.contains(&workload.as_str()) {
        return usage();
    }
    let opts = Opts {
        seed,
        seconds,
        trace: traced,
        tiny: false,
        setups: 9,
        setup_budget_s: 3.0,
        restarts: 5,
        work_dir: PathBuf::from(".perfbench").join(format!("work-{}", std::process::id())),
    };
    let out = run_workload(&workload, &opts);
    finish(&workload, &opts, &out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(trace: bool) -> Opts {
        Opts {
            seed: 3,
            seconds: 0.4,
            trace,
            tiny: true,
            setups: 2,
            setup_budget_s: 0.0,
            restarts: 2,
            work_dir: PathBuf::from(".perfbench").join(format!(
                "test-{}-{}",
                std::process::id(),
                u8::from(trace)
            )),
        }
    }

    fn assert_clean(name: &str, out: &Outcome) {
        assert!(out.failures.is_empty(), "{name}: {:?}", out.failures);
        assert_eq!(out.failed, 0, "{name}");
        assert!(out.attempted > 0, "{name}");
    }

    #[test]
    fn every_workload_passes_its_checks_at_tiny_scale() {
        for w in WORKLOADS {
            let out = run_workload(w, &tiny(false));
            assert_clean(w, &out);
            for (m, _) in GATED {
                let v = out.e2e.get(m).unwrap_or(0.0);
                assert!(v > 0.0, "{w}: {m} = {v}");
            }
        }
    }

    #[test]
    fn traced_runs_pass_their_checks_and_replay() {
        let mut reported = std::collections::BTreeSet::new();
        for w in WORKLOADS {
            let out = run_workload(w, &tiny(true));
            assert_clean(w, &out);
            assert!(
                out.layers.get("trace.overhead_ratio").unwrap_or(0.0) > 0.0,
                "{w}"
            );
            if GATED_WORKLOADS.contains(&w) {
                reported.extend(out.layers.0.iter().map(|m| m.name.clone()));
            }
        }
        for (name, _) in layer_metrics() {
            assert!(reported.contains(&name), "no gated workload reports {name}");
        }
    }

    #[test]
    fn eval_counters_repeat_on_one_seed() {
        let a = run_workload("eval-idlog", &tiny(true));
        let b = run_workload("eval-idlog", &tiny(true));
        for (name, _) in layer_metrics() {
            if name.ends_with(".probes") || name.ends_with(".inserted") {
                assert_eq!(a.layers.get(&name), b.layers.get(&name), "{name}");
            }
        }
    }

    #[test]
    fn benchmark_json_lists_the_metrics_this_program_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let j = idlog_common::Json::parse(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            j.get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap_or("").to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let gated: Vec<(String, String)> = GATED
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names("end_to_end"), gated);
        let layers: Vec<(String, String)> = layer_metrics()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(names("per_layer"), layers);
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, GATED_WORKLOADS);

        let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/manifest.json");
        let text = std::fs::read_to_string(manifest).expect("manifest.json");
        let m = idlog_common::Json::parse(&text).expect("valid manifest");
        let gated_in_manifest: Vec<String> = m
            .get("end_to_end")
            .and_then(|v| v.as_array())
            .expect("end_to_end")
            .iter()
            .filter(|e| e.get("gated").and_then(|g| g.as_bool()) == Some(true))
            .filter_map(|e| e.get("name").and_then(|n| n.as_str()).map(str::to_string))
            .collect();
        let gated_names: Vec<String> = GATED.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(gated_in_manifest, gated_names);
    }
}
