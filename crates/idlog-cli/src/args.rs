//! Hand-rolled argument parsing (the workspace deliberately avoids extra
//! dependencies; the grammar is small).

use std::time::Duration;

use idlog_core::Strategy;

/// Usage text for `--help` and argument errors.
pub const USAGE: &str = "\
idlog — the IDLOG deductive database

USAGE:
  idlog run <program> --output <pred> [options]   evaluate a query
  idlog check <program>                           validate and report strata
  idlog explain <program> [--analyze] [options]   print the evaluation plan
  idlog lint <program>... [options]               collect-all diagnostics & lints
  idlog translate-choice <program>                Theorem 2: DATALOG^C -> IDLOG
  idlog optimize <program> --output <pred> [--suggest-prune]
                                                  ID-literal rewrite (paper §4)
  idlog repl                                      interactive session
  idlog serve [options]                           multi-tenant query service
  idlog client <addr> <request>                   send one service request
  idlog help                                      this text

RUN OPTIONS:
  --facts <file>      load ground facts from a separate file
  --output <pred>     the output predicate (required)
  --seed <n>          resolve non-determinism with a seeded random oracle
                      (default: canonical, reproducible tid order)
  --all               enumerate the full answer set instead of one answer
  --max-models <n>    cap on perfect models visited with --all
  --stats             print evaluation statistics
  --profile           print the per-rule evaluation profile (worst first)
  --profile-json <f>  write the profile as JSON to <f> ('-' = stdout)
  --profile-time      include wall time in the profile output (wall time is
                      the one non-deterministic profile column, so it is
                      off by default)
  --threads <n>       worker threads for evaluation and enumeration
                      (default: IDLOG_THREADS env var, else the machine's
                      available parallelism; results never depend on it)
  --timeout <dur>     wall-clock budget, e.g. 500ms, 2s, 1m (bare numbers
                      are seconds); a trip prints the partial result and
                      exits with code 3
  --max-rounds <n>    cap on semi-naive fixpoint rounds (deterministic:
                      trips at the same round for any --threads value)
  --max-tuples <n>    cap on newly derived tuples (deterministic)
  --strategy <name>   evaluation strategy: seminaive (default), naive, or
                      magic (goal-directed: rewrite with magic sets seeded
                      from query constants and derive only relevant facts;
                      refused with a witness walk when the relevance
                      analysis cannot certify the rewrite — see W030/W031)

EXIT CODES:
  0   success (including --all walks truncated by --max-models)
  1   failure (bad program, missing file, evaluation error)
  2   usage error
  3   a resource limit tripped (--timeout, --max-rounds, --max-tuples)
  130 interrupted (Ctrl-C)

EXPLAIN OPTIONS:
  --facts <file>      load ground facts from a separate file
  --analyze           evaluate the program and annotate each clause with
                      measured counters (EXPLAIN ANALYZE) and report the
                      determinism and termination certification per
                      predicate
  --seed <n>          oracle seed for --analyze (default: canonical)
  --threads <n>       worker threads for --analyze

SERVE OPTIONS:
  --listen <addr>     bind address (default 127.0.0.1:7421; port 0 picks an
                      ephemeral port, printed on stderr)
  --workers <n>       connection worker threads (default 16)
  --data-dir <dir>    durable tenant state: every acknowledged write goes
                      to a per-tenant write-ahead log before the ack, and
                      restarting over the same directory recovers exactly
                      the acknowledged facts (default: in-memory only)
  --sync <policy>     WAL fsync policy with --data-dir: always (fsync every
                      record before the ack), batch (default; every 32
                      records), or never (OS-scheduled flushes only)
  --checkpoint-every <n>
                      WAL records between checkpoint snapshots; a snapshot
                      truncates the log and bounds recovery time
                      (default 1024)
  --queue-depth <n>   connections allowed to wait for a worker; arrivals
                      beyond it get an \"overloaded\" error with a
                      retry_after_ms hint instead of unbounded queueing
                      (default 64)

  The service speaks the idlog-service/2 line protocol (idlog-service/1
  clients negotiate down via ping): one JSON request per line in, one JSON
  response per line out (see LANGUAGE.md §Service). `idlog client` sends a
  single raw request line and prints the response; its process exit code
  mirrors the response's \"exit\" field, which uses the same 0/1/2/3/130
  convention as `idlog run`.

CLIENT OPTIONS:
  --retries <n>       retry budget for connection refusals and
                      \"overloaded\" responses (default 0: fail fast)
  --backoff-ms <n>    base of the exponential retry backoff; the actual
                      sleep doubles per attempt with deterministic jitter,
                      and an explicit retry_after_ms hint from the server
                      takes precedence (default 50)

LINT OPTIONS:
  --deny-warnings     treat warnings as fatal (for CI)
  --json              print diagnostics as a JSON array on stdout
                      (the human summary moves to stderr)
  --allow <CODE>      suppress a diagnostic code (repeatable); e.g.
                      --allow W010 for intentionally non-deterministic
                      sampling programs, --allow W020 for intentionally
                      value-generating recursion bounded at run time
";

/// Options of `idlog run` (also the payload of [`Command::Run`]).
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Program path.
    pub program: String,
    /// Optional facts path.
    pub facts: Option<String>,
    /// Output predicate.
    pub output: String,
    /// Seed for the random oracle (None = canonical).
    pub seed: Option<u64>,
    /// Enumerate all answers.
    pub all: bool,
    /// Print statistics.
    pub stats: bool,
    /// Model cap for --all.
    pub max_models: Option<u64>,
    /// Worker threads (None = auto: IDLOG_THREADS, else hardware).
    pub threads: Option<usize>,
    /// Print the per-rule profile table.
    pub profile: bool,
    /// Write the profile as JSON to this path (`-` = stdout).
    pub profile_json: Option<String>,
    /// Include wall time in profile output.
    pub profile_time: bool,
    /// Wall-clock budget for the evaluation.
    pub timeout: Option<Duration>,
    /// Cap on semi-naive fixpoint rounds.
    pub max_rounds: Option<u64>,
    /// Cap on newly derived tuples.
    pub max_tuples: Option<u64>,
    /// Evaluation strategy (None = the engine default, seminaive).
    pub strategy: Option<Strategy>,
}

impl RunOpts {
    /// Options with every flag off — for tests and programmatic callers.
    pub fn new(program: impl Into<String>, output: impl Into<String>) -> RunOpts {
        RunOpts {
            program: program.into(),
            facts: None,
            output: output.into(),
            seed: None,
            all: false,
            stats: false,
            max_models: None,
            threads: None,
            profile: false,
            profile_json: None,
            profile_time: false,
            timeout: None,
            max_rounds: None,
            max_tuples: None,
            strategy: None,
        }
    }
}

/// Parse a human duration: `500ms`, `2s`, `1m`, or a bare number of
/// seconds (fractions allowed: `0.5s`, `1.5`).
pub fn parse_duration(s: &str) -> Result<Duration, String> {
    let s = s.trim();
    let (digits, scale_ms) = if let Some(d) = s.strip_suffix("ms") {
        (d, 1.0)
    } else if let Some(d) = s.strip_suffix('s') {
        (d, 1_000.0)
    } else if let Some(d) = s.strip_suffix('m') {
        (d, 60_000.0)
    } else {
        (s, 1_000.0)
    };
    let n: f64 = digits
        .trim()
        .parse()
        .map_err(|_| format!("invalid duration {s:?} (try 500ms, 2s, or 1m)"))?;
    if !n.is_finite() || n < 0.0 {
        return Err(format!("invalid duration {s:?} (must be non-negative)"));
    }
    Ok(Duration::from_secs_f64(n * scale_ms / 1_000.0))
}

/// A parsed invocation.
#[derive(Debug, Clone)]
pub struct Args {
    /// What to do.
    pub command: Command,
}

/// Subcommands.
#[derive(Debug, Clone)]
pub enum Command {
    /// Print usage.
    Help,
    /// Validate a program.
    Check {
        /// Program path.
        program: String,
    },
    /// Print the evaluation plan, optionally annotated with measured
    /// counters.
    Explain {
        /// Program path.
        program: String,
        /// Optional facts path.
        facts: Option<String>,
        /// Evaluate and annotate clauses with measured counters.
        analyze: bool,
        /// Oracle seed for --analyze (None = canonical).
        seed: Option<u64>,
        /// Worker threads for --analyze (None = auto).
        threads: Option<usize>,
    },
    /// Run the full diagnostics/lint suite over one or more programs.
    Lint {
        /// Program paths (at least one).
        programs: Vec<String>,
        /// Treat warnings as fatal (for CI).
        deny_warnings: bool,
        /// Print diagnostics as a JSON array instead of rendered text.
        json: bool,
        /// Diagnostic codes to suppress (case-insensitive).
        allow: Vec<String>,
    },
    /// Print the Theorem 2 translation.
    TranslateChoice {
        /// Program path.
        program: String,
    },
    /// Interactive session.
    Repl,
    /// Print the §4 ID-rewrite.
    Optimize {
        /// Program path.
        program: String,
        /// Output predicate.
        output: String,
        /// Also run the bounded redundant-clause analysis.
        suggest_prune: bool,
    },
    /// Evaluate a query.
    Run(RunOpts),
    /// Run the multi-tenant query service.
    Serve {
        /// Bind address.
        listen: String,
        /// Connection worker threads.
        workers: usize,
        /// Durable tenant state root (None = in-memory only).
        data_dir: Option<String>,
        /// WAL fsync policy (`always`, `batch`, `never`).
        sync: idlog_server::SyncPolicy,
        /// WAL records between checkpoint snapshots.
        checkpoint_every: u64,
        /// Admission-queue bound before connections are shed.
        queue_depth: usize,
    },
    /// Send one raw protocol request line to a running service.
    Client {
        /// Service address (`host:port`).
        addr: String,
        /// The request line (JSON).
        request: String,
        /// Retry budget for refusals and `overloaded` responses.
        retries: u32,
        /// Base backoff in milliseconds (doubles per attempt).
        backoff_ms: u64,
    },
}

impl Args {
    /// Parse command-line words.
    pub fn parse(words: impl Iterator<Item = String>) -> Result<Args, String> {
        let words: Vec<String> = words.collect();
        let Some(cmd) = words.first() else {
            return Err("missing command".into());
        };
        let rest = &words[1..];
        let command = match cmd.as_str() {
            "help" | "--help" | "-h" => Command::Help,
            "repl" => {
                if !rest.is_empty() {
                    return Err("repl takes no arguments".into());
                }
                Command::Repl
            }
            "check" => Command::Check {
                program: one_path(rest, "check")?,
            },
            "explain" => {
                let (program, opts) = path_and_opts(rest, "explain")?;
                let mut facts = None;
                let mut analyze = false;
                let mut seed = None;
                let mut threads = None;
                let mut it = opts.iter();
                while let Some(flag) = it.next() {
                    match flag.as_str() {
                        "--facts" => facts = Some(value(&mut it, "--facts")?),
                        "--analyze" => analyze = true,
                        "--seed" => seed = Some(parse_num(&mut it, "--seed")?),
                        "--threads" => threads = Some(parse_threads(&mut it)?),
                        other => return Err(format!("unknown option {other}")),
                    }
                }
                Command::Explain {
                    program,
                    facts,
                    analyze,
                    seed,
                    threads,
                }
            }
            "lint" => {
                let mut programs = Vec::new();
                let mut deny_warnings = false;
                let mut json = false;
                let mut allow = Vec::new();
                let mut it = rest.iter();
                while let Some(word) = it.next() {
                    match word.as_str() {
                        "--deny-warnings" => deny_warnings = true,
                        "--json" => json = true,
                        "--allow" => allow.push(value(&mut it, "--allow")?),
                        other if other.starts_with('-') => {
                            return Err(format!("unknown option {other}"));
                        }
                        path => programs.push(path.to_string()),
                    }
                }
                if programs.is_empty() {
                    return Err("lint needs at least one program path".into());
                }
                Command::Lint {
                    programs,
                    deny_warnings,
                    json,
                    allow,
                }
            }
            "translate-choice" => Command::TranslateChoice {
                program: one_path(rest, "translate-choice")?,
            },
            "optimize" => {
                let (program, opts) = path_and_opts(rest, "optimize")?;
                let mut output = None;
                let mut suggest_prune = false;
                let mut it = opts.iter();
                while let Some(flag) = it.next() {
                    match flag.as_str() {
                        "--output" => output = Some(value(&mut it, "--output")?),
                        "--suggest-prune" => suggest_prune = true,
                        other => return Err(format!("unknown option {other}")),
                    }
                }
                Command::Optimize {
                    program,
                    output: output.ok_or("optimize requires --output <pred>")?,
                    suggest_prune,
                }
            }
            "run" => {
                let (program, opts) = path_and_opts(rest, "run")?;
                let mut run = RunOpts::new(program, String::new());
                let mut output = None;
                let mut it = opts.iter();
                while let Some(flag) = it.next() {
                    match flag.as_str() {
                        "--facts" => run.facts = Some(value(&mut it, "--facts")?),
                        "--output" => output = Some(value(&mut it, "--output")?),
                        "--seed" => run.seed = Some(parse_num(&mut it, "--seed")?),
                        "--max-models" => {
                            run.max_models = Some(parse_num(&mut it, "--max-models")?)
                        }
                        "--threads" => run.threads = Some(parse_threads(&mut it)?),
                        "--timeout" => {
                            run.timeout = Some(parse_duration(&value(&mut it, "--timeout")?)?)
                        }
                        "--max-rounds" => {
                            run.max_rounds = Some(parse_num(&mut it, "--max-rounds")?)
                        }
                        "--max-tuples" => {
                            run.max_tuples = Some(parse_num(&mut it, "--max-tuples")?)
                        }
                        "--strategy" => run.strategy = Some(parse_strategy(&mut it)?),
                        "--all" => run.all = true,
                        "--stats" => run.stats = true,
                        "--profile" => run.profile = true,
                        "--profile-json" => {
                            run.profile_json = Some(value(&mut it, "--profile-json")?)
                        }
                        "--profile-time" => run.profile_time = true,
                        other => return Err(format!("unknown option {other}")),
                    }
                }
                run.output = output.ok_or("run requires --output <pred>")?;
                Command::Run(run)
            }
            "serve" => {
                let mut listen = "127.0.0.1:7421".to_string();
                let mut workers = 16usize;
                let mut data_dir = None;
                let mut sync = idlog_server::SyncPolicy::default();
                let mut checkpoint_every = idlog_server::DEFAULT_CHECKPOINT_EVERY;
                let mut queue_depth = idlog_server::DEFAULT_QUEUE_DEPTH;
                let mut it = rest.iter();
                while let Some(flag) = it.next() {
                    match flag.as_str() {
                        "--listen" => listen = value(&mut it, "--listen")?,
                        "--workers" => {
                            workers = parse_num(&mut it, "--workers")?;
                            if workers == 0 {
                                return Err("--workers expects a positive number".into());
                            }
                        }
                        "--data-dir" => data_dir = Some(value(&mut it, "--data-dir")?),
                        "--sync" => {
                            let s = value(&mut it, "--sync")?;
                            sync = idlog_server::SyncPolicy::parse(&s).ok_or(format!(
                                "--sync expects always, batch, or never (got {s:?})"
                            ))?;
                        }
                        "--checkpoint-every" => {
                            checkpoint_every = parse_num(&mut it, "--checkpoint-every")?;
                            if checkpoint_every == 0 {
                                return Err("--checkpoint-every expects a positive number".into());
                            }
                        }
                        "--queue-depth" => {
                            queue_depth = parse_num(&mut it, "--queue-depth")?;
                            if queue_depth == 0 {
                                return Err("--queue-depth expects a positive number".into());
                            }
                        }
                        other => return Err(format!("unknown option {other}")),
                    }
                }
                Command::Serve {
                    listen,
                    workers,
                    data_dir,
                    sync,
                    checkpoint_every,
                    queue_depth,
                }
            }
            "client" => {
                let mut positional = Vec::new();
                let mut retries = 0u32;
                let mut backoff_ms = 50u64;
                let mut it = rest.iter();
                while let Some(word) = it.next() {
                    match word.as_str() {
                        "--retries" => retries = parse_num(&mut it, "--retries")?,
                        "--backoff-ms" => {
                            backoff_ms = parse_num(&mut it, "--backoff-ms")?;
                            if backoff_ms == 0 {
                                return Err("--backoff-ms expects a positive number".into());
                            }
                        }
                        _ => positional.push(word.clone()),
                    }
                }
                match positional.as_slice() {
                    [addr, request] => Command::Client {
                        addr: addr.clone(),
                        request: request.clone(),
                        retries,
                        backoff_ms,
                    },
                    _ => return Err("client takes an address and one request line".into()),
                }
            }
            other => return Err(format!("unknown command {other}")),
        };
        Ok(Args { command })
    }
}

fn one_path(rest: &[String], cmd: &str) -> Result<String, String> {
    match rest {
        [path] => Ok(path.clone()),
        _ => Err(format!("{cmd} takes exactly one program path")),
    }
}

fn path_and_opts(rest: &[String], cmd: &str) -> Result<(String, Vec<String>), String> {
    let Some(path) = rest.first() else {
        return Err(format!("{cmd} needs a program path"));
    };
    if path.starts_with('-') {
        return Err(format!("{cmd} needs a program path before options"));
    }
    Ok((path.clone(), rest[1..].to_vec()))
}

fn value<'a>(it: &mut impl Iterator<Item = &'a String>, flag: &str) -> Result<String, String> {
    it.next()
        .cloned()
        .ok_or_else(|| format!("{flag} expects a value"))
}

fn parse_num<'a, N: std::str::FromStr>(
    it: &mut impl Iterator<Item = &'a String>,
    flag: &str,
) -> Result<N, String> {
    value(it, flag)?
        .parse()
        .map_err(|_| format!("{flag} expects a number"))
}

fn parse_threads<'a>(it: &mut impl Iterator<Item = &'a String>) -> Result<usize, String> {
    let n: usize = parse_num(it, "--threads")?;
    if n == 0 {
        return Err("--threads expects a positive number".to_string());
    }
    Ok(n)
}

/// Parse and validate a `--strategy` value (shared by `run` and the REPL).
pub fn parse_strategy_name(name: &str) -> Result<Strategy, String> {
    Strategy::parse(name)
        .ok_or_else(|| format!("unknown strategy {name:?} (expected seminaive, naive, or magic)"))
}

fn parse_strategy<'a>(it: &mut impl Iterator<Item = &'a String>) -> Result<Strategy, String> {
    parse_strategy_name(&value(it, "--strategy")?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, String> {
        Args::parse(words.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_run_with_options() {
        let args = parse(&[
            "run",
            "p.idl",
            "--facts",
            "f.idl",
            "--output",
            "q",
            "--seed",
            "7",
            "--all",
            "--stats",
            "--max-models",
            "100",
            "--threads",
            "4",
        ])
        .unwrap();
        let Command::Run(run) = args.command else {
            panic!("expected run");
        };
        assert_eq!(run.program, "p.idl");
        assert_eq!(run.facts.as_deref(), Some("f.idl"));
        assert_eq!(run.output, "q");
        assert_eq!(run.seed, Some(7));
        assert!(run.all && run.stats);
        assert_eq!(run.max_models, Some(100));
        assert_eq!(run.threads, Some(4));
        assert!(!run.profile && run.profile_json.is_none() && !run.profile_time);
    }

    #[test]
    fn parses_profile_flags() {
        let args = parse(&[
            "run",
            "p.idl",
            "--output",
            "q",
            "--profile",
            "--profile-json",
            "out.json",
            "--profile-time",
        ])
        .unwrap();
        let Command::Run(run) = args.command else {
            panic!("expected run");
        };
        assert!(run.profile && run.profile_time);
        assert_eq!(run.profile_json.as_deref(), Some("out.json"));
        assert!(parse(&["run", "p.idl", "--output", "q", "--profile-json"]).is_err());
    }

    #[test]
    fn parses_explain_command() {
        let args = parse(&[
            "explain",
            "p.idl",
            "--facts",
            "f.idl",
            "--analyze",
            "--seed",
            "3",
            "--threads",
            "2",
        ])
        .unwrap();
        let Command::Explain {
            program,
            facts,
            analyze,
            seed,
            threads,
        } = args.command
        else {
            panic!("expected explain");
        };
        assert_eq!(program, "p.idl");
        assert_eq!(facts.as_deref(), Some("f.idl"));
        assert!(analyze);
        assert_eq!(seed, Some(3));
        assert_eq!(threads, Some(2));
        assert!(parse(&["explain"]).is_err());
        assert!(parse(&["explain", "p.idl", "--nope"]).is_err());
    }

    #[test]
    fn parses_limit_flags() {
        let args = parse(&[
            "run",
            "p.idl",
            "--output",
            "q",
            "--timeout",
            "500ms",
            "--max-rounds",
            "16",
            "--max-tuples",
            "1000",
        ])
        .unwrap();
        let Command::Run(run) = args.command else {
            panic!("expected run");
        };
        assert_eq!(run.timeout, Some(Duration::from_millis(500)));
        assert_eq!(run.max_rounds, Some(16));
        assert_eq!(run.max_tuples, Some(1000));
        assert!(parse(&["run", "p.idl", "--output", "q", "--timeout", "soon"]).is_err());
        assert!(parse(&["run", "p.idl", "--output", "q", "--max-tuples", "-1"]).is_err());
    }

    #[test]
    fn duration_grammar() {
        assert_eq!(parse_duration("500ms").unwrap(), Duration::from_millis(500));
        assert_eq!(parse_duration("2s").unwrap(), Duration::from_secs(2));
        assert_eq!(parse_duration("1m").unwrap(), Duration::from_secs(60));
        assert_eq!(parse_duration("3").unwrap(), Duration::from_secs(3));
        assert_eq!(parse_duration("0.5s").unwrap(), Duration::from_millis(500));
        assert_eq!(parse_duration("1.5").unwrap(), Duration::from_millis(1500));
        assert!(parse_duration("").is_err());
        assert!(parse_duration("-1s").is_err());
        assert!(parse_duration("fast").is_err());
        assert!(parse_duration("nans").is_err());
    }

    #[test]
    fn usage_documents_exit_codes() {
        for needle in ["EXIT CODES", "--timeout", "--max-rounds", "--max-tuples"] {
            assert!(USAGE.contains(needle), "usage lost {needle}");
        }
    }

    #[test]
    fn parses_strategy_flag() {
        let args = parse(&["run", "p.idl", "--output", "q", "--strategy", "magic"]).unwrap();
        let Command::Run(run) = args.command else {
            panic!("expected run");
        };
        assert_eq!(run.strategy, Some(Strategy::Magic));
        for (name, want) in [
            ("seminaive", Strategy::SemiNaive),
            ("naive", Strategy::Naive),
        ] {
            let args = parse(&["run", "p.idl", "--output", "q", "--strategy", name]).unwrap();
            let Command::Run(run) = args.command else {
                panic!("expected run");
            };
            assert_eq!(run.strategy, Some(want));
        }
        assert!(parse(&["run", "p.idl", "--output", "q", "--strategy", "earley"]).is_err());
        assert!(parse(&["run", "p.idl", "--output", "q", "--strategy"]).is_err());
        let args = parse(&["run", "p.idl", "--output", "q"]).unwrap();
        let Command::Run(run) = args.command else {
            panic!("expected run");
        };
        assert_eq!(run.strategy, None, "default is the engine's seminaive");
        assert!(USAGE.contains("--strategy"), "usage lost --strategy");
    }

    #[test]
    fn threads_must_be_positive() {
        assert!(parse(&["run", "p.idl", "--output", "q", "--threads", "0"]).is_err());
        assert!(parse(&["run", "p.idl", "--output", "q", "--threads", "x"]).is_err());
        let args = parse(&["run", "p.idl", "--output", "q"]).unwrap();
        let Command::Run(run) = args.command else {
            panic!("expected run");
        };
        assert_eq!(run.threads, None, "default is auto");
    }

    #[test]
    fn run_requires_output() {
        assert!(parse(&["run", "p.idl"]).is_err());
    }

    #[test]
    fn check_takes_one_path() {
        assert!(parse(&["check", "p.idl"]).is_ok());
        assert!(parse(&["check"]).is_err());
        assert!(parse(&["check", "a", "b"]).is_err());
    }

    #[test]
    fn lint_takes_many_paths_and_deny_flag() {
        let args = parse(&["lint", "a.idl", "b.idl", "--deny-warnings"]).unwrap();
        let Command::Lint {
            programs,
            deny_warnings,
            json,
            allow,
        } = args.command
        else {
            panic!("expected lint");
        };
        assert_eq!(programs, vec!["a.idl", "b.idl"]);
        assert!(deny_warnings);
        assert!(!json && allow.is_empty());
        assert!(parse(&["lint"]).is_err());
        assert!(parse(&["lint", "--deny-warnings"]).is_err());
        assert!(parse(&["lint", "a.idl", "--nope"]).is_err());
    }

    #[test]
    fn lint_json_and_allow_flags() {
        let args = parse(&[
            "lint", "a.idl", "--json", "--allow", "W010", "--allow", "w011",
        ])
        .unwrap();
        let Command::Lint { json, allow, .. } = args.command else {
            panic!("expected lint");
        };
        assert!(json);
        assert_eq!(allow, vec!["W010", "w011"]);
        assert!(parse(&["lint", "a.idl", "--allow"]).is_err());
    }

    #[test]
    fn unknown_bits_are_errors() {
        assert!(parse(&["frobnicate"]).is_err());
        assert!(parse(&["run", "p.idl", "--output", "q", "--nope"]).is_err());
        assert!(parse(&["run", "--output", "q"]).is_err());
    }

    #[test]
    fn parses_serve_and_client() {
        let args = parse(&["serve"]).unwrap();
        let Command::Serve {
            listen,
            workers,
            data_dir,
            sync,
            checkpoint_every,
            queue_depth,
        } = args.command
        else {
            panic!("expected serve");
        };
        assert_eq!(listen, "127.0.0.1:7421");
        assert_eq!(workers, 16);
        assert_eq!(data_dir, None);
        assert_eq!(sync, idlog_server::SyncPolicy::Batch);
        assert_eq!(checkpoint_every, idlog_server::DEFAULT_CHECKPOINT_EVERY);
        assert_eq!(queue_depth, idlog_server::DEFAULT_QUEUE_DEPTH);
        let args = parse(&["serve", "--listen", "0.0.0.0:9000", "--workers", "4"]).unwrap();
        let Command::Serve {
            listen, workers, ..
        } = args.command
        else {
            panic!("expected serve");
        };
        assert_eq!(listen, "0.0.0.0:9000");
        assert_eq!(workers, 4);
        assert!(parse(&["serve", "--workers", "0"]).is_err());
        assert!(parse(&["serve", "--nope"]).is_err());

        let args = parse(&["client", "127.0.0.1:7421", r#"{"op":"ping"}"#]).unwrap();
        let Command::Client {
            addr,
            request,
            retries,
            backoff_ms,
        } = args.command
        else {
            panic!("expected client");
        };
        assert_eq!(addr, "127.0.0.1:7421");
        assert_eq!(request, r#"{"op":"ping"}"#);
        assert_eq!(retries, 0, "retry is opt-in");
        assert_eq!(backoff_ms, 50);
        assert!(parse(&["client"]).is_err());
        assert!(parse(&["client", "addr"]).is_err());
    }

    #[test]
    fn parses_durability_and_admission_flags() {
        let args = parse(&[
            "serve",
            "--data-dir",
            "/var/lib/idlog",
            "--sync",
            "always",
            "--checkpoint-every",
            "256",
            "--queue-depth",
            "8",
        ])
        .unwrap();
        let Command::Serve {
            data_dir,
            sync,
            checkpoint_every,
            queue_depth,
            ..
        } = args.command
        else {
            panic!("expected serve");
        };
        assert_eq!(data_dir.as_deref(), Some("/var/lib/idlog"));
        assert_eq!(sync, idlog_server::SyncPolicy::Always);
        assert_eq!(checkpoint_every, 256);
        assert_eq!(queue_depth, 8);
        for policy in ["always", "batch", "never"] {
            assert!(parse(&["serve", "--sync", policy]).is_ok(), "{policy}");
        }
        assert!(parse(&["serve", "--sync", "sometimes"]).is_err());
        assert!(parse(&["serve", "--checkpoint-every", "0"]).is_err());
        assert!(parse(&["serve", "--queue-depth", "0"]).is_err());

        let args = parse(&[
            "client",
            "--retries",
            "5",
            "--backoff-ms",
            "20",
            "127.0.0.1:7421",
            r#"{"op":"ping"}"#,
        ])
        .unwrap();
        let Command::Client {
            retries,
            backoff_ms,
            ..
        } = args.command
        else {
            panic!("expected client");
        };
        assert_eq!(retries, 5);
        assert_eq!(backoff_ms, 20);
        assert!(parse(&["client", "--backoff-ms", "0", "a", "b"]).is_err());
    }

    #[test]
    fn usage_documents_the_service() {
        for needle in [
            "serve",
            "client",
            "--listen",
            "--workers",
            "--data-dir",
            "--sync",
            "--checkpoint-every",
            "--queue-depth",
            "--retries",
            "--backoff-ms",
            "idlog-service/2",
        ] {
            assert!(USAGE.contains(needle), "usage lost {needle}");
        }
    }

    #[test]
    fn help_variants() {
        for h in [["help"], ["--help"], ["-h"]] {
            assert!(matches!(parse(&h).unwrap().command, Command::Help));
        }
    }
}
