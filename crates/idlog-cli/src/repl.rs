//! The interactive session: enter clauses and facts, ask queries.
//!
//! ```text
//! idlog> emp(ann, sales).                  % ground fact -> database
//! idlog> pick(N) :- emp[2](N, D, 0).       % rule -> program
//! idlog> ?- pick.                          % one answer (current oracle)
//! idlog> :all pick                         % the full answer set
//! idlog> :seed 42                          % switch to a seeded oracle
//! idlog> :list                             % show program and facts
//! idlog> :quit
//! ```
//!
//! The REPL is generic over reader/writer so tests can drive it with
//! strings.

use std::io::{BufRead, Write};
use std::sync::Arc;
use std::time::Duration;

use idlog_core::{EnumBudget, Interner, Query, Strategy, ValidatedProgram};
use idlog_storage::Database;

use crate::args::{parse_duration, parse_strategy_name};
use crate::{options_for, oracle_for, signal};

/// REPL state: accumulated rule sources and the fact database.
///
/// Robustness contract: a failed evaluation (limit trip, Ctrl-C, arithmetic
/// overflow, even a contained engine panic) reports an `error:` line and
/// leaves every piece of this state — rules, facts, `:seed`, `:threads`,
/// `:profile`, `:timeout`, `:strategy` — exactly as it was.
struct Session {
    interner: Arc<Interner>,
    rules: Vec<String>,
    db: Database,
    seed: Option<u64>,
    threads: Option<usize>,
    profile: bool,
    timeout: Option<Duration>,
    strategy: Strategy,
}

/// Run the REPL until `:quit` or end of input.
pub fn run(input: &mut dyn BufRead, out: &mut dyn Write) -> Result<(), String> {
    let interner = Arc::new(Interner::new());
    let mut session = Session {
        db: Database::with_interner(Arc::clone(&interner)),
        interner,
        rules: Vec::new(),
        seed: None,
        threads: None,
        profile: false,
        timeout: None,
        strategy: Strategy::default(),
    };
    let io = |e: std::io::Error| format!("i/o error: {e}");

    writeln!(out, "idlog interactive session — :help for commands").map_err(io)?;
    loop {
        write!(out, "idlog> ").map_err(io)?;
        out.flush().map_err(io)?;
        let mut line = String::new();
        if input.read_line(&mut line).map_err(io)? == 0 {
            writeln!(out).map_err(io)?;
            return Ok(());
        }
        let line = line.trim();
        if line.is_empty() || line.starts_with('%') {
            continue;
        }
        match session.step(line) {
            Ok(Reply::Quit) => return Ok(()),
            Ok(Reply::Text(t)) => {
                if !t.is_empty() {
                    writeln!(out, "{t}").map_err(io)?;
                }
            }
            Err(msg) => writeln!(out, "error: {msg}").map_err(io)?,
        }
    }
}

enum Reply {
    Text(String),
    Quit,
}

const HELP: &str = "\
  <fact>.            add a ground fact, e.g. emp(ann, sales).
  <head> :- <body>.  add a rule
  ?- <pred>.         evaluate one answer for <pred>
  :all <pred>        enumerate the full answer set
  :seed <n>          use a seeded random oracle (\":seed off\" for canonical)
  :threads <n>       worker threads for evaluation (\":threads auto\" for the
                     default; answers never depend on the thread count)
  :profile on|off    print the per-rule evaluation profile after ?- queries
  :strategy <name>   evaluation strategy: seminaive (default), naive, or
                     magic (goal-directed; refused with a witness when the
                     relevance analysis cannot certify the query)
  :timeout <dur>     wall-clock budget per query, e.g. 500ms, 2s
                     (\":timeout off\" to lift it); Ctrl-C also stops a
                     running query — session state survives either way
  :list              show the current program and fact counts
  :analyze           determinism, termination, and goal-directed relevance
                     certificates for the accumulated rules
  :help              this text
  :quit              leave";

impl Session {
    fn step(&mut self, line: &str) -> Result<Reply, String> {
        if let Some(cmd) = line.strip_prefix(':') {
            return self.command(cmd.trim());
        }
        if let Some(query) = line.strip_prefix("?-") {
            let pred = query.trim().trim_end_matches('.').trim();
            return self.query(pred, false);
        }
        self.add_clause(line)
    }

    fn command(&mut self, cmd: &str) -> Result<Reply, String> {
        let (word, rest) = cmd.split_once(' ').unwrap_or((cmd, ""));
        match word {
            "quit" | "q" | "exit" => Ok(Reply::Quit),
            "help" | "h" => Ok(Reply::Text(HELP.to_string())),
            "list" | "l" => {
                let mut text = String::new();
                for r in &self.rules {
                    text.push_str(r);
                    text.push('\n');
                }
                for name in self.db.predicate_names() {
                    let n = self.db.relation(&name).map_or(0, |r| r.len());
                    text.push_str(&format!("% {name}: {n} fact(s)\n"));
                }
                Ok(Reply::Text(text.trim_end().to_string()))
            }
            "seed" => {
                let rest = rest.trim();
                if rest == "off" || rest.is_empty() {
                    self.seed = None;
                    Ok(Reply::Text("oracle: canonical".into()))
                } else {
                    let n: u64 = rest
                        .parse()
                        .map_err(|_| ":seed expects a number or `off`")?;
                    self.seed = Some(n);
                    Ok(Reply::Text(format!("oracle: seeded({n})")))
                }
            }
            "threads" => {
                let rest = rest.trim();
                if rest == "auto" || rest.is_empty() {
                    self.threads = None;
                    Ok(Reply::Text("threads: auto".into()))
                } else {
                    let n: usize = rest
                        .parse()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or(":threads expects a positive number or `auto`")?;
                    self.threads = Some(n);
                    Ok(Reply::Text(format!("threads: {n}")))
                }
            }
            "profile" => {
                let rest = rest.trim();
                match rest {
                    "on" => self.profile = true,
                    "off" => self.profile = false,
                    "" => self.profile = !self.profile,
                    _ => return Err(":profile expects `on` or `off`".into()),
                }
                Ok(Reply::Text(format!(
                    "profile: {}",
                    if self.profile { "on" } else { "off" }
                )))
            }
            "timeout" => {
                let rest = rest.trim();
                if rest == "off" || rest.is_empty() {
                    self.timeout = None;
                    Ok(Reply::Text("timeout: off".into()))
                } else {
                    let d = parse_duration(rest).map_err(|e| format!(":timeout: {e}"))?;
                    self.timeout = Some(d);
                    Ok(Reply::Text(format!("timeout: {}ms", d.as_millis())))
                }
            }
            "strategy" => {
                let rest = rest.trim();
                if !rest.is_empty() {
                    self.strategy =
                        parse_strategy_name(rest).map_err(|e| format!(":strategy: {e}"))?;
                }
                Ok(Reply::Text(format!("strategy: {}", self.strategy)))
            }
            "analyze" => self.analyze(),
            "all" | "a" => self.query(rest.trim().trim_end_matches('.').trim(), true),
            other => Err(format!("unknown command :{other} (try :help)")),
        }
    }

    /// `:analyze`: determinism and termination certificates for the
    /// accumulated rules, against the facts loaded so far.
    fn analyze(&self) -> Result<Reply, String> {
        if self.rules.is_empty() {
            return Ok(Reply::Text("no rules to analyze yet".into()));
        }
        let program = ValidatedProgram::parse(&self.rules.join("\n"), Arc::clone(&self.interner))
            .map_err(|e| e.to_string())?;
        let taint = idlog_core::analyze_taint(program.ast());
        let cert = idlog_core::analyze_termination(program.ast());
        let mut derived: Vec<String> = program
            .idb()
            .iter()
            .map(|&p| self.interner.resolve(p))
            .collect();
        derived.sort();
        let mut text = String::new();
        for name in &derived {
            let Some(id) = self.interner.get(name) else {
                continue;
            };
            let det = if taint.deterministic(id) {
                "deterministic"
            } else {
                "possibly non-deterministic"
            };
            let kind = cert.recursion_kind(id);
            text.push_str(&format!("{name}: {det}, {} recursion", kind.as_str()));
            if !cert.pred_bounded(id) {
                text.push_str(", possibly unbounded");
            }
            text.push('\n');
        }
        if cert.bounded() {
            match cert.round_bound(&self.db) {
                Some(b) => text.push_str(&format!(
                    "termination: certified bounded; round ceiling {b} for the current facts"
                )),
                None => text.push_str("termination: certified bounded"),
            }
        } else if cert.growth_witness().is_some() {
            text.push_str(
                "termination: possibly diverging (run `idlog lint` for the W020 witness)",
            );
        } else {
            text.push_str("termination: not certified (outside the analyzed fragment)");
        }
        text.push('\n');
        // Relevance: would `:strategy magic` accept a query at each root?
        let bodies = program.ast().body_predicates();
        let mut seen = std::collections::HashSet::new();
        for clause in &program.ast().clauses {
            for head in &clause.head {
                let root = head.atom.pred.base();
                if bodies.contains(&root) || !seen.insert(root) {
                    continue;
                }
                let name = self.interner.resolve(root);
                let analysis = idlog_core::analyze_relevance(program.ast(), root);
                let line = if let Some(r) = analysis.refusal() {
                    match r.reason {
                        idlog_core::RefusalReason::Floundering => format!(
                            "relevance: {name} refuses magic (flounders under the \
                             left-to-right SIPS, W030)"
                        ),
                        idlog_core::RefusalReason::ChoiceSite => format!(
                            "relevance: {name} refuses magic (blocked by a choice \
                             site, W031)"
                        ),
                    }
                } else if analysis.is_point_query() {
                    let adorned: Vec<String> = analysis
                        .adorned()
                        .iter()
                        .map(|a| a.display(&self.interner))
                        .collect();
                    format!(
                        "relevance: {name} is a certified point query (H020); \
                         reaches {}",
                        adorned.join(", ")
                    )
                } else {
                    format!("relevance: {name} has no bound positions; magic would not prune")
                };
                text.push_str(&line);
                text.push('\n');
            }
        }
        Ok(Reply::Text(text.trim_end().to_string()))
    }

    fn add_clause(&mut self, line: &str) -> Result<Reply, String> {
        let clause = idlog_parser::parse_clause(line, &self.interner).map_err(|e| e.to_string())?;
        if clause.is_fact() {
            // Ground fact: straight into the database.
            idlog_core::load_facts(line, &mut self.db).map_err(|e| e.to_string())?;
            return Ok(Reply::Text(String::new()));
        }
        // Rule: validate the whole accumulated program before accepting.
        let mut rules = self.rules.clone();
        rules.push(line.to_string());
        ValidatedProgram::parse(&rules.join("\n"), Arc::clone(&self.interner))
            .map_err(|e| e.to_string())?;
        self.rules = rules;
        Ok(Reply::Text(String::new()))
    }

    fn query(&mut self, pred: &str, all: bool) -> Result<Reply, String> {
        if pred.is_empty() {
            return Err("query needs a predicate name".into());
        }
        let program = ValidatedProgram::parse(&self.rules.join("\n"), Arc::clone(&self.interner))
            .map_err(|e| e.to_string())?;
        let query = Query::new(program, pred).map_err(|e| e.to_string())?;
        let mut options = options_for(self.threads).strategy(self.strategy);
        if let Some(t) = self.timeout {
            options = options.deadline(t);
        }
        // A fresh token per query: a Ctrl-C from a previous (finished)
        // evaluation must not cancel this one.
        let token = signal::token();
        token.reset();
        if all {
            let answers = query
                .session(&self.db)
                .options(options.budget(EnumBudget::default()))
                .cancel_token(token)
                .all_answers()
                .map_err(|e| e.to_string())?;
            let note = match answers.stopped() {
                None => String::new(),
                Some(reason) => format!(" ({reason}; incomplete)"),
            };
            let mut text = format!(
                "{} answer(s) from {} model(s){}:",
                answers.len(),
                answers.models_explored(),
                note
            );
            for ans in answers.to_sorted_strings(&self.interner) {
                text.push_str(&format!("\n  {{{}}}", ans.join(", ")));
            }
            Ok(Reply::Text(text))
        } else {
            let mut oracle = oracle_for(self.seed);
            let result = query
                .session(&self.db)
                .options(options.profile(self.profile))
                .cancel_token(token)
                .run_with(oracle.as_mut())
                .map_err(|e| e.to_string())?;
            let mut text = String::new();
            if result.relation.is_empty() {
                text.push_str("(empty)\n");
            }
            for t in result.relation.sorted_canonical(&self.interner) {
                text.push_str(&format!("{pred}{}\n", t.display(&self.interner)));
            }
            if let Some(profile) = &result.profile {
                text.push_str(&profile.render_table(false));
            }
            Ok(Reply::Text(text.trim_end().to_string()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(script: &str) -> String {
        let mut input = std::io::Cursor::new(script.to_string());
        let mut out: Vec<u8> = Vec::new();
        run(&mut input, &mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn facts_rules_and_query() {
        let out = drive(
            "emp(ann, sales).\n\
             emp(bob, sales).\n\
             pick(N) :- emp[2](N, D, 0).\n\
             ?- pick.\n\
             :quit\n",
        );
        assert!(out.contains("pick(ann)"), "{out}");
    }

    #[test]
    fn all_answers_command() {
        let out = drive("item(a).\nitem(b).\npick(X) :- item[](X, 0).\n:all pick\n:quit\n");
        assert!(out.contains("2 answer(s)"), "{out}");
        assert!(out.contains("{(a)}"), "{out}");
        assert!(out.contains("{(b)}"), "{out}");
    }

    #[test]
    fn analyze_reports_certificates() {
        let out = drive(
            "e(a, b).\ne(b, c).\n\
             tc(X, Y) :- e(X, Y).\n\
             tc(X, Z) :- tc(X, Y), e(Y, Z).\n\
             :analyze\n\
             :quit\n",
        );
        assert!(out.contains("tc: deterministic, linear recursion"), "{out}");
        assert!(out.contains("certified bounded; round ceiling"), "{out}");

        let growing = drive(
            "n(0).\n\
             n(M) :- n(N), succ(N, M).\n\
             :analyze\n\
             :quit\n",
        );
        assert!(growing.contains("possibly unbounded"), "{growing}");
        assert!(growing.contains("possibly diverging"), "{growing}");

        let empty = drive(":analyze\n:quit\n");
        assert!(empty.contains("no rules to analyze yet"), "{empty}");
    }

    #[test]
    fn strategy_switching_and_magic_query() {
        let out = drive(
            "parent(a, b).\nparent(b, c).\nparent(x, y).\n\
             anc(X, Y) :- parent(X, Y).\n\
             anc(X, Z) :- anc(X, Y), parent(Y, Z).\n\
             q(Y) :- anc(a, Y).\n\
             :strategy magic\n\
             ?- q.\n\
             :strategy\n\
             :strategy seminaive\n\
             :strategy earley\n\
             :quit\n",
        );
        assert!(out.contains("strategy: magic"), "{out}");
        assert!(out.contains("q(b)") && out.contains("q(c)"), "{out}");
        assert!(!out.contains("q(y)"), "irrelevant fact derived: {out}");
        assert!(out.contains("strategy: seminaive"), "{out}");
        assert!(out.contains("error: :strategy:"), "{out}");
        // The bare `:strategy` after switching reports the current value.
        assert_eq!(out.matches("strategy: magic").count(), 2, "{out}");
    }

    #[test]
    fn magic_refusal_is_an_error_line_and_state_survives() {
        let out = drive(
            "likes(ann, tea).\nlikes(bob, mud).\n\
             pick(X, Y) :- likes[1](X, Y, 0).\n\
             q(Y) :- pick(ann, Y).\n\
             :strategy magic\n\
             ?- q.\n\
             :strategy seminaive\n\
             ?- q.\n\
             :quit\n",
        );
        assert!(out.contains("error:"), "{out}");
        assert!(out.contains("choice site"), "{out}");
        assert!(out.contains("witness"), "{out}");
        assert!(out.contains("q(tea)"), "retry after refusal failed: {out}");
    }

    #[test]
    fn analyze_reports_relevance() {
        let out = drive(
            "parent(a, b).\n\
             anc(X, Y) :- parent(X, Y).\n\
             anc(X, Z) :- anc(X, Y), parent(Y, Z).\n\
             q(Y) :- anc(a, Y).\n\
             :analyze\n\
             :quit\n",
        );
        assert!(
            out.contains("relevance: q is a certified point query (H020)"),
            "{out}"
        );
        assert!(out.contains("reaches anc^bf"), "{out}");
    }

    #[test]
    fn seed_switching_and_list() {
        let out = drive("item(a).\n:seed 7\n:list\n:seed off\n:quit\n");
        assert!(out.contains("oracle: seeded(7)"), "{out}");
        assert!(out.contains("% item: 1 fact(s)"), "{out}");
        assert!(out.contains("oracle: canonical"), "{out}");
    }

    #[test]
    fn threads_switching_and_query() {
        let out = drive(
            "e(a, b).\ne(b, c).\n\
             tc(X, Y) :- e(X, Y).\n\
             tc(X, Y) :- e(X, Z), tc(Z, Y).\n\
             :threads 4\n\
             ?- tc.\n\
             :threads auto\n\
             :threads 0\n\
             :quit\n",
        );
        assert!(out.contains("threads: 4"), "{out}");
        assert!(out.contains("tc(a, c)") || out.contains("tc(a,c)"), "{out}");
        assert!(out.contains("threads: auto"), "{out}");
        assert!(out.contains("error:"), "{out}");
    }

    #[test]
    fn profile_toggle_prints_table_after_queries() {
        let out = drive(
            "emp(ann, sales).\n\
             emp(bob, sales).\n\
             pick(N) :- emp[2](N, D, 0).\n\
             :profile on\n\
             ?- pick.\n\
             :profile off\n\
             ?- pick.\n\
             :profile nope\n\
             :quit\n",
        );
        assert!(out.contains("profile: on"), "{out}");
        assert!(out.contains("evaluation profile"), "{out}");
        assert!(out.contains("totals: instantiations="), "{out}");
        assert!(out.contains("profile: off"), "{out}");
        assert!(out.contains("error: :profile expects"), "{out}");
        // After switching off, only one table was printed.
        assert_eq!(out.matches("evaluation profile").count(), 1, "{out}");
    }

    #[test]
    fn timeout_set_and_clear() {
        let out = drive(
            "item(a).\n\
             pick(X) :- item[](X, 0).\n\
             :timeout 2s\n\
             ?- pick.\n\
             :timeout off\n\
             :timeout soon\n\
             :quit\n",
        );
        assert!(out.contains("timeout: 2000ms"), "{out}");
        assert!(out.contains("pick(a)"), "{out}");
        assert!(out.contains("timeout: off"), "{out}");
        assert!(out.contains("error: :timeout:"), "{out}");
    }

    #[test]
    fn timeout_trip_reports_error_and_keeps_state() {
        // A diverging program: with a zero wall-clock budget the query must
        // come back as an `error:` line, and the session must still answer
        // other queries with its settings intact.
        let out = drive(
            "count(0).\n\
             count(M) :- count(N), plus(N, 1, M).\n\
             item(a).\n\
             pick(X) :- item[](X, 0).\n\
             :threads 2\n\
             :timeout 0ms\n\
             ?- count.\n\
             :timeout off\n\
             :profile on\n\
             ?- pick.\n\
             :list\n\
             :quit\n",
        );
        assert!(out.contains("error:"), "{out}");
        assert!(out.contains("profile: on"), "{out}");
        assert!(out.contains("pick(a)"), "{out}");
        assert!(out.contains("evaluation profile"), "{out}");
        assert!(out.contains("% item: 1 fact(s)"), "{out}");
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let out = drive(
            "this is not valid ???\n\
             item(a).\n\
             ?- missing.\n\
             :quit\n",
        );
        assert!(out.contains("error:"), "{out}");
    }

    #[test]
    fn eof_ends_the_session() {
        let out = drive("item(a).\n");
        assert!(out.contains("idlog>"), "{out}");
    }

    #[test]
    fn bad_rule_is_rejected_and_not_kept() {
        let out = drive(
            "p(X, Y) :- q(X).\n\
             q(a).\n\
             p2(X) :- q(X).\n\
             ?- p2.\n\
             :quit\n",
        );
        assert!(out.contains("error:"), "{out}");
        assert!(out.contains("p2(a)"), "{out}");
    }
}
