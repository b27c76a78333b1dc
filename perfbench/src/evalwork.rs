//! The batch workloads: fresh `Session::run` evaluations at one thread.
//!
//! * `eval-closure`: left- and right-recursive linear transitive closure
//!   on a chain, and nonlinear closure on a sparse random DAG.
//! * `eval-idlog`: the paper's ID-literal programs (§3.3 n-sampling, §4
//!   `all_depts` plain and rewritten, `dept_sizes`) over a skewed
//!   `emp(Name, Dept)`.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;

use idlog_core::{
    parse_program, Database, EvalResult, EvalStats, Interner, Query, Relation, Tuple,
    ValidatedProgram, Value,
};
use idlog_optimizer::to_id_program;
use idlog_storage::{group_by, make_id_relation, IdAssignment};

use crate::gen::{self, Rng};
use crate::report::{least_stolen, least_stolen_median, median, peak_rss_mb, quantile, Ticks};
use crate::trace::Tracer;
use crate::{Opts, Outcome};

const TC_LEFT: &str = "t(X, Y) :- e(X, Y).\nt(X, Y) :- t(X, Z), e(Z, Y).\n";
const TC_RIGHT: &str = "t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, Z), t(Z, Y).\n";
const TC_NONLINEAR: &str = "t(X, Y) :- e(X, Y).\nt(X, Y) :- t(X, Z), t(Z, Y).\n";
const SAMPLING: &str = "select_two_emp(N) :- emp[2](N, _D, T), T < 2.\n";
const ALL_DEPTS: &str = "all_depts(D) :- emp(_N, D).\n";
const DEPT_SIZES: &str = "has_two(D) :- emp[2](_N, D, T), T = 1.\n\
                          singleton(D) :- emp[2](_N, D, 0), not has_two(D).\n";

/// The programs each batch workload times, in pass order.
pub const CLOSURE_PROGRAMS: [&str; 3] = ["tc_left", "tc_right", "tc_nonlinear"];
pub const IDLOG_PROGRAMS: [&str; 4] = ["sampling", "all_depts_plain", "all_depts_id", "dept_sizes"];

/// One timed program: a query over one of the workload's databases.
struct Case {
    name: &'static str,
    query: Query,
    db: usize,
}

/// Everything set-up produces: databases, prepared queries, and what the
/// output checks need to know about the generated inputs.
struct Bench {
    dbs: Vec<Database>,
    cases: Vec<Case>,
    /// Extra queries evaluated once, outside timing, by the checks.
    check_queries: Vec<Case>,
    facts: Facts,
}

enum Facts {
    Closure {
        chain_edges: usize,
    },
    Idlog {
        dept_of: HashMap<String, String>,
        sizes: BTreeMap<String, usize>,
    },
}

#[derive(Debug, Clone, Copy)]
pub struct ClosureSize {
    pub chain_edges: usize,
    pub dag_nodes: usize,
    pub dag_blocks: usize,
    pub dag_window: usize,
    pub dag_extra: f64,
}

#[derive(Debug, Clone, Copy)]
pub struct IdlogSize {
    pub employees: usize,
    pub skewed_depts: usize,
    pub singleton_depts: usize,
}

fn sym_tuple(interner: &Interner, cols: &[&str]) -> Tuple {
    cols.iter()
        .map(|c| Value::Sym(interner.intern(c)))
        .collect()
}

fn prepare(
    tracer: &mut Option<&mut Tracer>,
    src: &str,
    output: &str,
    interner: &Arc<Interner>,
) -> Result<Query, String> {
    let parse = || Query::parse_with_interner(src, output, Arc::clone(interner));
    let q = match tracer {
        Some(t) => t.span("query.prepare", 0, parse),
        None => parse(),
    };
    q.map_err(|e| format!("prepare {output}: {e}"))
}

/// Insert `e(a, b)` for every edge.
pub fn load_edges(db: &mut Database, edges: &[gen::Edge]) -> Result<(), String> {
    for (a, b) in edges {
        let t = sym_tuple(db.interner(), &[a, b]);
        db.insert("e", t).map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn setup_closure(
    seed: u64,
    size: ClosureSize,
    tracer: &mut Option<&mut Tracer>,
) -> Result<Bench, String> {
    let rng = Rng::new(seed);
    let chain_names = gen::node_names(&mut rng.fork(1), "node", size.chain_edges + 1);
    let dag_names = gen::node_names(&mut rng.fork(2), "g", size.dag_nodes);
    let dag = gen::sparse_dag(
        &mut rng.fork(3),
        &dag_names,
        size.dag_blocks,
        size.dag_window,
        size.dag_extra,
    );

    let chain_i = Arc::new(Interner::new());
    let mut chain_db = Database::with_interner(Arc::clone(&chain_i));
    load_edges(&mut chain_db, &gen::chain(&chain_names))?;
    let dag_i = Arc::new(Interner::new());
    let mut dag_db = Database::with_interner(Arc::clone(&dag_i));
    load_edges(&mut dag_db, &dag)?;

    let cases = vec![
        Case {
            name: CLOSURE_PROGRAMS[0],
            query: prepare(tracer, TC_LEFT, "t", &chain_i)?,
            db: 0,
        },
        Case {
            name: CLOSURE_PROGRAMS[1],
            query: prepare(tracer, TC_RIGHT, "t", &chain_i)?,
            db: 0,
        },
        Case {
            name: CLOSURE_PROGRAMS[2],
            query: prepare(tracer, TC_NONLINEAR, "t", &dag_i)?,
            db: 1,
        },
    ];
    let check_queries = vec![Case {
        name: "tc_left_dag",
        query: prepare(tracer, TC_LEFT, "t", &dag_i)?,
        db: 1,
    }];
    Ok(Bench {
        dbs: vec![chain_db, dag_db],
        cases,
        check_queries,
        facts: Facts::Closure {
            chain_edges: size.chain_edges,
        },
    })
}

fn setup_idlog(
    seed: u64,
    size: IdlogSize,
    tracer: &mut Option<&mut Tracer>,
) -> Result<Bench, String> {
    let emps = gen::employees(
        &mut Rng::new(seed).fork(4),
        size.employees,
        size.skewed_depts,
        size.singleton_depts,
    );
    let interner = Arc::new(Interner::new());
    let mut db = Database::with_interner(Arc::clone(&interner));
    let mut dept_of = HashMap::new();
    let mut sizes: BTreeMap<String, usize> = BTreeMap::new();
    for (name, dept) in &emps {
        db.insert("emp", sym_tuple(&interner, &[name, dept]))
            .map_err(|e| e.to_string())?;
        dept_of.insert(name.clone(), dept.clone());
        *sizes.entry(dept.clone()).or_default() += 1;
    }

    let plain = parse_program(ALL_DEPTS, &interner).map_err(|e| e.to_string())?;
    let output = interner.intern("all_depts");
    let rewrite = || to_id_program(&plain, output);
    let rewritten = match tracer {
        Some(t) => t.span("optimizer.rewrite", 0, rewrite),
        None => rewrite(),
    };
    let rewritten_src = rewritten.display(&interner).to_string();
    let id_query = {
        let build = || {
            ValidatedProgram::new(rewritten, Arc::clone(&interner))
                .and_then(|vp| Query::new(vp, "all_depts"))
        };
        match tracer {
            Some(t) => t.span("query.prepare", 0, build),
            None => build(),
        }
        .map_err(|e| format!("prepare rewritten all_depts: {e}"))?
    };
    if !rewritten_src.contains("emp[2](") {
        return Err(format!(
            "to_id_program did not introduce the ID-literal: {rewritten_src}"
        ));
    }

    let cases = vec![
        Case {
            name: IDLOG_PROGRAMS[0],
            query: prepare(tracer, SAMPLING, "select_two_emp", &interner)?,
            db: 0,
        },
        Case {
            name: IDLOG_PROGRAMS[1],
            query: prepare(tracer, ALL_DEPTS, "all_depts", &interner)?,
            db: 0,
        },
        Case {
            name: IDLOG_PROGRAMS[2],
            query: id_query,
            db: 0,
        },
        Case {
            name: IDLOG_PROGRAMS[3],
            query: prepare(tracer, DEPT_SIZES, "singleton", &interner)?,
            db: 0,
        },
    ];
    Ok(Bench {
        dbs: vec![db],
        cases,
        check_queries: Vec::new(),
        facts: Facts::Idlog { dept_of, sizes },
    })
}

fn run_case(bench: &Bench, case: &Case, threads: usize) -> Result<EvalResult, String> {
    case.query
        .session(&bench.dbs[case.db])
        .threads(threads)
        .run()
        .map_err(|e| format!("{}: {e}", case.name))
}

fn column(rel: &Relation, interner: &Interner, col: usize) -> Vec<String> {
    rel.iter()
        .map(|t| {
            t.get(col)
                .map(|v| v.display(interner).to_string())
                .unwrap_or_default()
        })
        .collect()
}

/// The output checks of the first pass (results in case order); each
/// failure names the program.
fn check(bench: &Bench, results: &[EvalResult]) -> Vec<String> {
    let mut failures = Vec::new();
    match (&bench.facts, results) {
        (Facts::Closure { chain_edges }, [left, right, nonlin]) => {
            let n = chain_edges + 1;
            if left.relation.len() != n * (n - 1) / 2 {
                failures.push(format!(
                    "tc_left: {} tuples on a {}-edge chain, expected {}",
                    left.relation.len(),
                    chain_edges,
                    n * (n - 1) / 2
                ));
            }
            if !left.relation.set_eq(&right.relation) {
                failures.push("tc_left and tc_right disagree on the chain".into());
            }
            match run_case(bench, &bench.check_queries[0], 1) {
                Ok(reference) if reference.relation.set_eq(&nonlin.relation) => {}
                Ok(_) => failures
                    .push("tc_nonlinear and left-recursive TC disagree on the random graph".into()),
                Err(e) => failures.push(e),
            }
        }
        (Facts::Idlog { dept_of, sizes }, [sampling, plain, id, dept_sizes]) => {
            let interner = bench.dbs[0].interner();
            if !plain.relation.set_eq(&id.relation) {
                failures.push("plain and to_id_program all_depts disagree".into());
            }
            let depts: BTreeSet<String> =
                column(&plain.relation, interner, 0).into_iter().collect();
            if depts.len() != sizes.len() || !depts.iter().all(|d| sizes.contains_key(d)) {
                failures.push("all_depts is not the set of generated departments".into());
            }
            let mut picked: BTreeMap<String, usize> = BTreeMap::new();
            for name in column(&sampling.relation, interner, 0) {
                match dept_of.get(&name) {
                    Some(d) => *picked.entry(d.clone()).or_default() += 1,
                    None => failures.push(format!("sampling picked unknown employee {name}")),
                }
            }
            let bad = sizes
                .iter()
                .filter(|(d, n)| picked.get(*d).copied().unwrap_or(0) != (**n).min(2))
                .count();
            if bad > 0 {
                failures.push(format!(
                    "sampling: {bad} department(s) without min(2, |group|) picks"
                ));
            }
            let singles: BTreeSet<String> = column(&dept_sizes.relation, interner, 0)
                .into_iter()
                .collect();
            let expected: BTreeSet<String> = sizes
                .iter()
                .filter(|(_, n)| **n == 1)
                .map(|(d, _)| d.clone())
                .collect();
            if singles != expected {
                failures.push(format!(
                    "dept_sizes: {} singleton departments, expected {}",
                    singles.len(),
                    expected.len()
                ));
            }
        }
        _ => failures.push("unexpected program mix".into()),
    }
    failures
}

/// Extra traced calls made once per traced pass: a 2-thread run of every
/// program, and on `eval-idlog` the ID-relation construction steps on
/// `emp` grouped by department.
fn traced_extras(bench: &Bench, tracer: &mut Tracer) -> Result<(), String> {
    for case in &bench.cases {
        let name = format!("eval.{}.threads2", case.name);
        tracer.span(&name, 0, || run_case(bench, case, 2))?;
    }
    match &bench.facts {
        Facts::Closure { .. } => {}
        Facts::Idlog { .. } => {
            let db = &bench.dbs[0];
            let emp = db.relation("emp").ok_or("emp missing")?;
            let interner = db.interner();
            let grouping = tracer.span("idrel.group", 0, || group_by(emp, &[1], interner));
            std::hint::black_box(grouping.group_count());
            let asg = tracer.span("idrel.assign", 0, || {
                IdAssignment::canonical(emp, &[1], interner)
            });
            let rel = tracer.span("idrel.build", 0, || make_id_relation(emp, &asg));
            let rel = rel.map_err(|e| e.to_string())?;
            if rel.len() != emp.len() {
                return Err("make_id_relation changed the tuple count".into());
            }
        }
    }
    Ok(())
}

struct Pass {
    secs: f64,
    op_ms: Vec<f64>,
    /// Share of the host's CPU ticks stolen during the pass.
    steal: f64,
}

/// One pass over the program mix; checks every result against the first
/// pass (same tuple count, identical counters).
fn pass(
    bench: &Bench,
    first: &[(usize, EvalStats)],
    tracer: &mut Option<&mut Tracer>,
    failed: &mut u64,
    failures: &mut Vec<String>,
) -> Pass {
    let (start, ticks) = (Instant::now(), Ticks::now());
    let mut op_ms = Vec::with_capacity(bench.cases.len());
    for (i, case) in bench.cases.iter().enumerate() {
        let t0 = Instant::now();
        let name = format!("eval.{}", case.name);
        let result = match tracer {
            Some(t) => t.span(&name, 0, || run_case(bench, case, 1)),
            None => run_case(bench, case, 1),
        };
        op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        match result {
            Ok(r) if (r.relation.len(), r.stats) == first[i] => {}
            Ok(_) => {
                *failed += 1;
                failures.push(format!("{}: result differs from the first pass", case.name));
            }
            Err(e) => {
                *failed += 1;
                failures.push(e);
            }
        }
    }
    Pass {
        secs: start.elapsed().as_secs_f64(),
        op_ms,
        steal: Ticks::now().steal_since(ticks),
    }
}

pub fn eval_closure(opts: &Opts, size: ClosureSize) -> Outcome {
    run(opts, |tr| setup_closure(opts.seed, size, tr))
}

pub fn eval_idlog(opts: &Opts, size: IdlogSize) -> Outcome {
    run(opts, |tr| setup_idlog(opts.seed, size, tr))
}

fn run(opts: &Opts, setup: impl Fn(&mut Option<&mut Tracer>) -> Result<Bench, String>) -> Outcome {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(Instant::now());

    // Set-up, several times; the last one is measured.
    let (mut setup_secs, mut setup_steal) = (Vec::new(), Vec::new());
    let mut bench = None;
    while opts.more_setups(&setup_secs) {
        drop(bench.take());
        let (t0, ticks) = (Instant::now(), Ticks::now());
        let mut tr = opts.trace.then_some(&mut tracer);
        match setup(&mut tr) {
            Ok(b) => bench = Some(b),
            Err(e) => {
                out.failures.push(format!("set-up failed: {e}"));
                return out;
            }
        }
        setup_secs.push(t0.elapsed().as_secs_f64());
        setup_steal.push(Ticks::now().steal_since(ticks));
    }
    let bench = bench.expect("at least one set-up");

    // First pass: warms caches and is the one the output checks read.
    let mut first = Vec::new();
    let mut results = Vec::new();
    for case in &bench.cases {
        out.attempted += 1;
        match run_case(&bench, case, 1) {
            Ok(r) => {
                first.push((r.relation.len(), r.stats));
                results.push(r);
            }
            Err(e) => {
                out.failed += 1;
                out.failures.push(e);
                return out;
            }
        }
    }
    let failures = check(&bench, &results);
    out.failed += failures.len() as u64;
    out.failures.extend(failures);

    // Measured passes. A traced run splits its time: untraced passes first,
    // then traced ones, so the tracing overhead is measured in one process.
    let budget = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let mut passes = Vec::new();
    let phase_start = Instant::now();
    while passes.len() < 3 || phase_start.elapsed().as_secs_f64() < budget {
        passes.push(pass(
            &bench,
            &first,
            &mut None,
            &mut out.failed,
            &mut out.failures,
        ));
    }
    out.attempted += (passes.len() * bench.cases.len()) as u64;

    // The figures come from the passes the host stole least from.
    let steal: Vec<f64> = passes.iter().map(|p| p.steal).collect();
    let kept: Vec<&Pass> = least_stolen(&steal).into_iter().map(|i| &passes[i]).collect();
    let op_ms: Vec<f64> = kept
        .iter()
        .flat_map(|p| p.op_ms.iter().copied())
        .collect();
    let pass_secs: Vec<f64> = kept.iter().map(|p| p.secs).collect();
    // The pooled latencies form one cluster per program, and with an even
    // number of programs their median falls on the gap between two
    // clusters; the median of the per-program medians does not.
    let program_medians: Vec<f64> = (0..bench.cases.len())
        .map(|i| median(&kept.iter().map(|p| p.op_ms[i]).collect::<Vec<_>>()))
        .collect();
    // The rate comes from the median pass, so a burst of host load that
    // slows a few passes moves it little.
    let e = &mut out.e2e;
    e.put(
        "setup_s",
        least_stolen_median(&setup_secs, &setup_steal),
        "s",
    );
    e.put("eval_s", median(&pass_secs), "s");
    e.put(
        "ops_per_s",
        bench.cases.len() as f64 / median(&pass_secs),
        "op/s",
    );
    e.put("run_p50_ms", median(&program_medians), "ms");
    e.put("run_p95_ms", quantile(&op_ms, 0.95), "ms");
    e.put("peak_rss_mb", peak_rss_mb(), "MB");
    out.notes.push(format!(
        "{} passes of {} programs, {} kept (steal {:.1}% median, {:.1}% max); setup x{}; run {}",
        passes.len(),
        bench.cases.len(),
        kept.len(),
        median(&steal) * 100.0,
        steal.iter().copied().fold(0.0, f64::max) * 100.0,
        setup_secs.len(),
        crate::report::describe(&op_ms)
    ));
    for (case, (tuples, stats)) in bench.cases.iter().zip(&first) {
        out.notes
            .push(format!("{}: {tuples} tuples; {stats}", case.name));
    }

    if opts.trace {
        let mut traced = Vec::new();
        let start = Instant::now();
        while traced.len() < 3 || start.elapsed().as_secs_f64() < budget {
            let mut tr = Some(&mut tracer);
            traced.push(pass(
                &bench,
                &first,
                &mut tr,
                &mut out.failed,
                &mut out.failures,
            ));
            out.attempted += bench.cases.len() as u64;
            if let Err(e) = traced_extras(&bench, &mut tracer) {
                out.failed += 1;
                out.failures.push(e);
            }
        }
        let traced_secs: Vec<f64> = traced.iter().map(|p| p.secs).collect();
        let traced_steal: Vec<f64> = traced.iter().map(|p| p.steal).collect();
        let l = &mut out.layers;
        for (case, &(_, s)) in bench.cases.iter().zip(&first) {
            let name = case.name;
            let key = |m: &str| format!("eval.{name}.{m}");
            l.put(
                key("ms"),
                median(&tracer.durations_ms(&format!("eval.{name}"), true)),
                "ms",
            );
            l.put(key("probes"), s.probes as f64, "count");
            l.put(key("instantiations"), s.instantiations as f64, "count");
            l.put(key("inserted"), s.inserted as f64, "count");
            l.put(key("iterations"), s.iterations as f64, "count");
            let ppi = if s.instantiations == 0 {
                0.0
            } else {
                s.probes as f64 / s.instantiations as f64
            };
            l.put(key("probes_per_inst"), ppi, "ratio");
            let two = tracer.durations_ms(&format!("eval.{name}.threads2"), true);
            if !two.is_empty() {
                let one = median(&tracer.durations_ms(&format!("eval.{name}"), true));
                l.put(key("threads2_ratio"), median(&two) / one, "ratio");
            }
        }
        let id_relations: u64 = first.iter().map(|(_, s)| s.id_relations).sum();
        l.put("eval.id_relations", id_relations as f64, "count");
        for (metric, span) in [
            ("idrel.group_ms", "idrel.group"),
            ("idrel.assign_ms", "idrel.assign"),
            ("idrel.build_ms", "idrel.build"),
            ("optimizer.rewrite_ms", "optimizer.rewrite"),
            ("query.prepare_ms", "query.prepare"),
        ] {
            l.put(metric, median(&tracer.durations_ms(span, true)), "ms");
        }
        l.put(
            "trace.overhead_ratio",
            least_stolen_median(&traced_secs, &traced_steal) / median(&pass_secs),
            "ratio",
        );
        out.trace = Some(tracer);
    }
    out
}
