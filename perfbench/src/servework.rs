//! The served workloads: an in-process `Server::bind_with` with 2 workers,
//! loaded by 2 closed-loop client connections (one thread each) on one
//! tenant.
//!
//! * `serve-read`: an in-memory tenant holding a chain; ~80% of operations
//!   are `run`s of the full closure (10^4+ answers), ~20% writes.
//! * `serve-write`: a durable tenant (`SyncPolicy::Always`, default
//!   `checkpoint_every`) holding 8 trees under 8 roots; ~70% writes, ~30%
//!   point queries `r(Y) :- t(root, Y)`, then shutdown and reopen.
//!
//! Writes toggle edges from a pool each connection owns, so every write
//! changes the database and sizes stay level. Every pool edge is visible in
//! every answer (a witness tuple), so each answer tells exactly which pool
//! edges the server had applied: that is what the per-operation checks and
//! the traced run's replay order rely on.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use idlog_core::service::{render_answers, FactValue, Request, Response, RunRequest, ServeMode};
use idlog_core::{
    Database, ErrorCode, EvalOptions, FactDelta, Interner, MaintainOutcome, Materialized, Query,
    Relation, SymbolId, Tuple, Value,
};
use idlog_server::durability::encode_record;
use idlog_server::{
    Client, Server, ServerConfig, SyncPolicy, TenantStore, WalRecord, DEFAULT_CHECKPOINT_EVERY,
};

use crate::evalwork::load_edges;
use crate::gen::{self, Rng};
use crate::report::{least_stolen, least_stolen_median, median, peak_rss_mb, quantile, Metrics, Ticks};
use crate::trace::Tracer;
use crate::{Opts, Outcome};

const TENANT: &str = "bench";
const WORKERS: usize = 2;
const CONNECTIONS: usize = 2;
const TC: &str = "t(X, Y) :- e(X, Y).\nt(X, Y) :- t(X, Z), e(Z, Y).\n";

#[derive(Debug, Clone, Copy)]
pub enum ServeSize {
    Read {
        chain_nodes: usize,
        pool_per_conn: usize,
    },
    Write {
        roots: usize,
        tree_nodes: usize,
        pool_per_conn: usize,
        cargo_len: usize,
    },
}

/// A toggled edge. While present it adds `adds` answers to every query,
/// among them `witness[q]` for query `q`.
#[derive(Debug, Clone)]
struct PoolEdge {
    from: String,
    to: String,
    owner: usize,
    adds: usize,
}

#[derive(Debug, Clone)]
struct ServedQuery {
    program: String,
    output: String,
    line: String,
    /// Answers with every pool edge absent.
    base_count: usize,
}

/// The generated tenant: base facts, the write pool, the queries, and the
/// traffic mix.
struct World {
    durable: bool,
    base: Vec<gen::Edge>,
    pool: Vec<PoolEdge>,
    /// `(insert line, retract line)` per pool edge.
    write_lines: Vec<(String, String)>,
    queries: Vec<ServedQuery>,
    /// Per query: witness answer string -> pool edge.
    witness: Vec<HashMap<String, usize>>,
    run_share: f64,
}

fn run_line(program: &str, output: &str) -> String {
    let mut r = RunRequest::new(TENANT, program, output);
    r.threads = Some(1);
    Request::Run(r).to_json()
}

fn edge_request(a: &str, b: &str, insert: bool) -> Request {
    let tuple = vec![FactValue::Sym(a.to_string()), FactValue::Sym(b.to_string())];
    let (tenant, pred) = (TENANT.to_string(), "e".to_string());
    if insert {
        Request::Insert {
            tenant,
            pred,
            tuple,
        }
    } else {
        Request::Retract {
            tenant,
            pred,
            tuple,
        }
    }
}

impl World {
    fn new(seed: u64, size: ServeSize) -> World {
        let rng = Rng::new(seed);
        let mut conn_rng = rng.fork(20);
        match size {
            ServeSize::Read {
                chain_nodes,
                pool_per_conn,
            } => {
                let names = gen::node_names(&mut rng.fork(21), "node", chain_nodes);
                let head = names[0].clone();
                // Spur sources spread evenly along the chain (with seeded
                // jitter), so answer sizes vary little from seed to seed.
                let spurs = CONNECTIONS * pool_per_conn;
                let stride = chain_nodes / spurs;
                let mut slots: Vec<usize> = (0..spurs).collect();
                conn_rng.shuffle(&mut slots);
                let mut pool = Vec::new();
                for owner in 0..CONNECTIONS {
                    for j in 0..pool_per_conn {
                        let slot = slots[owner * pool_per_conn + j];
                        let k = slot * stride + conn_rng.below(stride.max(1));
                        pool.push(PoolEdge {
                            from: names[k].clone(),
                            to: format!("s{owner}x{j}"),
                            owner,
                            adds: k + 1,
                        });
                    }
                }
                let witness = pool
                    .iter()
                    .enumerate()
                    .map(|(g, p)| (format!("{head},{}", p.to), g))
                    .collect();
                let n = chain_nodes;
                let queries = vec![ServedQuery {
                    program: TC.to_string(),
                    output: "t".to_string(),
                    line: run_line(TC, "t"),
                    base_count: n * (n - 1) / 2,
                }];
                World::finish(false, gen::chain(&names), pool, queries, vec![witness], 0.8)
            }
            ServeSize::Write {
                roots,
                tree_nodes,
                pool_per_conn,
                cargo_len,
            } => {
                let names = gen::node_names(&mut rng.fork(22), "w", roots * tree_nodes);
                let mut base = Vec::new();
                let mut root_names = Vec::new();
                let mut tree_rng = rng.fork(23);
                for r in 0..roots {
                    let node = |i: usize| names[r * tree_nodes + i].clone();
                    root_names.push(node(0));
                    for (p, c) in gen::random_tree(&mut tree_rng, tree_nodes) {
                        base.push((node(p), node(c)));
                    }
                    base.push((node(0), "hub".to_string()));
                }
                let mut pool = Vec::new();
                for owner in 0..CONNECTIONS {
                    for j in 0..pool_per_conn {
                        let cargo: Vec<String> = (0..cargo_len)
                            .map(|i| format!("c{owner}x{j}y{i}"))
                            .collect();
                        base.extend(gen::chain(&cargo));
                        pool.push(PoolEdge {
                            from: "hub".to_string(),
                            to: cargo[0].clone(),
                            owner,
                            adds: cargo_len,
                        });
                    }
                }
                let queries: Vec<ServedQuery> = root_names
                    .iter()
                    .map(|root| {
                        let program = format!("{TC}r(Y) :- t({root}, Y).\n");
                        ServedQuery {
                            line: run_line(&program, "r"),
                            program,
                            output: "r".to_string(),
                            base_count: tree_nodes,
                        }
                    })
                    .collect();
                let witness: HashMap<String, usize> = pool
                    .iter()
                    .enumerate()
                    .map(|(g, p)| (p.to.clone(), g))
                    .collect();
                let witnesses = vec![witness; queries.len()];
                World::finish(true, base, pool, queries, witnesses, 0.3)
            }
        }
    }

    fn finish(
        durable: bool,
        base: Vec<gen::Edge>,
        pool: Vec<PoolEdge>,
        queries: Vec<ServedQuery>,
        witness: Vec<HashMap<String, usize>>,
        run_share: f64,
    ) -> World {
        let write_lines = pool
            .iter()
            .map(|p| {
                (
                    edge_request(&p.from, &p.to, true).to_json(),
                    edge_request(&p.from, &p.to, false).to_json(),
                )
            })
            .collect();
        World {
            durable,
            base,
            pool,
            write_lines,
            queries,
            witness,
            run_share,
        }
    }

    /// Which pool edges an answer shows present, after checking the answer
    /// has exactly the size those edges imply.
    fn reveal(&self, q: usize, answers: &[String]) -> Result<Vec<bool>, String> {
        let mut present = vec![false; self.pool.len()];
        for a in answers {
            if let Some(&g) = self.witness[q].get(a) {
                present[g] = true;
            }
        }
        let expected = self.queries[q].base_count
            + present
                .iter()
                .zip(&self.pool)
                .filter(|(on, _)| **on)
                .map(|(_, p)| p.adds)
                .sum::<usize>();
        if answers.len() != expected {
            return Err(format!(
                "query {q}: {} answers, expected {expected} for the pool edges it shows",
                answers.len()
            ));
        }
        Ok(present)
    }

    /// The tenant's facts when `present` says which pool edges are in.
    fn facts(&self, present: &[bool]) -> Vec<gen::Edge> {
        let mut out = self.base.clone();
        for (p, on) in self.pool.iter().zip(present) {
            if *on {
                out.push((p.from.clone(), p.to.clone()));
            }
        }
        out
    }
}

/// A server running on its own thread.
struct Running {
    addr: String,
    handle: JoinHandle<std::io::Result<()>>,
}

fn start(data_dir: Option<&Path>) -> Result<Running, String> {
    let config = ServerConfig {
        data_dir: data_dir.map(Path::to_path_buf),
        sync: SyncPolicy::Always,
        ..ServerConfig::default()
    };
    let server = Server::bind_with("127.0.0.1:0", config).map_err(|e| format!("bind: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?
        .to_string();
    let handle = thread::spawn(move || server.run(WORKERS));
    Ok(Running { addr, handle })
}

fn stop(server: Running) -> Result<(), String> {
    let sent = Client::connect(&server.addr).and_then(|mut c| c.request(&Request::Shutdown));
    let joined = server.handle.join();
    sent.map_err(|e| format!("shutdown: {e}"))?;
    match joined {
        Ok(Ok(())) => Ok(()),
        Ok(Err(e)) => Err(format!("server: {e}")),
        Err(_) => Err("server thread panicked".into()),
    }
}

fn connect(addr: &str) -> Result<Client, String> {
    Client::connect(addr).map_err(|e| format!("connect: {e}"))
}

fn call(client: &mut Client, line: &str) -> Result<(String, Response), String> {
    let raw = client
        .request_raw(line)
        .map_err(|e| format!("request: {e}"))?;
    let resp = Response::parse(&raw).map_err(|e| format!("response: {e}"))?;
    Ok((raw, resp))
}

fn ok(resp: &Response) -> Result<(), String> {
    if resp.exit == 0 {
        Ok(())
    } else {
        Err(format!(
            "error {:?}: {}",
            resp.code,
            resp.error.clone().unwrap_or_default()
        ))
    }
}

/// Load the base facts over the wire and run every query once (prepare
/// plus `Materialized::build`). Returns the version after the preload.
fn preload(addr: &str, world: &World) -> Result<u64, String> {
    let mut c = connect(addr)?;
    let mut version = 0;
    for (a, b) in &world.base {
        let (_, resp) = call(&mut c, &edge_request(a, b, true).to_json())?;
        ok(&resp)?;
        if resp.changed != Some(true) {
            return Err(format!("preload of e({a}, {b}) did not change the tenant"));
        }
        version = resp.version.unwrap_or(0);
    }
    for q in 0..world.queries.len() {
        let (_, resp) = call(&mut c, &world.queries[q].line)?;
        ok(&resp)?;
        world.reveal(q, resp.answers.as_deref().unwrap_or(&[]))?;
    }
    Ok(version)
}

/// One client operation as the traced run logs it.
#[derive(Debug)]
struct OpRec {
    conn: usize,
    query: Option<usize>,
    /// Pool edge and direction of a write.
    write: Option<(usize, bool)>,
    resp_line: String,
    version: Option<u64>,
    t_send: Instant,
    t_recv: Instant,
    t_done: Instant,
}

#[derive(Debug, Default)]
struct ConnStats {
    run_ms: Vec<f64>,
    /// Completion time of every answered operation, with its latency if
    /// it was a run.
    done: Vec<(Instant, Option<f64>)>,
    write_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    overloaded: u64,
    runs: u64,
    cache_hits: u64,
    log: Vec<OpRec>,
}

impl ConnStats {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 10 {
            self.failures.push(msg);
        }
    }

    fn merge(&mut self, o: ConnStats) {
        self.run_ms.extend(o.run_ms);
        self.done.extend(o.done);
        self.write_ms.extend(o.write_ms);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.failures.extend(o.failures);
        self.overloaded += o.overloaded;
        self.runs += o.runs;
        self.cache_hits += o.cache_hits;
        self.log.extend(o.log);
    }
}

/// One closed-loop client: send, wait for the reply, check it, repeat
/// until `deadline`. `mine` is this connection's view of its own pool
/// edges (global index -> present), updated as its writes are acked.
fn client_loop(
    world: &World,
    addr: &str,
    conn: usize,
    rng: &mut Rng,
    mine: &mut [bool],
    deadline: Instant,
    log: bool,
) -> ConnStats {
    let mut st = ConnStats::default();
    let mut client = match connect(addr) {
        Ok(c) => c,
        Err(e) => {
            st.attempted += 1;
            st.fail(e);
            return st;
        }
    };
    let own: Vec<usize> = (0..world.pool.len())
        .filter(|g| world.pool[*g].owner == conn)
        .collect();
    while Instant::now() < deadline {
        let is_run = rng.unit() < world.run_share;
        let (query, write, line) = if is_run {
            let q = rng.below(world.queries.len());
            (Some(q), None, world.queries[q].line.as_str())
        } else {
            let g = own[rng.below(own.len())];
            let insert = !mine[g];
            let lines = &world.write_lines[g];
            let line = if insert { &lines.0 } else { &lines.1 };
            (None, Some((g, insert)), line.as_str())
        };
        st.attempted += 1;
        let t_send = Instant::now();
        let raw = match client.request_raw(line) {
            Ok(raw) => raw,
            Err(e) => {
                st.fail(format!("request: {e}"));
                break;
            }
        };
        let t_recv = Instant::now();
        let resp = Response::parse(&raw);
        let t_done = Instant::now();
        let ms = (t_done - t_send).as_secs_f64() * 1e3;
        st.done.push((t_done, query.map(|_| ms)));
        let resp = match resp {
            Ok(r) => r,
            Err(e) => {
                st.fail(format!("unparsable response: {e}"));
                continue;
            }
        };
        if resp.code == Some(ErrorCode::Overloaded) {
            st.overloaded += 1;
        }
        if let Err(e) = ok(&resp) {
            st.fail(e);
            continue;
        }
        if let Some(q) = query {
            st.run_ms.push(ms);
            st.runs += 1;
            st.cache_hits += u64::from(resp.cache_hit == Some(true));
            let checked = world
                .reveal(q, resp.answers.as_deref().unwrap_or(&[]))
                .and_then(|seen| {
                    if own.iter().any(|g| seen[*g] != mine[*g]) {
                        Err("an answer disagrees with this connection's own writes".into())
                    } else if resp.mode.is_none() {
                        Err("run response without a mode".into())
                    } else {
                        Ok(())
                    }
                });
            if let Err(e) = checked {
                st.fail(e);
            }
        } else if let Some((g, insert)) = write {
            st.write_ms.push(ms);
            if resp.changed != Some(true) || resp.version.is_none() {
                st.fail(format!("write {g} was not applied"));
            } else {
                mine[g] = insert;
            }
        }
        if log {
            st.log.push(OpRec {
                conn,
                query,
                write,
                version: resp.version,
                resp_line: raw,
                t_send,
                t_recv,
                t_done,
            });
        }
    }
    st
}

/// One measured phase of both connections.
struct Phase {
    st: ConnStats,
    start: Instant,
    /// Requested length; operations still in flight at its end finish after.
    secs: f64,
    /// Wall time until both connections stopped.
    wall_secs: f64,
    /// Share of the host's CPU ticks stolen in each of `WINDOWS` windows.
    steal: Vec<f64>,
}

/// Run both connections for `secs`, reading the host's CPU ticks at every
/// window boundary while they run.
fn phase(
    world: &World,
    addr: &str,
    rngs: &mut [Rng],
    present: &mut [bool],
    secs: f64,
    log: bool,
) -> Phase {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(secs);
    let mut merged = ConnStats::default();
    let mut ticks = vec![Ticks::now()];
    let results: Vec<(ConnStats, Vec<bool>)> = thread::scope(|s| {
        let handles: Vec<_> = rngs
            .iter_mut()
            .enumerate()
            .map(|(conn, rng)| {
                let mut mine = present.to_vec();
                s.spawn(move || {
                    let st = client_loop(world, addr, conn, rng, &mut mine, deadline, log);
                    (st, mine)
                })
            })
            .collect();
        for k in 1..=WINDOWS {
            let end = start + Duration::from_secs_f64(secs * k as f64 / WINDOWS as f64);
            thread::sleep(end.saturating_duration_since(Instant::now()));
            ticks.push(Ticks::now());
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_secs = start.elapsed().as_secs_f64();
    for (conn, (st, mine)) in results.into_iter().enumerate() {
        for (g, p) in world.pool.iter().enumerate() {
            if p.owner == conn {
                present[g] = mine[g];
            }
        }
        merged.merge(st);
    }
    Phase {
        st: merged,
        start,
        secs,
        wall_secs,
        steal: ticks.windows(2).map(|w| w[1].steal_since(w[0])).collect(),
    }
}

/// Windows the measured phase is cut into for the gated figures.
const WINDOWS: usize = 10;

/// The measured phase cut into `WINDOWS` equal windows by completion
/// time: each window's operation rate, run latency median and run latency
/// p95, and the median of each over the windows the host stole least CPU
/// time in. A burst of host load moves these medians little, where it
/// would move a pooled p95 or rate.
fn windowed(p: &Phase) -> (f64, f64, f64) {
    let width = p.secs / WINDOWS as f64;
    let mut ops = [0usize; WINDOWS];
    let mut runs: Vec<Vec<f64>> = vec![Vec::new(); WINDOWS];
    for &(t, run_ms) in &p.st.done {
        let k = ((t.saturating_duration_since(p.start).as_secs_f64() / width) as usize)
            .min(WINDOWS - 1);
        ops[k] += 1;
        runs[k].extend(run_ms);
    }
    let busy: Vec<usize> = (0..WINDOWS).filter(|k| !runs[*k].is_empty()).collect();
    let steal: Vec<f64> = busy.iter().map(|k| p.steal[*k]).collect();
    let kept: Vec<usize> = least_stolen(&steal).into_iter().map(|i| busy[i]).collect();
    let rate: Vec<f64> = kept.iter().map(|k| ops[*k] as f64 / width).collect();
    let p50: Vec<f64> = kept.iter().map(|k| median(&runs[*k])).collect();
    let p95: Vec<f64> = kept.iter().map(|k| quantile(&runs[*k], 0.95)).collect();
    (median(&rate), median(&p50), median(&p95))
}

/// Answers of every query, evaluated directly with a fresh `Session` over
/// the given facts.
fn direct_answers(world: &World, facts: &[gen::Edge]) -> Result<Vec<Vec<String>>, String> {
    let interner = Arc::new(Interner::new());
    let mut db = Database::with_interner(Arc::clone(&interner));
    load_edges(&mut db, facts)?;
    let queries = world
        .queries
        .iter()
        .map(|q| Query::parse_with_interner(&q.program, &q.output, Arc::clone(&interner)))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    queries
        .iter()
        .map(|q| {
            let r = q.session(&db).threads(1).run().map_err(|e| e.to_string())?;
            Ok(render_answers(&r.relation, &interner))
        })
        .collect()
}

fn served_answers(addr: &str, world: &World) -> Result<Vec<Vec<String>>, String> {
    let mut c = connect(addr)?;
    world
        .queries
        .iter()
        .map(|q| {
            let (_, resp) = call(&mut c, &q.line)?;
            ok(&resp)?;
            Ok(resp.answers.unwrap_or_default())
        })
        .collect()
}

pub fn serve(opts: &Opts, size: ServeSize) -> Outcome {
    let mut out = Outcome::default();
    let world = World::new(opts.seed, size);
    match serve_inner(opts, &world, &mut out) {
        Ok(()) => {}
        Err(e) => out.failures.push(e),
    }
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    out
}

fn serve_inner(opts: &Opts, world: &World, out: &mut Outcome) -> Result<(), String> {
    let data_root = opts.work_dir.join("data");
    let data_dir = |k: usize| world.durable.then(|| data_root.join(format!("setup{k}")));

    // Set-up, several times; the last server stays up for the measurement.
    let (mut setup_secs, mut setup_steal) = (Vec::new(), Vec::new());
    let mut server = None;
    let mut version = 0;
    let mut k = 0;
    while opts.more_setups(&setup_secs) {
        if let Some(s) = server.take() {
            stop(s)?;
            if let Some(d) = data_dir(k - 1) {
                let _ = std::fs::remove_dir_all(d);
            }
        }
        let (t0, ticks) = (Instant::now(), Ticks::now());
        let s = start(data_dir(k).as_deref())?;
        version = preload(&s.addr, world).map_err(|e| format!("set-up: {e}"))?;
        setup_secs.push(t0.elapsed().as_secs_f64());
        setup_steal.push(Ticks::now().steal_since(ticks));
        server = Some(s);
        k += 1;
    }
    let server = server.expect("at least one set-up");
    let addr = server.addr.clone();

    let mut rngs: Vec<Rng> = (0..CONNECTIONS)
        .map(|c| Rng::new(opts.seed).fork(100 + c as u64))
        .collect();
    let mut present = vec![false; world.pool.len()];
    // A traced run splits its time: an untraced half, for the tracing
    // overhead, then a traced half that the replay re-executes.
    let secs = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let measured = phase(world, &addr, &mut rngs, &mut present, secs, false);
    let (ops_per_s, run_p50, run_p95) = windowed(&measured);
    let mut st = measured.st;

    // The traced run: sync every view, then a second, logged phase that
    // the in-process replay re-executes layer by layer.
    let mut traced = None;
    if opts.trace {
        let before = present.clone();
        served_answers(&addr, world)?;
        let origin = Instant::now();
        traced = Some((
            before,
            phase(world, &addr, &mut rngs, &mut present, secs, true),
            origin,
        ));
    }

    // Final check: served answers equal a direct Session over the
    // generator's fact set.
    let served = served_answers(&addr, world)?;
    let direct = direct_answers(world, &world.facts(&present))?;
    out.attempted += served.len() as u64;
    for (q, (s, d)) in served.iter().zip(&direct).enumerate() {
        if s != d {
            out.failed += 1;
            out.failures.push(format!(
                "query {q}: served answers differ from a direct Session"
            ));
        }
    }
    stop(server)?;

    // Reopen on the same directory: recovery plus view rebuild, timed to
    // the first answered point query; the reopened tenant must answer
    // exactly as before shutdown.
    let mut restart_ms = Vec::new();
    if world.durable {
        let dir = data_dir(k - 1).expect("durable");
        for k in 0..opts.restarts {
            let t0 = Instant::now();
            let s = start(Some(&dir))?;
            let mut c = connect(&s.addr)?;
            let (_, first) = call(&mut c, &world.queries[0].line)?;
            restart_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            drop(c);
            out.attempted += 1;
            if let Err(e) = ok(&first) {
                out.failed += 1;
                out.failures.push(format!("after restart: {e}"));
            } else if k == 0 {
                let again = served_answers(&s.addr, world)?;
                if again != served {
                    out.failed += 1;
                    out.failures
                        .push("answers after the restart differ from those before shutdown".into());
                }
            }
            stop(s)?;
        }
    }

    let e = &mut out.e2e;
    e.put(
        "setup_s",
        least_stolen_median(&setup_secs, &setup_steal),
        "s",
    );
    e.put("ops_per_s", ops_per_s, "op/s");
    e.put("run_p50_ms", run_p50, "ms");
    e.put("run_p95_ms", run_p95, "ms");
    e.put("peak_rss_mb", peak_rss_mb(), "MB");
    e.put("write_p50_ms", median(&st.write_ms), "ms");
    e.put("write_p95_ms", quantile(&st.write_ms, 0.95), "ms");
    if world.durable {
        e.put("restart_ms", median(&restart_ms), "ms");
    }
    out.notes.push(format!(
        "{} runs ({}), {} writes ({}) in {:.1} s (steal {:.1}% median, {:.1}% max per window); setup x{}; restarts x{}",
        st.run_ms.len(),
        crate::report::describe(&st.run_ms),
        st.write_ms.len(),
        crate::report::describe(&st.write_ms),
        measured.wall_secs,
        median(&measured.steal) * 100.0,
        measured.steal.iter().copied().fold(0.0, f64::max) * 100.0,
        setup_secs.len(),
        restart_ms.len()
    ));

    if let Some((before, logged, origin)) = traced {
        // Spans come from the replay below, so the served traced phase
        // adds only the operation log; this compares the logged half's
        // rate with the unlogged half's.
        let overhead = ops_per_s / windowed(&logged).0;
        let tst = logged.st;
        let mut tracer = Tracer::new(origin);
        let l = &mut out.layers;
        let hits = st.cache_hits + tst.cache_hits;
        let runs = st.runs + tst.runs;
        l.put(
            "server.cache_hit_ratio",
            hits as f64 / runs.max(1) as f64,
            "ratio",
        );
        l.put(
            "server.overloaded",
            (st.overloaded + tst.overloaded) as f64,
            "count",
        );
        l.put("trace.overhead_ratio", overhead, "ratio");
        let replay_dir = opts.work_dir.join("replay");
        match replay(
            world,
            &before,
            version_at(&st, version),
            &tst,
            &replay_dir,
            &mut tracer,
            l,
        ) {
            Ok(()) => {}
            Err(e) => {
                out.failed += 1;
                out.failures.push(format!("replay: {e}"));
            }
        }
        out.trace = Some(tracer);
        st.merge(tst);
    }
    out.attempted += st.attempted;
    out.failed += st.failed;
    out.failures.extend(st.failures);
    Ok(())
}

/// The tenant version after the untraced phase: preload plus one per
/// acknowledged write.
fn version_at(st: &ConnStats, preload_version: u64) -> u64 {
    preload_version + st.write_ms.len() as u64
}

/// The server-side state the replay keeps: the tenant's database, its
/// cached views, the change log they sync from, and (durable workloads)
/// a WAL/checkpoint store in a scratch directory.
struct ReplayTenant {
    interner: Arc<Interner>,
    db: Database,
    views: Vec<Materialized>,
    synced: Vec<u64>,
    log: Vec<(SymbolId, Tuple)>,
    log_base: u64,
    version: u64,
    store: Option<TenantStore>,
}

impl ReplayTenant {
    fn delta_since(&self, from: u64) -> FactDelta {
        let mut delta = FactDelta::default();
        let mut seen = std::collections::HashSet::new();
        for (pred, tuple) in &self.log[(from - self.log_base) as usize..] {
            if !seen.insert((*pred, tuple.clone())) {
                continue;
            }
            let name = self.interner.resolve(*pred);
            if self.db.relation(&name).is_some_and(|r| r.contains(tuple)) {
                delta.inserts.push((*pred, tuple.clone()));
            } else {
                delta.retracts.push((*pred, tuple.clone()));
            }
        }
        delta
    }

    fn snapshot(&self) -> Vec<(String, Vec<FactValue>)> {
        let mut preds: Vec<(String, &Relation)> = self
            .db
            .iter()
            .map(|(id, rel)| (self.interner.resolve(id), rel))
            .collect();
        preds.sort_by(|a, b| a.0.cmp(&b.0));
        let mut out = Vec::new();
        for (name, rel) in preds {
            for t in rel.sorted_canonical(&self.interner) {
                let values = t
                    .values()
                    .iter()
                    .map(|v| match v {
                        Value::Sym(s) => FactValue::Sym(self.interner.resolve(*s)),
                        Value::Int(n) => FactValue::Int(*n),
                    })
                    .collect();
                out.push((name.clone(), values));
            }
        }
        out
    }
}

fn user_bytes(pred: &str, tuple: &[FactValue]) -> usize {
    pred.len()
        + tuple
            .iter()
            .map(|v| match v {
                FactValue::Sym(s) => s.len(),
                FactValue::Int(_) => 8,
            })
            .sum::<usize>()
}

/// The order the server applied the logged operations in, as
/// `(version, log index)` pairs: a write at the version it was acked
/// with, a run at the version whose state it observed.
///
/// Writes are ordered by version. A run could have been served at any
/// version between the last write acked before it was sent and the last
/// write sent before its reply arrived; its answers show which pool edges
/// were present, which narrows that to the versions with that state. Its
/// `mode` orders it among the runs of the same query: `materialized` means
/// the previous run of that query saw the same state, anything else that
/// it saw a different one. Runs of one connection keep their send order.
fn linearize(
    world: &World,
    start_present: &[bool],
    start_version: u64,
    st: &ConnStats,
) -> Result<Vec<(u64, usize)>, String> {
    let mut writes: Vec<usize> = (0..st.log.len())
        .filter(|i| st.log[*i].write.is_some())
        .collect();
    writes.sort_by_key(|i| st.log[*i].version);
    let mut states = vec![start_present.to_vec()];
    for (k, &i) in writes.iter().enumerate() {
        let rec = &st.log[i];
        if rec.version != Some(start_version + k as u64 + 1) {
            return Err(format!(
                "write versions are not contiguous after {start_version}: found {:?}",
                rec.version
            ));
        }
        let (g, insert) = rec.write.expect("write");
        let mut next = states[k].clone();
        next[g] = insert;
        states.push(next);
    }

    struct Pending {
        log: usize,
        query: usize,
        changed: bool,
        candidates: Vec<usize>,
    }
    let mut per_conn: Vec<std::collections::VecDeque<Pending>> =
        (0..CONNECTIONS).map(|_| Default::default()).collect();
    for (i, rec) in st.log.iter().enumerate() {
        let Some(q) = rec.query else { continue };
        let lo = writes
            .iter()
            .enumerate()
            .filter(|(_, &w)| st.log[w].t_done < rec.t_send)
            .map(|(k, _)| k + 1)
            .max()
            .unwrap_or(0);
        let hi = writes
            .iter()
            .enumerate()
            .filter(|(_, &w)| st.log[w].t_send < rec.t_done)
            .map(|(k, _)| k + 1)
            .max()
            .unwrap_or(0);
        let resp = Response::parse(&rec.resp_line)?;
        let seen = world.reveal(q, resp.answers.as_deref().unwrap_or(&[]))?;
        let candidates: Vec<usize> = (lo..=hi.max(lo)).filter(|v| states[*v] == seen).collect();
        if candidates.is_empty() {
            return Err(format!(
                "run {i} matches no state between versions {lo} and {hi}"
            ));
        }
        per_conn[rec.conn].push_back(Pending {
            log: i,
            query: q,
            changed: resp.mode != Some(ServeMode::Materialized),
            candidates,
        });
    }

    // Place each connection's next run at the earliest version that fits
    // its state and mode.
    let mut last_state: Vec<&Vec<bool>> = vec![&states[0]; world.queries.len()];
    let mut order = Vec::new();
    for v in 0..states.len() {
        if v > 0 {
            order.push((v as u64, writes[v - 1]));
        }
        loop {
            let mut placed = false;
            for queue in per_conn.iter_mut() {
                let Some(run) = queue.front() else { continue };
                if !run.candidates.contains(&v) {
                    continue;
                }
                let same = *last_state[run.query] == states[v];
                if same != run.changed {
                    last_state[run.query] = &states[v];
                    order.push((v as u64, run.log));
                    queue.pop_front();
                    placed = true;
                }
            }
            if !placed {
                break;
            }
        }
        for queue in &per_conn {
            if let Some(run) = queue.front() {
                if run.candidates.last().is_some_and(|last| *last <= v) {
                    return Err(format!(
                        "run {} fits no order consistent with its state and mode",
                        run.log
                    ));
                }
            }
        }
    }
    Ok(order)
}

/// Re-execute the traced phase in process through each layer's public
/// functions, in the order the server applied it, and derive the
/// per-layer metrics. Every replayed response must be byte-identical to
/// the served one (answers and `mode` included).
fn replay(
    world: &World,
    start_present: &[bool],
    start_version: u64,
    st: &ConnStats,
    dir: &Path,
    tracer: &mut Tracer,
    l: &mut Metrics,
) -> Result<(), String> {
    // 1. The order the server applied the operations in.
    let order = linearize(world, start_present, start_version, st)?;

    // 2. The starting tenant: the facts at the start of the phase, every
    //    view freshly built (the served views were all synced just before).
    let _ = std::fs::remove_dir_all(dir);
    let interner = Arc::new(Interner::new());
    let mut db = Database::with_interner(Arc::clone(&interner));
    load_edges(&mut db, &world.facts(start_present))?;
    let options = EvalOptions::new().threads(1);
    let mut views = Vec::new();
    for q in &world.queries {
        let query = tracer.span("query.prepare", 0, || {
            Query::parse_with_interner(&q.program, &q.output, Arc::clone(&interner))
        });
        let query = query.map_err(|e| e.to_string())?;
        let view = tracer.span("maintain.build", 0, || {
            Materialized::build(query.related_program(), &db, &options)
        });
        views.push(view.map_err(|e| e.to_string())?);
    }
    let mut t = ReplayTenant {
        interner,
        db,
        synced: vec![start_version; views.len()],
        views,
        log: Vec::new(),
        log_base: start_version,
        version: start_version,
        store: None,
    };
    let mut stored_bytes = 0usize;
    let mut user = 0usize;
    if world.durable {
        // A fresh store holding the starting facts as a checkpoint at the
        // starting version, reopened so the next record carries the next
        // sequence number, as on the server.
        let (mut store, _) =
            TenantStore::open(dir, SyncPolicy::Always).map_err(|e| e.to_string())?;
        store
            .checkpoint(start_version, &t.snapshot())
            .map_err(|e| e.to_string())?;
        drop(store);
        let (store, _) = TenantStore::open(dir, SyncPolicy::Always).map_err(|e| e.to_string())?;
        t.store = Some(store);
    }

    // 3. Replay, one operation span per served operation.
    let mut op_wire = Vec::new();
    let mut outcomes = (0u64, 0u64);
    let mut checkpoints = 0u64;
    for &(at, i) in &order {
        let rec = &st.log[i];
        let req_id = i as u64 + 1;
        let line = match (rec.query, rec.write) {
            (Some(q), _) => world.queries[q].line.as_str(),
            (None, Some((g, true))) => world.write_lines[g].0.as_str(),
            (None, Some((g, false))) => world.write_lines[g].1.as_str(),
            (None, None) => unreachable!("every logged op is a run or a write"),
        };
        let op = tracer.begin(
            if rec.query.is_some() {
                "op.run"
            } else {
                "op.write"
            },
            req_id,
        );
        let request = tracer
            .span("service.request_decode", req_id, || Request::parse(line))
            .map_err(|e| format!("request {req_id}: {e}"))?;
        let mine = match request {
            Request::Run(r) => {
                let q = rec.query.expect("run");
                let at = start_version + at;
                let mode = if t.synced[q] < at {
                    let delta = t.delta_since(t.synced[q]);
                    let (db, view) = (&t.db, &mut t.views[q]);
                    let outcome = tracer
                        .span("maintain.apply", req_id, || view.apply(db, &delta))
                        .map_err(|e| e.to_string())?;
                    match outcome {
                        MaintainOutcome::Unchanged => ServeMode::Materialized,
                        MaintainOutcome::Incremental => {
                            outcomes.0 += 1;
                            ServeMode::Incremental
                        }
                        MaintainOutcome::Recomputed => {
                            outcomes.1 += 1;
                            ServeMode::Recomputed
                        }
                    }
                } else {
                    ServeMode::Materialized
                };
                t.synced[q] = at;
                let (view, interner) = (&t.views[q], &t.interner);
                let answers = tracer.span("service.render", req_id, || {
                    view.relation(&r.output)
                        .map(|rel| render_answers(rel, interner))
                        .unwrap_or_default()
                });
                let resp = Response {
                    answers: Some(answers),
                    complete: Some(true),
                    mode: Some(mode),
                    cache_hit: Some(true),
                    ..Response::ok()
                };
                let line = tracer.span("service.encode", req_id, || resp.to_json());
                tracer.span("service.client_parse", req_id, || {
                    Response::parse(&rec.resp_line)
                })?;
                line
            }
            Request::Insert { pred, tuple, .. } | Request::Retract { pred, tuple, .. } => {
                let insert = rec.write.expect("write").1;
                let values: Tuple = tuple.iter().map(|v| v.to_value(&t.interner)).collect();
                let db = &mut t.db;
                let changed = tracer.span("storage.write", req_id, || {
                    if insert {
                        !db.relation(&pred).is_some_and(|r| r.contains(&values))
                            && db.insert(&pred, values.clone()).is_ok()
                    } else {
                        db.retract(&pred, &values).unwrap_or(false)
                    }
                });
                if !changed {
                    return Err(format!(
                        "replayed write {req_id} did not change the database"
                    ));
                }
                if let Some(store) = t.store.as_mut() {
                    let record = if insert {
                        WalRecord::Insert {
                            pred: pred.clone(),
                            tuple: tuple.clone(),
                        }
                    } else {
                        WalRecord::Retract {
                            pred: pred.clone(),
                            tuple: tuple.clone(),
                        }
                    };
                    tracer
                        .span("durability.append", req_id, || store.append(&record))
                        .map_err(|e| e.message)?;
                    stored_bytes += encode_record(store.version(), &record).len();
                    user += user_bytes(&pred, &tuple);
                }
                let sym = t.interner.intern(&pred);
                t.log.push((sym, values));
                t.version += 1;
                // The server's tenant opened empty at version 0 and
                // checkpoints every DEFAULT_CHECKPOINT_EVERY records.
                if t.store.is_some() && t.version.is_multiple_of(DEFAULT_CHECKPOINT_EVERY) {
                    let facts = tracer.span("server.snapshot", req_id, || t.snapshot());
                    let version = t.version;
                    if let Some(store) = t.store.as_mut() {
                        tracer
                            .span("durability.checkpoint", req_id, || {
                                store.checkpoint(version, &facts)
                            })
                            .map_err(|e| e.to_string())?;
                    }
                    checkpoints += 1;
                }
                let resp = Response {
                    changed: Some(true),
                    facts: Some(t.db.fact_count() as u64),
                    version: Some(t.version),
                    ..Response::ok()
                };
                let line = tracer.span("service.encode_ack", req_id, || resp.to_json());
                tracer.span("service.client_parse_ack", req_id, || {
                    Response::parse(&rec.resp_line)
                })?;
                line
            }
            other => return Err(format!("unexpected request {other:?}")),
        };
        tracer.end(op);
        if mine != rec.resp_line {
            return Err(format!(
                "replayed response {req_id} differs from the served one (served mode {:?})",
                Response::parse(&rec.resp_line).ok().and_then(|r| r.mode)
            ));
        }
        let wire = tracer.record(
            if rec.query.is_some() {
                "wire.run"
            } else {
                "wire.write"
            },
            req_id,
            rec.t_send,
            rec.t_done,
            None,
        );
        tracer.record("client.parse", req_id, rec.t_recv, rec.t_done, Some(wire));
        op_wire.push((op, wire));
    }
    // The residual of an operation: its client latency minus the time
    // its replayed layer calls (the op span's children) took.
    let (spans, selfs) = (tracer.spans(), tracer.self_ns());
    let residual: Vec<f64> = op_wire
        .iter()
        .map(|&(op, wire)| {
            let replayed = spans[op].dur_ns() - selfs[op];
            (spans[wire].dur_ns() as f64 - replayed as f64) / 1e6
        })
        .collect();

    // 4. Recovery of the replayed store.
    let mut recover_ms = 0.0;
    let mut replayed_records = 0.0;
    if let Some(store) = t.store.take() {
        drop(store);
        let t0 = Instant::now();
        let id = tracer.begin("durability.recover", 0);
        let (_, recovery) =
            TenantStore::open(dir, SyncPolicy::Always).map_err(|e| e.to_string())?;
        tracer.end(id);
        recover_ms = t0.elapsed().as_secs_f64() * 1e3;
        replayed_records = recovery.ops.len() as f64;
    }
    let _ = std::fs::remove_dir_all(dir);

    let ms = |name: &str| median(&tracer.durations_ms(name, true));
    l.put("service.render_ms", ms("service.render"), "ms");
    l.put("service.encode_ms", ms("service.encode"), "ms");
    l.put("service.client_parse_ms", ms("service.client_parse"), "ms");
    let bytes: Vec<f64> = st
        .log
        .iter()
        .filter(|r| r.query.is_some())
        .map(|r| r.resp_line.len() as f64 + 1.0)
        .collect();
    l.put("service.response_bytes", median(&bytes), "bytes");
    l.put(
        "service.request_decode_us",
        ms("service.request_decode") * 1e3,
        "us",
    );
    l.put("server.residual_ms", median(&residual), "ms");
    l.put("durability.append_us", ms("durability.append") * 1e3, "us");
    let ratio = if user == 0 {
        0.0
    } else {
        stored_bytes as f64 / user as f64
    };
    l.put("durability.wal_bytes_per_user_byte", ratio, "ratio");
    l.put(
        "durability.checkpoint_ms",
        ms("durability.checkpoint"),
        "ms",
    );
    l.put("durability.checkpoints", checkpoints as f64, "count");
    l.put("durability.recover_ms", recover_ms, "ms");
    l.put("durability.records_replayed", replayed_records, "count");
    l.put("query.prepare_ms", ms("query.prepare"), "ms");
    l.put("maintain.build_ms", ms("maintain.build"), "ms");
    l.put("maintain.apply_ms", ms("maintain.apply"), "ms");
    let share = if outcomes.0 + outcomes.1 == 0 {
        0.0
    } else {
        outcomes.0 as f64 / (outcomes.0 + outcomes.1) as f64
    };
    l.put("maintain.incremental_share", share, "ratio");
    Ok(())
}
