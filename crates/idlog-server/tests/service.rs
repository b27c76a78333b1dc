//! End-to-end tests of the served protocol: concurrency across tenants,
//! byte-identical answers against direct sessions, cache behaviour, limit
//! handling, and error codes.

use std::net::SocketAddr;
use std::thread;

use idlog_core::service::{render_answers, FactValue, Request, Response, RunRequest, ServeMode};
use idlog_core::{ErrorCode, LimitKind, Query};
use idlog_server::{Client, Server, DEFAULT_WORKERS, MAX_REQUEST_LINE};
use idlog_storage::Database;

const TC: &str = "t(X, Y) :- e(X, Y).\nt(X, Z) :- t(X, Y), e(Y, Z).";

fn start() -> (SocketAddr, thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0").expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = thread::spawn(move || server.run(DEFAULT_WORKERS).expect("serve"));
    (addr, handle)
}

fn client(addr: SocketAddr) -> Client {
    Client::connect(&addr.to_string()).expect("connect")
}

fn shutdown(addr: SocketAddr, handle: thread::JoinHandle<()>) {
    let resp = client(addr).request(&Request::Shutdown).expect("shutdown");
    assert_eq!(resp.exit, 0);
    handle.join().expect("server thread");
}

fn insert(c: &mut Client, tenant: &str, pred: &str, cols: &[&str]) -> Response {
    c.request(&Request::Insert {
        tenant: tenant.into(),
        pred: pred.into(),
        tuple: cols.iter().map(|s| FactValue::Sym(s.to_string())).collect(),
    })
    .expect("insert")
}

fn retract(c: &mut Client, tenant: &str, pred: &str, cols: &[&str]) -> Response {
    c.request(&Request::Retract {
        tenant: tenant.into(),
        pred: pred.into(),
        tuple: cols.iter().map(|s| FactValue::Sym(s.to_string())).collect(),
    })
    .expect("retract")
}

/// What a fresh, single-threaded, direct [`idlog_core::Session`] renders
/// for `program`/`output` over `edges` — the reference the served answers
/// must equal byte for byte.
fn direct_answers(program: &str, output: &str, edges: &[(String, String)]) -> Vec<String> {
    let query = Query::parse(program, output).expect("parse");
    let mut db = Database::with_interner(query.interner().clone());
    for (a, b) in edges {
        db.insert_syms("e", &[a, b]).expect("insert");
    }
    let out = query.session(&db).threads(1).run().expect("run");
    render_answers(&out.relation, query.interner())
}

#[test]
fn served_answers_match_direct_sessions_for_concurrent_tenants() {
    let (addr, handle) = start();
    const CLIENTS: usize = 8;
    const TENANTS: usize = 2;

    // Each client owns a disjoint slice of the node space, so the final
    // database per tenant is deterministic whatever the interleaving:
    // edges n{i}_0 → … → n{i}_9 minus the two retracted mid-stream.
    let workers: Vec<_> = (0..CLIENTS)
        .map(|i| {
            thread::spawn(move || {
                let tenant = format!("t{}", i % TENANTS);
                let mut c = client(addr);
                for j in 0..9 {
                    let resp = insert(
                        &mut c,
                        &tenant,
                        "e",
                        &[&format!("n{i}_{j}"), &format!("n{i}_{}", j + 1)],
                    );
                    assert_eq!(resp.exit, 0, "insert failed: {:?}", resp.error);
                    assert_eq!(resp.changed, Some(true));
                    // Interleave queries with the writes; every response
                    // must be a clean success.
                    let run = c
                        .request(&Request::Run(RunRequest::new(&tenant, TC, "t")))
                        .expect("run");
                    assert_eq!(run.exit, 0, "run failed: {:?}", run.error);
                    assert!(run.answers.is_some());
                }
                for j in [6, 7] {
                    let resp = retract(
                        &mut c,
                        &tenant,
                        "e",
                        &[&format!("n{i}_{j}"), &format!("n{i}_{}", j + 1)],
                    );
                    assert_eq!(resp.exit, 0);
                    assert_eq!(resp.changed, Some(true));
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client thread");
    }

    for tenant_idx in 0..TENANTS {
        let tenant = format!("t{tenant_idx}");
        let mut edges = Vec::new();
        for i in (0..CLIENTS).filter(|i| i % TENANTS == tenant_idx) {
            for j in (0..9).filter(|j| ![6, 7].contains(j)) {
                edges.push((format!("n{i}_{j}"), format!("n{i}_{}", j + 1)));
            }
        }
        let expected = direct_answers(TC, "t", &edges);
        let mut c = client(addr);
        let served = c
            .request(&Request::Run(RunRequest::new(&tenant, TC, "t")))
            .expect("run");
        assert_eq!(served.exit, 0);
        assert_eq!(served.answers.as_deref(), Some(&expected[..]));
        // The served state survived the mixed run/insert/retract traffic.
        let stats = c
            .request(&Request::Stats {
                tenant: tenant.clone(),
            })
            .expect("stats");
        assert_eq!(stats.facts, Some(edges.len() as u64));
    }
    shutdown(addr, handle);
}

#[test]
fn cache_miss_then_hit_then_incremental_maintenance() {
    let (addr, handle) = start();
    let mut c = client(addr);
    insert(&mut c, "acme", "e", &["a", "b"]);
    insert(&mut c, "acme", "e", &["b", "c"]);

    let run = |c: &mut Client| {
        c.request(&Request::Run(RunRequest::new("acme", TC, "t")))
            .expect("run")
    };
    let first = run(&mut c);
    assert_eq!(first.exit, 0);
    assert_eq!(first.cache_hit, Some(false));
    assert_eq!(first.mode, Some(ServeMode::Recomputed));
    assert_eq!(
        first.answers.as_deref(),
        Some(&["a,b".to_string(), "a,c".into(), "b,c".into()][..])
    );

    let second = run(&mut c);
    assert_eq!(second.cache_hit, Some(true));
    assert_eq!(second.mode, Some(ServeMode::Materialized));
    assert_eq!(second.answers, first.answers);

    // A fact change re-drives the delta machinery instead of recomputing.
    insert(&mut c, "acme", "e", &["c", "d"]);
    let third = run(&mut c);
    assert_eq!(third.cache_hit, Some(true));
    assert_eq!(third.mode, Some(ServeMode::Incremental));
    assert_eq!(
        third.answers.as_deref(),
        Some(
            &direct_answers(
                TC,
                "t",
                &[
                    ("a".into(), "b".into()),
                    ("b".into(), "c".into()),
                    ("c".into(), "d".into()),
                ],
            )[..]
        )
    );

    // Deletion: DRed removes the no-longer-derivable closure.
    let ret = retract(&mut c, "acme", "e", &["b", "c"]);
    assert_eq!(ret.changed, Some(true));
    let fourth = run(&mut c);
    assert_eq!(fourth.mode, Some(ServeMode::Incremental));
    assert_eq!(
        fourth.answers.as_deref(),
        Some(
            &direct_answers(
                TC,
                "t",
                &[("a".into(), "b".into()), ("c".into(), "d".into())]
            )[..]
        )
    );
    shutdown(addr, handle);
}

#[test]
fn served_answers_are_identical_across_backends_and_thread_counts() {
    let (addr, handle) = start();
    let mut c = client(addr);
    for (a, b) in [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")] {
        insert(&mut c, "x", "e", &[a, b]);
    }
    let expected = direct_answers(
        TC,
        "t",
        &[
            ("a".into(), "b".into()),
            ("b".into(), "c".into()),
            ("c".into(), "a".into()),
            ("c".into(), "d".into()),
        ],
    );
    for threads in [1, 4] {
        // Materialized path (fresh tenant-equivalent query text per
        // combination keeps each request a clean build).
        let mut req = RunRequest::new("x", TC, "t");
        req.threads = Some(threads);
        let served = c.request(&Request::Run(req.clone())).expect("run");
        assert_eq!(served.exit, 0);
        assert_eq!(
            served.answers.as_deref(),
            Some(&expected[..]),
            "materialized, threads={threads}"
        );
        // Fresh path: the same request with a (generous) limit skips
        // the cache and evaluates from a snapshot.
        req.max_rounds = Some(1_000_000);
        let fresh = c.request(&Request::Run(req)).expect("run");
        assert_eq!(fresh.exit, 0);
        assert_eq!(fresh.mode, Some(ServeMode::Fresh));
        assert_eq!(
            fresh.answers.as_deref(),
            Some(&expected[..]),
            "fresh, threads={threads}"
        );
    }
    shutdown(addr, handle);
}

#[test]
fn hash_backend_field_is_accepted_and_answers_are_unchanged() {
    let (addr, handle) = start();
    let mut c = client(addr);
    for (a, b) in [("a", "b"), ("b", "c"), ("c", "a")] {
        insert(&mut c, "h", "e", &[a, b]);
    }
    // Schema-2 clients may still send `"backend":"hash"`; the answer line
    // must be byte-identical to the same request without the field (the
    // cache state is the same for both: the first request builds the view).
    let bare = Request::Run(RunRequest::new("h", TC, "t")).to_json();
    let named = format!(r#"{},"backend":"hash"}}"#, bare.strip_suffix('}').unwrap());
    c.request_raw(&bare).expect("warm the cache");
    let without = c.request_raw(&bare).expect("run");
    let with = c.request_raw(&named).expect("run");
    assert_eq!(with, without);
    assert_eq!(Response::parse(&with).unwrap().exit, 0);
    // Any other backend is a protocol error that names the supported one.
    let columnar = named.replace(r#""hash""#, r#""columnar""#);
    let resp = Response::parse(&c.request_raw(&columnar).expect("run")).unwrap();
    assert_eq!(resp.code, Some(ErrorCode::Protocol));
    assert!(resp.error.unwrap().contains(r#""hash""#));
    shutdown(addr, handle);
}

#[test]
fn oversized_request_line_is_a_protocol_error_and_closes_the_connection() {
    use std::io::{BufRead, BufReader, Write};
    use std::time::Duration;

    let (addr, handle) = start();
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("timeout");
    // One byte past the cap and no newline: the server must answer instead
    // of buffering until the client gives up.
    stream
        .write_all(&vec![b'x'; MAX_REQUEST_LINE + 1])
        .expect("send");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .expect("response before timeout");
    let resp = Response::parse(line.trim()).expect("parse");
    assert_eq!(resp.code, Some(ErrorCode::Protocol));
    assert!(resp.error.unwrap().contains("exceeds"), "{line}");
    line.clear();
    assert_eq!(reader.read_line(&mut line).expect("eof"), 0, "closed");
    // The server itself keeps serving.
    let ping = client(addr).request(&Request::Ping { schema: None });
    assert_eq!(ping.expect("ping").exit, 0);
    shutdown(addr, handle);
}

#[test]
fn deadline_trip_returns_partial_results_without_poisoning_the_tenant() {
    let (addr, handle) = start();
    let mut c = client(addr);
    // A chain long enough that its transitive closure cannot finish in a
    // microsecond-scale deadline.
    for j in 0..400 {
        let resp = insert(
            &mut c,
            "slow",
            "e",
            &[&format!("v{j}"), &format!("v{}", j + 1)],
        );
        assert_eq!(resp.exit, 0);
    }
    let mut limited = RunRequest::new("slow", TC, "t");
    limited.timeout_ms = Some(1);
    let tripped = c.request(&Request::Run(limited)).expect("run");
    assert_eq!(tripped.exit, 3, "deadline must trip: {:?}", tripped.error);
    assert_eq!(tripped.code, Some(ErrorCode::Limit(LimitKind::Deadline)));
    assert_eq!(tripped.complete, Some(false));
    assert!(
        tripped.answers.is_some(),
        "a tripped run still reports the partial prefix"
    );

    // The tenant is not poisoned: a bounded-but-roomy request still
    // completes correctly afterwards.
    let mut roomy = RunRequest::new("slow", TC, "t");
    roomy.timeout_ms = Some(60_000);
    let after = c.request(&Request::Run(roomy)).expect("run");
    assert_eq!(after.exit, 0, "tenant poisoned: {:?}", after.error);
    let expected_len = 400 * 401 / 2;
    assert_eq!(after.answers.map(|a| a.len()), Some(expected_len));
    shutdown(addr, handle);
}

#[test]
fn limit_kinds_map_to_stable_codes_over_the_wire() {
    let (addr, handle) = start();
    let mut c = client(addr);
    for (a, b) in [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")] {
        insert(&mut c, "lim", "e", &[a, b]);
    }
    let mut req = RunRequest::new("lim", TC, "t");
    req.max_rounds = Some(1);
    let resp = c.request(&Request::Run(req)).expect("run");
    assert_eq!(resp.exit, 3);
    assert_eq!(resp.code, Some(ErrorCode::Limit(LimitKind::Rounds)));
    assert_eq!(resp.complete, Some(false));
    shutdown(addr, handle);
}

#[test]
fn error_codes_cover_protocol_compile_and_input_failures() {
    let (addr, handle) = start();
    let mut c = client(addr);

    let raw = c.request_raw("this is not json").expect("raw");
    let resp = Response::parse(&raw).expect("parse");
    assert_eq!(resp.code, Some(ErrorCode::Protocol));
    assert_eq!(resp.exit, 1);

    let raw = c.request_raw(r#"{"op":"warp"}"#).expect("raw");
    let resp = Response::parse(&raw).expect("parse");
    assert_eq!(resp.code, Some(ErrorCode::Protocol));

    // A malformed program reports the library's parse code.
    let bad = c
        .request(&Request::Run(RunRequest::new("err", "t(X :-", "t")))
        .expect("run");
    assert_eq!(bad.code, Some(ErrorCode::Parse));
    assert_eq!(bad.exit, 1);

    // Retracting from an undeclared relation is an input error.
    let missing = retract(&mut c, "err", "ghost", &["a"]);
    assert_eq!(missing.code, Some(ErrorCode::Input));
    assert_eq!(missing.exit, 1);

    // An ill-typed fact is an input error too.
    insert(&mut c, "err", "p", &["a"]);
    let bad_fact = c
        .request(&Request::Insert {
            tenant: "err".into(),
            pred: "p".into(),
            tuple: vec![FactValue::Int(3)],
        })
        .expect("insert");
    assert_eq!(bad_fact.code, Some(ErrorCode::Input));

    let ping = c.request(&Request::Ping { schema: None }).expect("ping");
    assert_eq!(ping.exit, 0);
    assert_eq!(ping.schema.as_deref(), Some("idlog-service/2"));
    shutdown(addr, handle);
}

#[test]
fn seeded_and_enumerating_requests_take_the_fresh_path() {
    let (addr, handle) = start();
    let mut c = client(addr);
    insert(&mut c, "nd", "e", &["a", "b"]);
    insert(&mut c, "nd", "e", &["b", "c"]);

    let mut seeded = RunRequest::new("nd", TC, "t");
    seeded.seed = Some(7);
    let resp = c.request(&Request::Run(seeded)).expect("run");
    assert_eq!(resp.exit, 0);
    assert_eq!(resp.mode, Some(ServeMode::Fresh));

    let mut all = RunRequest::new("nd", TC, "t");
    all.all = true;
    let resp = c.request(&Request::Run(all)).expect("run");
    assert_eq!(resp.exit, 0);
    assert_eq!(resp.complete, Some(true));
    // TC is deterministic: exactly one answer, equal to the canonical one.
    let models = resp.models.expect("models");
    assert_eq!(models.len(), 1);
    shutdown(addr, handle);
}
