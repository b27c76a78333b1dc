//! Durability integration tests over the wire: cold-restart recovery,
//! checkpoint truncation, hand-torn WAL tails, schema negotiation, and
//! deterministic overload shedding.

use std::fs::{self, OpenOptions};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::thread;

use idlog_core::service::{render_answers, FactValue, Request, Response, RunRequest};
use idlog_core::{ErrorCode, Query};
use idlog_server::durability::{self, scan_wal};
use idlog_server::{Client, Server, ServerConfig, SyncPolicy, DEFAULT_WORKERS, RETRY_AFTER_MS};
use idlog_storage::Database;

const TC: &str = "t(X, Y) :- e(X, Y).\nt(X, Z) :- t(X, Y), e(Y, Z).";

fn temp_data_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "idlog-recovery-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn durable_config(dir: &Path) -> ServerConfig {
    ServerConfig {
        data_dir: Some(dir.to_path_buf()),
        sync: SyncPolicy::Always,
        ..ServerConfig::default()
    }
}

fn start_with(config: ServerConfig, workers: usize) -> (SocketAddr, thread::JoinHandle<()>) {
    let server = Server::bind_with("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = thread::spawn(move || server.run(workers).expect("serve"));
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
    let resp = c
        .request(&Request::Insert {
            tenant: tenant.into(),
            pred: pred.into(),
            tuple: cols.iter().map(|s| FactValue::Sym(s.to_string())).collect(),
        })
        .expect("insert");
    assert_eq!(resp.exit, 0, "{:?}", resp.error);
    resp
}

fn retract(c: &mut Client, tenant: &str, pred: &str, cols: &[&str]) -> Response {
    let resp = c
        .request(&Request::Retract {
            tenant: tenant.into(),
            pred: pred.into(),
            tuple: cols.iter().map(|s| FactValue::Sym(s.to_string())).collect(),
        })
        .expect("retract");
    assert_eq!(resp.exit, 0, "{:?}", resp.error);
    resp
}

fn served_answers(c: &mut Client, tenant: &str) -> Vec<String> {
    let resp = c
        .request(&Request::Run(RunRequest::new(tenant, TC, "t")))
        .expect("run");
    assert_eq!(resp.exit, 0, "{:?}", resp.error);
    assert_eq!(resp.complete, Some(true));
    resp.answers.expect("answers")
}

/// What a fresh, single-threaded, direct [`idlog_core::Session`] renders
/// over the same edges — the reference the recovered server must match
/// byte for byte.
fn direct_answers(edges: &[(&str, &str)]) -> Vec<String> {
    let query = Query::parse(TC, "t").expect("parse");
    let mut db = Database::with_interner(query.interner().clone());
    for (a, b) in edges {
        db.insert_syms("e", &[a, b]).expect("insert");
    }
    let out = query.session(&db).threads(1).run().expect("run");
    render_answers(&out.relation, query.interner())
}

#[test]
fn a_cold_restart_recovers_every_acknowledged_write() {
    let dir = temp_data_dir("cold");
    let edges = [("a", "b"), ("b", "c"), ("c", "d")];
    {
        let (addr, handle) = start_with(durable_config(&dir), 4);
        let mut c = client(addr);
        for (x, y) in &edges {
            insert(&mut c, "acme", "e", &[x, y]);
        }
        // A retracted-then-reinserted edge exercises both record kinds.
        retract(&mut c, "acme", "e", &["c", "d"]);
        insert(&mut c, "acme", "e", &["c", "d"]);
        shutdown(addr, handle);
    }

    // Restart over the same directory: answers equal a fresh direct
    // Session.
    let (addr, handle) = start_with(durable_config(&dir), 4);
    let mut c = client(addr);
    let recovered = served_answers(&mut c, "acme");
    assert_eq!(recovered, direct_answers(&edges));
    let stats = c
        .request(&Request::Stats {
            tenant: "acme".into(),
        })
        .expect("stats");
    assert_eq!(stats.facts, Some(3));
    assert_eq!(stats.version, Some(5), "3 inserts + retract + reinsert");
    shutdown(addr, handle);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_hand_torn_wal_tail_is_truncated_to_the_acknowledged_prefix() {
    let dir = temp_data_dir("torn");
    {
        let (addr, handle) = start_with(durable_config(&dir), 2);
        let mut c = client(addr);
        insert(&mut c, "t", "e", &["a", "b"]);
        insert(&mut c, "t", "e", &["b", "c"]);
        shutdown(addr, handle);
    }

    // Simulate a crash mid-append: chop bytes off the WAL tail so the last
    // record's frame is incomplete, then append CRC-garbage as a second
    // scenario on the next loop pass.
    let wal = durability::tenant_dir(&dir, "t").join("wal.log");
    for damage in ["truncate", "garbage"] {
        match damage {
            "truncate" => {
                let len = fs::metadata(&wal).unwrap().len();
                OpenOptions::new()
                    .write(true)
                    .open(&wal)
                    .unwrap()
                    .set_len(len - 5)
                    .unwrap();
            }
            _ => {
                use std::io::Write;
                let mut f = OpenOptions::new().append(true).open(&wal).unwrap();
                f.write_all(&[0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03, 0x04, 0x05])
                    .unwrap();
            }
        }
        let (addr, handle) = start_with(durable_config(&dir), 2);
        let mut c = client(addr);
        let answers = served_answers(&mut c, "t");
        let expected = match damage {
            // The second insert's record was torn: only edge a→b remains.
            "truncate" => direct_answers(&[("a", "b")]),
            // Garbage after intact records: nothing acknowledged is lost.
            _ => direct_answers(&[("a", "b")]),
        };
        assert_eq!(answers, expected, "{damage}");
        // Recovery repaired the file in place: a rescan finds no tear.
        let (_, torn) = scan_wal(&wal).unwrap();
        assert!(torn.is_none(), "{damage}: {torn:?}");
        // New writes land cleanly on the repaired log.
        insert(&mut c, "t", "e", &["x", "y"]);
        retract(&mut c, "t", "e", &["x", "y"]);
        shutdown(addr, handle);
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoints_truncate_the_wal_without_losing_writes() {
    let dir = temp_data_dir("ckpt");
    let config = ServerConfig {
        checkpoint_every: 4,
        ..durable_config(&dir)
    };
    {
        let (addr, handle) = start_with(config.clone(), 2);
        let mut c = client(addr);
        for i in 0..10 {
            insert(
                &mut c,
                "t",
                "e",
                &[&format!("n{i}"), &format!("n{}", i + 1)],
            );
        }
        shutdown(addr, handle);
    }
    let tenant_dir = durability::tenant_dir(&dir, "t");
    assert!(tenant_dir.join("checkpoint.snap").exists());
    let (records, torn) = scan_wal(&tenant_dir.join("wal.log")).unwrap();
    assert!(torn.is_none());
    assert!(
        records.len() < 10,
        "WAL was never truncated: {}",
        records.len()
    );

    let (addr, handle) = start_with(config, 2);
    let mut c = client(addr);
    let stats = c
        .request(&Request::Stats { tenant: "t".into() })
        .expect("stats");
    assert_eq!(stats.facts, Some(10));
    assert_eq!(stats.version, Some(10), "checkpoint + tail replay");
    shutdown(addr, handle);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn schema_negotiation_over_the_wire() {
    let (addr, handle) = start_with(ServerConfig::default(), 2);
    let mut c = client(addr);
    let modern = c.request(&Request::Ping { schema: None }).expect("ping");
    assert_eq!(modern.schema.as_deref(), Some("idlog-service/2"));
    let legacy = c
        .request(&Request::Ping {
            schema: Some("idlog-service/1".into()),
        })
        .expect("ping");
    assert_eq!(legacy.exit, 0);
    assert_eq!(legacy.schema.as_deref(), Some("idlog-service/1"));
    let unknown = c
        .request(&Request::Ping {
            schema: Some("idlog-service/99".into()),
        })
        .expect("ping");
    assert_eq!(unknown.code, Some(ErrorCode::Protocol));
    assert!(
        unknown
            .error
            .as_deref()
            .unwrap_or("")
            .contains("idlog-service/2"),
        "refusal lists what the server speaks: {:?}",
        unknown.error
    );
    shutdown(addr, handle);
}

#[test]
fn overload_sheds_deterministically_with_a_retry_hint() {
    // One worker, queue depth one: connection A owns the worker, B fills
    // the queue, C must be shed.
    let config = ServerConfig {
        queue_depth: 1,
        ..ServerConfig::default()
    };
    let (addr, handle) = start_with(config, 1);
    let mut a = client(addr);
    // A round trip proves the single worker has picked A off the queue.
    let ping = a.request(&Request::Ping { schema: None }).expect("ping");
    assert_eq!(ping.exit, 0);

    // B parks in the queue (no worker free to serve it).
    let _b = client(addr);
    // Give the accept loop a beat to enqueue B before C arrives.
    thread::sleep(std::time::Duration::from_millis(50));

    // C is shed at admission: an `overloaded` error with the retry hint,
    // delivered without C sending a single byte.
    let mut c = client(addr);
    let resp = c
        .request(&Request::Ping { schema: None })
        .expect("shed line");
    assert_eq!(resp.code, Some(ErrorCode::Overloaded), "{resp:?}");
    assert_eq!(resp.exit, ErrorCode::Overloaded.exit_code());
    assert_eq!(resp.exit, 3, "overload maps to the limit exit class");
    assert_eq!(resp.retry_after_ms, Some(RETRY_AFTER_MS));

    // A keeps working through the overload: admission control sheds new
    // arrivals, never established sessions. (Shutdown also goes through A —
    // a fresh connection would itself be shed.)
    let again = a.request(&Request::Ping { schema: None }).expect("ping");
    assert_eq!(again.exit, 0);
    let bye = a.request(&Request::Shutdown).expect("shutdown");
    assert_eq!(bye.exit, 0);
    handle.join().expect("server thread");
}

#[test]
fn tenants_with_hostile_names_stay_inside_the_data_dir() {
    let dir = temp_data_dir("hostile");
    let (addr, handle) = start_with(durable_config(&dir), 2);
    let mut c = client(addr);
    let resp = c
        .request(&Request::Insert {
            tenant: "../escapee".into(),
            pred: "p".into(),
            tuple: vec![FactValue::Sym("x".into())],
        })
        .expect("insert");
    assert_eq!(resp.exit, 0, "{:?}", resp.error);
    shutdown(addr, handle);
    // The escaped name landed under tenants/, not beside the data dir.
    assert!(!dir.parent().unwrap().join("escapee").exists());
    let escaped = fs::read_dir(dir.join("tenants"))
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect::<Vec<_>>();
    assert_eq!(escaped, vec!["%2E%2E%2Fescapee".to_string()]);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn in_memory_servers_still_work_without_a_data_dir() {
    let (addr, handle) = start_with(ServerConfig::default(), DEFAULT_WORKERS);
    let mut c = client(addr);
    insert(&mut c, "t", "e", &["a", "b"]);
    let answers = served_answers(&mut c, "t");
    assert_eq!(answers, direct_answers(&[("a", "b")]));
    shutdown(addr, handle);
}
