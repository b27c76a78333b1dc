//! `idlog-suite`: run the corpus sweep plus the served-mode latency bench,
//! the goal-directed point-query bench, and the durability restart-cost
//! bench, write `BENCH_10.json` at the repository root (CI regenerates and
//! uploads it as an artifact), and gate the runs against the
//! committed `BENCH_9.json` baseline — counters exact, wall time within a
//! generous tolerance. The served section is gated directly: incremental
//! maintenance must beat full recompute. So is the magic section
//! (`strategy=magic` must insert and probe strictly fewer tuples than
//! direct evaluation at every thread count) and the durability section
//! (recovering a tenant from its checkpoint must be strictly cheaper than
//! replaying the WAL from genesis), or the binary exits nonzero so CI
//! fails.

use std::path::Path;

/// Chain length / insert count for the served bench: large enough that a
/// full recompute per query visibly dwarfs delta maintenance, small enough
/// to keep CI fast.
const SERVED_NODES: usize = 200;
const SERVED_INSERTS: usize = 20;

/// Forest shape for the magic bench: several chains of which only one is
/// reachable from the query constant, so the pruning is unmistakable.
const MAGIC_CHAINS: usize = 8;
const MAGIC_CHAIN_LEN: usize = 40;

/// Shape of the durability bench tenant: a 200-node transitive-closure
/// chain plus enough paired insert/retract churn that the genesis WAL
/// dwarfs the surviving EDB, so checkpointing has something to prove.
const DURABILITY_NODES: usize = 200;
const DURABILITY_CHURN: usize = 2000;
const DURABILITY_FSYNC_WRITES: usize = 512;

fn main() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = manifest.join("../..");
    let programs = root.join("programs");
    let mut report = match idlog_suite::run_suite(&programs) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("idlog-suite: {e}");
            std::process::exit(1);
        }
    };
    for case in &report.cases {
        match &case.skipped {
            Some(reason) => println!("{:<20} skipped: {reason}", case.case.program),
            None => {
                let best = case
                    .runs
                    .iter()
                    .map(|r| r.wall_ms)
                    .fold(f64::INFINITY, f64::min);
                let r0 = &case.runs[0];
                println!(
                    "{:<20} rounds {:<4} tuples {:<6} best {best:.3}ms bound {}{}",
                    case.case.program,
                    r0.rounds,
                    r0.tuples,
                    case.round_bound.map_or("-".to_string(), |b| b.to_string()),
                    if r0.tripped { " (governed trip)" } else { "" }
                );
            }
        }
    }

    // Served-mode bench: incremental maintenance vs full recompute over
    // the same wire protocol.
    let served = match idlog_suite::served::run_served(SERVED_NODES, SERVED_INSERTS) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("idlog-suite: served bench failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "served ({} nodes, {} inserts) incremental {:.3}ms recompute {:.3}ms speedup {:.2}x",
        served.nodes,
        served.inserts,
        served.incremental_ms,
        served.recompute_ms,
        served.speedup()
    );
    let served_ok = served.incremental_ms < served.recompute_ms;
    report.served = Some(served);

    // Goal-directed bench: the same certified point query direct vs
    // `strategy=magic`, byte-identical answers enforced inside run_magic.
    let magic = match idlog_suite::magic::run_magic(MAGIC_CHAINS, MAGIC_CHAIN_LEN) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("idlog-suite: magic bench failed: {e}");
            std::process::exit(1);
        }
    };
    let r0 = &magic.runs[0];
    println!(
        "magic ({} chains x {} nodes, {} answers) inserted {} -> {} probes {} -> {} pruned {}",
        magic.chains,
        magic.chain_len,
        magic.answers,
        r0.direct_inserted,
        r0.magic_inserted,
        r0.direct_probes,
        r0.magic_probes,
        r0.pruned
    );
    let magic_ok = magic.strictly_prunes();
    report.magic = Some(magic);

    // Durability bench: genesis WAL replay vs checkpoint recovery vs cold
    // recompute, plus the fsync-policy throughput sweep.
    let durability = match idlog_suite::durability::run_durability(
        DURABILITY_NODES,
        DURABILITY_CHURN,
        DURABILITY_FSYNC_WRITES,
    ) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("idlog-suite: durability bench failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "durability ({} nodes, {} churn) genesis replay {:.3}ms ({} records) \
         checkpoint recovery {:.3}ms ({} records) cold recompute {:.3}ms",
        durability.nodes,
        durability.churn,
        durability.genesis_replay_ms,
        durability.genesis_wal_records,
        durability.checkpoint_recovery_ms,
        durability.checkpoint_wal_records,
        durability.cold_recompute_ms,
    );
    for f in &durability.fsync {
        println!(
            "  fsync {:<6} {} writes in {:.3}ms ({:.0}/s)",
            f.policy,
            f.writes,
            f.wall_ms,
            f.writes_per_sec()
        );
    }
    let durability_ok = durability.checkpoint_beats_genesis();
    report.durability = Some(durability);

    let out = root.join("BENCH_10.json");
    if let Err(e) = std::fs::write(&out, report.to_json()) {
        eprintln!("idlog-suite: cannot write {}: {e}", out.display());
        std::process::exit(1);
    }
    println!("wrote {}", out.display());

    if !served_ok {
        eprintln!("regression: served incremental path is not cheaper than full recompute");
        std::process::exit(1);
    }
    if !magic_ok {
        eprintln!(
            "regression: strategy=magic does not strictly prune \
             (inserted/probes must drop and tuples_pruned must be positive at every thread count)"
        );
        std::process::exit(1);
    }
    if !durability_ok {
        eprintln!(
            "regression: recovering from the checkpoint is not cheaper than \
             replaying the WAL from genesis"
        );
        std::process::exit(1);
    }

    // Regression gate: the committed BENCH_9.json is the previous PR's
    // performance record.
    let baseline_path = root.join("BENCH_9.json");
    match std::fs::read_to_string(&baseline_path) {
        Err(e) => {
            eprintln!(
                "idlog-suite: no baseline at {} ({e}); gate skipped",
                baseline_path.display()
            );
        }
        Ok(src) => match idlog_suite::baseline::regressions(&report, &src) {
            Err(e) => {
                eprintln!("idlog-suite: cannot read baseline: {e}");
                std::process::exit(1);
            }
            Ok(failures) if failures.is_empty() => {
                println!("baseline gate: ok (vs {})", baseline_path.display());
            }
            Ok(failures) => {
                for f in &failures {
                    eprintln!("regression: {f}");
                }
                std::process::exit(1);
            }
        },
    }
}
