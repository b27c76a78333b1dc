//! Reproducibility suite.
//!
//! The engine promises bit-for-bit reproducibility along two axes:
//!
//! 1. **Run-to-run**: the same program, database, and oracle produce the
//!    same relations and the same [`EvalStats`] every time — the oracle is
//!    consulted in sorted (name, grouping) order and delta rounds execute a
//!    deterministic (plan, step) work list.
//! 2. **Across thread counts**: `EvalOptions::threads` changes scheduling
//!    only. Work items merge at the round barrier in work-item order, so
//!    relations, statistics, *and* profiles (wall time excepted) are
//!    identical for any thread count.

use std::sync::Arc;

use idlog_core::tid::TidOracle;
use idlog_core::{
    enumerate_with_options, evaluate_with_options, CanonicalOracle, EnumBudget, EvalOptions,
    EvalOutput, Interner, SeededOracle, Strategy, ValidatedProgram,
};
use idlog_storage::{make_id_relation, Database};

fn setup(src: &str, facts: &[(&str, &[&str])]) -> (ValidatedProgram, Database) {
    let interner = Arc::new(Interner::new());
    let program = ValidatedProgram::parse(src, Arc::clone(&interner)).unwrap();
    let mut db = Database::with_interner(interner);
    for (pred, cols) in facts {
        db.insert_syms(pred, cols).unwrap();
    }
    (program, db)
}

/// A two-layer tree: root → 16 middle nodes → 16 leaves each. Transitive
/// closure runs few rounds, but the deltas (272, then 256 tuples) are large
/// enough to cross the engine's parallel-round threshold and shard.
fn two_layer_tree() -> (ValidatedProgram, Database) {
    let interner = Arc::new(Interner::new());
    let program = ValidatedProgram::parse(
        "tc(X, Y) :- e(X, Y). tc(X, Y) :- e(X, Z), tc(Z, Y).",
        Arc::clone(&interner),
    )
    .unwrap();
    let mut db = Database::with_interner(interner);
    for m in 0..16 {
        db.insert_syms("e", &["root", &format!("m{m}")]).unwrap();
        for l in 0..16 {
            db.insert_syms("e", &[&format!("m{m}"), &format!("l{m}_{l}")])
                .unwrap();
        }
    }
    (program, db)
}

fn assert_same_output(a: &EvalOutput, b: &EvalOutput, rels: &[&str], what: &str) {
    assert_eq!(a.stats(), b.stats(), "stats differ: {what}");
    for name in rels {
        match (a.relation(name), b.relation(name)) {
            (Some(x), Some(y)) => assert!(x.set_eq(y), "relation {name} differs: {what}"),
            (None, None) => {}
            _ => panic!("presence of {name} differs: {what}"),
        }
    }
}

/// A stratum that reads several ID-relations: before the ordering fix the
/// oracle was consulted in hash order, so any call-order-sensitive oracle
/// produced different perfect models run-to-run.
const MULTI_ID_SRC: &str = "
    first_a(X, T) :- a[1](X, Y, T).
    first_b(X, T) :- b[1](X, Y, T).
    first_c(X, T) :- c[1](X, Y, T).
    agree(X) :- first_a(X, T), first_b(X, T), first_c(X, T).
";

const MULTI_ID_FACTS: &[(&str, &[&str])] = &[
    ("a", &["p", "u"]),
    ("a", &["p", "v"]),
    ("a", &["q", "u"]),
    ("b", &["p", "u"]),
    ("b", &["p", "w"]),
    ("b", &["q", "u"]),
    ("c", &["p", "u"]),
    ("c", &["p", "v"]),
    ("c", &["q", "w"]),
];

#[test]
fn seeded_runs_are_reproducible() {
    for seed in [0u64, 7, 0xDEAD_BEEF] {
        let (program, db) = setup(MULTI_ID_SRC, MULTI_ID_FACTS);
        let once = evaluate_with_options(
            &program,
            &db,
            &mut SeededOracle::new(seed),
            &EvalOptions::new(),
        )
        .unwrap();
        let (program2, db2) = setup(MULTI_ID_SRC, MULTI_ID_FACTS);
        let twice = evaluate_with_options(
            &program2,
            &db2,
            &mut SeededOracle::new(seed),
            &EvalOptions::new(),
        )
        .unwrap();
        // Fresh interners on both sides: reproducibility may not lean on
        // interning order, only on names.
        let render = |out: &EvalOutput, rel: &str| -> Vec<String> {
            out.relation(rel)
                .map(|r| {
                    r.sorted_canonical(out.interner())
                        .iter()
                        .map(|t| t.display(out.interner()).to_string())
                        .collect()
                })
                .unwrap_or_default()
        };
        for rel in ["first_a", "first_b", "first_c", "agree"] {
            assert_eq!(
                render(&once, rel),
                render(&twice, rel),
                "seed {seed}: relation {rel} not reproducible"
            );
        }
        assert_eq!(once.stats(), twice.stats(), "seed {seed}: stats differ");
    }
}

#[test]
fn seeded_oracle_is_call_order_independent() {
    let (_, db) = setup(MULTI_ID_SRC, MULTI_ID_FACTS);
    let interner = Arc::clone(db.interner());
    let a = db.relation("a").unwrap();
    let b = db.relation("b").unwrap();
    let sym_a = interner.get("a").unwrap();
    let sym_b = interner.get("b").unwrap();

    // Consult a then b…
    let mut o1 = SeededOracle::new(42);
    let a_first = o1.assign(sym_a, &[0], a, &interner).unwrap();
    let b_second = o1.assign(sym_b, &[0], b, &interner).unwrap();
    // …and b then a: per-(seed, name, grouping) streams must not shift.
    let mut o2 = SeededOracle::new(42);
    let b_first = o2.assign(sym_b, &[0], b, &interner).unwrap();
    let a_second = o2.assign(sym_a, &[0], a, &interner).unwrap();

    assert!(
        make_id_relation(a, &a_first)
            .unwrap()
            .set_eq(&make_id_relation(a, &a_second).unwrap()),
        "assignment for `a` depends on consultation order"
    );
    assert!(
        make_id_relation(b, &b_first)
            .unwrap()
            .set_eq(&make_id_relation(b, &b_second).unwrap()),
        "assignment for `b` depends on consultation order"
    );
}

#[test]
fn thread_count_changes_nothing_on_recursion() {
    // Deltas of 272 and 256 tuples exceed the parallel-round threshold, so
    // the scoped-pool path really runs (sharded) at 2 and 8 threads.
    let (program, db) = two_layer_tree();
    let baseline =
        evaluate_with_options(&program, &db, &mut CanonicalOracle, &EvalOptions::serial()).unwrap();
    // 272 edges + 256 root→leaf paths.
    assert_eq!(
        baseline.relation("tc").unwrap().len(),
        528,
        "fixture sanity"
    );
    for threads in [2usize, 8] {
        let par = evaluate_with_options(
            &program,
            &db,
            &mut CanonicalOracle,
            &EvalOptions::new().threads(threads),
        )
        .unwrap();
        assert_same_output(&baseline, &par, &["tc"], &format!("{threads} threads"));
    }
}

#[test]
fn thread_count_changes_nothing_on_multi_rule_strata() {
    // Several rules per stratum + negation + ID-literals: round 0 fans out
    // across plans, delta rounds across (plan, step) items.
    let src = "
        reach(X) :- start(X).
        reach(Y) :- reach(X), e(X, Y).
        alt(Y) :- start(Y).
        alt(Y) :- alt(X), e(X, Y).
        dead(X) :- node(X), not reach(X).
        pick(X) :- node[](X, 0).
    ";
    let facts: &[(&str, &[&str])] = &[
        ("start", &["a"]),
        ("node", &["a"]),
        ("node", &["b"]),
        ("node", &["c"]),
        ("node", &["d"]),
        ("e", &["a", "b"]),
        ("e", &["b", "c"]),
        ("e", &["c", "a"]),
    ];
    let rels = ["reach", "alt", "dead", "pick"];
    for strategy in [Strategy::SemiNaive, Strategy::Naive] {
        let (program, db) = setup(src, facts);
        let baseline = evaluate_with_options(
            &program,
            &db,
            &mut SeededOracle::new(3),
            &EvalOptions::serial().strategy(strategy),
        )
        .unwrap();
        for threads in [2usize, 8] {
            let par = evaluate_with_options(
                &program,
                &db,
                &mut SeededOracle::new(3),
                &EvalOptions::new().threads(threads).strategy(strategy),
            )
            .unwrap();
            assert_same_output(
                &baseline,
                &par,
                &rels,
                &format!("{threads} threads, {strategy:?}"),
            );
        }
    }
}

#[test]
fn enumeration_is_identical_across_thread_counts() {
    let (program, db) = setup(
        "sex_guess(X, male) :- person(X).
         sex_guess(X, female) :- person(X).
         man(X) :- sex_guess[1](X, male, 1).",
        &[("person", &["a"]), ("person", &["b"]), ("person", &["c"])],
    );
    let budget = EnumBudget::default();
    let serial =
        enumerate_with_options(&program, &db, "man", &EvalOptions::serial().budget(budget))
            .unwrap();
    for threads in [1usize, 2, 8] {
        let par = enumerate_with_options(
            &program,
            &db,
            "man",
            &EvalOptions::new().threads(threads).budget(budget),
        )
        .unwrap();
        assert!(
            serial.same_answers(&par, program.interner()),
            "answer set differs at {threads} threads"
        );
        assert_eq!(serial.models_explored(), par.models_explored());
    }
}

#[test]
fn profile_is_identical_across_thread_counts() {
    // Deltas large enough that the sharded parallel path actually runs;
    // the profile (JSON and table, wall time excluded) must still be
    // byte-identical at every thread count.
    let (program, db) = two_layer_tree();
    let run = |threads: usize| {
        evaluate_with_options(
            &program,
            &db,
            &mut CanonicalOracle,
            &EvalOptions::new().threads(threads).profile(true),
        )
        .unwrap()
    };
    let baseline = run(1);
    let base_profile = baseline.profile().expect("profiling enabled");
    let base_json = base_profile.to_json(false);
    let base_table = base_profile.render_table(false);
    assert!(base_json.contains("idlog-profile/1"), "{base_json}");
    assert_eq!(base_profile.totals, baseline.stats());
    for threads in [2usize, 8] {
        let par = run(threads);
        let profile = par.profile().expect("profiling enabled");
        assert_eq!(
            profile.to_json(false),
            base_json,
            "profile JSON differs at {threads} threads"
        );
        assert_eq!(
            profile.render_table(false),
            base_table,
            "profile table differs at {threads} threads"
        );
        // Shard counts are part of the profile and depend only on delta
        // sizes, so the parallel runs really sharded *and* still agreed.
        assert!(
            profile.per_rule_totals().iter().any(|t| t.shards > 1),
            "fixture did not exercise sharding"
        );
    }
}

#[test]
fn profiling_does_not_change_results() {
    let (program, db) = two_layer_tree();
    let plain =
        evaluate_with_options(&program, &db, &mut CanonicalOracle, &EvalOptions::new()).unwrap();
    let profiled = evaluate_with_options(
        &program,
        &db,
        &mut CanonicalOracle,
        &EvalOptions::new().profile(true),
    )
    .unwrap();
    assert!(plain.profile().is_none());
    assert_same_output(&plain, &profiled, &["tc"], "profiling on vs off");
}

/// A program whose round-0 delta is ~300 tuples per rule — enough to cross
/// the parallel-round threshold and shard — and whose `plus` instances
/// overflow for some pairs. The overflow error itself must be
/// deterministic: parallel rounds report the first failing work item in
/// work-item order, so every thread count sees the serial path's error.
fn overflow_fixture() -> (idlog_core::Query, Database) {
    let src = "sum(M) :- a(X), b(Y), plus(X, Y, M).\n\
               sum(M) :- b(Y), a(X), plus(X, Y, M).";
    let q = idlog_core::Query::parse(src, "sum").unwrap();
    let mut db = q.new_database();
    let mut facts = String::from("b(9223372036854775707).\n");
    for i in 0..300 {
        facts.push_str(&format!("a({i}).\n"));
    }
    idlog_core::load_facts(&facts, &mut db).unwrap();
    (q, db)
}

#[test]
fn builtin_overflow_error_is_identical_across_thread_counts() {
    let (q, db) = overflow_fixture();
    let serial = q.session(&db).threads(1).run().unwrap_err();
    assert_eq!(
        serial,
        idlog_core::CoreError::Eval {
            message: "arithmetic overflow".into()
        }
    );
    for threads in [2usize, 8] {
        let par = q.session(&db).threads(threads).run().unwrap_err();
        assert_eq!(serial, par, "overflow error differs at {threads} threads");
    }
    // Run-to-run too.
    assert_eq!(serial, q.session(&db).threads(8).run().unwrap_err());
}
