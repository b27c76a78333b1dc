//! Shared workload generators and experiment plumbing for the IDLOG
//! reproduction benchmarks.
//!
//! The paper (SIGMOD 1991) is a language paper without an empirical
//! section; the workloads here are synthesized from its quantitative
//! *claims* (see `DESIGN.md`'s experiment index E1–E14): employee/department
//! grouping for the sampling queries, key/fanout/witness joins for the
//! existential-argument optimization, chains and trees for the recursive
//! engine baselines.

#![warn(missing_docs)]

use std::sync::Arc;

use idlog_core::{EvalStats, Interner, Query, Relation};
use idlog_storage::Database;

/// D departments × E employees per department (`emp(name, dept)`).
pub fn emp_db(interner: &Arc<Interner>, depts: usize, emps_per_dept: usize) -> Database {
    let mut db = Database::with_interner(Arc::clone(interner));
    for d in 0..depts {
        for e in 0..emps_per_dept {
            db.insert_syms("emp", &[&format!("n{d}_{e}"), &format!("dept{d}")])
                .expect("elementary facts");
        }
    }
    db
}

/// The §4 join workload: `q(key, zkey)` × `z(zkey, fanout)` × `y(witness)`.
pub fn zy_db(interner: &Arc<Interner>, keys: usize, fanout: usize, witnesses: usize) -> Database {
    let mut db = Database::with_interner(Arc::clone(interner));
    for k in 0..keys {
        db.insert_syms("q", &[&format!("x{k}"), &format!("zk{k}")])
            .expect("facts");
        for f in 0..fanout {
            db.insert_syms("z", &[&format!("zk{k}"), &format!("y{f}")])
                .expect("facts");
        }
    }
    for w in 0..witnesses {
        db.insert_syms("y", &[&format!("w{w}")]).expect("facts");
    }
    db
}

/// A linear edge chain `e(v0, v1), …, e(v{n-1}, v{n})`.
pub fn chain_db(interner: &Arc<Interner>, n: usize) -> Database {
    let mut db = Database::with_interner(Arc::clone(interner));
    for k in 0..n {
        db.insert_syms("e", &[&format!("v{k}"), &format!("v{}", k + 1)])
            .expect("facts");
    }
    db
}

/// A `w × h` grid graph. Node `(i, j)` gets `e` edges to `(i+1, j)` and
/// `(i, j+1)`, matching `par(child, parent)` edges pointing back toward the
/// origin, and a `person` fact. Unlike a chain, transitive closure and
/// same-generation on a grid produce wide per-round deltas (hundreds of
/// tuples), which is what the parallel round executor shards.
pub fn grid_db(interner: &Arc<Interner>, w: usize, h: usize) -> Database {
    let mut db = Database::with_interner(Arc::clone(interner));
    let name = |i: usize, j: usize| format!("g{i}_{j}");
    for i in 0..w {
        for j in 0..h {
            db.insert_syms("person", &[&name(i, j)]).expect("facts");
            if i + 1 < w {
                db.insert_syms("e", &[&name(i, j), &name(i + 1, j)])
                    .expect("facts");
                db.insert_syms("par", &[&name(i + 1, j), &name(i, j)])
                    .expect("facts");
            }
            if j + 1 < h {
                db.insert_syms("e", &[&name(i, j), &name(i, j + 1)])
                    .expect("facts");
                db.insert_syms("par", &[&name(i, j + 1), &name(i, j)])
                    .expect("facts");
            }
        }
    }
    db
}

/// A complete binary tree with `levels` levels: `par(child, parent)` and
/// `person(node)` facts.
pub fn tree_db(interner: &Arc<Interner>, levels: u32) -> Database {
    let mut db = Database::with_interner(Arc::clone(interner));
    let n = (1u32 << levels) - 1;
    db.insert_syms("person", &["v1"]).expect("facts");
    for child in 2..=n {
        db.insert_syms("par", &[&format!("v{child}"), &format!("v{}", child / 2)])
            .expect("facts");
        db.insert_syms("person", &[&format!("v{child}")])
            .expect("facts");
    }
    db
}

/// Evaluate `src`'s `output` against `db` with the canonical oracle,
/// returning the answer and statistics. Panics on invalid programs — bench
/// programs are fixtures.
pub fn run_canonical(src: &str, output: &str, db: &Database) -> (Relation, EvalStats) {
    let q = Query::parse_with_interner(src, output, Arc::clone(db.interner()))
        .expect("bench program is valid");
    let result = q.session(db).run().expect("bench evaluation succeeds");
    (result.relation, result.stats)
}

/// The paper's choice-emulated n-sampling program (Example 5 generalized):
/// n independent choices plus n(n−1)/2 pairwise disequalities.
pub fn choice_sampling_src(n: usize) -> String {
    let mut src = String::new();
    for i in 0..n {
        src.push_str(&format!("emp{i}(N, D) :- emp(N, D), choice((D), (N)).\n"));
    }
    let mut body: Vec<String> = (0..n).map(|i| format!("emp{i}(N{i}, D)")).collect();
    for i in 0..n {
        for j in (i + 1)..n {
            body.push(format!("N{i} != N{j}"));
        }
    }
    src.push_str(&format!("select_n(N0) :- {}.\n", body.join(", ")));
    src
}

/// The IDLOG n-sampling program: one literal.
pub fn idlog_sampling_src(n: usize) -> String {
    format!("select_n(N) :- emp[2](N, D, T), T < {n}.")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_have_expected_sizes() {
        let i = Arc::new(Interner::new());
        assert_eq!(emp_db(&i, 3, 4).relation("emp").unwrap().len(), 12);
        assert_eq!(chain_db(&i, 5).relation("e").unwrap().len(), 5);
        let g = grid_db(&i, 3, 4);
        assert_eq!(g.relation("person").unwrap().len(), 12);
        // (w-1)·h right edges + w·(h-1) down edges.
        assert_eq!(g.relation("e").unwrap().len(), 2 * 4 + 3 * 3);
        assert_eq!(g.relation("par").unwrap().len(), 2 * 4 + 3 * 3);
        let t = tree_db(&i, 3);
        assert_eq!(t.relation("person").unwrap().len(), 7);
        assert_eq!(t.relation("par").unwrap().len(), 6);
        let z = zy_db(&i, 2, 3, 4);
        assert_eq!(z.relation("q").unwrap().len(), 2);
        assert_eq!(z.relation("z").unwrap().len(), 6);
        assert_eq!(z.relation("y").unwrap().len(), 4);
    }

    #[test]
    fn sampling_sources_parse() {
        let i = Arc::new(Interner::new());
        for n in 1..=4 {
            idlog_core::parse_program(&choice_sampling_src(n), &i).unwrap();
            idlog_core::parse_program(&idlog_sampling_src(n), &i).unwrap();
        }
        // n=3 has 3 choices and 3 disequalities.
        let src = choice_sampling_src(3);
        assert_eq!(src.matches("choice").count(), 3);
        assert_eq!(src.matches("!=").count(), 3);
    }

    #[test]
    fn run_canonical_works() {
        let i = Arc::new(Interner::new());
        let db = emp_db(&i, 2, 3);
        let (rel, stats) = run_canonical("all_depts(D) :- emp[2](N, D, 0).", "all_depts", &db);
        assert_eq!(rel.len(), 2);
        assert_eq!(stats.instantiations, 2);
    }
}
