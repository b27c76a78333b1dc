//! The magic-sets transformation as a standalone `Program → Program`
//! rewrite, plus its empirical soundness harness.
//!
//! The analysis and rewrite live in [`idlog_core::relevance`] (the `Query`
//! API caches them per query, mirroring the taint and termination certs);
//! this module exposes the rewrite at the optimizer's program level — the
//! same shape as [`crate::push_projections`] and [`crate::to_id_program`] —
//! and hosts the certified-equivalence tests that validate it against the
//! untransformed program on randomized databases, across thread counts.
//!
//! The rewrite either returns the transformed program or the
//! [`RelevanceRefusal`] witness explaining why goal-directed evaluation is
//! not semantics-preserving here (floundering under the left-to-right SIPS,
//! or a choice site that magic guards must not split).

use std::sync::Arc;

use idlog_common::Interner;
use idlog_core::relevance::{
    analyze_relevance, magic_program, RelevanceAnalysis, RelevanceRefusal,
};
use idlog_parser::Program;

/// Rewrite `program` with magic sets for a query on `output`, or return the
/// refusal witness when the relevance analysis cannot certify the rewrite.
///
/// The returned program computes an `output` relation identical to the
/// original on every database (and every tid oracle — choice sites are
/// refused), while deriving only facts relevant to the query constants.
pub fn magic_rewrite(
    program: &Program,
    output: &str,
    interner: &Arc<Interner>,
) -> Result<Program, RelevanceRefusal> {
    let root = interner.intern(output);
    let analysis = analyze_relevance(program, root);
    if let Some(refusal) = analysis.refusal() {
        return Err(refusal.clone());
    }
    Ok(magic_program(program, root, interner, &analysis)
        .expect("certified analysis always yields a rewrite"))
}

/// The relevance analysis for a query on `output`, at the program level
/// (the `Query` API caches the same analysis per query).
pub fn relevance_for(
    program: &Program,
    output: &str,
    interner: &Arc<Interner>,
) -> RelevanceAnalysis {
    analyze_relevance(program, interner.intern(output))
}

#[cfg(test)]
mod tests {
    use super::*;

    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    use idlog_core::{EnumBudget, EvalStats, Query, Strategy, ValidatedProgram};

    use crate::equivalence::{q_equivalent_on, random_databases};

    const ANCESTOR: &str = "
        ancestor(X, Y) :- parent(X, Y).
        ancestor(X, Z) :- ancestor(X, Y), parent(Y, Z).
        query(Y) :- ancestor(ann, Y).
    ";

    #[test]
    fn rewrite_is_q_equivalent_on_random_databases() {
        let i = Arc::new(Interner::new());
        let p = idlog_parser::parse_program(ANCESTOR, &i).unwrap();
        let magic = magic_rewrite(&p, "query", &i).expect("certified");
        let mut dbs = random_databases(&i, &[("parent", 2)], &["x", "y", "z"], 12, 17);
        for db in &mut dbs {
            db.insert_syms("parent", &["ann", "x"]).unwrap();
        }
        let r = q_equivalent_on(&p, &magic, &i, &dbs, "query", &EnumBudget::default()).unwrap();
        assert!(r.equivalent, "counterexample at {:?}", r.counterexample);
        assert_eq!(r.databases_checked, 12);
    }

    #[test]
    fn refusal_carries_the_witness_walk() {
        let i = Arc::new(Interner::new());
        let p = idlog_parser::parse_program(
            "picked(X, Y) :- pref[2](X, Y, 0).
             q(Y) :- picked(a, Y).",
            &i,
        )
        .unwrap();
        let refusal = magic_rewrite(&p, "q", &i).unwrap_err();
        assert!(!refusal.walk.is_empty());
        assert!(refusal.render(&i).contains("choice site"));
    }

    /// Direct and magic evaluation of `src` must produce byte-identical
    /// answers and identical stats at 1/2/8 threads.
    fn assert_magic_agrees(src: &str, output: &str, db: &idlog_storage::Database, q: &Query) {
        let mut stats_seen: Option<(EvalStats, EvalStats)> = None;
        for threads in [1usize, 2, 8] {
            let direct = q
                .session(db)
                .threads(threads)
                .run()
                .unwrap_or_else(|e| panic!("direct failed on {src}: {e}"));
            let magic = q
                .session(db)
                .threads(threads)
                .strategy(Strategy::Magic)
                .run()
                .unwrap_or_else(|e| panic!("magic failed on {src}: {e}"));
            assert_eq!(
                direct.relation.sorted_canonical(q.interner()),
                magic.relation.sorted_canonical(q.interner()),
                "answers diverge for {output} in {src}"
            );
            // Stats are part of the determinism contract: identical
            // across thread counts, pruned ≥ 0 by type.
            match &stats_seen {
                None => stats_seen = Some((direct.stats, magic.stats)),
                Some((d, m)) => {
                    assert_eq!(*d, direct.stats, "direct stats drift in {src}");
                    assert_eq!(*m, magic.stats, "magic stats drift in {src}");
                }
            }
        }
    }

    #[test]
    fn ancestor_point_query_agrees_across_threads_and_backends() {
        let q = Query::parse(ANCESTOR, "query").unwrap();
        let mut db = q.new_database();
        for (x, y) in [
            ("ann", "bob"),
            ("bob", "cal"),
            ("cal", "dee"),
            ("eve", "fay"),
            ("fay", "gus"),
        ] {
            db.insert_syms("parent", &[x, y]).unwrap();
        }
        assert_magic_agrees(ANCESTOR, "query", &db, &q);
        let magic = q.session(&db).strategy(Strategy::Magic).run().unwrap();
        let direct = q.session(&db).run().unwrap();
        assert!(magic.stats.inserted < direct.stats.inserted);
        assert!(magic.stats.tuples_pruned > 0);
    }

    /// A random stratified, choice-free, negation-free program: layered
    /// IDB predicates over a binary EDB `e`, closed by a point query
    /// `q(Y) :- pK(c0, Y).` — always certified, so magic must agree.
    fn random_point_program(rng: &mut SmallRng) -> String {
        let layers = rng.gen_range(2..5usize);
        let mut src = String::from("p0(X, Y) :- e(X, Y).\n");
        for k in 1..layers {
            // Each layer joins a lower layer with the EDB, sometimes
            // linearly recursive in itself (left-linear keeps it safe).
            let lower = rng.gen_range(0..k);
            src.push_str(&format!("p{k}(X, Y) :- p{lower}(X, Y).\n"));
            if rng.gen_bool(0.7) {
                src.push_str(&format!("p{k}(X, Z) :- p{k}(X, Y), e(Y, Z).\n"));
            } else {
                src.push_str(&format!("p{k}(X, Z) :- p{lower}(X, Y), e(Y, Z).\n"));
            }
            // Occasionally a constant in a body position, to vary the
            // adornments the walk discovers.
            if rng.gen_bool(0.3) {
                src.push_str(&format!("p{k}(X, Y) :- p{lower}(X, c1), e(X, Y).\n"));
            }
        }
        src.push_str(&format!("q(Y) :- p{}(c0, Y).\n", layers - 1));
        src
    }

    #[test]
    fn random_programs_magic_equals_direct_everywhere() {
        let mut rng = SmallRng::seed_from_u64(0xD06_F00D);
        for case in 0..12 {
            let src = random_point_program(&mut rng);
            let q = Query::parse(&src, "q").expect("generated program is valid");
            assert!(q.magic_certified(), "generated programs never flounder");
            let mut db = q.new_database();
            let domain = ["c0", "c1", "c2", "c3"];
            for a in domain {
                for b in domain {
                    if rng.gen_bool(0.4) {
                        db.insert_syms("e", &[a, b]).unwrap();
                    }
                }
            }
            assert_magic_agrees(&src, "q", &db, &q);
            let _ = case;
        }
    }

    #[test]
    fn random_refusals_always_carry_witnesses() {
        // Inject a flounder or a choice site into otherwise-random programs:
        // every refusal must carry a non-empty walk ending at the site.
        let mut rng = SmallRng::seed_from_u64(0xBAD_5EED);
        let i = Arc::new(Interner::new());
        for _ in 0..12 {
            let mut src = random_point_program(&mut rng);
            if rng.gen_bool(0.5) {
                src.push_str("q(Y) :- not p0(Y, Z), e(Y, Z).\n");
            } else {
                src.push_str("q(Y) :- e[2](X, Y, 0).\n");
            }
            let p = idlog_parser::parse_program(&src, &i).unwrap();
            let refusal = magic_rewrite(&p, "q", &i).unwrap_err();
            assert!(!refusal.walk.is_empty(), "refusal without walk for {src}");
        }
    }

    #[test]
    fn rewritten_program_revalidates() {
        let i = Arc::new(Interner::new());
        let p = idlog_parser::parse_program(ANCESTOR, &i).unwrap();
        let magic = magic_rewrite(&p, "query", &i).unwrap();
        ValidatedProgram::new(magic, Arc::clone(&i)).expect("rewrite stays valid");
    }
}
