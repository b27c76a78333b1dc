//! The goal-directed point-query bench family: the same certified point
//! query evaluated directly (full semi-naive fixpoint) and under
//! `strategy=magic`, at every thread count the sweep covers.
//!
//! The EDB is a forest of disjoint parent chains of which exactly one is
//! reachable from the query constant, so direct evaluation materializes
//! every chain's transitive closure while the magic rewrite derives only
//! the relevant one. The bench asserts the answers are **byte-identical**
//! and records the engine's own counters; the binary gates
//! [`MagicBench::strictly_prunes`] — magic must insert strictly fewer
//! tuples, probe strictly fewer tuples, and report a positive
//! `tuples_pruned` at every thread count — so the transformation's profit
//! stays measurable, not assumed.

use idlog_core::{Query, Strategy};

use crate::THREADS;

/// The point query the family measures (also shipped as
/// `programs/ancestor.idl` with a [`ancestor_facts`]-generated sidecar).
pub const ANCESTOR: &str = "\
ancestor(X, Y) :- parent(X, Y).
ancestor(X, Z) :- ancestor(X, Y), parent(Y, Z).
query(Y) :- ancestor(ann, Y).
";

/// Render the chain-forest EDB as a facts file: `chains` disjoint parent
/// chains of `len` nodes each. The first node of chain 0 is `ann` — the
/// query constant — so exactly one chain is relevant to [`ANCESTOR`].
pub fn ancestor_facts(chains: usize, len: usize) -> String {
    let node = |c: usize, i: usize| {
        if c == 0 && i == 0 {
            "ann".to_string()
        } else {
            format!("p{c}_{i}")
        }
    };
    let mut out = String::new();
    for c in 0..chains {
        for i in 0..len.saturating_sub(1) {
            out.push_str(&format!("parent({}, {}).\n", node(c, i), node(c, i + 1)));
        }
    }
    out
}

/// One measured thread count: direct vs magic counters.
#[derive(Debug, Clone)]
pub struct MagicRun {
    /// Worker threads used.
    pub threads: usize,
    /// Tuples inserted by the direct (full) evaluation.
    pub direct_inserted: u64,
    /// Tuples probed by the direct evaluation.
    pub direct_probes: u64,
    /// Tuples inserted under `strategy=magic`.
    pub magic_inserted: u64,
    /// Tuples probed under `strategy=magic`.
    pub magic_probes: u64,
    /// EDB tuples the magic guards provably never touch
    /// (`EvalStats::tuples_pruned`).
    pub pruned: u64,
}

/// The whole family: one run per thread count, plus the answer
/// count both evaluations agreed on.
#[derive(Debug, Clone)]
pub struct MagicBench {
    /// Chains in the generated forest.
    pub chains: usize,
    /// Nodes per chain.
    pub chain_len: usize,
    /// Answer tuples (identical across every run by construction).
    pub answers: usize,
    /// One entry per thread count.
    pub runs: Vec<MagicRun>,
}

impl MagicBench {
    /// The profit gate: at every thread count, magic inserted strictly
    /// fewer tuples, probed strictly fewer tuples, and pruned a positive
    /// number of EDB tuples.
    pub fn strictly_prunes(&self) -> bool {
        !self.runs.is_empty()
            && self.runs.iter().all(|r| {
                r.magic_inserted < r.direct_inserted
                    && r.magic_probes < r.direct_probes
                    && r.pruned > 0
            })
    }
}

/// Run the family. Errors on any divergence between the direct and magic
/// answers — the bench doubles as an end-to-end soundness check.
pub fn run_magic(chains: usize, len: usize) -> Result<MagicBench, String> {
    let query = Query::parse(ANCESTOR, "query").map_err(|e| e.to_string())?;
    let mut db = query.new_database();
    idlog_core::load_facts(&ancestor_facts(chains, len), &mut db).map_err(|e| e.to_string())?;

    let mut runs = Vec::new();
    let mut answers = None;
    for threads in THREADS {
        let direct = query
            .session(&db)
            .threads(threads)
            .run()
            .map_err(|e| e.to_string())?;
        let magic = query
            .session(&db)
            .threads(threads)
            .strategy(Strategy::Magic)
            .run()
            .map_err(|e| e.to_string())?;
        let direct_rows = direct.relation.sorted_canonical(query.interner());
        let magic_rows = magic.relation.sorted_canonical(query.interner());
        if direct_rows != magic_rows {
            return Err(format!(
                "magic answers diverge from direct at {threads} threads: \
                 {} vs {} tuples",
                magic_rows.len(),
                direct_rows.len()
            ));
        }
        match answers {
            None => answers = Some(direct_rows.len()),
            Some(n) if n != direct_rows.len() => {
                return Err("answer count drifted across thread counts".to_string());
            }
            Some(_) => {}
        }
        runs.push(MagicRun {
            threads,
            direct_inserted: direct.stats.inserted,
            direct_probes: direct.stats.probes,
            magic_inserted: magic.stats.inserted,
            magic_probes: magic.stats.probes,
            pruned: magic.stats.tuples_pruned,
        });
    }
    Ok(MagicBench {
        chains,
        chain_len: len,
        answers: answers.unwrap_or(0),
        runs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_shapes_the_forest() {
        let facts = ancestor_facts(3, 4);
        assert_eq!(facts.lines().count(), 9, "{facts}");
        assert!(facts.contains("parent(ann, p0_1)."), "{facts}");
        assert!(facts.contains("parent(p2_2, p2_3)."), "{facts}");
        assert!(!facts.contains("p0_0"), "chain 0 starts at the constant");
    }

    #[test]
    fn committed_ancestor_sidecar_matches_the_generator() {
        // `programs/ancestor.facts` is generated, not hand-written; this
        // pins the committed bytes to the generator so the corpus case and
        // the bench family measure the same distribution.
        let committed = std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../programs/ancestor.facts"),
        )
        .unwrap();
        assert_eq!(committed, ancestor_facts(3, 20));
    }

    #[test]
    fn family_prunes_strictly_on_both_backends() {
        let bench = run_magic(4, 24).unwrap();
        assert_eq!(bench.runs.len(), THREADS.len());
        assert!(bench.strictly_prunes(), "{bench:?}");
        // Only chain 0 is reachable from `ann`: len-1 answers.
        assert_eq!(bench.answers, 23);
        // Counters are thread-invariant.
        let r0 = &bench.runs[0];
        for r in &bench.runs {
            assert_eq!(r.direct_inserted, r0.direct_inserted, "{r:?}");
            assert_eq!(r.magic_inserted, r0.magic_inserted, "{r:?}");
            assert_eq!(r.pruned, r0.pruned, "{r:?}");
        }
    }
}
