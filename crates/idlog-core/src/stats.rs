//! Evaluation statistics.
//!
//! The paper's Section 4 claims are about *intermediate redundant tuples*;
//! these counters make that claim measurable. `instantiations` counts
//! complete body matches (rule firings attempted), `derived` counts head
//! tuples produced (including duplicates), `inserted` counts genuinely new
//! facts, and `probes` counts index lookups plus scan steps — the work the
//! ID-literal optimization is supposed to save.

use std::fmt;
use std::ops::AddAssign;

/// Counters accumulated during one evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Complete body matches (rule firings).
    pub instantiations: u64,
    /// Head tuples produced (inserted or duplicate).
    pub derived: u64,
    /// New facts added to relations.
    pub inserted: u64,
    /// Tuples visited while scanning or probing body literals.
    pub probes: u64,
    /// Arithmetic literal evaluations.
    pub builtin_evals: u64,
    /// Semi-naive iterations across all strata.
    pub iterations: u64,
    /// ID-relations materialized.
    pub id_relations: u64,
    /// Stored EDB tuples the magic guards excluded from joins (zero except
    /// under `strategy=magic`; computed post-hoc from the final relations,
    /// so it is identical across thread counts).
    pub tuples_pruned: u64,
}

impl EvalStats {
    /// Render the counters like [`fmt::Display`], but expand the bare
    /// `id_relations` count with the per-relation breakdown (name,
    /// grouping, group and tuple counts) when a profile carries it.
    pub fn display_with(&self, profile: Option<&crate::profile::Profile>) -> String {
        match profile.and_then(|p| p.id_relation_breakdown()) {
            Some(breakdown) => format!("{self} ({breakdown})"),
            None => self.to_string(),
        }
    }
}

impl AddAssign for EvalStats {
    fn add_assign(&mut self, o: EvalStats) {
        self.instantiations += o.instantiations;
        self.derived += o.derived;
        self.inserted += o.inserted;
        self.probes += o.probes;
        self.builtin_evals += o.builtin_evals;
        self.iterations += o.iterations;
        self.id_relations += o.id_relations;
        self.tuples_pruned += o.tuples_pruned;
    }
}

impl fmt::Display for EvalStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "instantiations={} derived={} inserted={} probes={} builtins={} iterations={} id_relations={}",
            self.instantiations,
            self.derived,
            self.inserted,
            self.probes,
            self.builtin_evals,
            self.iterations,
            self.id_relations
        )?;
        // Keep legacy renderings byte-stable: the magic-only counter only
        // appears when the strategy actually pruned something.
        if self.tuples_pruned > 0 {
            write!(f, " pruned={}", self.tuples_pruned)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_assign_sums_fields() {
        let mut a = EvalStats {
            instantiations: 1,
            derived: 2,
            ..Default::default()
        };
        a += EvalStats {
            instantiations: 10,
            probes: 5,
            ..Default::default()
        };
        assert_eq!(a.instantiations, 11);
        assert_eq!(a.derived, 2);
        assert_eq!(a.probes, 5);
    }

    #[test]
    fn display_mentions_all_counters() {
        let s = EvalStats::default().to_string();
        for key in [
            "instantiations",
            "derived",
            "inserted",
            "probes",
            "builtins",
        ] {
            assert!(s.contains(key), "{s}");
        }
    }
}
