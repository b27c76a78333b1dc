//! Tid oracles: where the non-determinism comes from.
//!
//! An IDLOG interpretation assigns to each ID-predicate `p[s]` an ID-relation
//! of `pᴵ` on `s`. Operationally, once the engine has fully computed `p`, it
//! asks a [`TidOracle`] for an [`IdAssignment`] — one permutation per
//! sub-relation. Different oracles give different perfect models:
//!
//! * [`CanonicalOracle`] — deterministic: tids follow the canonical
//!   (name-based) tuple order. Reproducible across runs and interners.
//! * [`SeededOracle`] — pseudo-random permutations, reproducible from a seed;
//!   distinct predicates draw from independent streams so adding a predicate
//!   does not perturb the others.
//! * [`ExplicitOracle`] — test fixture: explicit permutations per predicate,
//!   falling back to canonical. Permutations that are not bijections are
//!   rejected.

use std::hash::{Hash, Hasher};

use rand::rngs::SmallRng;
use rand::SeedableRng;

use idlog_common::{CommonResult, FxHashMap, FxHasher, Interner, SymbolId};
use idlog_storage::{group_by, IdAssignment, Relation};

/// Chooses ID-functions for materializing ID-relations.
pub trait TidOracle {
    /// Produce the assignment for `pred`'s relation `rel` grouped by
    /// `grouping` (0-based, ascending). An oracle that cannot produce a
    /// valid ID-function returns an error, which fails the evaluation with
    /// [`crate::CoreError::Internal`].
    fn assign(
        &mut self,
        pred: SymbolId,
        grouping: &[usize],
        rel: &Relation,
        interner: &Interner,
    ) -> CommonResult<IdAssignment>;
}

/// Deterministic oracle: canonical tid order.
#[derive(Debug, Clone, Copy, Default)]
pub struct CanonicalOracle;

impl TidOracle for CanonicalOracle {
    fn assign(
        &mut self,
        _pred: SymbolId,
        grouping: &[usize],
        rel: &Relation,
        interner: &Interner,
    ) -> CommonResult<IdAssignment> {
        Ok(IdAssignment::canonical(rel, grouping, interner))
    }
}

/// Seeded pseudo-random oracle.
#[derive(Debug, Clone, Copy)]
pub struct SeededOracle {
    seed: u64,
}

impl SeededOracle {
    /// Build from a master seed.
    pub fn new(seed: u64) -> Self {
        SeededOracle { seed }
    }
}

impl TidOracle for SeededOracle {
    fn assign(
        &mut self,
        pred: SymbolId,
        grouping: &[usize],
        rel: &Relation,
        interner: &Interner,
    ) -> CommonResult<IdAssignment> {
        // Derive an independent stream per (pred name, grouping) so the
        // permutation of one predicate does not depend on evaluation order.
        // Hash the *name*, not the raw id, for interning-order independence.
        let mut h = FxHasher::default();
        interner.with_resolved(pred, |name| name.hash(&mut h));
        grouping.hash(&mut h);
        self.seed.hash(&mut h);
        let mut rng = SmallRng::seed_from_u64(h.finish());
        Ok(IdAssignment::random(rel, grouping, interner, &mut rng))
    }
}

/// Test oracle with explicit per-predicate permutations.
///
/// Permutations are keyed by `(predicate name, grouping)`; `perms[g][k]` is
/// the tid of the `k`-th canonical member of the `g`-th canonical group, and
/// each group's tids must be a permutation of `0..|group|`.
/// Predicates without an entry fall back to the canonical assignment.
#[derive(Debug, Clone, Default)]
pub struct ExplicitOracle {
    perms: FxHashMap<(String, Vec<usize>), Vec<Vec<i64>>>,
}

impl ExplicitOracle {
    /// Empty oracle (pure canonical fallback).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the permutations for one ID-predicate.
    pub fn set(&mut self, pred: &str, grouping: Vec<usize>, perms: Vec<Vec<i64>>) -> &mut Self {
        self.perms.insert((pred.to_string(), grouping), perms);
        self
    }
}

impl TidOracle for ExplicitOracle {
    fn assign(
        &mut self,
        pred: SymbolId,
        grouping: &[usize],
        rel: &Relation,
        interner: &Interner,
    ) -> CommonResult<IdAssignment> {
        let key = (interner.resolve(pred), grouping.to_vec());
        match self.perms.get(&key) {
            Some(perms) => {
                let g = group_by(rel, grouping, interner);
                IdAssignment::from_permutations(&g, perms)
            }
            None => Ok(IdAssignment::canonical(rel, grouping, interner)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idlog_common::{Tuple, Value};

    fn rel(i: &Interner, pairs: &[(&str, &str)]) -> Relation {
        let mut r = Relation::elementary(2);
        for (x, y) in pairs {
            r.insert(vec![Value::Sym(i.intern(x)), Value::Sym(i.intern(y))].into())
                .unwrap();
        }
        r
    }

    fn t(i: &Interner, x: &str, y: &str) -> Tuple {
        vec![Value::Sym(i.intern(x)), Value::Sym(i.intern(y))].into()
    }

    #[test]
    fn canonical_oracle_is_deterministic() {
        let i = Interner::new();
        let r = rel(&i, &[("a", "c"), ("a", "d"), ("b", "c")]);
        let p = i.intern("r");
        let a1 = CanonicalOracle.assign(p, &[0], &r, &i).unwrap();
        let a2 = CanonicalOracle.assign(p, &[0], &r, &i).unwrap();
        assert_eq!(a1, a2);
        assert_eq!(a1.tid(&r, &t(&i, "a", "c")), Some(0));
    }

    #[test]
    fn seeded_oracle_reproducible_and_seed_sensitive() {
        let i = Interner::new();
        // A bigger group so permutations actually vary.
        let pairs: Vec<(String, String)> =
            (0..6).map(|k| ("g".to_string(), format!("v{k}"))).collect();
        let pairs_ref: Vec<(&str, &str)> = pairs
            .iter()
            .map(|(a, b)| (a.as_str(), b.as_str()))
            .collect();
        let r = rel(&i, &pairs_ref);
        let p = i.intern("r");
        let a1 = SeededOracle::new(42).assign(p, &[0], &r, &i).unwrap();
        let a2 = SeededOracle::new(42).assign(p, &[0], &r, &i).unwrap();
        assert_eq!(a1, a2);
        let differing = (0..64)
            .filter(|&s| SeededOracle::new(s).assign(p, &[0], &r, &i).unwrap() != a1)
            .count();
        assert!(differing > 0, "some seed must give a different permutation");
    }

    #[test]
    fn explicit_oracle_uses_perms_and_falls_back() {
        let i = Interner::new();
        let r = rel(&i, &[("a", "c"), ("a", "d"), ("b", "c")]);
        let p = i.intern("emp");
        let mut o = ExplicitOracle::new();
        o.set("emp", vec![0], vec![vec![1, 0], vec![0]]);
        let a = o.assign(p, &[0], &r, &i).unwrap();
        assert_eq!(a.tid(&r, &t(&i, "a", "c")), Some(1));
        assert_eq!(a.tid(&r, &t(&i, "a", "d")), Some(0));
        // Unknown predicate: canonical.
        let q = i.intern("other");
        let a = o.assign(q, &[0], &r, &i).unwrap();
        assert_eq!(a.tid(&r, &t(&i, "a", "c")), Some(0));
    }

    #[test]
    fn explicit_oracle_rejects_non_bijections() {
        let i = Interner::new();
        let r = rel(&i, &[("a", "c"), ("a", "d"), ("b", "c")]);
        let p = i.intern("emp");
        for perms in [vec![vec![0, 0], vec![0]], vec![vec![1, 0], vec![5]]] {
            let mut o = ExplicitOracle::new();
            o.set("emp", vec![0], perms.clone());
            let err = o.assign(p, &[0], &r, &i).unwrap_err();
            assert!(
                matches!(err, idlog_common::CommonError::Invariant { .. }),
                "{perms:?}: {err}"
            );
        }
    }

    /// Seeded tids on a relation whose names are interned against name
    /// order, pinned: the permutation drawn for each seed must not drift
    /// when the grouping or assignment code changes.
    #[test]
    fn seeded_oracle_tids_are_pinned() {
        let i = Interner::new();
        let mut r = Relation::elementary(2);
        for k in (0..12).rev() {
            let t: Tuple = vec![
                Value::Sym(i.intern(&format!("e{k:02}"))),
                Value::Sym(i.intern(["sales", "dev", "ops"][k % 3])),
            ]
            .into();
            r.insert(t).unwrap();
        }
        let p = i.intern("emp");
        for (seed, want) in [
            (42, [0, 1, 3, 1, 2, 2, 3, 3, 1, 2, 0, 0]),
            (1991, [3, 3, 0, 0, 1, 2, 2, 2, 3, 1, 0, 1]),
        ] {
            let a = SeededOracle::new(seed).assign(p, &[1], &r, &i).unwrap();
            let tids: Vec<i64> = r.iter().map(|t| a.tid(&r, t).unwrap()).collect();
            assert_eq!(tids, want, "seed {seed}");
        }
    }
}
