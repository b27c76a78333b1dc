//! ID-relations: relations augmented with tuple identifiers.
//!
//! An *ID-function* of a relation `g` (here: one sub-relation) is a bijection
//! from `g` to `{0, …, |g|−1}`. An *ID-relation of r on s* pairs every tuple
//! `t ∈ r` with the tid its sub-relation's ID-function assigns it (\[She90b\]
//! §2.1, Example 1). Choosing the ID-functions is the engine's only source of
//! non-determinism.

use rand::seq::SliceRandom;
use rand::Rng;

use idlog_common::{CommonError, CommonResult, Interner, Tuple, Value};

use crate::group::{group_by, Grouping, ScanStamp};
use crate::relation::Relation;

/// A concrete choice of ID-functions for one grouping attribute set: the
/// tid of every tuple of the base relation, aligned to the base relation's
/// scan order.
///
/// The assignment records the base relation's length and an ordered
/// fingerprint of its scan, so applying it to any other relation — or to
/// the same tuples in another scan order — is rejected rather than
/// mis-numbered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdAssignment {
    positions: Vec<usize>,
    /// `tids[i]` is the tid of the base relation's `i`-th scanned tuple.
    tids: Vec<u32>,
    groups: usize,
    base: ScanStamp,
}

impl IdAssignment {
    /// Canonical assignment: within each group, tuples get tids in canonical
    /// order (tid 0 = canonically smallest).
    pub fn canonical(rel: &Relation, positions: &[usize], interner: &Interner) -> Self {
        let grouping = group_by(rel, positions, interner);
        Self::fill(&grouping, |_, members, tids| {
            for (k, &s) in members.iter().enumerate() {
                tids[s as usize] = k as u32;
            }
        })
    }

    /// Random assignment: an independent uniform permutation per group,
    /// drawn group by group in canonical group order.
    pub fn random<R: Rng>(
        rel: &Relation,
        positions: &[usize],
        interner: &Interner,
        rng: &mut R,
    ) -> Self {
        let grouping = group_by(rel, positions, interner);
        let mut perm: Vec<u32> = Vec::new();
        Self::fill(&grouping, |_, members, tids| {
            perm.clear();
            perm.extend(0..members.len() as u32);
            perm.shuffle(rng);
            for (&s, &tid) in members.iter().zip(&perm) {
                tids[s as usize] = tid;
            }
        })
    }

    /// Build from an explicit permutation per group: `perms[g][k]` is the tid
    /// of the `k`-th canonical member of group `g`. Every group's tids must
    /// be a permutation of `0..|group|` — an ID-function is a bijection — or
    /// the result is a [`CommonError::Invariant`].
    pub fn from_permutations(grouping: &Grouping, perms: &[Vec<i64>]) -> CommonResult<Self> {
        let invalid = |detail: String| Err(CommonError::Invariant { detail });
        if perms.len() != grouping.group_count() {
            return invalid(format!(
                "{} permutation(s) for {} group(s)",
                perms.len(),
                grouping.group_count()
            ));
        }
        let mut taken: Vec<bool> = Vec::new();
        for (g, (perm, members)) in perms.iter().zip(grouping.iter()).enumerate() {
            let n = members.len();
            if perm.len() != n {
                return invalid(format!(
                    "group {g} has {n} member(s) but its permutation lists {} tid(s)",
                    perm.len()
                ));
            }
            taken.clear();
            taken.resize(n, false);
            for &tid in perm {
                match usize::try_from(tid).ok().filter(|&t| t < n && !taken[t]) {
                    Some(t) => taken[t] = true,
                    None => {
                        return invalid(format!(
                            "tids {perm:?} of group {g} are not a permutation of 0..{n}"
                        ))
                    }
                }
            }
        }
        Ok(Self::from_valid_permutations(grouping, perms))
    }

    /// [`IdAssignment::from_permutations`] for permutations the caller
    /// generated itself (the enumerators).
    pub(crate) fn from_valid_permutations(grouping: &Grouping, perms: &[Vec<i64>]) -> Self {
        Self::fill(grouping, |g, members, tids| {
            debug_assert_eq!(perms[g].len(), members.len(), "permutation matches group");
            for (&s, &tid) in members.iter().zip(&perms[g]) {
                tids[s as usize] = tid as u32;
            }
        })
    }

    /// Build by letting `fill(g, members, tids)` write the tid of each of
    /// group `g`'s members (scan positions) into the scan-aligned `tids`.
    fn fill(grouping: &Grouping, mut fill: impl FnMut(usize, &[u32], &mut [u32])) -> Self {
        let mut tids = vec![0u32; grouping.base.len];
        for (g, members) in grouping.iter().enumerate() {
            fill(g, members, &mut tids);
        }
        IdAssignment {
            positions: grouping.positions().to_vec(),
            tids,
            groups: grouping.group_count(),
            base: grouping.base,
        }
    }

    /// The grouping positions this assignment was built for.
    pub fn positions(&self) -> &[usize] {
        &self.positions
    }

    /// The tid assigned to `t`, if `t` is in `base` and `base` is the
    /// relation this assignment was built from. A linear scan: for
    /// inspection and tests, not for evaluation.
    pub fn tid(&self, base: &Relation, t: &Tuple) -> Option<i64> {
        if ScanStamp::of(base.iter()) != self.base {
            return None;
        }
        let i = base.iter().position(|x| x == t)?;
        Some(i64::from(self.tids[i]))
    }

    /// Number of tuples covered.
    pub fn len(&self) -> usize {
        self.tids.len()
    }

    /// True when the base relation was empty.
    pub fn is_empty(&self) -> bool {
        self.tids.is_empty()
    }

    /// Number of sub-relations the tids were assigned within.
    pub fn group_count(&self) -> usize {
        self.groups
    }
}

/// Materialize the ID-relation of `rel` under `assignment`: each tuple is
/// extended with its tid as a trailing `i`-sorted column. The result keeps
/// `rel`'s scan order, tuple for tuple.
///
/// Errors if the assignment was built for another relation (length or scan
/// fingerprint differ) — a buggy oracle must surface as a clean error, not
/// take down the evaluation.
pub fn make_id_relation(rel: &Relation, assignment: &IdAssignment) -> CommonResult<Relation> {
    let stamp = ScanStamp::of(rel.iter());
    if stamp != assignment.base {
        return Err(CommonError::Invariant {
            detail: format!(
                "ID-assignment was built for a {}-tuple relation and does not cover this \
                 {}-tuple one (scan fingerprint {:016x}, expected {:016x})",
                assignment.base.len, stamp.len, stamp.fingerprint, assignment.base.fingerprint
            ),
        });
    }
    let tuples: Vec<Tuple> = rel
        .iter()
        .zip(&assignment.tids)
        .map(|(t, &tid)| t.with_appended(Value::Int(i64::from(tid))))
        .collect();
    Ok(Relation::from_distinct(rel.rtype().id_version(), tuples))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn example1_relation(i: &Interner) -> Relation {
        let mut r = Relation::elementary(2);
        for (x, y) in [("a", "c"), ("a", "d"), ("b", "c")] {
            r.insert(vec![Value::Sym(i.intern(x)), Value::Sym(i.intern(y))].into())
                .unwrap();
        }
        r
    }

    fn tid_of(i: &Interner, r: &Relation, a: &IdAssignment, x: &str, y: &str) -> i64 {
        let t: Tuple = vec![Value::Sym(i.intern(x)), Value::Sym(i.intern(y))].into();
        a.tid(r, &t).unwrap()
    }

    #[test]
    fn canonical_assignment_matches_paper_first_listing() {
        // Paper Example 1 lists {(a,c,1),(a,d,0),(b,c,0)} and
        // {(a,c,0),(a,d,1),(b,c,0)} as the two ID-relations of r on {1}.
        // Canonical order puts (a,c) before (a,d), so the canonical
        // assignment is the second listing.
        let i = Interner::new();
        let r = example1_relation(&i);
        let a = IdAssignment::canonical(&r, &[0], &i);
        assert_eq!(tid_of(&i, &r, &a, "a", "c"), 0);
        assert_eq!(tid_of(&i, &r, &a, "a", "d"), 1);
        assert_eq!(tid_of(&i, &r, &a, "b", "c"), 0);
    }

    #[test]
    fn tids_are_bijective_within_groups() {
        let i = Interner::new();
        let r = example1_relation(&i);
        let mut rng = SmallRng::seed_from_u64(7);
        let a = IdAssignment::random(&r, &[0], &i, &mut rng);
        // Group "a" has tids {0,1}; group "b" has {0}.
        let mut tids_a = vec![tid_of(&i, &r, &a, "a", "c"), tid_of(&i, &r, &a, "a", "d")];
        tids_a.sort_unstable();
        assert_eq!(tids_a, vec![0, 1]);
        assert_eq!(tid_of(&i, &r, &a, "b", "c"), 0);
    }

    #[test]
    fn id_relation_has_id_version_type() {
        let i = Interner::new();
        let r = example1_relation(&i);
        let a = IdAssignment::canonical(&r, &[0], &i);
        let idr = make_id_relation(&r, &a).unwrap();
        assert_eq!(idr.rtype().to_string(), "001");
        assert_eq!(idr.len(), r.len());
    }

    #[test]
    fn empty_grouping_numbers_whole_relation() {
        let i = Interner::new();
        let r = example1_relation(&i);
        let a = IdAssignment::canonical(&r, &[], &i);
        let mut tids: Vec<i64> = r.iter().map(|t| a.tid(&r, t).unwrap()).collect();
        tids.sort_unstable();
        assert_eq!(tids, vec![0, 1, 2]);
    }

    #[test]
    fn from_permutations_respects_explicit_choice() {
        let i = Interner::new();
        let r = example1_relation(&i);
        let g = group_by(&r, &[0], &i);
        // Swap the "a" group: (a,c)↦1, (a,d)↦0 — the paper's first listing.
        let a = IdAssignment::from_permutations(&g, &[vec![1, 0], vec![0]]).unwrap();
        assert_eq!(tid_of(&i, &r, &a, "a", "c"), 1);
        assert_eq!(tid_of(&i, &r, &a, "a", "d"), 0);
        assert_eq!(tid_of(&i, &r, &a, "b", "c"), 0);
    }

    #[test]
    fn incomplete_assignment_is_an_error_not_a_panic() {
        let i = Interner::new();
        let r = example1_relation(&i);
        let a = IdAssignment::canonical(&r, &[0], &i);
        let mut bigger = r.clone();
        bigger
            .insert(vec![Value::Sym(i.intern("x")), Value::Sym(i.intern("y"))].into())
            .unwrap();
        let err = make_id_relation(&bigger, &a).unwrap_err();
        assert!(err.to_string().contains("invariant"), "{err}");
    }

    #[test]
    fn missing_tuple_has_no_tid() {
        let i = Interner::new();
        let r = example1_relation(&i);
        let a = IdAssignment::canonical(&r, &[0], &i);
        let t: Tuple = vec![Value::Sym(i.intern("x")), Value::Sym(i.intern("y"))].into();
        assert_eq!(a.tid(&r, &t), None);
    }

    #[test]
    fn from_permutations_rejects_non_bijections() {
        let i = Interner::new();
        let r = example1_relation(&i);
        let g = group_by(&r, &[0], &i);
        for perms in [
            vec![vec![0, 0], vec![0]],  // repeated tid
            vec![vec![1, 0], vec![5]],  // tid out of range
            vec![vec![0, -1], vec![0]], // negative tid
            vec![vec![0, 1, 2], vec![0]],
            vec![vec![0, 1]],
        ] {
            let err = IdAssignment::from_permutations(&g, &perms).unwrap_err();
            assert!(
                matches!(err, CommonError::Invariant { .. }),
                "{perms:?}: {err}"
            );
        }
    }

    #[test]
    fn id_relation_keeps_the_base_scan_order() {
        let i = Interner::new();
        // Insert against name order so scan order and canonical order differ.
        let mut r = Relation::elementary(2);
        for (x, y) in [("b", "c"), ("a", "d"), ("a", "c")] {
            r.insert(vec![Value::Sym(i.intern(x)), Value::Sym(i.intern(y))].into())
                .unwrap();
        }
        let a = IdAssignment::canonical(&r, &[0], &i);
        let idr = make_id_relation(&r, &a).unwrap();
        let stripped: Vec<Tuple> = idr.iter().map(|t| t.project(&[0, 1])).collect();
        let base: Vec<Tuple> = r.iter().cloned().collect();
        assert_eq!(stripped, base);
        let tids: Vec<Value> = idr.iter().map(|t| t[2]).collect();
        assert_eq!(tids, [Value::Int(0), Value::Int(1), Value::Int(0)]);
        assert_eq!(a.group_count(), 2);
    }

    #[test]
    fn assignment_for_another_relation_of_the_same_size_is_rejected() {
        let i = Interner::new();
        let r = example1_relation(&i);
        let a = IdAssignment::canonical(&r, &[0], &i);
        // Same length, one tuple different.
        let mut other = Relation::elementary(2);
        for (x, y) in [("a", "c"), ("a", "d"), ("b", "z")] {
            other
                .insert(vec![Value::Sym(i.intern(x)), Value::Sym(i.intern(y))].into())
                .unwrap();
        }
        assert!(make_id_relation(&other, &a).is_err());
        // Same tuples, another scan order: scan-aligned tids would land on
        // the wrong tuples, so this is rejected too.
        let mut reordered = Relation::elementary(2);
        for (x, y) in [("b", "c"), ("a", "d"), ("a", "c")] {
            reordered
                .insert(vec![Value::Sym(i.intern(x)), Value::Sym(i.intern(y))].into())
                .unwrap();
        }
        assert!(reordered.set_eq(&r));
        let err = make_id_relation(&reordered, &a).unwrap_err();
        assert!(err.to_string().contains("invariant"), "{err}");
        assert_eq!(a.tid(&reordered, &r.iter().next().unwrap().clone()), None);
    }
}
