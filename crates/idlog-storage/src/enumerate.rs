//! Enumeration of all ID-functions of a relation on a grouping set.
//!
//! A relation with sub-relation sizes `n₁ … n_k` has `∏ nᵢ!` ID-relations
//! (paper Example 1: sizes 2 and 1 give 2·1 = 2). Enumeration walks the
//! cartesian product of per-group permutations in lexicographic order; the
//! first assignment yielded is the canonical one.

use idlog_common::Interner;

use crate::group::{group_by, Grouping};
use crate::idrel::IdAssignment;
use crate::relation::Relation;

/// Number of ID-functions of `rel` on `positions`, saturating at `u128::MAX`.
pub fn count_id_functions(rel: &Relation, positions: &[usize], interner: &Interner) -> u128 {
    let grouping = group_by(rel, positions, interner);
    grouping.group_sizes().iter().fold(1u128, |acc, &n| {
        (1..=n as u128).fold(acc, |a, f| a.saturating_mul(f))
    })
}

/// Iterator over every [`IdAssignment`] of a relation on a grouping set.
///
/// Yields assignments in lexicographic order of per-group permutations
/// (canonical assignment first). The iterator owns its grouping, so it stays
/// valid after the base relation is dropped.
pub struct IdAssignmentIter {
    grouping: Grouping,
    /// Current permutation per group, or `None` once exhausted.
    perms: Option<Vec<Vec<i64>>>,
}

impl IdAssignmentIter {
    /// Enumerate assignments of `rel` grouped by `positions`.
    pub fn new(rel: &Relation, positions: &[usize], interner: &Interner) -> Self {
        let grouping = group_by(rel, positions, interner);
        let perms = Some(
            grouping
                .group_sizes()
                .iter()
                .map(|&n| (0..n as i64).collect())
                .collect(),
        );
        IdAssignmentIter { grouping, perms }
    }

    /// Advance `perm` to the next lexicographic permutation. Returns false
    /// when `perm` was the last one (it is left unchanged).
    fn next_permutation(perm: &mut [i64]) -> bool {
        if perm.len() < 2 {
            return false;
        }
        // Standard next_permutation: find the rightmost ascent.
        let mut i = perm.len() - 1;
        while i > 0 && perm[i - 1] >= perm[i] {
            i -= 1;
        }
        if i == 0 {
            return false;
        }
        let mut j = perm.len() - 1;
        while perm[j] <= perm[i - 1] {
            j -= 1;
        }
        perm.swap(i - 1, j);
        perm[i..].reverse();
        true
    }
}

impl Iterator for IdAssignmentIter {
    type Item = IdAssignment;

    fn next(&mut self) -> Option<IdAssignment> {
        let perms = self.perms.as_mut()?;
        let assignment = IdAssignment::from_valid_permutations(&self.grouping, perms);

        // Odometer across groups: bump the last group; on wrap, reset it and
        // carry into the previous group.
        let mut g = perms.len();
        loop {
            if g == 0 {
                self.perms = None;
                break;
            }
            g -= 1;
            if Self::next_permutation(&mut perms[g]) {
                break;
            }
            let n = perms[g].len() as i64;
            perms[g] = (0..n).collect();
        }
        Some(assignment)
    }
}

/// Number of *k-prefix arrangements* of `rel` on `positions`: assignments
/// that differ only in tids ≥ k are identified. `∏ m·(m−1)…(m−k+1)` over
/// group sizes `m`, saturating.
///
/// This is the enumeration space when every use of the ID-relation is known
/// to test only tids < k (the paper's footnotes 6–7: `N < 2` "ensures that
/// only two tuples of the relation emp will be used in the evaluation").
pub fn count_bounded_assignments(
    rel: &Relation,
    positions: &[usize],
    k: usize,
    interner: &Interner,
) -> u128 {
    let grouping = group_by(rel, positions, interner);
    grouping.group_sizes().iter().fold(1u128, |acc, &m| {
        let take = k.min(m);
        ((m - take + 1)..=m).fold(acc, |a, f| a.saturating_mul(f as u128))
    })
}

/// Iterator over the k-prefix arrangements of a relation on a grouping set:
/// per group, every ordered selection of `min(k, m)` members receives tids
/// `0..`, and the remaining members get the canonical completion (their
/// relative canonical order, shifted past the prefix).
///
/// Sound whenever the consumer only distinguishes tids < k: every full
/// ID-function agrees with exactly one arrangement on those tids.
pub struct BoundedAssignmentIter {
    grouping: Grouping,
    k: usize,
    /// Current selection per group: ordered member indices, or `None` when
    /// exhausted.
    selections: Option<Vec<Vec<usize>>>,
}

impl BoundedAssignmentIter {
    /// Enumerate arrangements of `rel` grouped by `positions`, bounded by
    /// `k` distinguishable tids.
    pub fn new(rel: &Relation, positions: &[usize], k: usize, interner: &Interner) -> Self {
        let grouping = group_by(rel, positions, interner);
        let selections = Some(
            grouping
                .group_sizes()
                .iter()
                .map(|&m| (0..k.min(m)).collect())
                .collect(),
        );
        BoundedAssignmentIter {
            grouping,
            k,
            selections,
        }
    }

    /// Advance `sel` to the next ordered selection (lexicographic over the
    /// index sequence, skipping repeats). Returns false at the end.
    fn next_selection(sel: &mut [usize], m: usize) -> bool {
        // Odometer over distinct-index sequences of fixed length.
        let len = sel.len();
        if len == 0 {
            return false;
        }
        let mut i = len;
        loop {
            if i == 0 {
                return false;
            }
            i -= 1;
            // Bump position i to the next value unused by positions < i.
            let mut v = sel[i] + 1;
            loop {
                if v >= m {
                    break;
                }
                if !sel[..i].contains(&v) {
                    sel[i] = v;
                    // Reset the tail to the smallest unused values.
                    for j in (i + 1)..len {
                        let mut w = 0;
                        while sel[..j].contains(&w) {
                            w += 1;
                        }
                        sel[j] = w;
                    }
                    return true;
                }
                v += 1;
            }
        }
    }
}

impl Iterator for BoundedAssignmentIter {
    type Item = IdAssignment;

    fn next(&mut self) -> Option<IdAssignment> {
        let selections = self.selections.as_mut()?;
        let assignment = bounded_assignment(&self.grouping, selections);
        // Odometer across groups.
        let mut g = selections.len();
        loop {
            if g == 0 {
                self.selections = None;
                break;
            }
            g -= 1;
            let m = self.grouping.group(g).len();
            if Self::next_selection(&mut selections[g], m) {
                break;
            }
            let take = self.k.min(m);
            selections[g] = (0..take).collect();
        }
        Some(assignment)
    }
}

/// Build the assignment for one selection vector: selected members get tids
/// `0..len`, the rest the canonical completion.
fn bounded_assignment(grouping: &Grouping, selections: &[Vec<usize>]) -> IdAssignment {
    let perms: Vec<Vec<i64>> = selections
        .iter()
        .enumerate()
        .map(|(g, sel)| {
            let m = grouping.group(g).len();
            let mut perm = vec![-1i64; m];
            for (tid, &member) in sel.iter().enumerate() {
                perm[member] = tid as i64;
            }
            let mut next = sel.len() as i64;
            for slot in perm.iter_mut() {
                if *slot < 0 {
                    *slot = next;
                    next += 1;
                }
            }
            perm
        })
        .collect();
    IdAssignment::from_valid_permutations(grouping, &perms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use idlog_common::{Tuple, Value};

    fn example1_relation(i: &Interner) -> Relation {
        let mut r = Relation::elementary(2);
        for (x, y) in [("a", "c"), ("a", "d"), ("b", "c")] {
            r.insert(vec![Value::Sym(i.intern(x)), Value::Sym(i.intern(y))].into())
                .unwrap();
        }
        r
    }

    #[test]
    fn example1_count_is_two() {
        let i = Interner::new();
        let r = example1_relation(&i);
        assert_eq!(count_id_functions(&r, &[0], &i), 2);
    }

    #[test]
    fn example1_enumerates_both_listings() {
        let i = Interner::new();
        let r = example1_relation(&i);
        let all: Vec<IdAssignment> = IdAssignmentIter::new(&r, &[0], &i).collect();
        assert_eq!(all.len(), 2);
        let t_ac: Tuple = vec![Value::Sym(i.intern("a")), Value::Sym(i.intern("c"))].into();
        let t_ad: Tuple = vec![Value::Sym(i.intern("a")), Value::Sym(i.intern("d"))].into();
        let t_bc: Tuple = vec![Value::Sym(i.intern("b")), Value::Sym(i.intern("c"))].into();
        // Both paper listings appear, each exactly once.
        let tids: Vec<(i64, i64, i64)> = all
            .iter()
            .map(|a| {
                (
                    a.tid(&r, &t_ac).unwrap(),
                    a.tid(&r, &t_ad).unwrap(),
                    a.tid(&r, &t_bc).unwrap(),
                )
            })
            .collect();
        assert!(tids.contains(&(0, 1, 0)));
        assert!(tids.contains(&(1, 0, 0)));
    }

    #[test]
    fn count_matches_product_of_factorials() {
        let i = Interner::new();
        // Groups of sizes 3 and 2 → 3!·2! = 12.
        let mut r = Relation::elementary(2);
        for (x, y) in [
            ("g1", "a"),
            ("g1", "b"),
            ("g1", "c"),
            ("g2", "a"),
            ("g2", "b"),
        ] {
            r.insert(vec![Value::Sym(i.intern(x)), Value::Sym(i.intern(y))].into())
                .unwrap();
        }
        assert_eq!(count_id_functions(&r, &[0], &i), 12);
        let all: Vec<_> = IdAssignmentIter::new(&r, &[0], &i).collect();
        assert_eq!(all.len(), 12);
        // All assignments are pairwise distinct.
        for (x, a) in all.iter().enumerate() {
            for b in &all[x + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn empty_relation_has_one_trivial_assignment() {
        let i = Interner::new();
        let r = Relation::elementary(2);
        assert_eq!(count_id_functions(&r, &[0], &i), 1);
        let all: Vec<_> = IdAssignmentIter::new(&r, &[0], &i).collect();
        assert_eq!(all.len(), 1);
        assert!(all[0].is_empty());
    }

    #[test]
    fn grouping_by_all_attrs_is_deterministic() {
        let i = Interner::new();
        let r = example1_relation(&i);
        // All groups singletons → exactly one assignment, all tids 0.
        let all: Vec<_> = IdAssignmentIter::new(&r, &[0, 1], &i).collect();
        assert_eq!(all.len(), 1);
        for t in r.iter() {
            assert_eq!(all[0].tid(&r, t), Some(0));
        }
    }

    #[test]
    fn first_yielded_assignment_is_canonical() {
        let i = Interner::new();
        let r = example1_relation(&i);
        let first = IdAssignmentIter::new(&r, &[0], &i).next().unwrap();
        let canonical = IdAssignment::canonical(&r, &[0], &i);
        assert_eq!(first, canonical);
    }

    fn one_group_relation(i: &Interner, n: usize) -> Relation {
        let mut r = Relation::elementary(2);
        for k in 0..n {
            r.insert(
                vec![
                    Value::Sym(i.intern("g")),
                    Value::Sym(i.intern(&format!("m{k}"))),
                ]
                .into(),
            )
            .unwrap();
        }
        r
    }

    #[test]
    fn bounded_count_is_falling_factorial() {
        let i = Interner::new();
        let r = one_group_relation(&i, 5);
        // k=1: 5 arrangements; k=2: 5·4 = 20; k=5 (= m): 5! = 120.
        assert_eq!(count_bounded_assignments(&r, &[0], 1, &i), 5);
        assert_eq!(count_bounded_assignments(&r, &[0], 2, &i), 20);
        assert_eq!(count_bounded_assignments(&r, &[0], 5, &i), 120);
        // k larger than the group clamps to m.
        assert_eq!(count_bounded_assignments(&r, &[0], 9, &i), 120);
    }

    #[test]
    fn bounded_iter_k1_enumerates_each_leader_once() {
        let i = Interner::new();
        let r = one_group_relation(&i, 4);
        let all: Vec<IdAssignment> = BoundedAssignmentIter::new(&r, &[0], 1, &i).collect();
        assert_eq!(all.len(), 4);
        // Each member holds tid 0 in exactly one arrangement.
        let mut leaders: Vec<String> = all
            .iter()
            .map(|a| {
                let t = r
                    .iter()
                    .find(|t| a.tid(&r, t) == Some(0))
                    .expect("every group has a tid-0 tuple");
                i.resolve(t[1].as_sym().unwrap())
            })
            .collect();
        leaders.sort();
        assert_eq!(leaders, ["m0", "m1", "m2", "m3"]);
    }

    #[test]
    fn bounded_iter_k2_enumerates_ordered_pairs() {
        let i = Interner::new();
        let r = one_group_relation(&i, 4);
        let all: Vec<IdAssignment> = BoundedAssignmentIter::new(&r, &[0], 2, &i).collect();
        assert_eq!(all.len(), 12);
        // All (tid0, tid1) leader pairs distinct.
        let mut pairs: Vec<(i64, i64)> = Vec::new();
        for a in &all {
            let find = |tid: i64| {
                r.iter()
                    .position(|t| a.tid(&r, t) == Some(tid))
                    .expect("prefix tid present") as i64
            };
            pairs.push((find(0), find(1)));
        }
        pairs.sort_unstable();
        pairs.dedup();
        assert_eq!(pairs.len(), 12);
    }

    #[test]
    fn bounded_iter_k_equals_group_size_is_full_enumeration() {
        let i = Interner::new();
        let r = example1_relation(&i);
        let bounded: Vec<IdAssignment> = BoundedAssignmentIter::new(&r, &[0], 2, &i).collect();
        let full: Vec<IdAssignment> = IdAssignmentIter::new(&r, &[0], &i).collect();
        assert_eq!(bounded.len(), full.len());
        for a in &full {
            assert!(bounded.contains(a));
        }
    }

    #[test]
    fn bounded_iter_multiple_groups() {
        let i = Interner::new();
        // Groups of 3 and 2 with k=1 → 3 × 2 = 6 arrangements.
        let mut r = Relation::elementary(2);
        for (g, m) in [("a", "x"), ("a", "y"), ("a", "z"), ("b", "x"), ("b", "y")] {
            r.insert(vec![Value::Sym(i.intern(g)), Value::Sym(i.intern(m))].into())
                .unwrap();
        }
        let all: Vec<IdAssignment> = BoundedAssignmentIter::new(&r, &[0], 1, &i).collect();
        assert_eq!(all.len(), 6);
        assert_eq!(count_bounded_assignments(&r, &[0], 1, &i), 6);
    }

    #[test]
    fn bounded_iter_on_empty_relation() {
        let i = Interner::new();
        let r = Relation::elementary(2);
        let all: Vec<IdAssignment> = BoundedAssignmentIter::new(&r, &[0], 1, &i).collect();
        assert_eq!(all.len(), 1);
        assert!(all[0].is_empty());
    }
}
