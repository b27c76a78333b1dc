//! Property-based tests for relations, grouping, and ID-relations.
//!
//! The differential properties compare the sort-once grouping and the
//! scan-aligned assignments against [`reference`], a straightforward
//! implementation kept here: hash-partition by key, then sort groups and
//! members with `Tuple::cmp_canonical`.

use std::collections::HashMap;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use idlog_common::{Interner, RelType, Sort, Tuple, Value};
use idlog_storage::{
    count_bounded_assignments, count_id_functions, group_by, make_id_relation,
    BoundedAssignmentIter, IdAssignment, IdAssignmentIter, Relation,
};

/// A random small binary relation over a tiny symbolic domain (so groups of
/// interesting sizes appear).
fn arb_relation() -> impl Strategy<Value = (Interner, Relation)> {
    proptest::collection::vec((0usize..3, 0usize..4), 0..8).prop_map(|pairs| {
        let interner = Interner::new();
        let mut rel = Relation::elementary(2);
        for (g, m) in pairs {
            let t: Tuple = vec![
                Value::Sym(interner.intern(&format!("g{g}"))),
                Value::Sym(interner.intern(&format!("m{m}"))),
            ]
            .into();
            let _ = rel.insert(t);
        }
        (interner, rel)
    })
}

proptest! {
    /// Grouping is a partition: every tuple in exactly one group, keys match.
    #[test]
    fn grouping_partitions((interner, rel) in arb_relation(), by_first in any::<bool>()) {
        let positions: Vec<usize> = if by_first { vec![0] } else { vec![1] };
        let grouping = group_by(&rel, &positions, &interner);
        let scan: Vec<&Tuple> = rel.iter().collect();
        let mut seen = vec![false; rel.len()];
        for members in grouping.iter() {
            let key = scan[members[0] as usize].project(&positions);
            for &m in members {
                prop_assert_eq!(&scan[m as usize].project(&positions), &key);
                prop_assert!(!seen[m as usize], "scan position {} in two groups", m);
                seen[m as usize] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    /// Every ID-assignment is a bijection group → {0..|g|−1}.
    #[test]
    fn assignments_are_bijective((interner, rel) in arb_relation()) {
        let grouping = group_by(&rel, &[0], &interner);
        for assignment in IdAssignmentIter::new(&rel, &[0], &interner).take(50) {
            for g in 0..grouping.group_count() {
                let members = grouping.group(g);
                let scan: Vec<&Tuple> = rel.iter().collect();
                let mut tids: Vec<i64> = members
                    .iter()
                    .map(|&m| assignment.tid(&rel, scan[m as usize]).unwrap())
                    .collect();
                tids.sort_unstable();
                let expect: Vec<i64> = (0..members.len() as i64).collect();
                prop_assert_eq!(tids, expect);
            }
        }
    }

    /// The enumerator yields exactly `count_id_functions` distinct
    /// assignments (when small enough to walk).
    #[test]
    fn enumeration_count_matches((interner, rel) in arb_relation()) {
        let count = count_id_functions(&rel, &[0], &interner);
        prop_assume!(count <= 200);
        let all: Vec<IdAssignment> = IdAssignmentIter::new(&rel, &[0], &interner).collect();
        prop_assert_eq!(all.len() as u128, count);
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                prop_assert_ne!(a, b);
            }
        }
    }

    /// The bounded enumerator yields exactly the falling-factorial count,
    /// and every arrangement's tid-0 row set appears among the full
    /// enumeration's.
    #[test]
    fn bounded_enumeration_is_sound((interner, rel) in arb_relation(), k in 1usize..3) {
        let count = count_bounded_assignments(&rel, &[0], k, &interner);
        prop_assume!(count <= 300);
        let bounded: Vec<IdAssignment> =
            BoundedAssignmentIter::new(&rel, &[0], k, &interner).collect();
        prop_assert_eq!(bounded.len() as u128, count);

        // Prefix-distinctness: no two arrangements agree on all tids < k.
        let prefix = |a: &IdAssignment| -> Vec<(Tuple, i64)> {
            let mut v: Vec<(Tuple, i64)> = rel
                .iter()
                .filter_map(|t| {
                    let tid = a.tid(&rel, t).unwrap();
                    (tid < k as i64).then(|| (t.clone(), tid))
                })
                .collect();
            v.sort();
            v
        };
        let mut prefixes: Vec<_> = bounded.iter().map(prefix).collect();
        prefixes.sort();
        let before = prefixes.len();
        prefixes.dedup();
        prop_assert_eq!(prefixes.len(), before, "arrangements must differ on tids < k");
    }

    /// Completeness of the bounded walk: every full assignment's k-prefix is
    /// realized by some arrangement.
    #[test]
    fn bounded_enumeration_is_complete((interner, rel) in arb_relation(), k in 1usize..3) {
        prop_assume!(count_id_functions(&rel, &[0], &interner) <= 120);
        let prefix = |a: &IdAssignment| -> Vec<(Tuple, i64)> {
            let mut v: Vec<(Tuple, i64)> = rel
                .iter()
                .filter_map(|t| {
                    let tid = a.tid(&rel, t).unwrap();
                    (tid < k as i64).then(|| (t.clone(), tid))
                })
                .collect();
            v.sort();
            v
        };
        let bounded_prefixes: Vec<_> = BoundedAssignmentIter::new(&rel, &[0], k, &interner)
            .map(|a| prefix(&a))
            .collect();
        for full in IdAssignmentIter::new(&rel, &[0], &interner) {
            prop_assert!(bounded_prefixes.contains(&prefix(&full)));
        }
    }

    /// Materialized ID-relations have the right shape: same cardinality,
    /// arity+1, and stripping tids recovers the base relation.
    #[test]
    fn id_relation_shape((interner, rel) in arb_relation()) {
        let assignment = IdAssignment::canonical(&rel, &[0], &interner);
        let idrel = make_id_relation(&rel, &assignment).unwrap();
        prop_assert_eq!(idrel.len(), rel.len());
        prop_assert_eq!(idrel.arity(), rel.arity() + 1);
        for t in idrel.iter() {
            let base = t.project(&[0, 1]);
            prop_assert!(rel.contains(&base));
            prop_assert_eq!(t[2], Value::Int(assignment.tid(&rel, &base).unwrap()));
        }
    }
}

/// The grouping and tid assignment the sort-once implementation must
/// reproduce: partition by key in a hash map, then sort groups by key and
/// members by tuple, comparing through `Tuple::cmp_canonical` (one interner
/// lock per comparison).
mod reference {
    use super::*;

    /// Groups in canonical key order, members in canonical order.
    pub fn group_by(rel: &Relation, positions: &[usize], interner: &Interner) -> Vec<Vec<Tuple>> {
        let mut pos: Vec<usize> = positions.to_vec();
        pos.sort_unstable();
        pos.dedup();
        let mut map: HashMap<Tuple, Vec<Tuple>> = HashMap::new();
        for t in rel.iter() {
            map.entry(t.project(&pos)).or_default().push(t.clone());
        }
        let mut groups: Vec<(Tuple, Vec<Tuple>)> = map.into_iter().collect();
        groups.sort_by(|(a, _), (b, _)| a.cmp_canonical(b, interner));
        groups
            .into_iter()
            .map(|(_, mut members)| {
                members.sort_by(|a, b| a.cmp_canonical(b, interner));
                members
            })
            .collect()
    }

    /// Tuple → tid, where `perm(g, n)` gives group `g`'s tids in member order.
    pub fn tids(
        groups: &[Vec<Tuple>],
        mut perm: impl FnMut(usize, usize) -> Vec<i64>,
    ) -> HashMap<Tuple, i64> {
        let mut out = HashMap::new();
        for (g, members) in groups.iter().enumerate() {
            for (t, tid) in members.iter().zip(perm(g, members.len())) {
                out.insert(t.clone(), tid);
            }
        }
        out
    }

    /// The old random assignment: one shuffled `0..n` per group, drawn in
    /// canonical group order.
    pub fn random(groups: &[Vec<Tuple>], seed: u64) -> HashMap<Tuple, i64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        tids(groups, |_, n| {
            let mut perm: Vec<i64> = (0..n as i64).collect();
            perm.shuffle(&mut rng);
            perm
        })
    }
}

/// Symbol names whose name order disagrees with their length order.
const NAMES: [&str; 5] = ["a", "ab", "b", "ba", "bb"];

/// A relation of arity 1–3 whose columns are each `Int` or `Sym` (small
/// domains, so groups of every size appear), with the symbols interned in
/// reverse name order, plus a grouping that may be empty, repeated or
/// unsorted.
#[derive(Debug)]
struct Case {
    interner: Interner,
    rel: Relation,
    positions: Vec<usize>,
}

fn arb_case() -> impl Strategy<Value = Case> {
    (
        1usize..4,
        proptest::collection::vec(any::<bool>(), 3..4),
        proptest::collection::vec((0usize..5, 0usize..5, 0usize..5), 0..40),
        proptest::collection::vec(0usize..3, 0..4),
    )
        .prop_map(|(arity, int_cols, rows, positions)| {
            let interner = Interner::new();
            for name in NAMES.iter().rev() {
                interner.intern(name);
            }
            let sorts: Vec<Sort> = (0..arity)
                .map(|c| if int_cols[c] { Sort::I } else { Sort::U })
                .collect();
            let mut rel = Relation::new(RelType::new(sorts.clone()));
            for (a, b, c) in rows {
                let t: Tuple = [a, b, c][..arity]
                    .iter()
                    .zip(&sorts)
                    .map(|(&v, sort)| match sort {
                        Sort::I => Value::Int(v as i64 * 3 - 6),
                        Sort::U => Value::Sym(interner.intern(NAMES[v])),
                    })
                    .collect();
                rel.insert(t).unwrap();
            }
            let positions = positions.into_iter().map(|p| p % arity).collect();
            Case {
                interner,
                rel,
                positions,
            }
        })
}

/// Every tuple's tid under `a`, in scan order.
fn scan_tids(a: &IdAssignment, rel: &Relation) -> Vec<i64> {
    rel.iter().map(|t| a.tid(rel, t).unwrap()).collect()
}

/// The reference map's tids, in scan order.
fn reference_scan_tids(tids: &HashMap<Tuple, i64>, rel: &Relation) -> Vec<i64> {
    rel.iter().map(|t| tids[t]).collect()
}

proptest! {
    /// The sort-once grouping yields the reference groups, in the same
    /// order, with members in the same order.
    #[test]
    fn grouping_matches_reference(case in arb_case()) {
        let Case { interner, rel, positions } = case;
        let want = reference::group_by(&rel, &positions, &interner);
        let got = group_by(&rel, &positions, &interner);
        let scan: Vec<&Tuple> = rel.iter().collect();
        let got: Vec<Vec<Tuple>> = got
            .iter()
            .map(|members| members.iter().map(|&m| scan[m as usize].clone()).collect())
            .collect();
        prop_assert_eq!(got, want);
    }

    /// Canonical, seeded and explicit assignments agree with the reference
    /// tid for every tuple, and the ID-relation is the base scan with each
    /// tuple's tid appended.
    #[test]
    fn assignments_match_reference(case in arb_case(), seed in any::<u64>()) {
        let Case { interner, rel, positions } = case;
        let groups = reference::group_by(&rel, &positions, &interner);

        let canonical = IdAssignment::canonical(&rel, &positions, &interner);
        let want = reference::tids(&groups, |_, n| (0..n as i64).collect());
        prop_assert_eq!(scan_tids(&canonical, &rel), reference_scan_tids(&want, &rel));
        prop_assert_eq!(canonical.group_count(), groups.len());

        let mut rng = SmallRng::seed_from_u64(seed);
        let random = IdAssignment::random(&rel, &positions, &interner, &mut rng);
        let want = reference::random(&groups, seed);
        prop_assert_eq!(scan_tids(&random, &rel), reference_scan_tids(&want, &rel));

        // Explicit: each group reversed, then rotated by its index.
        let perms: Vec<Vec<i64>> = groups
            .iter()
            .enumerate()
            .map(|(g, members)| {
                let mut p: Vec<i64> = (0..members.len() as i64).rev().collect();
                let len = p.len();
                p.rotate_left(g % len.max(1));
                p
            })
            .collect();
        let grouping = group_by(&rel, &positions, &interner);
        let explicit = IdAssignment::from_permutations(&grouping, &perms).unwrap();
        let want = reference::tids(&groups, |g, _| perms[g].clone());
        prop_assert_eq!(scan_tids(&explicit, &rel), reference_scan_tids(&want, &rel));

        let idrel = make_id_relation(&rel, &explicit).unwrap();
        let expected: Vec<Tuple> = rel
            .iter()
            .map(|t| t.with_appended(Value::Int(want[t])))
            .collect();
        prop_assert_eq!(idrel.iter().cloned().collect::<Vec<_>>(), expected);
    }

    /// `sorted_canonical` shares the ranking and agrees with a
    /// `cmp_canonical` sort.
    #[test]
    fn sorted_canonical_matches_reference(case in arb_case()) {
        let Case { interner, rel, .. } = case;
        let mut want: Vec<Tuple> = rel.iter().cloned().collect();
        want.sort_by(|a, b| a.cmp_canonical(b, &interner));
        prop_assert_eq!(rel.sorted_canonical(&interner), want);
    }
}

/// Seeded tids on a fixed mixed-sort relation (names interned against name
/// order), pinned to the values the hash-map implementation drew: the
/// seeded oracle's choices must not drift with the grouping code.
#[test]
fn random_assignment_tids_are_pinned() {
    let interner = Interner::new();
    let mut rel = Relation::new(RelType::new(vec![Sort::U, Sort::I, Sort::U]));
    for k in (0..40).rev() {
        let t: Tuple = vec![
            Value::Sym(interner.intern(&format!("n{k:02}"))),
            Value::Int((k * 7) % 5),
            Value::Sym(interner.intern(&format!("t{}", k % 3))),
        ]
        .into();
        rel.insert(t).unwrap();
    }
    let fixtures: [(u64, &[usize], [i64; 40]); 3] = [
        (
            2024,
            &[1],
            [
                2, 5, 4, 0, 1, 4, 2, 2, 6, 3, 0, 1, 3, 5, 0, 6, 7, 7, 1, 2, 7, 6, 1, 7, 5, 1, 4, 6,
                2, 6, 5, 3, 5, 3, 7, 3, 0, 0, 4, 4,
            ],
        ),
        (
            2024,
            &[2, 1],
            [
                1, 2, 1, 2, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 2, 1, 0, 0, 2, 2, 1, 2, 2, 2, 0, 0, 1,
                1, 1, 0, 0, 2, 1, 1, 1, 2, 1, 0, 0,
            ],
        ),
        (
            7,
            &[],
            [
                21, 38, 6, 19, 22, 0, 8, 24, 29, 10, 39, 4, 5, 13, 36, 23, 31, 12, 1, 34, 28, 32,
                7, 15, 14, 9, 11, 26, 35, 33, 37, 16, 3, 2, 18, 25, 27, 20, 17, 30,
            ],
        ),
    ];
    for (seed, positions, want) in fixtures {
        let mut rng = SmallRng::seed_from_u64(seed);
        let a = IdAssignment::random(&rel, positions, &interner, &mut rng);
        assert_eq!(
            scan_tids(&a, &rel),
            want,
            "seed {seed}, grouping {positions:?}"
        );
    }
}
