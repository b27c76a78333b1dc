//! Sub-relations grouped by an attribute set.
//!
//! The paper (§2.1): "A *sub-relation* of a relation r grouped by a set s of
//! attributes of r is a subset of r that contains all the tuples in r which
//! have the same value on each attribute in s." ID-functions are chosen per
//! sub-relation, so grouping is the first step of every tid assignment.
//!
//! Grouping is one sort. Every distinct value of the relation gets a dense
//! canonical rank — symbols ranked by name under a single interner lock
//! ([`Interner::with_names`]) — so each tuple becomes a flat integer key:
//! grouping columns first, the other columns after. The scan positions are
//! radix-sorted once by those keys, and groups come out as contiguous runs,
//! in canonical key order, with their members in canonical tuple order. No
//! tuple is cloned.

use std::hash::{Hash, Hasher};

use idlog_common::{FxHasher, Interner, SymbolId, Tuple, Value};

use crate::relation::Relation;

/// A relation's length and an order-sensitive hash of its scan: how an
/// [`crate::IdAssignment`] recognizes the relation it was built for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ScanStamp {
    pub(crate) len: usize,
    pub(crate) fingerprint: u64,
}

impl ScanStamp {
    pub(crate) fn of<'a>(scan: impl IntoIterator<Item = &'a Tuple>) -> Self {
        let mut h = FxHasher::default();
        let mut len = 0;
        for t in scan {
            t.hash(&mut h);
            len += 1;
        }
        ScanStamp {
            len,
            fingerprint: h.finish(),
        }
    }
}

/// Every distinct value of a scan, ranked densely in canonical order
/// ([`Value::cmp_canonical`]): integers numerically, then symbols by name.
struct ValueRanks {
    /// The distinct integers, ascending.
    ints: Vec<i64>,
    /// Indexed by symbol id: 1 + the symbol's name rank, or 0 when the
    /// symbol does not occur.
    syms: Vec<u32>,
    sym_count: usize,
}

impl ValueRanks {
    /// One pass collects the distinct values; one interner lock orders the
    /// symbols by name.
    fn of(scan: &[&Tuple], interner: &Interner) -> Self {
        let mut ints: Vec<i64> = Vec::new();
        let mut syms = vec![0u32; interner.len()];
        let mut distinct: Vec<SymbolId> = Vec::new();
        for t in scan {
            for &v in t.values() {
                match v {
                    Value::Int(n) => ints.push(n),
                    Value::Sym(s) if syms[s.index()] == 0 => {
                        syms[s.index()] = 1;
                        distinct.push(s);
                    }
                    Value::Sym(_) => {}
                }
            }
        }
        ints.sort_unstable();
        ints.dedup();
        interner.with_names(|names| {
            // Most names differ in their first eight bytes, so comparing
            // that prefix as an integer settles most comparisons without
            // following the string pointer.
            let mut named: Vec<(u64, &str, SymbolId)> = distinct
                .iter()
                .map(|&s| {
                    let name: &str = &names[s.index()];
                    (name_prefix(name), name, s)
                })
                .collect();
            named.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(b.1)));
            for (rank, &(_, _, s)) in named.iter().enumerate() {
                syms[s.index()] = rank as u32 + 1;
            }
        });
        ValueRanks {
            ints,
            syms,
            sym_count: distinct.len(),
        }
    }

    /// Number of distinct values: ranks lie in `0..count`.
    fn count(&self) -> usize {
        self.ints.len() + self.sym_count
    }

    fn rank(&self, v: Value) -> u32 {
        match v {
            Value::Int(n) => self.ints.partition_point(|&x| x < n) as u32,
            Value::Sym(s) => (self.ints.len() as u32) + self.syms[s.index()] - 1,
        }
    }
}

/// The first eight bytes of `name`, zero-padded, as a big-endian integer:
/// ordering by `(prefix, name)` is ordering by `name`.
fn name_prefix(name: &str) -> u64 {
    let mut bytes = [0u8; 8];
    let n = name.len().min(8);
    bytes[..n].copy_from_slice(&name.as_bytes()[..n]);
    u64::from_be_bytes(bytes)
}

/// A scan sorted canonically on some columns: `order` lists scan positions
/// in sorted order, and `keys[i * width..][..width]` holds scan position
/// `i`'s value ranks on those columns.
pub(crate) struct Ranked {
    pub(crate) order: Vec<u32>,
    keys: Vec<u32>,
    width: usize,
}

impl Ranked {
    /// Sort `scan` canonically by the columns `cols`, compared left to
    /// right. Callers list every column, so distinct tuples never tie and
    /// the order is total.
    pub(crate) fn sort(scan: &[&Tuple], cols: &[usize], interner: &Interner) -> Self {
        let ranks = ValueRanks::of(scan, interner);
        let width = cols.len();
        let mut keys = Vec::with_capacity(scan.len() * width);
        for t in scan {
            keys.extend(cols.iter().map(|&c| ranks.rank(t[c])));
        }
        // LSD radix sort: a stable counting sort per column, last column
        // first. Ranks are dense, so each pass is O(scan + distinct values).
        let mut order: Vec<u32> = (0..scan.len() as u32).collect();
        let mut sorted = vec![0u32; scan.len()];
        let mut starts = vec![0u32; ranks.count() + 1];
        for c in (0..width).rev() {
            let rank = |i: u32| keys[i as usize * width + c] as usize;
            starts.fill(0);
            for &i in &order {
                starts[rank(i) + 1] += 1;
            }
            for r in 1..starts.len() {
                starts[r] += starts[r - 1];
            }
            for &i in &order {
                let slot = &mut starts[rank(i)];
                sorted[*slot as usize] = i;
                *slot += 1;
            }
            std::mem::swap(&mut order, &mut sorted);
        }
        Ranked { order, keys, width }
    }

    /// Scan position `i`'s ranks on the first `n` sort columns.
    fn prefix(&self, i: u32, n: usize) -> &[u32] {
        let start = i as usize * self.width;
        &self.keys[start..start + n]
    }
}

/// A relation partitioned into sub-relations by a grouping attribute set.
///
/// Members are named by their position in the base relation's scan
/// ([`Relation::iter`] order). Groups are in canonical key order and each
/// group's members in canonical tuple order, so group index `g` and member
/// rank `k` are stable, deterministic coordinates for enumeration and for
/// the canonical tid oracle.
#[derive(Debug, Clone)]
pub struct Grouping {
    /// 0-based grouping positions, ascending.
    positions: Vec<usize>,
    /// Scan positions, group after group, each group in canonical order.
    order: Vec<u32>,
    /// Group `g` is `order[bounds[g]..bounds[g + 1]]`.
    bounds: Vec<u32>,
    /// The base relation this grouping was computed from.
    pub(crate) base: ScanStamp,
}

impl Grouping {
    /// The grouping positions (0-based, ascending).
    pub fn positions(&self) -> &[usize] {
        &self.positions
    }

    /// Number of sub-relations.
    pub fn group_count(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Iterate the groups in canonical key order; each is its members' scan
    /// positions in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> {
        self.bounds
            .windows(2)
            .map(|w| &self.order[w[0] as usize..w[1] as usize])
    }

    /// The scan positions of group `g`'s members (canonical order).
    pub fn group(&self, g: usize) -> &[u32] {
        &self.order[self.bounds[g] as usize..self.bounds[g + 1] as usize]
    }

    /// Sizes of all groups, in group order.
    pub fn group_sizes(&self) -> Vec<usize> {
        self.bounds
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .collect()
    }
}

/// Partition `rel` into sub-relations grouped by `positions` (0-based).
///
/// Positions are deduplicated and sorted; an empty position set yields a
/// single group containing the whole relation (the paper's most primitive
/// ID-predicate `p[∅]`).
pub fn group_by(rel: &Relation, positions: &[usize], interner: &Interner) -> Grouping {
    let mut pos: Vec<usize> = positions.to_vec();
    pos.sort_unstable();
    pos.dedup();

    // Grouping columns first: within a group they are equal, so the other
    // columns alone order the members.
    let cols: Vec<usize> = pos
        .iter()
        .copied()
        .chain((0..rel.arity()).filter(|c| !pos.contains(c)))
        .collect();
    let scan: Vec<&Tuple> = rel.iter().collect();
    let ranked = Ranked::sort(&scan, &cols, interner);
    let mut bounds: Vec<u32> = Vec::new();
    let mut prev: Option<u32> = None;
    for (i, &s) in ranked.order.iter().enumerate() {
        if prev.is_none_or(|p| ranked.prefix(p, pos.len()) != ranked.prefix(s, pos.len())) {
            bounds.push(i as u32);
        }
        prev = Some(s);
    }
    bounds.push(scan.len() as u32);
    Grouping {
        positions: pos,
        order: ranked.order,
        bounds,
        base: ScanStamp::of(scan),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idlog_common::{RelType, Sort, Value};

    fn example1_relation(i: &Interner) -> Relation {
        // Paper Example 1: r = {(a,c), (a,d), (b,c)}.
        let mut r = Relation::elementary(2);
        for (x, y) in [("a", "c"), ("a", "d"), ("b", "c")] {
            r.insert(vec![Value::Sym(i.intern(x)), Value::Sym(i.intern(y))].into())
                .unwrap();
        }
        r
    }

    /// The member tuples of group `g`, in group order.
    fn members(r: &Relation, g: &Grouping, k: usize) -> Vec<Tuple> {
        let scan: Vec<&Tuple> = r.iter().collect();
        g.group(k)
            .iter()
            .map(|&s| scan[s as usize].clone())
            .collect()
    }

    #[test]
    fn example1_groups_by_first_attribute() {
        let i = Interner::new();
        let r = example1_relation(&i);
        let g = group_by(&r, &[0], &i);
        // Paper: sub-relations are {(a,c),(a,d)} and {(b,c)}.
        assert_eq!(g.group_count(), 2);
        assert_eq!(g.group_sizes(), vec![2, 1]);
    }

    #[test]
    fn empty_grouping_is_one_group() {
        let i = Interner::new();
        let r = example1_relation(&i);
        let g = group_by(&r, &[], &i);
        assert_eq!(g.group_count(), 1);
        assert_eq!(g.group(0).len(), 3);
    }

    #[test]
    fn grouping_by_all_attrs_is_singletons() {
        let i = Interner::new();
        let r = example1_relation(&i);
        let g = group_by(&r, &[0, 1], &i);
        assert_eq!(g.group_count(), 3);
        assert!(g.group_sizes().iter().all(|&n| n == 1));
    }

    #[test]
    fn positions_are_deduped_and_sorted() {
        let i = Interner::new();
        let r = example1_relation(&i);
        let g = group_by(&r, &[1, 0, 1], &i);
        assert_eq!(g.positions(), &[0, 1]);
    }

    #[test]
    fn groups_and_members_in_canonical_order() {
        let i = Interner::new();
        // Intern "z" before "a" so raw id order disagrees with name order.
        let mut r = Relation::elementary(2);
        for (x, y) in [("z", "q"), ("a", "q"), ("a", "p")] {
            r.insert(vec![Value::Sym(i.intern(x)), Value::Sym(i.intern(y))].into())
                .unwrap();
        }
        let g = group_by(&r, &[0], &i);
        let keys: Vec<String> = (0..g.group_count())
            .map(|k| i.resolve(members(&r, &g, k)[0][0].as_sym().unwrap()))
            .collect();
        assert_eq!(keys, ["a", "z"]);
        // Within group "a": (a,p) before (a,q).
        let members = members(&r, &g, 0);
        assert_eq!(i.resolve(members[0][1].as_sym().unwrap()), "p");
        assert_eq!(i.resolve(members[1][1].as_sym().unwrap()), "q");
    }

    #[test]
    fn grouping_on_a_later_column_orders_by_it_first() {
        let i = Interner::new();
        // Group by column 1 (an int): keys 2 < 10 numerically, and the
        // members of group 10 order by their symbol.
        let mut r = Relation::new(RelType::new(vec![Sort::U, Sort::I]));
        for (x, d) in [("b", 10), ("c", 2), ("a", 10)] {
            r.insert(vec![Value::Sym(i.intern(x)), Value::Int(d)].into())
                .unwrap();
        }
        let g = group_by(&r, &[1], &i);
        assert_eq!(g.group_sizes(), vec![1, 2]);
        assert_eq!(members(&r, &g, 0)[0][1], Value::Int(2));
        let big: Vec<String> = members(&r, &g, 1)
            .iter()
            .map(|t| i.resolve(t[0].as_sym().unwrap()))
            .collect();
        assert_eq!(big, ["a", "b"]);
    }

    #[test]
    fn value_ranks_follow_cmp_canonical() {
        let i = Interner::new();
        // Interned against name order; "ab" vs "abcdefghij" differ only
        // past the eight-byte prefix of the longer one.
        let syms: Vec<Value> = ["zz", "abcdefghij", "abcdefgh", "ab", "a"]
            .iter()
            .map(|n| Value::Sym(i.intern(n)))
            .collect();
        let mut vals = vec![
            Value::Int(i64::MAX),
            Value::Int(0),
            Value::Int(-1),
            Value::Int(i64::MIN),
        ];
        vals.extend(syms);
        let tuples: Vec<Tuple> = vals.iter().map(|&v| vec![v].into()).collect();
        let scan: Vec<&Tuple> = tuples.iter().collect();
        let ranks = ValueRanks::of(&scan, &i);
        assert_eq!(ranks.count(), vals.len());
        for &x in &vals {
            for &y in &vals {
                assert_eq!(
                    ranks.rank(x).cmp(&ranks.rank(y)),
                    x.cmp_canonical(y, &i),
                    "{x:?} vs {y:?}"
                );
            }
        }
    }

    #[test]
    fn empty_relation_has_no_groups() {
        let i = Interner::new();
        let r = Relation::elementary(2);
        let g = group_by(&r, &[0], &i);
        assert_eq!(g.group_count(), 0);
    }
}
