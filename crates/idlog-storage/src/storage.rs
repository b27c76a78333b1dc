//! The tuple store behind every [`crate::Relation`].
//!
//! The evaluator talks to relations through four operations — full `scan`,
//! indexed `probe`, `delta_batch_insert`, and membership. `HashBackend`
//! serves them from an append-only tuple store with a hash-based membership
//! table and **incrementally maintained** hash indexes. Indexes map
//! projection keys to offsets into the store, so index maintenance costs one
//! `u32` per (index, new tuple) instead of a full tuple clone, and nothing is
//! ever rebuilt from scratch.
//!
//! Iteration order is a pure function of the *sequence of batches applied*,
//! never of hash-map iteration order or thread count. Since the engine
//! applies batches in round/work-item order, which is itself
//! thread-count-invariant, results and statistics stay byte-identical at any
//! `--threads` value.

use std::collections::hash_map::Entry;

use idlog_common::{FxHashMap, FxHashSet, RelType, Sort, Tuple};

/// Deterministic per-value size estimate for governor byte accounting.
///
/// A pure function of the declared sort — never of the actual value — so
/// `Limits::max_bytes` trips at the same fixpoint round for any thread
/// count. Sort `u` values carry an interned symbol and a share of the
/// interner's name storage; sort `i` values are a bare `i64` in a 16-byte
/// enum.
pub fn estimated_value_bytes(sort: Sort) -> u64 {
    match sort {
        Sort::U => 48,
        Sort::I => 16,
    }
}

/// Deterministic per-tuple size estimate: a boxed-slice header plus
/// [`estimated_value_bytes`] per declared column.
pub fn estimated_tuple_bytes(rtype: &RelType) -> u64 {
    let header = std::mem::size_of::<Tuple>() as u64;
    header
        + rtype
            .sorts()
            .iter()
            .map(|&s| estimated_value_bytes(s))
            .sum::<u64>()
}

/// Deterministic scanning iterator over a relation's tuples, in insertion
/// order.
pub type ScanIter<'a> = std::slice::Iter<'a, Tuple>;

/// The result of a [`crate::Relation::probe`]: the matching tuples,
/// borrowed from the store; no tuples are cloned.
pub struct Probe<'a>(ProbeInner<'a>);

enum ProbeInner<'a> {
    /// Offsets into the tuple store, from a maintained index.
    Offsets {
        offsets: &'a [u32],
        store: &'a [Tuple],
    },
    /// Materialized references (the unindexed fallback path).
    Filtered(Vec<&'a Tuple>),
}

impl<'a> Probe<'a> {
    /// A probe with no matches.
    pub fn empty() -> Self {
        Probe(ProbeInner::Filtered(Vec::new()))
    }

    /// Number of matching tuples.
    pub fn len(&self) -> usize {
        match &self.0 {
            ProbeInner::Offsets { offsets, .. } => offsets.len(),
            ProbeInner::Filtered(v) => v.len(),
        }
    }

    /// True when nothing matched.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate the matches in store order.
    pub fn iter<'p>(&'p self) -> impl Iterator<Item = &'a Tuple> + 'p {
        let (offsets, store, filtered): (&'a [u32], &'a [Tuple], &'p [&'a Tuple]) = match &self.0 {
            ProbeInner::Offsets { offsets, store } => (offsets, store, &[]),
            ProbeInner::Filtered(v) => (&[], &[], v),
        };
        offsets
            .iter()
            .map(move |&o| &store[o as usize])
            .chain(filtered.iter().copied())
    }
}

/// Hash the full tuple with the workspace `FxHasher`.
fn fx_hash(t: &Tuple) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = idlog_common::FxHasher::default();
    t.hash(&mut h);
    h.finish()
}

/// Whether `t`'s projection on `positions` equals `key` (which has one
/// value per position, in position order).
fn proj_matches(t: &Tuple, positions: &[usize], key: &Tuple) -> bool {
    positions.iter().enumerate().all(|(k, &p)| t[p] == key[k])
}

/// Append-only tuple store with hash membership and incrementally
/// maintained offset indexes.
///
/// `store` holds every tuple exactly once, in insertion order (which the
/// engine makes deterministic). `seen` maps a tuple's hash to the one store
/// offset carrying that hash; the rare further tuples with an equal 64-bit
/// hash go to the `collisions` side table. Membership verifies equality
/// against the store, so no second copy of any tuple exists, and no stored
/// tuple costs a heap allocation of its own in the membership table — which
/// keeps clones (input installation, enumeration branches) cheap.
/// Each index maps a projection key to store offsets and is updated on
/// every insert, so no index is rebuilt or cloned per round.
#[derive(Clone, Debug, Default)]
pub(crate) struct HashBackend {
    store: Vec<Tuple>,
    seen: FxHashMap<u64, u32>,
    collisions: FxHashMap<u64, Vec<u32>>,
    indexes: FxHashMap<Vec<usize>, FxHashMap<Tuple, Vec<u32>>>,
}

impl HashBackend {
    /// Build from tuples known to be distinct, keeping their order: one
    /// hash per tuple and no membership probe.
    pub(crate) fn from_distinct(tuples: Vec<Tuple>) -> Self {
        let mut b = Self::default();
        b.store.reserve(tuples.len());
        b.seen.reserve(tuples.len());
        for t in tuples {
            let hash = fx_hash(&t);
            debug_assert!(b.find_hashed(&t, hash).is_none(), "duplicate tuple");
            b.commit(t, hash);
        }
        b
    }

    /// Offset the tuple is stored at, when present; `hash` is its
    /// [`fx_hash`].
    fn find_hashed(&self, t: &Tuple, hash: u64) -> Option<u32> {
        let first = *self.seen.get(&hash)?;
        if self.store[first as usize] == *t {
            return Some(first);
        }
        self.collisions
            .get(&hash)?
            .iter()
            .copied()
            .find(|&o| self.store[o as usize] == *t)
    }

    fn find(&self, t: &Tuple) -> Option<u32> {
        self.find_hashed(t, fx_hash(t))
    }

    /// Record a tuple known to be absent. Returns its offset.
    fn commit(&mut self, t: Tuple, hash: u64) -> u32 {
        debug_assert!(
            self.store.len() < u32::MAX as usize,
            "store offset overflow"
        );
        let off = self.store.len() as u32;
        match self.seen.entry(hash) {
            Entry::Vacant(slot) => {
                slot.insert(off);
            }
            Entry::Occupied(_) => self.collisions.entry(hash).or_default().push(off),
        }
        for (positions, map) in &mut self.indexes {
            map.entry(t.project(positions)).or_default().push(off);
        }
        self.store.push(t);
        off
    }

    /// Number of stored tuples.
    pub(crate) fn len(&self) -> usize {
        self.store.len()
    }

    /// Membership test.
    pub(crate) fn contains(&self, t: &Tuple) -> bool {
        self.find(t).is_some()
    }

    /// Insert one owned tuple; true when newly added.
    pub(crate) fn insert(&mut self, t: Tuple) -> bool {
        let hash = fx_hash(&t);
        if self.find_hashed(&t, hash).is_some() {
            return false;
        }
        self.commit(t, hash);
        true
    }

    /// Insert a derivation batch; `flags[i]` is true when `batch[i]` was
    /// genuinely new (first occurrence wins for intra-batch duplicates).
    /// Only new tuples are cloned.
    pub(crate) fn delta_batch_insert(&mut self, batch: &[&Tuple]) -> Vec<bool> {
        batch
            .iter()
            .map(|&t| {
                let hash = fx_hash(t);
                if self.find_hashed(t, hash).is_some() {
                    false
                } else {
                    self.commit(t.clone(), hash);
                    true
                }
            })
            .collect()
    }

    /// Remove a batch of tuples; `flags[i]` is true when `batch[i]` was
    /// present and removed (first occurrence wins for intra-batch
    /// duplicates). The survivors keep their scan order, so it stays a pure
    /// function of the sequence of batches applied — incremental
    /// maintenance relies on it.
    pub(crate) fn remove_batch(&mut self, batch: &[&Tuple]) -> Vec<bool> {
        let mut victims: FxHashSet<&Tuple> = FxHashSet::default();
        let flags: Vec<bool> = batch
            .iter()
            .map(|&t| self.find(t).is_some() && victims.insert(t))
            .collect();
        if victims.is_empty() {
            return flags;
        }
        // Removal is rare relative to inserts (maintenance only), so the
        // simple deterministic plan is to keep the survivors in their
        // existing order and rebuild the membership table and indexes.
        let survivors: Vec<Tuple> = std::mem::take(&mut self.store)
            .into_iter()
            .filter(|t| !victims.contains(t))
            .collect();
        let index_keys: Vec<Vec<usize>> = self.indexes.keys().cloned().collect();
        *self = HashBackend::from_distinct(survivors);
        for positions in index_keys {
            self.ensure_index(&positions);
        }
        flags
    }

    /// Iterate every tuple in insertion order.
    pub(crate) fn scan(&self) -> ScanIter<'_> {
        self.store.iter()
    }

    /// Make subsequent [`HashBackend::probe`] calls on `positions` indexed;
    /// probing without it stays correct but degrades to a filtered scan.
    pub(crate) fn ensure_index(&mut self, positions: &[usize]) {
        if self.indexes.contains_key(positions) {
            return;
        }
        let mut map: FxHashMap<Tuple, Vec<u32>> = FxHashMap::default();
        for (off, t) in self.store.iter().enumerate() {
            map.entry(t.project(positions))
                .or_default()
                .push(off as u32);
        }
        self.indexes.insert(positions.to_vec(), map);
    }

    /// All tuples whose projection on `positions` equals `key`.
    pub(crate) fn probe<'a>(&'a self, positions: &[usize], key: &Tuple) -> Probe<'a> {
        match self.indexes.get(positions) {
            Some(map) => match map.get(key) {
                Some(offsets) => Probe(ProbeInner::Offsets {
                    offsets,
                    store: &self.store,
                }),
                None => Probe::empty(),
            },
            None => Probe(ProbeInner::Filtered(
                self.store
                    .iter()
                    .filter(|t| proj_matches(t, positions, key))
                    .collect(),
            )),
        }
    }

    /// Consume into the tuple vector, in scan order.
    pub(crate) fn into_tuple_vec(self) -> Vec<Tuple> {
        self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idlog_common::{Interner, Value};

    fn t(vals: &[i64]) -> Tuple {
        vals.iter().map(|&n| Value::Int(n)).collect()
    }

    /// Exercise the store's insert, batch, probe and scan contract.
    fn exercise() {
        let mut s = HashBackend::default();
        assert_eq!(s.len(), 0);
        assert!(s.insert(t(&[1, 10])));
        assert!(!s.insert(t(&[1, 10])), "duplicate");
        assert!(s.insert(t(&[1, 20])));
        assert!(s.insert(t(&[2, 10])));
        assert_eq!(s.len(), 3);
        assert!(s.contains(&t(&[1, 20])));
        assert!(!s.contains(&t(&[9, 9])));

        // Batch: one duplicate of stored, one intra-batch duplicate.
        let b1 = t(&[3, 30]);
        let b2 = t(&[1, 10]);
        let b3 = t(&[3, 30]);
        let flags = s.delta_batch_insert(&[&b1, &b2, &b3]);
        assert_eq!(flags, vec![true, false, false]);
        assert_eq!(s.len(), 4);

        // Indexed probe on the first column.
        s.ensure_index(&[0]);
        let key = t(&[1]);
        let probe = s.probe(&[0], &key);
        assert_eq!(probe.len(), 2);
        let mut seconds: Vec<i64> = probe
            .iter()
            .map(|x| match x[1] {
                Value::Int(n) => n,
                _ => unreachable!(),
            })
            .collect();
        seconds.sort_unstable();
        assert_eq!(seconds, vec![10, 20]);

        // Unindexed probe falls back to a filtered scan.
        let probe = s.probe(&[1], &t(&[10]));
        assert_eq!(probe.len(), 2);

        // Scan covers everything exactly once.
        assert_eq!(s.scan().count(), 4);
    }

    /// Exercise the store's removal contract.
    fn exercise_removal() {
        let mut s = HashBackend::default();
        let batch: Vec<Tuple> = (0..12).map(|i| t(&[i % 4, i])).collect();
        let refs: Vec<&Tuple> = batch.iter().collect();
        s.delta_batch_insert(&refs);
        s.ensure_index(&[0]);

        // Remove: one present tuple, one absent, one intra-batch duplicate.
        let present = t(&[1, 1]);
        let absent = t(&[9, 9]);
        let flags = s.remove_batch(&[&present, &absent, &present]);
        assert_eq!(flags, vec![true, false, false]);
        assert_eq!(s.len(), 11);
        assert!(!s.contains(&present));

        // Indexes survive removal: the probe sees exactly the survivors.
        let probe = s.probe(&[0], &t(&[1]));
        assert_eq!(probe.len(), 2);
        assert!(probe.iter().all(|x| *x != present));
        // Scan agrees with len and membership.
        assert_eq!(s.scan().count(), 11);
        assert!(s.scan().all(|x| s.contains(x)));

        // Removed tuples can be re-inserted.
        assert!(s.insert(present.clone()));
        assert_eq!(s.probe(&[0], &t(&[1])).len(), 3);
    }

    #[test]
    fn hash_backend_satisfies_the_trait_contract() {
        exercise();
        exercise_removal();
    }

    #[test]
    fn hash_scan_is_insertion_order() {
        let mut s = HashBackend::default();
        for n in [5, 1, 9, 3] {
            s.insert(t(&[n]));
        }
        let got: Vec<Tuple> = s.scan().cloned().collect();
        assert_eq!(got, vec![t(&[5]), t(&[1]), t(&[9]), t(&[3])]);
    }

    #[test]
    fn probe_after_late_ensure_index_matches_fallback() {
        let mut s = HashBackend::default();
        let batch: Vec<Tuple> = (0..20).map(|i| t(&[i % 4, i])).collect();
        let refs: Vec<&Tuple> = batch.iter().collect();
        s.delta_batch_insert(&refs);
        let key = t(&[2]);
        let before: Vec<Tuple> = s.probe(&[0], &key).iter().cloned().collect();
        s.ensure_index(&[0]);
        let mut after: Vec<Tuple> = s.probe(&[0], &key).iter().cloned().collect();
        let mut before = before;
        before.sort_unstable();
        after.sort_unstable();
        assert_eq!(before, after);
    }

    #[test]
    fn hash_collisions_do_not_merge_distinct_tuples() {
        // Not a constructed collision, but the equality check is exercised
        // on every bucket walk; insert enough to make buckets plural.
        let mut s = HashBackend::default();
        for i in 0..1000 {
            assert!(s.insert(t(&[i])));
        }
        for i in 0..1000 {
            assert!(s.contains(&t(&[i])));
            assert!(!s.insert(t(&[i])));
        }
        assert_eq!(s.len(), 1000);
    }

    #[test]
    fn equal_hashes_share_one_slot_plus_the_collision_table() {
        // Forge one hash for three distinct tuples: the first takes the
        // single-offset slot, the others the side table, and membership
        // still tells them apart.
        let mut s = HashBackend::default();
        for n in 0..3 {
            s.commit(t(&[n]), 42);
        }
        assert_eq!(s.seen.len(), 1);
        assert_eq!(s.collisions[&42], vec![1, 2]);
        for n in 0..3 {
            assert_eq!(s.find_hashed(&t(&[n]), 42), Some(n as u32));
        }
        assert_eq!(s.find_hashed(&t(&[9]), 42), None);
        // Real hashes: no collisions, so no side-table entries.
        let mut s = HashBackend::default();
        for n in 0..1000 {
            s.insert(t(&[n]));
        }
        assert!(s.collisions.is_empty());
    }

    #[test]
    fn from_distinct_keeps_order_and_membership() {
        let tuples: Vec<Tuple> = [5, 1, 9, 3].iter().map(|&n| t(&[n])).collect();
        let mut s = HashBackend::from_distinct(tuples.clone());
        assert_eq!(s.scan().cloned().collect::<Vec<_>>(), tuples);
        assert!(s.contains(&t(&[9])));
        assert!(!s.insert(t(&[1])), "duplicate of a bulk-built tuple");
        assert!(s.insert(t(&[2])));
    }

    #[test]
    fn estimated_bytes_weigh_symbols_heavier_than_ints() {
        let u2 = RelType::new(vec![Sort::U, Sort::U]);
        let i2 = RelType::new(vec![Sort::I, Sort::I]);
        assert!(estimated_tuple_bytes(&u2) > estimated_tuple_bytes(&i2));
        // Pure function of the type: independent of any stored data.
        assert_eq!(estimated_tuple_bytes(&u2), estimated_tuple_bytes(&u2));
        let _ = Interner::new(); // sorts, not symbols, drive the estimate
    }
}
