//! Typed finite relations over the hash tuple store.

use idlog_common::{CommonError, CommonResult, FxHashSet, Interner, RelType, Sort, Tuple, Value};

use crate::storage::{estimated_tuple_bytes, HashBackend, Probe, ScanIter};

/// A finite relation: a set of equal-arity, sort-consistent tuples.
///
/// The tuples live in a [`crate::storage`] hash store (insertion-ordered,
/// with maintained probe indexes); this type layers the declared
/// [`RelType`] and sort checking on top. [`Relation::sorted_canonical`]
/// materializes a canonical order when one is needed (display, canonical
/// tid assignment).
#[derive(Clone, Debug)]
pub struct Relation {
    rtype: RelType,
    store: HashBackend,
}

impl Relation {
    /// An empty relation of the given type.
    pub fn new(rtype: RelType) -> Self {
        Relation {
            rtype,
            store: HashBackend::default(),
        }
    }

    /// An empty relation with all-uninterpreted columns.
    pub fn elementary(arity: usize) -> Self {
        Relation::new(RelType::elementary(arity))
    }

    /// Build from tuples, type-checking each.
    pub fn from_tuples(
        rtype: RelType,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> CommonResult<Self> {
        let mut rel = Relation::new(rtype);
        for t in tuples {
            rel.insert(t)?;
        }
        Ok(rel)
    }

    /// Build from tuples known to be distinct and well-typed, in bulk:
    /// each tuple is hashed once and their order is kept.
    pub(crate) fn from_distinct(rtype: RelType, tuples: Vec<Tuple>) -> Self {
        debug_assert!(tuples.iter().all(|t| t.arity() == rtype.arity()));
        Relation {
            rtype,
            store: HashBackend::from_distinct(tuples),
        }
    }

    /// The relation's declared type.
    pub fn rtype(&self) -> &RelType {
        &self.rtype
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.rtype.arity()
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True when the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Check `t` against this relation's arity and column sorts.
    pub fn check_tuple(&self, t: &Tuple) -> CommonResult<()> {
        if t.arity() != self.arity() {
            return Err(CommonError::TypeMismatch {
                detail: format!(
                    "arity {} tuple in arity {} relation",
                    t.arity(),
                    self.arity()
                ),
            });
        }
        for (i, v) in t.values().iter().enumerate() {
            if v.sort() != self.rtype.sort(i) {
                return Err(CommonError::TypeMismatch {
                    detail: format!(
                        "column {} expects sort {} but value has sort {}",
                        i + 1,
                        self.rtype.sort(i),
                        v.sort()
                    ),
                });
            }
        }
        Ok(())
    }

    /// Insert a tuple, type-checking it. Returns `Ok(true)` if newly added.
    pub fn insert(&mut self, t: Tuple) -> CommonResult<bool> {
        self.check_tuple(&t)?;
        Ok(self.store.insert(t))
    }

    /// Insert without a sort check. The caller must guarantee the tuple
    /// matches the relation type; the engine uses this on tuples it has
    /// already sort-checked at program validation time.
    pub fn insert_unchecked(&mut self, t: Tuple) -> bool {
        debug_assert!(self.check_tuple(&t).is_ok(), "ill-typed tuple inserted");
        #[cfg(feature = "failpoints")]
        if let Err(msg) = idlog_common::failpoint::hit("storage.insert") {
            panic!("{msg}");
        }
        self.store.insert(t)
    }

    /// Insert one derivation batch; `flags[i]` is true when `batch[i]` was
    /// genuinely new (first occurrence wins for intra-batch duplicates).
    /// Duplicates cost a membership check and no allocation — only new
    /// tuples are cloned into the store. The caller must guarantee the
    /// tuples match the relation type.
    pub fn delta_batch_insert(&mut self, batch: &[&Tuple]) -> Vec<bool> {
        debug_assert!(
            batch.iter().all(|t| self.check_tuple(t).is_ok()),
            "ill-typed tuple in delta batch"
        );
        #[cfg(feature = "failpoints")]
        for t in batch {
            let _ = t;
            if let Err(msg) = idlog_common::failpoint::hit("storage.insert") {
                panic!("{msg}");
            }
        }
        self.store.delta_batch_insert(batch)
    }

    /// Remove a batch of tuples; `flags[i]` is true when `batch[i]` was
    /// present and removed (first occurrence wins for intra-batch
    /// duplicates). Scan order of the survivors stays a deterministic
    /// function of the batch sequence; indexes are rebuilt. Used by incremental maintenance — the engine proper never
    /// removes.
    pub fn remove_batch(&mut self, batch: &[&Tuple]) -> Vec<bool> {
        debug_assert!(
            batch.iter().all(|t| self.check_tuple(t).is_ok()),
            "ill-typed tuple in remove batch"
        );
        self.store.remove_batch(batch)
    }

    /// Make subsequent [`Relation::probe`] calls on `positions` indexed.
    /// The engine calls this at round barriers so rounds themselves are
    /// pure reads; indexes are maintained incrementally by inserts from
    /// then on.
    pub fn ensure_index(&mut self, positions: &[usize]) {
        self.store.ensure_index(positions)
    }

    /// All tuples whose projection on `positions` equals `key` (one value
    /// per position, in position order). Indexed when
    /// [`Relation::ensure_index`] ran for `positions`; a correct (but
    /// linear) filtered scan otherwise.
    pub fn probe<'a>(&'a self, positions: &[usize], key: &Tuple) -> Probe<'a> {
        self.store.probe(positions, key)
    }

    /// Deterministic estimate of the bytes held by this relation's tuples:
    /// `len × estimated_tuple_bytes(rtype)`, where per-column cost depends
    /// on the declared sort (symbols weigh more than ints — they carry
    /// interner storage). Deliberately a pure function of `len` and the
    /// relation type so the engine's `max_bytes` ceiling trips at the same
    /// fixpoint round at any thread count.
    pub fn estimated_bytes(&self) -> u64 {
        (self.len() as u64) * estimated_tuple_bytes(&self.rtype)
    }

    /// Membership test.
    pub fn contains(&self, t: &Tuple) -> bool {
        self.store.contains(t)
    }

    /// Iterate tuples in their deterministic scan order (insertion order;
    /// removal keeps the survivors' order). Callers that need an order
    /// independent of insert history use
    /// [`Relation::sorted_canonical`].
    pub fn iter(&self) -> ScanIter<'_> {
        self.store.scan()
    }

    /// All tuples in canonical (name-based) order. Deterministic across runs
    /// and interning orders.
    ///
    /// Implementation note: comparing through [`Tuple::cmp_canonical`] locks
    /// the interner per comparison; instead symbols are ranked by name under
    /// one lock and tuples sorted by flat integer keys (the same ranking
    /// [`crate::group_by`] uses).
    pub fn sorted_canonical(&self, interner: &Interner) -> Vec<Tuple> {
        let scan: Vec<&Tuple> = self.iter().collect();
        let cols: Vec<usize> = (0..self.arity()).collect();
        crate::group::Ranked::sort(&scan, &cols, interner)
            .order
            .iter()
            .map(|&i| scan[i as usize].clone())
            .collect()
    }

    /// Set-equality with another relation (types must match too): contents
    /// are compared as sets, whatever their scan order.
    pub fn set_eq(&self, other: &Relation) -> bool {
        self.rtype == other.rtype
            && self.len() == other.len()
            && self.iter().all(|t| other.contains(t))
    }

    /// All symbols appearing in a column of declared sort `u`. Columns of
    /// sort `i` are skipped even if (through unchecked inserts) they held a
    /// symbol.
    pub fn u_constants(&self) -> FxHashSet<idlog_common::SymbolId> {
        let mut out = FxHashSet::default();
        for t in self.iter() {
            for (i, v) in t.values().iter().enumerate() {
                if self.rtype.sort(i) != Sort::U {
                    continue;
                }
                if let Value::Sym(s) = v {
                    out.insert(*s);
                }
            }
        }
        out
    }

    /// Consume into the underlying tuple set.
    pub fn into_tuples(self) -> FxHashSet<Tuple> {
        self.store.into_tuple_vec().into_iter().collect()
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.set_eq(other)
    }
}

impl Eq for Relation {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(i: &Interner, n: &str) -> Value {
        Value::Sym(i.intern(n))
    }

    #[test]
    fn insert_and_contains() {
        let i = Interner::new();
        let mut r = Relation::elementary(2);
        let t: Tuple = vec![sym(&i, "a"), sym(&i, "b")].into();
        assert!(r.insert(t.clone()).unwrap());
        assert!(!r.insert(t.clone()).unwrap());
        assert!(r.contains(&t));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn rejects_wrong_arity() {
        let i = Interner::new();
        let mut r = Relation::elementary(2);
        let t: Tuple = vec![sym(&i, "a")].into();
        assert!(r.insert(t).is_err());
    }

    #[test]
    fn rejects_wrong_sort() {
        let i = Interner::new();
        let mut r = Relation::new(RelType::new(vec![Sort::U, Sort::I]));
        let bad: Tuple = vec![sym(&i, "a"), sym(&i, "b")].into();
        assert!(r.insert(bad).is_err());
        let good: Tuple = vec![sym(&i, "a"), Value::Int(3)].into();
        assert!(r.insert(good).is_ok());
    }

    #[test]
    fn sorted_canonical_is_name_order() {
        let i = Interner::new();
        let mut r = Relation::elementary(1);
        // Intern in an order that disagrees with name order.
        for n in ["zoo", "ant", "mid"] {
            r.insert(vec![sym(&i, n)].into()).unwrap();
        }
        let sorted = r.sorted_canonical(&i);
        let names: Vec<String> = sorted
            .iter()
            .map(|t| t[0].as_sym().map(|s| i.resolve(s)).unwrap())
            .collect();
        assert_eq!(names, ["ant", "mid", "zoo"]);
    }

    #[test]
    fn set_equality_ignores_insertion_order() {
        let i = Interner::new();
        let mut r1 = Relation::elementary(1);
        let mut r2 = Relation::elementary(1);
        r1.insert(vec![sym(&i, "a")].into()).unwrap();
        r1.insert(vec![sym(&i, "b")].into()).unwrap();
        r2.insert(vec![sym(&i, "b")].into()).unwrap();
        r2.insert(vec![sym(&i, "a")].into()).unwrap();
        assert_eq!(r1, r2);
    }

    #[test]
    fn u_constants_collects_symbols_only() {
        let i = Interner::new();
        let mut r = Relation::new(RelType::new(vec![Sort::U, Sort::I]));
        r.insert(vec![sym(&i, "a"), Value::Int(7)].into()).unwrap();
        let cs = r.u_constants();
        assert_eq!(cs.len(), 1);
        assert!(cs.contains(&i.intern("a")));
    }

    #[test]
    fn u_constants_skips_non_u_columns() {
        // Regression: the doc promises "symbols in columns of sort u", but
        // the old implementation collected `Value::Sym` from every column.
        // An unchecked insert can place a symbol in an `i` column; it must
        // not leak into the u-domain.
        let i = Interner::new();
        let mut r = Relation::new(RelType::new(vec![Sort::U, Sort::I]));
        r.insert(vec![sym(&i, "a"), Value::Int(7)].into()).unwrap();
        let smuggled: Tuple = vec![sym(&i, "b"), sym(&i, "rogue")].into();
        // Bypass the sort check the way a buggy caller would.
        if !cfg!(debug_assertions) {
            r.insert_unchecked(smuggled);
            let cs = r.u_constants();
            assert!(cs.contains(&i.intern("b")));
            assert!(
                !cs.contains(&i.intern("rogue")),
                "sort-i column contributed to u_constants"
            );
        } else {
            // Under debug assertions the unchecked insert itself trips; the
            // filter is still exercised via the well-typed rows.
            let cs = r.u_constants();
            assert_eq!(cs.len(), 1);
        }
    }

    #[test]
    fn estimated_bytes_is_type_driven_and_symbol_heavy() {
        let i = Interner::new();
        let mut syms = Relation::new(RelType::new(vec![Sort::U]));
        let mut ints = Relation::new(RelType::new(vec![Sort::I]));
        for k in 0..10 {
            syms.insert(vec![sym(&i, &format!("s{k}"))].into()).unwrap();
            ints.insert(vec![Value::Int(k)].into()).unwrap();
        }
        assert!(
            syms.estimated_bytes() > ints.estimated_bytes(),
            "symbol columns must weigh more: {} vs {}",
            syms.estimated_bytes(),
            ints.estimated_bytes()
        );
    }
}
