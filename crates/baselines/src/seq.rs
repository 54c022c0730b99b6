//! Sequential reference map.
//!
//! Used as (a) the "bare sequential code without synchronization" baseline of
//! the vacation experiment (Figure 6 reports speedups over it) and (b) a test
//! oracle for the transactional trees. It is a plain `BTreeMap` behind a
//! mutex: on a single thread the uncontended lock adds only nanoseconds, so
//! it is a faithful stand-in for unsynchronized sequential code while still
//! satisfying the `TxMap` interface.

use std::collections::BTreeMap;
use std::ops::{ControlFlow, RangeInclusive};

use parking_lot::Mutex;
use sf_stm::{ThreadCtx, Transaction, TxResult};
use sf_tree::map::{ScanOrder, TxMap, TxMapInTx};
use sf_tree::{Key, Value};

/// Sequential map baseline (single-threaded use).
#[derive(Debug, Default)]
pub struct SeqMap {
    inner: Mutex<BTreeMap<Key, Value>>,
}

impl SeqMap {
    /// Create an empty map.
    pub fn new() -> Self {
        SeqMap::default()
    }

    /// Direct (non-transactional) lookup.
    pub fn get_direct(&self, key: Key) -> Option<Value> {
        self.inner.lock().get(&key).copied()
    }

    /// Direct (non-transactional) insert. Matches the tree semantics: the
    /// value is only stored when the key was absent.
    pub fn insert_direct(&self, key: Key, value: Value) -> bool {
        match self.inner.lock().entry(key) {
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(value);
                true
            }
            std::collections::btree_map::Entry::Occupied(_) => false,
        }
    }

    /// Direct (non-transactional) delete.
    pub fn delete_direct(&self, key: Key) -> bool {
        self.inner.lock().remove(&key).is_some()
    }

    /// Compare-and-delete under one lock acquisition.
    pub fn delete_if_direct(&self, key: Key, expected: Value) -> bool {
        let mut map = self.inner.lock();
        if map.get(&key) == Some(&expected) {
            map.remove(&key);
            true
        } else {
            false
        }
    }

    /// Snapshot of the contents.
    pub fn entries(&self) -> Vec<(Key, Value)> {
        self.inner.lock().iter().map(|(k, v)| (*k, *v)).collect()
    }

    /// Range scan under one lock acquisition.
    pub fn range_direct(&self, range: RangeInclusive<Key>) -> Vec<(Key, Value)> {
        self.inner
            .lock()
            .range(range)
            .map(|(&k, &v)| (k, v))
            .collect()
    }
}

impl TxMapInTx for SeqMap {
    fn tx_get<'env>(&'env self, _tx: &mut Transaction<'env>, key: Key) -> TxResult<Option<Value>> {
        Ok(self.get_direct(key))
    }

    fn tx_insert<'env>(
        &'env self,
        _tx: &mut Transaction<'env>,
        key: Key,
        value: Value,
    ) -> TxResult<bool> {
        Ok(self.insert_direct(key, value))
    }

    fn tx_delete<'env>(&'env self, _tx: &mut Transaction<'env>, key: Key) -> TxResult<bool> {
        Ok(self.delete_direct(key))
    }

    fn tx_delete_if<'env>(
        &'env self,
        _tx: &mut Transaction<'env>,
        key: Key,
        expected: Value,
    ) -> TxResult<bool> {
        // The default (get then delete) would take the lock twice and lose
        // atomicity; do the compare-and-delete under one acquisition.
        Ok(self.delete_if_direct(key, expected))
    }

    fn tx_range_visit<'env>(
        &'env self,
        _tx: &mut Transaction<'env>,
        range: RangeInclusive<Key>,
        order: ScanOrder,
        visit: &mut dyn FnMut(Key, Value) -> ControlFlow<()>,
    ) -> TxResult<()> {
        // Snapshot under the lock, release it, then run the callback:
        // `visit` may re-enter this map (a fold composing point operations),
        // and the inner mutex is not reentrant.
        let entries = self.range_direct(range);
        match order {
            ScanOrder::Ascending => {
                for (k, v) in entries {
                    if visit(k, v).is_break() {
                        break;
                    }
                }
            }
            ScanOrder::Descending => {
                for (k, v) in entries.into_iter().rev() {
                    if visit(k, v).is_break() {
                        break;
                    }
                }
            }
        }
        Ok(())
    }
}

impl TxMap for SeqMap {
    type Handle = ThreadCtx;

    fn register(&self, ctx: ThreadCtx) -> ThreadCtx {
        ctx
    }

    fn contains(&self, _ctx: &mut ThreadCtx, key: Key) -> bool {
        self.get_direct(key).is_some()
    }

    fn get(&self, _ctx: &mut ThreadCtx, key: Key) -> Option<Value> {
        self.get_direct(key)
    }

    fn insert(&self, _ctx: &mut ThreadCtx, key: Key, value: Value) -> bool {
        self.insert_direct(key, value)
    }

    fn delete(&self, _ctx: &mut ThreadCtx, key: Key) -> bool {
        self.delete_direct(key)
    }

    fn delete_if(&self, _ctx: &mut ThreadCtx, key: Key, expected: Value) -> bool {
        self.delete_if_direct(key, expected)
    }

    fn move_entry(&self, _ctx: &mut ThreadCtx, from: Key, to: Key) -> bool {
        let mut map = self.inner.lock();
        if from == to {
            return map.contains_key(&from);
        }
        if !map.contains_key(&from) || map.contains_key(&to) {
            return false;
        }
        let value = map.remove(&from).expect("checked above");
        map.insert(to, value);
        true
    }

    fn range_collect(&self, _ctx: &mut ThreadCtx, range: RangeInclusive<Key>) -> Vec<(Key, Value)> {
        self.range_direct(range)
    }

    fn len(&self, _ctx: &mut ThreadCtx) -> usize {
        self.inner.lock().len()
    }

    fn len_quiescent(&self) -> usize {
        self.inner.lock().len()
    }

    fn name(&self) -> &'static str {
        "Sequential"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_api_roundtrip() {
        let m = SeqMap::new();
        assert!(m.insert_direct(1, 10));
        assert!(!m.insert_direct(1, 11));
        assert_eq!(m.get_direct(1), Some(10));
        assert!(m.delete_direct(1));
        assert!(!m.delete_direct(1));
        assert_eq!(m.len_quiescent(), 0);
    }

    #[test]
    fn range_visit_callback_may_reenter_the_map() {
        // Regression test: the visit callback runs after the inner lock is
        // released, so a fold may compose with point reads of the same map.
        let stm = sf_stm::Stm::default_config();
        let mut ctx = stm.register();
        let m = SeqMap::new();
        m.insert_direct(1, 10);
        m.insert_direct(2, 20);
        let sum = ctx.atomically(|tx| {
            m.tx_range_fold(tx, 0..=10, 0u64, |acc, k, _| {
                acc + m.get_direct(k).unwrap_or(0)
            })
        });
        assert_eq!(sum, 30);
    }

    #[test]
    fn move_semantics_match_trees() {
        let stm = sf_stm::Stm::default_config();
        let mut ctx = stm.register();
        let m = SeqMap::new();
        m.insert_direct(1, 10);
        m.insert_direct(2, 20);
        assert!(TxMap::move_entry(&m, &mut ctx, 1, 5));
        assert!(!TxMap::move_entry(&m, &mut ctx, 2, 5));
        assert!(TxMap::move_entry(&m, &mut ctx, 5, 5));
        assert_eq!(m.entries(), vec![(2, 20), (5, 10)]);
    }
}
