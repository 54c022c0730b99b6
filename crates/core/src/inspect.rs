//! Quiescent inspection of a speculation-friendly tree.
//!
//! These helpers walk the structure with plain (non-transactional) loads and
//! are therefore only meaningful while no concurrent updates are running:
//! they back the test oracles, the invariant checks of the property-based
//! tests, and the size/depth reporting of the benchmark harness.

use std::collections::HashSet;

use crate::arena::NodeId;
use crate::map::HotReport;
use crate::node::{Key, Value, SENTINEL_KEY};
use crate::shared::TreeCore;

/// Read-only view over a tree for verification and reporting.
#[derive(Debug, Clone, Copy)]
pub struct TreeInspect<'a> {
    core: &'a TreeCore,
}

impl<'a> TreeInspect<'a> {
    pub(crate) fn new(core: &'a TreeCore) -> Self {
        TreeInspect { core }
    }

    /// All `(key, value)` pairs that are present in the abstraction (reachable
    /// and not logically deleted), in ascending key order.
    pub fn live_entries(&self) -> Vec<(Key, Value)> {
        let mut out = Vec::new();
        self.walk_in_order(self.core.root, &mut |id| {
            let n = self.core.node(id);
            if !n.del.unsync_load() && n.key() != SENTINEL_KEY {
                out.push((n.key(), n.value.unsync_load()));
            }
        });
        out
    }

    /// Number of reachable nodes, including logically deleted ones and the
    /// sentinel root.
    pub fn reachable_nodes(&self) -> usize {
        let mut count = 0usize;
        self.walk_in_order(self.core.root, &mut |_| count += 1);
        count
    }

    /// Length of the longest root-to-leaf path (number of nodes), excluding
    /// the sentinel root.
    pub fn depth(&self) -> usize {
        fn rec(inspect: &TreeInspect<'_>, id: NodeId) -> usize {
            if id.is_nil() {
                return 0;
            }
            let n = inspect.core.node(id);
            1 + rec(inspect, n.left.unsync_load()).max(rec(inspect, n.right.unsync_load()))
        }
        let root_left = self.core.node(self.core.root).left.unsync_load();
        rec(self, root_left)
    }

    /// Depth (1-based number of nodes on the path, excluding the sentinel
    /// root) at which `key` sits, or `None` when it is not reachable as a
    /// live entry.
    pub fn key_depth(&self, key: Key) -> Option<usize> {
        let mut id = self.core.node(self.core.root).left.unsync_load();
        let mut depth = 0usize;
        while !id.is_nil() {
            depth += 1;
            let n = self.core.node(id);
            let k = n.key();
            if k == key {
                return (!n.del.unsync_load()).then_some(depth);
            }
            id = if key < k {
                n.left.unsync_load()
            } else {
                n.right.unsync_load()
            };
        }
        None
    }

    /// Summarize the sampled access-frequency counters over the reachable
    /// tree: total sampled mass, the mass-weighted average depth of accesses,
    /// and the hottest single node with its depth. `hot_rotations` is left
    /// zero — the owning tree fills it in from its [`crate::TreeStats`].
    pub fn hot_summary(&self) -> HotReport {
        let mut report = HotReport::default();
        let mut weighted = 0f64;
        fn rec(
            inspect: &TreeInspect<'_>,
            id: NodeId,
            depth: u64,
            report: &mut HotReport,
            weighted: &mut f64,
        ) {
            if id.is_nil() {
                return;
            }
            let n = inspect.core.node(id);
            let mass = n.access_mass();
            report.sampled_mass += mass;
            *weighted += mass as f64 * depth as f64;
            if mass > report.hottest_mass {
                report.hottest_mass = mass;
                report.hottest_key = n.key();
                report.hottest_depth = depth;
            }
            rec(inspect, n.left.unsync_load(), depth + 1, report, weighted);
            rec(inspect, n.right.unsync_load(), depth + 1, report, weighted);
        }
        let root_left = self.core.node(self.core.root).left.unsync_load();
        rec(self, root_left, 1, &mut report, &mut weighted);
        if report.sampled_mass > 0 {
            report.avg_depth = weighted / report.sampled_mass as f64;
        }
        report
    }

    /// Verify the structural invariants that must hold while the tree is
    /// quiescent:
    ///
    /// * every reachable node is within its ancestors' key range (valid BST),
    /// * no key appears on two reachable, non-removed nodes,
    /// * no reachable node carries a removed flag,
    /// * no cycles among reachable nodes.
    pub fn check_consistency(&self) -> Result<(), String> {
        let mut seen_ids = HashSet::new();
        let mut seen_keys = HashSet::new();
        self.check_rec(
            self.core.node(self.core.root).left.unsync_load(),
            0,
            SENTINEL_KEY,
            &mut seen_ids,
            &mut seen_keys,
        )?;
        Ok(())
    }

    fn check_rec(
        &self,
        id: NodeId,
        low: Key,
        high: Key,
        seen_ids: &mut HashSet<NodeId>,
        seen_keys: &mut HashSet<Key>,
    ) -> Result<(), String> {
        if id.is_nil() {
            return Ok(());
        }
        if !seen_ids.insert(id) {
            return Err(format!("cycle or shared node detected at {id:?}"));
        }
        let n = self.core.node(id);
        let k = n.key();
        if n.rem.unsync_load().is_removed() {
            return Err(format!("reachable node {id:?} (key {k}) is marked removed"));
        }
        if !(low <= k && k < high) {
            return Err(format!(
                "BST violation: key {k} outside range [{low}, {high}) at {id:?}"
            ));
        }
        if !seen_keys.insert(k) {
            return Err(format!("duplicate reachable key {k}"));
        }
        self.check_rec(n.left.unsync_load(), low, k, seen_ids, seen_keys)?;
        self.check_rec(
            n.right.unsync_load(),
            k.saturating_add(1),
            high,
            seen_ids,
            seen_keys,
        )
    }

    fn walk_in_order(&self, root: NodeId, visit: &mut impl FnMut(NodeId)) {
        fn rec(inspect: &TreeInspect<'_>, id: NodeId, visit: &mut impl FnMut(NodeId)) {
            if id.is_nil() {
                return;
            }
            let n = inspect.core.node(id);
            rec(inspect, n.left.unsync_load(), visit);
            visit(id);
            rec(inspect, n.right.unsync_load(), visit);
        }
        rec(self, root, visit);
    }
}

#[cfg(test)]
mod tests {

    use crate::map::TxMap;
    use crate::SpecFriendlyTree;
    use sf_stm::Stm;

    #[test]
    fn empty_tree_is_consistent_and_empty() {
        let tree = SpecFriendlyTree::new();
        assert!(tree.inspect().live_entries().is_empty());
        assert_eq!(tree.inspect().depth(), 0);
        tree.inspect().check_consistency().unwrap();
    }

    #[test]
    fn entries_are_sorted_and_depth_reasonable() {
        let stm = Stm::default_config();
        let tree = SpecFriendlyTree::new();
        let mut h = tree.register(stm.register());
        for k in [8u64, 3, 10, 1, 6, 14, 4, 7, 13] {
            tree.insert(&mut h, k, k + 100);
        }
        let entries = tree.inspect().live_entries();
        let keys: Vec<u64> = entries.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![1, 3, 4, 6, 7, 8, 10, 13, 14]);
        assert!(tree.inspect().depth() >= 4);
        assert!(tree.inspect().reachable_nodes() >= 10); // 9 keys + sentinel
    }

    #[test]
    fn bst_violation_is_detected() {
        let stm = Stm::default_config();
        let tree = SpecFriendlyTree::new();
        let mut h = tree.register(stm.register());
        for k in [5u64, 2, 8] {
            tree.insert(&mut h, k, k);
        }
        // Corrupt the structure on purpose: put a large key into the left
        // subtree of the node holding 5.
        let entries = tree.inspect();
        let root_left = entries.core.node(entries.core.root).left.unsync_load();
        let node5 = entries.core.node(root_left);
        assert_eq!(node5.key(), 5);
        let bogus = entries.core.alloc_fresh(999, 0);
        let two = node5.left.unsync_load();
        entries.core.node(two).left.unsync_store(bogus);
        assert!(tree.inspect().check_consistency().is_err());
    }
}
