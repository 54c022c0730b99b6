//! The generic pruned in-order walker behind every backend's range scan.
//!
//! All the trees in this repository are binary search trees over
//! transactional cells, so one traversal serves them all: the
//! speculation-friendly variants (immutable per-incarnation keys, a
//! logical-deletion flag to filter) and the transaction-encapsulated
//! baselines (transactional keys — the AVL delete rewrites them — and no
//! tombstones). The per-structure differences are captured by the two read
//! hooks of [`ScanNode`]; the pruning, visit order and early-exit logic
//! live here once.
//!
//! The walk is iterative (explicit stack) so degenerate trees — e.g. the
//! no-restructuring baseline after sequential inserts — cannot overflow the
//! thread stack. Every child pointer and every emitted entry is read through
//! the caller's [`Transaction`], so a committed scan is an atomic snapshot
//! of the visited range.

use std::ops::{ControlFlow, RangeInclusive};

use sf_stm::{TCell, Transaction, TxResult};

use crate::arena::NodeId;
use crate::map::ScanOrder;
use crate::node::{Key, Value};

/// Node-level hooks of [`bst_range_visit`].
pub trait ScanNode {
    /// The node's key, for routing the descent. Implementations with
    /// immutable per-incarnation keys may read it outside the transaction.
    fn scan_key<'env>(&'env self, tx: &mut Transaction<'env>) -> TxResult<Key>;

    /// The node's live `(key, value)` entry, or `None` when the node is a
    /// tombstone (logically deleted) that the scan must skip. Reading the
    /// liveness flag transactionally makes a racing revive-insert conflict
    /// with the scan instead of being missed.
    fn scan_entry<'env>(&'env self, tx: &mut Transaction<'env>) -> TxResult<Option<(Key, Value)>>;

    /// Left child cell (smaller keys).
    fn left_child(&self) -> &TCell<NodeId>;

    /// Right child cell (larger keys).
    fn right_child(&self) -> &TCell<NodeId>;
}

/// In-order (or reverse in-order) traversal of the live entries of
/// `[lo, hi]` below `root`, calling `visit` until it breaks or the range is
/// exhausted. Subtrees that cannot intersect the range are pruned via the
/// BST invariant (left subtree keys < node key < right subtree keys).
pub fn bst_range_visit<'env, N: ScanNode + 'env>(
    node_of: impl Fn(NodeId) -> &'env N,
    root: NodeId,
    tx: &mut Transaction<'env>,
    range: RangeInclusive<Key>,
    order: ScanOrder,
    visit: &mut dyn FnMut(Key, Value) -> ControlFlow<()>,
) -> TxResult<()> {
    let (lo, hi) = (*range.start(), *range.end());
    if lo > hi {
        return Ok(());
    }
    enum Step {
        /// Expand a subtree root into (child, emit, child) steps.
        Explore(NodeId),
        /// Report the node if it is live.
        Emit(NodeId),
    }
    let mut stack = vec![Step::Explore(root)];
    while let Some(step) = stack.pop() {
        match step {
            Step::Explore(id) => {
                if id.is_nil() {
                    continue;
                }
                let node = node_of(id);
                let key = node.scan_key(tx)?;
                let descend_left = key > lo;
                let descend_right = key < hi;
                let in_range = lo <= key && key <= hi;
                // Push in reverse of the processing order (LIFO stack).
                match order {
                    ScanOrder::Ascending => {
                        if descend_right {
                            stack.push(Step::Explore(tx.read(node.right_child())?));
                        }
                        if in_range {
                            stack.push(Step::Emit(id));
                        }
                        if descend_left {
                            stack.push(Step::Explore(tx.read(node.left_child())?));
                        }
                    }
                    ScanOrder::Descending => {
                        if descend_left {
                            stack.push(Step::Explore(tx.read(node.left_child())?));
                        }
                        if in_range {
                            stack.push(Step::Emit(id));
                        }
                        if descend_right {
                            stack.push(Step::Explore(tx.read(node.right_child())?));
                        }
                    }
                }
            }
            Step::Emit(id) => {
                if let Some((key, value)) = node_of(id).scan_entry(tx)? {
                    if visit(key, value).is_break() {
                        return Ok(());
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::{TxMap, TxMapInTx};
    use crate::SpecFriendlyTree;
    use sf_stm::Stm;

    #[test]
    fn empty_and_inverted_ranges_visit_nothing() {
        let stm = Stm::default_config();
        let tree = SpecFriendlyTree::new();
        let mut h = tree.register(stm.register());
        tree.insert(&mut h, 5, 50);
        assert_eq!(tree.range_collect(&mut h, 6..=7), vec![]);
        #[allow(clippy::reversed_empty_ranges)]
        let inverted = 9..=3;
        let got = h
            .ctx_mut()
            .atomically(|tx| tree.tx_range_collect(tx, inverted.clone()));
        assert_eq!(got, vec![]);
    }

    #[test]
    fn descending_order_reverses_ascending() {
        let stm = Stm::default_config();
        let tree = SpecFriendlyTree::new();
        let mut h = tree.register(stm.register());
        for k in [4u64, 1, 9, 6, 2] {
            tree.insert(&mut h, k, k);
        }
        let (asc, desc) = h.ctx_mut().atomically(|tx| {
            let mut asc = Vec::new();
            tree.tx_range_visit(tx, 0..=u64::MAX, ScanOrder::Ascending, &mut |k, _| {
                asc.push(k);
                ControlFlow::Continue(())
            })?;
            let mut desc = Vec::new();
            tree.tx_range_visit(tx, 0..=u64::MAX, ScanOrder::Descending, &mut |k, _| {
                desc.push(k);
                ControlFlow::Continue(())
            })?;
            Ok((asc, desc))
        });
        assert_eq!(asc, vec![1, 2, 4, 6, 9]);
        let mut reversed = asc.clone();
        reversed.reverse();
        assert_eq!(desc, reversed);
    }
}
