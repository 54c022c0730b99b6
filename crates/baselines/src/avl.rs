//! Transaction-encapsulated AVL tree.
//!
//! This is the "tightly coupled" baseline of the paper (§2): the lookup, the
//! abstraction change, the threshold check and the rebalancing rotations all
//! execute inside a *single* transaction, so the read set covers the whole
//! search path and the write set grows with every rotation — precisely the
//! behaviour whose cost Table 1 and Figure 3 measure. It mirrors the AVL tree
//! shipped with STAMP that the paper evaluates.

use std::ops::{ControlFlow, RangeInclusive};
use std::sync::Arc;

use sf_stm::{TCell, ThreadCtx, Transaction, TxKind, TxResult};
use sf_tree::map::{ScanOrder, TxMapInTx, TxMapVersioned};
use sf_tree::{Key, NodeId, TxArena, Value};

/// AVL node: key and value are mutable because deletion of a two-child node
/// copies the successor into place.
#[derive(Debug)]
pub struct AvlNode {
    key: TCell<Key>,
    value: TCell<Value>,
    left: TCell<NodeId>,
    right: TCell<NodeId>,
    height: TCell<i32>,
}

impl Default for AvlNode {
    fn default() -> Self {
        AvlNode {
            key: TCell::new(0),
            value: TCell::new(0),
            left: TCell::new(NodeId::NIL),
            right: TCell::new(NodeId::NIL),
            height: TCell::new(1),
        }
    }
}

/// Transaction-encapsulated AVL tree (in-transaction rebalancing).
#[derive(Debug)]
pub struct AvlTree {
    arena: Arc<TxArena<AvlNode>>,
    root: TCell<NodeId>,
    rotations: std::sync::atomic::AtomicU64,
}

impl AvlTree {
    /// Create an empty tree.
    pub fn new() -> Self {
        AvlTree {
            arena: Arc::new(TxArena::new()),
            root: TCell::new(NodeId::NIL),
            rotations: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Create an empty tree with a bounded arena.
    pub fn with_capacity(capacity: usize) -> Self {
        AvlTree {
            arena: Arc::new(TxArena::with_capacity(capacity)),
            root: TCell::new(NodeId::NIL),
            rotations: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Number of rotation attempts performed while rebalancing (including
    /// rotations of attempts that later aborted). Used for the rotation-count
    /// comparison of §5.5.
    pub fn rotation_attempts(&self) -> u64 {
        // sf-lint: allow(relaxed-atomic, rotation telemetry; read once for the end-of-run report)
        self.rotations.load(std::sync::atomic::Ordering::Relaxed)
    }

    fn node(&self, id: NodeId) -> &AvlNode {
        self.arena.get(id)
    }

    fn height<'env>(&'env self, tx: &mut Transaction<'env>, id: NodeId) -> TxResult<i32> {
        if id.is_nil() {
            Ok(0)
        } else {
            tx.read(&self.node(id).height)
        }
    }

    fn update_height<'env>(&'env self, tx: &mut Transaction<'env>, id: NodeId) -> TxResult<i32> {
        let node = self.node(id);
        let left = tx.read(&node.left)?;
        let right = tx.read(&node.right)?;
        let lh = self.height(tx, left)?;
        let rh = self.height(tx, right)?;
        let h = 1 + lh.max(rh);
        if tx.read(&node.height)? != h {
            tx.write(&node.height, h)?;
        }
        Ok(h)
    }

    fn balance_factor<'env>(&'env self, tx: &mut Transaction<'env>, id: NodeId) -> TxResult<i32> {
        let node = self.node(id);
        let left = tx.read(&node.left)?;
        let right = tx.read(&node.right)?;
        let lh = self.height(tx, left)?;
        let rh = self.height(tx, right)?;
        Ok(lh - rh)
    }

    /// Rotate the subtree rooted at `id` to the right, returning the new
    /// subtree root.
    fn rotate_right<'env>(&'env self, tx: &mut Transaction<'env>, id: NodeId) -> TxResult<NodeId> {
        self.rotations
            // sf-lint: allow(relaxed-atomic, rotation telemetry counter; no reader synchronizes on it)
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let node = self.node(id);
        let pivot = tx.read(&node.left)?;
        let pivot_node = self.node(pivot);
        let transfer = tx.read(&pivot_node.right)?;
        tx.write(&node.left, transfer)?;
        tx.write(&pivot_node.right, id)?;
        self.update_height(tx, id)?;
        self.update_height(tx, pivot)?;
        Ok(pivot)
    }

    /// Rotate the subtree rooted at `id` to the left, returning the new
    /// subtree root.
    fn rotate_left<'env>(&'env self, tx: &mut Transaction<'env>, id: NodeId) -> TxResult<NodeId> {
        self.rotations
            // sf-lint: allow(relaxed-atomic, rotation telemetry counter; no reader synchronizes on it)
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let node = self.node(id);
        let pivot = tx.read(&node.right)?;
        let pivot_node = self.node(pivot);
        let transfer = tx.read(&pivot_node.left)?;
        tx.write(&node.right, transfer)?;
        tx.write(&pivot_node.left, id)?;
        self.update_height(tx, id)?;
        self.update_height(tx, pivot)?;
        Ok(pivot)
    }

    /// AVL rebalancing step at `id`; returns the (possibly new) subtree root.
    fn rebalance<'env>(&'env self, tx: &mut Transaction<'env>, id: NodeId) -> TxResult<NodeId> {
        self.update_height(tx, id)?;
        let bf = self.balance_factor(tx, id)?;
        if bf > 1 {
            let node = self.node(id);
            let left = tx.read(&node.left)?;
            if self.balance_factor(tx, left)? < 0 {
                let new_left = self.rotate_left(tx, left)?;
                tx.write(&node.left, new_left)?;
            }
            return self.rotate_right(tx, id);
        }
        if bf < -1 {
            let node = self.node(id);
            let right = tx.read(&node.right)?;
            if self.balance_factor(tx, right)? > 0 {
                let new_right = self.rotate_right(tx, right)?;
                tx.write(&node.right, new_right)?;
            }
            return self.rotate_left(tx, id);
        }
        Ok(id)
    }

    fn insert_rec<'env>(
        &'env self,
        tx: &mut Transaction<'env>,
        id: NodeId,
        key: Key,
        value: Value,
    ) -> TxResult<(NodeId, bool)> {
        if id.is_nil() {
            let new_id = self.arena.alloc();
            let new_node = self.node(new_id);
            new_node.key.unsync_store(key);
            new_node.value.unsync_store(value);
            new_node.left.unsync_store(NodeId::NIL);
            new_node.right.unsync_store(NodeId::NIL);
            new_node.height.unsync_store(1);
            let arena = Arc::clone(&self.arena);
            tx.on_abort(move || arena.recycle(new_id));
            return Ok((new_id, true));
        }
        let node = self.node(id);
        let k = tx.read(&node.key)?;
        if key == k {
            return Ok((id, false));
        }
        let inserted = if key < k {
            let left = tx.read(&node.left)?;
            let (new_left, inserted) = self.insert_rec(tx, left, key, value)?;
            if inserted && new_left != left {
                tx.write(&node.left, new_left)?;
            }
            inserted
        } else {
            let right = tx.read(&node.right)?;
            let (new_right, inserted) = self.insert_rec(tx, right, key, value)?;
            if inserted && new_right != right {
                tx.write(&node.right, new_right)?;
            }
            inserted
        };
        if !inserted {
            return Ok((id, false));
        }
        Ok((self.rebalance(tx, id)?, true))
    }

    /// Smallest `(key, value)` of the subtree rooted at `id` (which must not
    /// be ⊥).
    fn min_of<'env>(
        &'env self,
        tx: &mut Transaction<'env>,
        mut id: NodeId,
    ) -> TxResult<(Key, Value)> {
        loop {
            let node = self.node(id);
            let left = tx.read(&node.left)?;
            if left.is_nil() {
                return Ok((tx.read(&node.key)?, tx.read(&node.value)?));
            }
            id = left;
        }
    }

    fn delete_rec<'env>(
        &'env self,
        tx: &mut Transaction<'env>,
        id: NodeId,
        key: Key,
    ) -> TxResult<(NodeId, bool)> {
        if id.is_nil() {
            return Ok((NodeId::NIL, false));
        }
        let node = self.node(id);
        let k = tx.read(&node.key)?;
        if key < k {
            let left = tx.read(&node.left)?;
            let (new_left, deleted) = self.delete_rec(tx, left, key)?;
            if !deleted {
                return Ok((id, false));
            }
            if new_left != left {
                tx.write(&node.left, new_left)?;
            }
            return Ok((self.rebalance(tx, id)?, true));
        }
        if key > k {
            let right = tx.read(&node.right)?;
            let (new_right, deleted) = self.delete_rec(tx, right, key)?;
            if !deleted {
                return Ok((id, false));
            }
            if new_right != right {
                tx.write(&node.right, new_right)?;
            }
            return Ok((self.rebalance(tx, id)?, true));
        }
        // Found the node to delete.
        let left = tx.read(&node.left)?;
        let right = tx.read(&node.right)?;
        if left.is_nil() {
            return Ok((right, true));
        }
        if right.is_nil() {
            return Ok((left, true));
        }
        // Two children: replace with the in-order successor and delete the
        // successor from the right subtree.
        let (succ_key, succ_value) = self.min_of(tx, right)?;
        tx.write(&node.key, succ_key)?;
        tx.write(&node.value, succ_value)?;
        let (new_right, _) = self.delete_rec(tx, right, succ_key)?;
        if new_right != right {
            tx.write(&node.right, new_right)?;
        }
        Ok((self.rebalance(tx, id)?, true))
    }

    /// Quiescent in-order key/value dump (test oracle).
    pub fn entries_quiescent(&self) -> Vec<(Key, Value)> {
        fn rec(tree: &AvlTree, id: NodeId, out: &mut Vec<(Key, Value)>) {
            if id.is_nil() {
                return;
            }
            let n = tree.node(id);
            rec(tree, n.left.unsync_load(), out);
            out.push((n.key.unsync_load(), n.value.unsync_load()));
            rec(tree, n.right.unsync_load(), out);
        }
        let mut out = Vec::new();
        rec(self, self.root.unsync_load(), &mut out);
        out
    }

    /// Verify the AVL invariants while quiescent: BST ordering and
    /// per-node balance factor in `{-1, 0, 1}` with consistent heights.
    pub fn check_invariants(&self) -> Result<(), String> {
        fn rec(
            tree: &AvlTree,
            id: NodeId,
            low: Option<Key>,
            high: Option<Key>,
        ) -> Result<i32, String> {
            if id.is_nil() {
                return Ok(0);
            }
            let n = tree.node(id);
            let k = n.key.unsync_load();
            if low.is_some_and(|l| k <= l) || high.is_some_and(|h| k >= h) {
                return Err(format!("BST violation at key {k}"));
            }
            let lh = rec(tree, n.left.unsync_load(), low, Some(k))?;
            let rh = rec(tree, n.right.unsync_load(), Some(k), high)?;
            let stored = n.height.unsync_load();
            let actual = 1 + lh.max(rh);
            if stored != actual {
                return Err(format!(
                    "height mismatch at key {k}: stored {stored}, actual {actual}"
                ));
            }
            if (lh - rh).abs() > 1 {
                return Err(format!("AVL imbalance at key {k}: {lh} vs {rh}"));
            }
            Ok(actual)
        }
        rec(self, self.root.unsync_load(), None, None).map(|_| ())
    }

    /// Longest root-to-leaf path, counted in nodes.
    pub fn depth_quiescent(&self) -> usize {
        fn rec(tree: &AvlTree, id: NodeId) -> usize {
            if id.is_nil() {
                return 0;
            }
            let n = tree.node(id);
            1 + rec(tree, n.left.unsync_load()).max(rec(tree, n.right.unsync_load()))
        }
        rec(self, self.root.unsync_load())
    }
}

impl Default for AvlTree {
    fn default() -> Self {
        Self::new()
    }
}

impl TxMapInTx for AvlTree {
    fn tx_get<'env>(&'env self, tx: &mut Transaction<'env>, key: Key) -> TxResult<Option<Value>> {
        let mut curr = tx.read(&self.root)?;
        while !curr.is_nil() {
            let node = self.node(curr);
            let k = tx.read(&node.key)?;
            if key == k {
                return Ok(Some(tx.read(&node.value)?));
            }
            curr = if key < k {
                tx.read(&node.left)?
            } else {
                tx.read(&node.right)?
            };
        }
        Ok(None)
    }

    fn tx_insert<'env>(
        &'env self,
        tx: &mut Transaction<'env>,
        key: Key,
        value: Value,
    ) -> TxResult<bool> {
        let root = tx.read(&self.root)?;
        let (new_root, inserted) = self.insert_rec(tx, root, key, value)?;
        if inserted && new_root != root {
            tx.write(&self.root, new_root)?;
        }
        Ok(inserted)
    }

    fn tx_delete<'env>(&'env self, tx: &mut Transaction<'env>, key: Key) -> TxResult<bool> {
        let root = tx.read(&self.root)?;
        let (new_root, deleted) = self.delete_rec(tx, root, key)?;
        if deleted && new_root != root {
            tx.write(&self.root, new_root)?;
        }
        Ok(deleted)
    }

    /// In-order range walk inside the caller's transaction (the generic
    /// walker of [`sf_tree::scan`]).
    fn tx_range_visit<'env>(
        &'env self,
        tx: &mut Transaction<'env>,
        range: RangeInclusive<Key>,
        order: ScanOrder,
        visit: &mut dyn FnMut(Key, Value) -> ControlFlow<()>,
    ) -> TxResult<()> {
        let root = tx.read(&self.root)?;
        sf_tree::scan::bst_range_visit(|id| self.node(id), root, tx, range, order, visit)
    }
}

impl sf_tree::scan::ScanNode for AvlNode {
    /// Keys are read transactionally — the AVL delete rewrites a node's key
    /// when splicing the in-order successor into a two-child node, so key
    /// reads must be conflict-checked like any other field.
    fn scan_key<'env>(&'env self, tx: &mut Transaction<'env>) -> TxResult<Key> {
        tx.read(&self.key)
    }

    fn scan_entry<'env>(&'env self, tx: &mut Transaction<'env>) -> TxResult<Option<(Key, Value)>> {
        // No tombstones: every reachable node is live.
        Ok(Some((tx.read(&self.key)?, tx.read(&self.value)?)))
    }

    fn left_child(&self) -> &TCell<NodeId> {
        &self.left
    }

    fn right_child(&self) -> &TCell<NodeId> {
        &self.right
    }
}

impl TxMapVersioned for AvlTree {
    const LABEL: &'static str = "AVLtree";

    type Handle = ThreadCtx;

    fn attach(&self, ctx: ThreadCtx) -> ThreadCtx {
        ctx
    }

    fn transact<'t, R>(
        &'t self,
        ctx: &'t mut ThreadCtx,
        kind: Option<TxKind>,
        body: impl FnMut(&mut Transaction<'t>) -> TxResult<R>,
    ) -> (R, u64) {
        let kind = kind.unwrap_or(ctx.stm().config().default_kind);
        ctx.atomically_versioned_kind(kind, body)
    }

    fn count_quiescent(&self) -> usize {
        self.entries_quiescent().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_stm::Stm;
    use sf_tree::map::TxMap;

    #[test]
    fn insert_lookup_delete() {
        let stm = Stm::default_config();
        let mut ctx = stm.register();
        let tree = AvlTree::new();
        assert!(tree.insert(&mut ctx, 5, 50));
        assert!(tree.insert(&mut ctx, 2, 20));
        assert!(tree.insert(&mut ctx, 8, 80));
        assert!(!tree.insert(&mut ctx, 5, 51));
        assert_eq!(tree.get(&mut ctx, 2), Some(20));
        assert!(tree.delete(&mut ctx, 2));
        assert!(!tree.delete(&mut ctx, 2));
        assert!(!tree.contains(&mut ctx, 2));
        tree.check_invariants().unwrap();
    }

    #[test]
    fn stays_balanced_under_sequential_inserts() {
        let stm = Stm::default_config();
        let mut ctx = stm.register();
        let tree = AvlTree::new();
        for k in 0..512u64 {
            assert!(tree.insert(&mut ctx, k, k));
        }
        tree.check_invariants().unwrap();
        let depth = tree.depth_quiescent();
        assert!(
            depth <= 10,
            "AVL depth for 512 keys should be <= 10, got {depth}"
        );
        assert_eq!(tree.len_quiescent(), 512);
    }

    #[test]
    fn delete_two_children_nodes_keeps_invariants() {
        let stm = Stm::default_config();
        let mut ctx = stm.register();
        let tree = AvlTree::new();
        let keys: Vec<u64> = (0..128).map(|i| (i * 53) % 127).collect();
        for &k in &keys {
            tree.insert(&mut ctx, k, k + 1);
        }
        for &k in keys.iter().step_by(3) {
            assert!(tree.delete(&mut ctx, k));
            tree.check_invariants().unwrap();
        }
        let expected: std::collections::BTreeSet<u64> = keys
            .iter()
            .copied()
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .filter(|k| !keys.iter().step_by(3).any(|d| d == k))
            .collect();
        let got: Vec<u64> = tree.entries_quiescent().iter().map(|(k, _)| *k).collect();
        assert_eq!(got, expected.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_updates_preserve_invariants() {
        let stm = Stm::default_config();
        let tree = Arc::new(AvlTree::new());
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let tree = Arc::clone(&tree);
                let mut ctx = stm.register();
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        let k = t * 1000 + i;
                        assert!(tree.insert(&mut ctx, k, k));
                        if i % 2 == 0 {
                            assert!(tree.delete(&mut ctx, k));
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        tree.check_invariants().unwrap();
        assert_eq!(tree.len_quiescent(), 4 * 100);
    }

    #[test]
    fn move_entry_composes() {
        let stm = Stm::default_config();
        let mut ctx = stm.register();
        let tree = AvlTree::new();
        tree.insert(&mut ctx, 1, 10);
        assert!(tree.move_entry(&mut ctx, 1, 2));
        assert_eq!(tree.get(&mut ctx, 2), Some(10));
        assert!(!tree.contains(&mut ctx, 1));
        tree.check_invariants().unwrap();
    }
}
