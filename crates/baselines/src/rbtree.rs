//! Transaction-encapsulated red-black tree.
//!
//! A faithful stand-in for the red-black tree library developed by Oracle
//! Labs (formerly Sun) that STAMP and synchrobench ship and that the paper
//! uses as its main baseline: a classic CLRS-style red-black tree with parent
//! pointers whose insert and delete perform the lookup, the linking, and the
//! full recolor/rotation fix-up inside a single transaction. There is no
//! sentinel node (the Oracle implementation removed it to avoid
//! false conflicts); ⊥ children are represented by [`NodeId::NIL`] and the
//! fix-up code tracks the parent of an absent child explicitly.

use std::ops::{ControlFlow, RangeInclusive};
use std::sync::Arc;

use sf_stm::{TCell, ThreadCtx, Transaction, TxKind, TxResult};
use sf_tree::map::{ScanOrder, TxMapInTx, TxMapVersioned};
use sf_tree::{Key, NodeId, TxArena, Value};

const RED: bool = true;
const BLACK: bool = false;

/// Red-black tree node.
#[derive(Debug)]
pub struct RbNode {
    key: TCell<Key>,
    value: TCell<Value>,
    left: TCell<NodeId>,
    right: TCell<NodeId>,
    parent: TCell<NodeId>,
    red: TCell<bool>,
}

impl Default for RbNode {
    fn default() -> Self {
        RbNode {
            key: TCell::new(0),
            value: TCell::new(0),
            left: TCell::new(NodeId::NIL),
            right: TCell::new(NodeId::NIL),
            parent: TCell::new(NodeId::NIL),
            red: TCell::new(BLACK),
        }
    }
}

/// Transaction-encapsulated red-black tree (in-transaction rebalancing).
#[derive(Debug)]
pub struct RedBlackTree {
    arena: Arc<TxArena<RbNode>>,
    root: TCell<NodeId>,
    rotations: std::sync::atomic::AtomicU64,
}

impl RedBlackTree {
    /// Create an empty tree.
    pub fn new() -> Self {
        RedBlackTree {
            arena: Arc::new(TxArena::new()),
            root: TCell::new(NodeId::NIL),
            rotations: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Create an empty tree with a bounded arena.
    pub fn with_capacity(capacity: usize) -> Self {
        RedBlackTree {
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

    fn node(&self, id: NodeId) -> &RbNode {
        self.arena.get(id)
    }

    fn is_red<'env>(&'env self, tx: &mut Transaction<'env>, id: NodeId) -> TxResult<bool> {
        if id.is_nil() {
            Ok(false)
        } else {
            tx.read(&self.node(id).red)
        }
    }

    fn set_black<'env>(&'env self, tx: &mut Transaction<'env>, id: NodeId) -> TxResult<()> {
        if !id.is_nil() {
            tx.write(&self.node(id).red, BLACK)?;
        }
        Ok(())
    }

    /// Re-link `v` in place of `u` under `u`'s parent.
    fn transplant<'env>(
        &'env self,
        tx: &mut Transaction<'env>,
        u: NodeId,
        v: NodeId,
    ) -> TxResult<()> {
        let up = tx.read(&self.node(u).parent)?;
        if up.is_nil() {
            tx.write(&self.root, v)?;
        } else if u == tx.read(&self.node(up).left)? {
            tx.write(&self.node(up).left, v)?;
        } else {
            tx.write(&self.node(up).right, v)?;
        }
        if !v.is_nil() {
            tx.write(&self.node(v).parent, up)?;
        }
        Ok(())
    }

    fn rotate_left<'env>(&'env self, tx: &mut Transaction<'env>, x: NodeId) -> TxResult<()> {
        self.rotations
            // sf-lint: allow(relaxed-atomic, rotation telemetry counter; no reader synchronizes on it)
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let xn = self.node(x);
        let y = tx.read(&xn.right)?;
        let yn = self.node(y);
        let beta = tx.read(&yn.left)?;
        tx.write(&xn.right, beta)?;
        if !beta.is_nil() {
            tx.write(&self.node(beta).parent, x)?;
        }
        let xp = tx.read(&xn.parent)?;
        tx.write(&yn.parent, xp)?;
        if xp.is_nil() {
            tx.write(&self.root, y)?;
        } else if x == tx.read(&self.node(xp).left)? {
            tx.write(&self.node(xp).left, y)?;
        } else {
            tx.write(&self.node(xp).right, y)?;
        }
        tx.write(&yn.left, x)?;
        tx.write(&xn.parent, y)?;
        Ok(())
    }

    fn rotate_right<'env>(&'env self, tx: &mut Transaction<'env>, x: NodeId) -> TxResult<()> {
        self.rotations
            // sf-lint: allow(relaxed-atomic, rotation telemetry counter; no reader synchronizes on it)
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let xn = self.node(x);
        let y = tx.read(&xn.left)?;
        let yn = self.node(y);
        let beta = tx.read(&yn.right)?;
        tx.write(&xn.left, beta)?;
        if !beta.is_nil() {
            tx.write(&self.node(beta).parent, x)?;
        }
        let xp = tx.read(&xn.parent)?;
        tx.write(&yn.parent, xp)?;
        if xp.is_nil() {
            tx.write(&self.root, y)?;
        } else if x == tx.read(&self.node(xp).right)? {
            tx.write(&self.node(xp).right, y)?;
        } else {
            tx.write(&self.node(xp).left, y)?;
        }
        tx.write(&yn.right, x)?;
        tx.write(&xn.parent, y)?;
        Ok(())
    }

    fn insert_fixup<'env>(&'env self, tx: &mut Transaction<'env>, mut z: NodeId) -> TxResult<()> {
        loop {
            let zp = tx.read(&self.node(z).parent)?;
            if zp.is_nil() || !self.is_red(tx, zp)? {
                break;
            }
            let zpp = tx.read(&self.node(zp).parent)?;
            debug_assert!(!zpp.is_nil(), "red parent implies a grandparent");
            if zp == tx.read(&self.node(zpp).left)? {
                let uncle = tx.read(&self.node(zpp).right)?;
                if self.is_red(tx, uncle)? {
                    self.set_black(tx, zp)?;
                    self.set_black(tx, uncle)?;
                    tx.write(&self.node(zpp).red, RED)?;
                    z = zpp;
                } else {
                    let mut zp = zp;
                    let mut zpp = zpp;
                    if z == tx.read(&self.node(zp).right)? {
                        z = zp;
                        self.rotate_left(tx, z)?;
                        zp = tx.read(&self.node(z).parent)?;
                        zpp = tx.read(&self.node(zp).parent)?;
                    }
                    self.set_black(tx, zp)?;
                    tx.write(&self.node(zpp).red, RED)?;
                    self.rotate_right(tx, zpp)?;
                }
            } else {
                let uncle = tx.read(&self.node(zpp).left)?;
                if self.is_red(tx, uncle)? {
                    self.set_black(tx, zp)?;
                    self.set_black(tx, uncle)?;
                    tx.write(&self.node(zpp).red, RED)?;
                    z = zpp;
                } else {
                    let mut zp = zp;
                    let mut zpp = zpp;
                    if z == tx.read(&self.node(zp).left)? {
                        z = zp;
                        self.rotate_right(tx, z)?;
                        zp = tx.read(&self.node(z).parent)?;
                        zpp = tx.read(&self.node(zp).parent)?;
                    }
                    self.set_black(tx, zp)?;
                    tx.write(&self.node(zpp).red, RED)?;
                    self.rotate_left(tx, zpp)?;
                }
            }
        }
        let root = tx.read(&self.root)?;
        self.set_black(tx, root)?;
        Ok(())
    }

    fn minimum<'env>(&'env self, tx: &mut Transaction<'env>, mut id: NodeId) -> TxResult<NodeId> {
        loop {
            let left = tx.read(&self.node(id).left)?;
            if left.is_nil() {
                return Ok(id);
            }
            id = left;
        }
    }

    #[allow(clippy::too_many_lines)]
    fn delete_fixup<'env>(
        &'env self,
        tx: &mut Transaction<'env>,
        mut x: NodeId,
        mut x_parent: NodeId,
    ) -> TxResult<()> {
        while x != tx.read(&self.root)? && !self.is_red(tx, x)? {
            debug_assert!(!x_parent.is_nil());
            let parent_node = self.node(x_parent);
            if x == tx.read(&parent_node.left)? {
                let mut w = tx.read(&parent_node.right)?;
                if self.is_red(tx, w)? {
                    self.set_black(tx, w)?;
                    tx.write(&parent_node.red, RED)?;
                    self.rotate_left(tx, x_parent)?;
                    w = tx.read(&parent_node.right)?;
                }
                let wl = tx.read(&self.node(w).left)?;
                let wr = tx.read(&self.node(w).right)?;
                if !self.is_red(tx, wl)? && !self.is_red(tx, wr)? {
                    tx.write(&self.node(w).red, RED)?;
                    x = x_parent;
                    x_parent = tx.read(&self.node(x).parent)?;
                } else {
                    if !self.is_red(tx, wr)? {
                        self.set_black(tx, wl)?;
                        tx.write(&self.node(w).red, RED)?;
                        self.rotate_right(tx, w)?;
                        w = tx.read(&parent_node.right)?;
                    }
                    let parent_color = tx.read(&parent_node.red)?;
                    tx.write(&self.node(w).red, parent_color)?;
                    tx.write(&parent_node.red, BLACK)?;
                    let wr = tx.read(&self.node(w).right)?;
                    self.set_black(tx, wr)?;
                    self.rotate_left(tx, x_parent)?;
                    x = tx.read(&self.root)?;
                    x_parent = NodeId::NIL;
                }
            } else {
                let mut w = tx.read(&parent_node.left)?;
                if self.is_red(tx, w)? {
                    self.set_black(tx, w)?;
                    tx.write(&parent_node.red, RED)?;
                    self.rotate_right(tx, x_parent)?;
                    w = tx.read(&parent_node.left)?;
                }
                let wl = tx.read(&self.node(w).left)?;
                let wr = tx.read(&self.node(w).right)?;
                if !self.is_red(tx, wl)? && !self.is_red(tx, wr)? {
                    tx.write(&self.node(w).red, RED)?;
                    x = x_parent;
                    x_parent = tx.read(&self.node(x).parent)?;
                } else {
                    if !self.is_red(tx, wl)? {
                        self.set_black(tx, wr)?;
                        tx.write(&self.node(w).red, RED)?;
                        self.rotate_left(tx, w)?;
                        w = tx.read(&parent_node.left)?;
                    }
                    let parent_color = tx.read(&parent_node.red)?;
                    tx.write(&self.node(w).red, parent_color)?;
                    tx.write(&parent_node.red, BLACK)?;
                    let wl = tx.read(&self.node(w).left)?;
                    self.set_black(tx, wl)?;
                    self.rotate_right(tx, x_parent)?;
                    x = tx.read(&self.root)?;
                    x_parent = NodeId::NIL;
                }
            }
        }
        self.set_black(tx, x)?;
        Ok(())
    }

    /// Find the node carrying `key`, if any.
    fn find_node<'env>(
        &'env self,
        tx: &mut Transaction<'env>,
        key: Key,
    ) -> TxResult<Option<NodeId>> {
        let mut curr = tx.read(&self.root)?;
        while !curr.is_nil() {
            let node = self.node(curr);
            let k = tx.read(&node.key)?;
            if key == k {
                return Ok(Some(curr));
            }
            curr = if key < k {
                tx.read(&node.left)?
            } else {
                tx.read(&node.right)?
            };
        }
        Ok(None)
    }

    /// Quiescent in-order key/value dump (test oracle).
    pub fn entries_quiescent(&self) -> Vec<(Key, Value)> {
        fn rec(tree: &RedBlackTree, id: NodeId, out: &mut Vec<(Key, Value)>) {
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

    /// Verify the red-black invariants while quiescent:
    /// BST ordering, a black root, no red node with a red child, equal black
    /// height on every root-to-leaf path, and consistent parent pointers.
    pub fn check_invariants(&self) -> Result<(), String> {
        let root = self.root.unsync_load();
        if root.is_nil() {
            return Ok(());
        }
        if self.node(root).red.unsync_load() {
            return Err("root is red".to_string());
        }
        if !self.node(root).parent.unsync_load().is_nil() {
            return Err("root has a parent".to_string());
        }
        self.check_rec(root, None, None).map(|_| ())
    }

    fn check_rec(&self, id: NodeId, low: Option<Key>, high: Option<Key>) -> Result<u32, String> {
        if id.is_nil() {
            return Ok(1); // NIL leaves are black
        }
        let n = self.node(id);
        let k = n.key.unsync_load();
        if low.is_some_and(|l| k <= l) || high.is_some_and(|h| k >= h) {
            return Err(format!("BST violation at key {k}"));
        }
        let left = n.left.unsync_load();
        let right = n.right.unsync_load();
        if n.red.unsync_load() {
            for child in [left, right] {
                if !child.is_nil() && self.node(child).red.unsync_load() {
                    return Err(format!("red node {k} has a red child"));
                }
            }
        }
        for child in [left, right] {
            if !child.is_nil() && self.node(child).parent.unsync_load() != id {
                return Err(format!("broken parent pointer under key {k}"));
            }
        }
        let bl = self.check_rec(left, low, Some(k))?;
        let br = self.check_rec(right, Some(k), high)?;
        if bl != br {
            return Err(format!("black-height mismatch at key {k}: {bl} vs {br}"));
        }
        Ok(bl + u32::from(!n.red.unsync_load()))
    }

    /// Longest root-to-leaf path, counted in nodes.
    pub fn depth_quiescent(&self) -> usize {
        fn rec(tree: &RedBlackTree, id: NodeId) -> usize {
            if id.is_nil() {
                return 0;
            }
            let n = tree.node(id);
            1 + rec(tree, n.left.unsync_load()).max(rec(tree, n.right.unsync_load()))
        }
        rec(self, self.root.unsync_load())
    }
}

impl Default for RedBlackTree {
    fn default() -> Self {
        Self::new()
    }
}

impl TxMapInTx for RedBlackTree {
    fn tx_get<'env>(&'env self, tx: &mut Transaction<'env>, key: Key) -> TxResult<Option<Value>> {
        match self.find_node(tx, key)? {
            Some(id) => Ok(Some(tx.read(&self.node(id).value)?)),
            None => Ok(None),
        }
    }

    fn tx_insert<'env>(
        &'env self,
        tx: &mut Transaction<'env>,
        key: Key,
        value: Value,
    ) -> TxResult<bool> {
        // Descend to the insertion point.
        let mut parent = NodeId::NIL;
        let mut curr = tx.read(&self.root)?;
        while !curr.is_nil() {
            let node = self.node(curr);
            let k = tx.read(&node.key)?;
            if key == k {
                return Ok(false);
            }
            parent = curr;
            curr = if key < k {
                tx.read(&node.left)?
            } else {
                tx.read(&node.right)?
            };
        }
        let z = self.arena.alloc();
        let zn = self.node(z);
        zn.key.unsync_store(key);
        zn.value.unsync_store(value);
        zn.left.unsync_store(NodeId::NIL);
        zn.right.unsync_store(NodeId::NIL);
        zn.parent.unsync_store(parent);
        zn.red.unsync_store(RED);
        let arena = Arc::clone(&self.arena);
        tx.on_abort(move || arena.recycle(z));
        if parent.is_nil() {
            tx.write(&self.root, z)?;
        } else if key < tx.read(&self.node(parent).key)? {
            tx.write(&self.node(parent).left, z)?;
        } else {
            tx.write(&self.node(parent).right, z)?;
        }
        self.insert_fixup(tx, z)?;
        Ok(true)
    }

    fn tx_delete<'env>(&'env self, tx: &mut Transaction<'env>, key: Key) -> TxResult<bool> {
        let z = match self.find_node(tx, key)? {
            Some(id) => id,
            None => return Ok(false),
        };
        let zn = self.node(z);
        let z_left = tx.read(&zn.left)?;
        let z_right = tx.read(&zn.right)?;
        let removed_color;
        let x;
        let x_parent;
        if z_left.is_nil() {
            removed_color = tx.read(&zn.red)?;
            x = z_right;
            x_parent = tx.read(&zn.parent)?;
            self.transplant(tx, z, z_right)?;
        } else if z_right.is_nil() {
            removed_color = tx.read(&zn.red)?;
            x = z_left;
            x_parent = tx.read(&zn.parent)?;
            self.transplant(tx, z, z_left)?;
        } else {
            // Two children: splice out the in-order successor `y`.
            let y = self.minimum(tx, z_right)?;
            let yn = self.node(y);
            removed_color = tx.read(&yn.red)?;
            x = tx.read(&yn.right)?;
            if tx.read(&yn.parent)? == z {
                x_parent = y;
                if !x.is_nil() {
                    tx.write(&self.node(x).parent, y)?;
                }
            } else {
                x_parent = tx.read(&yn.parent)?;
                self.transplant(tx, y, x)?;
                tx.write(&yn.right, z_right)?;
                tx.write(&self.node(z_right).parent, y)?;
            }
            self.transplant(tx, z, y)?;
            tx.write(&yn.left, z_left)?;
            tx.write(&self.node(z_left).parent, y)?;
            let z_color = tx.read(&zn.red)?;
            tx.write(&yn.red, z_color)?;
        }
        if removed_color == BLACK {
            self.delete_fixup(tx, x, x_parent)?;
        }
        Ok(true)
    }

    /// In-order range walk inside the caller's transaction (the generic
    /// walker of [`sf_tree::scan`]). The read set covers every visited
    /// node, so a committed scan is an atomic snapshot of the range — and,
    /// true to this "transaction-encapsulated" baseline, its cost grows
    /// with the range.
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

impl sf_tree::scan::ScanNode for RbNode {
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

impl TxMapVersioned for RedBlackTree {
    const LABEL: &'static str = "RBtree";

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
    use std::collections::BTreeMap;

    #[test]
    fn insert_lookup_delete_roundtrip() {
        let stm = Stm::default_config();
        let mut ctx = stm.register();
        let tree = RedBlackTree::new();
        assert!(tree.insert(&mut ctx, 10, 1));
        assert!(tree.insert(&mut ctx, 5, 2));
        assert!(tree.insert(&mut ctx, 15, 3));
        assert!(!tree.insert(&mut ctx, 10, 4));
        assert_eq!(tree.get(&mut ctx, 15), Some(3));
        assert!(tree.delete(&mut ctx, 10));
        assert!(!tree.delete(&mut ctx, 10));
        assert!(!tree.contains(&mut ctx, 10));
        tree.check_invariants().unwrap();
    }

    #[test]
    fn sequential_inserts_stay_logarithmic() {
        let stm = Stm::default_config();
        let mut ctx = stm.register();
        let tree = RedBlackTree::new();
        for k in 0..1024u64 {
            assert!(tree.insert(&mut ctx, k, k));
        }
        tree.check_invariants().unwrap();
        let depth = tree.depth_quiescent();
        assert!(depth <= 2 * 11, "red-black depth bound violated: {depth}");
        assert_eq!(tree.len_quiescent(), 1024);
    }

    #[test]
    fn randomized_against_btreemap_oracle() {
        let stm = Stm::default_config();
        let mut ctx = stm.register();
        let tree = RedBlackTree::new();
        let mut oracle = BTreeMap::new();
        // Deterministic pseudo-random operation mix.
        let mut state = 0x12345678u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for step in 0..4000u64 {
            let key = rng() % 256;
            match rng() % 3 {
                0 => {
                    // The trees do not overwrite on duplicate insert, so the
                    // oracle must not either.
                    let expected =
                        if let std::collections::btree_map::Entry::Vacant(e) = oracle.entry(key) {
                            e.insert(step);
                            true
                        } else {
                            false
                        };
                    assert_eq!(
                        tree.insert(&mut ctx, key, step),
                        expected,
                        "insert divergence at step {step} key {key}"
                    );
                }
                1 => {
                    assert_eq!(
                        tree.delete(&mut ctx, key),
                        oracle.remove(&key).is_some(),
                        "delete divergence at step {step} key {key}"
                    );
                }
                _ => {
                    assert_eq!(
                        tree.get(&mut ctx, key),
                        oracle.get(&key).copied(),
                        "lookup divergence at step {step} key {key}"
                    );
                }
            }
            if step % 64 == 0 {
                tree.check_invariants().unwrap();
            }
        }
        tree.check_invariants().unwrap();
        let got: Vec<(u64, u64)> = tree.entries_quiescent();
        let expected: Vec<(u64, u64)> = oracle.into_iter().collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn concurrent_disjoint_ranges() {
        let stm = Stm::default_config();
        let tree = Arc::new(RedBlackTree::new());
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let tree = Arc::clone(&tree);
                let mut ctx = stm.register();
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        let k = t * 1000 + i;
                        assert!(tree.insert(&mut ctx, k, k));
                        if i % 4 == 0 {
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
        assert_eq!(tree.len_quiescent(), 4 * 150);
    }

    #[test]
    fn move_entry_composes_atomically() {
        let stm = Stm::default_config();
        let mut ctx = stm.register();
        let tree = RedBlackTree::new();
        tree.insert(&mut ctx, 3, 33);
        assert!(tree.move_entry(&mut ctx, 3, 7));
        assert_eq!(tree.get(&mut ctx, 7), Some(33));
        assert!(!tree.contains(&mut ctx, 3));
        tree.check_invariants().unwrap();
    }
}
