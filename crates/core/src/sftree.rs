//! [`SfTree`] and the two [`FindSpec`] variants of the paper.

use std::marker::PhantomData;
use std::ops::{ControlFlow, RangeInclusive};
use std::sync::Arc;

use sf_stm::{ThreadCtx, Transaction, TxKind, TxResult};

use crate::arena::{NodeId, TxArena};
use crate::inspect::TreeInspect;
use crate::maintenance::{
    MaintenanceConfig, MaintenanceHandle, MaintenanceStyle, MaintenanceWorker,
};
use crate::map::{HotReport, ScanOrder, TxMapInTx, TxMapVersioned};
use crate::node::{Key, Node, RemState, Side, Value, SENTINEL_KEY};
use crate::scan::bst_range_visit;
use crate::shared::{SfHandle, TreeCore, TreeStats};

/// What distinguishes Algorithm 1 from Algorithm 2: the traversal, the
/// rotation style of the maintenance thread, and the display label.
///
/// `find` returns a node that is either (a) the node carrying `key`, with its
/// membership-relevant fields protected by transactional reads, or (b) the
/// node under which `key` would have to be inserted, with the corresponding
/// (⊥) child pointer protected by a transactional read. Everything else
/// (contains/insert/delete logic) is common code in [`SfTree`].
pub trait FindSpec: 'static {
    /// Rotation flavour of the maintenance worker paired with this traversal.
    const STYLE: MaintenanceStyle;
    /// Display label of the tree ([`TxMapVersioned::LABEL`]).
    const LABEL: &'static str;

    /// Descend from `root` towards `key`.
    fn find<'env>(
        nodes: &'env TxArena<Node>,
        root: NodeId,
        tx: &mut Transaction<'env>,
        key: Key,
    ) -> TxResult<NodeId>;
}

/// Traversal of Algorithm 1: transactional reads all the way down; stops on a
/// key match or on a ⊥ child pointer (which stays in the read set so a
/// concurrent insert of the same key is detected).
#[derive(Debug)]
pub struct PortableFind;

impl FindSpec for PortableFind {
    const STYLE: MaintenanceStyle = MaintenanceStyle::Classic;
    const LABEL: &'static str = "SFtree";

    fn find<'env>(
        nodes: &'env TxArena<Node>,
        root: NodeId,
        tx: &mut Transaction<'env>,
        key: Key,
    ) -> TxResult<NodeId> {
        let mut curr = root;
        loop {
            let node = nodes.get(curr);
            let k = node.key();
            if k == key {
                return Ok(curr);
            }
            let side = Side::for_key(key, k);
            let next = tx.read(node.child(side))?;
            match next.as_option() {
                Some(child) => curr = child,
                None => return Ok(curr),
            }
        }
    }
}

/// Traversal of Algorithm 2: unit reads on the way down, transactional reads
/// only to pin the final node (its removed flag, the relevant ⊥ child for the
/// leaf case, and the parent link for the final validation).
#[derive(Debug)]
pub struct OptimizedFind;

impl OptimizedFind {
    /// Maximum number of failed parent-link validations before the search
    /// gives up on local backtracking and restarts from the root. Purely a
    /// robustness bound; in practice one backtrack suffices.
    const MAX_BACKTRACKS: u32 = 64;
}

impl FindSpec for OptimizedFind {
    const STYLE: MaintenanceStyle = MaintenanceStyle::CloneBased;
    const LABEL: &'static str = "OptSFtree";

    fn find<'env>(
        nodes: &'env TxArena<Node>,
        root: NodeId,
        tx: &mut Transaction<'env>,
        key: Key,
    ) -> TxResult<NodeId> {
        let mut curr = root;
        let mut next = root;
        let mut backtracks = 0u32;
        loop {
            let mut parent;
            // Inner descent loop (paper lines 32-49).
            loop {
                parent = curr;
                curr = next;
                let node = nodes.get(curr);
                let val = node.key();
                let mut removed = RemState::Present;
                if val == key {
                    removed = tx.read(&node.rem)?;
                    if !removed.is_removed() {
                        break; // candidate with a matching key, pinned in the tree
                    }
                }
                // Pick the descent direction. A node with the searched key
                // that was removed by a *left* rotation hides its live clone
                // in its right subtree; every other removed node keeps the
                // clone (or the parent) reachable through the standard
                // direction (§3.3 and Lemma 16).
                let side = if val == key {
                    if removed == RemState::RemovedByLeftRotation {
                        Side::Right
                    } else {
                        Side::Left
                    }
                } else {
                    Side::for_key(key, val)
                };
                next = tx.uread(node.child(side));
                if next.is_nil() {
                    let rem_now = tx.read(&node.rem)?;
                    if !rem_now.is_removed() {
                        // The node is pinned in the tree; re-read the child
                        // pointer transactionally so a concurrent insert of
                        // `key` under this leaf conflicts with us.
                        let confirmed = tx.read(node.child(side))?;
                        if confirmed.is_nil() {
                            break; // insertion point found
                        }
                        next = confirmed;
                    } else {
                        // Removed node whose preferred child is ⊥: the other
                        // child keeps a path back into the tree (Lemma 16).
                        next = tx.uread(node.child(side.other()));
                        if next.is_nil() {
                            // Defensive: restart from the root.
                            curr = root;
                            next = root;
                        }
                    }
                }
            }
            // Final validation (paper lines 50-56): the parent must still
            // point at the candidate, otherwise resume from the parent.
            if curr == root {
                return Ok(curr);
            }
            let parent_node = nodes.get(parent);
            let side = Side::for_key(nodes.get(curr).key(), parent_node.key());
            let link = tx.read(parent_node.child(side))?;
            if link == curr {
                return Ok(curr);
            }
            backtracks += 1;
            if backtracks > Self::MAX_BACKTRACKS || parent == root {
                curr = root;
                next = root;
            } else {
                next = curr;
                curr = parent;
            }
        }
    }
}

/// The speculation-friendly binary search tree: one type for both of the
/// paper's algorithms.
///
/// Update operations are decoupled exactly as in the paper:
///
/// * `insert` touches the structure only when it links a fresh leaf,
/// * `delete` only flips the logical-deletion flag,
/// * rotations and physical removals are performed by the background
///   [`MaintenanceWorker`] in small node-local transactions.
///
/// Algorithms 1 and 2 differ in two places only, and the [`FindSpec`]
/// parameter `F` carries both:
///
/// * [`PortableFind`] (Algorithm 1, [`SpecFriendlyTree`]): every shared
///   access of the traversal is a *transactional* read, so the tree runs on
///   any TM that implements the standard interface — no unit loads, no
///   elastic transactions — and the maintenance thread rotates in place.
/// * [`OptimizedFind`] (Algorithm 2, §3.3, [`OptSpecFriendlyTree`]): the
///   traversal uses **unit reads** (`uread`) for intermediate hops and only
///   protects the final node with transactional reads, keeping the read set
///   `O(1)` per nested operation instead of `O(log n)`; each node's
///   **removed flag** (`rem`) lets a traversal preempted on a node that a
///   rotation or removal just unlinked keep descending instead of aborting;
///   and the maintenance thread uses the **clone-based rotation** of
///   Figure 2(c), leaving the rotated node (apart from its removed flag)
///   untouched with a path back into the tree.
#[derive(Debug)]
pub struct SfTree<F> {
    core: TreeCore,
    find: PhantomData<fn() -> F>,
}

/// The portable speculation-friendly tree (Algorithm 1).
pub type SpecFriendlyTree = SfTree<PortableFind>;

/// The optimized speculation-friendly tree (Algorithm 2).
pub type OptSpecFriendlyTree = SfTree<OptimizedFind>;

impl<F: FindSpec> SfTree<F> {
    /// Create an empty tree with its own node arena.
    pub fn new() -> Self {
        Self::with_arena(Arc::new(TxArena::new()))
    }

    /// Create an empty tree backed by an existing arena (several trees may
    /// share one arena, e.g. the four directories of the vacation
    /// application).
    pub fn with_arena(arena: Arc<TxArena<Node>>) -> Self {
        SfTree {
            core: TreeCore::new(arena),
            find: PhantomData,
        }
    }

    /// Register a worker thread: pairs the STM context with an activity slot
    /// for the reclamation protocol.
    pub fn register(&self, ctx: ThreadCtx) -> SfHandle {
        SfHandle {
            ctx,
            activity: self.core.arena.register_activity(),
        }
    }

    /// Work counters (rotations, removals, propagations, ...).
    pub fn stats(&self) -> &TreeStats {
        &self.core.stats
    }

    /// The node arena backing this tree.
    pub fn arena(&self) -> &Arc<TxArena<Node>> {
        &self.core.arena
    }

    /// Override the access-sampling rate (`SF_HOT_SAMPLE`): every `rate`-th
    /// traversal records its endpoint with weight `rate`; `0` disables.
    pub fn set_hot_sample(&self, rate: u64) {
        self.core
            .hot_sample
            // sf-lint: allow(relaxed-atomic, sampling-rate knob; readers may briefly observe the previous rate)
            .store(rate, std::sync::atomic::Ordering::Relaxed);
    }

    /// Build (but do not start) a maintenance worker with this variant's
    /// rotation style; useful in tests that want to drive passes manually.
    pub fn maintenance_worker(&self, ctx: ThreadCtx) -> MaintenanceWorker {
        self.maintenance_worker_with(ctx, MaintenanceConfig::default())
    }

    /// [`Self::maintenance_worker`] with a custom configuration.
    pub fn maintenance_worker_with(
        &self,
        ctx: ThreadCtx,
        config: MaintenanceConfig,
    ) -> MaintenanceWorker {
        MaintenanceWorker::new(self.core.clone(), F::STYLE, ctx, config)
    }

    /// Spawn the background maintenance (rotator) thread.
    pub fn start_maintenance(&self, ctx: ThreadCtx) -> MaintenanceHandle {
        self.maintenance_worker(ctx).spawn()
    }

    /// Spawn the background maintenance thread with a custom configuration.
    pub fn start_maintenance_with(
        &self,
        ctx: ThreadCtx,
        config: MaintenanceConfig,
    ) -> MaintenanceHandle {
        self.maintenance_worker_with(ctx, config).spawn()
    }

    /// Quiescent inspection helpers (test oracles, invariant checks).
    pub fn inspect(&self) -> TreeInspect<'_> {
        TreeInspect::new(&self.core)
    }

    /// Descend towards `key` and sample the endpoint for hot-key tracking.
    fn find<'env>(&'env self, tx: &mut Transaction<'env>, key: Key) -> TxResult<&'env Node> {
        let found = F::find(&self.core.arena, self.core.root, tx, key)?;
        self.core.record_access_sampled(found);
        Ok(self.core.node(found))
    }
}

impl<F: FindSpec> Default for SfTree<F> {
    fn default() -> Self {
        Self::new()
    }
}

impl<F: FindSpec> TxMapInTx for SfTree<F> {
    /// `Some(value)` when the key is present (not logically deleted).
    fn tx_get<'env>(&'env self, tx: &mut Transaction<'env>, key: Key) -> TxResult<Option<Value>> {
        let node = self.find(tx, key)?;
        if node.key() == key && !tx.read(&node.del)? {
            Ok(Some(tx.read(&node.value)?))
        } else {
            Ok(None)
        }
    }

    /// Paper Algorithm 1, `insert(k, v)`: revive a logically deleted node or
    /// link a fresh node below the node `find` returned.
    fn tx_insert<'env>(
        &'env self,
        tx: &mut Transaction<'env>,
        key: Key,
        value: Value,
    ) -> TxResult<bool> {
        assert!(key != SENTINEL_KEY, "the sentinel key is reserved");
        let node = self.find(tx, key)?;
        if node.key() == key {
            if tx.read(&node.del)? {
                // The key was logically deleted: revive it. This is the only
                // insert path that does not touch the tree structure.
                tx.write(&node.del, false)?;
                tx.write(&node.value, value)?;
                Ok(true)
            } else {
                Ok(false)
            }
        } else {
            // The find ended on a leaf-side ⊥ pointer that it read
            // transactionally, so linking the new node is conflict-checked.
            let new_id = self.core.alloc_fresh(key, value);
            let arena = Arc::clone(&self.core.arena);
            tx.on_abort(move || arena.recycle(new_id));
            let side = Side::for_key(key, node.key());
            tx.write(node.child(side), new_id)?;
            Ok(true)
        }
    }

    /// Paper Algorithm 1, `delete(k)`: flip the deleted flag; the physical
    /// unlink is left to the maintenance thread.
    fn tx_delete<'env>(&'env self, tx: &mut Transaction<'env>, key: Key) -> TxResult<bool> {
        let node = self.find(tx, key)?;
        if node.key() != key || tx.read(&node.del)? {
            Ok(false)
        } else {
            tx.write(&node.del, true)?;
            Ok(true)
        }
    }

    /// Range walk with fully-transactional reads on both variants: the
    /// unit-read shortcut of the optimized point `find` cannot apply because
    /// a scan's whole result set must be one atomic snapshot, so every hop
    /// stays in the read set and is revalidated at commit. The scan
    /// read-set cost is therefore `O(path + range)` — exactly what
    /// `max_scan_read_set` in [`sf_stm::StatsSnapshot`] measures.
    fn tx_range_visit<'env>(
        &'env self,
        tx: &mut Transaction<'env>,
        range: RangeInclusive<Key>,
        order: ScanOrder,
        visit: &mut dyn FnMut(Key, Value) -> ControlFlow<()>,
    ) -> TxResult<()> {
        let core = &self.core;
        bst_range_visit(|id| core.node(id), core.root, tx, range, order, visit)
    }
}

impl<F: FindSpec> TxMapVersioned for SfTree<F> {
    const LABEL: &'static str = F::LABEL;

    type Handle = SfHandle;

    fn attach(&self, ctx: ThreadCtx) -> SfHandle {
        self.register(ctx)
    }

    /// Runs `body` on `handle`'s context inside an operation guard of the
    /// reclamation protocol (§3.4).
    fn transact<'t, R>(
        &'t self,
        handle: &'t mut SfHandle,
        kind: Option<TxKind>,
        body: impl FnMut(&mut Transaction<'t>) -> TxResult<R>,
    ) -> (R, u64) {
        let (ctx, activity) = handle.parts();
        let _op = activity.begin();
        let kind = kind.unwrap_or(ctx.stm().config().default_kind);
        ctx.atomically_versioned_kind(kind, body)
    }

    fn count_quiescent(&self) -> usize {
        self.inspect().live_entries().len()
    }

    fn hot_quiescent(&self) -> Option<HotReport> {
        let mut report = self.inspect().hot_summary();
        report.hot_rotations = self
            .core
            .stats
            .hot_rotations
            // sf-lint: allow(relaxed-atomic, hot-rotation telemetry read for reports; staleness is harmless)
            .load(std::sync::atomic::Ordering::Relaxed);
        Some(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::TxMap;
    use sf_stm::Stm;
    use std::sync::atomic::{AtomicBool, Ordering};

    fn setup<F: FindSpec>() -> (Arc<Stm>, SfTree<F>) {
        (Stm::default_config(), SfTree::new())
    }

    /// Run each listed generic case once per variant, as
    /// `tests::portable::<case>` and `tests::optimized::<case>`.
    macro_rules! both_variants {
        ($($case:ident),* $(,)?) => {
            mod portable {
                $( #[test] fn $case() { super::$case::<super::PortableFind>(); } )*
            }
            mod optimized {
                $( #[test] fn $case() { super::$case::<super::OptimizedFind>(); } )*
            }
        };
    }

    both_variants!(
        insert_contains_delete_roundtrip,
        reinsert_after_logical_delete_revives_node,
        many_keys_and_order_is_preserved,
        move_entry_is_atomic_and_correct,
        delete_does_not_modify_structure,
        range_scans_skip_logically_deleted_nodes,
        ordered_in_tx_operations_compose_with_point_ops,
        concurrent_disjoint_inserts_all_land,
        concurrent_same_key_insert_exactly_one_wins,
        concurrent_mixed_workload_matches_oracle_membership,
        range_scans_survive_maintenance,
        scans_are_atomic_snapshots_under_concurrent_updates,
    );

    fn insert_contains_delete_roundtrip<F: FindSpec>() {
        let (stm, tree) = setup::<F>();
        let mut h = tree.register(stm.register());
        assert!(!tree.contains(&mut h, 10));
        assert!(tree.insert(&mut h, 10, 100));
        assert!(tree.insert(&mut h, 5, 50));
        assert!(tree.insert(&mut h, 15, 150));
        assert!(tree.contains(&mut h, 10));
        assert_eq!(tree.get(&mut h, 10), Some(100));
        assert!(!tree.insert(&mut h, 10, 101), "duplicate insert fails");
        assert!(tree.delete(&mut h, 10));
        assert!(!tree.contains(&mut h, 10));
        assert!(!tree.delete(&mut h, 10), "double delete fails");
        assert_eq!(tree.len_quiescent(), 2);
        tree.inspect().check_consistency().unwrap();
    }

    fn reinsert_after_logical_delete_revives_node<F: FindSpec>() {
        let (stm, tree) = setup::<F>();
        let mut h = tree.register(stm.register());
        assert!(tree.insert(&mut h, 7, 70));
        assert!(tree.delete(&mut h, 7));
        // The node is still physically present (no maintenance ran), so the
        // insert revives it rather than allocating.
        let allocated_before = tree.arena().allocated();
        assert!(tree.insert(&mut h, 7, 71));
        assert_eq!(tree.arena().allocated(), allocated_before);
        assert_eq!(tree.get(&mut h, 7), Some(71));
    }

    fn many_keys_and_order_is_preserved<F: FindSpec>() {
        let (stm, tree) = setup::<F>();
        let mut h = tree.register(stm.register());
        let keys: Vec<u64> = (0..200).map(|i| (i * 37) % 199).collect();
        for &k in &keys {
            tree.insert(&mut h, k, k * 10);
        }
        tree.inspect().check_consistency().unwrap();
        let live = tree.inspect().live_entries();
        let mut sorted: Vec<u64> = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(live.iter().map(|(k, _)| *k).collect::<Vec<_>>(), sorted);
        assert_eq!(tree.len_quiescent(), sorted.len());
    }

    fn move_entry_is_atomic_and_correct<F: FindSpec>() {
        let (stm, tree) = setup::<F>();
        let mut h = tree.register(stm.register());
        tree.insert(&mut h, 1, 11);
        tree.insert(&mut h, 2, 22);
        assert!(tree.move_entry(&mut h, 1, 5));
        assert_eq!(tree.get(&mut h, 5), Some(11));
        assert!(!tree.contains(&mut h, 1));
        // Destination occupied -> no change.
        assert!(!tree.move_entry(&mut h, 2, 5));
        assert_eq!(tree.get(&mut h, 2), Some(22));
        // Missing source -> no change.
        assert!(!tree.move_entry(&mut h, 9, 10));
    }

    fn delete_does_not_modify_structure<F: FindSpec>() {
        let (stm, tree) = setup::<F>();
        let mut h = tree.register(stm.register());
        for k in [50, 25, 75, 10, 30] {
            tree.insert(&mut h, k, k);
        }
        let nodes_before = tree.inspect().reachable_nodes();
        tree.delete(&mut h, 25);
        assert_eq!(tree.inspect().reachable_nodes(), nodes_before);
        tree.inspect().check_consistency().unwrap();
    }

    fn range_scans_skip_logically_deleted_nodes<F: FindSpec>() {
        let (stm, tree) = setup::<F>();
        let mut h = tree.register(stm.register());
        for k in 0..32u64 {
            tree.insert(&mut h, k, k * 10);
        }
        for k in (0..32u64).step_by(2) {
            tree.delete(&mut h, k);
        }
        // No maintenance ran: the deleted nodes are still physically linked.
        assert_eq!(tree.inspect().reachable_nodes(), 33); // 32 keys + sentinel
        let scanned = tree.range_collect(&mut h, 0..=31);
        let expected: Vec<(u64, u64)> = (0..32u64)
            .filter(|k| k % 2 == 1)
            .map(|k| (k, k * 10))
            .collect();
        assert_eq!(scanned, expected);
        assert_eq!(
            tree.range_collect(&mut h, 5..=9),
            vec![(5, 50), (7, 70), (9, 90)]
        );
        assert_eq!(TxMap::len(&tree, &mut h), 16);
        // Read-only scan transactions are accounted separately.
        assert!(stm.stats().scan_commits >= 3);
    }

    fn ordered_in_tx_operations_compose_with_point_ops<F: FindSpec>() {
        let (stm, tree) = setup::<F>();
        let mut h = tree.register(stm.register());
        for k in [4u64, 8, 15, 16, 23, 42] {
            tree.insert(&mut h, k, k);
        }
        tree.delete(&mut h, 4);
        tree.delete(&mut h, 42);
        let (min, max, succ, none_succ) = h.ctx_mut().atomically(|tx| {
            Ok((
                tree.tx_min(tx)?,
                tree.tx_max(tx)?,
                tree.tx_successor(tx, 15)?,
                tree.tx_successor(tx, 23)?,
            ))
        });
        assert_eq!(min, Some((8, 8)));
        assert_eq!(max, Some((23, 23)));
        assert_eq!(succ, Some((16, 16)));
        assert_eq!(none_succ, None);
        // A fold composing with a point lookup in one transaction.
        let (sum, present) = h.ctx_mut().atomically(|tx| {
            let sum = tree.tx_range_fold(tx, 0..=u64::MAX, 0u64, |a, _, v| a + v)?;
            let present = tree.tx_contains(tx, 16)?;
            Ok((sum, present))
        });
        assert_eq!(sum, 8 + 15 + 16 + 23);
        assert!(present);
    }

    fn concurrent_disjoint_inserts_all_land<F: FindSpec>() {
        let (stm, tree) = setup::<F>();
        let tree = Arc::new(tree);
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let tree = Arc::clone(&tree);
                let mut h = tree.register(stm.register());
                std::thread::spawn(move || {
                    for i in 0..250u64 {
                        let key = t * 1000 + i;
                        assert!(tree.insert(&mut h, key, key));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(tree.len_quiescent(), 1000);
        tree.inspect().check_consistency().unwrap();
    }

    fn concurrent_same_key_insert_exactly_one_wins<F: FindSpec>() {
        let (stm, tree) = setup::<F>();
        let tree = Arc::new(tree);
        let workers: Vec<_> = (0..4u64)
            .map(|_| {
                let tree = Arc::clone(&tree);
                let mut h = tree.register(stm.register());
                std::thread::spawn(move || {
                    (0..100u64)
                        .map(|k| u64::from(tree.insert(&mut h, k, k)))
                        .sum::<u64>()
                })
            })
            .collect();
        let successes: u64 = workers.into_iter().map(|t| t.join().unwrap()).sum();
        // Exactly one success per key across all threads.
        assert_eq!(successes, 100);
        assert_eq!(tree.len_quiescent(), 100);
    }

    fn concurrent_mixed_workload_matches_oracle_membership<F: FindSpec>() {
        let (stm, tree) = setup::<F>();
        let tree = Arc::new(tree);
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let tree = Arc::clone(&tree);
                let mut h = tree.register(stm.register());
                std::thread::spawn(move || {
                    // Each thread owns a disjoint key range so the final
                    // state is deterministic.
                    let base = t * 10_000;
                    for i in 0..200u64 {
                        let k = base + i;
                        assert!(tree.insert(&mut h, k, k));
                    }
                    for i in (0..200u64).step_by(2) {
                        assert!(tree.delete(&mut h, base + i));
                    }
                    for i in 0..200u64 {
                        let expected = i % 2 == 1;
                        assert_eq!(tree.contains(&mut h, base + i), expected);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(tree.len_quiescent(), 4 * 100);
        tree.inspect().check_consistency().unwrap();
    }

    /// Scans stay correct across the structure each variant's maintenance
    /// leaves behind (in-place rotations; or stale removed nodes retired and
    /// clones linked in their place).
    fn range_scans_survive_maintenance<F: FindSpec>() {
        let (stm, tree) = setup::<F>();
        let mut h = tree.register(stm.register());
        let keys: Vec<u64> = (0..128u64).map(|i| (i * 97) % 131).collect();
        for &k in &keys {
            tree.insert(&mut h, k, k + 1);
        }
        for &k in keys.iter().step_by(3) {
            tree.delete(&mut h, k);
        }
        let mut worker = tree.maintenance_worker(stm.register());
        worker.run_until_stable(512);
        assert!(tree.stats().rotations() > 0);
        let expected: Vec<(u64, u64)> = {
            let mut live: Vec<u64> = keys.clone();
            live.sort_unstable();
            live.dedup();
            let deleted: std::collections::BTreeSet<u64> =
                keys.iter().step_by(3).copied().collect();
            live.into_iter()
                .filter(|k| !deleted.contains(k))
                .map(|k| (k, k + 1))
                .collect()
        };
        assert_eq!(tree.range_collect(&mut h, 0..=u64::MAX), expected);
        assert_eq!(TxMap::len(&tree, &mut h), expected.len());
        let mid: Vec<(u64, u64)> = expected
            .iter()
            .copied()
            .filter(|&(k, _)| (40..=90).contains(&k))
            .collect();
        assert_eq!(tree.range_collect(&mut h, 40..=90), mid);
    }

    fn scans_are_atomic_snapshots_under_concurrent_updates<F: FindSpec>() {
        // One writer keeps the pair (0, 1) in an "exactly one present"
        // invariant per committed state: it alternates inserting one and
        // deleting the other in a single transaction, so any atomic scan
        // must observe exactly one of them.
        let (stm, tree) = setup::<F>();
        let tree = Arc::new(tree);
        let mut h = tree.register(stm.register());
        tree.insert(&mut h, 0, 100);
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let tree = Arc::clone(&tree);
            let stop = Arc::clone(&stop);
            let mut h = tree.register(stm.register());
            std::thread::spawn(move || {
                let mut which = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let (del, ins) = (which, 1 - which);
                    h.ctx_mut().atomically(|tx| {
                        tree.tx_delete(tx, del)?;
                        tree.tx_insert(tx, ins, 100)
                    });
                    which = 1 - which;
                }
            })
        };
        for _ in 0..300 {
            let snapshot = tree.range_collect(&mut h, 0..=1);
            assert_eq!(
                snapshot.len(),
                1,
                "scan must see exactly one of the pair, got {snapshot:?}"
            );
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
    }

    /// 512 keys inserted in order with no maintenance: a 512-deep list.
    fn degenerate_list<F: FindSpec>() -> (Arc<Stm>, SfTree<F>) {
        let (stm, tree) = setup::<F>();
        let mut h = tree.register(stm.register());
        for k in 0..512u64 {
            tree.insert(&mut h, k, k);
        }
        stm.reset_stats();
        (stm, tree)
    }

    #[test]
    fn optimized_traversal_reads_stay_constant_sized() {
        // The headline property of Algorithm 2: the committed read set of an
        // operation does not grow with the depth of the tree.
        let (stm, tree) = degenerate_list::<OptimizedFind>();
        let mut h = tree.register(stm.register());
        assert!(tree.contains(&mut h, 500));
        assert!(!tree.contains(&mut h, 5000));
        let stats = stm.stats();
        assert!(
            stats.max_read_set <= 8,
            "read set should be O(1), got {}",
            stats.max_read_set
        );
        assert!(stats.tx_ureads > 500, "traversal should use unit reads");
    }

    #[test]
    fn portable_traversal_uses_transactional_reads_only() {
        // Algorithm 1 needs nothing beyond the standard TM interface: no
        // unit read anywhere, so its read set grows with the depth.
        let (stm, tree) = degenerate_list::<PortableFind>();
        let mut h = tree.register(stm.register());
        assert!(tree.contains(&mut h, 500));
        assert!(!tree.contains(&mut h, 5000));
        let stats = stm.stats();
        assert_eq!(
            stats.tx_ureads, 0,
            "the portable traversal never unit-reads"
        );
        assert!(
            stats.max_read_set > 500,
            "every hop is tracked, got {}",
            stats.max_read_set
        );
    }

    #[test]
    fn optimized_find_traverses_nodes_removed_by_rotation() {
        // Build a small right-heavy tree, run maintenance passes (which
        // perform clone-based left rotations), and check that lookups keyed
        // on the rotated nodes still succeed.
        let (stm, tree) = setup::<OptimizedFind>();
        let mut h = tree.register(stm.register());
        for k in [10u64, 20, 30, 40, 50] {
            tree.insert(&mut h, k, k * 10);
        }
        let mut worker = tree.maintenance_worker(stm.register());
        worker.run_pass();
        worker.run_pass();
        assert!(tree.stats().rotations() > 0, "rotations should have run");
        for k in [10u64, 20, 30, 40, 50] {
            assert_eq!(tree.get(&mut h, k), Some(k * 10));
        }
        tree.inspect().check_consistency().unwrap();
    }

    #[test]
    fn aliases_keep_their_rotation_style_and_label() {
        let stm = Stm::default_config();
        let portable = SpecFriendlyTree::new();
        let optimized = OptSpecFriendlyTree::new();
        assert_eq!(
            portable.maintenance_worker(stm.register()).style(),
            MaintenanceStyle::Classic
        );
        assert_eq!(
            optimized.maintenance_worker(stm.register()).style(),
            MaintenanceStyle::CloneBased
        );
        assert_eq!(portable.name(), "SFtree");
        assert_eq!(optimized.name(), "OptSFtree");
    }
}
