//! The interior a speculation-friendly tree shares with its maintenance
//! worker and inspectors, whichever traversal it uses.
//!
//! Both of the paper's variants store the same [`Node`] layout in the same
//! arena and create the tree with a sentinel root of key ∞ (every real key
//! lives in the root's left subtree, so the root is never rotated or removed
//! — see the paper's correctness proof §4).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sf_stm::{TCell, ThreadCtx, Transaction, TxResult};

use crate::arena::{ActivityHandle, NodeId, TxArena};
use crate::node::{Key, Node, Value, SENTINEL_KEY};
use crate::scan::ScanNode;

/// Counters describing the work performed on a tree, both by abstract
/// operations and by the background maintenance thread. §5.5 of the paper
/// compares rotation counts between trees; these counters regenerate that
/// observation.
#[derive(Debug, Default)]
pub struct TreeStats {
    /// Successful right rotations.
    pub right_rotations: AtomicU64,
    /// Successful left rotations.
    pub left_rotations: AtomicU64,
    /// Successful physical removals of logically deleted nodes.
    pub removals: AtomicU64,
    /// Height propagations that changed at least one stored height.
    pub propagations: AtomicU64,
    /// Completed maintenance traversals.
    pub maintenance_passes: AtomicU64,
    /// Nodes recycled after quiescence.
    pub recycled: AtomicU64,
    /// Rotations performed because a subtree's decayed access mass dominated
    /// its sibling's (hot-key restructuring), a subset of the left/right
    /// rotation totals.
    pub hot_rotations: AtomicU64,
}

impl TreeStats {
    /// Total number of successful rotations (left + right).
    pub fn rotations(&self) -> u64 {
        // sf-lint: allow(relaxed-atomic, rotation telemetry reads for the end-of-run report; staleness is harmless)
        self.right_rotations.load(Ordering::Relaxed) + self.left_rotations.load(Ordering::Relaxed)
    }
}

/// Default access-sampling rate: one in `DEFAULT_HOT_SAMPLE` traversals
/// records its endpoint (weighted by the rate, so masses approximate true
/// access counts). Overridden by `SF_HOT_SAMPLE`; `0` disables recording.
pub const DEFAULT_HOT_SAMPLE: u64 = 64;

fn hot_sample_from_env() -> u64 {
    std::env::var("SF_HOT_SAMPLE")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(DEFAULT_HOT_SAMPLE)
}

thread_local! {
    /// Per-thread traversal tick driving the access-sampling decision. Plain
    /// thread-local arithmetic: no atomics, no STM interaction.
    static HOT_TICK: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Shared interior of a speculation-friendly tree.
#[derive(Debug, Clone)]
pub(crate) struct TreeCore {
    pub arena: Arc<TxArena<Node>>,
    pub root: NodeId,
    pub stats: Arc<TreeStats>,
    /// Access-sampling rate (`SF_HOT_SAMPLE`): every `rate`-th traversal on a
    /// thread records its endpoint with weight `rate`; `0` disables.
    pub hot_sample: Arc<AtomicU64>,
}

impl TreeCore {
    /// Create a tree interior with its sentinel root (key ∞).
    pub fn new(arena: Arc<TxArena<Node>>) -> Self {
        let root = arena.alloc();
        arena.get(root).init_fresh(SENTINEL_KEY, 0);
        // The sentinel is "logically deleted" so it never shows up as a
        // member of the abstraction.
        arena.get(root).del.unsync_store(true);
        TreeCore {
            arena,
            root,
            stats: Arc::new(TreeStats::default()),
            hot_sample: Arc::new(AtomicU64::new(hot_sample_from_env())),
        }
    }

    /// Record one traversal ending at `id`, subject to the sampling rate.
    /// The counter bump is a relaxed add on a plain atomic — it never joins
    /// the transaction's read/write sets, so hot-key tracking is invisible
    /// to conflict detection.
    #[inline]
    pub fn record_access_sampled(&self, id: NodeId) {
        // sf-lint: allow(relaxed-atomic, sampling-rate read; staleness only shifts which accesses get sampled)
        let rate = self.hot_sample.load(Ordering::Relaxed);
        if rate == 0 {
            return;
        }
        let due = HOT_TICK.with(|tick| {
            let t = tick.get() + 1;
            if t >= rate {
                tick.set(0);
                true
            } else {
                tick.set(t);
                false
            }
        });
        if due {
            self.node(id).record_access(rate);
        }
    }

    /// Allocate and initialize a node that is not yet linked into the tree.
    pub fn alloc_fresh(&self, key: Key, value: Value) -> NodeId {
        let id = self.arena.alloc();
        self.arena.get(id).init_fresh(key, value);
        id
    }

    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        self.arena.get(id)
    }
}

/// The scan hooks of the speculation-friendly node layout, feeding the
/// generic walker of [`crate::scan`]. Two paper-specific subtleties live
/// here:
///
/// * **Logically-deleted nodes are skipped.** A deleted key stays physically
///   linked (`del = true`) until the maintenance thread removes it, so
///   [`scan_entry`](ScanNode::scan_entry) reads `del` inside the transaction
///   and reports tombstones as absent — which also makes a racing
///   revive-insert (`del` flipped back to `false`) conflict with the scan
///   instead of being missed.
/// * **Keys are immutable per node incarnation** (slots recycle only after
///   quiescence), so routing reads them with a plain atomic load, exactly
///   like the point `find`.
impl ScanNode for Node {
    fn scan_key<'env>(&'env self, _tx: &mut Transaction<'env>) -> TxResult<Key> {
        Ok(self.key())
    }

    fn scan_entry<'env>(&'env self, tx: &mut Transaction<'env>) -> TxResult<Option<(Key, Value)>> {
        // The sentinel root carries `del = true` from birth, so it can
        // never leak into a scan even when the range ends at `Key::MAX`.
        if tx.read(&self.del)? {
            Ok(None)
        } else {
            Ok(Some((self.key(), tx.read(&self.value)?)))
        }
    }

    fn left_child(&self) -> &TCell<NodeId> {
        &self.left
    }

    fn right_child(&self) -> &TCell<NodeId> {
        &self.right
    }
}

/// Per-thread handle of a speculation-friendly tree: the STM context plus the
/// activity slot used by the quiescence-based reclamation protocol (§3.4).
#[derive(Debug)]
pub struct SfHandle {
    pub(crate) ctx: ThreadCtx,
    pub(crate) activity: ActivityHandle,
}

impl SfHandle {
    /// Access the underlying STM thread context (e.g. to compose tree
    /// operations with other transactional state in one transaction).
    pub fn ctx_mut(&mut self) -> &mut ThreadCtx {
        &mut self.ctx
    }

    /// Borrow the context and the activity handle at the same time.
    pub(crate) fn parts(&mut self) -> (&mut ThreadCtx, &ActivityHandle) {
        (&mut self.ctx, &self.activity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_core_creates_sentinel_root() {
        let core = TreeCore::new(Arc::new(TxArena::with_capacity(1024)));
        let root = core.node(core.root);
        assert_eq!(root.key(), SENTINEL_KEY);
        assert!(root.del.unsync_load());
        assert!(root.left.unsync_load().is_nil());
        assert!(root.right.unsync_load().is_nil());
    }

    #[test]
    fn alloc_fresh_initializes_node() {
        let core = TreeCore::new(Arc::new(TxArena::with_capacity(1024)));
        let id = core.alloc_fresh(5, 50);
        let n = core.node(id);
        assert_eq!(n.key(), 5);
        assert_eq!(n.value.unsync_load(), 50);
        assert!(!n.del.unsync_load());
    }

    #[test]
    fn stats_rotation_total() {
        let stats = TreeStats::default();
        stats.left_rotations.store(3, Ordering::Relaxed);
        stats.right_rotations.store(4, Ordering::Relaxed);
        assert_eq!(stats.rotations(), 7);
    }

    #[test]
    fn sampled_recording_weights_by_rate() {
        let core = TreeCore::new(Arc::new(TxArena::with_capacity(1024)));
        core.hot_sample.store(4, Ordering::Relaxed);
        let id = core.alloc_fresh(1, 1);
        // Whatever tick offset earlier tests on this thread left behind,
        // 8 calls at rate 4 fire exactly 2 samples of weight 4 each.
        for _ in 0..8 {
            core.record_access_sampled(id);
        }
        assert_eq!(core.node(id).access_mass(), 8);
    }

    #[test]
    fn sampling_rate_zero_disables_recording() {
        let core = TreeCore::new(Arc::new(TxArena::with_capacity(1024)));
        core.hot_sample.store(0, Ordering::Relaxed);
        let id = core.alloc_fresh(2, 2);
        for _ in 0..256 {
            core.record_access_sampled(id);
        }
        assert_eq!(core.node(id).access_mass(), 0);
    }
}
