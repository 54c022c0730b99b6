//! # speculation-friendly-tree
//!
//! Umbrella crate of the reproduction of *A Speculation-Friendly Binary
//! Search Tree* (Tyler Crain, Vincent Gramoli, Michel Raynal — PPoPP 2012).
//! It re-exports the individual crates of the workspace so applications can
//! depend on a single crate:
//!
//! * [`stm`] — the word-based STM substrate (TinySTM/E-STM style),
//! * [`tree`] — the speculation-friendly binary search tree (one type,
//!   `SfTree<F>`, with portable and optimized variants) with its background
//!   maintenance thread,
//! * [`baselines`] — the transaction-encapsulated red-black tree, AVL tree,
//!   no-restructuring tree and a sequential reference map,
//! * [`workloads`] — the synchrobench-style integer-set micro-benchmark,
//! * [`vacation`] — the STAMP vacation travel-reservation application.
//!
//! See `examples/` for runnable end-to-end programs and `EXPERIMENTS.md` for
//! the benchmark harnesses that regenerate the paper's tables and figures.
//!
//! ## Quickstart
//!
//! A single optimized speculation-friendly tree with its background
//! maintenance (rotator) thread:
//!
//! ```
//! use speculation_friendly_tree::prelude::*;
//!
//! let stm = Stm::default_config();
//! let tree = OptSpecFriendlyTree::new();
//! let _maintenance = tree.start_maintenance(stm.register());
//! let mut handle = tree.register(stm.register());
//! assert!(tree.insert(&mut handle, 1, 100));
//! assert_eq!(tree.get(&mut handle, 1), Some(100));
//! ```
//!
//! ## Scaling out: the sharded backend
//!
//! [`ShardedMap`](tree::ShardedMap) hash-partitions the key space over `N`
//! inner trees, each with its **own STM instance** (no shared version clock)
//! and its **own maintenance thread**, while keeping the same
//! [`TxMap`](tree::TxMap) interface — including atomic cross-shard
//! `move_entry`. The tree variant is named by type:
//!
//! ```
//! use speculation_friendly_tree::prelude::*;
//!
//! // 8 optimized shards, TinySTM-CTL-style STM per shard, one rotator per
//! // shard.
//! let map = ShardedMap::<OptSpecFriendlyTree>::spec_friendly(
//!     8,
//!     StmConfig::ctl(),
//!     MaintenanceConfig::default(),
//! );
//! let mut handle = map.register_sharded();
//! assert!(map.insert(&mut handle, 7, 700));
//! assert!(map.move_entry(&mut handle, 7, 1_000_000)); // may cross shards
//! assert_eq!(map.get(&mut handle, 1_000_000), Some(700));
//! ```
//!
//! ## Ordered scans
//!
//! Every backend also exposes the *ordered* structure of the map:
//! [`TxMap::range_collect`](tree::TxMap::range_collect) /
//! [`TxMap::len`](tree::TxMap::len) run as read-only scan transactions at
//! the top level, and the single-STM backends offer the same scans inside a
//! caller's transaction through [`TxMapInTx`](tree::TxMapInTx) (min/max,
//! successor, range folds next to the point operations — not the sharded
//! compositions, whose per-shard STM instances cannot share one
//! transaction). On the speculation-friendly trees the scan skips nodes
//! that are logically deleted but not yet removed by the maintenance
//! thread:
//!
//! ```
//! use speculation_friendly_tree::prelude::*;
//!
//! let stm = Stm::default_config();
//! let tree = OptSpecFriendlyTree::new();
//! let mut handle = tree.register(stm.register());
//! for k in [1u64, 2, 5, 9] {
//!     tree.insert(&mut handle, k, k * 10);
//! }
//! tree.delete(&mut handle, 2); // logical delete: scans must skip it
//! assert_eq!(tree.range_collect(&mut handle, 1..=5), vec![(1, 10), (5, 50)]);
//! assert_eq!(TxMap::len(&tree, &mut handle), 3);
//! ```
//!
//! ## Durability
//!
//! [`DurableMap`](persist::DurableMap) wraps any versioned backend in a
//! commit-ordered write-ahead log with group commit, checkpoints, and crash
//! recovery — a mutation is durable when it returns:
//!
//! ```
//! use std::sync::Arc;
//! use speculation_friendly_tree::prelude::*;
//! use speculation_friendly_tree::persist::recover;
//!
//! let dir = TempDir::new("umbrella-durability");
//! let stm = Stm::new(StmConfig::ctl());
//! let tree = Arc::new(OptSpecFriendlyTree::new());
//! let (map, _) = DurableMap::open(tree, &stm, dir.path(), WalOptions::default()).unwrap();
//! let mut handle = map.register(stm.register());
//! map.insert(&mut handle, 7, 700);            // on disk when this returns
//! let recovered = recover(dir.path()).unwrap(); // what a restart would see
//! assert_eq!(recovered.entries, vec![(7, 700)]);
//! ```
//!
//! Benchmarks and applications resolve backends by name through the
//! [`workloads::backend`] registry (`rbtree`, `avl`, `nrtree`, `sftree`,
//! `sftree-opt`, `sftree-opt-sharded<N>`, any of them with a `+wal`
//! suffix for durability, ...), which is what the `SF_STRUCTURES`
//! environment variable of the harnesses feeds into:
//!
//! ```
//! use speculation_friendly_tree::stm::StmConfig;
//! use speculation_friendly_tree::workloads::Backend;
//!
//! let backend = Backend::build("sftree-opt-sharded4", StmConfig::ctl()).unwrap();
//! let mut session = backend.session();
//! assert!(session.insert(1, 10));
//! assert!(session.contains(1));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub use sf_baselines as baselines;
pub use sf_persist as persist;
pub use sf_stm as stm;
pub use sf_tree as tree;
pub use sf_vacation as vacation;
pub use sf_workloads as workloads;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use sf_baselines::{AvlTree, NoRestructureTree, RedBlackTree, SeqMap, ZipTree};
    pub use sf_persist::{DurableMap, Recovery, TempDir, WalOptions};
    pub use sf_stm::{Stm, StmConfig, TCell, ThreadCtx, Transaction, TxKind, TxResult};
    pub use sf_tree::{
        MaintenanceConfig, OptSpecFriendlyTree, ScanOrder, ShardedHandle, ShardedMap,
        SpecFriendlyTree, TxMap, TxMapInTx, TxMapVersioned,
    };
    pub use sf_vacation::{Manager, ReservationKind, VacationParams};
    pub use sf_workloads::{RunLength, WorkloadConfig};
}
