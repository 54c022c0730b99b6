//! # sf-persist — durability for the speculation-friendly tree service
//!
//! A map that evaporates on restart is not a service. This crate adds the
//! missing piece on top of the STM commit point the paper gives us for free:
//! every committed mutation already carries a **total-order stamp** (the
//! global-clock commit version), so logging `(version, logical op)` pairs
//! yields a redo log whose replay order is exactly the commit order — no
//! extra synchronization on the write path beyond a buffer push.
//!
//! * [`DurableMap`] — decorator over any [`sf_tree::TxMapVersioned`] backend
//!   (both speculation-friendly trees, the red-black/AVL/no-restructuring
//!   baselines): logs effective mutations through a **group-commit** writer
//!   and waits for durability before the operation returns.
//! * [`Wal`] — the segment log itself: checksummed frames, leader-based
//!   group commit, rotation, checkpoint install with atomic rename.
//! * [`recover`] / [`recover_sharded`] — rebuild `checkpoint + log` into an
//!   entry set (+ the version the STM clock must resume above).
//! * [`sharded_spec_friendly`] / [`checkpoint_sharded`] —
//!   the `ShardedMap<DurableMap<_>>` composition: one log per shard,
//!   checkpoints under `pause_maintenance`.
//! * [`stats`] — process-wide WAL counters (records, bytes, batches,
//!   checkpoints, replays) surfaced by the bench harnesses' `SF_JSON=1`
//!   lines.
//! * [`TempDir`] — std-only unique-per-test directory helper.
//!
//! ## Quick example
//!
//! ```
//! use std::sync::Arc;
//! use sf_stm::{Stm, StmConfig};
//! use sf_tree::{OptSpecFriendlyTree, TxMap};
//! use sf_persist::{DurableMap, TempDir, WalOptions, recover};
//!
//! let dir = TempDir::new("doc-quickstart");
//! let stm = Stm::new(StmConfig::ctl());
//! let tree = Arc::new(OptSpecFriendlyTree::new());
//! let (map, _) = DurableMap::open(tree, &stm, dir.path(), WalOptions::default()).unwrap();
//! let mut handle = map.register(stm.register());
//! map.insert(&mut handle, 7, 70);   // durable when this returns
//! map.checkpoint(&mut handle).unwrap();
//! map.delete(&mut handle, 7);
//!
//! // ... crash here: the directory alone reconstructs the state.
//! let recovered = recover(dir.path()).unwrap();
//! assert!(recovered.entries.is_empty());
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod chk;
pub mod log;
pub mod record;
pub mod recovery;
pub mod stats;
pub mod tempdir;

mod durable;

pub use durable::{
    checkpoint_sharded, sharded_spec_friendly, sharded_with, CheckpointReport, DurableHandle,
    DurableMap,
};
pub use log::{Wal, WalOptions, WalShared, WriterMode};
pub use record::{WalOp, WalRecord};
pub use recovery::{recover, recover_sharded, shard_dir, MoveIntentInfo, Recovery};
pub use stats::{LogStats, WalStats};
pub use tempdir::TempDir;
