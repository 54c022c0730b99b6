//! # sf-tree — the speculation-friendly binary search tree
//!
//! Reproduction of the data structure introduced in *A Speculation-Friendly
//! Binary Search Tree* (Tyler Crain, Vincent Gramoli, Michel Raynal — PPoPP
//! 2012). The tree implements an associative-array / set abstraction on top
//! of the word-based STM of the [`sf_stm`] crate and decouples its
//! operations exactly as the paper prescribes:
//!
//! * **Abstract transactions** ([`SpecFriendlyTree`] / [`OptSpecFriendlyTree`]
//!   `insert`, `delete`, `contains`, `get`) modify the abstraction only: an
//!   insert links at most one fresh leaf, a delete merely flips a logical
//!   deletion flag, and lookups never write.
//! * **Structural transactions** (the background
//!   [`maintenance::MaintenanceWorker`]) restructure the tree in many small
//!   node-local transactions: height propagation, local rotations, physical
//!   removal of logically deleted nodes, and quiescence-gated reclamation.
//!
//! One type, [`SfTree<F>`](SfTree), implements both of the paper's
//! Algorithms 1 and 2 and the no-restructuring baseline of §5.2; its
//! [`FindSpec`] parameter picks the traversal, the maintenance thread's
//! rotation style and the label. Three aliases name the variants:
//!
//! | | [`SpecFriendlyTree`] = `SfTree<`[`PortableFind`]`>` | [`OptSpecFriendlyTree`] = `SfTree<`[`OptimizedFind`]`>` | `NoRestructureTree` = `SfTree<NoRestructureFind>` (`sf-baselines`) |
//! |---|---|---|---|
//! | traversal | transactional reads | unit reads + O(1) tracked reads | Algorithm 1's |
//! | rotations | classic, in place | clone-based (Figure 2(c)) | none: no maintenance thread is started |
//! | removed flag | not needed | `rem` ∈ {false, true, true-by-left-rotation} | not needed |
//! | TM requirements | standard interface only | unit loads (TinySTM-style) | standard interface only |
//! | label | `SFtree` | `OptSFtree` | `NRtree` |
//!
//! Every variant implements the in-transaction [`TxMapInTx`] and the
//! single-domain [`TxMapVersioned`], and gets the top-level [`TxMap`] from
//! them (see [`map`] for the roster).
//!
//! ## Quick example
//!
//! ```
//! use sf_stm::Stm;
//! use sf_tree::{OptSpecFriendlyTree, TxMap};
//!
//! let stm = Stm::default_config();
//! let tree = OptSpecFriendlyTree::new();
//! let maintenance = tree.start_maintenance(stm.register());
//!
//! let mut handle = tree.register(stm.register());
//! assert!(tree.insert(&mut handle, 7, 70));
//! assert_eq!(tree.get(&mut handle, 7), Some(70));
//! assert!(tree.delete(&mut handle, 7));
//! assert!(!tree.contains(&mut handle, 7));
//!
//! maintenance.stop();
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod arena;
mod chk;
pub mod inspect;
pub mod maintenance;
pub mod map;
pub mod node;
pub mod scan;
mod sftree;
pub mod sharded;
mod shared;

pub use arena::{ActivityHandle, NodeId, OpGuard, TxArena};
pub use inspect::TreeInspect;
pub use maintenance::{
    maintenance_histograms, MaintenanceConfig, MaintenanceHandle, MaintenancePause,
    MaintenanceStyle, MaintenanceWorker, PassReport,
};
pub use map::{intern_label, HotReport, ScanOrder, TxMap, TxMapInTx, TxMapVersioned};
pub use node::{Key, Node, RemState, Side, Value, SENTINEL_KEY};
pub use sftree::{
    FindSpec, OptSpecFriendlyTree, OptimizedFind, PortableFind, SfTree, SpecFriendlyTree,
};
pub use sharded::{ShardParts, ShardedHandle, ShardedMap};
pub use shared::{SfHandle, TreeStats, DEFAULT_HOT_SAMPLE};
