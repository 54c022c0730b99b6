//! # sf-baselines — the trees the paper compares against
//!
//! The evaluation of *A Speculation-Friendly Binary Search Tree* (PPoPP 2012)
//! compares the speculation-friendly tree with three other structures, all of
//! which are rebuilt here on top of the same [`sf_stm`] substrate:
//!
//! * [`RedBlackTree`] — the transaction-encapsulated red-black tree in the
//!   style of the Oracle Labs library shipped with STAMP and synchrobench:
//!   lookup, abstraction change and rebalancing in one transaction.
//! * [`AvlTree`] — the transaction-encapsulated AVL tree from STAMP, with
//!   in-transaction height maintenance and rotations.
//! * [`NoRestructureTree`] — the NRtree of §5.2: logical deletion only, no
//!   rotation, no physical removal. It is the portable
//!   [`sf_tree::SfTree`] under its own [`FindSpec`](sf_tree::FindSpec)
//!   ([`NoRestructureFind`]), with no maintenance thread started.
//! * [`SeqMap`] — a sequential reference map used as the single-threaded
//!   baseline for the vacation speedup (Figure 6) and as a test oracle.
//! * [`ZipTree`] — a rotation-free randomized zip tree (Tarjan–Levy–Timmel,
//!   WADS 2019), the rebalance-free control for the hot-key restructuring
//!   experiments.
//!
//! All of them implement [`sf_tree::TxMap`] / [`sf_tree::TxMapInTx`], so the
//! micro-benchmark harness and the vacation application drive them through
//! the same interface as the speculation-friendly tree. The transactional
//! trees get [`sf_tree::TxMap`] by implementing [`sf_tree::TxMapVersioned`];
//! [`SeqMap`], which has no commit point, implements it by hand.

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod avl;
mod nrtree;
mod rbtree;
mod seq;
mod zip;

pub use avl::AvlTree;
pub use nrtree::{NoRestructureFind, NoRestructureTree};
pub use rbtree::RedBlackTree;
pub use seq::SeqMap;
pub use zip::ZipTree;
