//! The directory abstraction used by the travel-reservation database.
//!
//! STAMP's vacation represents each of its four tables (cars, rooms, flights,
//! customers) as a tree-based directory. The benchmark swaps the tree
//! implementation (Oracle red-black tree, speculation-friendly tree,
//! no-restructuring tree); [`DirectoryMap`] is the small capability bundle a
//! tree must provide to play that role: the in-transaction map operations
//! (and the top-level ones, whose `name` labels the run), plus hooks for the
//! reclamation protocol and the §5.5 rotation accounting.

use sf_tree::map::{TxMap, TxMapInTx};
use sf_tree::{ActivityHandle, FindSpec, Key, SfTree, Value};

/// A tree usable as a vacation table.
pub trait DirectoryMap: TxMapInTx + TxMap + 'static {
    /// Register the calling client thread with the structure's reclamation
    /// protocol, when it has one. The returned handle must be kept alive by
    /// the client and an operation guard taken around every client
    /// transaction.
    fn register_activity(&self) -> Option<ActivityHandle> {
        None
    }

    /// Number of structural rotations performed so far (background rotations
    /// for the speculation-friendly trees, in-transaction rotations for the
    /// baselines). Regenerates the §5.5 rotation-count observation.
    fn rotations_performed(&self) -> u64 {
        0
    }

    /// Quiescent dump of the directory contents (consistency checking).
    fn entries_quiescent(&self) -> Vec<(Key, Value)>;
}

impl<F: FindSpec> DirectoryMap for SfTree<F> {
    fn register_activity(&self) -> Option<ActivityHandle> {
        Some(self.arena().register_activity())
    }
    fn rotations_performed(&self) -> u64 {
        self.stats().rotations()
    }
    fn entries_quiescent(&self) -> Vec<(Key, Value)> {
        self.inspect().live_entries()
    }
}

impl DirectoryMap for sf_baselines::RedBlackTree {
    fn rotations_performed(&self) -> u64 {
        self.rotation_attempts()
    }
    fn entries_quiescent(&self) -> Vec<(Key, Value)> {
        self.entries_quiescent()
    }
}

impl DirectoryMap for sf_baselines::AvlTree {
    fn rotations_performed(&self) -> u64 {
        self.rotation_attempts()
    }
    fn entries_quiescent(&self) -> Vec<(Key, Value)> {
        self.entries_quiescent()
    }
}

impl DirectoryMap for sf_baselines::SeqMap {
    fn entries_quiescent(&self) -> Vec<(Key, Value)> {
        self.entries()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct() {
        let labels = [
            sf_tree::OptSpecFriendlyTree::new().name(),
            sf_tree::SpecFriendlyTree::new().name(),
            sf_baselines::RedBlackTree::new().name(),
            sf_baselines::AvlTree::new().name(),
            sf_baselines::NoRestructureTree::new().name(),
            sf_baselines::SeqMap::new().name(),
        ];
        let unique: std::collections::HashSet<_> = labels.iter().collect();
        assert_eq!(unique.len(), labels.len());
    }

    #[test]
    fn sf_trees_provide_activity_handles() {
        assert!(sf_tree::OptSpecFriendlyTree::new()
            .register_activity()
            .is_some());
        assert!(sf_baselines::RedBlackTree::new()
            .register_activity()
            .is_none());
    }
}
