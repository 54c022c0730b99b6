//! The no-restructuring tree (NRtree) baseline of §5.2.
//!
//! "A baseline tree that is similar [to the speculation-friendly tree] but
//! never rebalances the structure whatever modifications occur": deletions
//! stay logical, nodes are never physically removed, and no rotation ever
//! runs, so the tree silently degenerates under biased workloads — exactly
//! the behaviour Figure 3 (right column) exhibits.

use sf_stm::{Transaction, TxResult};
use sf_tree::{FindSpec, Key, MaintenanceStyle, Node, NodeId, PortableFind, SfTree, TxArena};

/// No-restructuring tree: the portable speculation-friendly tree
/// (Algorithm 1's traversal) whose maintenance thread is never started.
pub type NoRestructureTree = SfTree<NoRestructureFind>;

/// The NRtree's [`FindSpec`]: Algorithm 1's traversal under its own label.
/// The rotation style is moot — nothing starts a maintenance worker.
#[derive(Debug)]
pub struct NoRestructureFind;

impl FindSpec for NoRestructureFind {
    const STYLE: MaintenanceStyle = MaintenanceStyle::Classic;
    const LABEL: &'static str = "NRtree";

    fn find<'env>(
        nodes: &'env TxArena<Node>,
        root: NodeId,
        tx: &mut Transaction<'env>,
        key: Key,
    ) -> TxResult<NodeId> {
        PortableFind::find(nodes, root, tx, key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_stm::Stm;
    use sf_tree::TxMap;

    #[test]
    fn behaves_like_a_set_but_never_shrinks_or_balances() {
        let stm = Stm::default_config();
        let tree = NoRestructureTree::new();
        let mut h = tree.register(stm.register());
        for k in 0..128u64 {
            assert!(tree.insert(&mut h, k, k));
        }
        for k in (0..128u64).step_by(2) {
            assert!(tree.delete(&mut h, k));
        }
        assert_eq!(tree.len_quiescent(), 64);
        // No restructuring: the in-order insertion chain stays a chain and
        // the physically reachable node count never decreases.
        assert_eq!(tree.inspect().depth(), 128);
        assert_eq!(tree.inspect().reachable_nodes(), 129); // 128 keys + sentinel
        tree.inspect().check_consistency().unwrap();
    }

    #[test]
    fn name_matches_paper_label() {
        assert_eq!(NoRestructureTree::new().name(), "NRtree");
    }
}
