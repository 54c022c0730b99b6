//! Cross-crate integration tests: every tree implementation must expose the
//! same abstraction. The same operation sequence applied to each tree and to
//! a `BTreeMap` oracle must produce identical answers and identical final
//! contents.

use std::collections::BTreeMap;
use std::sync::Arc;

use speculation_friendly_tree::baselines::{
    AvlTree, NoRestructureTree, RedBlackTree, SeqMap, ZipTree,
};
use speculation_friendly_tree::prelude::*;

#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(u64, u64),
    Delete(u64),
    Contains(u64),
    Move(u64, u64),
}

fn op_sequence(seed: u64, len: usize, key_range: u64) -> Vec<Op> {
    let mut state = seed | 1;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..len)
        .map(|_| {
            let key = rng() % key_range;
            match rng() % 10 {
                0..=3 => Op::Insert(key, rng() % 1000),
                4..=6 => Op::Delete(key),
                7 => Op::Move(key, rng() % key_range),
                _ => Op::Contains(key),
            }
        })
        .collect()
}

fn apply_to_oracle(ops: &[Op], oracle: &mut BTreeMap<u64, u64>) -> Vec<bool> {
    ops.iter()
        .map(|op| match *op {
            Op::Insert(k, v) => {
                if let std::collections::btree_map::Entry::Vacant(e) = oracle.entry(k) {
                    e.insert(v);
                    true
                } else {
                    false
                }
            }
            Op::Delete(k) => oracle.remove(&k).is_some(),
            Op::Contains(k) => oracle.contains_key(&k),
            Op::Move(from, to) => {
                if from == to {
                    oracle.contains_key(&from)
                } else if oracle.contains_key(&from) && !oracle.contains_key(&to) {
                    let v = oracle.remove(&from).unwrap();
                    oracle.insert(to, v);
                    true
                } else {
                    false
                }
            }
        })
        .collect()
}

fn apply_to_tree<M: TxMap>(ops: &[Op], tree: &M, stm: &Arc<Stm>) -> (Vec<bool>, Vec<(u64, u64)>) {
    let mut handle = tree.register(stm.register());
    let answers = ops
        .iter()
        .map(|op| match *op {
            Op::Insert(k, v) => tree.insert(&mut handle, k, v),
            Op::Delete(k) => tree.delete(&mut handle, k),
            Op::Contains(k) => tree.contains(&mut handle, k),
            Op::Move(from, to) => tree.move_entry(&mut handle, from, to),
        })
        .collect();
    let mut contents = Vec::new();
    for k in 0..200u64 {
        if let Some(v) = tree.get(&mut handle, k) {
            contents.push((k, v));
        }
    }
    (answers, contents)
}

fn check_equivalence<M: TxMap>(tree: M, seed: u64) {
    let stm = Stm::default_config();
    let ops = op_sequence(seed, 800, 200);
    let mut oracle = BTreeMap::new();
    let expected_answers = apply_to_oracle(&ops, &mut oracle);
    let (answers, contents) = apply_to_tree(&ops, &tree, &stm);
    assert_eq!(answers, expected_answers, "{} answers diverge", tree.name());
    let expected_contents: Vec<(u64, u64)> = oracle.into_iter().collect();
    assert_eq!(
        contents,
        expected_contents,
        "{} contents diverge",
        tree.name()
    );
}

#[test]
fn spec_friendly_tree_matches_oracle() {
    check_equivalence(SpecFriendlyTree::new(), 0x1001);
}

#[test]
fn optimized_spec_friendly_tree_matches_oracle() {
    check_equivalence(OptSpecFriendlyTree::new(), 0x2002);
}

#[test]
fn red_black_tree_matches_oracle() {
    check_equivalence(RedBlackTree::new(), 0x3003);
}

#[test]
fn avl_tree_matches_oracle() {
    check_equivalence(AvlTree::new(), 0x4004);
}

#[test]
fn no_restructure_tree_matches_oracle() {
    check_equivalence(NoRestructureTree::new(), 0x5005);
}

#[test]
fn seq_map_matches_oracle() {
    check_equivalence(SeqMap::new(), 0x6006);
}

#[test]
fn zip_tree_matches_oracle() {
    check_equivalence(ZipTree::new(), 0x8008);
}

#[test]
fn optimized_tree_with_maintenance_matches_oracle() {
    // Same equivalence check, but with the background maintenance thread
    // restructuring the tree while the operations run.
    let stm = Stm::default_config();
    let tree = OptSpecFriendlyTree::new();
    let maintenance = tree.start_maintenance_with(
        stm.register(),
        MaintenanceConfig {
            pass_delay: std::time::Duration::from_micros(20),
            ..MaintenanceConfig::default()
        },
    );
    let ops = op_sequence(0x7007, 1_500, 128);
    let mut oracle = BTreeMap::new();
    let expected = apply_to_oracle(&ops, &mut oracle);
    let (answers, contents) = apply_to_tree(&ops, &tree, &stm);
    maintenance.stop();
    assert_eq!(answers, expected);
    let expected_contents: Vec<(u64, u64)> = oracle.into_iter().collect();
    assert_eq!(contents, expected_contents);
    tree.inspect().check_consistency().unwrap();
}

/// The top-level operations are written once over
/// [`TxMapVersioned::transact`]; this pins the transaction kind each one
/// runs in. Scans (`range_collect`, `len`, `snapshot_versioned`) are one
/// read-only transaction each — exactly one `scan_commits` — while point
/// operations run in the default kind and add none; and a versioned insert
/// commits at the version the next snapshot reports.
fn check_transaction_kinds<M: TxMapVersioned + Default>() {
    let stm = Stm::new(StmConfig::ctl());
    let map = M::default();
    let mut h = map.register(stm.register());
    let scans = || stm.stats().scan_commits;

    let before = scans();
    assert!(map.insert(&mut h, 1, 10));
    assert!(map.contains(&mut h, 1));
    assert_eq!(map.get(&mut h, 1), Some(10));
    assert!(map.move_entry(&mut h, 1, 2));
    assert!(!map.delete_if(&mut h, 2, 99));
    assert!(map.delete(&mut h, 2));
    assert_eq!(scans(), before, "{}: point operations", M::LABEL);

    type Scan<M> = fn(&M, &mut <M as TxMapVersioned>::Handle) -> usize;
    let scan_ops: [(&str, Scan<M>); 3] = [
        ("range_collect", |m, h| m.range_collect(h, 0..=100).len()),
        ("len", |m, h| m.len(h)),
        ("snapshot_versioned", |m, h| m.snapshot_versioned(h).0.len()),
    ];
    for (op, scan) in scan_ops {
        let before = scans();
        assert_eq!(scan(&map, &mut h), 0, "{}: {op}", M::LABEL);
        assert_eq!(scans(), before + 1, "{}: {op}", M::LABEL);
    }

    let (inserted, version) = map.atomically_versioned(&mut h, |m, tx| m.tx_insert(tx, 7, 70));
    assert!(inserted);
    let (entries, snapshot) = map.snapshot_versioned(&mut h);
    assert_eq!(entries, vec![(7, 70)], "{}", M::LABEL);
    assert_eq!(snapshot, version, "{}: snapshot version", M::LABEL);
    assert!(map.insert(&mut h, 8, 80));
    let (_, after) = map.snapshot_versioned(&mut h);
    assert!(after > version, "{}: a top-level insert commits", M::LABEL);
}

#[test]
fn top_level_operations_keep_their_transaction_kind() {
    // sftree, sftree-opt, rbtree, avl, ziptree, nrtree.
    let cases: [fn(); 6] = [
        check_transaction_kinds::<SpecFriendlyTree>,
        check_transaction_kinds::<OptSpecFriendlyTree>,
        check_transaction_kinds::<RedBlackTree>,
        check_transaction_kinds::<AvlTree>,
        check_transaction_kinds::<ZipTree>,
        check_transaction_kinds::<NoRestructureTree>,
    ];
    for check in cases {
        check();
    }
}
