//! Ordered-map subsystem integration tests: for random operation sequences,
//! `range_collect` on every registered backend (including the sharded
//! compositions) must equal `BTreeMap::range` on the sequential oracle at
//! quiescence, and range scans over a speculation-friendly tree must never
//! observe logically-deleted keys while the maintenance thread is paused
//! mid-backlog.

use std::collections::BTreeMap;

use proptest::prelude::*;
use speculation_friendly_tree::prelude::*;
use speculation_friendly_tree::workloads::Backend;

/// Every registry name the oracle equivalence must cover. Shard counts stay
/// small so one proptest case does not spin up dozens of rotator threads on
/// the 1-core host.
const BACKENDS: &[&str] = &[
    "rbtree",
    "avl",
    "nrtree",
    "seq",
    "ziptree",
    "sftree",
    "sftree-opt",
    "sftree-opt-hot",
    "sftree-sharded2",
    "sftree-opt-sharded3",
];

#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(u8, u8),
    Delete(u8),
    Move(u8, u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<u8>()).prop_map(|(k, v)| Op::Insert(k, v)),
        any::<u8>().prop_map(Op::Delete),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Op::Move(a, b)),
    ]
}

fn apply_to_oracle(ops: &[Op], oracle: &mut BTreeMap<u64, u64>) {
    for op in ops {
        match *op {
            Op::Insert(k, v) => {
                oracle.entry(k as u64).or_insert(v as u64);
            }
            Op::Delete(k) => {
                oracle.remove(&(k as u64));
            }
            Op::Move(from, to) => {
                let (from, to) = (from as u64, to as u64);
                if from != to && oracle.contains_key(&from) && !oracle.contains_key(&to) {
                    let v = oracle.remove(&from).unwrap();
                    oracle.insert(to, v);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    #[test]
    fn range_collect_matches_the_btreemap_oracle_on_every_backend(
        ops in proptest::collection::vec(op_strategy(), 1..160),
        lo in 0u64..200,
        width in 0u64..128,
    ) {
        let hi = lo + width;
        let mut oracle = BTreeMap::new();
        apply_to_oracle(&ops, &mut oracle);
        let expected: Vec<(u64, u64)> = oracle.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
        let expected_full: Vec<(u64, u64)> = oracle.iter().map(|(&k, &v)| (k, v)).collect();
        for name in BACKENDS {
            let backend = Backend::build(name, StmConfig::ctl()).unwrap();
            let mut session = backend.session();
            for op in &ops {
                match *op {
                    Op::Insert(k, v) => {
                        session.insert(k as u64, v as u64);
                    }
                    Op::Delete(k) => {
                        session.delete(k as u64);
                    }
                    Op::Move(from, to) => {
                        session.move_entry(from as u64, to as u64);
                    }
                }
            }
            prop_assert_eq!(
                session.range_collect(lo, hi),
                expected.clone(),
                "{} diverges from BTreeMap::range({}..={})",
                name,
                lo,
                hi
            );
            prop_assert_eq!(
                session.range_collect(0, u64::MAX),
                expected_full.clone(),
                "{} full scan diverges",
                name
            );
            prop_assert_eq!(session.len(), oracle.len(), "{} len diverges", name);
        }
    }
}

#[test]
fn scans_do_not_observe_logically_deleted_keys_mid_backlog() {
    // The paper-specific subtlety: a deleted key stays physically linked
    // until the maintenance thread removes it. Park the rotator so the
    // backlog cannot drain, then check scans filter every tombstone.
    let stm = Stm::default_config();
    let tree = OptSpecFriendlyTree::new();
    let maintenance = tree.start_maintenance_with(
        stm.register(),
        MaintenanceConfig {
            pass_delay: std::time::Duration::from_micros(20),
            ..MaintenanceConfig::default()
        },
    );
    let mut handle = tree.register(stm.register());
    for k in 0..64u64 {
        assert!(tree.insert(&mut handle, k, k + 100));
    }
    // Park the rotator mid-stream: from here on deletions stay logical.
    let pause = maintenance.pause();
    let reachable_before = tree.inspect().reachable_nodes();
    for k in (1..64u64).step_by(2) {
        assert!(tree.delete(&mut handle, k));
    }
    assert_eq!(
        tree.inspect().reachable_nodes(),
        reachable_before,
        "with the rotator parked, deletions must not unlink anything"
    );
    let expected: Vec<(u64, u64)> = (0..64u64)
        .filter(|k| k % 2 == 0)
        .map(|k| (k, k + 100))
        .collect();
    assert_eq!(tree.range_collect(&mut handle, 0..=u64::MAX), expected);
    assert_eq!(
        tree.range_collect(&mut handle, 10..=20),
        expected
            .iter()
            .copied()
            .filter(|&(k, _)| (10..=20).contains(&k))
            .collect::<Vec<_>>()
    );
    assert_eq!(TxMap::len(&tree, &mut handle), 32);
    // Min/max/successor must skip tombstones too.
    let (min, max, succ) = handle.ctx_mut().atomically(|tx| {
        Ok((
            tree.tx_min(tx)?,
            tree.tx_max(tx)?,
            tree.tx_successor(tx, 0)?,
        ))
    });
    assert_eq!(min, Some((0, 100)));
    assert_eq!(max, Some((62, 162)));
    assert_eq!(succ, Some((2, 102)), "successor of 0 skips deleted key 1");
    drop(pause);
    maintenance.stop();
}

#[test]
fn sharded_range_quiescent_is_exact_and_merge_is_sorted() {
    let map = ShardedMap::<OptSpecFriendlyTree>::spec_friendly(
        3,
        StmConfig::ctl(),
        MaintenanceConfig::default(),
    );
    let mut handle = map.register_sharded();
    let mut oracle = BTreeMap::new();
    let mut state = 0x5eed_1234_u64;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for _ in 0..800 {
        let key = rng() % 512;
        if rng() % 3 == 0 {
            map.delete(&mut handle, key);
            oracle.remove(&key);
        } else {
            let value = rng() % 1000;
            if map.insert(&mut handle, key, value) {
                oracle.insert(key, value);
            }
        }
    }
    let expected: Vec<(u64, u64)> = oracle.iter().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(map.range_quiescent(&mut handle, 0..=u64::MAX), expected);
    // The per-shard-atomic mode agrees while no updates run, and sub-ranges
    // come back sorted and filtered.
    assert_eq!(map.range_collect(&mut handle, 0..=u64::MAX), expected);
    let window: Vec<(u64, u64)> = oracle.range(100..=300).map(|(&k, &v)| (k, v)).collect();
    assert_eq!(map.range_collect(&mut handle, 100..=300), window);
    assert_eq!(TxMap::len(&map, &mut handle), oracle.len());
}
