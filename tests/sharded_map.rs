//! Integration tests of the sharded backend: the hash-partitioned tree must
//! be indistinguishable from the sequential reference map under arbitrary
//! operation sequences, and the cross-shard move protocol must never lose or
//! duplicate a key under concurrency.

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;
use speculation_friendly_tree::baselines::SeqMap;
use speculation_friendly_tree::prelude::*;

#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(u8, u8),
    Delete(u8),
    DeleteIf(u8, u8),
    Contains(u8),
    Get(u8),
    Move(u8, u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<u8>()).prop_map(|(k, v)| Op::Insert(k, v)),
        any::<u8>().prop_map(Op::Delete),
        (any::<u8>(), any::<u8>()).prop_map(|(k, v)| Op::DeleteIf(k, v)),
        any::<u8>().prop_map(Op::Contains),
        any::<u8>().prop_map(Op::Get),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Op::Move(a, b)),
    ]
}

/// An optimized sharded tree with default maintenance tuning.
fn sharded(shards: usize) -> ShardedMap<OptSpecFriendlyTree> {
    ShardedMap::spec_friendly(shards, StmConfig::ctl(), MaintenanceConfig::default())
}

/// Apply one op; booleans/options encode every observable answer.
fn apply<M: TxMap>(map: &M, handle: &mut M::Handle, op: Op) -> (bool, Option<u64>) {
    match op {
        Op::Insert(k, v) => (map.insert(handle, k as u64, v as u64), None),
        Op::Delete(k) => (map.delete(handle, k as u64), None),
        Op::DeleteIf(k, v) => (map.delete_if(handle, k as u64, v as u64), None),
        Op::Contains(k) => (map.contains(handle, k as u64), None),
        Op::Get(k) => (true, map.get(handle, k as u64)),
        Op::Move(a, b) => (map.move_entry(handle, a as u64, b as u64), None),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn sharded_tree_matches_the_sequential_map(
        ops in proptest::collection::vec(op_strategy(), 1..150),
        shards in 1usize..6,
    ) {
        let sharded = sharded(shards);
        let mut sharded_handle = sharded.register_sharded();
        let oracle = SeqMap::new();
        let oracle_stm = Stm::default_config();
        let mut oracle_handle = TxMap::register(&oracle, oracle_stm.register());

        for (index, &op) in ops.iter().enumerate() {
            let got = apply(&sharded, &mut sharded_handle, op);
            let want = apply(&oracle, &mut oracle_handle, op);
            prop_assert_eq!(got, want, "answer diverged at op {} ({:?})", index, op);
        }

        // Final contents must agree key-for-key, and so must the sizes.
        for key in 0u64..256 {
            prop_assert_eq!(
                sharded.get(&mut sharded_handle, key),
                oracle.get_direct(key),
                "final contents diverged at key {}",
                key
            );
        }
        prop_assert_eq!(sharded.len_quiescent(), TxMap::len_quiescent(&oracle));
    }
}

/// Token-conservation under concurrent cross-shard moves: a fixed ring of
/// slots holds a fixed set of tokens; every thread randomly moves tokens
/// between slots. An atomic move conserves the token count (it only succeeds
/// when the source is occupied and the destination is free), so a lost or
/// duplicated key would change the slot occupancy or the value multiset.
#[test]
fn concurrent_cross_shard_moves_never_lose_or_duplicate_keys() {
    const SLOTS: u64 = 64;
    const THREADS: u64 = 4;
    const MOVES_PER_THREAD: u64 = 3_000;

    let map = Arc::new(sharded(8));
    let mut handle = map.register_sharded();
    let initial_tokens: BTreeSet<u64> = (0..SLOTS).step_by(4).collect();
    for &slot in &initial_tokens {
        assert!(map.insert(&mut handle, slot, slot + 1_000));
    }

    // Sanity: the ring really spans several shards.
    let shards_used: BTreeSet<usize> = (0..SLOTS).map(|k| map.shard_of(k)).collect();
    assert!(shards_used.len() > 1, "ring must span multiple shards");

    let movers: Vec<_> = (0..THREADS)
        .map(|thread| {
            let map = Arc::clone(&map);
            std::thread::spawn(move || {
                let mut handle = map.register_sharded();
                let mut state = 0x9e37_79b9u64.wrapping_mul(thread + 1) | 1;
                let mut rand = move || {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state
                };
                let mut successes = 0u64;
                for _ in 0..MOVES_PER_THREAD {
                    let from = rand() % SLOTS;
                    let to = rand() % SLOTS;
                    if map.move_entry(&mut handle, from, to) {
                        successes += 1;
                    }
                }
                successes
            })
        })
        .collect();

    // A reader hammers membership tests while the movers run; its answers
    // are not checked (any interleaving is legal), it exists to race the
    // move protocol's window.
    let reader = {
        let map = Arc::clone(&map);
        std::thread::spawn(move || {
            let mut handle = map.register_sharded();
            let mut seen_any = false;
            for round in 0..20_000u64 {
                seen_any |= map.contains(&mut handle, round % SLOTS);
            }
            seen_any
        })
    };

    let total_moves: u64 = movers.into_iter().map(|t| t.join().unwrap()).sum();
    assert!(reader.join().unwrap(), "reader never observed a token");
    assert!(total_moves > 0, "no move ever succeeded");

    // Conservation: same number of tokens, same value multiset, nothing
    // outside the ring. The scan is a quiescent check, so park the shard
    // rotators first — a membership probe racing a rotation is not part of
    // what this test asserts.
    let _quiesced = map.pause_maintenance();
    let final_slots: Vec<u64> = (0..SLOTS)
        .filter(|&slot| map.contains(&mut handle, slot))
        .collect();
    assert_eq!(
        final_slots.len(),
        initial_tokens.len(),
        "token count changed: {final_slots:?}"
    );
    let final_values: BTreeSet<u64> = final_slots
        .iter()
        .map(|&slot| map.get(&mut handle, slot).expect("slot vanished mid-check"))
        .collect();
    let expected_values: BTreeSet<u64> = initial_tokens.iter().map(|&s| s + 1_000).collect();
    assert_eq!(final_values, expected_values, "value multiset changed");
    assert_eq!(map.len_quiescent(), initial_tokens.len());
}

/// Value-level accounting under a fully mixed concurrent workload — the test
/// the movers-only conservation check cannot replace (a blind source delete
/// in the move protocol destroys a *value* while keeping entry counts
/// balanced, so counting entries is not enough). Every inserted value is
/// globally unique and deletions go through observed-value compare-and-delete
/// ([`TxMap::delete_if`]), so each thread knows exactly *which* values it
/// inserted and removed. At the end, the surviving value set must equal
/// `inserted − deleted`: a move that silently destroys a concurrent write
/// leaves a value in `inserted − deleted` that no longer exists; a leaked
/// duplicate or mis-targeted rollback leaves a survivor outside it.
#[test]
fn mixed_concurrent_ops_keep_value_level_accounting() {
    // Independent rounds with a fresh map amplify the detection odds: the
    // race windows are microseconds wide, so any single round can miss a
    // regression that several rounds catch reliably.
    for round in 0..4 {
        mixed_value_accounting_round(round);
    }
}

fn mixed_value_accounting_round(round: u64) {
    // Few, hot slots: the protocol's race windows (get-to-delete on the
    // source, insert-to-retract on the destination) only open when another
    // thread rewrites the same key within microseconds, so contention is
    // deliberately extreme.
    const SLOTS: u64 = 12;
    const THREADS: u64 = 8;
    const OPS_PER_THREAD: u64 = 12_000;

    let map = Arc::new(sharded(8));
    let workers: Vec<_> = (0..THREADS)
        .map(|thread| {
            let map = Arc::clone(&map);
            std::thread::spawn(move || {
                let mut handle = map.register_sharded();
                let mut state = 0xdead_beefu64
                    .wrapping_mul(thread + 1)
                    .wrapping_add(round * 0x1234_5677)
                    | 1;
                let mut rand = move || {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state
                };
                let mut next_value = thread * 1_000_000_000;
                let mut inserted = BTreeSet::new();
                let mut deleted = BTreeSet::new();
                for _ in 0..OPS_PER_THREAD {
                    let key = rand() % SLOTS;
                    match rand() % 4 {
                        0 | 1 => {
                            next_value += 1;
                            if map.insert(&mut handle, key, next_value) {
                                inserted.insert(next_value);
                            }
                        }
                        2 => {
                            // Observed-value delete: read, then remove only
                            // that value, so the thread knows which value it
                            // consumed even when a move races in between.
                            if let Some(value) = map.get(&mut handle, key) {
                                if map.delete_if(&mut handle, key, value) {
                                    deleted.insert(value);
                                }
                            }
                        }
                        _ => {
                            let to = rand() % SLOTS;
                            map.move_entry(&mut handle, key, to);
                        }
                    }
                }
                (inserted, deleted)
            })
        })
        .collect();

    let mut inserted = BTreeSet::new();
    let mut deleted = BTreeSet::new();
    for worker in workers {
        let (i, d) = worker.join().unwrap();
        inserted.extend(i);
        deleted.extend(d);
    }
    assert!(
        !inserted.is_empty() && !deleted.is_empty(),
        "workload degenerated"
    );

    let mut handle = map.register_sharded();
    let _quiesced = map.pause_maintenance();
    let survivors: BTreeSet<u64> = (0..SLOTS)
        .filter_map(|slot| map.get(&mut handle, slot))
        .collect();
    let expected: BTreeSet<u64> = inserted.difference(&deleted).copied().collect();
    assert_eq!(
        survivors,
        expected,
        "value accounting broke: destroyed = {:?}, leaked = {:?}",
        expected.difference(&survivors).collect::<Vec<_>>(),
        survivors.difference(&expected).collect::<Vec<_>>()
    );
    assert_eq!(map.len_quiescent(), survivors.len());
}

/// Concurrent movers with disjoint token sets but shared shards: every
/// thread's tokens must all survive with their values intact.
#[test]
fn concurrent_disjoint_moves_preserve_every_token() {
    const THREADS: u64 = 4;
    const TOKENS_PER_THREAD: u64 = 32;
    const ROUNDS: u64 = 400;

    let map = Arc::new(sharded(4));
    let workers: Vec<_> = (0..THREADS)
        .map(|thread| {
            let map = Arc::clone(&map);
            std::thread::spawn(move || {
                let mut handle = map.register_sharded();
                // Thread-private key namespace: key = thread * stride + slot.
                let base = thread * 1_000_000;
                let mut keys: Vec<u64> = (0..TOKENS_PER_THREAD).map(|t| base + t).collect();
                for (token, &key) in keys.iter().enumerate() {
                    assert!(map.insert(&mut handle, key, thread * 100 + token as u64));
                }
                let mut state = thread.wrapping_mul(0x5851_f42d_4c95_7f2d) | 1;
                let mut rand = move || {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state
                };
                for round in 0..ROUNDS {
                    let token = (rand() % TOKENS_PER_THREAD) as usize;
                    let to = base + TOKENS_PER_THREAD + (round * TOKENS_PER_THREAD) + rand() % 512;
                    if map.move_entry(&mut handle, keys[token], to) {
                        keys[token] = to;
                    }
                }
                (thread, keys)
            })
        })
        .collect();

    let mut handle = map.register_sharded();
    let _quiesced = map.pause_maintenance();
    let mut total = 0usize;
    for worker in workers {
        let (thread, keys) = worker.join().unwrap();
        let values: BTreeSet<u64> = keys
            .iter()
            .map(|&key| {
                map.get(&mut handle, key)
                    .unwrap_or_else(|| panic!("thread {thread} lost key {key}"))
            })
            .collect();
        let expected: BTreeSet<u64> = (0..TOKENS_PER_THREAD).map(|t| thread * 100 + t).collect();
        assert_eq!(values, expected, "thread {thread} values corrupted");
        total += keys.len();
    }
    assert_eq!(map.len_quiescent(), total, "stray or missing keys remain");
}
