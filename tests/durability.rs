//! Durability subsystem integration tests.
//!
//! The central property (the PR's acceptance oracle): for a random operation
//! sequence on any `+wal` backend — both speculation-friendly trees, the
//! red-black/AVL/no-restructuring baselines, and the sharded composition —
//! **crash-at-any-point recovery equals the `BTreeMap` oracle of all
//! committed operations**. Because every mutation is acknowledged durable
//! before it returns, "crash after op `i`" is simulated exactly by running
//! `recover` on the live directory after op `i`; the torn-tail tests then
//! cover crashes *inside* a log write by truncating and bit-flipping real
//! segment bytes.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;
use sf_persist::record::{read_frame, scan_segment, WalOp};
use sf_persist::{
    checkpoint_sharded, recover, recover_sharded, shard_dir, sharded_spec_friendly, DurableHandle,
    DurableMap, Recovery, TempDir, WalOptions,
};
use sf_stm::{Stm, StmConfig};
use sf_tree::maintenance::{MaintenanceConfig, MaintenanceHandle};
use sf_tree::{OptimizedFind, ShardedMap, TxMap, TxMapVersioned};
use speculation_friendly_tree::baselines::{AvlTree, NoRestructureTree, RedBlackTree};
use speculation_friendly_tree::tree::{OptSpecFriendlyTree, SpecFriendlyTree};

/// Open (recovering) a `shards`-way durable optimized tree under `base`.
fn open_sharded(
    shards: usize,
    base: &std::path::Path,
    options: WalOptions,
) -> std::io::Result<(ShardedMap<DurableMap<OptSpecFriendlyTree>>, Recovery)> {
    sharded_spec_friendly::<OptimizedFind>(
        shards,
        StmConfig::ctl(),
        base,
        options,
        MaintenanceConfig::default(),
    )
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(u8, u8),
    Delete(u8),
    DeleteIf(u8, u8),
    Move(u8, u8),
    Checkpoint,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<u8>()).prop_map(|(k, v)| Op::Insert(k, v)),
        any::<u8>().prop_map(Op::Delete),
        (any::<u8>(), any::<u8>()).prop_map(|(k, v)| Op::DeleteIf(k, v)),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Op::Move(a, b)),
        (0u8..1).prop_map(|_| Op::Checkpoint),
    ]
}

/// Apply `op` to the oracle with exactly the `TxMap` semantics.
fn apply_to_oracle(op: Op, oracle: &mut BTreeMap<u64, u64>) {
    match op {
        Op::Insert(k, v) => {
            oracle.entry(k as u64).or_insert(v as u64);
        }
        Op::Delete(k) => {
            oracle.remove(&(k as u64));
        }
        Op::DeleteIf(k, v) => {
            if oracle.get(&(k as u64)) == Some(&(v as u64)) {
                oracle.remove(&(k as u64));
            }
        }
        Op::Move(from, to) => {
            let (from, to) = (from as u64, to as u64);
            if from != to && oracle.contains_key(&from) && !oracle.contains_key(&to) {
                let v = oracle.remove(&from).unwrap();
                oracle.insert(to, v);
            }
        }
        Op::Checkpoint => {}
    }
}

fn oracle_entries(oracle: &BTreeMap<u64, u64>) -> Vec<(u64, u64)> {
    oracle.iter().map(|(&k, &v)| (k, v)).collect()
}

/// Everything a plain (non-sharded) durable backend needs for one case.
struct PlainCase<M: TxMapVersioned + 'static> {
    _dir: TempDir,
    dir_path: std::path::PathBuf,
    map: DurableMap<M>,
    handle: DurableHandle<M>,
    _maintenance: Option<MaintenanceHandle>,
    _stm: Arc<Stm>,
}

fn plain_case<M: TxMapVersioned + 'static>(
    label: &str,
    make: impl FnOnce(&Arc<Stm>) -> (Arc<M>, Option<MaintenanceHandle>),
) -> PlainCase<M> {
    let dir = TempDir::new(label);
    let stm = Stm::new(StmConfig::ctl());
    let (inner, maintenance) = make(&stm);
    let (map, _) =
        DurableMap::open(inner, &stm, dir.path(), WalOptions::default()).expect("open WAL");
    let handle = map.register(stm.register());
    let dir_path = dir.path().to_path_buf();
    PlainCase {
        _dir: dir,
        dir_path,
        map,
        handle,
        _maintenance: maintenance,
        _stm: stm,
    }
}

/// Drive `ops` through a plain durable backend, recovering the directory
/// after **every** op and comparing against the oracle.
fn check_plain<M: TxMapVersioned + 'static>(
    label: &str,
    ops: &[Op],
    make: impl FnOnce(&Arc<Stm>) -> (Arc<M>, Option<MaintenanceHandle>),
) {
    let mut case = plain_case(label, make);
    let mut oracle = BTreeMap::new();
    for (i, &op) in ops.iter().enumerate() {
        match op {
            Op::Insert(k, v) => {
                case.map.insert(&mut case.handle, k as u64, v as u64);
            }
            Op::Delete(k) => {
                case.map.delete(&mut case.handle, k as u64);
            }
            Op::DeleteIf(k, v) => {
                case.map.delete_if(&mut case.handle, k as u64, v as u64);
            }
            Op::Move(from, to) => {
                case.map
                    .move_entry(&mut case.handle, from as u64, to as u64);
            }
            Op::Checkpoint => {
                case.map.checkpoint(&mut case.handle).expect("checkpoint");
            }
        }
        apply_to_oracle(op, &mut oracle);
        let recovered = recover(&case.dir_path).expect("recover");
        assert_eq!(
            recovered.entries,
            oracle_entries(&oracle),
            "{label}: crash after op {i} ({op:?}) diverges from the oracle"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 5, ..ProptestConfig::default() })]

    #[test]
    fn crash_at_any_point_recovery_matches_the_oracle_on_every_wal_backend(
        ops in proptest::collection::vec(op_strategy(), 1..36),
    ) {
        check_plain("dur-rbtree", &ops, |_| (Arc::new(RedBlackTree::new()), None));
        check_plain("dur-avl", &ops, |_| (Arc::new(AvlTree::new()), None));
        check_plain("dur-nrtree", &ops, |_| (Arc::new(NoRestructureTree::new()), None));
        check_plain("dur-sftree", &ops, |stm| {
            let map = Arc::new(SpecFriendlyTree::new());
            let maintenance = map.start_maintenance(stm.register());
            (map, Some(maintenance))
        });
        check_plain("dur-sftree-opt", &ops, |stm| {
            let map = Arc::new(OptSpecFriendlyTree::new());
            let maintenance = map.start_maintenance(stm.register());
            (map, Some(maintenance))
        });

        // The sharded composition: one log per shard, merged recovery.
        let dir = TempDir::new("dur-sharded");
        let (map, _) = open_sharded(2, dir.path(), WalOptions::default())
            .expect("open sharded WAL");
        let mut handle = map.register_sharded();
        let mut oracle = BTreeMap::new();
        for (i, &op) in ops.iter().enumerate() {
            match op {
                Op::Insert(k, v) => { map.insert(&mut handle, k as u64, v as u64); }
                Op::Delete(k) => { map.delete(&mut handle, k as u64); }
                Op::DeleteIf(k, v) => { map.delete_if(&mut handle, k as u64, v as u64); }
                Op::Move(from, to) => { map.move_entry(&mut handle, from as u64, to as u64); }
                Op::Checkpoint => { checkpoint_sharded(&map, &mut handle).expect("checkpoint"); }
            }
            apply_to_oracle(op, &mut oracle);
            let recovered = recover_sharded(dir.path(), 2).expect("recover sharded");
            prop_assert_eq!(
                &recovered.entries,
                &oracle_entries(&oracle),
                "sharded: crash after op {} ({:?}) diverges from the oracle",
                i,
                op
            );
            // The cross-log move resolution is read-only on committed
            // histories and idempotent: a second recovery sees the same
            // state (completed moves carry their commit markers, so the
            // join never re-judges them).
            let again = recover_sharded(dir.path(), 2).expect("recover sharded again");
            prop_assert_eq!(&again.entries, &recovered.entries);
        }
    }
}

/// Crash *inside* a log write: truncate and bit-flip a real segment. The
/// recovered state must always be a state the committed history passed
/// through (a prefix of the single-threaded op sequence), never a panic and
/// never a half-applied move.
#[test]
fn torn_tail_recovers_cleanly_to_a_committed_prefix() {
    let mut case = plain_case("dur-torn", |stm| {
        let map = Arc::new(OptSpecFriendlyTree::new());
        let maintenance = map.start_maintenance(stm.register());
        (map, Some(maintenance))
    });
    // A fixed history whose every prefix is distinct, including moves (whose
    // single-record encoding the truncations exercise).
    let ops = [
        Op::Insert(1, 10),
        Op::Insert(2, 20),
        Op::Move(1, 3),
        Op::Insert(1, 11),
        Op::Delete(2),
        Op::Move(3, 2),
        Op::Insert(4, 40),
        Op::DeleteIf(1, 11),
    ];
    let mut oracle = BTreeMap::new();
    let mut snapshots: Vec<Vec<(u64, u64)>> = vec![Vec::new()];
    for &op in &ops {
        match op {
            Op::Insert(k, v) => {
                assert!(case.map.insert(&mut case.handle, k as u64, v as u64));
            }
            Op::Delete(k) => {
                assert!(case.map.delete(&mut case.handle, k as u64));
            }
            Op::DeleteIf(k, v) => {
                assert!(case.map.delete_if(&mut case.handle, k as u64, v as u64));
            }
            Op::Move(from, to) => {
                assert!(case
                    .map
                    .move_entry(&mut case.handle, from as u64, to as u64));
            }
            Op::Checkpoint => unreachable!(),
        }
        apply_to_oracle(op, &mut oracle);
        snapshots.push(oracle_entries(&oracle));
    }
    let segment = case.dir_path.join("segment-00000001.wal");
    let bytes = std::fs::read(&segment).expect("read segment");

    let recovers_to_snapshot = |mutated: &[u8], what: &str| {
        let crash_dir = TempDir::new("dur-torn-crash");
        std::fs::write(crash_dir.path().join("segment-00000001.wal"), mutated)
            .expect("write mutated segment");
        let recovered = recover(crash_dir.path()).expect("recovery must not fail");
        assert!(
            snapshots.contains(&recovered.entries),
            "{what}: recovered {:?} is not a committed prefix state",
            recovered.entries
        );
        recovered
    };

    // Every truncation point (short write at crash).
    let mut shorter_than_full = 0u32;
    for cut in 0..bytes.len() {
        let recovered = recovers_to_snapshot(&bytes[..cut], "truncate");
        if recovered.entries != *snapshots.last().unwrap() {
            shorter_than_full += 1;
        }
    }
    assert!(
        shorter_than_full > 0,
        "some truncation must actually lose a suffix"
    );

    // Bit flips sprinkled through the file (media corruption): recovery
    // stops cleanly at the last valid record before the flip.
    for offset in (0..bytes.len()).step_by(7) {
        let mut mutated = bytes.clone();
        mutated[offset] ^= 0x20;
        recovers_to_snapshot(&mutated, "bit-flip");
    }
}

/// Checkpoint + truncate racing live writers: no committed record may be
/// lost between the snapshot and the log truncation. Every mutation is
/// acknowledged durable, so whatever interleaving the scheduler picks, the
/// final recovery must equal the final live contents exactly.
#[test]
fn checkpoint_truncate_races_concurrent_writers_losslessly() {
    let dir = TempDir::new("dur-ckpt-race");
    let stm = Stm::new(StmConfig::ctl());
    let tree = Arc::new(OptSpecFriendlyTree::new());
    let maintenance = tree.start_maintenance(stm.register());
    let (map, _) = DurableMap::open(
        Arc::clone(&tree),
        &stm,
        dir.path(),
        WalOptions {
            group: 32,
            auto_checkpoint: 0,
            ..WalOptions::default()
        },
    )
    .expect("open WAL");
    let map = Arc::new(map);

    // Memory note: 1-core host — keep this at 2 writers with modest op
    // counts; the interleaving pressure comes from the checkpoint loop.
    let checkpoints = std::thread::scope(|scope| {
        let writers: Vec<_> = (0..2u64)
            .map(|t| {
                let map = Arc::clone(&map);
                let mut handle = map.register(stm.register());
                scope.spawn(move || {
                    let mut state = 0x0dd_b1a5 + t;
                    for _ in 0..250 {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        let key = state % 64;
                        if state % 3 == 0 {
                            map.delete(&mut handle, key);
                        } else {
                            map.insert(&mut handle, key, state);
                        }
                    }
                })
            })
            .collect();
        let mut ckpt_handle = map.register(stm.register());
        let mut checkpoints = 0u32;
        while writers.iter().any(|w| !w.is_finished()) {
            map.checkpoint(&mut ckpt_handle).expect("checkpoint");
            checkpoints += 1;
            std::thread::yield_now();
        }
        for w in writers {
            w.join().expect("writer panicked");
        }
        checkpoints
    });
    assert!(checkpoints > 0);

    let mut handle = map.register(stm.register());
    let live = map.range_collect(&mut handle, 0..=u64::MAX);
    let recovered = recover(dir.path()).expect("recover");
    assert_eq!(
        recovered.entries, live,
        "a committed record was lost between snapshot and truncation"
    );
    assert!(
        recovered.checkpoint_version > 0,
        "at least one checkpoint must have been installed"
    );
    maintenance.stop();
}

/// Automatic checkpoints (SF_WAL_CKPT-style threshold) keep the log short
/// without losing anything.
#[test]
fn auto_checkpoint_truncates_the_log_and_loses_nothing() {
    let dir = TempDir::new("dur-auto-ckpt");
    let stm = Stm::new(StmConfig::ctl());
    let (map, _) = DurableMap::open(
        Arc::new(RedBlackTree::new()),
        &stm,
        dir.path(),
        WalOptions {
            group: 16,
            auto_checkpoint: 25,
            ..WalOptions::default()
        },
    )
    .expect("open WAL");
    let mut handle = map.register(stm.register());
    let mut oracle = BTreeMap::new();
    for k in 0..120u64 {
        map.insert(&mut handle, k % 40, k);
        oracle.entry(k % 40).or_insert(k);
    }
    // The trigger runs in the log's writer thread; wait for it to quiesce
    // (counter back under the threshold means the last install completed)
    // before reading the directory underneath the live map.
    wait_until("the size trigger quiesces", || {
        map.records_since_checkpoint() < 25
    });
    let recovered = recover(dir.path()).expect("recover");
    assert_eq!(recovered.entries, oracle_entries(&oracle));
    assert!(
        recovered.checkpoint_version > 0,
        "the threshold must have fired at least once"
    );
    assert!(
        map.records_since_checkpoint() < 120,
        "auto-checkpoints must reset the record counter"
    );
}

/// Poll `condition` for a few seconds, panicking with `what` on timeout.
/// Used for assertions about the asynchronous writer-thread triggers.
fn wait_until(what: &str, mut condition: impl FnMut() -> bool) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while !condition() {
        assert!(
            std::time::Instant::now() < deadline,
            "timed out waiting until {what}"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
}

/// Regression for the PR 5 liveness note: a **pure `move_entry` workload**
/// past the auto-checkpoint threshold must still checkpoint. The move
/// protocol holds both shards' checkpoint locks for the whole move, so the
/// trigger can never run inside it — but the writer thread keeps the
/// trigger *deferred* and retries with a `try_lock` on every wakeup, so the
/// checkpoint fires as soon as the move scope releases the lock.
#[test]
fn pure_move_workload_auto_checkpoints_via_the_deferred_trigger() {
    let dir = TempDir::new("dur-move-auto-ckpt");
    let options = WalOptions {
        group: 8,
        auto_checkpoint: 12,
        ..WalOptions::default()
    };
    let (map, _) = open_sharded(2, dir.path(), options).expect("open sharded WAL");
    let mut handle = map.register_sharded();
    let a = 1u64;
    let b = (2..1000u64)
        .find(|&k| map.shard_of(k) != map.shard_of(a))
        .expect("some key lands on the other shard");
    assert!(map.insert(&mut handle, a, 7));
    // Pure move traffic from here on: bounce the entry between the shards
    // until both logs are far past the size threshold (each move logs an
    // intent + delete + commit marker on the source and an insert on the
    // destination).
    for _ in 0..40 {
        assert!(map.move_entry(&mut handle, a, b));
        assert!(map.move_entry(&mut handle, b, a));
    }
    wait_until("the deferred trigger checkpoints every shard", || {
        (0..2).all(|s| map.shard_map(s).records_since_checkpoint() < 12)
    });
    // The checkpoints truncated the logs without losing the entry.
    let recovered = recover_sharded(dir.path(), 2).expect("recover");
    assert_eq!(recovered.entries, vec![(a, 7)]);
}

/// Crash–restart–crash: a torn tail left by the first crash must be
/// *durably* discarded when the directory is reopened, otherwise the second
/// recovery would stumble over the stale corruption and throw away every
/// segment — and every acknowledged write — of the restarted incarnation.
#[test]
fn reopen_repairs_the_torn_tail_so_later_acks_survive_a_second_crash() {
    let dir = TempDir::new("dur-torn-reopen");

    // Incarnation 1 writes two records, then "crashes" mid-append: we chop
    // bytes off the live segment to fabricate the torn tail.
    {
        let stm = Stm::new(StmConfig::ctl());
        let (map, _) = DurableMap::open(
            Arc::new(RedBlackTree::new()),
            &stm,
            dir.path(),
            WalOptions::default(),
        )
        .expect("open");
        let mut handle = map.register(stm.register());
        map.insert(&mut handle, 1, 10);
        map.insert(&mut handle, 2, 20);
    }
    let segment = dir.path().join("segment-00000001.wal");
    let bytes = std::fs::read(&segment).expect("read segment");
    std::fs::write(&segment, &bytes[..bytes.len() - 5]).expect("tear the tail");

    // Incarnation 2: the reopen must repair the tear (key 2's record is
    // gone for good) and resume appending; its mutations are acknowledged.
    {
        let stm = Stm::new(StmConfig::ctl());
        let (map, resumed) = DurableMap::open(
            Arc::new(RedBlackTree::new()),
            &stm,
            dir.path(),
            WalOptions::default(),
        )
        .expect("reopen");
        assert_eq!(resumed.entries, vec![(1, 10)]);
        assert!(resumed.torn_bytes > 0);
        let mut handle = map.register(stm.register());
        assert!(map.insert(&mut handle, 3, 30));
    }

    // Second crash (drop without checkpoint). Recovery must see incarnation
    // 2's acknowledged insert — before the repair fix, the stale torn frame
    // in segment 1 made recovery discard segment 2 wholesale.
    let after = recover(dir.path()).expect("recover after second crash");
    assert_eq!(after.entries, vec![(1, 10), (3, 30)]);
    assert_eq!(after.torn_bytes, 0, "the tear was repaired on reopen");
}

/// A restart continues where the crash left off: recovered contents are
/// loaded, the clock resumes above every logged version (so post-restart
/// mutations replay *after* pre-restart ones), and a second recovery sees
/// the union.
#[test]
fn reopen_resumes_versions_and_contents_across_restarts() {
    let dir = TempDir::new("dur-reopen");

    // Incarnation 1: a few mutations, a checkpoint, one post-checkpoint op.
    {
        let stm = Stm::new(StmConfig::ctl());
        let tree = Arc::new(OptSpecFriendlyTree::new());
        let maintenance = tree.start_maintenance(stm.register());
        let (map, first) =
            DurableMap::open(tree, &stm, dir.path(), WalOptions::default()).expect("open");
        assert_eq!(first.entries.len(), 0, "fresh directory recovers empty");
        let mut handle = map.register(stm.register());
        map.insert(&mut handle, 1, 10);
        map.insert(&mut handle, 2, 20);
        map.checkpoint(&mut handle).expect("checkpoint");
        map.delete(&mut handle, 2);
        maintenance.stop();
    } // clean shutdown: the WAL flushes on drop

    let before = recover(dir.path()).expect("recover");
    assert_eq!(before.entries, vec![(1, 10)]);
    let v1 = before.last_version;
    assert!(v1 > 0);

    // Incarnation 2: reopen over a *fresh* tree and STM.
    let stm = Stm::new(StmConfig::ctl());
    let tree = Arc::new(OptSpecFriendlyTree::new());
    let maintenance = tree.start_maintenance(stm.register());
    let (map, resumed) =
        DurableMap::open(tree, &stm, dir.path(), WalOptions::default()).expect("reopen");
    assert_eq!(resumed.entries, vec![(1, 10)]);
    assert!(
        stm.clock().now() >= v1,
        "the clock must resume above every recovered version"
    );
    let mut handle = map.register(stm.register());
    assert_eq!(map.get(&mut handle, 1), Some(10), "recovered into the tree");
    // This delete must serialize (and log) above v1, or replay would
    // resurrect key 1.
    assert!(map.delete(&mut handle, 1));
    assert!(map.insert(&mut handle, 9, 90));
    let after = recover(dir.path()).expect("recover again");
    assert_eq!(after.entries, vec![(9, 90)]);
    assert!(after.last_version > v1);
    maintenance.stop();
}

/// A committed cross-shard move fixture: two shard logs captured right
/// after `insert(anchors); insert(a, 7777); move_entry(a, b)` on a fresh
/// 2-shard durable map, with `a` and `b` on different shards.
struct CrossMoveFixture {
    src_shard: usize,
    dst_shard: usize,
    a: u64,
    b: u64,
    anchor_src: u64,
    anchor_dst: u64,
    src_bytes: Vec<u8>,
    dst_bytes: Vec<u8>,
}

const MOVED_VALUE: u64 = 7777;
const ANCHOR_VALUE: u64 = 4242;

fn cross_move_fixture() -> CrossMoveFixture {
    let dir = TempDir::new("dur-xmove-fixture");
    let (map, _) = open_sharded(2, dir.path(), WalOptions::default()).expect("open sharded WAL");
    let mut handle = map.register_sharded();
    let a = 1u64;
    let b = (2..1000u64)
        .find(|&k| map.shard_of(k) != map.shard_of(a))
        .expect("some key lands on the other shard");
    let anchor_src = (b + 1..2000u64)
        .find(|&k| map.shard_of(k) == map.shard_of(a))
        .unwrap();
    let anchor_dst = (b + 1..2000u64)
        .find(|&k| map.shard_of(k) == map.shard_of(b))
        .unwrap();
    // Anchors first, so every interesting cut point keeps them.
    assert!(map.insert(&mut handle, anchor_src, ANCHOR_VALUE));
    assert!(map.insert(&mut handle, anchor_dst, ANCHOR_VALUE));
    assert!(map.insert(&mut handle, a, MOVED_VALUE));
    assert!(map.move_entry(&mut handle, a, b));
    let (src_shard, dst_shard) = (map.shard_of(a), map.shard_of(b));
    drop(handle);
    drop(map);
    let read_segment = |shard: usize| {
        std::fs::read(shard_dir(dir.path(), shard).join("segment-00000001.wal"))
            .expect("read shard segment")
    };
    CrossMoveFixture {
        src_shard,
        dst_shard,
        a,
        b,
        anchor_src,
        anchor_dst,
        src_bytes: read_segment(src_shard),
        dst_bytes: read_segment(dst_shard),
    }
}

/// Frame-boundary offsets of a segment (0, end-of-frame-1, ...).
fn frame_boundaries(bytes: &[u8]) -> Vec<usize> {
    let mut boundaries = vec![0usize];
    let mut offset = 0;
    while let Some((_, next)) = read_frame(bytes, offset) {
        boundaries.push(next);
        offset = next;
    }
    boundaries
}

/// Write a fabricated two-shard log state and recover it.
fn recover_fabricated(
    fixture: &CrossMoveFixture,
    src_cut: &[u8],
    dst_cut: &[u8],
) -> std::io::Result<sf_persist::Recovery> {
    let crash = TempDir::new("dur-xmove-crash");
    for (shard, bytes) in [(fixture.src_shard, src_cut), (fixture.dst_shard, dst_cut)] {
        let dir = shard_dir(crash.path(), shard);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("segment-00000001.wal"), bytes).unwrap();
    }
    recover_sharded(crash.path(), 2)
}

/// Crash at any pair of points in the two shard logs: for every
/// *crash-consistent* combination of a source-log cut and a destination-log
/// cut (the protocol fsyncs intent → destination insert → source delete, so
/// a real crash can never keep a later record while losing an earlier one
/// across the logs), the recovered state must hold the moved value at
/// **exactly one** of the two keys — never duplicated, never vanished —
/// and must keep every unrelated committed entry whose record survived.
#[test]
fn cross_shard_move_crash_cuts_recover_exactly_one_copy() {
    let fixture = cross_move_fixture();
    let src_frames = frame_boundaries(&fixture.src_bytes);
    let dst_frames = frame_boundaries(&fixture.dst_bytes);

    // Survival probes for the protocol records of one cut.
    let survived = |bytes: &[u8]| {
        let scan = scan_segment(bytes);
        let mut intent = false;
        let mut insert_half = false;
        let mut delete_half = false;
        for r in &scan.records {
            match r.op {
                WalOp::MoveIntent { .. } => intent = true,
                WalOp::MoveInsert { .. } => insert_half = true,
                WalOp::MoveDelete { .. } => delete_half = true,
                _ => {}
            }
        }
        (intent, insert_half, delete_half)
    };

    // Byte-granular cuts on the source log (torn tails land mid-frame too)
    // against frame-boundary cuts of the destination log, and vice versa.
    let mut cases = 0u32;
    let mut duplicate_window_hit = 0u32;
    let mut check = |src_cut: usize, dst_cut: usize| {
        let src = &fixture.src_bytes[..src_cut];
        let dst = &fixture.dst_bytes[..dst_cut];
        let (src_intent, _, src_delete) = survived(src);
        let (_, dst_insert, _) = survived(dst);
        // Crash consistency: the fsync ordering makes these implications
        // physical law; other combinations cannot come out of a crash.
        if (dst_insert && !src_intent) || (src_delete && !dst_insert) {
            return;
        }
        cases += 1;
        if dst_insert && !src_delete {
            duplicate_window_hit += 1;
        }
        let recovery = recover_fabricated(&fixture, src, dst)
            .unwrap_or_else(|e| panic!("recovery failed at cut ({src_cut},{dst_cut}): {e}"));
        let entries: BTreeMap<u64, u64> = recovery.entries.iter().copied().collect();
        let at_a = entries.get(&fixture.a) == Some(&MOVED_VALUE);
        let at_b = entries.get(&fixture.b) == Some(&MOVED_VALUE);
        // A cut so early that even the original `insert(a)` record is gone
        // simulates a crash before that insert was acknowledged: the value
        // then legitimately exists nowhere. From the moment the insert is
        // durable, the move protocol owes us exactly one copy.
        let insert_a_durable = scan_segment(src)
            .records
            .iter()
            .any(|r| matches!(r.op, WalOp::Insert { key, .. } if key == fixture.a));
        if insert_a_durable || dst_insert {
            assert!(
                at_a ^ at_b,
                "cut ({src_cut},{dst_cut}): moved value at {} of its keys",
                if at_a && at_b { "both" } else { "neither" },
            );
        } else {
            assert!(!at_a && !at_b, "cut ({src_cut},{dst_cut}): ghost value");
        }
        // Unrelated committed entries survive cuts that kept their records.
        if scan_segment(src)
            .records
            .iter()
            .any(|r| matches!(r.op, WalOp::Insert { key, .. } if key == fixture.anchor_src))
        {
            assert_eq!(entries.get(&fixture.anchor_src), Some(&ANCHOR_VALUE));
        }
        if scan_segment(dst)
            .records
            .iter()
            .any(|r| matches!(r.op, WalOp::Insert { key, .. } if key == fixture.anchor_dst))
        {
            assert_eq!(entries.get(&fixture.anchor_dst), Some(&ANCHOR_VALUE));
        }
    };
    for src_cut in 0..=fixture.src_bytes.len() {
        for &dst_cut in &dst_frames {
            check(src_cut, dst_cut);
        }
    }
    for &src_cut in &src_frames {
        for dst_cut in 0..=fixture.dst_bytes.len() {
            check(src_cut, dst_cut);
        }
    }
    assert!(cases > 0, "the sweep must exercise real cut pairs");
    assert!(
        duplicate_window_hit > 0,
        "the sweep must hit the insert-durable/delete-lost window the \
         intent protocol exists for"
    );
}

/// Media corruption (bit flips) anywhere in either log — including inside
/// the `MoveIntent` / `MoveCommit` frames — must never make sharded
/// recovery panic or error: the checksum stops the scan at the corrupted
/// frame and the resolution join copes with whatever prefix survives.
#[test]
fn cross_shard_move_bit_flips_recover_cleanly() {
    let fixture = cross_move_fixture();
    for offset in 0..fixture.src_bytes.len() {
        let mut mutated = fixture.src_bytes.clone();
        mutated[offset] ^= 0x10;
        let recovery = recover_fabricated(&fixture, &mutated, &fixture.dst_bytes)
            .unwrap_or_else(|e| panic!("src flip at {offset}: {e}"));
        // The per-log prefix contract still bounds the result.
        assert!(recovery.entries.len() <= 4);
    }
    for offset in 0..fixture.dst_bytes.len() {
        let mut mutated = fixture.dst_bytes.clone();
        mutated[offset] ^= 0x10;
        recover_fabricated(&fixture, &fixture.src_bytes, &mutated)
            .unwrap_or_else(|e| panic!("dst flip at {offset}: {e}"));
    }
}

/// Reopening a sharded durable map after a crash mid-cross-shard-move must
/// *durably* neutralize the orphaned intent: the resolution's records are
/// appended to the logs before new mutations, so a later crash — after the
/// moved keys have been legitimately rewritten — replays to the resolved
/// state instead of re-judging the stale intent against a log that moved on
/// (which would destroy the completed move's destination entry).
#[test]
fn reopen_durably_neutralizes_an_interrupted_cross_shard_move() {
    let fixture = cross_move_fixture();
    let base = TempDir::new("dur-xmove-reopen");
    // Fabricate the duplicate window on disk: the source log ends right
    // after the intent (its delete half and commit marker never became
    // durable), the destination log holds the stamped insert.
    let src_frames = frame_boundaries(&fixture.src_bytes);
    // Source frames: anchor insert, insert(a), intent, delete half, commit.
    let cut_after_intent = src_frames[3];
    {
        let scan = scan_segment(&fixture.src_bytes[..cut_after_intent]);
        assert!(
            matches!(scan.records.last().unwrap().op, WalOp::MoveIntent { .. }),
            "fixture layout: the third frame is the move intent"
        );
    }
    for (shard, bytes) in [
        (fixture.src_shard, &fixture.src_bytes[..cut_after_intent]),
        (fixture.dst_shard, &fixture.dst_bytes[..]),
    ] {
        let dir = shard_dir(base.path(), shard);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("segment-00000001.wal"), bytes).unwrap();
    }

    // Incarnation 2: the reopen resolves the orphan (rolling the move
    // forward — the source still held the value) and appends the fix.
    {
        let (map, resumed) =
            open_sharded(2, base.path(), WalOptions::default()).expect("reopen sharded");
        assert_eq!(resumed.moves_resolved, 1);
        let recovered: BTreeMap<u64, u64> = resumed.entries.iter().copied().collect();
        assert_eq!(recovered.get(&fixture.b), Some(&MOVED_VALUE));
        assert!(!recovered.contains_key(&fixture.a), "rolled forward");
        // New committed work touches the very key the stale intent names.
        let mut handle = map.register_sharded();
        assert!(map.insert(&mut handle, fixture.a, 8888));
    } // drop = clean shutdown; every record is already fsynced anyway

    // Second crash. Without durable neutralization the stale intent would
    // now judge `a != 7777` as "roll back" and delete the completed move's
    // destination copy.
    let after = recover_sharded(base.path(), 2).expect("recover after second crash");
    assert_eq!(after.moves_resolved, 0, "the intent is committed on disk");
    let entries: BTreeMap<u64, u64> = after.entries.iter().copied().collect();
    assert_eq!(entries.get(&fixture.a), Some(&8888));
    assert_eq!(entries.get(&fixture.b), Some(&MOVED_VALUE));
}

/// A rolled-back move whose retraction is durable but whose commit marker
/// is not — with the destination key since re-occupied by an acknowledged
/// client insert of the *same value*. The reopen's join must honor the
/// stamped retraction (not re-judge by value), and its own commit marker
/// must be crash-safe: losing the marker to a second crash just makes the
/// next join short-circuit on the durable retraction again.
#[test]
fn reopen_honors_a_durable_rollback_retraction() {
    use sf_persist::{Wal, WalOp, WalRecord};

    // Shard routing is a pure function of the key and shard count; a
    // throwaway in-memory map computes it.
    let probe = ShardedMap::<OptSpecFriendlyTree>::spec_friendly(
        2,
        StmConfig::ctl(),
        MaintenanceConfig::default(),
    );
    let a = 1u64;
    let b = (2..1000u64)
        .find(|&k| probe.shard_of(k) != probe.shard_of(a))
        .unwrap();
    let (s, d) = (probe.shard_of(a), probe.shard_of(b));
    drop(probe);

    let base = TempDir::new("dur-xmove-retract");
    let record = |version, op| WalRecord { version, op };
    {
        let src = Wal::open(
            shard_dir(base.path(), s),
            1,
            WalOptions {
                group: 8,
                ..WalOptions::default()
            },
        )
        .unwrap();
        src.enqueue(record(1, WalOp::Insert { key: a, value: 77 }));
        src.enqueue(record(
            0,
            WalOp::MoveIntent {
                move_id: 999,
                peer_shard: d as u64,
                from: a,
                to: b,
                value: 77,
            },
        ));
        // The concurrent committed delete that failed the live move.
        src.enqueue(record(2, WalOp::Delete { key: a }));
        src.flush().unwrap();
        let dst = Wal::open(
            shard_dir(base.path(), d),
            1,
            WalOptions {
                group: 8,
                ..WalOptions::default()
            },
        )
        .unwrap();
        dst.enqueue(record(
            1,
            WalOp::MoveInsert {
                move_id: 999,
                key: b,
                value: 77,
            },
        ));
        // The live rollback's retraction, durable before the crash...
        dst.enqueue(record(
            2,
            WalOp::MoveDelete {
                move_id: 999,
                key: b,
            },
        ));
        // ...and an acknowledged client re-insert of the same value.
        dst.enqueue(record(3, WalOp::Insert { key: b, value: 77 }));
        dst.flush().unwrap();
    }

    let expected = vec![(b, 77)];
    {
        let (_map, resumed) =
            open_sharded(2, base.path(), WalOptions::default()).expect("reopen sharded");
        assert_eq!(resumed.moves_resolved, 1);
        assert_eq!(resumed.entries, expected, "the client insert survives");
    }

    // Second crash that additionally loses the reopen's commit marker (the
    // source shard's fresh segment holds nothing else): the join re-runs
    // and must short-circuit on the durable retraction, converging to the
    // same state.
    let marker_segment = shard_dir(base.path(), s).join("segment-00000002.wal");
    assert!(marker_segment.exists());
    std::fs::remove_file(&marker_segment).unwrap();
    let again = recover_sharded(base.path(), 2).expect("recover after marker loss");
    assert_eq!(again.entries, expected);
    assert_eq!(again.moves_resolved, 1, "re-resolved, not re-judged");
}

/// A crash during the very first sharded open — after the layout marker
/// and some (but not all) shard directories exist — must not brick the
/// directory: the marker declares the layout, so the matching count
/// reopens (missing shards recover empty) while a mismatched count still
/// fails loudly.
#[test]
fn crashed_first_open_does_not_brick_the_directory() {
    let base = TempDir::new("dur-first-crash");
    {
        let _ = open_sharded(2, base.path(), WalOptions::default()).expect("first open");
    }
    // Simulate the crash having hit before shard 1 was created (its empty
    // segment file and directory never made it to disk).
    std::fs::remove_dir_all(shard_dir(base.path(), 1)).unwrap();
    let (_map, resumed) =
        open_sharded(2, base.path(), WalOptions::default()).expect("the declared layout reopens");
    assert!(resumed.entries.is_empty());
    assert!(
        open_sharded(4, base.path(), WalOptions::default()).is_err(),
        "the marker keeps count mismatches loud"
    );
}

/// The shard-count validation at the composition level: a 2-shard base
/// refuses to open (or recover) as anything but 2 shards.
#[test]
fn sharded_open_rejects_a_mismatched_shard_count() {
    let base = TempDir::new("dur-shardcount");
    {
        let (map, _) =
            open_sharded(2, base.path(), WalOptions::default()).expect("open sharded WAL");
        let mut handle = map.register_sharded();
        for key in 0..32u64 {
            map.insert(&mut handle, key, key);
        }
    }
    let err = recover_sharded(base.path(), 1).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert!(
        open_sharded(3, base.path(), WalOptions::default()).is_err(),
        "reopening with a different shard count must fail loudly"
    );
    let (map, resumed) =
        open_sharded(2, base.path(), WalOptions::default()).expect("matching count reopens");
    assert_eq!(resumed.entries.len(), 32);
    drop(map);
}
