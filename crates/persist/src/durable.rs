//! [`DurableMap`]: the durability decorator any versioned backend opts into.
//!
//! `DurableMap<M>` wraps a [`TxMapVersioned`] backend and logs every
//! *effective* top-level mutation (insert that changed the map, delete,
//! compare-and-delete, move) as a redo record stamped with the STM commit
//! version. The record is enqueued from a
//! [`sf_stm::Transaction::on_commit_versioned`] hook of the winning attempt
//! — right after the commit point, before the operation returns — and the
//! operation then waits on the group-commit writer, so **when a mutating
//! call returns, its record is durable** (unless the log runs in buffered
//! mode, `group == 0`).
//!
//! Lookups and scans pass straight through: durability costs nothing on the
//! read path.
//!
//! ## Checkpoints
//!
//! [`DurableMap::checkpoint`] bounds recovery time: it seals the current log
//! segment ([`Wal::rotate`]), takes one atomic
//! [`TxMapVersioned::snapshot_versioned`] of the backend (a PR 2 read-only
//! range scan, which also yields the snapshot's serialization version), and
//! durably installs the image before deleting the sealed segments. The
//! ordering makes the race with concurrent writers safe:
//!
//! * a record that landed in a sealed segment was enqueued before the
//!   rotation, so its transaction committed before the snapshot began and
//!   the image covers it — deleting the segment loses nothing;
//! * a record enqueued after the rotation lives in the surviving segment;
//!   if its version is `<=` the snapshot version it is skipped at replay
//!   (the image already reflects it), otherwise it is replayed on top.
//!
//! ## Sharded composition
//!
//! A sharded durable map is `ShardedMap<DurableMap<M>>` — **one log per
//! shard**, preserving the sharded map's property that shards share no
//! synchronization. [`sharded_spec_friendly`] builds one (with per-shard
//! `shard-<i>` directories), [`checkpoint_sharded`] checkpoints every shard
//! under [`sf_tree::ShardedMap::pause_maintenance`], and
//! [`crate::recovery::recover_sharded`] merges the per-shard recoveries.
//!
//! A **cross-shard move** spans two shard logs, so neither log alone can
//! make it atomic. The composition closes the crash window with a
//! two-phase intent protocol driven through the [`TxMap`] move hooks: the
//! source shard fsyncs a `MoveIntent` before either half commits, both
//! halves are logged stamped with a shared move id (`MoveInsert` /
//! `MoveDelete`), and a `MoveCommit` marks the move resolved; recovery
//! joins the logs by move id and deterministically completes or rolls back
//! an interrupted move ([`crate::recovery`]). While a move is in flight,
//! both shards' checkpoint locks are held so a checkpoint can never
//! truncate an unresolved intent or half out of a log. Automatic
//! checkpoints therefore cannot fire from *inside* the move protocol — but
//! they are not lost: in writer-thread mode the trigger stays **deferred**
//! in the log's writer thread, which retries with a `try_lock` on every
//! wakeup and checkpoints the moment the move scope releases the lock, so
//! even a purely move-driven durable workload checkpoints automatically.
//!
//! ## Checkpoint triggers
//!
//! With `SF_WAL_WRITER=thread` (the default), the auto-checkpoint triggers
//! — a size threshold ([`WalOptions::auto_checkpoint`], `SF_WAL_CKPT`) and
//! a time interval ([`WalOptions::checkpoint_interval`], `SF_WAL_CKPT_MS`)
//! — are evaluated by the log's writer thread between flush batches, via a
//! hook installed at open. Mutators never run a checkpoint inline; the
//! whole snapshot + install happens off the hot path. Under the leader
//! fallback (and in buffered mode) the pre-writer behavior remains: the
//! size trigger is checked inline after each durable mutation.

use std::io;
use std::ops::RangeInclusive;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use sf_obs::{EventKind, FlightRecorder, Sampler};
use sf_stm::{Stm, StmConfig, ThreadCtx, Transaction, TxResult};
use sf_tree::maintenance::{MaintenanceConfig, MaintenanceHandle};
use sf_tree::{
    intern_label, FindSpec, Key, SfTree, ShardParts, ShardedHandle, ShardedMap, TxMap,
    TxMapVersioned, Value,
};

use crate::log::{Wal, WalOptions, WriterMode};
use crate::record::{WalOp, WalRecord};
use crate::recovery::{recover, recover_sharded_parts, shard_dir, Recovery};
use crate::stats;

/// Per-thread handle of a [`DurableMap`]: the inner backend's handle plus a
/// slot the commit hook uses to hand the enqueued record's sequence number
/// back to the operation (hooks may only capture owned state).
pub struct DurableHandle<M: TxMap> {
    inner: M::Handle,
    ticket: Arc<AtomicU64>,
    /// Decimates the commit path's enqueue-to-durable wait timing
    /// (`SF_OBS_SAMPLE`), so the sync path only reads the clock 1-in-N.
    sampler: Sampler,
}

impl<M: TxMap> DurableHandle<M> {
    /// The wrapped backend handle (e.g. to drive the inner map directly in
    /// tests; mutations through it bypass the log).
    pub fn inner_mut(&mut self) -> &mut M::Handle {
        &mut self.inner
    }
}

/// Report of one completed checkpoint.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointReport {
    /// The snapshot's serialization version (records above it stay live).
    pub version: u64,
    /// Entries written to the image.
    pub entries: u64,
    /// The log segment sealed and (after install) deleted through.
    pub sealed_segment: u64,
}

/// A durability decorator over any [`TxMapVersioned`] backend. See the
/// [module docs](self).
pub struct DurableMap<M: TxMap> {
    inner: Arc<M>,
    wal: Arc<Wal>,
    options: WalOptions,
    /// Serializes checkpoints (explicit, inline automatic, and the writer
    /// thread's trigger hook — which `try_lock`s it, so a held lock defers
    /// rather than blocks the writer). Shared with the hook, hence `Arc`.
    checkpoint_lock: Arc<Mutex<()>>,
    label: &'static str,
}

/// One-time loud warning that buffered mode (`group == 0`) forfeits the
/// durability contract in a context that visibly relies on it (crash drills,
/// the cross-shard move protocol's fsync ordering).
fn warn_buffered_once(context: &str) {
    static WARNED: std::sync::Once = std::sync::Once::new();
    WARNED.call_once(|| {
        eprintln!(
            "sf-persist: WARNING: WAL group=0 (buffered mode) provides NO per-operation \
             durability, but {context}; a crash loses the buffered tail. \
             Set SF_WAL_GROUP>0 if this run is meant to test durability."
        );
    });
}

impl<M: TxMapVersioned + 'static> DurableMap<M> {
    /// Open a durable map over `inner`, recovering any existing
    /// `checkpoint + log` state in `dir` **into** the (expected-fresh) inner
    /// map first: recovered entries are bulk-inserted through a bootstrap
    /// handle (bypassing the log — they are already durable) and `stm`'s
    /// clock is advanced past the highest recovered version so new commits
    /// log strictly above it. A torn tail left by the crash is durably
    /// discarded ([`crate::recovery::repair_torn_tail`]) — otherwise a
    /// *second* crash would hit the stale corruption and throw away every
    /// segment this incarnation writes. Appending resumes in a fresh
    /// segment.
    pub fn open(
        inner: Arc<M>,
        stm: &Arc<Stm>,
        dir: impl Into<PathBuf>,
        options: WalOptions,
    ) -> io::Result<(DurableMap<M>, Recovery)> {
        let dir = dir.into();
        let recovery = recover(&dir)?;
        let map = DurableMap::open_recovered(inner, stm, dir, options, &recovery, Vec::new())?;
        Ok((map, recovery))
    }

    /// [`DurableMap::open`] with a precomputed (possibly cross-shard
    /// resolved) recovery, plus `resolution` records to append durably to
    /// the fresh segment *before* any new mutation can be logged — this is
    /// how [`sharded_with`] persists the outcome of the cross-log move
    /// resolution so a later crash replays to the same state.
    fn open_recovered(
        inner: Arc<M>,
        stm: &Arc<Stm>,
        dir: PathBuf,
        options: WalOptions,
        recovery: &Recovery,
        resolution: Vec<WalRecord>,
    ) -> io::Result<DurableMap<M>> {
        crate::recovery::repair_torn_tail(&dir, recovery)?;
        let wal = Wal::open(dir, recovery.last_segment + 1, options)?;
        if !resolution.is_empty() {
            for record in resolution {
                wal.enqueue(record);
            }
            wal.flush()?;
        }
        if !recovery.entries.is_empty() {
            // Batch the bootstrap: one transaction per chunk, not per entry —
            // restart time is exactly what checkpoints exist to bound.
            let mut bootstrap = inner.register(stm.register());
            for chunk in recovery.entries.chunks(64) {
                inner.atomically_versioned(&mut bootstrap, |map, tx| {
                    for &(key, value) in chunk {
                        map.tx_insert(tx, key, value)?;
                    }
                    Ok(())
                });
            }
        }
        stm.clock().advance_to(recovery.last_version);
        let label = intern_label(format!("{}+wal", inner.name()));
        let checkpoint_lock = Arc::new(Mutex::named((), "durable.checkpoint"));
        if options.group == 0 && std::env::var_os("SF_RECOVERY_SMOKE").is_some() {
            warn_buffered_once("SF_RECOVERY_SMOKE is set (a crash drill is running)");
        }
        let triggers_in_writer = options.group > 0
            && options.writer == WriterMode::Thread
            && (options.auto_checkpoint > 0 || options.checkpoint_interval.is_some());
        if triggers_in_writer {
            // The writer thread evaluates the size/time triggers and calls
            // this hook between batches. The hook owns its own backend
            // handle and shares only the checkpoint lock with the map — it
            // must NOT capture the Wal (the writer thread holding an
            // `Arc<Wal>` would keep its own shutdown from ever running).
            let hook_inner = Arc::clone(&inner);
            let mut hook_handle = hook_inner.register(stm.register());
            let hook_lock = Arc::clone(&checkpoint_lock);
            wal.set_checkpoint_hook(Box::new(move |shared| {
                let guard = match hook_lock.try_lock() {
                    Some(guard) => guard,
                    // Held by a move scope or an explicit checkpoint:
                    // stay deferred, the writer retries on its next wakeup.
                    None => return false,
                };
                // rotate() drains inline on the writer thread; the snapshot
                // is a read-only STM transaction (no log records, no
                // sync_to), so the hook can never wait on the writer itself.
                let result: io::Result<()> = (|| {
                    let sealed = shared.rotate()?;
                    let (entries, version) = hook_inner.snapshot_versioned(&mut hook_handle);
                    shared.install_checkpoint(version, &entries, sealed)?;
                    Ok(())
                })();
                drop(guard);
                if let Err(error) = result {
                    // Never panic here — a dead writer thread would hang
                    // every parked sync_to waiter. The log itself still
                    // holds the records; only truncation is lost.
                    eprintln!("sf-persist: trigger-driven checkpoint failed: {error}");
                }
                true
            }));
        }
        Ok(DurableMap {
            inner,
            wal: Arc::new(wal),
            options,
            checkpoint_lock,
            label,
        })
    }

    /// Durably append protocol control records (recovery-resolution commit
    /// markers) outside any mutation path.
    pub(crate) fn append_control(&self, records: Vec<WalRecord>) -> io::Result<()> {
        for record in records {
            self.wal.enqueue(record);
        }
        self.wal.flush()
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &Arc<M> {
        &self.inner
    }

    /// The log directory.
    pub fn dir(&self) -> &Path {
        self.wal.dir()
    }

    /// Records logged since the last completed checkpoint.
    pub fn records_since_checkpoint(&self) -> u64 {
        self.wal.records_since_checkpoint()
    }

    /// Write and sync every buffered record (meaningful in buffered mode,
    /// `group == 0`; a no-op otherwise because mutations sync themselves).
    pub fn flush(&self) -> io::Result<()> {
        self.wal.flush()
    }

    /// Checkpoint: seal the log, snapshot the backend atomically, durably
    /// install the image, and truncate the sealed log prefix. Safe against
    /// concurrent mutators (see the [module docs](self)); concurrent
    /// checkpoints serialize.
    pub fn checkpoint(&self, handle: &mut DurableHandle<M>) -> io::Result<CheckpointReport> {
        let _guard = self.checkpoint_lock.lock();
        self.checkpoint_locked(&mut handle.inner)
    }

    fn checkpoint_locked(&self, inner_handle: &mut M::Handle) -> io::Result<CheckpointReport> {
        let sealed = self.wal.rotate()?;
        let (entries, version) = self.inner.snapshot_versioned(inner_handle);
        self.wal.install_checkpoint(version, &entries, sealed)?;
        Ok(CheckpointReport {
            version,
            entries: entries.len() as u64,
            sealed_segment: sealed,
        })
    }

    /// Run one logged mutation: execute `body` as the inner map's versioned
    /// transaction and, when it reports an effective change, enqueue `op`
    /// stamped with the winning attempt's commit version from its commit
    /// hook, then wait for the record's durability (via
    /// [`DurableMap::finish_mutation`]).
    fn logged_mutation(
        &self,
        handle: &mut DurableHandle<M>,
        op: WalOp,
        mut body: impl for<'t> FnMut(&'t M, &mut Transaction<'t>) -> TxResult<bool>,
    ) -> bool {
        let wal = Arc::clone(&self.wal);
        let ticket = Arc::clone(&handle.ticket);
        let (changed, _version) =
            self.inner
                .atomically_versioned(&mut handle.inner, move |map, tx| {
                    let changed = body(map, tx)?;
                    if changed {
                        let wal = Arc::clone(&wal);
                        let ticket = Arc::clone(&ticket);
                        tx.on_commit_versioned(move |version| {
                            let seq = wal.enqueue(WalRecord { version, op });
                            // sf-lint: allow(relaxed-atomic, same-thread handoff; the mutator that stored the ticket reads it back in finish_mutation)
                            ticket.store(seq, Ordering::Relaxed);
                        });
                    }
                    Ok(changed)
                });
        self.finish_mutation(handle);
        changed
    }

    /// After a logged mutation: wait for its record's durability. Under the
    /// leader fallback (and buffered mode) this also runs the inline
    /// size-triggered automatic checkpoint; in writer-thread mode the
    /// triggers live in the writer thread instead, so the mutator returns
    /// the moment its record is durable.
    fn finish_mutation(&self, handle: &mut DurableHandle<M>) {
        // sf-lint: allow(relaxed-atomic, same-thread handoff; reads back the ticket this thread stored in its commit hook)
        let seq = handle.ticket.swap(0, Ordering::Relaxed);
        if seq == 0 {
            return;
        }
        if handle.sampler.tick() {
            let started = std::time::Instant::now();
            self.wal.sync_to(seq);
            self.wal.stats().note_sync_wait(started.elapsed());
        } else {
            self.wal.sync_to(seq);
        }
        let triggers_in_writer =
            self.options.group > 0 && self.options.writer == WriterMode::Thread;
        if !triggers_in_writer
            && self.options.auto_checkpoint > 0
            && self.wal.records_since_checkpoint() >= self.options.auto_checkpoint
        {
            if let Some(_guard) = self.checkpoint_lock.try_lock() {
                self.checkpoint_locked(&mut handle.inner)
                    .expect("automatic checkpoint failed");
            }
        }
    }
}

impl<M: TxMapVersioned + 'static> TxMap for DurableMap<M> {
    type Handle = DurableHandle<M>;

    fn register(&self, ctx: ThreadCtx) -> DurableHandle<M> {
        DurableHandle {
            inner: self.inner.register(ctx),
            ticket: Arc::new(AtomicU64::new(0)),
            sampler: Sampler::from_env(),
        }
    }

    fn contains(&self, handle: &mut DurableHandle<M>, key: Key) -> bool {
        self.inner.contains(&mut handle.inner, key)
    }

    fn get(&self, handle: &mut DurableHandle<M>, key: Key) -> Option<Value> {
        self.inner.get(&mut handle.inner, key)
    }

    fn insert(&self, handle: &mut DurableHandle<M>, key: Key, value: Value) -> bool {
        self.logged_mutation(handle, WalOp::Insert { key, value }, move |map, tx| {
            map.tx_insert(tx, key, value)
        })
    }

    fn delete(&self, handle: &mut DurableHandle<M>, key: Key) -> bool {
        self.logged_mutation(handle, WalOp::Delete { key }, move |map, tx| {
            map.tx_delete(tx, key)
        })
    }

    fn delete_if(&self, handle: &mut DurableHandle<M>, key: Key, expected: Value) -> bool {
        self.logged_mutation(handle, WalOp::Delete { key }, move |map, tx| {
            map.tx_delete_if(tx, key, expected)
        })
    }

    fn move_entry(&self, handle: &mut DurableHandle<M>, from: Key, to: Key) -> bool {
        let wal = Arc::clone(&self.wal);
        let ticket = Arc::clone(&handle.ticket);
        let (moved, _version) =
            self.inner
                .atomically_versioned(&mut handle.inner, move |map, tx| {
                    if from == to {
                        // A self-move is a membership test: nothing to log.
                        return map.tx_contains(tx, from);
                    }
                    let value = match map.tx_get(tx, from)? {
                        Some(value) => value,
                        None => return Ok(false),
                    };
                    let moved = map.tx_move(tx, from, to)?;
                    if moved {
                        let wal = Arc::clone(&wal);
                        let ticket = Arc::clone(&ticket);
                        // One record for both halves: a torn tail can never
                        // recover the delete without the insert.
                        tx.on_commit_versioned(move |version| {
                            let seq = wal.enqueue(WalRecord {
                                version,
                                op: WalOp::Move { from, to, value },
                            });
                            // sf-lint: allow(relaxed-atomic, same-thread handoff; the mutator that stored the ticket reads it back in finish_mutation)
                            ticket.store(seq, Ordering::Relaxed);
                        });
                    }
                    Ok(moved)
                });
        self.finish_mutation(handle);
        moved
    }

    /// Source-shard scope of a cross-shard move: fsync a
    /// [`WalOp::MoveIntent`] *before* either half commits, run the
    /// completion, then fsync the [`WalOp::MoveCommit`] resolution marker.
    /// The checkpoint lock is held throughout so no checkpoint can truncate
    /// the intent out of the log while the move is unresolved (checkpoints
    /// that would fire from inside the scope use `try_lock` and simply
    /// skip). In buffered mode (`group == 0`) the intent is only buffered:
    /// the log forfeits per-operation durability there, and with it the
    /// cross-shard crash-atomicity guarantee — the recovery join relies on
    /// the protocol's fsync ordering, which buffered mode does not perform.
    fn move_source_scope(
        &self,
        move_id: u64,
        peer: usize,
        from: Key,
        to: Key,
        value: Value,
        body: &mut dyn FnMut() -> bool,
    ) -> bool {
        if self.options.group == 0 {
            warn_buffered_once(
                "a cross-shard move is running, whose crash atomicity relies on fsync ordering",
            );
        }
        crate::chk::sched_point(crate::chk::SchedEvent::Move);
        let _guard = self.checkpoint_lock.lock();
        let seq = self.wal.enqueue(WalRecord {
            version: 0,
            op: WalOp::MoveIntent {
                move_id,
                peer_shard: peer as u64,
                from,
                to,
                value,
            },
        });
        self.wal.sync_to(seq);
        stats::note_move_intent();
        FlightRecorder::global().record(EventKind::MoveIntent, move_id, from);
        let moved = body();
        // The marker carries the maximum version so the group-commit
        // writer's within-batch version sort can never place it ahead of
        // the move's own stamped halves in the file: a torn batch write
        // (buffered mode puts the whole move in one batch) that kept the
        // marker but lost the delete half would otherwise commit a
        // duplicate forever. Recovery ignores marker versions entirely.
        let seq = self.wal.enqueue(WalRecord {
            version: u64::MAX,
            op: WalOp::MoveCommit { move_id },
        });
        self.wal.sync_to(seq);
        moved
    }

    /// Destination-shard scope of a cross-shard move: hold the checkpoint
    /// lock so the stamped insert half cannot be checkpoint-truncated out
    /// of this log while the source's intent is still unresolved.
    fn move_peer_scope(&self, _move_id: u64, body: &mut dyn FnMut() -> bool) -> bool {
        let _guard = self.checkpoint_lock.lock();
        body()
    }

    /// The destination half: like [`TxMap::insert`] but logged as a
    /// [`WalOp::MoveInsert`] stamped with the move id.
    fn move_insert(
        &self,
        handle: &mut DurableHandle<M>,
        move_id: u64,
        key: Key,
        value: Value,
    ) -> bool {
        let op = WalOp::MoveInsert {
            move_id,
            key,
            value,
        };
        self.logged_mutation(handle, op, move |map, tx| map.tx_insert(tx, key, value))
    }

    /// The source half (or rollback retraction): like [`TxMap::delete_if`]
    /// but logged as a [`WalOp::MoveDelete`] stamped with the move id.
    fn move_delete_if(
        &self,
        handle: &mut DurableHandle<M>,
        move_id: u64,
        key: Key,
        expected: Value,
    ) -> bool {
        self.logged_mutation(
            handle,
            WalOp::MoveDelete { move_id, key },
            move |map, tx| map.tx_delete_if(tx, key, expected),
        )
    }

    fn range_collect(
        &self,
        handle: &mut DurableHandle<M>,
        range: RangeInclusive<Key>,
    ) -> Vec<(Key, Value)> {
        self.inner.range_collect(&mut handle.inner, range)
    }

    fn len(&self, handle: &mut DurableHandle<M>) -> usize {
        self.inner.len(&mut handle.inner)
    }

    fn len_quiescent(&self) -> usize {
        self.inner.len_quiescent()
    }

    fn hot_report(&self) -> Option<sf_tree::HotReport> {
        self.inner.hot_report()
    }

    fn name(&self) -> &'static str {
        self.label
    }
}

/// Build a sharded durable map: `shards` inner maps produced by `make`
/// (returning each shard's STM, map, and optional maintenance thread), each
/// wrapped in a [`DurableMap`] logging to `base/shard-<i>`, recovering any
/// existing state. Recovery validates the on-disk shard count, runs the
/// cross-log move resolution over all shard logs
/// ([`crate::recovery::recover_sharded`]'s join), and durably appends each
/// resolution to the affected logs before any new mutation can be logged.
/// Returns the composed map and the merged recovery report.
pub fn sharded_with<M>(
    shards: usize,
    base: &Path,
    options: WalOptions,
    mut make: impl FnMut(usize) -> (Arc<Stm>, Arc<M>, Option<MaintenanceHandle>),
) -> io::Result<(ShardedMap<DurableMap<M>>, Recovery)>
where
    M: TxMapVersioned + 'static,
    M::Handle: Send,
{
    let (per, mut plan) = recover_sharded_parts(base, shards)?;
    // Durably declare the layout before any shard state exists: a crash at
    // any later point of this open (even between the shard-directory
    // creations) leaves an unambiguous marker, so the next open validates
    // against the declaration instead of guessing from partial directories.
    crate::recovery::write_layout_marker(base, shards)?;
    // Make move-id reuse against the recovered logs impossible: stale
    // protocol records (e.g. a destination-half insert whose intent was
    // long checkpointed away) are matched by id in the recovery join, so a
    // fresh incarnation must allocate strictly above everything on disk.
    let max_move_id = per.iter().map(|r| r.max_move_id).max().unwrap_or(0);
    sf_tree::sharded::advance_move_ids(max_move_id.saturating_add(1));
    // Create every shard directory before opening any: a crash during the
    // very first open then leaves at worst a set of empty directories,
    // which the layout validation treats as absent.
    for shard in 0..shards {
        std::fs::create_dir_all(shard_dir(base, shard))?;
    }
    let mut merged = Recovery::default();
    let mut parts: Vec<Option<ShardParts<DurableMap<M>>>> = Vec::with_capacity(shards);
    for (shard, one) in per.into_iter().enumerate() {
        let (stm, map, maintenance) = make(shard);
        let state_fixes = std::mem::take(&mut plan.state[shard]);
        let durable = DurableMap::open_recovered(
            map,
            &stm,
            shard_dir(base, shard),
            options,
            &one,
            state_fixes,
        )?;
        merged.absorb(one);
        parts.push(Some(ShardParts {
            stm,
            map: Arc::new(durable),
            maintenance,
        }));
    }
    // Only now, with every shard's state fixes durable, neutralize the
    // resolved intents (the plan's ordering contract): a commit marker that
    // became durable *before* a cross-shard state fix would make a later
    // recovery skip the join while the fix is still unapplied. Crashing
    // between the two phases is safe — the next open re-runs the join,
    // which short-circuits on the now-durable stamped deletes.
    for (part, markers) in parts.iter().zip(plan.commits) {
        if !markers.is_empty() {
            part.as_ref()
                .expect("shard was just built")
                .map
                .append_control(markers)?;
        }
    }
    merged.entries.sort_unstable();
    let map = ShardedMap::new_with(shards, |shard| {
        parts[shard]
            .take()
            .expect("each shard is built exactly once")
    });
    Ok((map, merged))
}

/// A sharded durable speculation-friendly tree of variant `F`: per shard, one
/// STM instance, one tree with a maintenance thread tuned by `maintenance`,
/// and one log under `base/shard-<i>`.
pub fn sharded_spec_friendly<F: FindSpec>(
    shards: usize,
    stm_config: StmConfig,
    base: &Path,
    options: WalOptions,
    maintenance: MaintenanceConfig,
) -> io::Result<(ShardedMap<DurableMap<SfTree<F>>>, Recovery)> {
    sharded_with(shards, base, options, |_| {
        let stm = Stm::new(stm_config.clone());
        let map = Arc::new(SfTree::new());
        let rotator = map.start_maintenance_with(stm.register(), maintenance.clone());
        (stm, map, Some(rotator))
    })
}

/// Checkpoint every shard of a sharded durable map with all rotator threads
/// parked ([`ShardedMap::pause_maintenance`]): full-tree snapshot scans and
/// structural maintenance would otherwise fight over the same nodes, which
/// on a loaded host turns the snapshot into an abort storm. Each shard's
/// checkpoint is still individually safe against concurrent *mutators* —
/// pausing maintenance is a throughput choice, not a correctness one.
pub fn checkpoint_sharded<M>(
    map: &ShardedMap<DurableMap<M>>,
    handle: &mut ShardedHandle<DurableMap<M>>,
) -> io::Result<Vec<CheckpointReport>>
where
    M: TxMapVersioned + 'static,
    M::Handle: Send,
{
    let _paused = map.pause_maintenance();
    let mut reports = Vec::with_capacity(map.shard_count());
    for shard in 0..map.shard_count() {
        let durable = Arc::clone(map.shard_map(shard));
        reports.push(durable.checkpoint(handle.shard_handle_mut(shard))?);
    }
    Ok(reports)
}
