//! The micro-benchmark driver: populate a map, run a timed (or
//! operation-bounded) mixed workload over it from N threads, and report
//! throughput together with the STM-level statistics (aborts, transactional
//! reads, read-set high-water marks) that the paper's Table 1 and Figures 3-5
//! are built from.
//!
//! The driver runs over [`Backend`]s — the object-safe wrapper of the
//! [`backend`](crate::backend) registry — so one loop serves every
//! structure, including multi-STM ones like the sharded tree. The generic
//! [`run_workload`] / [`populate_and_run`] entry points wrap caller-owned
//! `(stm, map)` pairs into an ephemeral [`Backend`] and funnel into the same
//! code path.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use sf_obs::Sampler;
use sf_stm::{StatsSnapshot, Stm};
use sf_tree::TxMap;

use crate::backend::{Backend, MapSession};
use crate::chk;
use crate::config::{RunLength, WorkloadConfig};
use crate::keygen::{KeyGen, OpKind};
use crate::latency::{self, LatencyReport};

/// Per-thread operation counts.
#[derive(Debug, Default, Clone, Copy)]
struct ThreadReport {
    ops: u64,
    effective_updates: u64,
    attempted_updates: u64,
    effective_moves: u64,
    successful_lookups: u64,
    scans: u64,
    scanned_entries: u64,
}

/// Aggregated result of one micro-benchmark run.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// Structure label (e.g. `SFtree`, `OptSFtree-sharded8`).
    pub structure: String,
    /// Number of application threads.
    pub threads: usize,
    /// Total completed operations across all threads.
    pub total_ops: u64,
    /// Updates that modified the structure (the paper's *effective* updates).
    pub effective_updates: u64,
    /// Update attempts including the ones that failed (e.g. deleting an
    /// absent key).
    pub attempted_updates: u64,
    /// Effective move operations (Figure 5(b)).
    pub effective_moves: u64,
    /// Membership tests that found their key.
    pub successful_lookups: u64,
    /// Completed range scans.
    pub scans: u64,
    /// Total live entries returned across all range scans.
    pub scanned_entries: u64,
    /// The seed the workload's key streams were derived from (`SF_SEED`).
    pub seed: u64,
    /// Wall-clock duration of the measured phase.
    pub elapsed: Duration,
    /// STM statistics accumulated during the measured phase (the populate
    /// phase is excluded by resetting the counters), aggregated over every
    /// STM instance of the backend.
    pub stm: StatsSnapshot,
    /// WAL (durability) work during the measured phase: the delta of the
    /// process-wide [`sf_persist::stats`] counters across the run. All
    /// zeros when the backend is not a `+wal` variant.
    pub wal: sf_persist::WalStats,
    /// Hot-key summary taken (quiescently) after the measured phase: hot
    /// rotations performed, sampled access mass and its average depth, and
    /// the hottest key's depth. All zeros for backends without access
    /// sampling (baselines).
    pub hot: sf_tree::HotReport,
    /// Latency distributions of the measured phase: sampled operation
    /// latency per kind, the WAL's sync wait and fsync duration, and
    /// maintenance pass cost. Computed as the delta of the process-wide
    /// histograms across the run.
    pub lat: LatencyReport,
}

impl WorkloadResult {
    /// Throughput in operations per microsecond (the unit of Figures 3-5).
    pub fn ops_per_microsecond(&self) -> f64 {
        self.total_ops as f64 / self.elapsed.as_micros().max(1) as f64
    }

    /// Observed effective update ratio.
    pub fn effective_update_ratio(&self) -> f64 {
        if self.total_ops == 0 {
            0.0
        } else {
            self.effective_updates as f64 / self.total_ops as f64
        }
    }

    /// Abort ratio observed during the measured phase.
    pub fn abort_ratio(&self) -> f64 {
        self.stm.abort_ratio()
    }
}

/// Fill the map through `session` until it holds
/// `min(initial_size, key_range)` live keys, inserting keys drawn uniformly
/// from the key range (single-threaded, before the measured phase). The
/// target is a live count, not a number of effective inserts, so a map
/// that starts non-empty — e.g. recovered from a reopened `+wal` directory —
/// never asks for more free keys than the range holds.
fn populate_session(session: &mut dyn MapSession, config: &WorkloadConfig) {
    let target = config.initial_size.min(config.key_range as usize);
    let mut gen = KeyGen::new(
        config.seed ^ 0xb0b0_b0b0,
        0xffff,
        config.key_range,
        0.0,
        0.0,
        None,
    );
    let mut live = session.len();
    while live < target {
        let key = gen.uniform_key();
        if session.insert(key, key) {
            live += 1;
        }
    }
}

/// [`populate_backend`] for a caller-owned `(stm, map)` pair.
pub fn populate<M>(stm: &Arc<Stm>, map: &Arc<M>, config: &WorkloadConfig)
where
    M: TxMap + 'static,
    M::Handle: Send + 'static,
{
    let backend = Backend::from_parts(Arc::clone(map), vec![Arc::clone(stm)]);
    populate_backend(&backend, config);
}

/// Populate a registry-built backend (single-threaded).
pub fn populate_backend(backend: &Backend, config: &WorkloadConfig) {
    populate_session(backend.session().as_mut(), config);
}

/// One worker thread's measured loop.
fn worker_loop(
    session: &mut dyn MapSession,
    gen: &mut KeyGen,
    run: RunLength,
    stop: &AtomicBool,
    barrier: &Barrier,
    mut oplog: chk::WorkerLog,
) -> ThreadReport {
    let mut report = ThreadReport::default();
    let mut sampler = Sampler::from_env();
    barrier.wait();
    let op_budget = match run {
        RunLength::Ops(n) => n,
        RunLength::Timed(_) => u64::MAX,
    };
    // sf-lint: allow(relaxed-atomic, stop flag polled per op; a stale read only runs one extra operation)
    while report.ops < op_budget && !stop.load(Ordering::Relaxed) {
        let op = gen.next_op();
        // 1-in-N latency sampling: the untimed path never reads the clock.
        let timed_since = if sampler.tick() {
            Some(Instant::now())
        } else {
            None
        };
        match op {
            OpKind::Contains => {
                let key = gen.lookup_key();
                let ticket = oplog.invoke(chk::Op::Contains(key));
                let found = session.contains(key);
                oplog.complete(ticket, chk::Ret::Bool(found));
                if found {
                    report.successful_lookups += 1;
                }
            }
            OpKind::Insert => {
                let key = gen.insert_key();
                report.attempted_updates += 1;
                let ticket = oplog.invoke(chk::Op::Insert(key, key));
                let inserted = session.insert(key, key);
                oplog.complete(ticket, chk::Ret::Bool(inserted));
                if inserted {
                    report.effective_updates += 1;
                }
            }
            OpKind::Delete => {
                let key = gen.delete_key();
                report.attempted_updates += 1;
                let ticket = oplog.invoke(chk::Op::Delete(key));
                let deleted = session.delete(key);
                oplog.complete(ticket, chk::Ret::Bool(deleted));
                if deleted {
                    report.effective_updates += 1;
                }
            }
            OpKind::Move => {
                let from = gen.delete_key();
                let to = gen.insert_key();
                report.attempted_updates += 1;
                let ticket = oplog.invoke(chk::Op::Move(from, to));
                let moved = session.move_entry(from, to);
                oplog.complete(ticket, chk::Ret::Bool(moved));
                if moved {
                    report.effective_updates += 1;
                    report.effective_moves += 1;
                }
            }
            OpKind::Scan => {
                let (lo, hi) = gen.scan_range();
                report.scans += 1;
                let ticket = oplog.invoke(chk::Op::Scan(lo, hi));
                let entries = session.range_collect(lo, hi);
                report.scanned_entries += entries.len() as u64;
                oplog.complete(ticket, chk::Ret::Entries(entries));
            }
        }
        if let Some(started) = timed_since {
            latency::record_op(op, started.elapsed());
        }
        report.ops += 1;
    }
    oplog.finish();
    report
}

/// Run the measured phase of the workload over an already-populated backend.
///
/// STM statistics are reset at the start of the measured phase so the
/// returned snapshot covers only the measured operations.
pub fn run_workload_backend(backend: &Backend, config: &WorkloadConfig) -> WorkloadResult {
    assert!(
        config.threads >= 1,
        "at least one worker thread is required"
    );
    backend.reset_stats();
    // Expose this run's live state on the metrics registry (the periodic
    // emitter picks it up); unregistered when the run returns.
    let _metrics = backend.metrics_source();
    let wal_before = sf_persist::stats::snapshot();
    let lat_before = latency::LatencyBaseline::take();
    // Arm whatever SF_CHECK_* asks for (check builds only). The initial
    // snapshot for the history checker is taken here, after populate.
    let checks = chk::RunChecks::arm(|| backend.session().range_collect(0, u64::MAX));
    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(config.threads + 1);
    let run = config.run;
    let (reports, elapsed) = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..config.threads)
            .map(|thread_index| {
                let mut session = backend.session();
                let mut gen = KeyGen::for_config(config, thread_index);
                let oplog = checks.worker();
                let (stop, barrier) = (&stop, &barrier);
                scope.spawn(move || {
                    worker_loop(session.as_mut(), &mut gen, run, stop, barrier, oplog)
                })
            })
            .collect();
        barrier.wait();
        let started = Instant::now();
        if let RunLength::Timed(duration) = run {
            std::thread::sleep(duration);
            // sf-lint: allow(relaxed-atomic, stop flag; the worker joins that follow provide the final synchronization)
            stop.store(true, Ordering::Relaxed);
        }
        let reports: Vec<ThreadReport> = workers
            .into_iter()
            .map(|w| w.join().expect("worker thread panicked"))
            .collect();
        (reports, started.elapsed())
    });
    checks.verify(backend.label());
    let mut result = WorkloadResult {
        structure: backend.label().to_string(),
        threads: config.threads,
        total_ops: 0,
        effective_updates: 0,
        attempted_updates: 0,
        effective_moves: 0,
        successful_lookups: 0,
        scans: 0,
        scanned_entries: 0,
        seed: config.seed,
        elapsed,
        stm: backend.stats(),
        wal: sf_persist::stats::snapshot().delta_since(&wal_before),
        hot: backend.hot_report().unwrap_or_default(),
        lat: lat_before.report(),
    };
    for r in reports {
        result.total_ops += r.ops;
        result.effective_updates += r.effective_updates;
        result.attempted_updates += r.attempted_updates;
        result.effective_moves += r.effective_moves;
        result.successful_lookups += r.successful_lookups;
        result.scans += r.scans;
        result.scanned_entries += r.scanned_entries;
    }
    result
}

/// Populate and run a registry-built backend in one call.
pub fn populate_and_run_backend(backend: &Backend, config: &WorkloadConfig) -> WorkloadResult {
    populate_backend(backend, config);
    run_workload_backend(backend, config)
}

/// Run the measured phase of the workload over an already-populated map.
///
/// Wraps the caller-owned `(stm, map)` pair into an ephemeral [`Backend`]
/// and drives it through the same loop as registry-built backends.
pub fn run_workload<M>(stm: &Arc<Stm>, map: &Arc<M>, config: &WorkloadConfig) -> WorkloadResult
where
    M: TxMap + Send + Sync + 'static,
    M::Handle: Send + 'static,
{
    let backend = Backend::from_parts(Arc::clone(map), vec![Arc::clone(stm)]);
    run_workload_backend(&backend, config)
}

/// Populate and run in one call.
pub fn populate_and_run<M>(stm: &Arc<Stm>, map: &Arc<M>, config: &WorkloadConfig) -> WorkloadResult
where
    M: TxMap + Send + Sync + 'static,
    M::Handle: Send + 'static,
{
    populate(stm, map, config);
    run_workload(stm, map, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_baselines::{AvlTree, NoRestructureTree, RedBlackTree};
    use sf_stm::StmConfig;
    use sf_tree::{OptSpecFriendlyTree, SpecFriendlyTree};

    fn smoke<M>(map: M)
    where
        M: TxMap + Send + Sync + 'static,
        M::Handle: Send + 'static,
    {
        let stm = Stm::default_config();
        let map = Arc::new(map);
        let config = WorkloadConfig::smoke_test();
        let result = populate_and_run(&stm, &map, &config);
        assert_eq!(result.threads, 2);
        assert_eq!(result.total_ops, 600, "two threads x 300 ops each");
        assert!(result.effective_updates <= result.attempted_updates);
        assert!(result.stm.commits >= result.total_ops);
        assert!(result.ops_per_microsecond() > 0.0);
        // Size stays near the initial size (updates alternate insert/delete).
        let len = map.len_quiescent();
        assert!(
            (len as i64 - config.initial_size as i64).abs() < 64,
            "size drifted too far: {len}"
        );
    }

    #[test]
    fn all_structures_run_the_smoke_workload() {
        smoke(SpecFriendlyTree::new());
        smoke(OptSpecFriendlyTree::new());
        smoke(NoRestructureTree::new());
        smoke(RedBlackTree::new());
        smoke(AvlTree::new());
    }

    #[test]
    fn registry_backends_run_the_smoke_workload() {
        for name in ["sftree-opt", "sftree-opt-sharded4", "rbtree"] {
            let backend = Backend::build(name, StmConfig::ctl()).unwrap();
            let config = WorkloadConfig::smoke_test();
            let result = populate_and_run_backend(&backend, &config);
            assert_eq!(result.structure, backend.label());
            assert_eq!(result.total_ops, 600, "{name}: two threads x 300 ops");
            assert!(result.stm.commits > 0, "{name} recorded no commits");
            let len = backend.len_quiescent();
            assert!(
                (len as i64 - config.initial_size as i64).abs() < 64,
                "{name}: size drifted too far: {len}"
            );
        }
    }

    #[test]
    fn move_workload_reports_moves() {
        let stm = Stm::default_config();
        let map = Arc::new(OptSpecFriendlyTree::new());
        let config = WorkloadConfig::smoke_test()
            .with_update_ratio(0.5)
            .with_move_ratio(0.5);
        let result = populate_and_run(&stm, &map, &config);
        assert!(result.effective_moves > 0, "expected some moves to succeed");
    }

    #[test]
    fn sharded_move_workload_reports_moves() {
        let backend = Backend::build("sftree-opt-sharded4", StmConfig::ctl()).unwrap();
        let config = WorkloadConfig::smoke_test()
            .with_update_ratio(0.5)
            .with_move_ratio(0.5);
        let result = populate_and_run_backend(&backend, &config);
        assert!(result.effective_moves > 0, "expected some moves to succeed");
    }

    #[test]
    fn scan_workload_reports_scans_on_plain_and_sharded_backends() {
        for name in ["sftree-opt", "seq", "sftree-opt-sharded2"] {
            let backend = Backend::build(name, StmConfig::ctl()).unwrap();
            let config = WorkloadConfig::smoke_test()
                .with_scan_ratio(0.3)
                .with_scan_width(32);
            let result = populate_and_run_backend(&backend, &config);
            assert!(result.scans > 0, "{name}: expected some scans");
            assert!(
                result.scanned_entries > 0,
                "{name}: scans over a populated map should return entries"
            );
            assert_eq!(result.seed, config.seed);
            // Scans plus point ops account for every operation.
            assert_eq!(result.total_ops, 600);
            if name != "seq" {
                assert!(
                    result.stm.scan_commits >= result.scans,
                    "{name}: every scan commits at least one read-only transaction"
                );
            }
        }
    }

    #[test]
    fn wal_backend_runs_the_smoke_workload_and_reports_wal_work() {
        let backend = Backend::build("sftree-opt+wal", StmConfig::ctl()).unwrap();
        let config = WorkloadConfig::smoke_test()
            .with_threads(1)
            .with_run(RunLength::Ops(300));
        let result = populate_and_run_backend(&backend, &config);
        assert_eq!(result.structure, "OptSFtree+wal");
        assert_eq!(result.total_ops, 300);
        assert!(
            result.wal.records >= result.effective_updates,
            "every effective update logs at least one record ({} < {})",
            result.wal.records,
            result.effective_updates
        );
        assert!(result.wal.bytes > 0);
        assert!(result.wal.batches > 0);
        // The recovered contents equal the live contents: every mutation was
        // acknowledged durable before the workload moved on.
        let mut session = backend.session();
        let live = session.range_collect(0, u64::MAX);
        let dir = std::env::temp_dir().join(format!("sf-wal-{}", std::process::id()));
        // Find this backend's directory: the label-named subdir with the
        // highest build counter that recovers to the live contents.
        let mut matched = false;
        if let Ok(entries) = std::fs::read_dir(&dir) {
            for entry in entries.flatten() {
                if !entry
                    .file_name()
                    .to_string_lossy()
                    .starts_with("sftree-opt+wal-")
                {
                    continue;
                }
                if let Ok(recovered) = sf_persist::recover(entry.path()) {
                    if recovered.entries == live {
                        matched = true;
                    }
                }
            }
        }
        assert!(
            matched,
            "some sftree-opt+wal dir must recover to the live contents"
        );
    }

    #[test]
    fn populate_tops_up_a_reopened_durable_map_instead_of_hanging() {
        let dir = sf_persist::TempDir::new("populate-reopen");
        let config = WorkloadConfig {
            initial_size: 384,
            key_range: 512,
            ..WorkloadConfig::smoke_test()
        };
        let open = || {
            let stm = Stm::default_config();
            let tree = Arc::new(OptSpecFriendlyTree::new());
            let (map, _) = sf_persist::DurableMap::open(
                tree,
                &stm,
                dir.path(),
                sf_persist::WalOptions::default(),
            )
            .unwrap();
            (stm, Arc::new(map))
        };
        let (stm, map) = open();
        populate(&stm, &map, &config);
        assert_eq!(map.len_quiescent(), 384);
        drop(map);
        // The recovered map already holds 384 of the 512 keys, so 384 more
        // effective inserts do not exist; populate must stop at the live
        // target. The thread and timeout turn a hang into a failure.
        let (stm, map) = open();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let worker = {
            let map = Arc::clone(&map);
            std::thread::spawn(move || {
                populate(&stm, &map, &config);
                done_tx.send(()).unwrap();
            })
        };
        done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("populating a reopened map must finish");
        worker.join().unwrap();
        assert_eq!(map.len_quiescent(), 384);
    }

    #[test]
    fn timed_run_stops() {
        let stm = Stm::default_config();
        let map = Arc::new(OptSpecFriendlyTree::new());
        let config = WorkloadConfig::smoke_test()
            .with_run(RunLength::Timed(Duration::from_millis(50)))
            .with_threads(2);
        let result = populate_and_run(&stm, &map, &config);
        assert!(result.elapsed >= Duration::from_millis(50));
        assert!(result.total_ops > 0);
    }

    #[test]
    fn biased_workload_runs() {
        let stm = Stm::default_config();
        let map = Arc::new(SpecFriendlyTree::new());
        let config = WorkloadConfig::smoke_test().with_bias(crate::config::Bias::default());
        let result = populate_and_run(&stm, &map, &config);
        assert!(result.total_ops > 0);
    }
}
