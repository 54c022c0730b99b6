//! The one file that touches the program under test. Everything else in the
//! benchmark sees only [`Map`], [`Instance`], [`Counters`] and the two
//! lower ladder rungs, so a later API change in `crates/*` lands here.

use std::collections::HashSet;
use std::ffi::OsString;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sf_stm::{Stm, StmConfig, TCell, ThreadCtx};
use sf_tree::{MaintenanceConfig, MaintenanceHandle, OptSpecFriendlyTree, SfHandle, TxMap};
use sf_workloads::{Backend, MapSession};

/// Largest key a scan may name (the trees reserve `u64::MAX` as a sentinel).
pub const MAX_KEY: u64 = u64::MAX - 1;

/// What a mutator does to the program, whatever rung it enters at.
pub trait Map {
    fn contains(&mut self, key: u64) -> bool;
    fn insert(&mut self, key: u64, value: u64) -> bool;
    fn delete(&mut self, key: u64) -> bool;
    fn move_entry(&mut self, from: u64, to: u64) -> bool;
    fn scan(&mut self, lo: u64, hi: u64) -> Vec<(u64, u64)>;
}

/// Remove every `SF_*` variable the caller's shell may carry: the program
/// reads its tuning from them, and a run must not depend on the shell.
/// Called once, before any thread exists.
pub fn scrub_env() {
    let names: Vec<OsString> = std::env::vars_os()
        .map(|(name, _)| name)
        .filter(|name| name.to_string_lossy().starts_with("SF_"))
        .collect();
    for name in names {
        std::env::remove_var(name);
    }
}

/// The program's flush policy, as the `+wal` backends run it here (its
/// defaults: nothing but the two variables below is ever set).
pub const FLUSH_POLICY: &str = "group=128 window=100us writer=thread ring=1024";

/// How a `+wal` instance is set up. The program takes this from the
/// environment at build time, so the variables live exactly as long as the
/// instance and are set and removed while none of its threads exist.
#[derive(Debug, Clone, Copy)]
pub struct WalEnv<'a> {
    /// `SF_WAL_DIR`: the program makes one fresh subdirectory per build.
    pub root: &'a Path,
    /// `SF_WAL_CKPT`: records between automatic checkpoints.
    pub checkpoint_every: Option<u64>,
    /// `SF_WAL_GROUP=0`: writes return before they are durable (one ladder
    /// rung only).
    pub buffered: bool,
}

#[derive(Debug)]
struct EnvGuard(Vec<&'static str>);

impl Drop for EnvGuard {
    fn drop(&mut self) {
        for name in &self.0 {
            std::env::remove_var(name);
        }
    }
}

/// Counter deltas since [`Instance::reset_counters`], from `Backend::stats()`
/// and `sf_persist::stats`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub commits: u64,
    pub combined_commits: u64,
    pub aborts: u64,
    pub abort_read_validation: u64,
    pub abort_lock_conflict: u64,
    pub abort_combiner: u64,
    pub abort_scan_validation: u64,
    pub tx_reads: u64,
    pub max_reads_per_op: u64,
    pub wal_records: u64,
    pub wal_bytes: u64,
    pub wal_batches: u64,
    pub wal_checkpoints: u64,
    pub wal_max_ring_depth: u64,
    pub fsync_p50_ns: f64,
    pub fsync_p99_ns: f64,
    pub sync_wait_p50_ns: f64,
}

/// Quantile `q` of one of the program's histograms, given its bucket counts
/// and exact maximum. Bucket 0 holds zero and bucket `i` holds
/// `[2^(i-1), 2^i)`; the program's own `percentile` answers with a bucket's
/// upper bound, which reads exactly the same on every run. This interpolates
/// inside the bucket, as `hist.rs` does, and stays under the maximum.
fn program_quantile(buckets: &[u64], max: u64, q: f64) -> f64 {
    let total: u64 = buckets.iter().sum();
    let rank = q.clamp(0.0, 1.0) * total as f64;
    let mut seen = 0u64;
    for (i, &count) in buckets.iter().enumerate() {
        if count > 0 && (seen + count) as f64 >= rank {
            let low = if i == 0 {
                0.0
            } else {
                (1u64 << (i - 1)) as f64
            };
            let within = (rank - seen as f64) / count as f64;
            return (low + low * within).min(max as f64);
        }
        seen += count;
    }
    0.0
}

/// One fresh instance of a registry backend, with its background threads.
/// Dropping it stops them (and, for `+wal`, closes the log).
#[derive(Debug)]
pub struct Instance {
    // Field order is drop order: the backend's threads end before the
    // environment they were configured from changes.
    backend: Backend,
    wal_dir: Option<PathBuf>,
    _env: EnvGuard,
}

fn subdirs(root: &Path) -> HashSet<PathBuf> {
    std::fs::read_dir(root)
        .map(|entries| entries.flatten().map(|e| e.path()).collect())
        .unwrap_or_default()
}

impl Instance {
    pub fn build(name: &str, wal: WalEnv<'_>) -> Result<Instance, String> {
        let vars: [(&'static str, Option<OsString>); 3] = [
            ("SF_WAL_DIR", Some(wal.root.into())),
            (
                "SF_WAL_CKPT",
                wal.checkpoint_every.map(|n| n.to_string().into()),
            ),
            ("SF_WAL_GROUP", wal.buffered.then(|| "0".into())),
        ];
        let env = EnvGuard(
            vars.into_iter()
                .filter_map(|(name, value)| {
                    std::env::set_var(name, value?);
                    Some(name)
                })
                .collect(),
        );
        let before = subdirs(wal.root);
        let backend = Backend::build(name, StmConfig::ctl()).map_err(|e| e.to_string())?;
        let wal_dir = subdirs(wal.root).difference(&before).next().cloned();
        if name.ends_with("+wal") && wal_dir.is_none() {
            return Err(format!(
                "{name}: no log directory appeared under {:?}",
                wal.root
            ));
        }
        Ok(Instance {
            backend,
            wal_dir,
            _env: env,
        })
    }

    pub fn session(&self) -> Session {
        Session(self.backend.session())
    }

    /// The directory this instance logs to (`+wal` backends only).
    pub fn wal_dir(&self) -> Option<&Path> {
        self.wal_dir.as_deref()
    }

    pub fn reset_counters(&self) {
        self.backend.reset_stats();
        sf_persist::stats::reset();
    }

    pub fn counters(&self) -> Counters {
        let stm = self.backend.stats();
        let wal = sf_persist::stats::snapshot();
        let fsync = sf_persist::stats::fsync_histogram();
        let sync_wait = sf_persist::stats::sync_wait_histogram();
        Counters {
            commits: stm.commits,
            combined_commits: stm.combined_commits,
            aborts: stm.aborts,
            abort_read_validation: stm.abort_read_validation,
            abort_lock_conflict: stm.abort_lock_conflict,
            abort_combiner: stm.abort_combiner,
            abort_scan_validation: stm.abort_scan_validation,
            tx_reads: stm.tx_reads,
            max_reads_per_op: stm.max_reads_per_op,
            wal_records: wal.records,
            wal_bytes: wal.bytes,
            wal_batches: wal.batches,
            wal_checkpoints: wal.checkpoints,
            wal_max_ring_depth: wal.max_ring_depth,
            fsync_p50_ns: program_quantile(&fsync.buckets, fsync.max, 0.5),
            fsync_p99_ns: program_quantile(&fsync.buckets, fsync.max, 0.99),
            sync_wait_p50_ns: program_quantile(&sync_wait.buckets, sync_wait.max, 0.5),
        }
    }

    /// Mass-weighted average depth of the sampled accesses (quiescent; `0.0`
    /// for backends that do not sample).
    pub fn hot_avg_depth(&self) -> f64 {
        self.backend
            .hot_report()
            .map_or(0.0, |report| report.avg_depth)
    }
}

/// A mutator's session on an [`Instance`]: `Box<dyn MapSession>` underneath.
pub struct Session(Box<dyn MapSession>);

impl Map for Session {
    #[inline]
    fn contains(&mut self, key: u64) -> bool {
        self.0.contains(key)
    }
    #[inline]
    fn insert(&mut self, key: u64, value: u64) -> bool {
        self.0.insert(key, value)
    }
    #[inline]
    fn delete(&mut self, key: u64) -> bool {
        self.0.delete(key)
    }
    #[inline]
    fn move_entry(&mut self, from: u64, to: u64) -> bool {
        self.0.move_entry(from, to)
    }
    #[inline]
    fn scan(&mut self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        self.0.range_collect(lo, hi)
    }
}

/// What the log directory alone gives back after the instance is gone.
#[derive(Debug)]
pub struct Recovered {
    pub entries: Vec<(u64, u64)>,
    pub records: u64,
}

/// Recover `dir` (written by backend `name`) from its files only.
pub fn recover(dir: &Path, name: &str) -> io::Result<Recovered> {
    let shards = name
        .split_once("-sharded")
        .and_then(|(_, rest)| rest.trim_end_matches("+wal").parse::<usize>().ok());
    let recovery = match shards {
        Some(shards) => sf_persist::recover_sharded(dir, shards)?,
        None => sf_persist::recover(dir)?,
    };
    let mut entries = recovery.entries;
    entries.sort_unstable();
    Ok(Recovered {
        entries,
        records: recovery.records_scanned,
    })
}

/// Ladder rung `stm`: an operation-shaped transaction on bare `TCell`s. A
/// lookup binary-searches a sorted array of cells (16 tracked reads over
/// 2^16 cells, the read set of one tree descent); an update also writes the
/// cell it ends on and commits through the clock. No tree, no arena, no
/// maintenance: what is left is begin, read, validate, commit.
pub struct StmRung {
    ctx: ThreadCtx,
    cells: Vec<TCell<u64>>,
}

impl StmRung {
    pub fn new(cells: u64) -> StmRung {
        StmRung {
            ctx: Stm::new(StmConfig::ctl()).register(),
            cells: (0..cells).map(TCell::new).collect(),
        }
    }

    #[inline]
    fn descend(&mut self, key: u64, write: bool) -> bool {
        let cells = &self.cells;
        self.ctx.atomically(|tx| {
            let (mut lo, mut hi, mut last) = (0usize, cells.len(), 0usize);
            while lo < hi {
                last = (lo + hi) / 2;
                if tx.read(&cells[last])? <= key {
                    lo = last + 1;
                } else {
                    hi = last;
                }
            }
            if write {
                tx.write(&cells[last], last as u64)?;
            }
            Ok(lo > 0 && lo as u64 - 1 == key)
        })
    }
}

impl Map for StmRung {
    #[inline]
    fn contains(&mut self, key: u64) -> bool {
        self.descend(key, false)
    }
    #[inline]
    fn insert(&mut self, key: u64, _value: u64) -> bool {
        self.descend(key, true);
        true // the write always happens: every update of this rung is effective
    }
    #[inline]
    fn delete(&mut self, key: u64) -> bool {
        self.descend(key, true);
        true
    }
    fn move_entry(&mut self, _from: u64, _to: u64) -> bool {
        unimplemented!("the ladder stream has no moves")
    }
    fn scan(&mut self, _lo: u64, _hi: u64) -> Vec<(u64, u64)> {
        unimplemented!("the stm rung has no order to scan")
    }
}

/// The maintenance tuning the registry gives its speculation-friendly trees.
fn registry_maintenance() -> MaintenanceConfig {
    MaintenanceConfig {
        pass_delay: Duration::from_micros(200),
        ..MaintenanceConfig::default()
    }
}

/// Shape of the parked ladder tree.
#[derive(Debug, Clone, Copy)]
pub struct TreeShape {
    pub depth: usize,
    pub reachable_nodes: usize,
    pub live_keys: usize,
}

/// Ladder rung `core`: `OptSpecFriendlyTree` called statically (no `dyn`, no
/// registry), with its rotator thread running as the registry would start it.
pub struct CoreRung {
    tree: Arc<OptSpecFriendlyTree>,
    stm: Arc<Stm>,
    handle: SfHandle,
    maintenance: Option<MaintenanceHandle>,
}

impl CoreRung {
    pub fn new() -> CoreRung {
        let stm = Stm::new(StmConfig::ctl());
        let tree = Arc::new(OptSpecFriendlyTree::new());
        let maintenance = tree.start_maintenance_with(stm.register(), registry_maintenance());
        CoreRung {
            handle: tree.register(stm.register()),
            tree,
            stm,
            maintenance: Some(maintenance),
        }
    }

    /// Rotations performed so far (both directions).
    pub fn rotations(&self) -> u64 {
        self.tree.stats().rotations()
    }

    /// Park the rotator and measure the tree as it stands.
    pub fn shape(&self) -> TreeShape {
        let _parked = self.maintenance.as_ref().map(|m| m.pause());
        let inspect = self.tree.inspect();
        TreeShape {
            depth: inspect.depth(),
            reachable_nodes: inspect.reachable_nodes(),
            live_keys: inspect.live_entries().len(),
        }
    }

    /// Stop the rotator thread and time `passes` full maintenance passes run
    /// from here: `(seconds, nodes visited)` per pass.
    pub fn timed_maintenance_passes(&mut self, passes: usize) -> Vec<(f64, u64)> {
        drop(self.maintenance.take());
        let mut worker = self
            .tree
            .maintenance_worker_with(self.stm.register(), registry_maintenance());
        (0..passes)
            .map(|_| {
                let start = Instant::now();
                let report = worker.run_pass();
                (start.elapsed().as_secs_f64(), report.visited)
            })
            .collect()
    }
}

impl Map for CoreRung {
    #[inline]
    fn contains(&mut self, key: u64) -> bool {
        self.tree.contains(&mut self.handle, key)
    }
    #[inline]
    fn insert(&mut self, key: u64, value: u64) -> bool {
        self.tree.insert(&mut self.handle, key, value)
    }
    #[inline]
    fn delete(&mut self, key: u64) -> bool {
        self.tree.delete(&mut self.handle, key)
    }
    #[inline]
    fn move_entry(&mut self, from: u64, to: u64) -> bool {
        self.tree.move_entry(&mut self.handle, from, to)
    }
    #[inline]
    fn scan(&mut self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        self.tree.range_collect(&mut self.handle, lo..=hi)
    }
}

#[cfg(test)]
mod tests {
    use super::program_quantile;

    #[test]
    fn program_quantiles_interpolate_inside_the_octave() {
        // 10 samples in [64, 128), 30 in [128, 256), largest seen 200.
        let mut buckets = [0u64; 44];
        buckets[7] = 10;
        buckets[8] = 30;
        assert_eq!(program_quantile(&buckets, 200, 0.125), 64.0 + 64.0 * 0.5);
        assert_eq!(program_quantile(&buckets, 200, 0.5), 128.0 + 128.0 / 3.0);
        assert_eq!(program_quantile(&buckets, 200, 1.0), 200.0);
        assert_eq!(program_quantile(&[0; 44], 0, 0.5), 0.0);
    }
}
