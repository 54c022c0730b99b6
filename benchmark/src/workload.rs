//! The four workloads and the closed-loop round every one of them runs:
//! fresh instance, populate, warm-up, a measured phase of a fixed operation
//! count, output checks, drop.

use std::path::Path;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::adapter::{recover, Counters, Instance, Map, WalEnv, MAX_KEY};
use crate::gen::{initial_keys, value_for, Mix, Op, OpGen, Phase};
use crate::hist::Hist;
use crate::host::{Reading, NOMINAL};
use crate::oracle::{scan_is_well_formed, Answer, Model};
use crate::sched::pin_current_thread;
use crate::trace::Tracer;

/// Rounds in one run; every end-to-end value is the median over them.
pub const ROUNDS: u64 = 5;
/// How far past its time budget a measured phase may run before it is cut.
pub const OVERRUN: f64 = 1.2;
/// Operations of the pre-check against the model.
pub const PRECHECK_OPS: u64 = 50_000;
/// One in this many measured operations gets a span in a traced round.
pub const SPAN_SAMPLE: u64 = 64;

#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    /// Registry name handed to `Backend::build`.
    pub backend: &'static str,
    /// Keys inserted before warm-up.
    pub initial: u64,
    pub mix: Mix,
    /// Measured operations per mutator per second of `--seconds`: the fixed
    /// operation count of a round is this times `seconds / ROUNDS`, sized on
    /// the reference host so the measured phases add up to `--seconds`.
    pub ops_per_mutator_second: u64,
    /// `SF_WAL_CKPT` for this workload's instances.
    pub checkpoint_every: Option<u64>,
    /// Sessions that populate, and that run the pre-check, at once. One gives
    /// the same tree every time; a `+wal` backend gets several, because each
    /// effective update waits for a group commit and concurrent ones share
    /// it. A power of two.
    pub setup_sessions: u64,
    /// The mutators sleep inside the program (on group commit). Mutator `i`
    /// is then pinned to the `i`-th processor this process may run on, with
    /// an idle-priority spinner beside it (`sched.rs`): otherwise where each
    /// wake-up lands and whether the processor halted meanwhile, both the
    /// scheduler's and the host's doing, decide the latency of the next
    /// operations (NOISE.md).
    pub mutators_block: bool,
    /// How this workload's times follow the host probe's two readings, as
    /// powers of (core, memory) (`host.rs`). A tree that stays in the core's
    /// cache goes with the core reading alone. `point-mixed`, twenty times
    /// the cache and three threads missing it at once, loses more than a
    /// lone chase when the neighbours are busy: over the calibration runs its
    /// times went with the product of the two readings (NOISE.md).
    pub host_exponents: [f64; 2],
}

/// Why each workload is here is recorded in `BENCHMARK.json` and README.md.
pub const SPECS: [Spec; 4] = [
    Spec {
        name: "point-mixed",
        backend: "sftree-opt",
        initial: 1 << 18,
        mix: Mix {
            key_range: 1 << 19,
            theta: None,
            update_pm: 100,
            moves: false,
            scan_pm: 10,
            scan_width: 100,
        },
        ops_per_mutator_second: 400_000,
        checkpoint_every: None,
        setup_sessions: 1,
        mutators_block: false,
        host_exponents: [1.0, 1.0],
    },
    Spec {
        name: "skew-contended",
        backend: "sftree-opt",
        initial: 1 << 12,
        mix: Mix {
            key_range: 1 << 13,
            theta: Some(0.99),
            update_pm: 200,
            moves: false,
            scan_pm: 10,
            scan_width: 100,
        },
        ops_per_mutator_second: 1_100_000,
        checkpoint_every: None,
        setup_sessions: 1,
        mutators_block: false,
        host_exponents: [1.0, 0.0],
    },
    Spec {
        name: "scan-move-sharded",
        backend: "sftree-opt-sharded4",
        initial: 1 << 16,
        mix: Mix {
            key_range: 1 << 17,
            theta: None,
            update_pm: 200,
            moves: true,
            scan_pm: 50,
            scan_width: 100,
        },
        ops_per_mutator_second: 200_000,
        checkpoint_every: None,
        setup_sessions: 1,
        mutators_block: false,
        host_exponents: [1.0, 0.0],
    },
    Spec {
        name: "durable-write",
        backend: "sftree-opt+wal",
        initial: 1 << 12,
        mix: Mix {
            key_range: 1 << 13,
            theta: None,
            update_pm: 500,
            moves: false,
            scan_pm: 10,
            scan_width: 100,
        },
        ops_per_mutator_second: 8_000,
        checkpoint_every: Some(4096),
        setup_sessions: 8,
        mutators_block: true,
        host_exponents: [1.0, 0.0],
    },
];

/// Latency classes. An effective move is recorded under `Update` and `Move`.
pub const READ: usize = 0;
pub const UPDATE: usize = 1;
pub const NOOP: usize = 2;
pub const SCAN: usize = 3;
pub const MOVE: usize = 4;
const CLASS_SPANS: [&str; 5] = [
    "op.read",
    "op.update",
    "op.noop_update",
    "op.scan",
    "op.move",
];

#[derive(Debug, Clone)]
pub struct Hists(pub [Hist; 5]);

impl Hists {
    fn new() -> Hists {
        Hists(std::array::from_fn(|_| Hist::new()))
    }

    fn reset(&mut self) {
        self.0.iter_mut().for_each(Hist::reset);
    }
}

/// Every histogram a run needs, allocated before the first instance is built.
#[derive(Debug)]
pub struct Harness {
    mutators: Vec<Hists>,
    merged: Hists,
}

impl Harness {
    pub fn new(mutators: usize) -> Harness {
        Harness {
            mutators: (0..mutators).map(|_| Hists::new()).collect(),
            merged: Hists::new(),
        }
    }
}

/// A sampled operation of a traced round.
#[derive(Debug, Clone, Copy)]
struct OpSpan {
    class: usize,
    start: Instant,
    end: Instant,
}

#[derive(Debug, Clone, Copy)]
struct MutatorReport {
    ops: u64,
    effective_inserts: u64,
    effective_deletes: u64,
    effective_moves: u64,
    scans_malformed: u64,
    start: Instant,
    end: Instant,
}

/// Run `ops` operations of `gen` against `map`, one after the other, timing
/// each with one clock pair. Stops early only past `deadline`.
fn mutate(
    map: &mut impl Map,
    gen: &mut OpGen,
    ops: u64,
    scan_width: u64,
    hists: &mut Hists,
    deadline: Instant,
    mut spans: Option<&mut Vec<OpSpan>>,
) -> MutatorReport {
    let start = Instant::now();
    let mut report = MutatorReport {
        ops: 0,
        effective_inserts: 0,
        effective_deletes: 0,
        effective_moves: 0,
        scans_malformed: 0,
        start,
        end: start,
    };
    while report.ops < ops {
        let op = gen.next();
        let mut scanned = None;
        let t0 = Instant::now();
        let class = match op {
            Op::Contains(key) => {
                std::hint::black_box(map.contains(key));
                READ
            }
            Op::Insert(key) => {
                if map.insert(key, value_for(key)) {
                    report.effective_inserts += 1;
                    UPDATE
                } else {
                    NOOP
                }
            }
            Op::Delete(key) => {
                if map.delete(key) {
                    report.effective_deletes += 1;
                    UPDATE
                } else {
                    NOOP
                }
            }
            Op::Move(from, to) => {
                if map.move_entry(from, to) {
                    report.effective_moves += 1;
                    MOVE
                } else {
                    NOOP
                }
            }
            Op::Scan(lo) => {
                scanned = Some((map.scan(lo, lo + scan_width - 1), lo));
                SCAN
            }
        };
        let t1 = Instant::now();
        let ns = (t1 - t0).as_nanos() as u64;
        hists.0[class].record(ns);
        if class == MOVE {
            hists.0[UPDATE].record(ns);
        }
        // Checked outside the clock pair.
        if let Some((entries, lo)) = scanned {
            if !scan_is_well_formed(&entries, lo, lo + scan_width - 1) {
                report.scans_malformed += 1;
            }
        }
        report.ops += 1;
        report.end = t1;
        if let Some(spans) = spans
            .as_mut()
            .filter(|_| report.ops.is_multiple_of(SPAN_SAMPLE))
        {
            spans.push(OpSpan {
                class,
                start: t0,
                end: t1,
            });
        }
        if t1 > deadline {
            break;
        }
    }
    report
}

/// Execute one operation and return what the program answered.
fn apply(map: &mut impl Map, op: Op, scan_width: u64) -> Answer {
    match op {
        Op::Contains(key) => Answer::Flag(map.contains(key)),
        Op::Insert(key) => Answer::Flag(map.insert(key, value_for(key))),
        Op::Delete(key) => Answer::Flag(map.delete(key)),
        Op::Move(from, to) => Answer::Flag(map.move_entry(from, to)),
        Op::Scan(lo) => Answer::Entries(map.scan(lo, lo + scan_width - 1)),
    }
}

/// Insert `keys`; returns how many inserts wrongly reported "already there".
pub fn populate(map: &mut impl Map, keys: &[u64]) -> u64 {
    keys.iter()
        .filter(|&&key| !map.insert(key, value_for(key)))
        .count() as u64
}

/// [`populate`] an instance from `sessions` sessions at once.
pub fn populate_instance(instance: &Instance, keys: &[u64], sessions: u64) -> u64 {
    if sessions <= 1 {
        return populate(&mut instance.session(), keys);
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = keys
            .chunks(keys.len().div_ceil(sessions as usize))
            .map(|chunk| scope.spawn(move || populate(&mut instance.session(), chunk)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a populate thread panicked"))
            .sum()
    })
}

/// Keys one piece of [`scan_all`] is expected to cover.
const SCAN_PIECE_KEYS: u64 = 1 << 12;

/// Everything in the map while no mutator runs: one range scan up to
/// [`SCAN_PIECE_KEYS`] initial keys, consecutive range scans covering
/// `[0, MAX_KEY]` above that. A scan is one transaction whose read set is
/// every node it passes, and the rotator, which keeps working for a while
/// after the mutators stop, invalidates it: one scan of 2^18 keys retried
/// for 1 to 9 s here and grew the process to 200 MiB. The rotator never
/// changes which keys are present, and nobody else is writing, so the pieces
/// (each one atomic) add up to the contents as of any moment of the walk.
fn scan_all(map: &mut impl Map, spec: &Spec) -> Vec<(u64, u64)> {
    let pieces = (spec.initial / SCAN_PIECE_KEYS).max(1);
    let width = spec.mix.key_range / pieces;
    let mut entries = Vec::new();
    for piece in 0..pieces {
        let hi = if piece == pieces - 1 {
            MAX_KEY
        } else {
            (piece + 1) * width - 1
        };
        entries.extend(map.scan(piece * width, hi));
    }
    entries
}

/// Operations checked and operations whose output was wrong.
#[derive(Debug, Clone, Copy, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn add(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Where and how big a round runs.
#[derive(Debug, Clone, Copy)]
pub struct Plan<'a> {
    pub spec: &'a Spec,
    /// The backend to build: the spec's own, or the `--backend` override.
    pub backend: &'a str,
    pub seed: u64,
    pub ops_per_mutator: u64,
    /// The measured phase's share of `--seconds`. The operation count is
    /// sized to finish inside it on the reference host; a round still running
    /// at [`OVERRUN`] times this stops early, so that a slow host lengthens a
    /// run by a known factor at most (the driver's time for all runs is
    /// capped).
    pub budget: Duration,
    /// Directory `+wal` instances log under.
    pub wal_root: &'a Path,
}

/// The pre-check: the workload's own mix on a fresh instance, every return
/// value and scan result compared with a `BTreeMap` model, then the final
/// contents. With `setup_sessions` above one, that many sessions run at once,
/// session `i` on the keys congruent to `i` and against a model of exactly
/// those keys (scan results are cut down to them), so every answer is still
/// determined by the session's own history.
pub fn precheck(plan: Plan<'_>, ops: u64) -> Result<Checks, String> {
    let spec = plan.spec;
    let (mix, sessions) = (spec.mix, spec.setup_sessions);
    let instance = Instance::build(plan.backend, wal_env(plan))?;
    let keys = initial_keys(plan.seed, 0, mix.key_range, spec.initial);
    let mut checks = Checks {
        attempted: keys.len() as u64 + ops / sessions * sessions + 1,
        failed: populate_instance(&instance, &keys, sessions),
    };
    let (shared, keys) = (&instance, &keys);
    let mut expected = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..sessions)
            .map(|class| {
                scope.spawn(move || {
                    let mine = |key: u64| key % sessions == class;
                    let owned: Vec<u64> = keys.iter().copied().filter(|&k| mine(k)).collect();
                    let mut model = Model::with_keys(&owned);
                    let mut session = shared.session();
                    let mut gen = OpGen::new(mix, plan.seed, 0, class, Phase::Precheck);
                    let mut failed = 0;
                    for _ in 0..ops / sessions {
                        let op = gen.next().confined(sessions, class, mix.key_range);
                        let mut answer = apply(&mut session, op, mix.scan_width);
                        if let Answer::Entries(entries) = &mut answer {
                            entries.retain(|&(key, _)| mine(key));
                        }
                        if !model.judge(op, mix.scan_width, &answer) {
                            failed += 1;
                        }
                    }
                    (failed, model.entries())
                })
            })
            .collect();
        for handle in handles {
            let (failed, entries) = handle.join().expect("a pre-check session panicked");
            checks.failed += failed;
            expected.extend(entries);
        }
    });
    expected.sort_unstable();
    if scan_all(&mut instance.session(), spec) != expected {
        checks.failed += 1;
    }
    discard(instance);
    Ok(checks)
}

fn wal_env<'a>(plan: Plan<'a>) -> WalEnv<'a> {
    WalEnv {
        root: plan.wal_root,
        checkpoint_every: plan.spec.checkpoint_every,
        buffered: false,
    }
}

/// Drop an instance and the log directory it leaves behind.
pub fn discard(instance: Instance) {
    let dir = instance.wal_dir().map(Path::to_owned);
    drop(instance);
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// What one round measured.
#[derive(Debug, Clone)]
pub struct Round {
    /// Build + populate + warm-up.
    pub setup_s: f64,
    /// First mutator start to last mutator end.
    pub wall_s: f64,
    pub ops: u64,
    pub effective_updates: u64,
    pub attempted_updates: u64,
    /// Quantiles in ns, by class: `[p50, p99]`.
    pub quantiles: [[f64; 2]; 5],
    pub counters: Counters,
    pub hot_avg_depth: f64,
    /// `sf_persist::recover` of the round's log: milliseconds and records
    /// scanned (`+wal` backends only).
    pub recover: Option<(f64, u64)>,
    pub checks: Checks,
    /// The host's speed around this round; the caller, who owns the probe,
    /// fills it in.
    pub host: Reading,
}

impl Round {
    pub fn throughput(&self) -> f64 {
        self.ops as f64 / self.wall_s
    }
}

/// One round of `plan` as round number `round`. With a tracer, the round and
/// its phases are recorded as spans; with `trace_ops` also one in
/// [`SPAN_SAMPLE`] measured operations.
pub fn run_round(
    plan: Plan<'_>,
    round: u64,
    harness: &mut Harness,
    mut tracer: Option<(&mut Tracer, u32)>,
    trace_ops: bool,
) -> Result<Round, String> {
    let spec = plan.spec;
    let mix = spec.mix;
    let keys = initial_keys(plan.seed, round, mix.key_range, spec.initial);
    let t_build = Instant::now();
    let instance = Instance::build(plan.backend, wal_env(plan))?;
    let t_populate = Instant::now();
    let mut checks = Checks {
        attempted: keys.len() as u64,
        failed: populate_instance(&instance, &keys, spec.setup_sessions),
    };
    let t_warmup = Instant::now();

    let barrier = Barrier::new(harness.mutators.len() + 1);
    let warmup_ops = plan.ops_per_mutator / 10;
    let (mut t_measured, mut setup_s) = (t_warmup, 0.0);
    let results: Vec<(MutatorReport, MutatorReport, Vec<OpSpan>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = harness
            .mutators
            .iter_mut()
            .enumerate()
            .map(|(m, hists)| {
                let (instance, barrier) = (&instance, &barrier);
                scope.spawn(move || {
                    if spec.mutators_block && !pin_current_thread(m) {
                        eprintln!("mutator {m}: could not be pinned; running unpinned");
                    }
                    let mut session = instance.session();
                    let mut spans = Vec::new();
                    if trace_ops {
                        spans.reserve((plan.ops_per_mutator / SPAN_SAMPLE) as usize + 1);
                    }
                    let width = mix.scan_width;
                    let mut gen = OpGen::new(mix, plan.seed, round, m as u64, Phase::Warmup);
                    let unbounded = Instant::now() + Duration::from_secs(3600);
                    let warm = mutate(
                        &mut session,
                        &mut gen,
                        warmup_ops,
                        width,
                        hists,
                        unbounded,
                        None,
                    );
                    hists.reset();
                    barrier.wait();
                    barrier.wait();
                    let mut gen = OpGen::new(mix, plan.seed, round, m as u64, Phase::Measured);
                    let deadline = Instant::now() + plan.budget.mul_f64(OVERRUN);
                    let ops = plan.ops_per_mutator;
                    let sampled = trace_ops.then_some(&mut spans);
                    let measured =
                        mutate(&mut session, &mut gen, ops, width, hists, deadline, sampled);
                    (warm, measured, spans)
                })
            })
            .collect();
        barrier.wait();
        t_measured = Instant::now();
        setup_s = (t_measured - t_build).as_secs_f64();
        instance.reset_counters();
        barrier.wait();
        handles
            .into_iter()
            .map(|h| h.join().expect("a mutator thread panicked"))
            .collect()
    });
    let counters = instance.counters();

    let start = results
        .iter()
        .map(|r| r.1.start)
        .min()
        .expect("at least one mutator");
    let end = results
        .iter()
        .map(|r| r.1.end)
        .max()
        .expect("at least one mutator");
    let t_check = Instant::now();
    let sum = |field: fn(&MutatorReport) -> u64| -> u64 {
        results
            .iter()
            .map(|(warm, measured, _)| field(warm) + field(measured))
            .sum()
    };
    let measured = |field: fn(&MutatorReport) -> u64| -> u64 {
        results.iter().map(|(_, measured, _)| field(measured)).sum()
    };
    checks.attempted += sum(|r| r.ops);
    checks.failed += sum(|r| r.scans_malformed);

    harness.merged.reset();
    for hists in &harness.mutators {
        for (merged, mine) in harness.merged.0.iter_mut().zip(hists.0.iter()) {
            merged.merge(mine);
        }
    }
    let merged = &harness.merged.0;

    // Quiescent full scan: sorted, duplicate-free, and exactly as long as
    // the effective inserts and deletes say.
    let live = scan_all(&mut instance.session(), spec);
    let expected_len = spec.initial + sum(|r| r.effective_inserts) - sum(|r| r.effective_deletes);
    checks.attempted += 1;
    if !scan_is_well_formed(&live, 0, MAX_KEY) || live.len() as u64 != expected_len {
        checks.failed += 1;
    }
    // A per-layer number; the quiescent walk is skipped when nobody reads it.
    let hot_avg_depth = if tracer.is_some() {
        instance.hot_avg_depth()
    } else {
        0.0
    };

    // Every acknowledged write must be readable from the log alone: close
    // the instance, then recover from its directory.
    let wal_dir = instance.wal_dir().map(Path::to_owned);
    drop(instance);
    let recover = match wal_dir {
        None => None,
        Some(dir) => {
            let started = Instant::now();
            let recovered =
                recover(&dir, plan.backend).map_err(|e| format!("recover {dir:?}: {e}"))?;
            let ms = started.elapsed().as_secs_f64() * 1e3;
            checks.attempted += 1;
            if recovered.entries != live {
                checks.failed += 1;
            }
            let _ = std::fs::remove_dir_all(&dir);
            Some((ms, recovered.records))
        }
    };

    if let Some((tracer, parent)) = tracer.as_mut() {
        let id = tracer.add(*parent, format!("round-{round}"), t_build, Instant::now());
        tracer.add(id, "build", t_build, t_populate);
        tracer.add(id, "populate", t_populate, t_warmup);
        tracer.add(id, "warmup", t_warmup, t_measured);
        let phase = tracer.add(id, "measured", start, end);
        tracer.add(id, "check", t_check, Instant::now());
        for (_, _, spans) in &results {
            for span in spans {
                tracer.add(phase, CLASS_SPANS[span.class], span.start, span.end);
            }
        }
    }

    let effective_updates = measured(|r| r.effective_inserts)
        + measured(|r| r.effective_deletes)
        + measured(|r| r.effective_moves);
    Ok(Round {
        setup_s,
        wall_s: (end - start).as_secs_f64(),
        ops: measured(|r| r.ops),
        effective_updates,
        attempted_updates: effective_updates + merged[NOOP].count(),
        quantiles: std::array::from_fn(|c| [merged[c].quantile(0.5), merged[c].quantile(0.99)]),
        counters,
        hot_avg_depth,
        recover,
        checks,
        host: NOMINAL,
    })
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Cost of the harness itself, reported with the per-layer metrics:
/// nanoseconds to generate one operation of `mix`, and nanoseconds one
/// clock pair adds to a timed operation.
pub fn harness_costs(mix: Mix, seed: u64) -> (f64, f64) {
    const N: u64 = 2_000_000;
    let mut gen = OpGen::new(mix, seed, 0, 0, Phase::Measured);
    let start = Instant::now();
    for _ in 0..N {
        std::hint::black_box(gen.next());
    }
    let gen_ns = start.elapsed().as_nanos() as f64 / N as f64;
    let start = Instant::now();
    let mut inside = 0u128;
    for _ in 0..N {
        let t0 = Instant::now();
        inside += (Instant::now() - t0).as_nanos();
    }
    std::hint::black_box(inside);
    (gen_ns, start.elapsed().as_nanos() as f64 / N as f64)
}
