//! The layer ladder: one fixed single-caller stream replayed through seven
//! rungs of the stack, each rung the one below plus one layer, all measured
//! from outside. A rung's `delta_ns` is its mean ns/op minus the rung
//! below's, so the deltas telescope to the top rung's total.

use std::path::Path;
use std::time::Instant;

use crate::adapter::{CoreRung, Instance, Map, StmRung, WalEnv};
use crate::gen::{initial_keys, value_for, Mix, Op, OpGen, Phase, Rng};
use crate::trace::Tracer;
use crate::workload::{discard, median, populate, populate_instance};

/// Rung names, bottom to top.
const RUNGS: [&str; 7] = [
    "stm",
    "core",
    "workloads",
    "sharded1",
    "sharded4",
    "persist_buffered",
    "persist_synced",
];

/// Sizes of the ladder.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub keys: u64,
    pub ops: u64,
    /// The synced rung waits for a group commit per effective update.
    pub synced_ops: u64,
    pub scans: u64,
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            keys: 1 << 16,
            ops: 1_000_000,
            synced_ops: 20_000,
            scans: 2_000,
        }
    }

    /// The `--quick` smoke: a 2^12-key tree and 1/20 of the counts.
    pub fn quick() -> Scale {
        Scale {
            keys: 1 << 12,
            ops: 25_000,
            synced_ops: 1_000,
            scans: 100,
        }
    }
}

/// The stream: uniform keys at half density, 80/10/10 contains/insert/delete.
fn mix(scale: Scale) -> Mix {
    Mix {
        key_range: scale.keys * 2,
        theta: None,
        update_pm: 200,
        moves: false,
        scan_pm: 0,
        scan_width: 100,
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct Replay {
    ops: u64,
    total_ns: u64,
    reads: u64,
    read_ns: u64,
    effective_updates: u64,
    update_ns: u64,
}

impl Replay {
    fn mean_ns(&self) -> f64 {
        self.total_ns as f64 / self.ops.max(1) as f64
    }
}

/// Replay the first `ops` operations of the stream, one clock pair each.
fn replay(map: &mut impl Map, mix: Mix, seed: u64, ops: u64) -> Replay {
    let mut gen = OpGen::new(mix, seed, 0, 0, Phase::Measured);
    let mut out = Replay::default();
    for _ in 0..ops {
        let op = gen.next();
        let t0 = Instant::now();
        let effective = match op {
            Op::Contains(key) => {
                std::hint::black_box(map.contains(key));
                false
            }
            Op::Insert(key) => map.insert(key, value_for(key)),
            Op::Delete(key) => map.delete(key),
            Op::Move(..) | Op::Scan(_) => unreachable!("the ladder stream has neither"),
        };
        let ns = t0.elapsed().as_nanos() as u64;
        out.ops += 1;
        out.total_ns += ns;
        if matches!(op, Op::Contains(_)) {
            out.reads += 1;
            out.read_ns += ns;
        } else if effective {
            out.effective_updates += 1;
            out.update_ns += ns;
        }
    }
    out
}

/// [`replay`] under a `replay` span of `rung_span`.
fn traced_replay(
    tracer: &mut Tracer,
    rung_span: u32,
    map: &mut impl Map,
    mix: Mix,
    seed: u64,
    ops: u64,
) -> Replay {
    let span = tracer.open(rung_span, "replay");
    let result = replay(map, mix, seed, ops);
    tracer.close(span);
    result
}

/// Mean ns of `scans` scans of 100 keys at seeded origins.
fn scan100(map: &mut impl Map, mix: Mix, seed: u64, scans: u64) -> f64 {
    let mut rng = Rng::new(seed ^ 0x5ca9);
    let start = Instant::now();
    for _ in 0..scans {
        let lo = rng.below(mix.key_range - mix.scan_width);
        std::hint::black_box(map.scan(lo, lo + mix.scan_width - 1));
    }
    start.elapsed().as_nanos() as f64 / scans.max(1) as f64
}

/// Run the whole ladder; returns `(metric name, value)` pairs.
pub fn run(
    seed: u64,
    scale: Scale,
    wal_root: &Path,
    tracer: &mut Tracer,
) -> Result<Vec<(String, f64)>, String> {
    let mix = mix(scale);
    let keys = initial_keys(seed, 0, mix.key_range, scale.keys);
    let mut metrics: Vec<(String, f64)> = Vec::new();
    let mut below = 0.0;
    let ladder_span = tracer.open(crate::trace::ROOT, "ladder");

    for rung in RUNGS {
        let rung_span = tracer.open(ladder_span, format!("rung.{rung}"));
        let ops = if rung == "persist_synced" {
            scale.synced_ops
        } else {
            scale.ops
        };
        let populate_span = tracer.open(rung_span, "populate");
        let result = match rung {
            "stm" => {
                let mut map = StmRung::new(scale.keys);
                tracer.close(populate_span);
                traced_replay(tracer, rung_span, &mut map, mix, seed, ops)
            }
            "core" => {
                let mut map = CoreRung::new();
                populate(&mut map, &keys);
                tracer.close(populate_span);
                let rotations = map.rotations();
                let result = traced_replay(tracer, rung_span, &mut map, mix, seed, ops);
                let rotations = map.rotations() - rotations;
                metrics.push((
                    "ladder.core.scan100_ns".into(),
                    scan100(&mut map, mix, seed, scale.scans),
                ));
                let shape = map.shape();
                metrics.push(("ladder.core.depth".into(), shape.depth as f64));
                metrics.push((
                    "ladder.core.depth_predicted".into(),
                    // Expected height of a random BST (Devroye; Majumdar and
                    // Krapivsky): the leading term, 4.311 ln N.
                    4.311 * (shape.live_keys.max(2) as f64).ln(),
                ));
                metrics.push((
                    "ladder.core.nodes_per_live_key".into(),
                    shape.reachable_nodes as f64 / shape.live_keys.max(1) as f64,
                ));
                metrics.push((
                    "ladder.core.rotations_per_kupdate".into(),
                    rotations as f64 * 1e3 / result.effective_updates.max(1) as f64,
                ));
                let pass_span = tracer.open(rung_span, "maintenance-passes");
                let passes = map.timed_maintenance_passes(5);
                tracer.close(pass_span);
                let seconds: Vec<f64> = passes.iter().map(|p| p.0).collect();
                let per_node: Vec<f64> = passes
                    .iter()
                    .map(|p| p.0 * 1e9 / p.1.max(1) as f64)
                    .collect();
                metrics.push(("ladder.maintenance.pass_ms".into(), median(&seconds) * 1e3));
                metrics.push(("ladder.maintenance.ns_per_node".into(), median(&per_node)));
                result
            }
            _ => {
                let (backend, buffered, threads) = match rung {
                    "workloads" => ("sftree-opt", false, 1u64),
                    "sharded1" => ("sftree-opt-sharded1", false, 1),
                    "sharded4" => ("sftree-opt-sharded4", false, 1),
                    "persist_buffered" => ("sftree-opt-sharded4+wal", true, 1),
                    // Each synced insert waits for a group commit, and
                    // concurrent inserts share one.
                    _ => ("sftree-opt-sharded4+wal", false, 128),
                };
                let env = WalEnv {
                    root: wal_root,
                    checkpoint_every: None,
                    buffered,
                };
                let instance = Instance::build(backend, env)?;
                populate_instance(&instance, &keys, threads);
                tracer.close(populate_span);
                let mut session = instance.session();
                let result = traced_replay(tracer, rung_span, &mut session, mix, seed, ops);
                if rung == "sharded4" {
                    metrics.push((
                        "ladder.sharded4.scan100_ns".into(),
                        scan100(&mut session, mix, seed, scale.scans),
                    ));
                }
                drop(session);
                discard(instance);
                result
            }
        };
        tracer.close(rung_span);
        let mean = result.mean_ns();
        metrics.push((
            format!("ladder.{rung}.read_ns"),
            result.read_ns as f64 / result.reads.max(1) as f64,
        ));
        metrics.push((
            format!("ladder.{rung}.update_ns"),
            result.update_ns as f64 / result.effective_updates.max(1) as f64,
        ));
        metrics.push((format!("ladder.{rung}.delta_ns"), mean - below));
        below = mean;
    }
    tracer.close(ladder_span);
    Ok(metrics)
}
