//! Cross-layer observability invariants under real 4-thread contention:
//! the abort-cause taxonomy must partition the abort total exactly, and the
//! sampled latency histograms must capture the measured phase, on both
//! speculation-friendly tree variants. Whether the loaded run conflicts at
//! all is up to the scheduler, so a hand-interleaved conflict makes the
//! partition check non-vacuous.

use sf_stm::{StatsSnapshot, Stm, StmConfig};
use sf_tree::{FindSpec, OptimizedFind, PortableFind, SfTree, TxMap, TxMapInTx};
use sf_workloads::{populate_and_run_backend, Backend, RunLength, WorkloadConfig};

/// A small, update-heavy, scan-mixing shape that usually produces
/// conflicts at 4 threads while staying fast enough for CI.
fn contended_config() -> WorkloadConfig {
    WorkloadConfig::paper_default()
        .with_size(128)
        .with_threads(4)
        .with_update_ratio(0.5)
        .with_move_ratio(0.1)
        .with_scan_ratio(0.05)
        .with_scan_width(32)
        .with_seed(7)
        .with_run(RunLength::Ops(5_000))
}

fn run_contended(name: &str) -> sf_workloads::WorkloadResult {
    let backend = Backend::build(name, StmConfig::ctl()).unwrap();
    populate_and_run_backend(&backend, &contended_config())
}

/// The abort-cause counters partition the abort total exactly, and the
/// legacy aggregate views agree with the taxonomy.
fn assert_causes_partition_aborts(name: &str, stm: &StatsSnapshot) {
    let causes = stm.abort_read_validation
        + stm.abort_lock_conflict
        + stm.abort_combiner
        + stm.abort_explicit
        + stm.abort_scan_validation;
    assert_eq!(
        causes,
        stm.aborts,
        "{name}: cause counters must sum exactly to the abort total \
         (read_validation={} lock_conflict={} combiner={} explicit={} \
         scan_validation={} aborts={})",
        stm.abort_read_validation,
        stm.abort_lock_conflict,
        stm.abort_combiner,
        stm.abort_explicit,
        stm.abort_scan_validation,
        stm.aborts,
    );
    assert_eq!(stm.abort_scan_validation, stm.scan_aborts, "{name}");
    assert!(stm.abort_explicit <= stm.explicit_aborts, "{name}");
}

#[test]
fn abort_causes_partition_the_abort_total_on_both_sf_trees() {
    for name in ["sftree", "sftree-opt"] {
        assert_causes_partition_aborts(name, &run_contended(name).stm);
    }
}

/// Handle A reads key 1; inside A's first attempt, handle B commits a
/// delete of key 1 (a write to the `del` flag A read); A then inserts, so
/// its commit must validate the stale read and abort once.
fn forced_conflict<F: FindSpec>() {
    let stm = Stm::new(StmConfig::ctl());
    let tree = SfTree::<F>::new();
    let mut a = tree.register(stm.register());
    let mut b = tree.register(stm.register());
    assert!(tree.insert(&mut a, 1, 10));
    stm.reset_stats();
    let mut attempts = 0;
    let inserted = a.ctx_mut().atomically(|tx| {
        attempts += 1;
        tree.tx_get(tx, 1)?;
        if attempts == 1 {
            assert!(tree.delete(&mut b, 1));
        }
        tree.tx_insert(tx, 2, 20)
    });
    assert!(inserted);
    assert_eq!(attempts, 2, "{}: the first attempt must abort", F::LABEL);
    let stats = stm.stats();
    assert!(stats.aborts >= 1, "{}: no abort recorded", F::LABEL);
    assert_causes_partition_aborts(F::LABEL, &stats);
}

#[test]
fn a_forced_conflict_aborts_and_its_cause_is_counted_on_both_sf_trees() {
    forced_conflict::<PortableFind>();
    forced_conflict::<OptimizedFind>();
}

#[test]
fn latency_histograms_capture_the_measured_phase() {
    for name in ["sftree", "sftree-opt"] {
        let result = run_contended(name);
        let lat = &result.lat;
        // 4 threads x 5000 ops at the default 1-in-32 sampling leaves
        // hundreds of samples; any nonzero rate must record something.
        assert!(
            lat.op.count() > 0,
            "{name}: sampled op histogram is empty over 20k operations"
        );
        assert!(lat.op.p99() > 0, "{name}: p99 of a nonempty histogram");
        assert!(
            lat.op.p50() <= lat.op.p99() && lat.op.p99() <= lat.op.max.max(lat.op.p99()),
            "{name}: percentiles are ordered"
        );
        // The merged view is exactly the sum of the per-kind views.
        let per_kind: u64 = lat.per_op.iter().map(|h| h.count()).sum();
        assert_eq!(lat.op.count(), per_kind, "{name}: merged == sum of kinds");
        // contains dominates this mix, so its histogram must have samples.
        assert!(
            lat.per_op[0].count() > 0,
            "{name}: contains-op histogram is empty"
        );
    }
}
