//! Criterion micro-benchmarks of per-operation latency for each tree
//! (contains / insert+delete pair) on a pre-populated 2^10-key set. These are
//! the single-threaded costs underlying Table 1 and Figure 3.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sf_baselines::{AvlTree, NoRestructureTree, RedBlackTree};
use sf_stm::Stm;
use sf_tree::{OptSpecFriendlyTree, ShardedMap, SpecFriendlyTree, TxMap};
use std::time::Duration;

const SIZE: u64 = 1 << 10;

fn bench_tree<M>(
    group: &mut criterion::BenchmarkGroup<'_, criterion::measurement::WallTime>,
    tree: M,
) where
    M: TxMap,
{
    let stm = Stm::default_config();
    let mut handle = tree.register(stm.register());
    let label = tree.name();
    for k in 0..SIZE {
        tree.insert(&mut handle, k * 2, k);
    }
    group.bench_with_input(BenchmarkId::new("contains", label), &label, |b, _| {
        let mut key = 0u64;
        b.iter(|| {
            key = (key + 37) % (SIZE * 2);
            tree.contains(&mut handle, key)
        })
    });
    group.bench_with_input(BenchmarkId::new("insert_delete", label), &label, |b, _| {
        let mut key = 1u64;
        b.iter(|| {
            key = ((key + 74) % (SIZE * 2)) | 1; // odd keys are absent initially
            let inserted = tree.insert(&mut handle, key, key);
            let deleted = tree.delete(&mut handle, key);
            (inserted, deleted)
        })
    });
}

fn bench_trees(c: &mut Criterion) {
    let mut group = c.benchmark_group("tree_ops_1024_keys");
    group.measurement_time(Duration::from_secs(1));
    group.warm_up_time(Duration::from_millis(300));
    group.sample_size(20);
    bench_tree(&mut group, SpecFriendlyTree::new());
    bench_tree(&mut group, OptSpecFriendlyTree::new());
    bench_tree(&mut group, RedBlackTree::new());
    bench_tree(&mut group, AvlTree::new());
    bench_tree(&mut group, NoRestructureTree::new());
    bench_tree(
        &mut group,
        ShardedMap::<OptSpecFriendlyTree>::spec_friendly(
            4,
            sf_stm::StmConfig::ctl(),
            sf_workloads::backend::maintenance_config(false),
        ),
    );
    group.finish();
}

criterion_group!(benches, bench_trees);
criterion_main!(benches);
