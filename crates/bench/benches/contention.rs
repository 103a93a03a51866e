//! Microbenchmark: whole-pool throughput under thread contention.
//!
//! Runs a fixed combined operation budget (the paper's trial shape) on real
//! threads at raw machine speed and reports elapsed time per budget — i.e.
//! contended throughput of the full add/remove/steal machinery for each
//! search policy, plus the locked/atomic segment ablation. A second group
//! pits the hand-rolled lock-free primitives against the retired mutex-shim
//! design on the same multi-threaded push+pop kernel (shared with the
//! `contention` binary through [`bench::contention`], so these numbers and
//! the committed `BENCH_contention.json` measure identical code).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use bench::contention::{bag_round, steal_churn_round, Bag, MutexQueue};
use cpool::prelude::*;
use cpool::segment::{AtomicCounter, LockedCounter, Segment};
use cpool::transfer::FreeList;
use crossbeam_queue::{ArrayQueue, SegQueue, Stack};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use workload::OpBudget;

const THREADS: usize = 4;
const OPS: u64 = 20_000;

fn run_budget<S: Segment<Item = ()>>(kind: PolicyKind) {
    let pool: Pool<S, DynPolicy> =
        PoolBuilder::new(THREADS).seed(9).node_store(NodeStoreKind::Locked).build_policy(kind);
    pool.fill_evenly(20 * THREADS);
    let budget = Arc::new(OpBudget::new(OPS));
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let mut handle = pool.register();
            let budget = Arc::clone(&budget);
            s.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(t as u64);
                while budget.take() {
                    // Sparse mix (40% adds): the steal-heavy regime where
                    // policies differ.
                    if rng.gen_bool(0.4) {
                        handle.add(());
                    } else {
                        let _ = handle.try_remove();
                    }
                }
            });
        }
    });
}

fn bench_contention(c: &mut Criterion) {
    let mut group = c.benchmark_group("contention/sparse_mix_4_threads");
    group.throughput(Throughput::Elements(OPS));
    group.sample_size(10);
    for kind in PolicyKind::ALL {
        group.bench_with_input(
            BenchmarkId::new("locked_segments", kind.to_string()),
            &kind,
            |b, &kind| b.iter(|| run_budget::<LockedCounter>(kind)),
        );
        group.bench_with_input(
            BenchmarkId::new("atomic_segments", kind.to_string()),
            &kind,
            |b, &kind| b.iter(|| run_budget::<AtomicCounter>(kind)),
        );
    }
    group.finish();
}

/// The primitive matrix: `THREADS` real threads hammering one shared
/// container with push+pop pairs. `mutex_shim` is the before row.
fn bench_primitives(c: &mut Criterion) {
    const PAIRS: u64 = 20_000;
    let mut group = c.benchmark_group(format!("contention/primitives_{THREADS}_threads"));
    group.throughput(Throughput::Elements(PAIRS));
    group.sample_size(10);
    group.bench_function(BenchmarkId::from_parameter(MutexQueue::NAME), |b| {
        b.iter(|| bag_round::<MutexQueue>(THREADS, PAIRS))
    });
    group.bench_function(BenchmarkId::from_parameter(<FreeList<u64> as Bag>::NAME), |b| {
        b.iter(|| bag_round::<FreeList<u64>>(THREADS, PAIRS))
    });
    group.bench_function(BenchmarkId::from_parameter(<Stack<u64> as Bag>::NAME), |b| {
        b.iter(|| bag_round::<Stack<u64>>(THREADS, PAIRS))
    });
    group.bench_function(BenchmarkId::from_parameter(<SegQueue<u64> as Bag>::NAME), |b| {
        b.iter(|| bag_round::<SegQueue<u64>>(THREADS, PAIRS))
    });
    group.bench_function(BenchmarkId::from_parameter(<ArrayQueue<u64> as Bag>::NAME), |b| {
        b.iter(|| bag_round::<ArrayQueue<u64>>(THREADS, PAIRS))
    });
    group.finish();
}

/// `steal_half` under churn: a thief runs the two-phase transfer against
/// one segment while a producer churns add/remove traffic on the same
/// segment — one row per element-segment representation (shared with the
/// `contention` binary's `churn/*` rows through
/// [`bench::contention::steal_churn_round`]).
fn bench_steal_churn(c: &mut Criterion) {
    const CHURN_OPS: u64 = 20_000;
    let mut group = c.benchmark_group("contention/steal_half_under_churn");
    group.sample_size(10);
    group.bench_function(BenchmarkId::from_parameter("vec"), |b| {
        b.iter(|| steal_churn_round::<VecSegment<u64>>(CHURN_OPS))
    });
    group.bench_function(BenchmarkId::from_parameter("lf"), |b| {
        b.iter(|| steal_churn_round::<LfSegment<u64>>(CHURN_OPS))
    });
    group.bench_function(BenchmarkId::from_parameter("lane4"), |b| {
        b.iter(|| steal_churn_round::<LaneSegment<VecSegment<u64>, 4>>(CHURN_OPS))
    });
    group.finish();
}

criterion_group!(contention, bench_contention, bench_primitives, bench_steal_churn);
criterion_main!(contention);
