//! Microbenchmark: the cost of `steal_half` as a function of victim size.
//!
//! For counting segments a steal is O(1) regardless of size (the batch is a
//! `Vec<()>`, a bare length); for the element deque it drains ⌈n/2⌉
//! elements into a vector.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};

use cpool::segment::{LockedCounter, Segment, VecSegment};

fn bench_steals(c: &mut Criterion) {
    let mut group = c.benchmark_group("steal_half");
    for &size in &[2usize, 16, 128, 1024, 8192] {
        group.throughput(Throughput::Elements(size as u64));

        group.bench_with_input(BenchmarkId::new("counting", size), &size, |b, &size| {
            let seg = LockedCounter::new();
            b.iter_batched(
                || seg.add_bulk(vec![(); size]),
                |()| std::hint::black_box(seg.steal_half()),
                BatchSize::SmallInput,
            );
        });

        group.bench_with_input(BenchmarkId::new("vec", size), &size, |b, &size| {
            let seg: VecSegment<u64> = VecSegment::new();
            b.iter_batched(
                || seg.add_bulk((0..size as u64).collect()),
                |()| std::hint::black_box(seg.steal_half()),
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

criterion_group! {
    name = steal;
    // Trimmed sampling: these are comparative microbenchmarks, not
    // absolute-latency measurements.
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(400))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_steals
}
criterion_main!(steal);
