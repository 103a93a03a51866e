//! Microbenchmark: raw add/remove latency per segment representation.
//!
//! The paper's undelayed Butterfly baseline was ~70 µs per add and ~110 µs
//! per remove; on modern hardware the same operations are nanoseconds.
//! This bench records our substrate's baseline so EXPERIMENTS.md can state
//! the scaling factor explicitly.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use cpool::segment::{AtomicCounter, LockedCounter, Segment, VecSegment};

fn bench_counting<S: Segment<Item = ()>>(c: &mut Criterion, name: &str) {
    let mut group = c.benchmark_group(format!("ops/{name}"));
    group.bench_function("add", |b| {
        let seg = S::new();
        b.iter(|| seg.add(()));
    });
    group.bench_function("remove", |b| {
        let seg = S::new();
        b.iter_batched(
            || seg.add_bulk(vec![(); 1024]),
            |()| {
                for _ in 0..1024 {
                    std::hint::black_box(seg.try_remove());
                }
            },
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

fn bench_element<S: Segment<Item = u64>>(c: &mut Criterion, name: &str) {
    let mut group = c.benchmark_group(format!("ops/{name}"));
    group.bench_function("add", |b| {
        let seg = S::new();
        let mut i = 0u64;
        b.iter(|| {
            seg.add(i);
            i += 1;
        });
    });
    group.bench_function("add_remove_pair", |b| {
        let seg = S::new();
        b.iter(|| {
            seg.add(7);
            std::hint::black_box(seg.try_remove());
        });
    });
    group.finish();
}

fn benches(c: &mut Criterion) {
    bench_counting::<LockedCounter>(c, "locked_counter");
    bench_counting::<AtomicCounter>(c, "atomic_counter");
    bench_element::<VecSegment<u64>>(c, "vec_segment");
}

criterion_group! {
    name = ops;
    // Trimmed sampling: these are comparative microbenchmarks, not
    // absolute-latency measurements.
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(400))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = benches
}
criterion_main!(ops);
