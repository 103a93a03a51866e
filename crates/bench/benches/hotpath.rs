//! Hot-path dispatch cost: generic `NullTiming` vs the `Arc<dyn Timing>`
//! adapter.
//!
//! The pool is generic over its cost model, so the uninstrumented
//! configuration monomorphizes to bare lock/steal code; the same code built
//! over [`DynTiming`](cpool::DynTiming) pays an Arc deref plus a virtual
//! call per charge. This bench measures both on the two paths that matter:
//! the uncontended local add/remove pair and the single-element steal.
//! `BENCH_hotpath.json` (repo root) pins the same comparison from the
//! `hotpath` bench binary; the measured loops are shared through
//! [`bench::hotpath`] so the two stay in sync.

use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;

use bench::hotpath::{
    add_remove_op, batch_roundtrip_op, bursty_op, magazine_pool_with, per_element_roundtrip_op,
    pool_with, steal_op, AsyncHandoff, Handoff, BATCH_SIZES, HANDOFF_SETTLE, MAGAZINE_DEPTHS,
};
use cpool::{DynTiming, NullTiming, WaitStrategy};

fn benches(c: &mut Criterion) {
    let pool = pool_with(1, NullTiming::new());
    let mut op = add_remove_op(&pool);
    c.bench_function("hotpath/add_remove/generic", |b| b.iter(&mut op));

    let adapter: DynTiming = Arc::new(NullTiming::new());
    let pool = pool_with(1, adapter);
    let mut op = add_remove_op(&pool);
    c.bench_function("hotpath/add_remove/dyn", |b| b.iter(&mut op));

    let pool = pool_with(2, NullTiming::new());
    let mut op = steal_op(&pool);
    c.bench_function("hotpath/steal/generic", |b| b.iter(&mut op));

    let adapter: DynTiming = Arc::new(NullTiming::new());
    let pool = pool_with(2, adapter);
    let mut op = steal_op(&pool);
    c.bench_function("hotpath/steal/dyn", |b| b.iter(&mut op));

    // Producer→blocked-consumer wakeup latency: the settle sleep puts the
    // consumer into its steady idle state (backoff cap / parked) before
    // each measured add. NOTE: criterion measures the whole round here —
    // settle included — so compare the park/block pair against each other,
    // not against the committed JSON medians (whose rounds exclude the
    // settle).
    for (name, wait) in [("park", WaitStrategy::Park), ("block", WaitStrategy::Block)] {
        let mut handoff = Handoff::new(wait);
        c.bench_function(format!("hotpath/handoff/{name}"), |b| {
            b.iter(|| handoff.round(HANDOFF_SETTLE))
        });
    }

    // The waker-based consumer on the same rig: vs `handoff/block`, this
    // prices the waker round trip (same notifier, same steal).
    let mut handoff = AsyncHandoff::new();
    c.bench_function("hotpath/handoff/async", |b| b.iter(|| handoff.round(HANDOFF_SETTLE)));
    drop(handoff);

    // Handle-local magazine caches: the `add_remove/generic` pair served
    // entirely from the handle's two-magazine cache (zero shared RMWs in
    // the steady state), swept over magazine depths.
    for depth in MAGAZINE_DEPTHS {
        let pool = magazine_pool_with(1, depth, NullTiming::new());
        let mut op = add_remove_op(&pool);
        c.bench_function(format!("hotpath/magazine_add_remove/{depth}"), |b| b.iter(&mut op));
    }

    // Bursty churn: alternating add-heavy/remove-heavy bursts force the
    // depot exchange path; the plain-pool twin is the baseline.
    let pool = pool_with(1, NullTiming::new());
    let mut op = bursty_op(&pool);
    c.bench_function("hotpath/bursty/plain", |b| b.iter(&mut op));
    let pool = magazine_pool_with(1, 32, NullTiming::new());
    let mut op = bursty_op(&pool);
    c.bench_function("hotpath/bursty/magazine32", |b| b.iter(&mut op));

    // Batched vs per-element element traffic; each iteration moves `batch`
    // elements, so compare per-size pairs (the bin twin normalizes to
    // ns/element for the committed JSON).
    for batch in BATCH_SIZES {
        let pool = pool_with(1, NullTiming::new());
        let mut op = batch_roundtrip_op(&pool, batch);
        c.bench_function(format!("hotpath/batch_add_remove/batched/{batch}"), |b| b.iter(&mut op));

        let pool = pool_with(1, NullTiming::new());
        let mut op = per_element_roundtrip_op(&pool, batch);
        c.bench_function(format!("hotpath/batch_add_remove/per_element/{batch}"), |b| {
            b.iter(&mut op)
        });
    }
}

criterion_group! {
    name = hotpath;
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(400))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = benches
}
criterion_main!(hotpath);
