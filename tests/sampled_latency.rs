//! Sampled operation latencies: a wall-clock pool times one operation in
//! sixteen per handle and kind, a virtual-clock pool times every one, and
//! the counters are exact either way.
//!
//! Each operation takes exactly one sampling tick — cached, batched and
//! keyed operations included, and an operation whose fast path misses and
//! falls through to a search still takes only one. The tests pin that by
//! counting histogram samples: on a wall clock, `n` operations of one kind
//! on a fresh handle leave exactly `ceil(n / 16)` samples.

use std::sync::Arc;

use cpool::prelude::*;
use cpool::{DynTiming, KeyedPool, KeyedPoolBuilder, NullTiming, ProcId, Timing};
use numa_sim::{LatencyModel, RealTiming, SimScheduler, Topology};

/// The sampling period on a wall clock.
const PERIOD: u64 = 16;

/// `n` operations of one kind on a fresh wall-clock handle are timed at
/// ticks 0, 16, 32, ...
fn samples(n: u64) -> u64 {
    n.div_ceil(PERIOD)
}

#[test]
fn only_wall_clocks_say_so() {
    let scheduler = SimScheduler::new(1, LatencyModel::butterfly(), Topology::identity(1));
    assert!(!scheduler.timing().is_wall_clock(), "virtual time is exact");
    let sim: DynTiming = Arc::new(scheduler.timing());
    assert!(!sim.is_wall_clock(), "the dyn adapter forwards the virtual clock");
    assert!(NullTiming::new().is_wall_clock());
    let null: DynTiming = Arc::new(NullTiming::new());
    assert!(null.is_wall_clock(), "the dyn adapter forwards the wall clock");
    let boxed: Box<dyn Timing> = Box::new(NullTiming::new());
    assert!(boxed.is_wall_clock());
    assert!(RealTiming::new(LatencyModel::butterfly(), Topology::identity(1)).is_wall_clock());
}

#[test]
fn virtual_clocks_time_every_op_through_the_dyn_adapter() {
    let scheduler = SimScheduler::new(1, LatencyModel::butterfly(), Topology::identity(1));
    let timing: DynTiming = Arc::new(scheduler.timing());
    let pool: Pool<VecSegment<u64>, LinearSearch, DynTiming> =
        PoolBuilder::new(4).seed(7).timing(timing).build();
    pool.fill_evenly_with(64, |i| i as u64);
    scheduler.start(ProcId::new(0));
    let mut h = pool.register();
    // One add to three removes: drains the fill, steals across segments
    // and ends in aborts.
    for i in 0..512u64 {
        if i % 4 == 0 {
            h.add(i);
        } else {
            let _ = h.try_remove();
        }
    }
    let stats = h.stats().clone();
    drop(h);
    scheduler.finish(ProcId::new(0));

    assert!(stats.steals > 0 && stats.aborted_removes > 0, "every remove path ran: {stats:?}");
    assert_eq!(stats.add_hist.count(), stats.adds, "every add is timed");
    assert_eq!(stats.remove_hist.count(), stats.removes, "every remove is timed");
    assert_eq!(stats.add_ns, stats.add_hist.sum(), "latencies are unscaled");
    assert_eq!(stats.remove_ns, stats.remove_hist.sum(), "latencies are unscaled");
    assert!(stats.avg_remove_ns().unwrap() > 0.0, "virtual time advanced");
}

#[test]
fn wall_clock_pools_sample_one_in_sixteen_and_count_every_op() {
    let pool: Pool<VecSegment<u32>, LinearSearch> = PoolBuilder::new(2).build();
    let mut h = pool.register();
    for i in 0..160 {
        h.add(i);
    }
    let stats = h.stats();
    assert_eq!(stats.adds, 160);
    assert_eq!(stats.add_hist.count(), 10);
    assert!(stats.avg_add_ns().is_some_and(|ns| ns > 0.0), "{stats:?}");
    assert_eq!(stats.add_ns, PERIOD * stats.add_hist.sum(), "sums scale by the period");
}

#[test]
fn dyn_adapter_over_a_wall_clock_samples_too() {
    let timing: DynTiming = Arc::new(NullTiming::new());
    let pool: Pool<VecSegment<u32>, LinearSearch, DynTiming> =
        PoolBuilder::new(2).timing(timing).build();
    let mut h = pool.register();
    for i in 0..160 {
        h.add(i);
    }
    assert_eq!(h.stats().adds, 160);
    assert_eq!(h.stats().add_hist.count(), 10);
}

#[test]
fn adds_and_removes_count_down_separately() {
    // Strict alternation would land every due tick of a shared countdown
    // on the add; each kind keeps its own.
    let pool: Pool<VecSegment<u32>, LinearSearch> = PoolBuilder::new(2).build();
    let mut h = pool.register();
    for i in 0..160 {
        h.add(i);
        assert_eq!(h.try_remove(), Ok(i));
    }
    let stats = h.stats();
    assert_eq!((stats.adds, stats.removes), (160, 160));
    assert_eq!(stats.add_hist.count(), 10);
    assert_eq!(stats.remove_hist.count(), 10);
}

#[test]
fn cached_ops_enter_the_histogram_one_in_sixteen() {
    let pool: Pool<VecSegment<u32>, LinearSearch> = PoolBuilder::new(2).handle_cache(32).build();
    let mut h = pool.register();
    for i in 0..160 {
        h.add(i);
        assert_eq!(h.try_remove(), Ok(i));
    }
    let stats = h.stats();
    assert_eq!(stats.magazine_hits, 320, "every op was a magazine hit");
    assert_eq!(stats.add_hist.count(), 10);
    assert_eq!(stats.remove_hist.count(), 10);
    assert_eq!(stats.add_hist.max(), Some(0), "cached samples are 0 ns");
    assert_eq!(stats.remove_ns, 0);
}

#[test]
fn a_batch_remove_that_falls_through_to_a_steal_takes_one_tick() {
    let pool: Pool<VecSegment<u32>, LinearSearch> = PoolBuilder::new(2).build();
    let mut thief = pool.register();
    let mut owner = pool.register();
    for round in 0..33 {
        owner.add(round);
        // The thief's segment is empty every round: the batch misses
        // locally, steals the owner's one element, and tops up nothing.
        let got = thief.try_remove_batch(4);
        assert_eq!(got.len(), 1);
        let stats = thief.stats();
        assert_eq!(stats.removes, round as u64 + 1);
        assert_eq!(stats.remove_hist.count(), samples(round as u64 + 1), "round {round}");
    }
    assert_eq!(thief.stats().steals, 33);
}

#[test]
fn keyed_removes_take_one_tick_whether_local_or_stolen() {
    let pool: KeyedPool<u8, u32> = KeyedPoolBuilder::new(2).build();
    let mut a = pool.register();
    let mut b = pool.register();
    for v in 0..16 {
        a.add(7, v);
    }
    for _ in 0..16 {
        a.try_remove_key(&7).expect("served from A's own bucket");
    }
    // A's bucket is now empty: its next removes miss locally, fall through
    // to the search and steal B's elements.
    for v in 16..32 {
        b.add(7, v);
    }
    for _ in 0..16 {
        a.try_remove_key(&7).expect("stolen from B");
    }
    let stats = a.stats();
    assert!(stats.steals >= 1, "{stats:?}");
    assert_eq!((stats.adds, stats.removes), (16, 32));
    assert_eq!(stats.add_hist.count(), samples(16));
    assert_eq!(stats.remove_hist.count(), samples(32));
}
