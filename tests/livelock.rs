//! Livelock-breaker integration tests: the §3.2 termination rule under real
//! thread interleavings. These tests must *terminate* — that is the point.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread;
use std::time::Duration;

use concurrent_pools::prelude::*;
use cpool::PolicyKind;

/// All-consumer swarm on an empty pool: every policy must abort (no hang).
#[test]
fn empty_pool_consumers_all_abort() {
    for kind in PolicyKind::ALL {
        let n = 8;
        let pool: Pool<LockedCounter, DynPolicy> = PoolBuilder::new(n).build_policy(kind);
        let aborted = AtomicU64::new(0);
        thread::scope(|s| {
            for _ in 0..n {
                let mut h = pool.register();
                let aborted = &aborted;
                s.spawn(move || {
                    for _ in 0..50 {
                        if h.try_remove() == Err(RemoveError::Aborted) {
                            aborted.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(aborted.load(Ordering::Relaxed), 8 * 50, "{kind}: every remove aborted");
    }
}

/// A lone producer keeps consumers alive: the gate only fires once the
/// producer has deregistered and the pool is drained.
#[test]
fn consumers_wait_for_a_slow_producer() {
    let n = 4;
    let total = 600u64;
    let pool: Pool<LockedCounter, LinearSearch> = PoolBuilder::new(n).build();
    let consumed = AtomicU64::new(0);

    thread::scope(|s| {
        let mut producer = pool.register();
        s.spawn(move || {
            for i in 0..total {
                producer.add(());
                if i % 64 == 0 {
                    // A slow producer: consumers briefly see an empty pool
                    // while it is still registered, so they must keep trying.
                    thread::sleep(Duration::from_millis(1));
                }
            }
        });
        for _ in 0..n - 1 {
            let mut c = pool.register();
            let consumed = &consumed;
            s.spawn(move || loop {
                // The blocking remove retries transient aborts itself; an
                // Err here means the pool was drained while every process
                // searched — check whether the whole run is finished.
                match c.remove(WaitStrategy::Yield) {
                    Ok(()) => {
                        consumed.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(_) => {
                        if consumed.load(Ordering::Relaxed) == total {
                            break;
                        }
                        thread::yield_now();
                    }
                }
            });
        }
    });
    assert_eq!(consumed.load(Ordering::Relaxed), total, "every element was consumed");
    assert_eq!(pool.total_len(), 0);
}

/// Starvation: blocking `remove` on a drained pool, with every registered
/// process searching at once, returns the abort outcome — it must not hang
/// and must not burn its whole attempt budget (the drained check makes the
/// first abort terminal).
#[test]
fn blocking_remove_on_drained_pool_aborts_instead_of_hanging() {
    for kind in PolicyKind::ALL {
        let n = 8;
        let pool: Pool<LockedCounter, DynPolicy> = PoolBuilder::new(n).build_policy(kind);
        let aborted = AtomicU64::new(0);
        thread::scope(|s| {
            for _ in 0..n {
                let mut h = pool.register();
                let aborted = &aborted;
                s.spawn(move || {
                    for strategy in [WaitStrategy::Spin, WaitStrategy::Yield, WaitStrategy::Park] {
                        if h.remove(strategy) == Err(RemoveError::Aborted) {
                            aborted.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(aborted.load(Ordering::Relaxed), 8 * 3, "{kind}: every blocking remove aborted");
        let merged = pool.stats().merged();
        assert!(
            merged.aborted_removes < 8 * 3 * WaitStrategy::DEFAULT_ATTEMPTS as u64,
            "{kind}: terminal aborts fire well before the budget ({} attempts)",
            merged.aborted_removes
        );
    }
}

/// An aborted remove leaves the pool fully usable: elements added afterwards
/// are found by the previously-aborted process.
#[test]
fn abort_is_recoverable() {
    let pool: Pool<LockedCounter, DynPolicy> = PoolBuilder::new(2).build_policy(PolicyKind::Tree);
    let mut a = pool.register();
    assert_eq!(a.try_remove(), Err(RemoveError::Aborted), "lone searcher aborts");
    a.add(());
    assert!(a.try_remove().is_ok(), "pool works after the abort");
}

/// The gate never counts a process that is between operations as searching:
/// a producer mid-add must suppress the abort of concurrent searchers.
#[test]
fn search_gate_stress_terminates() {
    // Pathological churn: producers flicker between adding a burst and
    // consuming it all back. Consumers hammer remove. The run must finish
    // (no livelock, no lost wakeups) with all elements accounted for.
    let n = 8;
    let pool: Pool<AtomicCounter, DynPolicy> =
        PoolBuilder::new(n).seed(99).build_policy(PolicyKind::Random);
    let stop = AtomicBool::new(false);
    let produced = AtomicU64::new(0);
    let consumed = AtomicU64::new(0);

    thread::scope(|s| {
        for w in 0..n {
            let mut h = pool.register();
            let (stop, produced, consumed) = (&stop, &produced, &consumed);
            s.spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    i += 1;
                    if !(i + w as u64).is_multiple_of(3) {
                        h.add(());
                        produced.fetch_add(1, Ordering::Relaxed);
                    } else if h.try_remove().is_ok() {
                        consumed.fetch_add(1, Ordering::Relaxed);
                    }
                    if i > 20_000 {
                        stop.store(true, Ordering::Relaxed);
                    }
                }
            });
        }
    });

    let residue = produced.load(Ordering::Relaxed) - consumed.load(Ordering::Relaxed);
    assert_eq!(pool.total_len() as u64, residue, "gate churn never lost an element");
}
