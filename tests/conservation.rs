//! Cross-crate conservation tests: whatever the policy, segment kind, or
//! interleaving, a pool never loses, duplicates, or invents elements.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread;

use concurrent_pools::prelude::*;
use cpool::PolicyKind;

/// Every value pushed through a heavily-stolen pool comes out exactly once.
#[test]
fn unique_values_survive_stealing_for_every_policy() {
    for kind in PolicyKind::ALL {
        let n = 8;
        let per = 2_000u64;
        let pool: Pool<VecSegment<u64>, DynPolicy> =
            PoolBuilder::new(n).seed(11).build_policy(kind);
        let seen = Mutex::new(HashSet::new());

        thread::scope(|s| {
            for w in 0..n as u64 {
                let mut h = pool.register();
                let seen = &seen;
                s.spawn(move || {
                    let mut local = Vec::with_capacity(per as usize);
                    // Interleave adds and removes so steals happen mid-run.
                    for i in 0..per {
                        h.add(w * per + i);
                        if i % 3 == 0 {
                            if let Ok(v) = h.try_remove() {
                                local.push(v);
                            }
                        }
                    }
                    let mut got = local.len() as u64;
                    while got < per {
                        if let Ok(v) = h.remove(WaitStrategy::Yield) {
                            local.push(v);
                            got += 1;
                        }
                    }
                    let mut seen = seen.lock().unwrap();
                    for v in local {
                        assert!(seen.insert(v), "value {v} removed twice ({kind})");
                    }
                });
            }
        });

        assert_eq!(pool.total_len(), 0, "{kind}: pool drained");
        assert_eq!(
            seen.into_inner().unwrap().len() as u64,
            n as u64 * per,
            "{kind}: every value came out exactly once"
        );
    }
}

/// Counting segments: global adds − removes always equals the residue.
#[test]
fn counting_pool_balances_for_every_policy() {
    for kind in PolicyKind::ALL {
        let n = 4;
        let pool: Pool<AtomicCounter, DynPolicy> = PoolBuilder::new(n).seed(3).build_policy(kind);
        pool.fill_evenly(100);

        let removed = AtomicU64::new(0);
        let added = AtomicU64::new(0);
        thread::scope(|s| {
            for w in 0..n {
                let mut h = pool.register();
                let (removed, added) = (&removed, &added);
                s.spawn(move || {
                    for i in 0..1_000 {
                        if (i + w) % 2 == 0 {
                            h.add(());
                            added.fetch_add(1, Ordering::Relaxed);
                        } else if h.try_remove().is_ok() {
                            removed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });

        let expect = 100 + added.load(Ordering::Relaxed) - removed.load(Ordering::Relaxed);
        assert_eq!(pool.total_len() as u64, expect, "{kind}: adds - removes == residue");
    }
}

/// The merged statistics agree with the ground truth counters.
#[test]
fn stats_match_ground_truth() {
    let n = 6;
    let pool: Pool<LockedCounter, LinearSearch> = PoolBuilder::new(n).seed(5).build();
    pool.fill_evenly(60);

    thread::scope(|s| {
        for _ in 0..n {
            let mut h = pool.register();
            s.spawn(move || {
                for i in 0..500 {
                    if i % 4 == 0 {
                        h.add(());
                    } else {
                        let _ = h.try_remove();
                    }
                }
            });
        }
    });

    let merged = pool.stats().merged();
    assert_eq!(merged.ops(), 500 * n as u64, "every op accounted");
    assert_eq!(
        60 + merged.adds - merged.removes,
        pool.total_len() as u64,
        "stats balance against the residue"
    );
    // Each successful steal satisfied one remove and moved stolen-1 elements
    // into the thief's segment, so elements_stolen >= steals.
    assert!(merged.elements_stolen >= merged.steals);
}

/// `fill_evenly` seeds without charging any process and balances segments.
#[test]
fn fill_evenly_is_balanced_and_unattributed() {
    let pool: Pool<LockedCounter, DynPolicy> = PoolBuilder::new(5).build_policy(PolicyKind::Random);
    pool.fill_evenly(23);
    let sizes = pool.segment_sizes();
    assert_eq!(sizes.iter().sum::<usize>(), 23);
    assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    assert!(pool.stats().per_proc.is_empty(), "no process charged for the fill");
}

/// Dropping handles mid-run deposits their stats; late registrants keep the
/// gate consistent and the pool usable.
#[test]
fn churning_handles_keeps_pool_consistent() {
    let pool: Pool<LockedCounter, LinearSearch> = PoolBuilder::new(4).build();
    for round in 0..10 {
        let mut h = pool.register();
        for _ in 0..=round {
            h.add(());
        }
        drop(h);
    }
    assert_eq!(pool.gate().registered(), 0);
    assert_eq!(pool.stats().per_proc.len(), 10);
    assert_eq!(pool.total_len(), 55, "1+2+..+10 adds survived the churn");
}
