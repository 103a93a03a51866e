//! Integration tests for the hint extension (`cpool::hints`) at the pool
//! level: donations flow end to end, conserve elements, and improve the
//! sparse producer/consumer workloads the paper's §5 asks about.

use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;

use concurrent_pools::prelude::*;
use cpool::PolicyKind;
use harness::run::run_experiment;
use harness::spec::ExperimentSpec;
use workload::{Arrangement, Workload};

/// A producer's add is delivered directly to a consumer whose search has
/// posted on the hint board. The producer paces itself on the waiting
/// count, so every element is offered while the consumer is starving.
#[test]
fn donation_satisfies_a_searcher() {
    let pool: Pool<VecSegment<u64>, LinearSearch> = PoolBuilder::new(2).hints(true).build();

    let consumed = AtomicU64::new(0);
    thread::scope(|s| {
        let mut consumer = pool.register();
        let consumed = &consumed;
        s.spawn(move || {
            let mut got = 0;
            while got < 100 {
                if let Ok(v) = consumer.remove(WaitStrategy::Yield) {
                    consumed.fetch_add(v, Ordering::Relaxed);
                    got += 1;
                }
            }
            assert!(
                consumer.stats().hinted_removes > 0,
                "a starved consumer received at least one donation"
            );
        });

        let mut producer = pool.register();
        let board = pool.hint_board().expect("hints enabled");
        s.spawn(move || {
            for v in 1..=100u64 {
                // Wait for the consumer to post (it does so after one
                // fruitless search lap), then offer the element.
                while !board.has_waiters() {
                    thread::yield_now();
                }
                producer.add(v);
            }
        });
    });

    assert_eq!(consumed.load(Ordering::Relaxed), (1..=100u64).sum());
    let merged = pool.stats().merged();
    assert_eq!(merged.adds, 100);
    assert_eq!(merged.removes, 100);
    assert!(merged.donated_adds > 0, "donations happened");
    assert_eq!(
        merged.donated_adds, merged.hinted_removes,
        "every donation was received exactly once"
    );
    assert_eq!(pool.total_len(), 0);
}

/// Hints never break conservation, for any policy, under heavy churn —
/// also with more handles than segments, where the handles past the
/// segment count have no mailbox on the board.
#[test]
fn hinted_pool_conserves_unique_values() {
    let n = 4;
    for (kind, n_handles) in PolicyKind::ALL.into_iter().flat_map(|k| [(k, n), (k, 2 * n)]) {
        let per = 2_000u64;
        let pool: Pool<VecSegment<u64>, DynPolicy> =
            PoolBuilder::new(n).seed(7).hints(true).build_policy(kind);

        let sum = AtomicU64::new(0);
        thread::scope(|s| {
            for w in 0..n_handles as u64 {
                let mut h = pool.register();
                let sum = &sum;
                s.spawn(move || {
                    for i in 0..per {
                        h.add(w * per + i);
                        if i % 2 == 0 {
                            if let Ok(v) = h.try_remove() {
                                sum.fetch_add(v, Ordering::Relaxed);
                            }
                        }
                    }
                    let mut got = h.stats().removes;
                    while got < per {
                        if let Ok(v) = h.remove(WaitStrategy::Yield) {
                            sum.fetch_add(v, Ordering::Relaxed);
                            got += 1;
                        }
                    }
                });
            }
        });

        let total = n_handles as u64 * per;
        assert_eq!(pool.total_len(), 0, "{kind} x{n_handles}");
        assert_eq!(
            sum.load(Ordering::Relaxed),
            (0..total).sum::<u64>(),
            "{kind} x{n_handles}: every value consumed exactly once"
        );
    }
}

/// A raced delivery (donation arriving while the search already found a
/// steal victim) is banked, not lost: total element flow still balances.
#[test]
fn raced_deliveries_are_banked() {
    // Tight loop maximizing search/add races.
    let pool: Pool<LockedCounter, DynPolicy> =
        PoolBuilder::new(3).seed(13).hints(true).build_policy(PolicyKind::Random);
    let removed = AtomicU64::new(0);
    let added = AtomicU64::new(0);
    thread::scope(|s| {
        for w in 0..3u64 {
            let mut h = pool.register();
            let (removed, added) = (&removed, &added);
            s.spawn(move || {
                for i in 0..5_000u64 {
                    if (i + w) % 3 == 0 {
                        h.add(());
                        added.fetch_add(1, Ordering::Relaxed);
                    } else if h.try_remove().is_ok() {
                        removed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let residue = added.load(Ordering::Relaxed) - removed.load(Ordering::Relaxed);
    assert_eq!(pool.total_len() as u64, residue, "no element lost in delivery races");
}

/// Under the virtual-time engine, hints pay off exactly where the paper's
/// §5 wondered: extreme starvation. At one producer (15 consumers fighting
/// over a trickle) donations cut both probes and modelled completion time
/// by large factors; at five producers searches never complete a fruitless
/// lap, nobody posts, and the hinted pool behaves identically to the plain
/// one.
#[test]
fn hints_improve_sparse_producer_consumer() {
    let spec_for = |producers: usize| {
        let mut spec = ExperimentSpec::paper(
            PolicyKind::Linear,
            Workload::ProducerConsumer { producers, arrangement: Arrangement::Contiguous },
        );
        spec.total_ops = 2_000;
        spec.trials = 3;
        spec
    };

    // Extreme starvation: hints dominate.
    let base = spec_for(1);
    let without = run_experiment(&base);
    let with = run_experiment(&base.clone().with_hints());
    assert!(
        with.trials[0].merged.donated_adds > 100,
        "the starved consumers attract donations: {}",
        with.trials[0].merged.donated_adds
    );
    let probes_without = without.trials[0].merged.segments_examined;
    let probes_with = with.trials[0].merged.segments_examined;
    assert!(
        probes_with * 2 < probes_without,
        "donations short-circuit the long-tail searches: \
         {probes_with} vs {probes_without} probes"
    );
    assert!(
        with.summary.makespan_ms.mean * 1.5 < without.summary.makespan_ms.mean,
        "hints shorten the modelled run: {} vs {} ms",
        with.summary.makespan_ms.mean,
        without.summary.makespan_ms.mean
    );

    // Mild sparseness: searches succeed within a lap, nobody posts, and the
    // hinted pool degrades to exactly the plain pool.
    let easy = spec_for(5);
    let without = run_experiment(&easy);
    let with = run_experiment(&easy.clone().with_hints());
    assert_eq!(with.trials[0].merged.donated_adds, 0, "no fruitless laps, no donations");
    assert_eq!(
        with.trials[0].merged.segments_examined, without.trials[0].merged.segments_examined,
        "hints are a structural no-op when steals succeed"
    );
    assert_eq!(with.trials[0].makespan_ns, without.trials[0].makespan_ns);
}

/// Hinted runs stay deterministic under the virtual-time engine.
#[test]
fn hinted_runs_are_deterministic() {
    let mut spec = ExperimentSpec::paper(
        PolicyKind::Tree,
        Workload::ProducerConsumer { producers: 2, arrangement: Arrangement::Balanced },
    )
    .with_hints();
    spec.total_ops = 1_000;
    spec.trials = 2;
    let a = run_experiment(&spec);
    let b = run_experiment(&spec);
    for (ta, tb) in a.trials.iter().zip(&b.trials) {
        assert_eq!(ta.merged.donated_adds, tb.merged.donated_adds);
        assert_eq!(ta.merged.hinted_removes, tb.merged.hinted_removes);
        assert_eq!(ta.makespan_ns, tb.makespan_ns);
    }
}

/// Hints off ⇒ the donation counters stay zero (no accidental activation).
#[test]
fn hints_default_off() {
    let pool: Pool<LockedCounter, LinearSearch> = PoolBuilder::new(2).build();
    assert!(pool.hint_board().is_none());
    let mut a = pool.register();
    let mut b = pool.register();
    thread::scope(|s| {
        s.spawn(move || {
            for _ in 0..100 {
                a.add(());
            }
        });
        s.spawn(move || {
            let mut got = 0;
            while got < 50 {
                if b.remove(WaitStrategy::Yield).is_ok() {
                    got += 1;
                }
            }
        });
    });
    let merged = pool.stats().merged();
    assert_eq!(merged.donated_adds, 0);
    assert_eq!(merged.hinted_removes, 0);
}
