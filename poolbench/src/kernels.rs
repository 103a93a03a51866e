//! Isolated kernels: one layer of an operation, timed on one thread around
//! the public call, in blocks interleaved with the traced run's rounds.
//!
//! Each kernel keeps its state across blocks (a pool, a segment family, a
//! key stream), so later blocks price the steady state. A block's time is
//! divided by its call count; a kernel reports the median over its blocks.

use std::hint::black_box;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

use cpool::{
    Depot, FreeList, KeyedPool, KeyedPoolBuilder, LinearSearch, MagazineCache, Notifier, Pool,
    PoolBuilder, SearchGate, Segment, VecSegment,
};
use ttt::{minimax, Board};
use workload::{JobMix, KeyStream, OpStream, RandomMixStream, UniformKeys, ZipfKeys};

use crate::measure::median;
use crate::workloads::{MAGAZINE_DEPTH, SEGMENTS, TTT_DEPTH, ZIPF_KEYS, ZIPF_S};

/// Calls per block of the nanosecond-scale kernels.
const CALLS: u32 = 4096;
/// Segments stolen from per `segment.steal_half_ns` block.
const STEAL_VICTIMS: usize = 256;
/// Elements resident in each victim before its steal.
const STEAL_RESIDENT: u64 = 64;
/// Round trips per `notify.wake_us` block.
const WAKE_TRIPS: u32 = 64;
/// Pre-drawn keys cycled through by the keyed kernels.
const KEY_RING: usize = 4096;

/// One kernel: a named block runner and the per-call times of its blocks.
struct Kernel {
    name: &'static str,
    /// Per-call time of one block, in the kernel's reporting unit.
    block: Box<dyn FnMut() -> f64>,
    results: Vec<f64>,
}

/// The kernel set of one traced run.
pub struct Kernels {
    kernels: Vec<Kernel>,
}

impl std::fmt::Debug for Kernels {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<_> = self.kernels.iter().map(|k| k.name).collect();
        f.debug_struct("Kernels").field("kernels", &names).finish()
    }
}

/// Nanoseconds per call of a block of `calls` calls that took `t0.elapsed()`.
fn per_call_ns(t0: Instant, calls: u32) -> f64 {
    t0.elapsed().as_nanos() as f64 / f64::from(calls)
}

impl Kernels {
    /// Builds every kernel; `sequential_ttt` adds the sequential `minimax`
    /// expansion (tens of milliseconds a block, so `ttt` runs only).
    pub fn new(seed: u64, sequential_ttt: bool) -> Kernels {
        let mut kernels = Vec::new();
        let mut add = |name: &'static str, block: Box<dyn FnMut() -> f64>| {
            kernels.push(Kernel { name, block, results: Vec::new() });
        };

        add(
            "timing.clock_read_ns",
            Box::new(|| {
                let t0 = Instant::now();
                for _ in 0..CALLS {
                    black_box(Instant::now());
                }
                per_call_ns(t0, CALLS)
            }),
        );

        let seg = <VecSegment<u64> as Segment>::new();
        add(
            "segment.add_remove_ns",
            Box::new(move || {
                let t0 = Instant::now();
                for i in 0..CALLS {
                    seg.add(black_box(u64::from(i)));
                    black_box(seg.try_remove());
                }
                per_call_ns(t0, CALLS)
            }),
        );

        let victims = <VecSegment<u64> as Segment>::new_family(STEAL_VICTIMS);
        for v in &victims {
            v.add_bulk_vec((0..STEAL_RESIDENT).collect());
        }
        let mut loot = Vec::with_capacity(STEAL_VICTIMS);
        add(
            "segment.steal_half_ns",
            Box::new(move || {
                let t0 = Instant::now();
                for v in &victims {
                    loot.push(black_box(v.steal_half()));
                }
                let ns = per_call_ns(t0, STEAL_VICTIMS as u32);
                for (v, batch) in victims.iter().zip(loot.drain(..)) {
                    v.add_bulk(batch);
                }
                ns
            }),
        );

        let idle = Notifier::new();
        add(
            "notify.idle_ns",
            Box::new(move || {
                let t0 = Instant::now();
                for _ in 0..CALLS {
                    black_box(&idle).notify_all();
                }
                per_call_ns(t0, CALLS)
            }),
        );

        add("notify.wake_us", Box::new(|| wake_round_trip_ns(WAKE_TRIPS) / 1e3));

        let gate = SearchGate::new();
        // Two registrants, one searching: the gate's common path, where
        // entering does not complete the all-searching condition.
        gate.register();
        gate.register();
        add(
            "gate.search_enter_ns",
            Box::new(move || {
                let t0 = Instant::now();
                for _ in 0..CALLS {
                    drop(black_box(gate.begin_search()));
                }
                per_call_ns(t0, CALLS)
            }),
        );

        let pool: Pool<VecSegment<u64>, LinearSearch> = PoolBuilder::new(SEGMENTS).build();
        let mut h = pool.register();
        add(
            "pool.add_remove_ns",
            Box::new(move || {
                let t0 = Instant::now();
                for i in 0..CALLS {
                    h.add(black_box(u64::from(i)));
                    black_box(h.try_remove()).expect("the handle's own add is local");
                }
                per_call_ns(t0, CALLS)
            }),
        );

        let depot = Depot::new(MAGAZINE_DEPTH, 2 * SEGMENTS + 2);
        let mut cache = MagazineCache::new(MAGAZINE_DEPTH);
        add(
            "magazine.hit_ns",
            Box::new(move || {
                let t0 = Instant::now();
                for i in 0..CALLS {
                    black_box(cache.cache(u64::from(i), &depot));
                    black_box(cache.pop(&depot));
                }
                per_call_ns(t0, CALLS)
            }),
        );

        let depot = Depot::new(MAGAZINE_DEPTH, 2 * SEGMENTS + 2);
        let mut magazine: Vec<u64> = (0..MAGAZINE_DEPTH as u64).collect();
        add(
            "magazine.exchange_ns",
            Box::new(move || {
                let t0 = Instant::now();
                for _ in 0..CALLS {
                    depot.put_full(std::mem::take(&mut magazine)).expect("the depot has room");
                    magazine = depot.take_full().expect("the magazine just stashed");
                    depot.unstash(magazine.len());
                }
                per_call_ns(t0, CALLS)
            }),
        );

        let free: FreeList<Vec<u64>> = FreeList::new(4);
        let mut shell: Vec<u64> = Vec::with_capacity(MAGAZINE_DEPTH);
        add(
            "transfer.freelist_ns",
            Box::new(move || {
                let t0 = Instant::now();
                for _ in 0..CALLS {
                    free.put(std::mem::take(&mut shell));
                    shell = free.take().expect("the shell just put");
                }
                per_call_ns(t0, CALLS)
            }),
        );

        let mut uniform = UniformKeys::new(ZIPF_KEYS, seed);
        add("keyed.pair_uniform_ns", keyed_pair(|| uniform.next_key()));
        let mut zipf = ZipfKeys::new(ZIPF_KEYS, ZIPF_S, seed);
        add("keyed.pair_zipf_ns", keyed_pair(|| zipf.next_key()));

        let mut ops = RandomMixStream::new(JobMix::from_percent(40), seed);
        add(
            "workload.next_op_ns",
            Box::new(move || {
                let t0 = Instant::now();
                for _ in 0..CALLS {
                    black_box(ops.next_op());
                }
                per_call_ns(t0, CALLS)
            }),
        );

        let mut keys = ZipfKeys::new(ZIPF_KEYS, ZIPF_S, seed);
        add(
            "workload.zipf_key_ns",
            Box::new(move || {
                let t0 = Instant::now();
                for _ in 0..CALLS {
                    black_box(keys.next_key());
                }
                per_call_ns(t0, CALLS)
            }),
        );

        let leaves = leaf_boards(CALLS as usize);
        add(
            "ttt.eval_ns",
            Box::new(move || {
                let t0 = Instant::now();
                for b in &leaves {
                    black_box(ttt::eval::evaluate(black_box(b)));
                }
                per_call_ns(t0, CALLS)
            }),
        );

        if sequential_ttt {
            add(
                "ttt.seq_ms",
                Box::new(|| {
                    let t0 = Instant::now();
                    black_box(minimax(black_box(&Board::new()), TTT_DEPTH));
                    t0.elapsed().as_nanos() as f64 / 1e6
                }),
            );
        }

        Kernels { kernels }
    }

    /// Runs one block of every kernel.
    pub fn slice(&mut self) {
        for k in &mut self.kernels {
            let v = (k.block)();
            k.results.push(v);
        }
    }

    /// Median per-call time of each kernel; call after at least one
    /// [`slice`](Self::slice).
    pub fn medians(&self) -> Vec<(&'static str, f64)> {
        self.kernels.iter().map(|k| (k.name, median(&k.results))).collect()
    }
}

/// A keyed-pool kernel: `add(k)` + `try_remove_key(k)` on one thread over
/// keys from `next_key`, on a pool prefilled like the `zipf` workload.
/// The keys are drawn ahead of time so the block prices the pool alone.
fn keyed_pair(mut next_key: impl FnMut() -> u64) -> Box<dyn FnMut() -> f64> {
    let pool: KeyedPool<u64, u64> = KeyedPoolBuilder::new(SEGMENTS).build();
    for seg in 0..SEGMENTS {
        let mut h = pool.register();
        for key in (seg as u64..ZIPF_KEYS).step_by(SEGMENTS) {
            h.add(key, key);
        }
    }
    let mut h = pool.register();
    let keys: Vec<u64> = (0..KEY_RING).map(|_| next_key()).collect();
    Box::new(move || {
        let t0 = Instant::now();
        for &key in &keys {
            h.add(key, key);
            black_box(h.try_remove_key(&key)).expect("the key was just added");
        }
        per_call_ns(t0, KEY_RING as u32)
    })
}

/// Nanoseconds per cross-thread round trip: this thread signals a partner
/// parked in `Waiter::wait`, and parks until the partner signals back.
fn wake_round_trip_ns(trips: u32) -> f64 {
    let ping = Notifier::new();
    let pong = Notifier::new();
    // Odd: the partner's turn; even: this thread's.
    let turn = AtomicU32::new(0);
    // Takes the waiter before checking the condition, as the notifier's
    // protocol requires, so a signal between the check and the park is
    // not lost.
    let await_turn = |n: &Notifier, want: u32| loop {
        let mut w = n.waiter();
        if turn.load(Ordering::SeqCst) == want {
            break;
        }
        w.wait(None);
    };
    std::thread::scope(|s| {
        s.spawn(|| {
            for k in 0..=trips {
                await_turn(&ping, 2 * k + 1);
                turn.store(2 * k + 2, Ordering::SeqCst);
                pong.notify_all();
            }
        });
        let mut t0 = Instant::now();
        // Trip 0 waits out the partner's start and is not timed.
        for k in 0..=trips {
            if k == 1 {
                t0 = Instant::now();
            }
            turn.store(2 * k + 1, Ordering::SeqCst);
            ping.notify_all();
            await_turn(&pong, 2 * k + 2);
        }
        per_call_ns(t0, trips)
    })
}

/// The first `n` depth-3 positions of the game tree, in move order.
fn leaf_boards(n: usize) -> Vec<Board> {
    let root = Board::new();
    let mut out = Vec::with_capacity(n);
    for a in root.moves() {
        let b1 = root.place(a);
        for b in b1.moves() {
            let b2 = b1.place(b);
            for c in b2.moves() {
                out.push(b2.place(c));
                if out.len() == n {
                    return out;
                }
            }
        }
    }
    out
}
