//! # Benchmark harness
//!
//! One binary per figure/table of Kotz & Ellis (1989), plus the bench
//! binaries that emit the committed `BENCH_*.json` baselines. The figure
//! binaries are thin CLI wrappers over [`harness::figures`]; shared
//! plumbing (artifact writing, scale parsing) and the bench binaries'
//! measurement kernels live here.
//!
//! | Binary | Regenerates |
//! |---|---|
//! | `fig2` | Figure 2 (op time vs job mix) |
//! | `fig3`–`fig6` | Figures 3–6 (segment-size traces) |
//! | `fig7` | Figure 7, errata applied (elements stolen per steal) |
//! | `tab_compare` | §4.1/§4.3 algorithm comparison table |
//! | `delay_sweep` | §4.3 remote-delay sweep |
//! | `ttt_speedup` | §4.4 application speedups |
//! | `run_all` | everything above, writing `target/experiments/` |
//! | `hotpath` | `BENCH_hotpath.json` (hot-path dispatch, transfer, handoff) |
//! | `contention` | `BENCH_contention.json` (threads × segments × mix) |
//! | `zipf` | `BENCH_zipf.json` (keyed pool under uniform and Zipf keys) |
//!
//! Common flags: `--procs N --ops N --trials N --seed N` (defaults are the
//! paper's 16/5000/10), plus `--quick` for a fast smoke-scale run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;

use harness::cli::Args;
use harness::csv::{experiments_dir, write_csv};
use harness::figures::Scale;

/// Measurement kernels for the hot-path dispatch comparison, run by the
/// `hotpath` binary (`src/bin/hotpath.rs`) to produce the committed
/// `BENCH_hotpath.json` baseline.
pub mod hotpath {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::thread::JoinHandle;
    use std::time::{Duration, Instant};

    use cpool::future::exec::{block_on, Fleet};
    use cpool::{
        Handle, LaneSegment, LfSegment, LinearSearch, Pool, PoolBuilder, PoolOps, RemoveError,
        Segment, Timing, VecSegment, WaitStrategy,
    };

    /// The pool configuration both hot-path benchmarks measure.
    pub type HotPool<T> = Pool<VecSegment<u64>, LinearSearch, T>;

    /// Batch sizes the batched-vs-per-element comparison sweeps.
    pub const BATCH_SIZES: [usize; 3] = [1, 8, 64];

    /// Occupancies the steal-transfer sweep measures (elements resident in
    /// the victim when the steal fires; the transfer moves ⌈n/2⌉).
    pub const TRANSFER_OCCUPANCIES: [usize; 3] = [64, 1024, 8192];

    /// Builds the measured pool over the given cost model.
    pub fn pool_with<T: Timing>(segments: usize, timing: T) -> HotPool<T> {
        PoolBuilder::new(segments).seed(1).timing(timing).build()
    }

    /// Builds the fully lock-free twin of [`pool_with`]: same protocol,
    /// segments answer from CAS-reserved occupancy over a lock-free queue.
    pub fn lf_pool_with<T: Timing>(
        segments: usize,
        timing: T,
    ) -> Pool<LfSegment<u64>, LinearSearch, T> {
        PoolBuilder::new(segments).seed(1).timing(timing).build()
    }

    /// Builds the sharded-lane twin of [`pool_with`] (`K = 4` mutex lanes
    /// per segment, affinity-routed).
    pub fn lane_pool_with<T: Timing>(
        segments: usize,
        timing: T,
    ) -> Pool<LaneSegment<VecSegment<u64>, 4>, LinearSearch, T> {
        PoolBuilder::new(segments).seed(1).timing(timing).build()
    }

    /// Magazine depths the handle-cache sweep measures (elements per
    /// magazine; each handle holds two).
    pub const MAGAZINE_DEPTHS: [usize; 3] = [8, 32, 128];

    /// Builds the magazine-enabled twin of [`pool_with`]: identical pool,
    /// but every handle carries a two-magazine cache of `depth` elements
    /// per magazine, so the steady-state add→remove pair never touches the
    /// shared segment (see `cpool::magazine`).
    pub fn magazine_pool_with<T: Timing>(segments: usize, depth: usize, timing: T) -> HotPool<T> {
        PoolBuilder::new(segments).seed(1).handle_cache(depth).timing(timing).build()
    }

    /// Operations per burst in the bursty churn kernel.
    pub const BURSTY_BURST_OPS: u64 = 256;

    /// Alternating add-heavy/remove-heavy bursts from one handle — the
    /// magazine-churn pattern: an add burst fills magazines and pushes
    /// full ones to the depot, the following remove burst drains and raids
    /// them back, so the measured cost includes the exchange machinery,
    /// not just the pure-hit steady state. Runs identically on a plain
    /// pool (the baseline) and a magazine pool. ns per operation; removes
    /// that find the pool empty count (their abort cost is part of the
    /// pattern's real price).
    pub fn bursty_op<S, T>(pool: &Pool<S, LinearSearch, T>) -> impl FnMut() + '_
    where
        S: Segment<Item = u64>,
        T: Timing,
    {
        use workload::{BurstyStream, Op, OpStream};
        let mut handle = pool.register();
        let mut stream = BurstyStream::nine_to_one(BURSTY_BURST_OPS, 0x1CD5);
        move || match stream.next_op() {
            Op::Add => handle.add(7),
            Op::Remove => {
                std::hint::black_box(handle.try_remove().ok());
            }
        }
    }

    /// One uncontended local add immediately removed: the fast path.
    /// Build the pool with 1 segment.
    pub fn add_remove_op<S, T>(pool: &Pool<S, LinearSearch, T>) -> impl FnMut() + '_
    where
        S: Segment<Item = u64>,
        T: Timing,
    {
        let mut handle = pool.register();
        move || {
            handle.add(7);
            std::hint::black_box(handle.try_remove().expect("just added"));
        }
    }

    /// A remove that must steal: the victim holds exactly one element, so
    /// every iteration runs the full search + two-phase transfer with no
    /// refill. Build the pool with 2 segments.
    pub fn steal_op<S, T>(pool: &Pool<S, LinearSearch, T>) -> impl FnMut() + '_
    where
        S: Segment<Item = u64>,
        T: Timing,
    {
        let mut thief = pool.register(); // home segment 0
        let mut victim = pool.register(); // home segment 1
        move || {
            victim.add(7);
            std::hint::black_box(thief.try_remove().expect("victim has an element"));
        }
    }

    /// Reserve sizes the reserve-building steal cycle sweeps.
    pub const RESERVE_SIZES: [usize; 3] = [16, 64, 512];

    /// A reserve-building steal cycle — the paper's actual protocol shape,
    /// where a steal moves half a segment and banks a reserve — amortized
    /// per element. Each iteration: the victim deposits `reserve` elements
    /// in one batch; the thief's batched remove runs **one** search +
    /// two-phase steal (⌈reserve/2⌉ elements in one vector: one kept, the rest refilled into the thief's segment) and
    /// serves the remainder of its batch from that refilled reserve; the
    /// victim then drains its own residue. `reserve` elements flow through
    /// the pool per iteration — normalize ns by that count. Build the pool
    /// with 2 segments.
    pub fn steal_reserve_op<S, T>(
        pool: &Pool<S, LinearSearch, T>,
        reserve: usize,
    ) -> impl FnMut() + '_
    where
        S: Segment<Item = u64>,
        T: Timing,
    {
        let mut thief = pool.register(); // home segment 0
        let mut victim = pool.register(); // home segment 1
        move || {
            victim.add_batch(0..reserve as u64);
            let got = thief.try_remove_batch(reserve / 2);
            assert_eq!(got.len(), reserve / 2, "one steal serves the whole batch");
            for item in got {
                std::hint::black_box(item);
            }
            for item in victim.try_remove_batch(reserve / 2) {
                std::hint::black_box(item);
            }
        }
    }

    /// One steal→refill transfer hop at a pinned occupancy: `steal_half`
    /// drains ⌈occupancy/2⌉ elements into a vector and `add_bulk`
    /// deposits them straight back, restoring the occupancy exactly — the
    /// two phases every successful probe pays, isolated from the search.
    /// For a vec segment the vector is a recycled shell.
    ///
    /// Normalize by [`transfer_elements`] to report ns per element moved.
    pub fn transfer_op<S: Segment<Item = u64>>(seg: &S) -> impl FnMut() + '_ {
        move || {
            let batch = seg.steal_half();
            seg.add_bulk(batch);
        }
    }

    /// Elements one [`transfer_op`] iteration moves at `occupancy`.
    pub fn transfer_elements(occupancy: usize) -> usize {
        cpool::segment::steal_count(occupancy)
    }

    /// A vec segment pre-filled to `occupancy`.
    pub fn filled_vec_segment(occupancy: usize) -> VecSegment<u64> {
        let seg = VecSegment::new();
        for i in 0..occupancy as u64 {
            seg.add(i);
        }
        seg
    }

    /// `batch` elements added with one `add_batch` and removed with one
    /// `try_remove_batch`: one segment lock (and one per-batch timer/probe
    /// charge) per direction. Build the pool with 1 segment.
    pub fn batch_roundtrip_op<T: Timing>(pool: &HotPool<T>, batch: usize) -> impl FnMut() + '_ {
        let mut handle = pool.register();
        move || {
            handle.add_batch(0..batch as u64);
            let got = handle.try_remove_batch(batch);
            assert_eq!(got.len(), batch, "local batch must be served in full");
            std::hint::black_box(got.into_vec());
        }
    }

    /// The same element traffic as [`batch_roundtrip_op`], moved one
    /// element at a time — the loop every batch-less caller writes. Build
    /// the pool with 1 segment.
    pub fn per_element_roundtrip_op<T: Timing>(
        pool: &HotPool<T>,
        batch: usize,
    ) -> impl FnMut() + '_ {
        let mut handle = pool.register();
        move || {
            for i in 0..batch as u64 {
                handle.add(i);
            }
            for _ in 0..batch {
                std::hint::black_box(handle.try_remove().expect("just added"));
            }
        }
    }

    /// How long an idle consumer is given to settle into its wait before
    /// the producer adds: long enough for `Park`'s exponential backoff to
    /// reach its cap and for `Block` to actually park the thread, so each
    /// measured round starts from the strategy's steady idle state.
    pub const HANDOFF_SETTLE: Duration = Duration::from_micros(400);

    /// A producer→blocked-consumer handoff rig: one consumer thread waits
    /// in a blocking `remove(wait)` on an otherwise-empty two-segment pool
    /// while the producer (the caller) stays registered but idle, so the
    /// wait never turns into a terminal abort.
    ///
    /// [`round`](Self::round) measures the latency from the producer's
    /// `add` to the consumer observing the element — the number the
    /// `Park`-vs-[`Block`](WaitStrategy::Block) comparison is about:
    /// polling backoff discovers the element only when its current sleep
    /// expires, while the notifier wakes the parked consumer on the add
    /// edge.
    pub struct Handoff {
        pool: HotPool<cpool::NullTiming>,
        producer: Handle<VecSegment<u64>, LinearSearch>,
        received: Arc<AtomicU64>,
        sent: u64,
        consumer: Option<JoinHandle<()>>,
    }

    impl Handoff {
        /// Spawns the consumer, waiting under `wait`.
        pub fn new(wait: WaitStrategy) -> Self {
            let pool = pool_with(2, cpool::NullTiming::new());
            let producer = pool.register();
            let mut consumer_handle = pool.register();
            let received = Arc::new(AtomicU64::new(0));
            let received_consumer = Arc::clone(&received);
            let consumer = std::thread::spawn(move || loop {
                match consumer_handle.remove_with_attempts(wait, usize::MAX) {
                    Ok(v) => {
                        std::hint::black_box(v);
                        received_consumer.fetch_add(1, Ordering::Release);
                    }
                    Err(RemoveError::Closed) => break,
                    Err(_) => {}
                }
            });
            Handoff { pool, producer, received, sent: 0, consumer: Some(consumer) }
        }

        /// One measured handoff: settle, add, and time until the consumer
        /// acknowledges receipt. The settle sleep is excluded from the
        /// returned duration.
        pub fn round(&mut self, settle: Duration) -> Duration {
            std::thread::sleep(settle);
            self.sent += 1;
            let t0 = Instant::now();
            self.producer.add(self.sent);
            while self.received.load(Ordering::Acquire) < self.sent {
                std::hint::spin_loop();
            }
            t0.elapsed()
        }

        /// Runs `rounds` handoffs and returns the median latency in
        /// nanoseconds (the median filters scheduler outliers; individual
        /// park/unpark round trips are noisy).
        pub fn median_ns(&mut self, rounds: usize) -> f64 {
            let mut samples: Vec<u64> =
                (0..rounds).map(|_| self.round(HANDOFF_SETTLE).as_nanos() as u64).collect();
            samples.sort_unstable();
            samples[samples.len() / 2] as f64
        }
    }

    impl Drop for Handoff {
        fn drop(&mut self) {
            // Close-on-drop is the shutdown path under test everywhere
            // else: the consumer drains out with `Closed` and joins.
            self.pool.close();
            if let Some(consumer) = self.consumer.take() {
                let _ = consumer.join();
            }
        }
    }

    /// The async twin of [`Handoff`]: the consumer thread awaits
    /// `remove_async` futures (`block_on` parks it between polls), so the
    /// measured latency is add edge → waker delivery → re-poll → steal,
    /// against `Block`'s add edge → unpark → retry. The delta between the
    /// `handoff/block` and `handoff/async` rows is therefore the price of
    /// the waker round trip itself — same notifier, same steal.
    pub struct AsyncHandoff {
        pool: HotPool<cpool::NullTiming>,
        producer: Handle<VecSegment<u64>, LinearSearch>,
        received: Arc<AtomicU64>,
        sent: u64,
        consumer: Option<JoinHandle<()>>,
    }

    impl AsyncHandoff {
        /// Spawns the awaiting consumer.
        pub fn new() -> Self {
            let pool = pool_with(2, cpool::NullTiming::new());
            let producer = pool.register();
            let consumer_handle = pool.register();
            let received = Arc::new(AtomicU64::new(0));
            let received_consumer = Arc::clone(&received);
            let consumer = std::thread::spawn(move || loop {
                match block_on(consumer_handle.remove_async()) {
                    Ok(v) => {
                        std::hint::black_box(v);
                        received_consumer.fetch_add(1, Ordering::Release);
                    }
                    Err(RemoveError::Closed) => break,
                    Err(_) => {}
                }
            });
            AsyncHandoff { pool, producer, received, sent: 0, consumer: Some(consumer) }
        }

        /// One measured handoff; see [`Handoff::round`].
        pub fn round(&mut self, settle: Duration) -> Duration {
            std::thread::sleep(settle);
            self.sent += 1;
            let t0 = Instant::now();
            self.producer.add(self.sent);
            while self.received.load(Ordering::Acquire) < self.sent {
                std::hint::spin_loop();
            }
            t0.elapsed()
        }

        /// Median handoff latency in nanoseconds; see [`Handoff::median_ns`].
        pub fn median_ns(&mut self, rounds: usize) -> f64 {
            let mut samples: Vec<u64> =
                (0..rounds).map(|_| self.round(HANDOFF_SETTLE).as_nanos() as u64).collect();
            samples.sort_unstable();
            samples[samples.len() / 2] as f64
        }
    }

    impl Default for AsyncHandoff {
        fn default() -> Self {
            Self::new()
        }
    }

    impl Drop for AsyncHandoff {
        fn drop(&mut self) {
            self.pool.close();
            if let Some(consumer) = self.consumer.take() {
                let _ = consumer.join();
            }
        }
    }

    /// Fleet sizes the one-thread-drives-N throughput sweep measures.
    pub const ASYNC_DRIVE_SIZES: [usize; 3] = [64, 1024, 4096];

    /// One-thread-drives-N throughput: spawn `n` `remove_async` futures,
    /// pend them all on the empty pool, feed exactly `n` elements, and
    /// drive the fleet dry from the one driver thread. Returns the median
    /// ns per element over `rounds` — the number that shows how the
    /// single-threaded dispatch loop (wake dedup, ready-queue swap,
    /// re-poll, steal) scales with the count of concurrently pending
    /// futures.
    pub fn async_drive_median_ns(n: usize, rounds: usize) -> f64 {
        let pool = pool_with(2, cpool::NullTiming::new());
        let mut producer = pool.register();
        let frontend = pool.register();
        let mut samples: Vec<u64> = (0..rounds)
            .map(|_| {
                let mut fleet = Fleet::new();
                for _ in 0..n {
                    fleet.spawn(frontend.remove_async());
                }
                let ready = fleet.poll_ready(|_, _| {});
                assert_eq!(ready, 0, "pool is empty: every future pends");
                let t0 = Instant::now();
                for v in 0..n as u64 {
                    producer.add(v);
                }
                fleet.drive(|_, result| {
                    std::hint::black_box(result.expect("fed exactly n elements"));
                });
                (t0.elapsed().as_nanos() / n as u128) as u64
            })
            .collect();
        samples.sort_unstable();
        samples[samples.len() / 2] as f64
    }
}

/// Measurement kernels for the multi-threaded contention matrix, run by
/// the `contention` binary (`src/bin/contention.rs`) to produce the
/// committed `BENCH_contention.json` baseline. Two matrices:
///
/// * **Primitive matrix** — real threads hammering one shared container
///   with push+pop pairs: the retired mutex-shim design
///   ([`MutexQueue`](contention::MutexQueue), a `Mutex<VecDeque>`) against
///   the three hand-rolled lock-free structures in `crossbeam-queue`
///   ([`Stack`](crossbeam_queue::Stack) — the free-list primitive,
///   [`SegQueue`](crossbeam_queue::SegQueue),
///   [`ArrayQueue`](crossbeam_queue::ArrayQueue)).
/// * **Pool matrix** — the whole add/remove/steal machinery, threads ×
///   segments × workload mix × segment representation (vec, lf, lane).
pub mod contention {
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Barrier;
    use std::time::Instant;

    use cpool::transfer::FreeList;
    use cpool::{LaneSegment, LfSegment, LinearSearch, Pool, PoolBuilder, Segment, VecSegment};
    use crossbeam_queue::{ArrayQueue, SegQueue, Stack};
    use parking_lot::Mutex;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use workload::OpBudget;

    /// Thread counts both matrices sweep.
    pub const THREAD_MATRIX: [usize; 4] = [1, 2, 4, 8];

    /// Elements pre-loaded per participating thread before the clock
    /// starts, so pops essentially never observe an empty container and
    /// the loop measures push/pop cost, not empty-retry spinning.
    pub const PREFILL_PER_THREAD: usize = 16;

    /// Workload mixes the pool matrix crosses: fraction of operations that
    /// are adds. 40% is the steal-heavy regime where remote traffic
    /// dominates; 60% keeps segments populated so local paths dominate.
    pub const MIXES: [(&str, f64); 2] = [("sparse40", 0.4), ("dense60", 0.6)];

    /// A concurrent multiset of `u64`s — the least common denominator of
    /// the retired mutex shim and its lock-free replacements, so one kernel
    /// measures all four.
    pub trait Bag: Send + Sync {
        /// Row label used in result names.
        const NAME: &'static str;
        /// Creates a bag that can hold at least `capacity` elements.
        fn with_capacity(capacity: usize) -> Self;
        /// Inserts one element.
        fn push(&self, value: u64);
        /// Removes some element, or `None` if empty.
        fn pop(&self) -> Option<u64>;
    }

    /// The "before" row: the design of the retired `crossbeam-queue` shim —
    /// a `parking_lot::Mutex` around a `VecDeque`, every operation through
    /// the lock.
    pub struct MutexQueue(Mutex<VecDeque<u64>>);

    impl Bag for MutexQueue {
        const NAME: &'static str = "mutex_shim";
        fn with_capacity(capacity: usize) -> Self {
            MutexQueue(Mutex::new(VecDeque::with_capacity(capacity)))
        }
        fn push(&self, value: u64) {
            self.0.lock().push_back(value);
        }
        fn pop(&self) -> Option<u64> {
            self.0.lock().pop_front()
        }
    }

    impl Bag for FreeList<u64> {
        const NAME: &'static str = "free_list";
        fn with_capacity(capacity: usize) -> Self {
            // Sized past the kernel's peak occupancy so `put` never drops
            // (a dropped element would starve the paired pop).
            FreeList::new(capacity)
        }
        fn push(&self, value: u64) {
            self.put(value);
        }
        fn pop(&self) -> Option<u64> {
            self.take()
        }
    }

    impl Bag for Stack<u64> {
        const NAME: &'static str = "treiber_stack";
        fn with_capacity(_capacity: usize) -> Self {
            Stack::new()
        }
        fn push(&self, value: u64) {
            Stack::push(self, value);
        }
        fn pop(&self) -> Option<u64> {
            Stack::pop(self)
        }
    }

    impl Bag for SegQueue<u64> {
        const NAME: &'static str = "seg_queue";
        fn with_capacity(_capacity: usize) -> Self {
            SegQueue::new()
        }
        fn push(&self, value: u64) {
            SegQueue::push(self, value);
        }
        fn pop(&self) -> Option<u64> {
            SegQueue::pop(self)
        }
    }

    impl Bag for ArrayQueue<u64> {
        const NAME: &'static str = "array_queue";
        fn with_capacity(capacity: usize) -> Self {
            ArrayQueue::new(capacity)
        }
        fn push(&self, value: u64) {
            // Sized so the kernel never fills the queue; spin defensively
            // rather than silently dropping an element if it ever does.
            let mut value = value;
            while let Err(back) = ArrayQueue::push(self, value) {
                value = back;
                std::thread::yield_now();
            }
        }
        fn pop(&self) -> Option<u64> {
            ArrayQueue::pop(self)
        }
    }

    /// Runs `threads` workers each performing `pairs` push+pop pairs
    /// against one shared bag and returns wall-clock nanoseconds per pair
    /// (per-thread latency: constant under perfect scaling, growing under
    /// contention). Occupancy hovers at the prefill level throughout, so
    /// every pop finds an element.
    ///
    /// Each worker times its own window (start barrier → last pair) and
    /// the slowest worker's clock is the cell — timing from the
    /// coordinating thread would race the workers on an oversubscribed
    /// host, where the coordinator can be scheduled last.
    pub fn bag_round<B: Bag>(threads: usize, pairs: u64) -> f64 {
        let bag = B::with_capacity(PREFILL_PER_THREAD * threads + threads + 8);
        for i in 0..(PREFILL_PER_THREAD * threads) as u64 {
            bag.push(i);
        }
        let start = Barrier::new(threads);
        let slowest_ns = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..threads {
                let (bag, start, slowest_ns) = (&bag, &start, &slowest_ns);
                s.spawn(move || {
                    start.wait();
                    let t0 = Instant::now();
                    for i in 0..pairs {
                        bag.push(t as u64 * pairs + i);
                        while bag.pop().is_none() {
                            // Can only happen transiently; yield rather
                            // than spin so an oversubscribed host lets the
                            // in-flight operation finish.
                            std::thread::yield_now();
                        }
                    }
                    slowest_ns.fetch_max(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                });
            }
        });
        slowest_ns.load(Ordering::Relaxed) as f64 / pairs as f64
    }

    /// Runs a shared budget of `ops` mixed add/remove operations over a
    /// whole pool from `threads` registered processes and returns
    /// wall-clock nanoseconds per operation. `segments < threads` forces
    /// processes to share home segments (maximum lock contention);
    /// `segments == threads` is the paper's per-processor shape.
    pub fn pool_round<S: Segment<Item = u64>>(
        threads: usize,
        segments: usize,
        add_fraction: f64,
        ops: u64,
    ) -> f64 {
        let pool: Pool<S, LinearSearch> = PoolBuilder::new(segments).seed(9).build();
        pool.fill_evenly_with(PREFILL_PER_THREAD * segments, |i| i as u64);
        let budget = OpBudget::new(ops);
        let start = Barrier::new(threads);
        let slowest_ns = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..threads {
                let mut handle = pool.register();
                let (budget, start, slowest_ns) = (&budget, &start, &slowest_ns);
                s.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(t as u64);
                    start.wait();
                    let t0 = Instant::now();
                    while budget.take() {
                        if rng.gen_bool(add_fraction) {
                            handle.add(t as u64);
                        } else {
                            let _ = handle.try_remove();
                        }
                    }
                    // Deregister before reporting: a straggler searching an
                    // empty pool aborts only once every *registered*
                    // process is searching (§3.2), so a worker that kept
                    // its handle while idling here could strand the last
                    // searcher.
                    drop(handle);
                    slowest_ns.fetch_max(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                });
            }
        });
        slowest_ns.load(Ordering::Relaxed) as f64 / ops as f64
    }

    /// The pool matrix's vec-segment cell.
    pub fn pool_round_vec(threads: usize, segments: usize, add_fraction: f64, ops: u64) -> f64 {
        pool_round::<VecSegment<u64>>(threads, segments, add_fraction, ops)
    }

    /// The pool matrix's fully lock-free segment cell.
    pub fn pool_round_lf(threads: usize, segments: usize, add_fraction: f64, ops: u64) -> f64 {
        pool_round::<LfSegment<u64>>(threads, segments, add_fraction, ops)
    }

    /// The pool matrix's sharded-lane cell at the default lane count
    /// (`K = 4` mutex lanes over vec deques).
    pub fn pool_round_lane(threads: usize, segments: usize, add_fraction: f64, ops: u64) -> f64 {
        pool_round::<LaneSegment<VecSegment<u64>, 4>>(threads, segments, add_fraction, ops)
    }

    /// Lane counts the `LaneSegment` sweep measures (`K = 1` is the
    /// degenerate single-lane case — pure adapter overhead over the inner
    /// mutex segment).
    pub const LANE_COUNTS: [usize; 4] = [1, 2, 4, 8];

    /// The lane sweep's cell: [`pool_round`] over
    /// `LaneSegment<VecSegment<u64>, K>` for a runtime-chosen `K`. Lane
    /// counts are const generics, so the sweep dispatches to one
    /// monomorphization per entry in [`LANE_COUNTS`].
    ///
    /// # Panics
    ///
    /// Panics if `k` is not in [`LANE_COUNTS`].
    pub fn pool_round_lane_k(
        k: usize,
        threads: usize,
        segments: usize,
        add_fraction: f64,
        ops: u64,
    ) -> f64 {
        match k {
            1 => {
                pool_round::<LaneSegment<VecSegment<u64>, 1>>(threads, segments, add_fraction, ops)
            }
            2 => {
                pool_round::<LaneSegment<VecSegment<u64>, 2>>(threads, segments, add_fraction, ops)
            }
            4 => {
                pool_round::<LaneSegment<VecSegment<u64>, 4>>(threads, segments, add_fraction, ops)
            }
            8 => {
                pool_round::<LaneSegment<VecSegment<u64>, 8>>(threads, segments, add_fraction, ops)
            }
            _ => panic!("lane sweep covers K in {LANE_COUNTS:?}, not {k}"),
        }
    }

    /// Elements resident in the victim segment when the churn kernel
    /// starts; the producer's balanced mix keeps occupancy hovering here.
    pub const CHURN_PREFILL: usize = 256;

    /// `steal_half` under churn: a thief repeatedly runs the two-phase
    /// transfer (`steal_half` → `add_bulk` straight back) against **one**
    /// segment while a producer churns balanced `add`/`try_remove` traffic
    /// on the same segment — the direct owner-vs-thief collision every
    /// segment representation resolves differently (the mutex deque
    /// serializes, the lock-free queue interleaves CAS reservations, the
    /// lanes route the two parties to different shards).
    ///
    /// Returns the thief's wall-clock nanoseconds per steal cycle (empty
    /// probes yield and still count: under churn an empty probe is part of
    /// the thief's real cost). The producer's ops budget bounds the run.
    pub fn steal_churn_round<S: Segment<Item = u64>>(churn_ops: u64) -> f64 {
        let family = S::new_family(1);
        let seg = &family[0];
        for i in 0..CHURN_PREFILL as u64 {
            seg.add(i);
        }
        let start = Barrier::new(2);
        let done = AtomicU64::new(0);
        let thief_ns_per_cycle = std::thread::scope(|s| {
            let (done_ref, start_ref) = (&done, &start);
            s.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(11);
                start_ref.wait();
                for i in 0..churn_ops {
                    if rng.gen_bool(0.5) {
                        seg.add(i);
                    } else {
                        let _ = seg.try_remove();
                    }
                }
                done_ref.store(1, Ordering::Release);
            });
            let thief = s.spawn(move || {
                start_ref.wait();
                let t0 = Instant::now();
                let mut cycles = 0u64;
                loop {
                    let batch = seg.steal_half();
                    if batch.is_empty() {
                        std::thread::yield_now();
                    } else {
                        seg.add_bulk(batch);
                    }
                    cycles += 1;
                    if done_ref.load(Ordering::Acquire) == 1 {
                        break;
                    }
                }
                t0.elapsed().as_nanos() as f64 / cycles as f64
            });
            thief.join().expect("thief thread panicked")
        });
        // Leave the family balanced for drop; residue is irrelevant to the
        // measurement but draining exercises no extra timed code.
        while seg.try_remove().is_some() {}
        thief_ns_per_cycle
    }

    /// Minimum of `runs` repetitions (wall-clock floors filter scheduler
    /// noise exactly as `hotpath::measure` does for single-threaded loops).
    pub fn best_of(runs: usize, mut f: impl FnMut() -> f64) -> f64 {
        (0..runs.max(1)).map(|_| f()).fold(f64::INFINITY, f64::min)
    }
}

/// Keyed-pool kernels under skewed key traffic — the uniform-vs-Zipfian
/// matrix behind `BENCH_zipf.json` (`cargo run --release -p bench --bin
/// zipf`).
pub mod keyed {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Barrier;
    use std::time::Instant;

    use cpool::{KeyedPool, KeyedPoolBuilder};
    use workload::{KeyDist, KeyStream};

    /// Distinct keys each cell's streams draw from. Large enough that a
    /// Zipf(1.1) head is a *small* fraction of the buckets, small enough
    /// that uniform traffic keeps every bucket warm.
    pub const KEY_SPACE: u64 = 512;

    /// Prefill per key per segment: the buffer that keeps the paired
    /// add→remove traffic from ever draining a key to zero (a keyed
    /// remove of a globally absent key searches until traffic for that
    /// key reappears, which would measure the wait, not the operation).
    pub const PREFILL_PER_KEY: usize = 4;

    /// One cell: `threads` workers over a `segments`-segment keyed pool,
    /// each performing `warmup` untimed and then `pairs` timed
    /// add(key)+remove(key) pairs with the key drawn per pair from
    /// `dist`. Returns wall-clock nanoseconds per timed *operation* (two
    /// per pair), slowest thread, like
    /// [`contention::pool_round`](crate::contention::pool_round).
    pub fn keyed_round(
        threads: usize,
        segments: usize,
        warmup: u64,
        pairs: u64,
        dist: KeyDist,
    ) -> f64 {
        let pool: KeyedPool<u64, u64> = KeyedPoolBuilder::new(segments).build();
        // Per-segment prefill of the whole key space: every remove finds
        // its key without cross-key searching, whatever the skew.
        for _ in 0..segments {
            let mut h = pool.register();
            for key in 0..KEY_SPACE {
                for i in 0..PREFILL_PER_KEY {
                    h.add(key, i as u64);
                }
            }
        }
        let start = Barrier::new(threads);
        let timed = Barrier::new(threads);
        let slowest_ns = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..threads {
                let mut handle = pool.register();
                let (start, timed, slowest_ns) = (&start, &timed, &slowest_ns);
                let mut keys = dist.stream(0x5EED ^ t as u64);
                s.spawn(move || {
                    start.wait();
                    for i in 0..warmup {
                        let key = keys.next_key();
                        handle.add(key, i);
                        let _ = handle.try_remove_key(&key);
                    }
                    // Re-align after warmup so the timed sections overlap.
                    timed.wait();
                    let t0 = Instant::now();
                    for i in 0..pairs {
                        let key = keys.next_key();
                        handle.add(key, i);
                        let _ = handle.try_remove_key(&key);
                    }
                    // Deregister before reporting (see `pool_round`): an
                    // idle straggler would strand the last searcher on the
                    // §3.2 gate.
                    drop(handle);
                    slowest_ns.fetch_max(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                });
            }
        });
        slowest_ns.load(Ordering::Relaxed) as f64 / (pairs * 2) as f64
    }
}

/// Host-parallelism probe shared by the JSON-emitting bench binaries.
///
/// Every committed `BENCH_*.json` records the host it was measured on:
/// `host_cpus` (what the OS advertises) and `measured_parallel` (whether
/// two spinning threads actually overlapped when we tried it). On a
/// single-CPU or heavily oversubscribed host the multi-threaded cells
/// measure time-sliced interleaving, not true parallelism — the numbers
/// are still internally comparable (same-run, same host), but absolute
/// scaling claims need the flag to be `true`.
pub mod host {
    use std::sync::Barrier;
    use std::time::Instant;

    /// Spin iterations per probe thread: long enough (~1 ms) that two
    /// genuinely parallel threads visibly overlap, short enough to run at
    /// every bench startup.
    const PROBE_SPINS: u64 = 2_000_000;

    /// A fixed CPU-bound workload the probe times solo and in duo.
    fn spin() {
        let mut acc = 0u64;
        for i in 0..PROBE_SPINS {
            // An LCG step per iteration: cheap, serial, unoptimizable away.
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(acc);
    }

    /// Logical CPUs the OS advertises (0 if it will not say).
    pub fn available_cpus() -> usize {
        std::thread::available_parallelism().map_or(0, |n| n.get())
    }

    /// Measures whether two threads actually run in parallel: times the
    /// spin workload solo, then two copies concurrently. Each duo thread
    /// times its own spin from the start barrier, and the duo time is the
    /// slower of the two, so thread spawn and join stay out of it as they
    /// stay out of the solo time. On a parallel host the duo time stays
    /// near the solo time; on a time-sliced host it doubles. Best-of-3 on
    /// both sides filters scheduler noise; the 1.6× threshold sits between
    /// the ideal ratios of 1.0 (parallel) and 2.0 (serial).
    pub fn measured_parallel() -> bool {
        let timed_spin = || {
            let t0 = Instant::now();
            spin();
            t0.elapsed().as_secs_f64()
        };
        let best = |f: &dyn Fn() -> f64| (0..3).map(|_| f()).fold(f64::INFINITY, f64::min);
        let solo = best(&timed_spin);
        let duo = best(&|| {
            let start = Barrier::new(2);
            std::thread::scope(|s| {
                let threads: Vec<_> = (0..2)
                    .map(|_| {
                        let start = &start;
                        s.spawn(move || {
                            start.wait();
                            timed_spin()
                        })
                    })
                    .collect();
                threads.into_iter().map(|t| t.join().expect("probe thread")).fold(0.0, f64::max)
            })
        });
        duo < solo * 1.6
    }

    /// Probes the host once and prints a stderr banner if the
    /// multi-threaded cells will be time-sliced rather than parallel.
    /// Returns `(available_cpus, measured_parallel)` for the JSON header.
    pub fn probe_and_warn() -> (usize, bool) {
        let cpus = available_cpus();
        let parallel = measured_parallel();
        if cpus <= 1 || !parallel {
            eprintln!(
                "WARNING: this host runs threads time-sliced, not in parallel \
                 (available_parallelism = {cpus}, measured_parallel = {parallel})."
            );
            eprintln!(
                "         Multi-threaded cells measure contention under interleaving; \
                 same-run comparisons hold, absolute scaling does not."
            );
        }
        (cpus, parallel)
    }
}

/// Parses the common scale flags.
pub fn scale_from_args(args: &Args) -> Scale {
    let base = if args.flag("quick") { Scale::tiny() } else { Scale::paper() };
    Scale {
        procs: args.parse_or("procs", base.procs),
        total_ops: args.parse_or("ops", base.total_ops),
        trials: args.parse_or("trials", base.trials),
        seed: args.parse_or("seed", base.seed),
    }
}

/// Writes a CSV artifact under the experiments directory and reports it.
pub fn emit_csv(name: &str, headers: &[&str], rows: &[Vec<String>]) -> PathBuf {
    let path = experiments_dir().join(name);
    match write_csv(&path, headers, rows) {
        Ok(()) => println!("[wrote {}]", path.display()),
        Err(e) => eprintln!("[failed to write {}: {e}]", path.display()),
    }
    path
}

/// Writes a rendered text figure alongside the CSVs.
pub fn emit_text(name: &str, content: &str) -> PathBuf {
    let path = experiments_dir().join(name);
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    match std::fs::write(&path, content) {
        Ok(()) => println!("[wrote {}]", path.display()),
        Err(e) => eprintln!("[failed to write {}: {e}]", path.display()),
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_defaults_to_paper() {
        let scale = scale_from_args(&Args::parse_args(Vec::new()));
        assert_eq!(scale.procs, 16);
        assert_eq!(scale.total_ops, 5000);
    }

    #[test]
    fn quick_flag_shrinks() {
        let args = Args::parse_args(vec!["--quick".to_string()]);
        let scale = scale_from_args(&args);
        assert!(scale.total_ops < 5000);
    }

    #[test]
    fn explicit_flags_override() {
        let args =
            Args::parse_args(vec!["--procs".into(), "8".into(), "--trials".into(), "3".into()]);
        let scale = scale_from_args(&args);
        assert_eq!(scale.procs, 8);
        assert_eq!(scale.trials, 3);
        assert_eq!(scale.total_ops, 5000, "unset flags keep defaults");
    }
}
