//! The async layer's steady-state guarantee: **register / wake /
//! re-register cycles perform zero heap allocations** — at the notifier,
//! at a single polled future, and across a fleet's wake→re-poll dispatch.
//!
//! Waker-list shells recycle through the notifier's free list (a
//! `notify_all` swaps the registered wakers into a recycled vector and
//! returns it after delivery), future construction is plain owned data
//! (`ProcStats` histograms are fixed arrays, the linear policy state is
//! `Copy`), and the fleet driver reuses its ready-queue and scratch
//! buffers — so once warmed, an async consumer adds no allocator traffic
//! to the steal path's own zero-allocation guarantee
//! (`tests/alloc_steal.rs`, whose counting-allocator scheme this file
//! replicates: a process-wide `#[global_allocator]` in a dedicated test
//! binary, counting scoped to the armed measuring thread).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

use cpool::prelude::*;

/// Counts allocator hits (alloc + realloc) from the armed thread.
struct CountingAlloc;

static HITS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // `const` init: reading this inside the allocator performs no lazy
    // initialization and therefore cannot itself allocate or recurse.
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

fn armed() -> bool {
    ARMED.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if armed() {
            HITS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if armed() {
            HITS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if armed() {
            HITS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `op` with this thread's counter armed and returns the number of
/// allocator hits it caused.
fn count_allocs(op: impl FnOnce()) -> usize {
    HITS.store(0, Ordering::SeqCst);
    ARMED.with(|armed| armed.set(true));
    op();
    ARMED.with(|armed| armed.set(false));
    HITS.load(Ordering::SeqCst)
}

const WARMUP_ROUNDS: usize = 50;
const MEASURED_ROUNDS: usize = 50;

/// A waker that does nothing on wake: the tests below poll by hand, so
/// delivery is observed through the poll results, not the waker.
struct NopWake;

impl Wake for NopWake {
    fn wake(self: Arc<Self>) {}
}

/// The notifier primitive alone: register a block of wakers, cancel a few
/// (the swap-remove withdrawal path), signal the rest. Past warmup the
/// waker list and the recycled delivery shell both hold their capacity,
/// so the whole cycle is pointer traffic.
#[test]
fn notifier_register_wake_reregister_allocates_nothing() {
    const WAITERS: usize = 64;
    let notifier = Notifier::default();
    let waker = Waker::from(Arc::new(NopWake));
    let round = |notifier: &Notifier| {
        let mut cancel = [0u64; 8];
        for i in 0..WAITERS {
            let ticket = notifier.register_waker(&waker);
            if i < cancel.len() {
                cancel[i] = ticket;
            }
        }
        for ticket in cancel {
            assert!(notifier.cancel_waker(ticket), "not yet drained");
        }
        notifier.notify_all();
    };
    for _ in 0..WARMUP_ROUNDS {
        round(&notifier);
    }
    let hits = count_allocs(|| {
        for _ in 0..MEASURED_ROUNDS {
            round(&notifier);
        }
    });
    assert_eq!(
        hits, 0,
        "steady-state register/cancel/notify cycle must not allocate \
         ({MEASURED_ROUNDS} rounds of {WAITERS} wakers)"
    );
}

/// A full pool future's lifecycle — create, poll to pending (waker armed
/// at the lap boundary), producer adds, re-poll to `Ok` through the steal
/// path — allocates nothing per cycle: the future is plain owned data and
/// every container it touches is recycled. The round's batch is sized so
/// the steal rides a recycled shell (a sub-`SHELL_SPILL_MIN` steal takes
/// the segment's deliberate tiny-batch allocation path instead — a
/// segment-layer trade, not waker traffic), and the residue drains
/// through local pops, which never touch the allocator.
#[test]
fn future_poll_cycle_allocates_nothing() {
    // 2× the shell-spill minimum: the future's steal takes ⌈16/2⌉ = 8
    // elements through the recycled-shell transfer path.
    const BATCH: u64 = 16;
    let pool: Pool<VecSegment<u64>, LinearSearch> = PoolBuilder::new(2).build();
    let mut consumer = pool.register(); // home segment 0
    let mut producer = pool.register(); // home segment 1
    let waker = Waker::from(Arc::new(NopWake));
    let mut cx = Context::from_waker(&waker);

    let mut round = |v: u64, cx: &mut Context<'_>| {
        let mut fut = consumer.remove_async();
        assert!(Pin::new(&mut fut).poll(cx).is_pending(), "empty pool: future pends");
        for i in 0..BATCH {
            producer.add(v + i); // the first add wakes the registered future
        }
        match Pin::new(&mut fut).poll(cx) {
            Poll::Ready(Ok(_)) => {}
            other => panic!("woken future must resolve, got {other:?}"),
        }
        // Restore the empty pool with exact local pops: the future banked
        // its steal's surplus (7) in the consumer's home segment and the
        // producer still holds the unstolen half (8), so no pop ever falls
        // through to a search.
        for _ in 0..BATCH / 2 - 1 {
            assert!(consumer.try_remove().is_ok(), "banked surplus is local");
        }
        for _ in 0..BATCH / 2 {
            assert!(producer.try_remove().is_ok(), "unstolen half is local");
        }
    };
    for i in 0..WARMUP_ROUNDS as u64 {
        round(i, &mut cx);
    }
    let hits = count_allocs(|| {
        for i in 0..MEASURED_ROUNDS as u64 {
            round(i, &mut cx);
        }
    });
    assert_eq!(
        hits, 0,
        "steady-state create/pend/add/resolve future cycle must not allocate \
         ({MEASURED_ROUNDS} rounds)"
    );
}

/// The fleet dispatch loop under a notify storm that satisfies nobody:
/// key-scoped futures wake on the *other* key's add edge, re-check, and
/// re-register. Wake delivery (dedup flag + ready-queue push), the
/// dispatch round, the search pass, and the re-registration together
/// allocate nothing in steady state.
#[test]
fn fleet_wake_repoll_churn_allocates_nothing() {
    const TASKS: usize = 32;
    const WANTED: u8 = 1;
    const NOISE: u8 = 0;
    let pool: KeyedPool<u8, u64> = KeyedPoolBuilder::new(2).build();
    let mut producer = pool.register();
    let h = pool.register();
    let mut fleet = Fleet::new();
    for _ in 0..TASKS {
        fleet.spawn(h.remove_key_async(WANTED));
    }
    assert_eq!(fleet.poll_ready(|_, _| {}), 0, "no WANTED element: all pend");

    let mut round = |v: u64, fleet: &mut Fleet<_>| {
        // The wrong key's add edge wakes every registered future...
        producer.add(NOISE, v);
        // ...and the dispatch round re-polls them all back to pending.
        assert_eq!(fleet.poll_ready(|_, _| {}), 0, "wrong key satisfies nobody");
        assert_eq!(fleet.pending(), TASKS);
        // Take the noise element back so the pool's footprint is stable.
        assert_eq!(producer.try_remove_key(&NOISE), Ok(v));
    };
    for i in 0..WARMUP_ROUNDS as u64 {
        round(i, &mut fleet);
    }
    let hits = count_allocs(|| {
        for i in 0..MEASURED_ROUNDS as u64 {
            round(i, &mut fleet);
        }
    });
    assert_eq!(
        hits, 0,
        "steady-state wake/re-poll fleet churn must not allocate \
         ({MEASURED_ROUNDS} rounds over {TASKS} pending futures)"
    );

    // Cleanup: resolve the fleet so its tasks do not outlive the pool's
    // threads-free scope (close resolves every pending future).
    pool.close();
    let mut closed = 0;
    fleet.drive(|_, result| {
        assert_eq!(result, Err(RemoveError::Closed));
        closed += 1;
    });
    assert_eq!(closed, TASKS);
}
