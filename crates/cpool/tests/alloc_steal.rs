//! The transfer layer's headline guarantee: the **steady-state steal path
//! performs zero heap allocations**, on both frontends.
//!
//! Transfer shells are recycled through per-pool free lists
//! (`cpool::transfer`), and the counting segments' `Vec<()>` transfers
//! never reach the heap at all, so once a pool has warmed up — its batch
//! shells and bucket capacities grown to the workload's footprint — a
//! producer/thief cycle of adds, steals (two-phase drain + refill), and
//! removes touches the allocator not at all. This file installs a counting
//! `#[global_allocator]` and asserts exactly that.
//!
//! The test lives in its own integration-test binary because a global
//! allocator is process-wide. Counting is scoped to the *measuring thread*
//! (armed flag + a const-initialized thread-local): the libtest harness
//! thread stays alive beside the test and occasionally allocates, and the
//! guarantee under test is about the thread executing the steal path, not
//! about bystanders.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use cpool::{
    AtomicCounter, KeyedPool, LaneSegment, LfSegment, LinearSearch, LockedCounter, Pool,
    PoolBuilder, Segment, VecSegment,
};

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
/// Elements the producer adds per round; the thief steals ⌈n/2⌉ of them.
const PER_ROUND: u64 = 64;

/// One steady-state round on the plain pool: the victim produces a burst,
/// the thief's first remove runs the full search + two-phase steal-half
/// transfer (32 elements: one kept, 31 refilled into its home segment),
/// both sides then consume their halves so every shell cycles back
/// through the pool's free lists. Element values do not matter here, so
/// the victim adds `Default` ones and counting pools run the same round.
fn pool_round<S: Segment<Item: Default>>(
    thief: &mut cpool::Handle<S, LinearSearch>,
    victim: &mut cpool::Handle<S, LinearSearch>,
) {
    for _ in 0..PER_ROUND {
        victim.add(S::Item::default());
    }
    for _ in 0..PER_ROUND / 2 {
        thief.try_remove().expect("victim produced this round");
    }
    for _ in 0..PER_ROUND / 2 {
        victim.try_remove().expect("residue is local");
    }
}

fn check_pool_frontend<S: Segment<Item: Default>>(name: &str) {
    let pool: Pool<S, LinearSearch> = PoolBuilder::new(2).build();
    let mut thief = pool.register(); // home segment 0
    let mut victim = pool.register(); // home segment 1
    for _ in 0..WARMUP_ROUNDS {
        pool_round(&mut thief, &mut victim);
    }
    assert_eq!(pool.total_len(), 0, "{name}: rounds are balanced");
    let hits = count_allocs(|| {
        for _ in 0..MEASURED_ROUNDS {
            pool_round(&mut thief, &mut victim);
        }
    });
    let steals = thief.stats().steals;
    assert!(steals >= (WARMUP_ROUNDS + MEASURED_ROUNDS) as u64, "{name}: every round stole");
    assert_eq!(
        hits, 0,
        "{name}: steady-state add/steal/refill/remove cycle must not allocate \
         ({MEASURED_ROUNDS} rounds, {steals} steals total)"
    );
}

/// The primitive under all of the pool-level guarantees above: the
/// lock-free Treiber stack the free lists ride on keeps popped nodes on an
/// internal spares list and reuses them for later pushes, so past the
/// high-water mark a push/pop churn performs zero allocations — `pop`
/// never frees, `push` only allocates when no spare exists.
#[test]
fn treiber_free_list_steady_state_allocates_nothing() {
    use crossbeam_queue::Stack;

    let stack = Stack::new();
    // Warm to the high-water mark: every node the measured churn needs is
    // allocated here once and then recycled through the spares list.
    for i in 0..PER_ROUND {
        stack.push(i);
    }
    for _ in 0..PER_ROUND {
        stack.pop().expect("warmed");
    }
    let hits = count_allocs(|| {
        for _ in 0..MEASURED_ROUNDS {
            for i in 0..PER_ROUND {
                stack.push(i);
            }
            for _ in 0..PER_ROUND {
                stack.pop().expect("pushed this round");
            }
        }
    });
    assert_eq!(
        hits, 0,
        "Stack must recycle nodes: {MEASURED_ROUNDS} rounds of {PER_ROUND} push/pop pairs \
         past the high-water mark"
    );
}

/// The lock-free segment's backing storage in isolation: past the warmup
/// high-water mark, add/remove churn deep enough to overflow the bounded
/// ring fast path (256 slots) and cross several overflow-queue block
/// boundaries draws every block from the queue's internal spare list —
/// the `SegQueue` analogue of the Treiber-stack guarantee below, with the
/// pre-allocated ring in front.
#[test]
fn lf_segment_steady_state_churn_allocates_nothing() {
    const DEPTH: u64 = PER_ROUND * 8; // 512: past the ring, into overflow
    let seg = LfSegment::<u64>::new();
    // Warm past several overflow block boundaries (blocks hold 31
    // elements; ~256 elements spill per round).
    for round in 0..WARMUP_ROUNDS {
        for i in 0..DEPTH {
            seg.add(round as u64 + i);
        }
        for _ in 0..DEPTH {
            seg.try_remove().expect("added this round");
        }
    }
    let hits = count_allocs(|| {
        for round in 0..MEASURED_ROUNDS {
            for i in 0..DEPTH {
                seg.add(round as u64 + i);
            }
            for _ in 0..DEPTH {
                seg.try_remove().expect("added this round");
            }
        }
    });
    assert_eq!(
        hits, 0,
        "LfSegment churn past the high-water mark must recycle overflow blocks, not allocate"
    );
}

fn keyed_round(thief: &mut cpool::KeyedHandle<u8, u64>, victim: &mut cpool::KeyedHandle<u8, u64>) {
    const KEY: u8 = 7;
    for i in 0..PER_ROUND {
        victim.add(KEY, i);
    }
    for _ in 0..PER_ROUND / 2 {
        thief.try_remove_key(&KEY).expect("victim produced this round");
    }
    for _ in 0..PER_ROUND / 2 {
        victim.try_remove_key(&KEY).expect("residue is local");
    }
}

#[test]
fn steady_state_steal_paths_allocate_nothing() {
    // Frontend 1a: the plain pool over the counting segments — a steal
    // moves a `Vec<()>`, a bare length that never touches the heap.
    check_pool_frontend::<LockedCounter>("Pool<LockedCounter>");
    check_pool_frontend::<AtomicCounter>("Pool<AtomicCounter>");

    // Frontend 1b: the plain pool over vec segments — the transfer vector
    // itself is a recycled shell from the family's cache.
    check_pool_frontend::<VecSegment<u64>>("Pool<VecSegment>");

    // Frontend 1c: the fully lock-free segment — the backing queue
    // recirculates its spent blocks through an internal spare list and the
    // steal shells come from the same family cache as 1b, so going
    // lock-free keeps the zero-allocation guarantee.
    check_pool_frontend::<LfSegment<u64>>("Pool<LfSegment>");

    // Frontend 1d: the sharded segment — the lane sweep fills one recycled
    // shell via `remove_up_to_into` (a per-lane batch would shed the
    // shell's capacity on every hop), and deposits land as whole batches
    // in a single lane.
    check_pool_frontend::<LaneSegment<VecSegment<u64>, 4>>("Pool<LaneSegment<VecSegment>>");

    // Frontend 2: the keyed pool — keyed steals fill recycled shells and
    // emptied buckets stay resident, so bucket capacity and map nodes are
    // reused across rounds.
    let pool: KeyedPool<u8, u64> = KeyedPool::new(2);
    let mut thief = pool.register();
    let mut victim = pool.register();
    for _ in 0..WARMUP_ROUNDS {
        keyed_round(&mut thief, &mut victim);
    }
    assert_eq!(pool.total_len(), 0, "keyed: rounds are balanced");
    let hits = count_allocs(|| {
        for _ in 0..MEASURED_ROUNDS {
            keyed_round(&mut thief, &mut victim);
        }
    });
    assert!(thief.stats().steals >= (WARMUP_ROUNDS + MEASURED_ROUNDS) as u64);
    assert_eq!(
        hits, 0,
        "KeyedPool: steady-state keyed add/steal/refill/remove cycle must not allocate"
    );
}
