//! Fully lock-free element segment.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crossbeam_queue::{ArrayQueue, SegQueue};

use super::{steal_count, Segment};
use crate::transfer::{FreeList, SHELL_SPILL_MAX, SHELL_SPILL_MIN};

/// Vector shells a pool-wide cache retains per segment of the family
/// (same sizing as `VecSegment`'s shell cache).
const CACHED_SHELLS_PER_SEGMENT: usize = 2;

/// Slots in the bounded ring that serves as the element fast path.
///
/// The contention matrix (`BENCH_contention.json`, `primitive/*`) measures
/// a push+pop pair through the Vyukov ring at a fraction of the segmented
/// queue's cost — one claimed-slot CAS per operation versus the queue's
/// global-index CAS plus per-slot flag handshake — so the ring carries the
/// working set and the unbounded queue only absorbs the overflow. Sized to
/// hold a typical per-segment working set (pool prefills and steal-refill
/// reserves are tens of elements) while keeping the per-segment footprint
/// small; pools are multisets, so elements spilling to the overflow tier
/// and returning out of FIFO order is observable but contractual noise.
const RING_CAPACITY: usize = 256;

/// A segment whose every operation is lock-free: elements live in a
/// bounded MPMC ring ([`ArrayQueue`], the fast path) that spills into the
/// vendored segmented MPMC queue ([`SegQueue`], the unbounded overflow
/// tier), and occupancy lives in an atomic counter that is the segment's
/// *primary* bookkeeping, not a mirror of locked state.
///
/// # The reservation protocol
///
/// The mutex segments decide "how many may I take?" under their lock.
/// Here the counter itself is the arbiter, the same CAS discipline as
/// [`AtomicCounter`](super::AtomicCounter):
///
/// * `add` pushes the element first, then announces it with a
///   `fetch_add(1)`. An element is never counted before it is present.
/// * Every removal path (`try_remove`, `steal_half`, `remove_up_to`,
///   `drain_all`) first *reserves* `k` elements by CAS-decrementing the
///   counter from `n` to `n - k`, then pops exactly `k` values. Because
///   elements are enqueued before they are counted, a successful
///   reservation proves at least `k` completed pushes precede it — the
///   pop loop can only transiently miss a value whose push is between
///   "enqueued" and "counted", so it retries until the reservation is
///   honored in full. Concurrent removers cannot over-drain: each pop is
///   backed by its own reservation.
///
/// `len` is therefore exact over *completed* operations: it may lag an
/// in-flight `add` (the element is already poppable but not yet counted)
/// but can never over-report — the empty-probe contract of
/// [`Segment::len`].
///
/// The two storage tiers do not weaken the argument: a completed push
/// placed its element in the ring *or* the overflow queue, and every pop
/// probes both, so a reservation is still backed by reachable elements.
/// The pop loop's transient-miss window gains one case — the ring is
/// FIFO, so a producer preempted between claiming the head slot and
/// publishing its stamp briefly hides completed pushes behind it — and
/// the existing spin-then-yield retry covers it just as it covers the
/// enqueued-but-not-yet-counted window.
///
/// # Steal and transfer currency
///
/// `steal_half` is an atomic occupancy split (reserve ⌈n/2⌉ by CAS)
/// followed by a bounded pop-loop into a recycled `Vec` shell — the same
/// plain-vector currency and pool-wide shell cache as
/// [`VecSegment`](super::VecSegment), so the steady-state steal/refill
/// cycle allocates nothing (the ring is pre-allocated at construction and
/// the overflow queue recycles its spent blocks internally, see the
/// vendored `SegQueue` docs).
///
/// Local order is FIFO while the working set fits the ring; once elements
/// spill into the overflow tier, pops serve the ring first and cross-tier
/// order interleaves. The pool's element order is unspecified by
/// contract, so neither is a guarantee.
///
/// ```
/// use cpool::segment::{LfSegment, Segment};
/// let seg = LfSegment::new();
/// seg.add("a");
/// seg.add("b");
/// assert_eq!(seg.len(), 2);
/// assert_eq!(seg.try_remove(), Some("a")); // FIFO locally
/// ```
#[derive(Debug)]
pub struct LfSegment<T> {
    /// Fast path: a pre-allocated bounded ring holding the working set.
    ring: ArrayQueue<T>,
    /// Overflow tier: unbounded, absorbs pushes the full ring rejects.
    overflow: SegQueue<T>,
    /// Primary occupancy: incremented after a push completes, CAS-reserved
    /// before any pop. Not a mirror — there is no locked state to mirror.
    occupancy: AtomicUsize,
    shells: Arc<FreeList<Vec<T>>>,
}

impl<T> LfSegment<T> {
    fn with_shells(shells: Arc<FreeList<Vec<T>>>) -> Self {
        LfSegment {
            ring: ArrayQueue::new(RING_CAPACITY),
            overflow: SegQueue::new(),
            occupancy: AtomicUsize::new(0),
            shells,
        }
    }

    /// Enqueues into the ring, spilling to the overflow queue when full.
    /// Callers count the element *after* this returns.
    fn push(&self, item: T) {
        if let Err(item) = self.ring.push(item) {
            self.overflow.push(item);
        }
    }

    /// Reserves up to `want` elements by CAS-decrementing the occupancy
    /// counter; returns how many were secured (0 if the segment is empty).
    fn reserve(&self, want: usize) -> usize {
        let mut current = self.occupancy.load(Ordering::Acquire);
        loop {
            let take = want.min(current);
            if take == 0 {
                return 0;
            }
            match self.occupancy.compare_exchange_weak(
                current,
                current - take,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return take,
                Err(actual) => current = actual,
            }
        }
    }

    /// Reserves ⌈n/2⌉ of the current occupancy (the steal rule applied
    /// atomically at the counter).
    fn reserve_half(&self) -> usize {
        let mut current = self.occupancy.load(Ordering::Acquire);
        loop {
            let take = steal_count(current);
            if take == 0 {
                return 0;
            }
            match self.occupancy.compare_exchange_weak(
                current,
                current - take,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return take,
                Err(actual) => current = actual,
            }
        }
    }

    /// Pops one element backed by a reservation, spinning out the window
    /// where a racing `add` has enqueued but not yet counted a value.
    ///
    /// A reservation of `k` proves `k` completed adds (counted ⇒ pushed),
    /// so this terminates; the spin only covers other reservers momentarily
    /// popping "our" element while "theirs" is still in that window.
    fn pop_reserved(&self) -> T {
        loop {
            if let Some(item) = self.ring.pop() {
                return item;
            }
            if let Some(item) = self.overflow.pop() {
                return item;
            }
            std::hint::spin_loop();
            std::thread::yield_now();
        }
    }

    /// Pops `reserved` elements into `out`.
    fn pop_reserved_into(&self, reserved: usize, out: &mut Vec<T>) {
        for _ in 0..reserved {
            out.push(self.pop_reserved());
        }
    }
}

impl<T> Default for LfSegment<T> {
    fn default() -> Self {
        Self::with_shells(Arc::new(FreeList::new(CACHED_SHELLS_PER_SEGMENT + 2)))
    }
}

impl<T: Send + 'static> Segment for LfSegment<T> {
    type Item = T;

    fn new() -> Self {
        Self::default()
    }

    /// One pool's segments share a single shell cache, exactly like
    /// [`VecSegment::new_family`](super::VecSegment).
    fn new_family(count: usize) -> Vec<Self> {
        let shells = Arc::new(FreeList::new(CACHED_SHELLS_PER_SEGMENT * count.max(1) + 2));
        (0..count).map(|_| Self::with_shells(Arc::clone(&shells))).collect()
    }

    fn add(&self, item: T) {
        // Push before counting: a counted element is always poppable.
        self.push(item);
        self.occupancy.fetch_add(1, Ordering::AcqRel);
    }

    fn try_remove(&self) -> Option<T> {
        if self.reserve(1) == 0 {
            return None;
        }
        Some(self.pop_reserved())
    }

    fn len(&self) -> usize {
        self.occupancy.load(Ordering::Acquire)
    }

    fn steal_half(&self) -> Vec<T> {
        let taken = self.reserve_half();
        if taken == 0 {
            return Vec::new(); // no allocation: an empty Vec is a null cap
        }
        if taken < SHELL_SPILL_MIN {
            // Tiny steal: the allocator's small-size fast path beats a
            // free-list round trip (same threshold as VecSegment).
            let mut batch = Vec::with_capacity(taken);
            self.pop_reserved_into(taken, &mut batch);
            return batch;
        }
        let mut batch = self.shells.take().unwrap_or_default();
        self.pop_reserved_into(taken, &mut batch);
        batch
    }

    fn add_bulk(&self, mut batch: Vec<T>) {
        if !batch.is_empty() {
            let count = batch.len();
            for item in batch.drain(..) {
                self.push(item);
            }
            // One announcement for the whole deposit: a thief's refill
            // becomes visible to searchers as a single occupancy step.
            self.occupancy.fetch_add(count, Ordering::AcqRel);
        }
        // Return the emptied shell to the pool-wide cache (bounds as in
        // VecSegment: undersized shells dilute the cache, oversized ones
        // pin unbounded memory).
        if (SHELL_SPILL_MIN..=SHELL_SPILL_MAX).contains(&batch.capacity()) {
            self.shells.put(batch);
        }
    }

    fn remove_up_to(&self, n: usize) -> Vec<T> {
        let taken = self.reserve(n);
        // The result leaves the pool with the caller, so it is a plain
        // allocation, not a cache draw (a shell handed out could never
        // come back).
        let mut batch = Vec::with_capacity(taken);
        self.pop_reserved_into(taken, &mut batch);
        batch
    }

    fn drain_all(&self) -> Vec<T> {
        // Claim everything currently counted in one swap; elements whose
        // add races this call stay behind for the next drain.
        let taken = self.occupancy.swap(0, Ordering::AcqRel);
        let mut batch = Vec::with_capacity(taken);
        self.pop_reserved_into(taken, &mut batch);
        batch
    }

    fn batch_shell(&self) -> Vec<T> {
        self.shells.take().unwrap_or_default()
    }

    fn remove_up_to_into(&self, n: usize, out: &mut Vec<T>) {
        let taken = self.reserve(n);
        self.pop_reserved_into(taken, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn local_ops_are_fifo() {
        let seg = LfSegment::new();
        for i in 0..5 {
            seg.add(i);
        }
        assert_eq!(seg.try_remove(), Some(0));
        assert_eq!(seg.try_remove(), Some(1));
        assert_eq!(seg.len(), 3);
    }

    #[test]
    fn steal_reserves_ceil_half() {
        let seg = LfSegment::new();
        for i in 0..9 {
            seg.add(i);
        }
        let stolen = seg.steal_half();
        assert_eq!(stolen.len(), 5);
        assert_eq!(seg.len(), 4);
    }

    #[test]
    fn refill_recycles_the_shell() {
        let family = <LfSegment<u32> as Segment>::new_family(2);
        for i in 0..40 {
            family[0].add(i);
        }
        let batch = family[0].steal_half();
        let cap = batch.capacity();
        assert!(cap >= 20);
        family[1].add_bulk(batch);
        let again = family[1].steal_half();
        assert_eq!(again.capacity(), cap, "shell came back from the cache");
        assert_eq!(again.len(), 10);
    }

    #[test]
    fn len_never_over_reports() {
        // Hammer adds/removes and continuously assert the probe invariant:
        // a nonzero len means a remove must succeed *given no concurrent
        // removers* — here the single remover owns all removals, so every
        // observation of len > 0 guarantees its next try_remove() != None.
        let seg = LfSegment::new();
        thread::scope(|s| {
            let seg = &seg;
            s.spawn(move || {
                for i in 0..20_000u64 {
                    seg.add(i);
                }
            });
            s.spawn(move || {
                let mut got = 0u64;
                while got < 20_000 {
                    if seg.len() > 0 {
                        assert!(
                            seg.try_remove().is_some(),
                            "len > 0 with a single remover must mean a poppable element"
                        );
                        got += 1;
                    } else {
                        thread::yield_now();
                    }
                }
            });
        });
        assert_eq!(seg.len(), 0);
    }

    #[test]
    fn overflow_spill_conserves_and_drains() {
        // Push far past the ring's capacity so both tiers hold elements,
        // then take everything back out through every removal path.
        let seg = LfSegment::new();
        let total = (RING_CAPACITY * 3) as u64;
        for i in 0..total {
            seg.add(i);
        }
        assert_eq!(seg.len() as u64, total);
        let mut sum = 0u64;
        sum += seg.steal_half().into_iter().sum::<u64>();
        sum += seg.remove_up_to(100).into_iter().sum::<u64>();
        while let Some(v) = seg.try_remove() {
            sum += v;
        }
        assert_eq!(sum, (0..total).sum::<u64>(), "both tiers account for every element");
        assert_eq!(seg.len(), 0);
    }

    #[test]
    fn concurrent_thieves_conserve() {
        let seg = LfSegment::new();
        let total = 10_000u64;
        for i in 0..total {
            seg.add(i);
        }
        let stolen = std::sync::atomic::AtomicUsize::new(0);
        thread::scope(|s| {
            for _ in 0..4 {
                let (seg, stolen) = (&seg, &stolen);
                s.spawn(move || loop {
                    let batch = seg.steal_half();
                    if batch.is_empty() {
                        break;
                    }
                    stolen.fetch_add(batch.len(), Ordering::Relaxed);
                });
            }
        });
        assert_eq!(stolen.load(Ordering::Relaxed) as u64 + seg.len() as u64, total);
        assert_eq!(seg.len(), 0, "repeated halving drains completely");
    }
}
