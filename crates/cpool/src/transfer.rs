//! The transfer layer: the pooled free lists that make moving batches
//! between segments allocation-free.
//!
//! Every transfer — steal, refill, batched remove — moves a plain
//! `Vec<Item>` across the [`Segment`](crate::Segment) trait boundary.
//! Manber's block-organized segment gets an O(n/B) split from moving whole
//! blocks instead, but that only pays off on steals of thousands of
//! elements, and Kotz & Ellis's measured runs "eliminated the block
//! transfer of stolen elements between processes" altogether. The counting
//! segments move a `Vec<()>`, whose zero-sized elements make it a bare
//! length with no heap behind it, so the paper's §3.2 one-word count needs
//! no bespoke batch type either.
//!
//! What a `Vec` batch does cost is its backing buffer. The [`FreeList`] is
//! a lock-free free list of recycled containers (spare vector shells) that
//! the steal, refill, and batch paths draw from and return to, so the
//! steady-state transfer paths allocate nothing. Blelloch & Wei
//! ("Concurrent Fixed-Size Allocation and Free in Constant Time") make the
//! case that recycling fixed-size containers is the standard route to
//! allocation-free concurrent hot paths; this is that route, scoped per
//! pool. The list rides on `crossbeam_queue::ArrayQueue` — the bounded
//! Vyukov-style MPMC ring hand-rolled in the vendored `crossbeam-queue`
//! crate (this crate forbids `unsafe`, so the CAS loops live there). A
//! free list is bounded *by design* — beyond the cap a returned container
//! is dropped — which is exactly the shape the ring serves with a single
//! claimed-index CAS per operation; the tagged Treiber stack
//! (`crossbeam_queue::Stack`, the unbounded alternative) costs a
//! spare-node round trip on top of the head CAS, and the contention
//! matrix (`BENCH_contention.json`, `primitive/*` rows) measures the ring
//! several times faster at every thread count. Reuse order is FIFO rather
//! than the stack's cache-warm LIFO; on this trade the measurements were
//! unambiguous.

use crossbeam_queue::ArrayQueue;

/// Smallest transfer (elements moved, or shell capacity) worth a free-list
/// round trip.
///
/// A recycled vector shell costs two free-list operations per cycle (take
/// on the steal, put on the refill); for a transfer of one or two elements
/// the general allocator's small-size fast path is cheaper than those two
/// synchronized hops, so the element segments only draw and return shells
/// for transfers at least this large. Smaller steals collect into a fresh
/// vector, and a refill drops an undersized shell instead of caching it.
pub(crate) const SHELL_SPILL_MIN: usize = 8;

/// Largest shell capacity (in elements) the vector-based segments return
/// to a free list.
///
/// The free lists bound the *number* of cached containers, not their
/// size; without this ceiling a single huge `add_batch` would donate its
/// backing buffer to the pool and pin that many bytes for the pool's
/// lifetime. Oversized shells are dropped and the next transfer of that
/// size allocates — a deliberate trade of one allocation for bounded
/// resident memory.
pub(crate) const SHELL_SPILL_MAX: usize = 8192;

/// A bounded lock-free free list of recycled containers.
///
/// Pools of [`VecSegment`](crate::VecSegment)s or
/// [`LfSegment`](crate::LfSegment)s and keyed pools share one list of spare
/// vector shells per pool. Steals, refills, and batch removes draw containers here
/// instead of the allocator, and consumers return emptied containers
/// instead of dropping them — so the steady-state transfer paths perform
/// zero allocations (verified by `tests/alloc_steal.rs`).
///
/// The list is *bounded*: beyond `cap` recycled containers the put drops
/// its argument, so a burst that inflates the pool cannot hoard memory
/// forever. The bound is structural — the backing ring holds exactly `cap`
/// slots, and a put that finds them full gets its container handed back
/// and drops it — so unlike a counter-guarded cap it cannot be overshot by
/// racing puts.
///
/// Public so third-party [`Segment`](crate::Segment) implementations can
/// build the same recycling discipline; the in-tree segments wire one up
/// per pool through [`Segment::new_family`](crate::Segment::new_family).
pub struct FreeList<T> {
    items: ArrayQueue<T>,
}

impl<T> FreeList<T> {
    /// Creates a list that retains at most `cap` containers (at least one
    /// slot is always provisioned: a zero-capacity free list would be a
    /// wordier way to write "drop everything").
    pub fn new(cap: usize) -> Self {
        FreeList { items: ArrayQueue::new(cap.max(1)) }
    }

    /// Takes a recycled container, if one is available.
    pub fn take(&self) -> Option<T> {
        self.items.pop()
    }

    /// Returns a container to the list; beyond the cap it is dropped.
    pub fn put(&self, item: T) {
        // A full ring hands the container back as the push error; letting
        // it fall out of scope here is the drop the cap promises.
        let _ = self.items.push(item);
    }

    /// Returns a container to the list, handing it back instead of
    /// dropping it when the ring is full.
    ///
    /// [`put`](Self::put) is the right call for *capacity* recycling,
    /// where a dropped shell costs only a future allocation. Callers whose
    /// containers carry *elements* — the magazine depot stashes full
    /// magazines here ([`magazine`](crate::magazine)) — must get the
    /// container back on overflow so the elements can be routed somewhere
    /// visible instead of destroyed.
    ///
    /// # Errors
    ///
    /// Returns `Err(item)` when the ring is at capacity.
    pub fn try_put(&self, item: T) -> Result<(), T> {
        self.items.push(item)
    }

    /// Number of containers currently cached (diagnostic snapshot).
    pub fn cached(&self) -> usize {
        self.items.len()
    }
}

impl<T> std::fmt::Debug for FreeList<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FreeList")
            .field("cached", &self.cached())
            .field("cap", &self.items.capacity())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::segment::{AtomicCounter, LockedCounter, Segment};

    /// A steal→refill→drain round trip through the `Vec<()>` transfers of
    /// a counting segment family conserves the count exactly.
    fn unit_transfers_conserve<S: Segment<Item = ()>>() {
        let family = S::new_family(2);
        family[0].add_bulk(vec![(); 11]);
        family[0].add(());
        let mut batch = family[0].steal_half();
        assert_eq!(batch.len(), 6);
        assert_eq!(batch.pop(), Some(()), "a steal keeps one element for the remove");
        family[1].add_bulk(batch);
        assert_eq!(family[0].len() + family[1].len(), 11);
        let mut all = family[0].remove_up_to(4);
        assert_eq!(all.len(), 4);
        all.append(&mut family[0].drain_all());
        all.append(&mut family[1].drain_all());
        assert_eq!(all.len(), 11);
        assert!(family.iter().all(|s| s.is_empty()));
        assert!(family[1].drain_all().is_empty());
    }

    #[test]
    fn locked_counter_unit_transfers_conserve() {
        unit_transfers_conserve::<LockedCounter>();
    }

    #[test]
    fn atomic_counter_unit_transfers_conserve() {
        unit_transfers_conserve::<AtomicCounter>();
    }

    #[test]
    fn free_list_recycles_and_bounds() {
        let list: FreeList<Vec<u8>> = FreeList::new(2);
        assert!(list.take().is_none());
        list.put(Vec::with_capacity(8));
        list.put(Vec::with_capacity(8));
        list.put(Vec::with_capacity(8)); // over cap: dropped
        assert_eq!(list.cached(), 2);
        assert!(list.take().is_some());
        assert!(list.take().is_some());
        assert!(list.take().is_none());
        assert_eq!(list.cached(), 0);
    }
}
