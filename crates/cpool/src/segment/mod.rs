//! Pool segments: the per-processor local component of a concurrent pool.
//!
//! Manber's pool partitions its elements into one segment per processor;
//! each process adds to and removes from its own segment, and *steals
//! roughly half* of a remote segment when its own runs dry.
//!
//! Two families are provided:
//!
//! * **Counting segments** ([`LockedCounter`], [`AtomicCounter`]) store only
//!   the number of elements. This is the simplification §3.2 of Kotz &
//!   Ellis (1989) adopts for measurement: "we simplified the segments,
//!   representing them as a single counter that is atomically added to,
//!   subtracted from, or split in half", which "minimizes the time involved
//!   in segment operations, allowing the search time to dominate".
//! * **Element segments** ([`VecSegment`], [`LfSegment`]) store real
//!   values, for applications (the paper's tic-tac-toe study stores game
//!   positions). [`LfSegment`] is fully lock-free: mutations coordinate
//!   through an atomic occupancy counter and the vendored MPMC queue, never
//!   a mutex.
//!
//! A third, composite shape: [`LaneSegment`] shards one logical segment
//! across `K` inner segments ("lanes") so concurrent owners spread over
//! independent locks instead of serializing on one.
//!
//! # The steal rule
//!
//! [`Segment::steal_half`] implements the paper's rule: take
//! ⌈n/2⌉ elements, which for `n == 1` degenerates to "that element is taken
//! immediately". The victim keeps ⌊n/2⌋.
//!
//! # The transfer currency
//!
//! Every batch-moving operation — steal, refill, batched remove, drain —
//! moves a plain `Vec<Self::Item>`. The counting segments move a `Vec<()>`,
//! which is a bare length: zero-sized elements never touch the heap, so
//! the paper's one-word count survives without a bespoke batch type. The
//! element segments recycle the vectors' backing buffers through a
//! pool-wide [`FreeList`](crate::transfer::FreeList) of shells, which keeps
//! the steady-state steal/refill cycle allocation-free (see
//! [`transfer`](crate::transfer)).

mod counting;
mod lane;
mod lf;
mod vec;

pub use counting::{AtomicCounter, LockedCounter};
pub use lane::LaneSegment;
pub use lf::LfSegment;
pub use vec::VecSegment;

/// A single pool segment.
///
/// All methods take `&self`: segments are internally synchronized so that a
/// remote thief and the local owner can race safely. Implementations must
/// never hold an internal lock while calling user code.
///
/// # Consistency
///
/// `len` is a snapshot: by the time the caller inspects the value another
/// process may have changed the segment. The pool's algorithms only use it
/// as a hint (probing emptiness) and for instrumentation.
///
/// Because the search engine now consults that hint *before* draining a
/// victim — an `is_empty` answer skips the victim's lock entirely —
/// implementations should make `len`/`is_empty` cheap and non-blocking.
/// Every in-tree segment answers from an atomic occupancy counter for
/// exactly this reason; how that counter relates to the elements varies
/// by representation. For the mutex-based segments it is a *mirror*,
/// written under the lock after each mutation. For [`LfSegment`] there is
/// no lock to mirror: the counter is the *primary* bookkeeping — removal
/// paths reserve elements by CAS-decrementing it before touching the
/// backing queue — and for [`LaneSegment`] the answer is the sum of its
/// lanes' counters. A third-party segment whose `len` takes its internal
/// lock stays *correct* (the hint is re-validated by `steal_half` under
/// the lock), it just forfeits the empty-probe fast path; one whose `len`
/// over-reports emptiness would make probes skip real elements, which the
/// contract forbids — the hint may lag a racing add, but must reflect
/// every mutation this segment has completed. See the README's
/// "lock-free internals" section for the migration note.
///
/// # Implementing the trait
///
/// A segment needs `new`, `add`, `try_remove`, `len`, `steal_half` and
/// `add_bulk`; the batch removes ([`remove_up_to`](Self::remove_up_to),
/// [`drain_all`](Self::drain_all)) and the sweep hooks have per-element
/// defaults that every in-tree segment overrides with a one-lock version.
pub trait Segment: Send + Sync + 'static {
    /// The element type stored in the segment.
    ///
    /// Counting segments use `()`: the elements are indistinguishable, so
    /// their transfers are `Vec<()>`, a bare count.
    type Item: Send + 'static;

    /// Creates an empty segment.
    fn new() -> Self
    where
        Self: Sized;

    /// Creates the `count` segments of one pool.
    ///
    /// Segments created together may share pooled resources — the in-tree
    /// element segments share one per-pool free list of recycled batch
    /// shells ([`transfer`](crate::transfer)), so a vector freed by a
    /// thief's refill carries the next steal anywhere in the pool without
    /// touching the allocator. The default builds `count` independent
    /// segments with [`new`](Self::new), which keeps third-party
    /// implementations compiling (and correct — sharing is an
    /// optimization, never a semantic requirement).
    fn new_family(count: usize) -> Vec<Self>
    where
        Self: Sized,
    {
        (0..count).map(|_| Self::new()).collect()
    }

    /// Adds one element to the segment.
    fn add(&self, item: Self::Item);

    /// Removes an arbitrary element, or `None` if the segment is empty.
    fn try_remove(&self) -> Option<Self::Item>;

    /// Number of elements currently in the segment (snapshot).
    fn len(&self) -> usize;

    /// Whether the segment is currently empty (snapshot).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Atomically removes ⌈n/2⌉ of the `n` elements present and returns
    /// them; returns an empty vector if the segment was empty.
    ///
    /// [`KeyedSegment`](crate::keyed::KeyedSegment) applies the rule to one
    /// bucket: it steals ⌈b/2⌉ of its largest bucket `b`, so it returns an
    /// empty vector exactly when the whole segment is empty.
    ///
    /// This is the thief side of the steal protocol. The batch is handed
    /// back by value so the thief can move it into its own segment without
    /// ever holding two segment locks at once (deadlock freedom by
    /// construction).
    fn steal_half(&self) -> Vec<Self::Item>;

    /// Adds a batch of elements (the thief refilling its own segment, or a
    /// frontend's `add_batch`).
    ///
    /// Implementations should recycle the emptied vector through the
    /// pool's shell free list where one exists.
    fn add_bulk(&self, batch: Vec<Self::Item>);

    /// Same as [`add_bulk`](Self::add_bulk); kept for callers written
    /// against the name.
    fn add_bulk_vec(&self, items: Vec<Self::Item>) {
        self.add_bulk(items);
    }

    /// Removes up to `n` arbitrary elements in one batch.
    ///
    /// This is the owner side of the batched remove
    /// ([`PoolOps::try_remove_batch`](crate::PoolOps::try_remove_batch)):
    /// implementations take their internal lock **once** for the whole
    /// batch. The default implementation is a per-element
    /// [`try_remove`](Self::try_remove) loop, provided so third-party
    /// segments keep compiling; every in-tree segment overrides it.
    fn remove_up_to(&self, n: usize) -> Vec<Self::Item> {
        let mut out = Vec::new();
        while out.len() < n {
            match self.try_remove() {
                Some(item) => out.push(item),
                None => break,
            }
        }
        out
    }

    /// Removes every element currently present, in one batch.
    ///
    /// Like [`remove_up_to`](Self::remove_up_to), implementations take the
    /// lock once; the default loops until the segment reports empty.
    fn drain_all(&self) -> Vec<Self::Item> {
        self.remove_up_to(usize::MAX)
    }

    /// An empty vector suitable for filling incrementally, drawn from the
    /// segment's shell cache when it keeps one.
    ///
    /// Composite segments ([`LaneSegment`]) sweep several inner segments
    /// per steal; starting from one recycled shell and filling it via
    /// [`remove_up_to_into`](Self::remove_up_to_into) keeps that sweep on
    /// the allocation-free steady-state path (a per-lane vector would drop
    /// each donor shell's capacity on append). The default returns
    /// `Vec::new()`, which is always correct — a third-party segment that
    /// ignores this hook merely forfeits shell reuse.
    fn batch_shell(&self) -> Vec<Self::Item> {
        Vec::new()
    }

    /// Removes up to `n` arbitrary elements, appending them to `out`.
    ///
    /// The sweep-side counterpart of [`remove_up_to`](Self::remove_up_to):
    /// callers that gather one transfer from several segments pass the
    /// same vector through every call. The default appends the result of
    /// `remove_up_to`; segments with a shell cache override it to drain
    /// straight into `out` under one lock acquisition, so no intermediate
    /// vector (and no donor capacity) is created or lost.
    fn remove_up_to_into(&self, n: usize, out: &mut Vec<Self::Item>) {
        out.append(&mut self.remove_up_to(n));
    }
}

/// Number of elements a thief takes from a segment of length `n`: ⌈n/2⌉.
///
/// Exposed so tests and analytical models can share the exact rule.
///
/// ```
/// use cpool::segment::steal_count;
/// assert_eq!(steal_count(0), 0);
/// assert_eq!(steal_count(1), 1); // "taken immediately"
/// assert_eq!(steal_count(2), 1);
/// assert_eq!(steal_count(9), 5);
/// ```
pub fn steal_count(n: usize) -> usize {
    n - n / 2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_count_is_ceil_half() {
        for n in 0..1000 {
            assert_eq!(steal_count(n), n.div_ceil(2));
        }
    }

    #[test]
    fn steal_count_leaves_floor_half() {
        for n in 0..1000 {
            assert_eq!(n - steal_count(n), n / 2);
        }
    }

    /// Generic contract test run against every segment implementation,
    /// exercised purely through the trait surface.
    fn check_contract<S: Segment<Item = ()>>() {
        let seg = S::new();
        assert!(seg.is_empty());
        assert_eq!(seg.len(), 0);
        assert!(seg.try_remove().is_none());
        assert!(seg.steal_half().is_empty());

        for _ in 0..10 {
            seg.add(());
        }
        assert_eq!(seg.len(), 10);
        assert!(!seg.is_empty());

        let stolen = seg.steal_half();
        assert_eq!(stolen.len(), 5);
        assert_eq!(seg.len(), 5);

        seg.add_bulk(stolen);
        assert_eq!(seg.len(), 10);

        let mut removed = 0;
        while seg.try_remove().is_some() {
            removed += 1;
        }
        assert_eq!(removed, 10);
        assert!(seg.is_empty());

        // Batch removal contract: bounded take, then a full drain.
        seg.add_bulk(vec![(); 7]);
        assert_eq!(seg.remove_up_to(3).len(), 3);
        assert_eq!(seg.remove_up_to(100).len(), 4, "remove_up_to is bounded by occupancy");
        assert!(seg.remove_up_to(5).is_empty());
        seg.add_bulk(vec![(); 6]);
        assert_eq!(seg.drain_all().len(), 6);
        assert!(seg.is_empty());
        assert!(seg.drain_all().is_empty());
    }

    #[test]
    fn locked_counter_contract() {
        check_contract::<LockedCounter>();
    }

    #[test]
    fn atomic_counter_contract() {
        check_contract::<AtomicCounter>();
    }

    /// The element contract over any item type: `item` builds the element
    /// for value `i`, and items compare (sorted) as their values do.
    fn check_element_contract<S: Segment>(item: impl Fn(u32) -> S::Item)
    where
        S::Item: Ord + std::fmt::Debug,
    {
        let items = |range: std::ops::Range<u32>| range.map(&item).collect::<Vec<_>>();
        let seg = S::new();
        for x in items(0..9) {
            seg.add(x);
        }
        let mut all = seg.steal_half();
        assert_eq!(all.len(), 5);
        assert_eq!(seg.len(), 4);
        // Between them, the stolen batch and the residue hold exactly the
        // original elements (the pool is unordered but must conserve items).
        while let Some(x) = seg.try_remove() {
            all.push(x);
        }
        all.sort_unstable();
        assert_eq!(all, items(0..9));

        // Batched removal conserves values exactly like per-element ops.
        for x in items(10..20) {
            seg.add(x);
        }
        let mut batched = seg.remove_up_to(4);
        assert_eq!(batched.len(), 4);
        batched.extend(seg.drain_all());
        batched.sort_unstable();
        assert_eq!(batched, items(10..20));
        assert!(seg.is_empty());
    }

    #[test]
    fn vec_segment_contract() {
        check_element_contract::<VecSegment<u32>>(|i| i);
    }

    #[test]
    fn lf_segment_contract() {
        check_element_contract::<LfSegment<u32>>(|i| i);
    }

    #[test]
    fn lane_over_vec_contract() {
        check_element_contract::<LaneSegment<VecSegment<u32>, 4>>(|i| i);
    }

    #[test]
    fn lane_over_lf_contract() {
        check_element_contract::<LaneSegment<LfSegment<u32>, 3>>(|i| i);
    }

    #[test]
    fn keyed_segment_contract() {
        // One key: the contract's ⌈n/2⌉ is of the whole segment, and a
        // keyed steal takes ⌈b/2⌉ of its largest bucket `b`.
        check_element_contract::<crate::keyed::KeyedSegment<u8, u32>>(|i| (0, i));
    }

    #[test]
    fn lane_over_counter_contract() {
        check_contract::<LaneSegment<LockedCounter, 2>>();
        check_contract::<LaneSegment<AtomicCounter, 4>>();
    }

    #[test]
    fn batch_shell_and_remove_into_defaults() {
        // The defaulted hooks must compose for a segment that overrides
        // neither (the counting segments): a sweep through the defaults
        // conserves elements exactly.
        let seg = AtomicCounter::new();
        for _ in 0..10 {
            seg.add(());
        }
        let mut out = seg.batch_shell();
        assert!(out.is_empty());
        seg.remove_up_to_into(4, &mut out);
        assert_eq!(out.len(), 4);
        seg.remove_up_to_into(100, &mut out);
        assert_eq!(out.len(), 10, "second sweep appends, bounded by occupancy");
        assert!(seg.is_empty());
    }

    #[test]
    fn single_element_taken_immediately() {
        let seg = VecSegment::<u32>::new();
        seg.add(42);
        let stolen = seg.steal_half();
        assert_eq!(stolen, vec![42], "a lone element is taken outright");
        assert!(seg.is_empty());
    }

    #[test]
    fn new_family_defaults_to_independent_segments() {
        // The default hook just builds `count` fresh segments.
        let family = <LockedCounter as Segment>::new_family(3);
        assert_eq!(family.len(), 3);
        family[0].add(());
        assert_eq!(family[0].len(), 1);
        assert_eq!(family[1].len(), 0);
    }
}
