//! Counting segments: the paper's measurement simplification.
//!
//! "We simplified the segments, representing them as a single counter that
//! is atomically added to, subtracted from, or split in half (since the
//! values of the elements do not matter to the simulation, we need only
//! store the number of elements in each segment)." — Kotz & Ellis, §3.2.
//!
//! Two variants are provided so the locking discipline itself can be
//! studied (the 1989 implementation used locks; modern hardware offers
//! compare-and-swap):
//!
//! * [`LockedCounter`] — a mutex-protected count, mirroring the paper.
//! * [`AtomicCounter`] — a lock-free CAS loop.
//!
//! Both transfer `Vec<()>` batches. A vector of zero-sized elements is a
//! bare length that never touches the heap, so the shared `Vec` transfer
//! interface costs the counter representation one machine word.

use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::Mutex;

use super::{steal_count, Segment};

/// Mutex-protected element count (the paper's segment representation).
///
/// Mutations still serialize on the mutex — that locking discipline is the
/// thing being studied — but the count is mirrored in an atomic written
/// under the lock, so [`len`](Segment::len) / [`is_empty`](Segment::is_empty)
/// observe occupancy without contending with mutators (search probes skip
/// empty victims lock-free).
///
/// ```
/// use cpool::segment::{LockedCounter, Segment};
/// let seg = LockedCounter::new();
/// seg.add(());
/// seg.add(());
/// seg.add(());
/// assert_eq!(seg.steal_half().len(), 2); // ceil(3/2)
/// assert_eq!(seg.len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct LockedCounter {
    count: Mutex<usize>,
    /// Lock-free occupancy mirror: written (`Release`) only while `count`
    /// is locked, read (`Acquire`) without the lock.
    mirror: AtomicUsize,
}

impl LockedCounter {
    /// Publishes the locked count to the lock-free mirror; must be called
    /// with the `count` lock held, after the mutation.
    fn publish(&self, count: usize) {
        self.mirror.store(count, Ordering::Release);
    }
}

impl Segment for LockedCounter {
    type Item = ();

    fn new() -> Self {
        LockedCounter::default()
    }

    fn add(&self, _item: ()) {
        let mut count = self.count.lock();
        *count += 1;
        self.publish(*count);
    }

    fn try_remove(&self) -> Option<()> {
        let mut count = self.count.lock();
        if *count == 0 {
            None
        } else {
            *count -= 1;
            self.publish(*count);
            Some(())
        }
    }

    fn len(&self) -> usize {
        self.mirror.load(Ordering::Acquire)
    }

    fn steal_half(&self) -> Vec<()> {
        let mut count = self.count.lock();
        let taken = steal_count(*count);
        *count -= taken;
        self.publish(*count);
        vec![(); taken]
    }

    fn add_bulk(&self, batch: Vec<()>) {
        // Guard the empty case: the probe's container-return leg must not
        // acquire the (uncharged) segment lock.
        if !batch.is_empty() {
            let mut count = self.count.lock();
            *count += batch.len();
            self.publish(*count);
        }
    }

    fn remove_up_to(&self, n: usize) -> Vec<()> {
        let mut count = self.count.lock();
        let taken = n.min(*count);
        *count -= taken;
        self.publish(*count);
        vec![(); taken]
    }

    fn drain_all(&self) -> Vec<()> {
        let mut count = self.count.lock();
        let taken = std::mem::take(&mut *count);
        self.publish(*count);
        vec![(); taken]
    }
}

/// Lock-free element count using a compare-and-swap loop.
///
/// Behaviourally identical to [`LockedCounter`]; used as an ablation to ask
/// whether the paper's segment-lock overhead changes any conclusion.
///
/// ```
/// use cpool::segment::{AtomicCounter, Segment};
/// let seg = AtomicCounter::new();
/// seg.add_bulk(vec![(); 5]);
/// assert_eq!(seg.len(), 5);
/// assert!(seg.try_remove().is_some());
/// assert_eq!(seg.steal_half().len(), 2); // ceil(4/2)
/// ```
#[derive(Debug, Default)]
pub struct AtomicCounter {
    count: AtomicUsize,
}

impl Segment for AtomicCounter {
    type Item = ();

    fn new() -> Self {
        AtomicCounter { count: AtomicUsize::new(0) }
    }

    fn add(&self, _item: ()) {
        self.count.fetch_add(1, Ordering::AcqRel);
    }

    fn try_remove(&self) -> Option<()> {
        let mut current = self.count.load(Ordering::Acquire);
        loop {
            if current == 0 {
                return None;
            }
            match self.count.compare_exchange_weak(
                current,
                current - 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(()),
                Err(actual) => current = actual,
            }
        }
    }

    fn len(&self) -> usize {
        self.count.load(Ordering::Acquire)
    }

    fn steal_half(&self) -> Vec<()> {
        let mut current = self.count.load(Ordering::Acquire);
        loop {
            let taken = steal_count(current);
            if taken == 0 {
                return Vec::new();
            }
            match self.count.compare_exchange_weak(
                current,
                current - taken,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return vec![(); taken],
                Err(actual) => current = actual,
            }
        }
    }

    fn add_bulk(&self, batch: Vec<()>) {
        if !batch.is_empty() {
            self.count.fetch_add(batch.len(), Ordering::AcqRel);
        }
    }

    fn remove_up_to(&self, n: usize) -> Vec<()> {
        let mut current = self.count.load(Ordering::Acquire);
        loop {
            let taken = n.min(current);
            if taken == 0 {
                return Vec::new();
            }
            match self.count.compare_exchange_weak(
                current,
                current - taken,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return vec![(); taken],
                Err(actual) => current = actual,
            }
        }
    }

    fn drain_all(&self) -> Vec<()> {
        vec![(); self.count.swap(0, Ordering::AcqRel)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    fn hammer<S: Segment<Item = ()> + 'static>() {
        let seg = Arc::new(S::new());
        let threads = 4;
        let per_thread = 2500usize;
        thread::scope(|s| {
            for _ in 0..threads {
                let seg = Arc::clone(&seg);
                s.spawn(move || {
                    for _ in 0..per_thread {
                        seg.add(());
                    }
                });
            }
        });
        assert_eq!(seg.len(), threads * per_thread);

        // Concurrent removers + thieves must conserve the count.
        let removed = Arc::new(AtomicUsize::new(0));
        thread::scope(|s| {
            for t in 0..threads {
                let seg = Arc::clone(&seg);
                let removed = Arc::clone(&removed);
                s.spawn(move || {
                    if t % 2 == 0 {
                        for _ in 0..per_thread {
                            if seg.try_remove().is_some() {
                                removed.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    } else {
                        for _ in 0..32 {
                            let batch = seg.steal_half();
                            removed.fetch_add(batch.len(), Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(
            removed.load(Ordering::Relaxed) + seg.len(),
            threads * per_thread,
            "elements are conserved under concurrent remove/steal"
        );
    }

    #[test]
    fn locked_counter_concurrent_conservation() {
        hammer::<LockedCounter>();
    }

    #[test]
    fn atomic_counter_concurrent_conservation() {
        hammer::<AtomicCounter>();
    }

    #[test]
    fn locked_counter_len_reads_without_the_lock() {
        let seg = LockedCounter::new();
        seg.add(());
        seg.add(());
        // The mirror must answer even while the mutex is held.
        let _lock = seg.count.lock();
        assert_eq!(seg.len(), 2);
        assert!(!seg.is_empty());
    }

    #[test]
    fn steal_half_sequence_drains() {
        // Repeated halving of 20 elements: 10, 5, 3, 1, 1 (sizes after each
        // steal: 10, 5, 2, 1, 0).
        let seg = LockedCounter::new();
        seg.add_bulk(vec![(); 20]);
        let takes: Vec<usize> = std::iter::from_fn(|| {
            let batch = seg.steal_half();
            if batch.is_empty() {
                None
            } else {
                Some(batch.len())
            }
        })
        .collect();
        assert_eq!(takes, vec![10, 5, 3, 1, 1]);
        assert!(seg.is_empty());
    }

    #[test]
    fn count_batches_never_touch_the_heap() {
        // A `Vec<()>` is a bare length however many elements it stands for:
        // the capacity is unbounded from the start, so filling, appending
        // and splitting never reach the allocator.
        let seg = AtomicCounter::new();
        seg.add_bulk(vec![(); 1_000_000]);
        let mut batch = seg.steal_half();
        assert_eq!(batch.len(), 500_000);
        assert_eq!(batch.capacity(), usize::MAX);
        batch.append(&mut seg.drain_all());
        assert_eq!(batch.len(), 1_000_000);
        assert!(seg.is_empty());
    }
}
