//! Sharded segment adapter: one logical segment spread across K lanes.

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

use super::{steal_count, Segment};

/// Source of fresh thread-affinity hints: each thread draws one, once.
static NEXT_HOME: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's affinity hint (`usize::MAX` = not yet drawn). The raw
    /// value is taken modulo a segment's lane count, so one hint serves
    /// every `LaneSegment` the thread touches.
    static HOME: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The calling thread's affinity hint, drawn on first use.
fn affinity() -> usize {
    HOME.with(|h| {
        let mut v = h.get();
        if v == usize::MAX {
            v = NEXT_HOME.fetch_add(1, Ordering::Relaxed);
            h.set(v);
        }
        v
    })
}

/// One lane: an inner segment plus an advisory contention counter, padded
/// so neighboring lanes' hot words never share a cache line.
#[repr(align(64))]
struct Lane<S> {
    seg: S,
    /// Number of threads currently operating on this lane. Advisory only —
    /// the inner segment is internally synchronized, so entering a "busy"
    /// lane is always *correct*; the counter exists so local operations
    /// can prefer an idle lane instead of queueing on a hot one. This is
    /// the generic analogue of `try_lock` for an inner segment whose lock
    /// (if any) is private.
    active: AtomicUsize,
}

impl<S> Lane<S> {
    fn new(seg: S) -> Self {
        Lane { seg, active: AtomicUsize::new(0) }
    }

    /// Claims the lane if no other thread is currently inside it.
    fn try_enter(&self) -> bool {
        if self.active.fetch_add(1, Ordering::AcqRel) == 0 {
            true
        } else {
            self.active.fetch_sub(1, Ordering::AcqRel);
            false
        }
    }

    /// Claims the lane unconditionally (the contended fallback).
    fn enter(&self) {
        self.active.fetch_add(1, Ordering::AcqRel);
    }

    fn exit(&self) {
        self.active.fetch_sub(1, Ordering::AcqRel);
    }
}

/// A segment sharded across `K` independently synchronized lanes.
///
/// PR 6's profile said the remaining serialization is the one mutex every
/// element segment guards its representation with: all of a segment's
/// owners and thieves queue on it. `LaneSegment<S, K>` keeps the inner
/// representation `S` untouched and spreads one *logical* segment over
/// `K` instances of it, so concurrent operations land on independent
/// locks — the sharding half of the simpledb/Blelloch–Wei recipe, applied
/// inside a segment.
///
/// # Lane selection
///
/// Local operations (`add`, `try_remove`, batch deposits) start at the
/// calling thread's *home lane* — a per-thread hint taken modulo `K` — and
/// rotate to the next lane when the preferred one is busy (tracked by an
/// advisory per-lane contention counter). If every lane is busy the
/// operation proceeds on the home lane
/// anyway: lanes are internally synchronized, so the counter only shapes
/// *preference*, never correctness. Removal paths additionally skip lanes
/// whose lock-free occupancy probe says empty.
///
/// # Victim-side sweep
///
/// [`steal_half`](Segment::steal_half) computes the take from the summed
/// occupancy snapshot (⌈n/2⌉ over the whole logical segment), then fills
/// one recycled container ([`Segment::batch_shell`] +
/// [`Segment::remove_up_to_into`]) by sweeping lanes — uncontended lanes
/// first, so a thief harvests idle lanes without ever queueing behind the
/// owner's hot lane; only if the uncontended pass cannot meet the quota
/// does it wait on busy lanes. Concurrent mutation can make the realized
/// take differ from the snapshot's ⌈n/2⌉ (the split is atomic per lane,
/// not across lanes); element conservation is exact regardless.
///
/// `len` sums the lanes' lock-free occupancy counters, so the emptiness
/// contract is inherited: the sum may lag racing adds but never counts an
/// element that is not (or no longer) present.
///
/// ```
/// use cpool::segment::{LaneSegment, Segment, VecSegment};
/// let seg: LaneSegment<VecSegment<u32>, 4> = LaneSegment::new();
/// seg.add(7);
/// assert_eq!(seg.len(), 1);
/// assert_eq!(seg.try_remove(), Some(7));
/// ```
pub struct LaneSegment<S, const K: usize = 4> {
    lanes: [Lane<S>; K],
}

impl<S: Segment, const K: usize> LaneSegment<S, K> {
    fn from_segments(segs: Vec<S>) -> Self {
        assert!(K > 0, "LaneSegment requires at least one lane");
        assert_eq!(segs.len(), K);
        let mut segs = segs.into_iter();
        LaneSegment { lanes: std::array::from_fn(|_| Lane::new(segs.next().unwrap())) }
    }

    /// The calling thread's home lane for this segment.
    fn home(&self) -> usize {
        affinity() % K
    }

    /// Enters a lane for a mutation: the first idle lane in rotation order
    /// from home, or the home lane unconditionally when all are busy.
    /// Returns its index; the caller must `exit` it afterwards.
    fn enter_lane(&self) -> usize {
        let home = self.home();
        for i in 0..K {
            let idx = (home + i) % K;
            if self.lanes[idx].try_enter() {
                return idx;
            }
        }
        self.lanes[home].enter();
        home
    }

    /// Sweeps lanes appending into `out` until `target` elements were
    /// gathered; `contended` selects the fallback pass that no longer
    /// skips busy lanes.
    fn sweep_into(&self, target: usize, out: &mut Vec<S::Item>, contended: bool) {
        let home = self.home();
        for i in 0..K {
            if out.len() >= target {
                return;
            }
            let lane = &self.lanes[(home + i) % K];
            if lane.seg.is_empty() {
                continue;
            }
            if contended {
                lane.enter();
            } else if !lane.try_enter() {
                continue;
            }
            lane.seg.remove_up_to_into(target - out.len(), out);
            lane.exit();
        }
    }
}

impl<S: Segment, const K: usize> Segment for LaneSegment<S, K> {
    type Item = S::Item;

    fn new() -> Self {
        // A lone segment's lanes still share pooled resources with each
        // other (they are one `new_family` of the inner type).
        Self::from_segments(S::new_family(K))
    }

    /// One inner family spans the whole pool — `count × K` inner segments
    /// sharing one set of free lists — so a shell recycled by any lane of
    /// any segment carries the next transfer of any other.
    fn new_family(count: usize) -> Vec<Self> {
        assert!(K > 0, "LaneSegment requires at least one lane");
        let mut inner = S::new_family(count.max(1) * K).into_iter();
        (0..count.max(1)).map(|_| Self::from_segments(inner.by_ref().take(K).collect())).collect()
    }

    fn add(&self, item: S::Item) {
        let idx = self.enter_lane();
        self.lanes[idx].seg.add(item);
        self.lanes[idx].exit();
    }

    fn try_remove(&self) -> Option<S::Item> {
        let home = self.home();
        // Uncontended pass: idle, non-empty lanes in rotation order.
        for i in 0..K {
            let lane = &self.lanes[(home + i) % K];
            if lane.seg.is_empty() || !lane.try_enter() {
                continue;
            }
            let got = lane.seg.try_remove();
            lane.exit();
            if got.is_some() {
                return got;
            }
        }
        // Fallback pass: a present element must never be invisible just
        // because its lane is busy, so retry every non-empty lane and
        // accept the wait.
        for i in 0..K {
            let lane = &self.lanes[(home + i) % K];
            if lane.seg.is_empty() {
                continue;
            }
            lane.enter();
            let got = lane.seg.try_remove();
            lane.exit();
            if got.is_some() {
                return got;
            }
        }
        None
    }

    fn len(&self) -> usize {
        self.lanes.iter().map(|lane| lane.seg.len()).sum()
    }

    fn steal_half(&self) -> Vec<S::Item> {
        let target = steal_count(self.len());
        if target == 0 {
            return Vec::new();
        }
        let mut out = self.lanes[0].seg.batch_shell();
        self.sweep_into(target, &mut out, false);
        if out.len() < target {
            self.sweep_into(target, &mut out, true);
        }
        out
    }

    fn add_bulk(&self, batch: Vec<S::Item>) {
        // The whole batch lands in one lane so the deposit is a single
        // inner `add_bulk` (and the shell recycles through the inner
        // segment's cache as usual).
        let idx = self.enter_lane();
        self.lanes[idx].seg.add_bulk(batch);
        self.lanes[idx].exit();
    }

    fn remove_up_to(&self, n: usize) -> Vec<S::Item> {
        // The result leaves the pool with the caller, so start from a
        // plain vector, not a cached shell.
        let mut out = Vec::new();
        self.sweep_into(n, &mut out, false);
        if out.len() < n {
            self.sweep_into(n, &mut out, true);
        }
        out
    }

    fn drain_all(&self) -> Vec<S::Item> {
        let mut out = Vec::new();
        for lane in &self.lanes {
            lane.enter();
            out.append(&mut lane.seg.drain_all());
            lane.exit();
        }
        out
    }

    fn batch_shell(&self) -> Vec<S::Item> {
        self.lanes[0].seg.batch_shell()
    }

    fn remove_up_to_into(&self, n: usize, out: &mut Vec<S::Item>) {
        let before = out.len();
        self.sweep_into(before + n, out, false);
        if out.len() < before + n {
            self.sweep_into(before + n, out, true);
        }
    }
}

impl<S: Segment, const K: usize> fmt::Debug for LaneSegment<S, K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LaneSegment")
            .field("lanes", &K)
            .field("len", &self.len())
            .field(
                "active",
                &self.lanes.iter().map(|l| l.active.load(Ordering::Relaxed)).collect::<Vec<_>>(),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::VecSegment;
    use std::thread;

    #[test]
    fn add_remove_round_trips() {
        let seg: LaneSegment<VecSegment<u32>, 4> = LaneSegment::new();
        for i in 0..20 {
            seg.add(i);
        }
        assert_eq!(seg.len(), 20);
        let mut got: Vec<u32> = std::iter::from_fn(|| seg.try_remove()).collect();
        got.sort_unstable();
        assert_eq!(got, (0..20).collect::<Vec<_>>());
        assert!(seg.is_empty());
    }

    #[test]
    fn elements_visible_from_any_affinity() {
        // The empty-probe regression: whatever lane the producer's affinity
        // put the elements in, every other thread (with an arbitrary home
        // lane of its own) must see a nonzero len and be able to remove
        // and steal them — the sweep may never skip a lane with elements.
        let seg: LaneSegment<VecSegment<u64>, 4> = LaneSegment::new();
        for i in 0..8 {
            seg.add(i);
        }
        // Each spawned thread draws a fresh affinity hint, so their home
        // lanes differ from the producer's.
        thread::scope(|s| {
            for _ in 0..3 {
                let seg = &seg;
                s.spawn(move || {
                    assert!(!seg.is_empty(), "foreign threads must see the elements");
                    assert!(seg.try_remove().is_some(), "sweep must find a busy-free lane");
                });
            }
        });
        assert_eq!(seg.len(), 5);
        let stolen = seg.steal_half();
        assert_eq!(stolen.len(), 3, "steal takes ceil-half of the summed occupancy");
    }

    #[test]
    fn steal_sweeps_across_lanes() {
        let seg: LaneSegment<VecSegment<u32>, 4> = LaneSegment::new();
        // Scatter elements into every lane by adding from distinct threads.
        thread::scope(|s| {
            for t in 0..4 {
                let seg = &seg;
                s.spawn(move || {
                    for i in 0..10 {
                        seg.add(t * 10 + i);
                    }
                });
            }
        });
        assert_eq!(seg.len(), 40);
        let stolen = seg.steal_half();
        assert_eq!(stolen.len(), 20, "sweep gathers the quota across lanes");
        assert_eq!(seg.len(), 20);
    }

    #[test]
    fn single_lane_degenerates_to_inner() {
        let seg: LaneSegment<VecSegment<u32>, 1> = LaneSegment::new();
        for i in 0..6 {
            seg.add(i);
        }
        assert_eq!(seg.steal_half().len(), 3);
        assert_eq!(seg.remove_up_to(2).len(), 2);
        assert_eq!(seg.drain_all().len(), 1);
    }

    #[test]
    fn family_shares_inner_resources() {
        // 2 segments × 2 lanes = one inner family of 4: a shell stolen out
        // of segment 0 and deposited into segment 1 comes back from the
        // shared cache on segment 1's next steal.
        let family = <LaneSegment<VecSegment<u32>, 2> as Segment>::new_family(2);
        for i in 0..40 {
            family[0].add(i);
        }
        let batch = family[0].steal_half();
        let cap = batch.capacity();
        assert!(cap >= 20);
        family[1].add_bulk(batch);
        let again = family[1].steal_half();
        assert_eq!(again.capacity(), cap, "shell recycled across the family");
    }

    #[test]
    fn contended_lane_is_still_usable() {
        // Saturate every lane's advisory counter, then operate anyway: the
        // counter must shape preference, never block correctness.
        let seg: LaneSegment<VecSegment<u32>, 2> = LaneSegment::new();
        for lane in &seg.lanes {
            lane.enter();
        }
        seg.add(5);
        assert_eq!(seg.len(), 1);
        assert_eq!(seg.try_remove(), Some(5));
        seg.add(6);
        assert_eq!(seg.steal_half().len(), 1);
        for lane in &seg.lanes {
            lane.exit();
        }
    }
}
