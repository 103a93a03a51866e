//! Distinguishable elements: a pool keyed by element class.
//!
//! The second open question of §5: "How might pools be extended to handle
//! distinguishable elements?" This module answers it with a [`KeyedPool`]:
//! every element carries a key, and a remove may ask for *any* element or
//! for an element of a *specific* key.
//!
//! # Design
//!
//! A keyed pool *is* a plain pool: [`KeyedPool`] is a key API over a
//! [`Pool`] of [`KeyedSegment`]s searched by [`LinearSearch`], and
//! [`KeyedHandle`] wraps that pool's [`Handle`]. Registration, magazines,
//! blocking and async removes, close, drain and statistics are the plain
//! pool's own code. A key-scoped remove runs the same remove pass under a
//! key filter, which scopes the local take, the victim steal, the depot
//! match, the wake filter and the drained check to one key.
//!
//! Each segment partitions its contents by key (a `BTreeMap` of buckets —
//! ordered, so iteration is deterministic and virtual-time runs reproduce).
//! The concurrent-pool locality story carries over per key:
//!
//! * `add(k, v)` goes to the local segment's `k` bucket;
//! * `try_remove_key(k)` serves from the local `k` bucket, and only when
//!   that is empty searches remote segments — stealing **⌈n/2⌉ of the
//!   victim's `k` bucket** (the paper's rule, applied bucket-wise, so the
//!   reserve it builds is a reserve of the key the process actually wants);
//! * `try_remove_any` serves any local element, and when the local segment
//!   is empty steals half of the *largest* bucket of the first non-empty
//!   victim — taking the biggest bucket preserves the locality of the
//!   victim's other keys while still balancing bulk.
//!
//! Searches use the **linear algorithm**: the paper's own conclusion is
//! that "the linear or the random search algorithm may suffice and provide
//! better performance" (§5), and the tree's round counters do not compose
//! with per-key emptiness (a subtree empty *for key A* is not empty for
//! key B, so one shared counter per node would mislead other keys'
//! searches — one tree per key would cost `k · n` counters). A process has
//! one ring cursor — the linear search's `LastFound` — shared by its
//! any-key and key-scoped searches, and a lap probes every segment, home
//! first, exactly as in the plain pool.
//!
//! Transfers are vectors of `(key, value)` pairs, like every segment's
//! ([`transfer`](crate::transfer)): a stolen element carries a clone of its
//! key. Steals fill a recycled vector shell from a pool-wide free list and
//! refills return it, and a bucket emptied by removes or steals stays
//! resident so its capacity (and its map node) is reused by the next add
//! of that key — the steady-state keyed steal/refill cycle allocates
//! nothing (asserted by `tests/alloc_steal.rs`). Residency is bounded per
//! segment (64 buckets; beyond that emptied buckets are evicted so
//! occupancy scans stay bounded under ephemeral-key workloads); a
//! [`PoolOps::drain`] releases everything.
//!
//! Livelock on exhausted keys is broken by the same §3.2 gate as the plain
//! pool: a keyed search aborts when every registered process is searching —
//! whether they starve on the same key or different ones, nobody can be
//! adding, so waiting is futile.
//!
//! # Hot keys
//!
//! Uniform key traffic spreads naturally over segments, but a Zipfian
//! stream funnels most operations through one or two buckets, and every
//! producer and consumer of a hot key then serializes on the owning
//! segment's lock. The keyed frontend reacts adaptively:
//!
//! * a pool-wide sampled frequency detector ([`hotkey`](crate::hotkey))
//!   watches one in `sample_every` operations per handle;
//! * when a key's share of the sample window crosses the promote
//!   threshold, its bucket is **split** into `K` independently locked
//!   sub-shards (`HotBucket`, crate-internal): adds rotate across sub-shards, removes
//!   drain any, and handles cache the split bucket so hot-key traffic
//!   bypasses the segment lock entirely (after the magazine check, before
//!   the segment);
//! * steal-half applies **sub-shard-wise** (⌈n/2⌉ of each sub-shard, one
//!   shard lock at a time, never the segment lock), filling the same
//!   recycled transfer shells as plain steals — the alloc-free steady
//!   state is preserved;
//! * the largest-bucket victim policy for anonymous steals becomes
//!   **heat-weighted**: victims rank by `len × (1 + boost · heat)`, so
//!   thieves relieve the actual contention point, not just the deepest
//!   bucket;
//! * when the detector's window shows the key has cooled below the demote
//!   threshold (hysteresis — see [`HotKeyConfig`]), the sub-shards are
//!   **merged back** into a plain bucket. Close/timeout semantics are
//!   unaffected: segment occupancy counts include sub-shard contents, so
//!   drained snapshots and wake filters see through a split.

use std::borrow::Borrow;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, MutexGuard};

use crate::core::{KeyFilter, RemoveFilter};
use crate::error::RemoveError;
use crate::future::{KeyedRemoveFuture, RemoveKeyFuture};
use crate::hotkey::{HotKeyConfig, HotKeyDetector};
use crate::ids::ProcId;
#[cfg(test)]
use crate::ids::SegIdx;
use crate::magazine::{Depot, MagazineCache, PopOutcome};
use crate::ops::{PoolOps, SmallDrain, WaitStrategy};
use crate::pool::{Handle, Pool, PoolBuilder};
use crate::search::LinearSearch;
use crate::segment::{steal_count, Segment};
use crate::stats::PoolStats;
use crate::timing::{NullTiming, Resource, Timing};
use crate::transfer::{FreeList, SHELL_SPILL_MAX, SHELL_SPILL_MIN};

/// Keys must be orderable (deterministic bucket iteration), cloneable
/// (buckets store them), and sendable across worker threads.
pub trait Key: Ord + Clone + Send + 'static {}
impl<K: Ord + Clone + Send + 'static> Key for K {}

/// Default for the most buckets a segment keeps resident while *empty*
/// (see [`KeyedPoolBuilder::resident_buckets_max`]). Above the bound, an
/// emptied bucket is evicted instead: occupancy scans
/// ([`Segment::try_remove`] on a [`KeyedSegment`]) walk past resident empties, so an
/// unbounded ephemeral-key workload would otherwise degrade every remove
/// (and its lock hold time) linearly with the keys ever seen. Live
/// (non-empty) buckets never count against the bound.
const RESIDENT_BUCKETS_MAX: usize = 64;

/// Weight of observed heat in the anonymous-steal victim ranking: buckets
/// score `len × (1 + HEAT_STEAL_BOOST × heat)` with heat in `[0, 1]`, so a
/// bucket drawing the whole sample window outranks a cold bucket up to
/// five times its size — thieves relieve the contention point, not merely
/// the deepest bucket. With no detector (or no samples) every heat is 0
/// and the ranking degenerates to the original largest-bucket rule.
const HEAT_STEAL_BOOST: f64 = 4.0;

/// Entries a handle's hot-bucket cache may hold before it is reset; the
/// cache repopulates from sampled operations, so a reset only costs a few
/// slow-path (segment-locked) operations per hot key.
const HOT_CACHE_MAX: usize = 16;

/// One in this many *sampled* operations also runs the hysteresis
/// (demote) sweep. The sweep locks the segment and probes the detector
/// once per split bucket; heat decay only needs to be eventual, so it
/// runs at `sample_every × SWEEP_EVERY_SAMPLES` op granularity per
/// handle rather than on every sample.
const SWEEP_EVERY_SAMPLES: u32 = 8;

/// One bucket: a plain vector, or — once promoted by the hot-key detector
/// — `K` independently locked sub-shards.
enum Bucket<V> {
    Plain(Vec<V>),
    Hot(Arc<HotBucket<V>>),
}

impl<V> Bucket<V> {
    fn len(&self) -> usize {
        match self {
            Bucket::Plain(bucket) => bucket.len(),
            Bucket::Hot(hot) => hot.len(),
        }
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A promoted (split) bucket: `K` sub-shards, each behind its own lock, so
/// hot-key producers and consumers stop serializing on one vector — and,
/// via the handles' caches, on the segment lock itself. The cached total
/// makes emptiness probes lock-free. Handles address sub-shards by their
/// process slot (affinity: distinct processes, distinct shards, and a
/// process's pops probe its own pushes' shard first); segment-internal
/// routed operations rotate via the cursors so the shards stay balanced
/// without coordination.
///
/// Demotion (and teardown) *seals* each sub-shard under its lock; a sealed
/// shard refuses pushes and reports pops as sealed, which tells stale
/// cached handles to drop the reference and retake the segment-locked
/// path. Elements only ever move under a shard lock, so a split or merge
/// racing live traffic can neither lose nor duplicate them.
struct HotBucket<V> {
    shards: Box<[Shard<V>]>,
    add_cursor: AtomicUsize,
    remove_cursor: AtomicUsize,
}

/// One sub-shard: the element vector behind its own lock, flanked by two
/// lock-free mirrors so the fast paths and occupancy probes never touch a
/// lock they don't need. Padded to a cache line: sub-shards sit adjacent
/// in one slab, and the whole point of the split is that processes on
/// different shards stop invalidating each other's lines.
#[repr(align(64))]
struct Shard<V> {
    items: Mutex<Vec<V>>,
    /// `items.len()` mirror, written with a plain store while the shard
    /// lock is held (one writer at a time, so no read-modify-write): pops
    /// skip empty shards and occupancy sums read it without locking.
    len: AtomicUsize,
    /// Sticky seal flag, set under the shard lock by demotion/teardown
    /// (a `HotBucket` is never unsealed — promotion builds a fresh one),
    /// so the lock-free read can trust `true` outright; `false` is
    /// re-checked under the lock before mutating.
    sealed: AtomicBool,
}

impl<V> HotBucket<V> {
    /// Builds a `k`-shard bucket, dealing `items` round-robin so the
    /// shards start balanced. `k` is rounded up to a power of two so
    /// shard selection is a mask, not a hardware divide — the selection
    /// runs on every hot-path operation.
    fn new(k: usize, items: Vec<V>) -> Self {
        let k = k.next_power_of_two();
        let mut dealt: Vec<Vec<V>> = (0..k).map(|_| Vec::new()).collect();
        for (i, value) in items.into_iter().enumerate() {
            dealt[i % k].push(value);
        }
        HotBucket {
            shards: dealt
                .into_iter()
                .map(|items| Shard {
                    len: AtomicUsize::new(items.len()),
                    sealed: AtomicBool::new(false),
                    items: Mutex::new(items),
                })
                .collect(),
            add_cursor: AtomicUsize::new(0),
            remove_cursor: AtomicUsize::new(0),
        }
    }

    /// Shard-index mask: the shard count is always a power of two, so
    /// `index & mask()` replaces `index % len` on the hot paths.
    fn mask(&self) -> usize {
        self.shards.len() - 1
    }

    /// Seals every sub-shard under its lock and moves the contents out.
    /// A sealed shard refuses pushes, so stale cached handles fall back to
    /// the segment-locked path and nothing lands in the orphaned bucket.
    fn seal(&self) -> Vec<V> {
        let mut merged: Vec<V> = Vec::new();
        for shard in self.shards.iter() {
            let mut items = shard.items.lock();
            shard.sealed.store(true, Ordering::Release);
            shard.len.store(0, Ordering::Release);
            if merged.is_empty() {
                // Reuse the first non-empty shard's grown capacity.
                merged = std::mem::take(&mut items);
            } else {
                merged.append(&mut items);
            }
        }
        merged
    }

    /// Occupancy: the sum of the per-shard mirrors. Exact when quiescent,
    /// momentarily stale against in-flight shard operations — callers
    /// treat it as a hint (steal sizing, emptiness scans that re-check).
    fn len(&self) -> usize {
        self.shards.iter().map(|shard| shard.len.load(Ordering::Acquire)).sum()
    }
}

/// Outcome of a pop attempt against a bucket.
enum HotPop<V> {
    Got(V),
    /// The bucket holds nothing (every sub-shard of a split one was empty
    /// and unsealed).
    Empty,
    /// A sealed sub-shard was seen: the bucket is being (or has been)
    /// demoted — retake the segment-locked path.
    Sealed,
}

/// The bucket map plus an exact count of its resident *empty* plain
/// buckets, kept in lockstep so the residency policy never has to scan,
/// and the segment-local event counters the pool aggregates into
/// [`PoolCounters`]. Hot buckets never count as empties: they stay
/// resident (and split) until the detector demotes them.
struct Buckets<K, V> {
    map: BTreeMap<K, Bucket<V>>,
    empties: usize,
    resident_max: usize,
    evictions: u64,
    promotions: u64,
    demotions: u64,
    /// The keys currently split, kept in lockstep with `map` so the
    /// hysteresis sweep touches only the (few) hot buckets instead of
    /// scanning the whole key space on every sampled operation.
    hot_keys: Vec<K>,
}

impl<K: Key, V> Buckets<K, V> {
    /// Routes an add under the segment lock: the plain bucket for `key` —
    /// created if absent, a resident empty brought back into use — or, for
    /// a split key, the split bucket's handle (with the key), so the push
    /// happens under a sub-shard lock instead.
    #[allow(clippy::type_complexity)]
    fn bucket_for(&mut self, key: K) -> Result<&mut Vec<V>, (K, Arc<HotBucket<V>>)> {
        let entry = match self.map.entry(key) {
            Entry::Vacant(entry) => entry.insert(Bucket::Plain(Vec::new())),
            Entry::Occupied(entry) => {
                if let Bucket::Hot(hot) = entry.get() {
                    return Err((entry.key().clone(), Arc::clone(hot)));
                }
                let bucket = entry.into_mut();
                if bucket.is_empty() {
                    self.empties -= 1;
                }
                bucket
            }
        };
        match entry {
            Bucket::Plain(bucket) => Ok(bucket),
            Bucket::Hot(_) => unreachable!("split buckets returned above"),
        }
    }

    /// The residency policy in one place: a plain bucket that an operation
    /// just emptied stays resident (capacity + map node reuse) unless the
    /// segment already hoards `resident_max` empty buckets, in which case
    /// it is evicted (and counted).
    fn settle_emptied(&mut self, key: &K, emptied: bool) {
        if !emptied {
            return;
        }
        if self.empties >= self.resident_max {
            self.map.remove(key);
            self.evictions += 1;
        } else {
            self.empties += 1;
        }
    }

    /// Splits `key`'s bucket into `k` sub-shards (idempotent: an already
    /// split bucket just returns its handle; an absent key splits an empty
    /// bucket pre-emptively). Elements move under the segment lock, so no
    /// operation can observe the key mid-split.
    fn promote(&mut self, key: &K, k: usize) -> Arc<HotBucket<V>> {
        let items = match self.map.get_mut(key) {
            Some(Bucket::Hot(hot)) => return Arc::clone(hot),
            Some(Bucket::Plain(bucket)) => {
                if bucket.is_empty() {
                    self.empties -= 1;
                }
                std::mem::take(bucket)
            }
            None => Vec::new(),
        };
        let hot = Arc::new(HotBucket::new(k, items));
        self.map.insert(key.clone(), Bucket::Hot(Arc::clone(&hot)));
        self.hot_keys.push(key.clone());
        self.promotions += 1;
        hot
    }

    /// Merges `key`'s sub-shards back into a plain bucket, sealing each
    /// shard under its lock so stale cached handles fall back to the
    /// segment-locked path (which now sees the plain bucket). An emptied
    /// hot bucket lands under the normal residency policy.
    fn demote(&mut self, key: &K) -> bool {
        let hot = match self.map.get(key) {
            Some(Bucket::Hot(hot)) => Arc::clone(hot),
            _ => return false,
        };
        let merged = hot.seal();
        self.hot_keys.retain(|k| k != key);
        self.demotions += 1;
        let emptied = merged.is_empty();
        self.map.insert(key.clone(), Bucket::Plain(merged));
        self.settle_emptied(key, emptied);
        true
    }
}

/// State shared by the segments of one keyed pool: the transfer-shell
/// cache, and the hot-key detector with its knobs.
struct KeyedFamily<K, V> {
    /// Pool-wide cache of spare transfer vectors: steals fill a recycled
    /// shell, refills return it (see [`transfer`](crate::transfer)).
    shells: FreeList<Vec<(K, V)>>,
    /// The sampled key-frequency window (`None` when hot-key detection is
    /// disabled); only sampled operations touch its lock.
    detector: Option<HotKeyDetector<K>>,
    /// The hot-key knobs, kept even when detection is off so manual
    /// [`KeyedPool::promote_key`] calls know the sub-shard count.
    hot_cfg: HotKeyConfig,
}

impl<K: Key, V> KeyedFamily<K, V> {
    fn new(segments: usize, hotkey: Option<HotKeyConfig>) -> Arc<Self> {
        Arc::new(KeyedFamily {
            shells: FreeList::new(CACHED_SHELLS_PER_SEGMENT * segments.max(1) + 2),
            detector: hotkey.map(HotKeyDetector::new),
            hot_cfg: hotkey.unwrap_or_default(),
        })
    }
}

/// Transfer shells a keyed pool retains per segment (see
/// [`FreeList`]; the steal/refill cycle keeps at most one in flight per
/// concurrent search).
const CACHED_SHELLS_PER_SEGMENT: usize = 2;

/// A key-bucketed pool segment: the element store of a [`KeyedPool`], and a
/// [`Segment`] over `(key, value)` pairs in its own right.
///
/// As a `Segment`, [`try_remove`](Segment::try_remove) takes an element of
/// the first non-empty key, [`steal_half`](Segment::steal_half) takes
/// ⌈b/2⌉ of the largest (heat-weighted) bucket `b`, and
/// [`add_bulk`](Segment::add_bulk) lands a mixed-key batch under one lock.
///
/// A bucket emptied by removes or steals **stays resident** (an empty
/// vector under its key) instead of being evicted from the map — up to
/// `resident_max` empty buckets (default 64, see
/// [`KeyedPoolBuilder::resident_buckets_max`]): the
/// next add or refill of that key reuses the bucket's grown capacity and
/// the map's existing node, so the steady-state keyed steal/refill cycle
/// allocates nothing. Beyond the bound emptied buckets are evicted
/// (ephemeral-key workloads trade the allocation-free property for bounded
/// scans); [`drain_all`](Segment::drain_all) releases everything. All
/// occupancy checks skip empty buckets.
///
/// Hot (split) buckets are handled in two halves: locating one takes the
/// segment lock briefly (or no lock at all, via a handle's cache), while
/// the actual element movement happens under the sub-shard locks.
///
/// ```
/// use cpool::keyed::KeyedSegment;
/// use cpool::Segment;
///
/// let seg: KeyedSegment<&str, u32> = KeyedSegment::new();
/// seg.add_bulk(vec![("a", 1), ("b", 2), ("b", 3), ("b", 4)]);
/// let stolen = seg.steal_half();
/// assert_eq!(stolen.len(), 2, "ceil(3/2) of the largest bucket");
/// assert!(stolen.iter().all(|(key, _)| *key == "b"));
/// ```
pub struct KeyedSegment<K, V> {
    buckets: Mutex<Buckets<K, V>>,
    len: AtomicUsize,
    /// Lock-free mirror of `buckets.hot_keys.len()` (written while the
    /// buckets lock is held): the hysteresis sweep's early-out, so a
    /// segment with no split buckets pays one relaxed load per sample.
    hot_gauge: AtomicUsize,
    family: Arc<KeyedFamily<K, V>>,
}

impl<K, V> std::fmt::Debug for KeyedSegment<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyedSegment")
            .field("len", &self.len.load(Ordering::Relaxed))
            .field("hot_buckets", &self.hot_gauge.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl<K: Key, V: Send + 'static> KeyedSegment<K, V> {
    fn with_family(family: Arc<KeyedFamily<K, V>>, resident_max: usize) -> Self {
        KeyedSegment {
            buckets: Mutex::new(Buckets {
                map: BTreeMap::new(),
                empties: 0,
                resident_max,
                evictions: 0,
                promotions: 0,
                demotions: 0,
                hot_keys: Vec::new(),
            }),
            len: AtomicUsize::new(0),
            hot_gauge: AtomicUsize::new(0),
            family,
        }
    }

    /// Elements of one key in this segment (snapshot; takes the segment
    /// lock).
    pub fn key_len(&self, key: &K) -> usize {
        self.buckets.lock().map.get(key).map_or(0, Bucket::len)
    }

    /// Pushes into one sub-shard of a hot bucket, without the segment
    /// lock. `at` picks the shard (mod the shard count): handles pass
    /// their process slot, so concurrent processes land on distinct
    /// shards and a process's own pops find its pushes first; routed
    /// segment-internal adds rotate via the bucket's cursor instead.
    /// `Err` hands the value back when the shard is sealed — a demotion
    /// raced; retake the routed path, which now sees a plain bucket.
    fn hot_push(&self, hot: &HotBucket<V>, value: V, at: usize) -> Result<(), V> {
        let shard = &hot.shards[at & hot.mask()];
        let mut items = shard.items.lock();
        if shard.sealed.load(Ordering::Relaxed) {
            return Err(value);
        }
        items.push(value);
        // Both occupancy mirrors move while the shard lock is held, so a
        // demotion or drain that later seals this shard observes them.
        shard.len.store(items.len(), Ordering::Release);
        self.len.fetch_add(1, Ordering::AcqRel);
        Ok(())
    }

    /// Pops from the first non-empty sub-shard, probing every shard in
    /// ring order from `start` (removes drain any sub-shard), without the
    /// segment lock. Handles start at their process slot — the shard
    /// their own pushes land on — so the steady-state pop is a single
    /// lock acquisition; segment-internal removes rotate via the bucket's
    /// cursor.
    fn hot_pop(&self, hot: &HotBucket<V>, start: usize) -> HotPop<V> {
        let mask = hot.mask();
        let mut saw_sealed = false;
        for i in 0..hot.shards.len() {
            let shard = &hot.shards[(start + i) & mask];
            // Lock-free pre-checks: a sealed flag is sticky, and an empty
            // shard's len mirror says so — neither needs the lock (a push
            // racing past the mirror read linearizes after this pop).
            if shard.sealed.load(Ordering::Acquire) {
                saw_sealed = true;
                continue;
            }
            if shard.len.load(Ordering::Acquire) == 0 {
                continue;
            }
            let mut items = shard.items.lock();
            if shard.sealed.load(Ordering::Relaxed) {
                saw_sealed = true;
                continue;
            }
            if let Some(value) = items.pop() {
                shard.len.store(items.len(), Ordering::Release);
                self.len.fetch_sub(1, Ordering::AcqRel);
                return HotPop::Got(value);
            }
        }
        if saw_sealed {
            HotPop::Sealed
        } else {
            HotPop::Empty
        }
    }

    /// Deals a single-key bulk refill across the sub-shards in balanced
    /// chunks. Returns `false` — with the undelivered remainder left in
    /// `pairs` — when it meets a sealed sub-shard: a demotion is sealing
    /// the whole bucket, and the caller reroutes the rest through the map.
    fn hot_push_bulk(&self, hot: &HotBucket<V>, pairs: &mut Vec<(K, V)>) -> bool {
        let per = pairs.len().div_ceil(hot.shards.len());
        let start = hot.add_cursor.fetch_add(1, Ordering::Relaxed);
        for i in 0..hot.shards.len() {
            let shard = &hot.shards[(start + i) & hot.mask()];
            let mut items = shard.items.lock();
            if shard.sealed.load(Ordering::Relaxed) {
                return false;
            }
            let take = per.min(pairs.len());
            items.extend(pairs.drain(pairs.len() - take..).map(|(_, value)| value));
            shard.len.store(items.len(), Ordering::Release);
            self.len.fetch_add(take, Ordering::AcqRel);
        }
        true
    }

    /// Steal-half, sub-shard-wise: ⌈s/2⌉ of *each* unsealed sub-shard
    /// (`s` = its size), one shard lock at a time and never the segment
    /// lock, into one transfer shell — so a hot victim keeps serving its
    /// other sub-shards while being robbed.
    fn hot_steal_half(&self, key: &K, hot: &HotBucket<V>) -> Vec<(K, V)> {
        let expected = steal_count(hot.len());
        if expected == 0 {
            return Vec::new();
        }
        let mut stolen = self.transfer_shell(expected);
        for shard in hot.shards.iter() {
            if shard.sealed.load(Ordering::Acquire) || shard.len.load(Ordering::Acquire) == 0 {
                continue;
            }
            let mut items = shard.items.lock();
            if shard.sealed.load(Ordering::Relaxed) {
                continue;
            }
            let take = steal_count(items.len());
            if take == 0 {
                continue;
            }
            let at = items.len() - take;
            stolen.extend(items.drain(at..).map(|value| (key.clone(), value)));
            shard.len.store(items.len(), Ordering::Release);
            self.len.fetch_sub(take, Ordering::AcqRel);
        }
        stolen
    }

    /// An empty transfer vector for a steal of about `n` elements: a
    /// recycled shell for bulk steals, while tiny ones take the
    /// allocator's small-size fast path instead of a free-list round trip.
    fn transfer_shell(&self, n: usize) -> Vec<(K, V)> {
        if n < SHELL_SPILL_MIN {
            Vec::with_capacity(n)
        } else {
            self.family.shells.take().unwrap_or_default()
        }
    }

    /// Lands a batch whose pairs all carry `key` (every steal transfer):
    /// one bucket append under the segment lock, or a sub-shard-wise deal
    /// off it when the bucket is split.
    fn add_bulk_key(&self, key: &K, pairs: &mut Vec<(K, V)>) {
        while !pairs.is_empty() {
            let hot = {
                let mut buckets = self.buckets.lock();
                match buckets.bucket_for(key.clone()) {
                    Ok(bucket) => {
                        let n = pairs.len();
                        bucket.extend(pairs.drain(..).map(|(_, value)| value));
                        self.len.fetch_add(n, Ordering::AcqRel);
                        return;
                    }
                    Err((_, hot)) => hot,
                }
            };
            // Sub-shard-wise refill, off the segment lock; a raced
            // demotion (all shards sealed) loops back to the plain path.
            if self.hot_push_bulk(&hot, pairs) {
                return;
            }
        }
    }

    /// Adds a mixed-key batch under one lock acquisition; values bound for
    /// hot buckets are pushed afterwards under their sub-shard locks.
    fn add_bulk_mixed(&self, pairs: &mut Vec<(K, V)>) {
        let mut deferred: Vec<(K, Arc<HotBucket<V>>, V)> = Vec::new();
        let mut landed = 0;
        {
            let mut buckets = self.buckets.lock();
            for (key, value) in pairs.drain(..) {
                match buckets.bucket_for(key) {
                    Ok(bucket) => {
                        bucket.push(value);
                        landed += 1;
                    }
                    Err((key, hot)) => deferred.push((key, hot, value)),
                }
            }
            // Publish under the lock, like every other mutation: a remover
            // could otherwise take these elements and decrement the mirror
            // first, wrapping it to a huge "non-empty" reading that keeps
            // waiting searches spinning on a segment that holds nothing.
            if landed > 0 {
                self.len.fetch_add(landed, Ordering::AcqRel);
            }
        }
        for (key, hot, value) in deferred {
            let at = hot.add_cursor.fetch_add(1, Ordering::Relaxed);
            if let Err(value) = self.hot_push(&hot, value, at) {
                // Sealed (demotion raced): the retried add routes plain.
                self.add((key, value));
            }
        }
    }

    /// Pops one element of `key`'s bucket, consuming the segment lock: a
    /// plain bucket pops under it (settling residency and the cached
    /// length), a split one pops sub-shard-wise once it is released.
    fn pop_bucket(&self, mut buckets: MutexGuard<'_, Buckets<K, V>>, key: &K) -> HotPop<V> {
        let hot = match buckets.map.get_mut(key) {
            Some(Bucket::Hot(hot)) => Arc::clone(hot),
            Some(Bucket::Plain(bucket)) => {
                let Some(value) = bucket.pop() else { return HotPop::Empty };
                let emptied = bucket.is_empty();
                buckets.settle_emptied(key, emptied);
                self.len.fetch_sub(1, Ordering::AcqRel);
                return HotPop::Got(value);
            }
            None => return HotPop::Empty,
        };
        drop(buckets);
        self.hot_pop(&hot, hot.remove_cursor.fetch_add(1, Ordering::Relaxed))
    }

    fn remove_key(&self, key: &K) -> Option<V> {
        loop {
            match self.pop_bucket(self.buckets.lock(), key) {
                HotPop::Got(value) => return Some(value),
                HotPop::Empty => return None,
                // Demotion moved the elements back to a plain bucket.
                HotPop::Sealed => continue,
            }
        }
    }

    /// Steals ⌈b/2⌉ of `key`'s bucket (`b` = its size) into a transfer
    /// vector, consuming the segment lock: a plain bucket drains under it
    /// (settling residency and the cached length), a split one is robbed
    /// sub-shard-wise once it is released. Empty if the bucket is absent
    /// or empty.
    fn steal_bucket(&self, mut buckets: MutexGuard<'_, Buckets<K, V>>, key: &K) -> Vec<(K, V)> {
        let hot = match buckets.map.get_mut(key) {
            Some(Bucket::Hot(hot)) => Arc::clone(hot),
            Some(Bucket::Plain(bucket)) if !bucket.is_empty() => {
                let take = steal_count(bucket.len());
                let at = bucket.len() - take;
                let mut stolen = self.transfer_shell(take);
                stolen.extend(bucket.drain(at..).map(|value| (key.clone(), value)));
                let emptied = bucket.is_empty();
                buckets.settle_emptied(key, emptied);
                self.len.fetch_sub(take, Ordering::AcqRel);
                return stolen;
            }
            _ => return Vec::new(),
        };
        drop(buckets);
        self.hot_steal_half(key, &hot)
    }

    /// Steals ⌈b/2⌉ of the `key` bucket — see
    /// [`steal_bucket`](Self::steal_bucket).
    fn steal_half_key(&self, key: &K) -> Vec<(K, V)> {
        self.steal_bucket(self.buckets.lock(), key)
    }

    /// The key's observed heat in `[0, 1]` (0 when detection is off) —
    /// the weight the steal sweep folds into victim ranking.
    fn heat(&self, key: &K) -> f64 {
        self.family.detector.as_ref().map_or(0.0, |d| d.heat(key))
    }

    /// Splits `key`'s bucket into `k` sub-shards (idempotent); returns the
    /// split bucket for caching.
    fn promote(&self, key: &K, k: usize) -> Arc<HotBucket<V>> {
        let mut buckets = self.buckets.lock();
        let hot = buckets.promote(key, k);
        self.hot_gauge.store(buckets.hot_keys.len(), Ordering::Release);
        hot
    }

    /// Merges `key`'s sub-shards back into a plain bucket; `false` if the
    /// key is not split here.
    fn demote(&self, key: &K) -> bool {
        let mut buckets = self.buckets.lock();
        let merged = buckets.demote(key);
        self.hot_gauge.store(buckets.hot_keys.len(), Ordering::Release);
        merged
    }

    /// The split bucket under `key`, if any (for handle caches).
    fn hot_bucket(&self, key: &K) -> Option<Arc<HotBucket<V>>> {
        match self.buckets.lock().map.get(key) {
            Some(Bucket::Hot(hot)) => Some(Arc::clone(hot)),
            _ => None,
        }
    }

    /// Demotes every split bucket whose key `is_cold` — the hysteresis
    /// sweep sampled operations run against their home segment. Returns
    /// how many buckets were merged back. A segment with no split buckets
    /// answers from the gauge without taking any lock; one with split
    /// buckets consults only its (few) hot keys, never the whole map.
    fn demote_cold(&self, is_cold: &dyn Fn(&K) -> bool) -> usize {
        if self.hot_gauge.load(Ordering::Acquire) == 0 {
            return 0;
        }
        let mut buckets = self.buckets.lock();
        let cold: Vec<K> = buckets.hot_keys.iter().filter(|key| is_cold(key)).cloned().collect();
        for key in &cold {
            buckets.demote(key);
        }
        self.hot_gauge.store(buckets.hot_keys.len(), Ordering::Release);
        cold.len()
    }

    /// Segment-local event counters and the split-bucket gauge, for
    /// [`PoolCounters`](crate::stats::PoolCounters) aggregation.
    fn counters(&self) -> (u64, u64, u64, u64) {
        let buckets = self.buckets.lock();
        (buckets.evictions, buckets.promotions, buckets.demotions, buckets.hot_keys.len() as u64)
    }
}

impl<K: Key, V: Send + 'static> Segment for KeyedSegment<K, V> {
    type Item = (K, V);

    /// A standalone segment: default residency bound, no hot-key detector
    /// (every heat is 0, so steals take the plain largest bucket).
    fn new() -> Self {
        Self::with_family(KeyedFamily::new(1, None), RESIDENT_BUCKETS_MAX)
    }

    /// One pool's segments share a single transfer-shell cache.
    fn new_family(count: usize) -> Vec<Self> {
        let family = KeyedFamily::new(count, None);
        (0..count).map(|_| Self::with_family(Arc::clone(&family), RESIDENT_BUCKETS_MAX)).collect()
    }

    fn add(&self, (mut key, mut value): (K, V)) {
        loop {
            let (k, hot) = {
                let mut buckets = self.buckets.lock();
                match buckets.bucket_for(key) {
                    Ok(bucket) => {
                        bucket.push(value);
                        self.len.fetch_add(1, Ordering::AcqRel);
                        return;
                    }
                    Err(routed) => routed,
                }
            };
            let at = hot.add_cursor.fetch_add(1, Ordering::Relaxed);
            match self.hot_push(&hot, value, at) {
                Ok(()) => return,
                // Sealed: the bucket was demoted between routing and the
                // push — the retried route lands in the plain bucket.
                Err(v) => {
                    key = k;
                    value = v;
                }
            }
        }
    }

    fn try_remove(&self) -> Option<(K, V)> {
        loop {
            let buckets = self.buckets.lock();
            // First *non-empty* key in order: deterministic; empty buckets
            // are resident capacity, not occupancy.
            let key = buckets.map.iter().find(|(_, bucket)| !bucket.is_empty())?.0.clone();
            // A split bucket can race empty or mid-demotion: rescan — the
            // occupancy mirror has moved on, so the scan converges.
            if let HotPop::Got(value) = self.pop_bucket(buckets, &key) {
                return Some((key, value));
            }
        }
    }

    fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Steals ⌈b/2⌉ of the highest-scoring non-empty bucket (ties:
    /// smallest key). The score is heat-weighted occupancy —
    /// `len × (1 + boost × heat)` — so under skew the *contended* bucket
    /// is robbed, which both balances load and seeds the thief's own
    /// reserve of the key most likely to be asked for next; with no heat
    /// it degenerates to the plain largest-bucket rule.
    fn steal_half(&self) -> Vec<(K, V)> {
        let buckets = self.buckets.lock();
        let score = |key: &K, bucket: &Bucket<V>| {
            bucket.len() as f64 * (1.0 + HEAT_STEAL_BOOST * self.heat(key))
        };
        let Some(key) = buckets
            .map
            .iter()
            .filter(|(_, bucket)| !bucket.is_empty())
            .max_by(|a, b| {
                score(a.0, a.1)
                    .partial_cmp(&score(b.0, b.1))
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| b.0.cmp(a.0))
            })
            .map(|(key, _)| key.clone())
        else {
            return Vec::new();
        };
        self.steal_bucket(buckets, &key)
    }

    fn add_bulk(&self, mut batch: Vec<(K, V)>) {
        if let Some((first, _)) = batch.first() {
            if batch.iter().all(|(key, _)| key == first) {
                let key = first.clone();
                self.add_bulk_key(&key, &mut batch);
            } else {
                self.add_bulk_mixed(&mut batch);
            }
        }
        // The drained transfer shell goes back to the pool for the next
        // bulk steal (lock released first). Undersized shells are not worth
        // the round trip; oversized ones would pin unbounded memory.
        if (SHELL_SPILL_MIN..=SHELL_SPILL_MAX).contains(&batch.capacity()) {
            self.family.shells.put(batch);
        }
    }

    /// Removes up to `n` elements (first keys first, deterministically)
    /// under one lock acquisition; hot buckets drain sub-shard-wise under
    /// their shard locks (segment lock before shard lock is the crate-wide
    /// order). Emptied plain buckets settle under the per-op residency
    /// policy; emptied hot buckets stay split until the detector demotes
    /// them.
    fn remove_up_to(&self, n: usize) -> Vec<(K, V)> {
        let mut out = Vec::new();
        let mut emptied = Vec::new();
        let mut buckets = self.buckets.lock();
        for (key, bucket) in buckets.map.iter_mut() {
            match bucket {
                Bucket::Plain(values) if !values.is_empty() => {
                    let at = values.len().saturating_sub(n - out.len());
                    out.extend(values.drain(at..).map(|value| (key.clone(), value)));
                    if values.is_empty() {
                        emptied.push(key.clone());
                    }
                }
                Bucket::Plain(_) => {}
                Bucket::Hot(hot) => {
                    for shard in hot.shards.iter() {
                        let mut items = shard.items.lock();
                        if !shard.sealed.load(Ordering::Relaxed) {
                            let at = items.len().saturating_sub(n - out.len());
                            out.extend(items.drain(at..).map(|value| (key.clone(), value)));
                            shard.len.store(items.len(), Ordering::Release);
                        }
                    }
                }
            }
            if out.len() == n {
                break;
            }
        }
        for key in &emptied {
            buckets.settle_emptied(key, true);
        }
        self.len.fetch_sub(out.len(), Ordering::AcqRel);
        out
    }

    /// Removes every element under one lock acquisition. This is the one
    /// operation that also evicts the resident buckets (and their retained
    /// capacity): a drain is a teardown, not steady-state traffic. Hot
    /// buckets are sealed shard-by-shard so a stale cached handle cannot
    /// push into an orphaned bucket — its retry re-routes through the map.
    fn drain_all(&self) -> Vec<(K, V)> {
        let mut buckets = self.buckets.lock();
        let mut out = Vec::new();
        for (key, bucket) in std::mem::take(&mut buckets.map) {
            let values = match bucket {
                Bucket::Plain(values) => values,
                Bucket::Hot(hot) => hot.seal(),
            };
            out.extend(values.into_iter().map(|v| (key.clone(), v)));
        }
        buckets.empties = 0;
        buckets.hot_keys.clear();
        self.hot_gauge.store(0, Ordering::Release);
        self.len.fetch_sub(out.len(), Ordering::AcqRel);
        out
    }
}

/// The key instance of the remove pass's filter: every step is scoped to
/// one key, and a remove resolves to the bare value.
impl<K: Key, V: Send + 'static, Q: Borrow<K>> RemoveFilter<KeyedSegment<K, V>> for KeyFilter<Q> {
    type Output = V;

    fn take_local(&self, seg: &KeyedSegment<K, V>) -> Option<V> {
        seg.remove_key(self.0.borrow())
    }

    fn steal(&self, victim: &KeyedSegment<K, V>) -> Vec<(K, V)> {
        victim.steal_half_key(self.0.borrow())
    }

    fn holds(&self, seg: &KeyedSegment<K, V>) -> bool {
        seg.key_len(self.0.borrow()) > 0
    }

    /// Claims one full magazine and scans it for the key. Match or not,
    /// the rest goes back to the pass to bank into the home segment (so
    /// `key_len` can see any copies it held and the conservative scoped
    /// drained snapshot makes progress).
    fn raid(&self, depot: &Depot<(K, V)>) -> Option<(Option<(K, V)>, Option<Vec<(K, V)>>)> {
        let mut mag = depot.take_full()?;
        let key = self.0.borrow();
        let hit = mag.iter().rposition(|(k, _)| k == key).map(|at| mag.swap_remove(at));
        if hit.is_some() {
            depot.unstash(1);
        }
        if mag.is_empty() {
            depot.put_shell(mag);
            return Some((hit, None));
        }
        Some((hit, Some(mag)))
    }

    fn take_cached(
        &self,
        mag: &mut MagazineCache<(K, V)>,
        _depot: &Depot<(K, V)>,
    ) -> PopOutcome<(K, V)> {
        let key = self.0.borrow();
        mag.take_matching(|(k, _)| k == key).map_or(PopOutcome::Miss, PopOutcome::Hit)
    }

    fn output((_, value): (K, V)) -> V {
        value
    }
}

/// Configures and builds a [`KeyedPool`] — the keyed counterpart of
/// [`PoolBuilder`].
///
/// Like `PoolBuilder`, the segment count is stated once ([`new`](Self::new))
/// and the cost model is a statically-dispatched type parameter rebound by
/// [`timing`](Self::timing). The keyed pool always searches with
/// [`LinearSearch`] (see the [module docs](self)), so there is no policy
/// choice to configure.
///
/// ```
/// use cpool::{KeyedPool, KeyedPoolBuilder, NullTiming};
///
/// let pool: KeyedPool<&'static str, u32> =
///     KeyedPoolBuilder::new(4).timing(NullTiming::new()).build();
/// assert_eq!(pool.segments(), 4);
/// ```
#[must_use = "a KeyedPoolBuilder does nothing until build() is called"]
pub struct KeyedPoolBuilder<T: Timing = NullTiming> {
    segments: usize,
    resident_buckets_max: usize,
    hotkey: Option<HotKeyConfig>,
    handle_cache: usize,
    timing: T,
}

impl<T: Timing> std::fmt::Debug for KeyedPoolBuilder<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyedPoolBuilder")
            .field("segments", &self.segments)
            .field("resident_buckets_max", &self.resident_buckets_max)
            .field("hotkey", &self.hotkey)
            .field("handle_cache", &self.handle_cache)
            .finish_non_exhaustive()
    }
}

impl KeyedPoolBuilder {
    /// Starts building a keyed pool with `segments` segments, the free
    /// [`NullTiming`] cost model, and hot-key detection at the
    /// [default knobs](HotKeyConfig::default).
    ///
    /// # Panics
    ///
    /// Panics if `segments` is zero.
    pub fn new(segments: usize) -> Self {
        assert!(segments > 0, "pool must have at least one segment");
        KeyedPoolBuilder {
            segments,
            resident_buckets_max: RESIDENT_BUCKETS_MAX,
            hotkey: Some(HotKeyConfig::default()),
            handle_cache: 0,
            timing: NullTiming::new(),
        }
    }
}

impl<T: Timing> KeyedPoolBuilder<T> {
    /// Installs a cost model (defaults to [`NullTiming`]), rebinding the
    /// builder's timing type parameter; pass a
    /// [`DynTiming`](crate::timing::DynTiming) for runtime selection.
    pub fn timing<T2: Timing>(self, timing: T2) -> KeyedPoolBuilder<T2> {
        KeyedPoolBuilder {
            segments: self.segments,
            resident_buckets_max: self.resident_buckets_max,
            hotkey: self.hotkey,
            handle_cache: self.handle_cache,
            timing,
        }
    }

    /// Caps how many *empty* buckets each segment keeps resident for
    /// capacity reuse before evicting the excess (default 64). Raise it
    /// for wide stable key sets (keeps the steal/refill cycle
    /// allocation-free for more keys); lower it for ephemeral-key
    /// workloads where retained capacity is waste. Evictions are counted
    /// in [`PoolCounters::bucket_evictions`](crate::stats::PoolCounters::bucket_evictions).
    pub fn resident_buckets_max(mut self, max: usize) -> Self {
        self.resident_buckets_max = max;
        self
    }

    /// Installs hot-key detection knobs (see [`HotKeyConfig`]); detection
    /// is on by default with [`HotKeyConfig::default`].
    ///
    /// # Panics
    ///
    /// Panics if the knobs are incoherent (e.g. `demote_pct` not strictly
    /// below `promote_pct`).
    pub fn hot_keys(mut self, cfg: HotKeyConfig) -> Self {
        cfg.validate();
        self.hotkey = Some(cfg);
        self
    }

    /// Disables hot-key detection: no sampling, no splits, and the steal
    /// sweep falls back to the plain largest-bucket rule. Manual
    /// [`KeyedPool::promote_key`] still works (using default sub-shards).
    pub fn hot_keys_disabled(mut self) -> Self {
        self.hotkey = None;
        self
    }

    /// Gives every [`KeyedHandle`] a two-magazine element cache of `depth`
    /// `(key, value)` pairs per magazine (default 0 = off), exchanged
    /// through a shared per-pool depot — the keyed counterpart of
    /// [`PoolBuilder::handle_cache`].
    ///
    /// Keyed magazines are *mixed-key*: a cached pair is invisible to
    /// `key_len` and to `try_remove_key` on other handles until it is
    /// flushed, and cached adds skip hot-key sampling. See the README's
    /// "Handle-local caching" section for when not to enable this.
    pub fn handle_cache(mut self, depth: usize) -> Self {
        self.handle_cache = depth;
        self
    }

    /// Builds the keyed pool.
    #[must_use]
    pub fn build<K: Key, V: Send + 'static>(self) -> KeyedPool<K, V, T> {
        let family = KeyedFamily::new(self.segments, self.hotkey);
        let segments = (0..self.segments)
            .map(|_| KeyedSegment::with_family(Arc::clone(&family), self.resident_buckets_max))
            .collect();
        KeyedPool {
            pool: PoolBuilder::new(self.segments)
                .timing(self.timing)
                .handle_cache(self.handle_cache)
                .build_from(segments, LinearSearch::new(self.segments)),
        }
    }
}

/// A concurrent pool of distinguishable elements: a key API over a
/// [`Pool`] of [`KeyedSegment`]s.
///
/// It dereferences to that pool, so the plain pool's accessors —
/// [`segments`](Pool::segments), [`total_len`](Pool::total_len),
/// [`segment_len`](Pool::segment_len), [`depot_len`](Pool::depot_len)
/// (pairs stashed in the magazine depot, excluded from `total_len` and
/// [`key_len`](Self::key_len)), [`is_closed`](Pool::is_closed) — apply
/// unchanged.
///
/// The third type parameter is the statically-dispatched cost model
/// (default: the free [`NullTiming`]); use
/// [`DynTiming`](crate::timing::DynTiming) for runtime selection. See the
/// [module docs](self) for the design. Cloning is cheap and shares the
/// pool.
///
/// ```
/// use cpool::KeyedPool;
///
/// let pool: KeyedPool<&'static str, u32> = KeyedPool::new(4);
/// let mut h = pool.register();
/// h.add("red", 1);
/// h.add("blue", 2);
/// assert_eq!(h.try_remove_key(&"blue"), Ok(2));
/// assert_eq!(h.try_remove_any(), Ok(("red", 1)));
/// ```
pub struct KeyedPool<K: Key, V: Send + 'static, T: Timing = NullTiming> {
    pool: Pool<KeyedSegment<K, V>, LinearSearch, T>,
}

impl<K: Key, V: Send + 'static, T: Timing> Clone for KeyedPool<K, V, T> {
    fn clone(&self) -> Self {
        KeyedPool { pool: self.pool.clone() }
    }
}

impl<K: Key, V: Send + 'static, T: Timing> std::fmt::Debug for KeyedPool<K, V, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyedPool")
            .field("segments", &self.pool.segments())
            .field("registered", &self.pool.gate().registered())
            .finish_non_exhaustive()
    }
}

impl<K: Key, V: Send + 'static, T: Timing> std::ops::Deref for KeyedPool<K, V, T> {
    type Target = Pool<KeyedSegment<K, V>, LinearSearch, T>;

    fn deref(&self) -> &Self::Target {
        &self.pool
    }
}

impl<K: Key, V: Send + 'static> KeyedPool<K, V> {
    /// Creates a keyed pool with `segments` segments and no cost model
    /// (shorthand for [`KeyedPoolBuilder::new(segments).build()`]; use the
    /// builder to install a cost model).
    ///
    /// [`KeyedPoolBuilder::new(segments).build()`]: KeyedPoolBuilder
    ///
    /// # Panics
    ///
    /// Panics if `segments` is zero.
    pub fn new(segments: usize) -> Self {
        KeyedPoolBuilder::new(segments).build()
    }
}

impl<K: Key, V: Send + 'static, T: Timing> KeyedPool<K, V, T> {
    /// Elements of one key across all segments (snapshot).
    pub fn key_len(&self, key: &K) -> usize {
        self.shared.segments.iter().map(|s| s.key_len(key)).sum()
    }

    /// Closes the pool — see [`PoolOps::close`] (sticky, idempotent;
    /// blocked and future removers drain the residue and then observe
    /// [`RemoveError::Closed`]).
    ///
    /// ```
    /// use cpool::{KeyedPool, RemoveError, WaitStrategy};
    ///
    /// let pool: KeyedPool<u8, u32> = KeyedPool::new(2);
    /// let mut h = pool.register();
    /// h.add(1, 10);
    /// pool.close();
    /// assert_eq!(h.remove_key(&1, WaitStrategy::Block), Ok(10), "residue drains first");
    /// assert_eq!(h.remove_key(&1, WaitStrategy::Block), Err(RemoveError::Closed));
    /// ```
    pub fn close(&self) {
        self.pool.close();
    }

    /// Registers a process; the `i`-th registration homes at segment
    /// `i mod segments`.
    pub fn register(&self) -> KeyedHandle<K, V, T> {
        KeyedHandle { handle: self.pool.register(), hot: HotCache::default() }
    }

    /// Splits `key`'s bucket into sub-shards on every segment, regardless
    /// of observed heat — a manual override for workloads that know their
    /// hot set up front (and for deterministic tests/benches). Uses the
    /// configured [`HotKeyConfig::sub_shards`]; idempotent.
    pub fn promote_key(&self, key: &K) {
        for segment in self.shared.segments.iter() {
            segment.promote(key, segment.family.hot_cfg.sub_shards);
        }
    }

    /// Merges `key`'s sub-shards back into plain buckets on every segment
    /// (no-op where the key is not split). Handles still caching the split
    /// bucket fall back to the routed path on their next `key` operation.
    pub fn demote_key(&self, key: &K) {
        for segment in self.shared.segments.iter() {
            segment.demote(key);
        }
    }

    /// Statistics of dropped handles, by process id, plus the pool-wide
    /// keyed-frontend counters (bucket evictions, hot-key promotions and
    /// demotions, and the current split-bucket gauge).
    pub fn stats(&self) -> PoolStats {
        let mut stats = self.pool.stats();
        for segment in self.shared.segments.iter() {
            let (evictions, promotions, demotions, hot) = segment.counters();
            stats.pool.bucket_evictions += evictions;
            stats.pool.hotkey_promotions += promotions;
            stats.pool.hotkey_demotions += demotions;
            stats.pool.hot_buckets += hot;
        }
        stats
    }
}

/// The plain handle a [`KeyedHandle`] wraps.
type Inner<K, V, T> = Handle<KeyedSegment<K, V>, LinearSearch, T>;

/// Per-process handle to a [`KeyedPool`]: a key API over the pool's
/// [`Handle`], plus the handle-local hot-key state.
///
/// It dereferences to that handle, so the plain handle's accessors and
/// lifecycle — [`proc_id`](Handle::proc_id), [`stats`](Handle::stats),
/// [`cached_len`](Handle::cached_len), [`close`](Handle::close) (which
/// flushes this handle's magazines first),
/// [`remove_async`](Handle::remove_async) (a [`KeyedRemoveFuture`]),
/// [`poll_remove`](Handle::poll_remove) — apply unchanged.
///
/// Like [`Handle`]: `Send` but not `Sync`; dropping it deregisters from
/// the livelock gate and deposits statistics.
pub struct KeyedHandle<K: Key, V: Send + 'static, T: Timing = NullTiming> {
    handle: Inner<K, V, T>,
    hot: HotCache<K, V>,
}

impl<K: Key, V: Send + 'static, T: Timing> std::ops::Deref for KeyedHandle<K, V, T> {
    type Target = Inner<K, V, T>;

    fn deref(&self) -> &Self::Target {
        &self.handle
    }
}

impl<K: Key, V: Send + 'static, T: Timing> std::ops::DerefMut for KeyedHandle<K, V, T> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.handle
    }
}

impl<K: Key, V: Send + 'static, T: Timing> std::fmt::Debug for KeyedHandle<K, V, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyedHandle")
            .field("proc", &self.handle.proc_id())
            .field("segment", &self.handle.home_segment())
            .finish_non_exhaustive()
    }
}

/// A keyed handle's hot-key state: the sampling countdowns and the cache
/// of this home segment's split buckets.
struct HotCache<K, V> {
    /// Handle-local cache of this home segment's split buckets: hot-key
    /// operations go straight to a sub-shard lock, bypassing the segment
    /// lock entirely. A flat vector, linearly scanned — it holds a
    /// handful of genuinely hot keys at most, and the scan is the per-op
    /// cost of every keyed operation's fast-path probe. Entries go stale
    /// harmlessly — a sealed sub-shard bounces the operation back to the
    /// routed path, which uncaches.
    entries: Vec<(K, Arc<HotBucket<V>>)>,
    /// `(min, max)` of the cached keys — the one-comparison pre-filter
    /// that spares cold-key operations the cache scan (`None` when the
    /// cache is empty).
    range: Option<(K, K)>,
    /// Countdown to the next sampled operation (see
    /// [`HotKeyConfig::sample_every`]); handle-local, so the unsampled
    /// path touches no shared state.
    sample_tick: u32,
    /// Countdown (in samples) to the next hysteresis sweep. The sweep
    /// costs a segment-lock plus a detector probe per split bucket, so it
    /// runs on one sample in [`SWEEP_EVERY_SAMPLES`] — decay only needs
    /// to be eventual, not immediate.
    sweep_tick: u32,
}

impl<K, V> Default for HotCache<K, V> {
    fn default() -> Self {
        HotCache { entries: Vec::new(), range: None, sample_tick: 0, sweep_tick: 0 }
    }
}

impl<K: Key, V: Send + 'static> HotCache<K, V> {
    /// Feeds one in [`HotKeyConfig::sample_every`] operations on `key`
    /// into the pool's hot-key detector; on a promote-threshold crossing
    /// splits the key's bucket on the home segment (each handle promotes
    /// lazily for its own segment — other segments split when their own
    /// traffic samples the key), and sweeps cooled-off split buckets back
    /// to plain. No-op (one branch, one decrement) off the sample tick or
    /// with detection disabled.
    fn maybe_sample(&mut self, segment: &KeyedSegment<K, V>, key: &K) {
        let Some(detector) = &segment.family.detector else { return };
        self.sample_tick += 1;
        if self.sample_tick < detector.cfg().sample_every {
            return;
        }
        self.sample_tick = 0;
        let count = detector.observe(key.clone());
        if count >= detector.cfg().promote_count() {
            // Splitting is idempotent but not free (segment lock + cache
            // refresh); a steadily hot key re-crosses the threshold on
            // every sample, so skip once this handle already holds the
            // split bucket.
            if self.get(key).is_none() {
                let hot = segment.promote(key, detector.cfg().sub_shards);
                self.insert(key.clone(), hot);
            }
        } else if count >= detector.cfg().demote_count() && self.get(key).is_none() {
            // Another handle may have split this bucket already (each
            // handle's window samples are shared); adopt the split so this
            // handle's traffic also takes the sub-shard fast path.
            if let Some(hot) = segment.hot_bucket(key) {
                self.insert(key.clone(), hot);
            }
        }
        // Hysteresis sweep: merge back every split bucket whose key fell
        // below the demote threshold (strictly under the promote one, so a
        // key hovering at one level cannot thrash). Throttled to one
        // sample in SWEEP_EVERY_SAMPLES — decay is eventual by design.
        self.sweep_tick += 1;
        if self.sweep_tick >= SWEEP_EVERY_SAMPLES {
            self.sweep_tick = 0;
            let demote_count = detector.cfg().demote_count();
            segment.demote_cold(&|k| detector.count(k) < demote_count);
        }
    }

    /// The cached split bucket for `key`, if this handle has adopted one.
    /// The key-range pre-filter rejects most cold keys in one comparison
    /// before the (short) linear scan — this probe is on every keyed
    /// operation's path, hot or not.
    fn get(&self, key: &K) -> Option<&Arc<HotBucket<V>>> {
        match &self.range {
            Some((lo, hi)) if key >= lo && key <= hi => {
                self.entries.iter().find(|(k, _)| k == key).map(|(_, hot)| hot)
            }
            _ => None,
        }
    }

    /// Recomputes the cache's key-range pre-filter after a mutation.
    fn refresh_range(&mut self) {
        self.range = match (
            self.entries.iter().map(|(k, _)| k).min(),
            self.entries.iter().map(|(k, _)| k).max(),
        ) {
            (Some(lo), Some(hi)) => Some((lo.clone(), hi.clone())),
            _ => None,
        };
    }

    /// Drops a stale cache entry (the bucket was demoted behind us).
    fn remove(&mut self, key: &K) {
        self.entries.retain(|(k, _)| k != key);
        self.refresh_range();
    }

    /// Caches a split bucket for the segment-lock-free fast path. The
    /// cache is a small bounded vector; at the bound it is cleared rather
    /// than evicted piecewise — by construction only genuinely hot keys
    /// land here, so refill is cheap and rare.
    fn insert(&mut self, key: K, hot: Arc<HotBucket<V>>) {
        if let Some(slot) = self.entries.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = hot;
            return;
        }
        if self.entries.len() >= HOT_CACHE_MAX {
            self.entries.clear();
        }
        self.entries.push((key, hot));
        self.refresh_range();
    }

    /// The keyed add's segment placement: samples the key, then pushes a
    /// cached hot key under one sub-shard lock (the process slot as
    /// sub-shard affinity: concurrent handles spread across distinct
    /// shards, and this handle's pops probe the same shard first), and
    /// routes everything else through the segment.
    fn place(&mut self, segment: &KeyedSegment<K, V>, me: ProcId, (key, mut value): (K, V)) {
        self.maybe_sample(segment, &key);
        if let Some(hot) = self.get(&key) {
            match segment.hot_push(hot, value, me.index()) {
                Ok(()) => return,
                Err(v) => {
                    // Sealed: the bucket was demoted; drop the stale cache
                    // entry and take the routed path.
                    self.remove(&key);
                    value = v;
                }
            }
        }
        segment.add((key, value));
    }

    /// The keyed remove's fast path: a cached split bucket serves the
    /// remove under one sub-shard lock, never touching the segment lock.
    /// An empty or sealed result falls through to the full pass (which can
    /// steal the key from remote segments) under the same operation timer,
    /// which the caller started and finishes.
    fn pop<T: Timing>(&mut self, h: &Inner<K, V, T>, key: &K) -> Option<V> {
        let hot = self.get(key)?;
        h.shared.timing.charge(h.me, Resource::Segment(h.seg));
        match h.shared.segments[h.seg.index()].hot_pop(hot, h.me.index()) {
            HotPop::Got(value) => Some(value),
            HotPop::Sealed => {
                self.remove(key);
                None
            }
            HotPop::Empty => None,
        }
    }
}

impl<K: Key, V: Send + 'static, T: Timing> KeyedHandle<K, V, T> {
    /// Adds an element under `key` — [`Handle::add`] of the pair, whose
    /// segment placement samples the key for the hot-key detector and
    /// sends a cached hot key straight to its split bucket, bypassing the
    /// segment lock. Consumers parked in a [`Block`](WaitStrategy::Block)
    /// remove wake on the add edge.
    pub fn add(&mut self, key: K, value: V) {
        let hot = &mut self.hot;
        self.handle.add_with((key, value), |segment, me, pair| hot.place(segment, me, pair));
    }

    /// Removes an arbitrary element, stealing half of a remote bucket when
    /// the local segment is empty.
    ///
    /// # Errors
    ///
    /// Returns [`RemoveError::Aborted`] when every registered process was
    /// searching simultaneously (the pool is starving), or
    /// [`RemoveError::Closed`] when additionally the pool is closed and
    /// drained.
    pub fn try_remove_any(&mut self) -> Result<(K, V), RemoveError> {
        self.handle.try_remove()
    }

    /// Removes an element with the given key, stealing half of a remote
    /// `key` bucket when the local one is empty.
    ///
    /// # Errors
    ///
    /// Returns [`RemoveError::Aborted`] when every registered process was
    /// searching simultaneously (no element of `key` is reachable and
    /// nobody can be adding one), or [`RemoveError::Closed`] when the pool
    /// is closed and holds no element of `key` anywhere.
    pub fn try_remove_key(&mut self, key: &K) -> Result<V, RemoveError> {
        let hot = &mut self.hot;
        self.handle.try_remove_filtered(&KeyFilter(key), 0, None, |h| hot.pop(h, key))
    }

    /// Removes an element with the given key, waiting under `wait` — the
    /// keyed analogue of [`PoolOps::remove`], with the drained check (and,
    /// for [`Block`](WaitStrategy::Block), the wakeup filter) scoped to
    /// `key`: other keys' elements cannot satisfy this remove, so they do
    /// not keep it waiting or wake it.
    ///
    /// # Errors
    ///
    /// Returns [`RemoveError::Closed`] once the pool is closed and the
    /// `key` residue is drained; [`RemoveError::Aborted`] once an aborted
    /// search observes no element of `key` anywhere, or when the strategy's
    /// [lap budget](WaitStrategy::default_attempts) is exhausted.
    pub fn remove_key(&mut self, key: &K, wait: WaitStrategy) -> Result<V, RemoveError> {
        self.remove_key_bounded(key, wait, wait.default_attempts(), None)
    }

    /// Removes an element with the given key, parking
    /// ([`Block`](WaitStrategy::Block)) for at most `timeout`.
    ///
    /// # Errors
    ///
    /// [`RemoveError::Timeout`] when the deadline passes first; otherwise
    /// as [`remove_key`](Self::remove_key).
    pub fn remove_key_timeout(&mut self, key: &K, timeout: Duration) -> Result<V, RemoveError> {
        self.remove_key_bounded(
            key,
            WaitStrategy::Block,
            usize::MAX,
            Some(Instant::now() + timeout),
        )
    }

    /// The keyed blocking-remove primitive — see
    /// [`PoolOps::remove_bounded`] for the contract.
    ///
    /// # Panics
    ///
    /// Panics if `attempts` is zero.
    pub fn remove_key_bounded(
        &mut self,
        key: &K,
        wait: WaitStrategy,
        attempts: usize,
        deadline: Option<Instant>,
    ) -> Result<V, RemoveError> {
        let hot = &mut self.hot;
        self.handle
            .remove_bounded_filtered(&KeyFilter(key), wait, attempts, deadline, |h| hot.pop(h, key))
    }

    /// Returns a future resolving to a value under `key` — the async
    /// counterpart of [`remove_key`](Self::remove_key) with
    /// [`Block`](WaitStrategy::Block): while no element of `key` is
    /// reachable the future is pending, and other keys' traffic wakes it
    /// only to re-check and re-register.
    pub fn remove_key_async(&self, key: K) -> RemoveKeyFuture<K, V, T> {
        self.handle.remove_async_filtered(KeyFilter(key), None)
    }

    /// [`remove_key_async`](Self::remove_key_async) with a deadline: past
    /// `timeout` the future resolves with [`RemoveError::Timeout`].
    pub fn remove_key_timeout_async(&self, key: K, timeout: Duration) -> RemoveKeyFuture<K, V, T> {
        self.handle.remove_async_filtered(KeyFilter(key), Some(Instant::now() + timeout))
    }
}

/// The unified operation vocabulary over `(key, value)` pairs — see
/// [`ops`](crate::ops). Every method but `add` is the wrapped
/// [`Handle`]'s own.
///
/// [`try_remove`](PoolOps::try_remove) maps to
/// [`try_remove_any`](KeyedHandle::try_remove_any). Note that the inherent
/// two-argument [`add`](KeyedHandle::add) shadows the trait's pair-taking
/// `add` for direct calls — the trait surface is for generic consumers.
impl<K: Key, V: Send + 'static, T: Timing> PoolOps for KeyedHandle<K, V, T> {
    type Item = (K, V);
    type RemoveFuture = KeyedRemoveFuture<K, V, T>;

    fn add(&mut self, (key, value): (K, V)) {
        KeyedHandle::add(self, key, value);
    }

    fn remove_async(&self) -> KeyedRemoveFuture<K, V, T> {
        self.handle.remove_async()
    }

    fn remove_timeout_async(&self, timeout: Duration) -> KeyedRemoveFuture<K, V, T> {
        self.handle.remove_timeout_async(timeout)
    }

    fn try_remove(&mut self) -> Result<(K, V), RemoveError> {
        self.handle.try_remove()
    }

    fn is_drained(&self) -> bool {
        self.handle.is_drained()
    }

    fn close(&self) {
        self.handle.close();
    }

    fn is_closed(&self) -> bool {
        self.handle.is_closed()
    }

    fn remove_bounded(
        &mut self,
        wait: WaitStrategy,
        attempts: usize,
        deadline: Option<Instant>,
    ) -> Result<(K, V), RemoveError> {
        self.handle.remove_bounded(wait, attempts, deadline)
    }

    fn add_batch<I: IntoIterator<Item = (K, V)>>(&mut self, items: I) {
        self.handle.add_batch(items);
    }

    fn try_remove_batch(&mut self, n: usize) -> SmallDrain<(K, V)> {
        self.handle.try_remove_batch(n)
    }

    fn drain(&mut self) -> SmallDrain<(K, V)> {
        self.handle.drain()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn local_keyed_roundtrip() {
        let pool: KeyedPool<u8, u32> = KeyedPool::new(4);
        let mut h = pool.register();
        h.add(1, 10);
        h.add(2, 20);
        h.add(1, 11);
        assert_eq!(pool.total_len(), 3);
        assert_eq!(pool.key_len(&1), 2);
        assert_eq!(h.try_remove_key(&2), Ok(20));
        assert!(matches!(h.try_remove_key(&1), Ok(10 | 11)));
        assert_eq!(pool.total_len(), 1);
    }

    #[test]
    fn missing_key_aborts_for_lone_process() {
        let pool: KeyedPool<u8, u32> = KeyedPool::new(4);
        let mut h = pool.register();
        h.add(1, 10);
        assert_eq!(h.try_remove_key(&9), Err(RemoveError::Aborted));
        assert_eq!(h.stats().aborted_removes, 1);
        assert_eq!(pool.total_len(), 1, "other keys untouched");
    }

    #[test]
    fn keyed_steal_takes_half_the_bucket() {
        let pool: KeyedPool<&'static str, u32> = KeyedPool::new(2);
        let mut a = pool.register(); // home 0
        let mut b = pool.register(); // home 1
        for i in 0..10 {
            b.add("x", i);
            b.add("y", i + 100);
        }
        // a steals from b's "x" bucket only: ceil(10/2) = 5.
        assert!(a.try_remove_key(&"x").is_ok());
        assert_eq!(a.stats().steals, 1);
        assert_eq!(a.stats().elements_stolen, 5);
        assert_eq!(pool.segment_len(SegIdx::new(0)), 4, "kept 4 of the 5 stolen");
        assert_eq!(pool.key_len(&"y"), 10, "the other bucket was not touched");
        // Next "x" removes are local.
        assert!(a.try_remove_key(&"x").is_ok());
        assert_eq!(a.stats().steals, 1);
    }

    #[test]
    fn remove_any_steals_largest_bucket() {
        let pool: KeyedPool<u8, u32> = KeyedPool::new(2);
        let mut a = pool.register();
        let mut b = pool.register();
        for i in 0..3 {
            b.add(1, i);
        }
        for i in 0..9 {
            b.add(2, i);
        }
        let (key, _) = a.try_remove_any().expect("elements exist");
        assert_eq!(key, 2, "the largest bucket is the steal victim");
        assert_eq!(a.stats().elements_stolen, 5, "ceil(9/2)");
    }

    #[test]
    fn keyed_conservation_under_concurrency() {
        let n = 4;
        let per = 500;
        let pool: KeyedPool<usize, u64> = KeyedPool::new(n);
        thread::scope(|s| {
            for w in 0..n {
                let mut h = pool.register();
                s.spawn(move || {
                    // Each worker adds under its own key then consumes its
                    // key back — all steals are keyed.
                    for i in 0..per {
                        h.add(w, i as u64);
                    }
                    let mut got = 0;
                    while got < per {
                        match h.try_remove_key(&w) {
                            Ok(_) => got += 1,
                            Err(_) => thread::yield_now(),
                        }
                    }
                });
            }
        });
        assert_eq!(pool.total_len(), 0);
        let merged = pool.stats().merged();
        assert_eq!(merged.adds, (n * per) as u64);
        assert_eq!(merged.removes, (n * per) as u64);
    }

    #[test]
    fn cross_key_consumers_drain_producers() {
        // Producers add under two keys; consumers each insist on one key.
        let pool: KeyedPool<&'static str, u64> = KeyedPool::new(4);
        let total = 400;
        thread::scope(|s| {
            let mut p = pool.register();
            s.spawn(move || {
                for i in 0..total {
                    p.add(if i % 2 == 0 { "even" } else { "odd" }, i);
                }
            });
            for key in ["even", "odd"] {
                let mut c = pool.register();
                s.spawn(move || {
                    let mut got = 0;
                    while got < total / 2 {
                        match c.try_remove_key(&key) {
                            Ok(v) => {
                                assert_eq!(v % 2 == 0, key == "even", "keys never cross");
                                got += 1;
                            }
                            Err(_) => thread::yield_now(),
                        }
                    }
                });
            }
            let _spare = pool.register(); // a fourth, idle-ish participant
        });
        assert_eq!(pool.total_len(), 0);
    }

    #[test]
    fn ephemeral_keys_do_not_accumulate_resident_buckets() {
        // One key per "task": beyond the residency bound, drained buckets
        // are evicted, so removes keep finding live work in bounded time
        // instead of scanning an ever-growing prefix of empties.
        let pool: KeyedPool<u32, u32> = KeyedPool::new(1);
        let mut h = pool.register();
        for key in 0..10 * RESIDENT_BUCKETS_MAX as u32 {
            h.add(key, key);
            assert_eq!(h.try_remove_key(&key), Ok(key));
        }
        let resident = pool.pool.shared.segments[0].buckets.lock().map.len();
        assert!(
            resident <= RESIDENT_BUCKETS_MAX + 1,
            "drained ephemeral buckets must be evicted, found {resident} resident"
        );
        // The pool still works normally afterwards.
        h.add(7, 77);
        assert_eq!(h.try_remove_any(), Ok((7, 77)));
    }

    #[test]
    fn live_buckets_do_not_count_against_the_residency_bound() {
        // The bound is on *empty* resident buckets only: with enough
        // permanently-live keys to push the total bucket count past the
        // bound, hot keys whose buckets empty briefly between cycles must
        // still stay resident (evicting them would re-allocate a bucket
        // and a map node on every cycle).
        let pool: KeyedPool<u32, u32> = KeyedPool::new(1);
        let mut h = pool.register();
        let pinned = RESIDENT_BUCKETS_MAX as u32; // live the whole test
        let hot = RESIDENT_BUCKETS_MAX as u32 / 2;
        for key in 0..pinned {
            h.add(key, 1);
        }
        for round in 0..3 {
            for key in pinned..pinned + hot {
                h.add(key, round);
                assert_eq!(h.try_remove_key(&key), Ok(round));
            }
        }
        let resident = pool.pool.shared.segments[0].buckets.lock().map.len();
        assert_eq!(
            resident as u32,
            pinned + hot,
            "hot-key buckets stay resident beside {pinned} live ones"
        );
    }

    #[test]
    fn remove_any_prefers_local() {
        let pool: KeyedPool<u8, u32> = KeyedPool::new(2);
        let mut a = pool.register();
        let mut b = pool.register();
        a.add(7, 1);
        b.add(8, 2);
        let (k, _) = a.try_remove_any().unwrap();
        assert_eq!(k, 7, "local element preferred");
        assert_eq!(a.stats().steals, 0);
    }

    #[test]
    fn stats_deposited_on_drop() {
        let pool: KeyedPool<u8, u32> = KeyedPool::new(2);
        {
            let mut h = pool.register();
            h.add(1, 1);
            let _ = h.try_remove_any();
        }
        let stats = pool.stats();
        assert_eq!(stats.per_proc.len(), 1);
        assert_eq!(stats.merged().removes, 1);
    }

    #[test]
    #[should_panic(expected = "at least one segment")]
    fn zero_segments_panics() {
        let _: KeyedPool<u8, u8> = KeyedPool::new(0);
    }

    #[test]
    fn builder_builds_with_timing() {
        let pool: KeyedPool<u8, u32> = KeyedPoolBuilder::new(3).timing(NullTiming::new()).build();
        assert_eq!(pool.segments(), 3);
        let mut h = pool.register();
        h.add(1, 7);
        assert_eq!(h.try_remove_key(&1), Ok(7));
    }

    #[test]
    fn batch_ops_move_pairs_in_bulk() {
        let pool: KeyedPool<u8, u32> = KeyedPool::new(2);
        let mut h = pool.register();
        h.add_batch([(1, 10), (2, 20), (1, 11)]);
        assert_eq!(pool.total_len(), 3);
        assert_eq!(pool.key_len(&1), 2);
        assert_eq!(h.stats().adds, 3);
        assert_eq!(h.stats().add_hist.count(), 1, "one batch, one latency sample");
        let batch = h.try_remove_batch(2);
        assert_eq!(batch.len(), 2);
        assert_eq!(pool.total_len(), 1);
        let rest: Vec<(u8, u32)> = h.drain().into_vec();
        assert_eq!(rest.len(), 1);
        assert_eq!(pool.total_len(), 0);
        assert_eq!(h.stats().removes, 3);
    }

    #[test]
    fn batch_remove_steals_when_local_is_empty() {
        let pool: KeyedPool<u8, u32> = KeyedPool::new(2);
        let mut thief = pool.register(); // home 0
        let mut victim = pool.register(); // home 1
        victim.add_batch((0..12u32).map(|i| (1u8, i)));
        // The any-key steal takes ceil(12/2) = 6 of the bucket; the batch
        // asks for 4 of them.
        let batch = thief.try_remove_batch(4);
        assert_eq!(batch.len(), 4);
        assert_eq!(thief.stats().steals, 1);
        assert_eq!(thief.stats().elements_stolen, 6);
        assert_eq!(pool.total_len(), 8);
    }

    #[test]
    fn blocking_remove_key_gives_up_only_when_key_is_exhausted() {
        let pool: KeyedPool<u8, u32> = KeyedPool::new(4);
        let mut h = pool.register();
        h.add(1, 10);
        assert_eq!(h.remove_key(&1, WaitStrategy::Spin), Ok(10));
        // Key 9 is absent while key 1's residue... is also gone; an absent
        // key aborts terminally instead of burning the whole budget.
        h.add(1, 11);
        assert_eq!(h.remove_key(&9, WaitStrategy::Spin), Err(RemoveError::Aborted));
        assert_eq!(h.stats().aborted_removes, 1, "one attempt, not the full budget");
        assert_eq!(pool.total_len(), 1, "other keys untouched");
    }

    #[test]
    fn remove_key_blocks_until_the_right_key_arrives() {
        let pool: KeyedPool<u8, u32> = KeyedPool::new(2);
        thread::scope(|s| {
            let mut producer = pool.register();
            let mut consumer = pool.register();
            s.spawn(move || {
                // The wrong key first: it must not satisfy (or unpark-loop
                // confuse) the keyed waiter, which re-parks on wrong-key
                // traffic.
                producer.add(2, 200);
                thread::sleep(std::time::Duration::from_millis(2));
                producer.add(1, 100);
            });
            s.spawn(move || {
                assert_eq!(consumer.remove_key(&1, WaitStrategy::Block), Ok(100));
            });
        });
        assert_eq!(pool.key_len(&2), 1, "the other key's element is untouched");
    }

    #[test]
    fn keyed_close_wakes_blocked_removers_with_closed() {
        let pool: KeyedPool<u8, u32> = KeyedPool::new(2);
        thread::scope(|s| {
            let mut producer = pool.register();
            let mut consumer = pool.register();
            s.spawn(move || {
                producer.add(1, 10);
                producer.close();
            });
            s.spawn(move || {
                let mut got = 0;
                let err = loop {
                    match consumer.remove_key(&1, WaitStrategy::Block) {
                        Ok(_) => got += 1,
                        Err(err) => break err,
                    }
                };
                assert_eq!(got, 1, "pre-close residue delivered first");
                assert_eq!(err, RemoveError::Closed);
            });
        });
        assert!(pool.is_closed());
    }

    #[test]
    fn remove_key_timeout_expires_while_other_keys_flow() {
        let pool: KeyedPool<u8, u32> = KeyedPool::new(2);
        let mut h = pool.register();
        let _idle = pool.register(); // keeps the gate from firing
        h.add(2, 20);
        let t0 = std::time::Instant::now();
        assert_eq!(
            h.remove_key_timeout(&1, std::time::Duration::from_millis(15)),
            Err(RemoveError::Timeout)
        );
        assert!(t0.elapsed() >= std::time::Duration::from_millis(15));
        assert_eq!(pool.key_len(&2), 1, "waiting for key 1 never consumed key 2");
    }

    #[test]
    fn blocking_any_remove_on_closed_drained_pool() {
        let pool: KeyedPool<u8, u32> = KeyedPool::new(2);
        let mut h = pool.register();
        h.add(3, 30);
        pool.close();
        assert_eq!(h.remove(WaitStrategy::Block), Ok((3, 30)), "drain before Closed");
        assert_eq!(h.remove(WaitStrategy::Block), Err(RemoveError::Closed));
        assert_eq!(h.try_remove_any(), Err(RemoveError::Closed));
    }

    #[test]
    fn pool_ops_vocabulary_is_generic_over_frontends() {
        // The same generic driver runs against the keyed handle.
        fn roundtrip<H: PoolOps>(h: &mut H, items: Vec<H::Item>) -> usize {
            let n = items.len();
            h.add_batch(items);
            let mut got = 0;
            while got < n {
                if h.remove(WaitStrategy::Spin).is_ok() {
                    got += 1;
                }
            }
            got
        }
        let pool: KeyedPool<u8, u32> = KeyedPool::new(2);
        let mut h = pool.register();
        let items: Vec<(u8, u32)> = (0..20).map(|i| (i as u8 % 3, i)).collect();
        assert_eq!(roundtrip(&mut h, items), 20);
        assert_eq!(pool.total_len(), 0);
    }

    #[test]
    fn manual_promote_demote_conserves_the_multiset() {
        let pool: KeyedPool<u8, u32> = KeyedPool::new(1);
        let mut h = pool.register();
        for v in 0..10 {
            h.add(5, v);
        }
        pool.promote_key(&5);
        assert_eq!(pool.key_len(&5), 10, "splitting moves, never drops");
        assert_eq!(pool.stats().pool.hot_buckets, 1);
        // Adds and removes keep flowing through the split bucket.
        for v in 10..20 {
            h.add(5, v);
        }
        assert_eq!(pool.key_len(&5), 20);
        pool.demote_key(&5);
        assert_eq!(pool.stats().pool.hot_buckets, 0);
        assert_eq!(pool.key_len(&5), 20, "merging moves, never drops");
        let mut got = std::collections::BTreeSet::new();
        for _ in 0..20 {
            got.insert(h.try_remove_key(&5).expect("all 20 still present"));
        }
        assert_eq!(got, (0..20).collect());
        let stats = pool.stats();
        assert_eq!(stats.pool.hotkey_promotions, 1);
        assert_eq!(stats.pool.hotkey_demotions, 1);
    }

    #[test]
    fn sampling_promotes_hot_keys_and_demotes_cooled_ones() {
        let pool: KeyedPool<u8, u32> = KeyedPoolBuilder::new(1)
            .hot_keys(HotKeyConfig {
                sample_every: 1,
                window: 8,
                sub_shards: 4,
                promote_pct: 50,
                demote_pct: 20,
            })
            .build();
        let mut h = pool.register();
        for v in 0..16 {
            h.add(7, v);
        }
        assert!(pool.stats().pool.hotkey_promotions >= 1, "a dominant key splits its bucket");
        assert_eq!(pool.stats().pool.hot_buckets, 1);
        assert_eq!(pool.key_len(&7), 16, "split under live adds loses nothing");
        // Traffic moves on: the window forgets key 7 and a later sampled
        // op's hysteresis sweep merges the bucket back.
        for key in 0..16u8 {
            h.add(100 + key, 0);
        }
        assert_eq!(pool.stats().pool.hot_buckets, 0, "cooled key demoted");
        assert!(pool.stats().pool.hotkey_demotions >= 1);
        assert_eq!(pool.key_len(&7), 16, "demotion under other traffic loses nothing");
        let mut got = std::collections::BTreeSet::new();
        for _ in 0..16 {
            got.insert(h.try_remove_key(&7).expect("all of key 7 present"));
        }
        assert_eq!(got, (0..16).collect());
    }

    #[test]
    fn uniform_traffic_never_promotes() {
        // Default knobs: promotion needs ~8% of a 256-sample window on one
        // key; 100 keys in round-robin peak at 1%.
        let pool: KeyedPool<u32, u32> = KeyedPool::new(2);
        let mut h = pool.register();
        for i in 0..2_000u32 {
            h.add(i % 100, i);
        }
        for _ in 0..2_000 {
            let _ = h.try_remove_any();
        }
        let stats = pool.stats();
        assert_eq!(stats.pool.hotkey_promotions, 0, "no skew, no splits");
        assert_eq!(stats.pool.hot_buckets, 0);
    }

    #[test]
    fn heat_weighted_steal_prefers_the_hot_bucket() {
        // Without heat, the steal sweep picks the largest bucket (see
        // remove_any_steals_largest_bucket). Here the *smaller* bucket is
        // hot: score = len·(1 + 4·heat) must rank 6 hot over 20 cold.
        let pool: KeyedPool<u8, u32> = KeyedPoolBuilder::new(2)
            .hot_keys(HotKeyConfig {
                sample_every: 1,
                window: 64,
                sub_shards: 2,
                promote_pct: 100, // never split: isolates the victim ranking
                demote_pct: 1,
            })
            .build();
        let mut thief = pool.register(); // home 0
        let mut victim = pool.register(); // home 1
                                          // The cold bulk arrives via a batch (batches are not sampled), so
                                          // the window sees only key-2 traffic.
        victim.add_batch((0..20u32).map(|v| (1u8, v)));
        for v in 0..6 {
            victim.add(2, v + 100);
        }
        // Only adds feed the window (producer-side sampling), so the heat
        // comes from the add half of each pair: 6 + 40 key-2 samples in a
        // 64-sample window → heat ≈ 0.72 → score 6·(1 + 4·0.72) ≈ 23 > 20.
        for _ in 0..40 {
            victim.add(2, 999);
            let _ = victim.try_remove_key(&2);
        }
        assert_eq!(pool.key_len(&2), 6);
        let (key, _) = thief.try_remove_any().expect("elements exist");
        assert_eq!(key, 2, "heat outweighs raw occupancy");
        assert_eq!(thief.stats().elements_stolen, 3, "ceil(6/2) of the hot bucket");
        assert_eq!(pool.key_len(&1), 20, "the cold bucket was not touched");
    }

    #[test]
    fn resident_buckets_knob_bounds_empties_and_counts_evictions() {
        let bound = 4;
        let pool: KeyedPool<u32, u32> =
            KeyedPoolBuilder::new(1).resident_buckets_max(bound).build();
        let mut h = pool.register();
        for key in 0..100 {
            h.add(key, key);
            assert_eq!(h.try_remove_key(&key), Ok(key));
        }
        let resident = pool.pool.shared.segments[0].buckets.lock().map.len();
        assert!(resident <= bound + 1, "bound {bound} not honored: {resident} resident");
        let stats = pool.stats();
        assert!(
            stats.pool.bucket_evictions >= (100 - bound - 1) as u64,
            "evictions counted, got {}",
            stats.pool.bucket_evictions
        );
    }

    #[test]
    fn close_wakes_blocked_removers_across_a_split() {
        // The close()/timeout contract must survive a bucket split: parked
        // keyed removers drain a split bucket's residue, then see Closed.
        let pool: KeyedPool<u8, u32> = KeyedPool::new(2);
        pool.promote_key(&1);
        thread::scope(|s| {
            let mut producer = pool.register();
            let mut consumer = pool.register();
            s.spawn(move || {
                producer.add(1, 10);
                producer.close();
            });
            s.spawn(move || {
                let mut got = 0;
                let err = loop {
                    match consumer.remove_key(&1, WaitStrategy::Block) {
                        Ok(_) => got += 1,
                        Err(err) => break err,
                    }
                };
                assert_eq!(got, 1, "split-bucket residue delivered before Closed");
                assert_eq!(err, RemoveError::Closed);
            });
        });
    }

    #[test]
    fn remove_key_timeout_expires_across_a_split() {
        let pool: KeyedPool<u8, u32> = KeyedPool::new(2);
        pool.promote_key(&2);
        let mut h = pool.register();
        let _idle = pool.register(); // keeps the gate from firing
        h.add(2, 20);
        let t0 = std::time::Instant::now();
        assert_eq!(
            h.remove_key_timeout(&1, std::time::Duration::from_millis(15)),
            Err(RemoveError::Timeout)
        );
        assert!(t0.elapsed() >= std::time::Duration::from_millis(15));
        assert_eq!(pool.key_len(&2), 1, "the split bucket's element is untouched");
    }

    #[test]
    fn stale_hot_cache_falls_back_after_demotion() {
        let pool: KeyedPool<u8, u32> = KeyedPoolBuilder::new(1)
            .hot_keys(HotKeyConfig {
                sample_every: 1,
                window: 8,
                sub_shards: 2,
                promote_pct: 50,
                demote_pct: 20,
            })
            .build();
        let mut h = pool.register();
        for v in 0..8 {
            h.add(3, v);
        }
        assert_eq!(pool.stats().pool.hot_buckets, 1);
        // Demote behind the handle's back: its cached split bucket is now
        // sealed, so the next ops must bounce to the routed path and still
        // land correctly.
        pool.demote_key(&3);
        let mut h2 = pool.register();
        h2.add(3, 100);
        assert_eq!(pool.key_len(&3), 9);
        let mut got = std::collections::BTreeSet::new();
        for _ in 0..9 {
            got.insert(h2.try_remove_key(&3).expect("all present"));
        }
        assert_eq!(got, (0..8).chain([100]).collect());
    }
}
