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
//! A bucket is a plain vector under the segment lock. The concurrent-pool
//! locality story carries over per key:
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

use std::borrow::Borrow;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, MutexGuard};

use crate::core::{KeyFilter, RemoveFilter};
use crate::error::RemoveError;
use crate::future::{KeyedRemoveFuture, RemoveKeyFuture};
#[cfg(test)]
use crate::ids::SegIdx;
use crate::magazine::{Depot, MagazineCache, PopOutcome};
use crate::ops::{PoolOps, SmallDrain, WaitStrategy};
use crate::pool::{Handle, Pool, PoolBuilder};
use crate::search::LinearSearch;
use crate::segment::{steal_count, Segment};
use crate::stats::PoolStats;
use crate::timing::{NullTiming, Timing};
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

/// The bucket map plus an exact count of its resident *empty* buckets,
/// kept in lockstep so the residency policy never has to scan, and the
/// eviction counter the pool reports in [`PoolCounters`](crate::stats::PoolCounters).
struct Buckets<K, V> {
    map: BTreeMap<K, Vec<V>>,
    empties: usize,
    resident_max: usize,
    evictions: u64,
}

impl<K: Key, V> Buckets<K, V> {
    /// The bucket for `key`: created if absent, a resident empty brought
    /// back into use.
    fn bucket_for(&mut self, key: K) -> &mut Vec<V> {
        match self.map.entry(key) {
            Entry::Vacant(entry) => entry.insert(Vec::new()),
            Entry::Occupied(entry) => {
                let bucket = entry.into_mut();
                if bucket.is_empty() {
                    self.empties -= 1;
                }
                bucket
            }
        }
    }

    /// The residency policy in one place: a bucket that an operation just
    /// emptied stays resident (capacity + map node reuse) unless the
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
}

/// Pool-wide cache of spare transfer vectors: steals fill a recycled
/// shell, refills return it (see [`transfer`](crate::transfer)).
type Shells<K, V> = Arc<FreeList<Vec<(K, V)>>>;

/// The transfer-shell cache for a pool of `segments` keyed segments: at
/// most [`CACHED_SHELLS_PER_SEGMENT`] retained per segment.
fn shells_for<K, V>(segments: usize) -> Shells<K, V> {
    Arc::new(FreeList::new(CACHED_SHELLS_PER_SEGMENT * segments.max(1) + 2))
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
/// ⌈b/2⌉ of the largest bucket `b` (ties: smallest key), and
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
///
/// Aligned to a cache line: a pool's segments sit adjacent in one slice,
/// and every keyed add and remove writes its segment's lock and length
/// mirror, so two segments sharing a line would make threads on
/// different segments invalidate each other's lines on every operation.
#[repr(align(64))]
pub struct KeyedSegment<K, V> {
    buckets: Mutex<Buckets<K, V>>,
    len: AtomicUsize,
    shells: Shells<K, V>,
}

impl<K, V> std::fmt::Debug for KeyedSegment<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyedSegment")
            .field("len", &self.len.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl<K: Key, V: Send + 'static> KeyedSegment<K, V> {
    fn with_shells(shells: Shells<K, V>, resident_max: usize) -> Self {
        KeyedSegment {
            buckets: Mutex::new(Buckets {
                map: BTreeMap::new(),
                empties: 0,
                resident_max,
                evictions: 0,
            }),
            len: AtomicUsize::new(0),
            shells,
        }
    }

    /// Elements of one key in this segment (snapshot; takes the segment
    /// lock).
    pub fn key_len(&self, key: &K) -> usize {
        self.buckets.lock().map.get(key).map_or(0, Vec::len)
    }

    /// An empty transfer vector for a steal of about `n` elements: a
    /// recycled shell for bulk steals, while tiny ones take the
    /// allocator's small-size fast path instead of a free-list round trip.
    fn transfer_shell(&self, n: usize) -> Vec<(K, V)> {
        if n < SHELL_SPILL_MIN {
            Vec::with_capacity(n)
        } else {
            self.shells.take().unwrap_or_default()
        }
    }

    fn remove_key(&self, key: &K) -> Option<V> {
        let mut buckets = self.buckets.lock();
        let bucket = buckets.map.get_mut(key)?;
        let value = bucket.pop()?;
        let emptied = bucket.is_empty();
        buckets.settle_emptied(key, emptied);
        self.len.fetch_sub(1, Ordering::AcqRel);
        Some(value)
    }

    /// Steals ⌈b/2⌉ of `key`'s bucket (`b` = its size) into a transfer
    /// vector under the held segment lock, settling residency and the
    /// cached length. Empty if the bucket is absent or empty.
    fn steal_bucket(&self, mut buckets: MutexGuard<'_, Buckets<K, V>>, key: &K) -> Vec<(K, V)> {
        let Some(bucket) = buckets.map.get_mut(key).filter(|bucket| !bucket.is_empty()) else {
            return Vec::new();
        };
        let take = steal_count(bucket.len());
        let at = bucket.len() - take;
        let mut stolen = self.transfer_shell(take);
        stolen.extend(bucket.drain(at..).map(|value| (key.clone(), value)));
        let emptied = bucket.is_empty();
        buckets.settle_emptied(key, emptied);
        self.len.fetch_sub(take, Ordering::AcqRel);
        stolen
    }

    /// Steals ⌈b/2⌉ of the `key` bucket — see
    /// [`steal_bucket`](Self::steal_bucket).
    fn steal_half_key(&self, key: &K) -> Vec<(K, V)> {
        self.steal_bucket(self.buckets.lock(), key)
    }

    /// Empty buckets this segment has evicted, for
    /// [`PoolCounters`](crate::stats::PoolCounters) aggregation.
    fn evictions(&self) -> u64 {
        self.buckets.lock().evictions
    }
}

impl<K: Key, V: Send + 'static> Segment for KeyedSegment<K, V> {
    type Item = (K, V);

    /// A standalone segment with the default residency bound.
    fn new() -> Self {
        Self::with_shells(shells_for(1), RESIDENT_BUCKETS_MAX)
    }

    /// One pool's segments share a single transfer-shell cache.
    fn new_family(count: usize) -> Vec<Self> {
        let shells = shells_for(count);
        (0..count).map(|_| Self::with_shells(Arc::clone(&shells), RESIDENT_BUCKETS_MAX)).collect()
    }

    fn add(&self, (key, value): (K, V)) {
        let mut buckets = self.buckets.lock();
        buckets.bucket_for(key).push(value);
        self.len.fetch_add(1, Ordering::AcqRel);
    }

    fn try_remove(&self) -> Option<(K, V)> {
        let mut buckets = self.buckets.lock();
        // First *non-empty* key in order: deterministic; empty buckets are
        // resident capacity, not occupancy.
        let (key, value, emptied) = buckets.map.iter_mut().find_map(|(key, bucket)| {
            let value = bucket.pop()?;
            Some((key.clone(), value, bucket.is_empty()))
        })?;
        buckets.settle_emptied(&key, emptied);
        self.len.fetch_sub(1, Ordering::AcqRel);
        Some((key, value))
    }

    fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Steals ⌈b/2⌉ of the largest non-empty bucket (ties: smallest key),
    /// which balances bulk while leaving the victim's other keys local.
    fn steal_half(&self) -> Vec<(K, V)> {
        let buckets = self.buckets.lock();
        let Some(key) = buckets
            .map
            .iter()
            .filter(|(_, bucket)| !bucket.is_empty())
            .max_by(|a, b| a.1.len().cmp(&b.1.len()).then_with(|| b.0.cmp(a.0)))
            .map(|(key, _)| key.clone())
        else {
            return Vec::new();
        };
        self.steal_bucket(buckets, &key)
    }

    fn add_bulk(&self, mut batch: Vec<(K, V)>) {
        if let Some((first, _)) = batch.first() {
            let n = batch.len();
            let mut buckets = self.buckets.lock();
            if batch.iter().all(|(key, _)| key == first) {
                // Every steal transfer: one bucket append.
                let key = first.clone();
                buckets.bucket_for(key).extend(batch.drain(..).map(|(_, value)| value));
            } else {
                for (key, value) in batch.drain(..) {
                    buckets.bucket_for(key).push(value);
                }
            }
            // Publish under the lock, like every other mutation: a remover
            // could otherwise take these elements and decrement the mirror
            // first, wrapping it to a huge "non-empty" reading that keeps
            // waiting searches spinning on a segment that holds nothing.
            self.len.fetch_add(n, Ordering::AcqRel);
        }
        // The drained transfer shell goes back to the pool for the next
        // bulk steal (lock released first). Undersized shells are not worth
        // the round trip; oversized ones would pin unbounded memory.
        if (SHELL_SPILL_MIN..=SHELL_SPILL_MAX).contains(&batch.capacity()) {
            self.shells.put(batch);
        }
    }

    /// Removes up to `n` elements (first keys first, deterministically)
    /// under one lock acquisition. Emptied buckets settle under the per-op
    /// residency policy.
    fn remove_up_to(&self, n: usize) -> Vec<(K, V)> {
        let mut out = Vec::new();
        let mut emptied = Vec::new();
        let mut buckets = self.buckets.lock();
        for (key, values) in buckets.map.iter_mut() {
            if values.is_empty() {
                continue;
            }
            let at = values.len().saturating_sub(n - out.len());
            out.extend(values.drain(at..).map(|value| (key.clone(), value)));
            if values.is_empty() {
                emptied.push(key.clone());
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
    /// capacity): a drain is a teardown, not steady-state traffic.
    fn drain_all(&self) -> Vec<(K, V)> {
        let mut buckets = self.buckets.lock();
        let mut out = Vec::new();
        for (key, values) in std::mem::take(&mut buckets.map) {
            out.extend(values.into_iter().map(|v| (key.clone(), v)));
        }
        buckets.empties = 0;
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
    handle_cache: usize,
    timing: T,
}

impl<T: Timing> std::fmt::Debug for KeyedPoolBuilder<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyedPoolBuilder")
            .field("segments", &self.segments)
            .field("resident_buckets_max", &self.resident_buckets_max)
            .field("handle_cache", &self.handle_cache)
            .finish_non_exhaustive()
    }
}

impl KeyedPoolBuilder {
    /// Starts building a keyed pool with `segments` segments and the free
    /// [`NullTiming`] cost model.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is zero.
    pub fn new(segments: usize) -> Self {
        assert!(segments > 0, "pool must have at least one segment");
        KeyedPoolBuilder {
            segments,
            resident_buckets_max: RESIDENT_BUCKETS_MAX,
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

    /// Gives every [`KeyedHandle`] a two-magazine element cache of `depth`
    /// `(key, value)` pairs per magazine (default 0 = off), exchanged
    /// through a shared per-pool depot — the keyed counterpart of
    /// [`PoolBuilder::handle_cache`].
    ///
    /// Keyed magazines are *mixed-key*: a cached pair is invisible to
    /// `key_len` and to `try_remove_key` on other handles until it is
    /// flushed. See the README's
    /// "Handle-local caching" section for when not to enable this.
    pub fn handle_cache(mut self, depth: usize) -> Self {
        self.handle_cache = depth;
        self
    }

    /// Builds the keyed pool.
    #[must_use]
    pub fn build<K: Key, V: Send + 'static>(self) -> KeyedPool<K, V, T> {
        let shells = shells_for(self.segments);
        let segments = (0..self.segments)
            .map(|_| KeyedSegment::with_shells(Arc::clone(&shells), self.resident_buckets_max))
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
        KeyedHandle { handle: self.pool.register() }
    }

    /// Statistics of dropped handles, by process id, plus the pool-wide
    /// bucket-eviction count.
    pub fn stats(&self) -> PoolStats {
        let mut stats = self.pool.stats();
        stats.pool.bucket_evictions = self.shared.segments.iter().map(|s| s.evictions()).sum();
        stats
    }
}

/// The plain handle a [`KeyedHandle`] wraps.
type Inner<K, V, T> = Handle<KeyedSegment<K, V>, LinearSearch, T>;

/// Per-process handle to a [`KeyedPool`]: a key API over the pool's
/// [`Handle`].
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

impl<K: Key, V: Send + 'static, T: Timing> KeyedHandle<K, V, T> {
    /// Adds an element under `key` — [`Handle::add`] of the pair.
    /// Consumers parked in a [`Block`](WaitStrategy::Block) remove wake on
    /// the add edge.
    pub fn add(&mut self, key: K, value: V) {
        self.handle.add((key, value));
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
        self.handle.try_remove_filtered(&KeyFilter(key), 0, None)
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
        self.handle.remove_bounded_filtered(&KeyFilter(key), wait, attempts, deadline)
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
    fn uniform_traffic_never_promotes() {
        // No bucket is ever split: the kept hot-key counters read 0.
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
}
