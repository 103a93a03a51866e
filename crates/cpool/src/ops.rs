//! The unified pool-operations vocabulary: [`PoolOps`].
//!
//! Kotz & Ellis (1989) evaluate pools as a *shared operation vocabulary*
//! — add / remove / steal-half — over interchangeable search algorithms.
//! This module captures that vocabulary as one trait implemented by every
//! pool frontend's handle ([`Handle`](crate::Handle) and
//! [`KeyedHandle`](crate::KeyedHandle)), so schedulers, baselines, and the
//! experiment harness all program against the same surface:
//!
//! * **Single operations** — [`add`](PoolOps::add) and
//!   [`try_remove`](PoolOps::try_remove), exactly the paper's vocabulary.
//! * **Blocking remove** — [`remove`](PoolOps::remove) waits under a
//!   [`WaitStrategy`] until an element arrives, the pool
//!   [closes](PoolOps::close), or waiting is provably futile (the §3.2
//!   terminal abort). [`WaitStrategy::Block`] waits *event-driven*: the
//!   consumer parks on the pool's [`notify`](crate::notify) subsystem and
//!   is woken by the add that satisfies it. [`remove_timeout`](PoolOps::remove_timeout)
//!   bounds the wait by a deadline.
//! * **Async remove** — [`remove_async`](PoolOps::remove_async) and
//!   [`remove_timeout_async`](PoolOps::remove_timeout_async) return
//!   std-only futures that wait on the same notifier *without a thread*:
//!   a pending future registers its task's waker instead of parking. See
//!   [`future`](crate::future) for the protocol and bundled executor.
//! * **Lifecycle** — [`close`](PoolOps::close) flips the pool-wide shutdown
//!   state: blocked and future removers drain the remaining elements and
//!   then observe [`RemoveError::Closed`], replacing attempt-budget
//!   starvation as the way to terminate consumers.
//! * **Batch operations** — [`add_batch`](PoolOps::add_batch),
//!   [`try_remove_batch`](PoolOps::try_remove_batch), and
//!   [`drain`](PoolOps::drain) take the segment lock **once per batch**
//!   instead of once per element, and charge the cost model accordingly
//!   (one probe per batch plus the per-element transfer). Batched removes
//!   return a [`SmallDrain`] that owns the drained `Vec` and hands its
//!   elements out one by one.
//!
//! # Example
//!
//! ```
//! use cpool::prelude::*;
//! use std::thread;
//!
//! let pool: Pool<VecSegment<u64>, LinearSearch> = PoolBuilder::new(2).build();
//! thread::scope(|s| {
//!     let mut producer = pool.register();
//!     let mut consumer = pool.register();
//!     s.spawn(move || {
//!         producer.add_batch(0..100);
//!         producer.close(); // everything produced: begin shutdown
//!     });
//!     s.spawn(move || {
//!         let mut got = 0;
//!         // Parks between fruitless search laps; woken by adds. The pool
//!         // delivers all 100 elements before reporting Closed.
//!         while consumer.remove(WaitStrategy::Block).is_ok() {
//!             got += 1;
//!         }
//!         assert_eq!(got, 100);
//!     });
//! });
//! assert_eq!(pool.total_len(), 0);
//! ```

use std::fmt;
use std::iter::FusedIterator;
use std::time::{Duration, Instant};

use crate::error::RemoveError;

/// How a blocking [`remove`](PoolOps::remove) waits after each **fruitless
/// search lap** (one full round over the victim segments with nothing
/// found).
///
/// A blocking remove searches like any other remove; what the strategy
/// decides is what happens when a whole lap finds nothing and the §3.2
/// abort condition does *not* hold (some registered process is not
/// searching, so an add may still be coming):
///
/// * [`Spin`](WaitStrategy::Spin) — probe the next lap immediately (a CPU
///   [`spin_loop`](std::hint::spin_loop) hint only). Deterministic under
///   the virtual-time engine, so simulation runs reproduce bit-for-bit.
/// * [`Yield`](WaitStrategy::Yield) — surrender the time slice between
///   laps.
/// * [`Park`](WaitStrategy::Park) — sleep for an exponentially growing,
///   capped interval between laps. Polling backoff: cheap to run, but a
///   new element is only discovered once the current sleep expires.
/// * [`Block`](WaitStrategy::Block) — park on the pool's
///   [`notify`](crate::notify) subsystem and wake **on the add edge**: the
///   producer that makes an element available unparks the consumer.
///   Lowest handoff latency and zero busy work, at the cost of one
///   park/unpark round trip. Not for virtual-time pools (a parked thread
///   never yields the simulation token); use `Spin` there.
///
/// Every strategy carries the same default lap budget
/// ([`DEFAULT_ATTEMPTS`](Self::DEFAULT_ATTEMPTS)); use
/// [`remove_with_attempts`](PoolOps::remove_with_attempts) to choose a
/// different one.
///
/// ```
/// use cpool::WaitStrategy;
///
/// assert_eq!(WaitStrategy::default(), WaitStrategy::Yield);
/// assert_eq!(WaitStrategy::Spin.default_attempts(), WaitStrategy::DEFAULT_ATTEMPTS);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
#[non_exhaustive]
pub enum WaitStrategy {
    /// Start the next search lap immediately (spin-loop hint only).
    Spin,
    /// Yield the thread between search laps.
    #[default]
    Yield,
    /// Sleep between search laps with capped exponential backoff, starting
    /// at one microsecond and doubling up to [`PARK_CAP`](Self::PARK_CAP).
    Park,
    /// Park on the pool's notifier; woken by the add edge, by
    /// [`close`](PoolOps::close), and by the gate's all-searching
    /// transition. See [`notify`](crate::notify).
    Block,
}

impl WaitStrategy {
    /// Default number of fruitless search laps a blocking remove completes
    /// before giving up with [`RemoveError::Aborted`]. Each lap examines
    /// every victim segment once, so the budget guards against pathological
    /// livelock, not ordinary contention.
    pub const DEFAULT_ATTEMPTS: usize = 1024;

    /// Longest single pause [`Park`](Self::Park) sleeps between laps.
    pub const PARK_CAP: Duration = Duration::from_micros(128);

    /// The lap budget [`PoolOps::remove`] uses for this strategy.
    pub fn default_attempts(self) -> usize {
        Self::DEFAULT_ATTEMPTS
    }

    /// Pauses the calling thread before lap number `attempt` (0-based).
    ///
    /// Exposed so custom retry loops outside the trait can share the exact
    /// backoff behavior of the polling strategies. `Block` has no
    /// standalone pause — parking correctly requires the pool's notifier,
    /// which only the in-crate blocking remove can reach — so here it
    /// degrades to a yield.
    pub fn pause(self, attempt: usize) {
        match self {
            WaitStrategy::Spin => std::hint::spin_loop(),
            WaitStrategy::Yield | WaitStrategy::Block => std::thread::yield_now(),
            WaitStrategy::Park => {
                let micros = 1u64 << attempt.min(7);
                std::thread::sleep(Duration::from_micros(micros).min(Self::PARK_CAP));
            }
        }
    }
}

impl fmt::Display for WaitStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            WaitStrategy::Spin => "spin",
            WaitStrategy::Yield => "yield",
            WaitStrategy::Park => "park",
            WaitStrategy::Block => "block",
        };
        f.write_str(name)
    }
}

/// An owning batch of elements drained from a pool by
/// [`try_remove_batch`](PoolOps::try_remove_batch) or
/// [`drain`](PoolOps::drain).
///
/// The drain owns the vector the segments filled and pops elements off its
/// back; no second vector is built. Iterating yields the elements in an
/// unspecified order (the pool is an unordered
/// collection). Dropping the drain without consuming it drops the
/// elements — they have already left the pool — hence the `#[must_use]`.
///
/// ```
/// use cpool::prelude::*;
///
/// let pool: Pool<VecSegment<u32>, LinearSearch> = PoolBuilder::new(1).build();
/// let mut h = pool.register();
/// h.add_batch([1, 2, 3]);
/// let batch = h.try_remove_batch(2);
/// assert_eq!(batch.len(), 2);
/// assert_eq!(batch.into_vec().len(), 2);
/// assert_eq!(pool.total_len(), 1);
/// ```
#[must_use = "the elements have already left the pool and are dropped if unused"]
pub struct SmallDrain<T> {
    inner: Vec<T>,
}

impl<T> SmallDrain<T> {
    /// Wraps a drained batch (crate-internal: only pools mint drains).
    pub(crate) fn new(batch: Vec<T>) -> Self {
        SmallDrain { inner: batch }
    }

    /// Number of elements not yet consumed.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether every element has been consumed (or none was drained).
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Converts the remaining elements into a plain vector.
    pub fn into_vec(self) -> Vec<T> {
        self.inner
    }
}

impl<T> fmt::Debug for SmallDrain<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SmallDrain").field("remaining", &self.inner.len()).finish()
    }
}

impl<T> Iterator for SmallDrain<T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.inner.pop()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.inner.len(), Some(self.inner.len()))
    }
}

impl<T> ExactSizeIterator for SmallDrain<T> {}
impl<T> FusedIterator for SmallDrain<T> {}

/// The common handle contract of every pool frontend.
///
/// Implemented by [`Handle`](crate::Handle) (`Item = S::Item`) and
/// [`KeyedHandle`](crate::KeyedHandle) (`Item = (K, V)`), so generic
/// consumers — work-list adapters, schedulers, the harness — can program
/// against one operation surface. See the [module docs](self) for the
/// design rationale.
///
/// Both handles also keep their inherent methods (which shadow the trait
/// methods of the same name for direct calls); the trait adds the blocking,
/// lifecycle, and batch vocabulary on top. A `KeyedHandle` wraps a
/// `Handle`, and every trait method but `add` is that handle's own.
pub trait PoolOps {
    /// The element type this pool stores. For keyed pools this is the
    /// `(key, value)` pair.
    type Item;

    /// The future [`remove_async`](Self::remove_async) returns: the one
    /// [`RemoveFuture`](crate::RemoveFuture) type, which a
    /// [`KeyedHandle`](crate::KeyedHandle) names by its
    /// [`KeyedRemoveFuture`](crate::KeyedRemoveFuture) alias. Always `Unpin` (pool futures
    /// are plain owned state), so generic drivers can poll without pin
    /// projection — e.g. through [`future::exec::Fleet`](crate::future::exec::Fleet).
    type RemoveFuture: std::future::Future<Output = Result<Self::Item, RemoveError>> + Unpin;

    /// Adds one element (to the local segment, or wherever the frontend's
    /// placement rules send it), waking consumers parked in
    /// [`WaitStrategy::Block`] removes.
    fn add(&mut self, item: Self::Item);

    /// Removes an arbitrary element, searching (and stealing from) remote
    /// segments when the local segment is empty.
    ///
    /// # Errors
    ///
    /// Returns [`RemoveError::Aborted`] when the livelock breaker fired:
    /// every registered process was searching simultaneously. Returns
    /// [`RemoveError::Closed`] instead when the pool is
    /// [closed](Self::close) and drained.
    fn try_remove(&mut self) -> Result<Self::Item, RemoveError>;

    /// Whether a snapshot of the pool shows no element reachable by this
    /// handle's removes.
    ///
    /// Used by the blocking [`remove`](Self::remove) to decide whether an
    /// abort is terminal: no process can add while every process is
    /// searching, so *abort + drained* is a stable "empty and nobody
    /// producing" signal (see [`RemoveError::Aborted`]).
    fn is_drained(&self) -> bool;

    /// Closes the pool: a sticky, idempotent, pool-wide lifecycle
    /// transition.
    ///
    /// Removers blocked in [`remove`](Self::remove) are woken; they and all
    /// future removers first drain whatever elements remain and then
    /// observe [`RemoveError::Closed`]. Adds are not rejected (the
    /// operation stays infallible and conservation properties hold), but a
    /// well-behaved application stops adding once it closes.
    ///
    /// This replaces the attempt-budget hack — letting consumers burn
    /// search attempts until the all-searching abort — as the way to shut
    /// a pool's consumers down.
    fn close(&self);

    /// Whether [`close`](Self::close) has been called on this pool.
    fn is_closed(&self) -> bool;

    /// Removes an element, waiting under `wait` with the strategy's
    /// [default lap budget](WaitStrategy::default_attempts).
    ///
    /// This replaces the hand-rolled `Err(Aborted) => retry` spin loop
    /// every consumer of `try_remove` used to carry — and with
    /// [`WaitStrategy::Block`], replaces polling entirely: the consumer
    /// parks and the add edge wakes it.
    ///
    /// # Errors
    ///
    /// * [`RemoveError::Closed`] — the pool was closed and every remaining
    ///   element has been drained.
    /// * [`RemoveError::Aborted`] — the terminal starvation signal (every
    ///   registered process searching with the pool drained), or the lap
    ///   budget ran out.
    fn remove(&mut self, wait: WaitStrategy) -> Result<Self::Item, RemoveError> {
        self.remove_bounded(wait, wait.default_attempts(), None)
    }

    /// [`remove`](Self::remove) with an explicit lap budget.
    ///
    /// Each attempt is one full fruitless search lap (every victim segment
    /// examined once). Pass `usize::MAX` to wait until the pool is drained
    /// or closed — termination is still guaranteed by the terminal-abort
    /// and close paths as long as producers eventually stop or someone
    /// closes the pool.
    ///
    /// # Errors
    ///
    /// As [`remove`](Self::remove).
    ///
    /// # Panics
    ///
    /// Panics if `attempts` is zero.
    fn remove_with_attempts(
        &mut self,
        wait: WaitStrategy,
        attempts: usize,
    ) -> Result<Self::Item, RemoveError> {
        self.remove_bounded(wait, attempts, None)
    }

    /// Removes an element, parking ([`WaitStrategy::Block`]) for at most
    /// `timeout`.
    ///
    /// # Errors
    ///
    /// [`RemoveError::Timeout`] when the deadline passes first; otherwise
    /// as [`remove`](Self::remove).
    fn remove_timeout(&mut self, timeout: Duration) -> Result<Self::Item, RemoveError> {
        self.remove_bounded(WaitStrategy::Block, usize::MAX, Some(Instant::now() + timeout))
    }

    /// Returns a future resolving to an element — the async counterpart of
    /// [`remove`](Self::remove) with [`WaitStrategy::Block`]: instead of
    /// parking a thread, a pending future registers its task's waker on
    /// the pool's notifier and is woken by the add edge. The future holds
    /// no borrow of the handle, so one handle can have many futures
    /// pending at once (see [`future`](crate::future) for the protocol
    /// and the bundled executor).
    ///
    /// The future resolves terminally with [`RemoveError::Closed`] once
    /// the pool is [closed](Self::close) and drained, and with
    /// [`RemoveError::Aborted`] on the §3.2 starvation signal.
    fn remove_async(&self) -> Self::RemoveFuture;

    /// [`remove_async`](Self::remove_async) with a deadline: past
    /// `timeout` the future resolves with [`RemoveError::Timeout`].
    fn remove_timeout_async(&self, timeout: Duration) -> Self::RemoveFuture;

    /// The blocking-remove primitive the convenience methods above lower
    /// to: wait under `wait` for at most `attempts` fruitless laps, bounded
    /// by `deadline`.
    ///
    /// # Errors
    ///
    /// As [`remove`](Self::remove), plus [`RemoveError::Timeout`] when
    /// `deadline` passes before an element arrives.
    ///
    /// # Panics
    ///
    /// Panics if `attempts` is zero.
    fn remove_bounded(
        &mut self,
        wait: WaitStrategy,
        attempts: usize,
        deadline: Option<Instant>,
    ) -> Result<Self::Item, RemoveError>;

    /// Adds every element of `items`, taking the local segment lock once
    /// for the whole batch instead of once per element.
    ///
    /// The cost model is charged one segment probe for the batch plus the
    /// per-element transfer the frontend performs; statistics count one add
    /// per element. Parked consumers are woken once per batch.
    fn add_batch<I: IntoIterator<Item = Self::Item>>(&mut self, items: I);

    /// Removes up to `n` arbitrary elements.
    ///
    /// The local segment is drained under a single lock acquisition; only
    /// when it is empty does the frontend fall back to one steal search
    /// (whose two-phase transfer already moves a batch) and then top the
    /// result up locally. The returned drain holds between `0` and `n`
    /// elements — fewer than `n` (or none) when the pool ran dry or the
    /// search aborted.
    fn try_remove_batch(&mut self, n: usize) -> SmallDrain<Self::Item>;

    /// Removes every element currently reachable, visiting each segment
    /// once (one lock acquisition per segment, no search).
    ///
    /// This is a snapshot drain: elements added concurrently while the
    /// sweep is in flight may or may not be included.
    fn drain(&mut self) -> SmallDrain<Self::Item>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wait_strategy_display_and_default() {
        assert_eq!(WaitStrategy::Spin.to_string(), "spin");
        assert_eq!(WaitStrategy::Yield.to_string(), "yield");
        assert_eq!(WaitStrategy::Park.to_string(), "park");
        assert_eq!(WaitStrategy::Block.to_string(), "block");
        assert_eq!(WaitStrategy::default(), WaitStrategy::Yield);
    }

    #[test]
    fn pauses_do_not_block_indefinitely() {
        // Also at high attempt numbers the park backoff stays capped, and
        // the standalone Block pause degrades to a yield rather than
        // parking a thread nobody will unpark.
        for strategy in
            [WaitStrategy::Spin, WaitStrategy::Yield, WaitStrategy::Park, WaitStrategy::Block]
        {
            for attempt in [0, 1, 7, 63, usize::MAX] {
                strategy.pause(attempt);
            }
        }
    }

    #[test]
    fn small_drain_iterates_and_reports_len() {
        let mut drain = SmallDrain::new(vec![1, 2, 3]);
        assert_eq!(drain.len(), 3);
        assert!(!drain.is_empty());
        assert_eq!(drain.next(), Some(3), "vector batches yield back-first");
        assert_eq!(drain.len(), 2);
        assert_eq!(drain.size_hint(), (2, Some(2)));
        assert_eq!(drain.into_vec(), vec![1, 2]);
    }

    #[test]
    fn small_drain_iterates_a_multi_element_batch() {
        let drain = SmallDrain::new((0..40u32).collect());
        assert_eq!(drain.len(), 40);
        let mut got: Vec<u32> = drain.collect();
        got.sort_unstable();
        assert_eq!(got, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn small_drain_debug_hides_elements() {
        struct Opaque;
        let drain = SmallDrain::new(vec![Opaque, Opaque]);
        assert_eq!(format!("{drain:?}"), "SmallDrain { remaining: 2 }");
    }
}
