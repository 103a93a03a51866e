//! Async-native pool operations: std-only futures over the notifier.
//!
//! PR 4's [`Notifier`](crate::notify::Notifier) wakes *parked threads*,
//! which ties every blocked consumer to an OS thread — fine for a handful
//! of workers, a non-starter for a server frontend holding thousands of
//! idle consumers. This module is the waker half of that design:
//! [`RemoveFuture`] runs the **same search pass** as a blocking
//! [`remove`](crate::PoolOps::remove) with
//! [`WaitStrategy::Block`](crate::WaitStrategy::Block), but at a
//! fruitless lap boundary they register their task's
//! [`Waker`](std::task::Waker) on the notifier and return
//! `Poll::Pending` instead of parking. One thread can then hold thousands
//! of pending removes — see [`exec::Fleet`] — and the producer's add edge
//! wakes exactly the tasks that were waiting.
//!
//! There is one future type. A keyed pool's futures are `RemoveFuture`s
//! over its keyed segments: [`KeyedRemoveFuture`] accepts any element, and
//! [`RemoveKeyFuture`] carries a key filter that scopes the search, the
//! wake filter and the drained check to one key and resolves to the bare
//! value.
//!
//! No runtime dependency: the futures are plain `std::future::Future`s
//! (poll-based, `Unpin`, no timers, no I/O reactor), so they run under
//! any executor. The bundled [`exec`] module provides a minimal std-only
//! [`block_on`](exec::block_on) and the N-futures-per-thread
//! [`Fleet`](exec::Fleet) driver used by the tests, benches, and
//! examples.
//!
//! # Protocol
//!
//! Each `poll` is one or more **register → re-check** rounds, the parking
//! protocol of [`notify`](crate::notify) minus the park (the memory-
//! ordering argument lives on
//! [`Notifier::register_waker`](crate::notify::Notifier::register_waker)):
//!
//! 1. run a local-first search pass (the full steal protocol);
//! 2. at a fruitless lap boundary, register the waker, then re-check
//!    closed / gate / work-present;
//! 3. if a condition fired, cancel the registration and resolve (or run
//!    another pass); otherwise stay registered and return `Pending`.
//!
//! Terminal outcomes from `poll` are exactly the blocking remove's:
//! `Ok(item)`, [`RemoveError::Closed`] once the pool is closed **and
//! drained** (a closed pool's residue resolves pending futures first),
//! [`RemoveError::Timeout`] past a `_timeout` deadline, and
//! [`RemoveError::Aborted`] for the §3.2 livelock breaker. A resolved
//! future must not be polled again (it panics, per the `Future`
//! contract); a dropped future withdraws its waker registration.
//!
//! # Futures are detached searchers
//!
//! A future searches from the home segment of the handle that created it
//! but does **not** count as a searching process on the
//! [`SearchGate`](crate::SearchGate): the gate's §3.2 condition compares
//! `searching` against *registered* processes, and an unregistered
//! searcher inflating the count would abort parked consumers while a
//! registered producer idles between adds. The future still observes the
//! gate, so a fleet-wide §3.2 abort resolves pending futures too. Its
//! statistics stay private to the future, and it does not participate in
//! the hint board (whose mailboxes are per-process and owned by the
//! creating handle).
//!
//! ```
//! use cpool::prelude::*;
//! use cpool::future::exec::block_on;
//!
//! let pool: Pool<VecSegment<u32>, LinearSearch> = PoolBuilder::new(2).build();
//! let mut producer = pool.register();
//! let consumer = pool.register();
//! producer.add(7);
//! assert_eq!(block_on(consumer.remove_async()), Ok(7));
//! pool.close();
//! assert_eq!(block_on(consumer.remove_async()), Err(RemoveError::Closed));
//! ```

pub mod exec;

use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::Instant;

use crate::core::{drive_remove, Any, KeyFilter, OpTimer, RemoveFilter, Sampler, WaitCtl};
use crate::error::RemoveError;
use crate::ids::{ProcId, SegIdx};
use crate::keyed::KeyedSegment;
use crate::pool::Shared;
use crate::search::{LinearSearch, SearchPolicy};
use crate::segment::Segment;
use crate::stats::ProcStats;
use crate::timing::{NullTiming, Timing};

/// A pending remove on a [`Pool`](crate::Pool): resolves to an element,
/// or terminally to a [`RemoveError`] — created by
/// [`Handle::remove_async`](crate::Handle::remove_async) /
/// [`remove_timeout_async`](crate::Handle::remove_timeout_async), and by
/// the [`KeyedHandle`](crate::KeyedHandle) async methods.
///
/// The last type parameter is the remove's scope: any element by default,
/// or one key for [`RemoveKeyFuture`] (which then resolves to the value
/// alone). See the [module docs](self) for the protocol. The future is
/// `Unpin` (its state is ordinary owned data) and panics if polled again
/// after resolving.
pub struct RemoveFuture<S: Segment, P: SearchPolicy, T: Timing = NullTiming, F = Any> {
    shared: Arc<Shared<S, P, T>>,
    me: ProcId,
    home: SegIdx,
    state: P::State,
    stats: ProcStats,
    sampler: Sampler,
    filter: F,
    /// Armed waker-registration ticket, carried between polls so the next
    /// poll (or drop) can withdraw it.
    slot: Option<u64>,
    deadline: Option<Instant>,
    done: bool,
}

/// A pending any-key remove on a [`KeyedPool`](crate::KeyedPool),
/// resolving to a `(key, value)` pair — created by
/// [`remove_async`](crate::Handle::remove_async) /
/// [`remove_timeout_async`](crate::Handle::remove_timeout_async) on a
/// [`KeyedHandle`](crate::KeyedHandle), which dereferences to the plain
/// handle.
pub type KeyedRemoveFuture<K, V, T = NullTiming> =
    RemoveFuture<KeyedSegment<K, V>, LinearSearch, T>;

/// A pending key-scoped remove on a [`KeyedPool`](crate::KeyedPool),
/// resolving to a value under one key — created by
/// [`KeyedHandle::remove_key_async`](crate::KeyedHandle::remove_key_async) /
/// [`remove_key_timeout_async`](crate::KeyedHandle::remove_key_timeout_async).
///
/// The future goes pending while *this key* has no reachable elements
/// (other keys' traffic wakes it only to re-check and re-register), and
/// the terminal `Closed`/`Aborted` mapping uses the key-scoped drained
/// snapshot.
pub type RemoveKeyFuture<K, V, T = NullTiming> =
    RemoveFuture<KeyedSegment<K, V>, LinearSearch, T, KeyFilter<K>>;

// No field is ever pinned: poll takes the future apart as plain owned
// data, so the future is freely movable regardless of the policy state.
impl<S: Segment, P: SearchPolicy, T: Timing, F> Unpin for RemoveFuture<S, P, T, F> {}

impl<S: Segment, P: SearchPolicy, T: Timing, F> RemoveFuture<S, P, T, F> {
    pub(crate) fn new(
        shared: Arc<Shared<S, P, T>>,
        me: ProcId,
        home: SegIdx,
        deadline: Option<Instant>,
        filter: F,
    ) -> Self {
        let state = shared.init_state(home);
        let sampler = Sampler::new(&shared.timing);
        RemoveFuture {
            shared,
            me,
            home,
            state,
            stats: ProcStats::default(),
            sampler,
            filter,
            slot: None,
            deadline,
            done: false,
        }
    }

    /// The deadline after which the future resolves with
    /// [`RemoveError::Timeout`], if one was set.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }
}

impl<S: Segment, P: SearchPolicy, T: Timing, F> std::fmt::Debug for RemoveFuture<S, P, T, F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoveFuture")
            .field("proc", &self.me)
            .field("home", &self.home)
            .field("registered", &self.slot.is_some())
            .field("done", &self.done)
            .finish_non_exhaustive()
    }
}

impl<S: Segment, P: SearchPolicy, T: Timing, F: RemoveFilter<S>> Future
    for RemoveFuture<S, P, T, F>
{
    type Output = Result<F::Output, RemoveError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = Pin::into_inner(self);
        assert!(!this.done, "RemoveFuture polled after completion");
        let shared = Arc::clone(&this.shared);
        let notifier = shared.notifier();
        let mut ctl = WaitCtl::new_poll(notifier, this.deadline, cx.waker(), &mut this.slot);
        let filter = &this.filter;
        let out = drive_remove(
            &mut ctl,
            |ctl| {
                let timer = OpTimer::sampled(&shared.timing, this.me, 0, this.sampler.remove());
                shared.remove_pass(
                    filter,
                    this.me,
                    this.home,
                    &mut this.state,
                    &mut this.stats,
                    true,
                    timer,
                    Some(ctl),
                )
            },
            || shared.drained_for(filter),
            || notifier.is_closed(),
        );
        if out.is_ready() {
            this.done = true;
            debug_assert!(this.slot.is_none(), "a resolved future holds no registration");
        }
        out
    }
}

impl<S: Segment, P: SearchPolicy, T: Timing, F> Drop for RemoveFuture<S, P, T, F> {
    fn drop(&mut self) {
        if let Some(ticket) = self.slot.take() {
            self.shared.notifier().cancel_waker(ticket);
        }
    }
}
