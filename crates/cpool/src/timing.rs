//! Cost accounting for shared-memory accesses.
//!
//! The Butterfly experiments in Kotz & Ellis (1989) distinguish *local* from
//! *remote* memory accesses (remote ≈ 4× slower) and additionally inject an
//! adjustable artificial delay into every remote segment probe and every
//! superimposed-tree node access, to emulate more loosely-coupled
//! architectures.
//!
//! This module abstracts that cost model behind the [`Timing`] trait: the
//! pool reports every chargeable access as a [`Resource`] touch, and the
//! trait implementation decides what the touch costs — nothing
//! ([`NullTiming`]), a real spin delay (`numa_sim::RealTiming`), or an
//! advance of a deterministic virtual clock (`numa_sim::SimTiming`).
//!
//! # Static vs dynamic dispatch
//!
//! The pool frontends are *generic* over their cost model
//! (`Pool<S, P, T: Timing>`), so the model is chosen at the type level:
//! a `Pool<_, _, NullTiming>` monomorphizes to bare lock/steal code with
//! every `charge` call inlined away, paying nothing for the instrumentation
//! machinery. When the model must be picked at *runtime* (an experiment
//! harness switching engines from a spec), use the [`DynTiming`] adapter:
//! smart pointers to a `Timing` — including `Arc<dyn Timing>` — implement
//! `Timing` themselves, so a dyn-dispatched model threads through the same
//! generic hot path at the cost of one pointer indirection per charge.
//!
//! # Lock/charge discipline
//!
//! Implementations may block the calling thread (the virtual-time scheduler
//! suspends a process until it holds the globally minimal clock). Pool code
//! therefore **never holds a data lock across a `charge` call**: charges
//! always happen immediately *before* the lock acquisition they pay for.

use std::fmt;
use std::time::Instant;

use crate::ids::{ProcId, SegIdx};

/// A shared resource whose access is charged to the accessing process.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[non_exhaustive]
pub enum Resource {
    /// A pool segment (probe, add, remove, or steal access).
    Segment(SegIdx),
    /// A node of the superimposed search tree (round-counter read/update).
    ///
    /// The index is the heap index of the node (`1` is the root). Per the
    /// paper, the tree "must reside somewhere ... in any case it is likely
    /// to be remote for most of the processors", so latency models treat
    /// tree nodes as remote by default.
    TreeNode(usize),
    /// A centralized shared structure (used by baseline work lists such as
    /// the global-lock stack of §4.4).
    Shared(u16),
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Resource::Segment(s) => write!(f, "seg:{}", s.index()),
            Resource::TreeNode(n) => write!(f, "tree:{n}"),
            Resource::Shared(k) => write!(f, "shared:{k}"),
        }
    }
}

/// Cost model hook: charges shared-memory accesses and provides a clock.
///
/// All methods take the acting process so that per-process virtual clocks
/// and NUMA locality (is segment `s` local to process `p`?) can be modelled.
///
/// See the [module docs](self) for the lock/charge discipline implementors
/// may rely on.
pub trait Timing: Send + Sync {
    /// Charge process `proc` for one access to `resource`.
    ///
    /// May block (e.g. to serialize virtual time). Called *before* the
    /// access is performed.
    fn charge(&self, proc: ProcId, resource: Resource);

    /// Charge process `proc` for `ns` nanoseconds of local computation.
    ///
    /// Applications use this to model work done between pool operations
    /// (e.g. evaluating a game position). The default implementation
    /// ignores the charge.
    fn charge_work(&self, proc: ProcId, ns: u64) {
        let _ = (proc, ns);
    }

    /// Current time for `proc` in nanoseconds.
    ///
    /// Wall-clock based implementations return time since some fixed origin;
    /// virtual-time implementations return the process's virtual clock.
    fn now(&self, proc: ProcId) -> u64;

    /// Whether [`now`](Self::now) reads the wall clock.
    ///
    /// The pool times every operation against a clock that is not the wall
    /// clock (the default): a virtual clock is the model's own output, and
    /// reading it is free. A wall-clock read costs about as much as the
    /// operation it prices, so on a wall-clock model each handle times one
    /// operation in sixteen per kind and scales the latency sums by the
    /// sampling period (see [`ProcStats`](crate::ProcStats)); the
    /// operation counters stay exact either way.
    fn is_wall_clock(&self) -> bool {
        false
    }
}

/// A runtime-selected cost model: the dyn-dispatch adapter.
///
/// The pool's hot path charges through a generic `T: Timing`; this alias is
/// the `T` to pick when the concrete model is only known at runtime. The
/// smart-pointer blanket impls below make `Arc<dyn Timing>` itself a
/// `Timing`, so a `Pool<S, P, DynTiming>` works exactly like any other
/// pool — every charge just pays one virtual call.
///
/// ```
/// use cpool::{DynTiming, NullTiming, Timing, ProcId, Resource, SegIdx};
/// use std::sync::Arc;
/// let t: DynTiming = Arc::new(NullTiming::new());
/// t.charge(ProcId::new(0), Resource::Segment(SegIdx::new(0)));
/// ```
pub type DynTiming = std::sync::Arc<dyn Timing>;

// Smart-pointer adapters: let `Arc<dyn Timing>` (and friends) flow through
// the generic hot path when the cost model is selected at runtime.
impl<T: Timing + ?Sized> Timing for std::sync::Arc<T> {
    fn charge(&self, proc: ProcId, resource: Resource) {
        (**self).charge(proc, resource);
    }

    fn charge_work(&self, proc: ProcId, ns: u64) {
        (**self).charge_work(proc, ns);
    }

    fn now(&self, proc: ProcId) -> u64 {
        (**self).now(proc)
    }

    fn is_wall_clock(&self) -> bool {
        (**self).is_wall_clock()
    }
}

impl<T: Timing + ?Sized> Timing for Box<T> {
    fn charge(&self, proc: ProcId, resource: Resource) {
        (**self).charge(proc, resource);
    }

    fn charge_work(&self, proc: ProcId, ns: u64) {
        (**self).charge_work(proc, ns);
    }

    fn now(&self, proc: ProcId) -> u64 {
        (**self).now(proc)
    }

    fn is_wall_clock(&self) -> bool {
        (**self).is_wall_clock()
    }
}

impl<T: Timing + ?Sized> Timing for &T {
    fn charge(&self, proc: ProcId, resource: Resource) {
        (**self).charge(proc, resource);
    }

    fn charge_work(&self, proc: ProcId, ns: u64) {
        (**self).charge_work(proc, ns);
    }

    fn now(&self, proc: ProcId) -> u64 {
        (**self).now(proc)
    }

    fn is_wall_clock(&self) -> bool {
        (**self).is_wall_clock()
    }
}

/// A [`Timing`] that charges nothing: raw machine speed.
///
/// `now` still reports real elapsed nanoseconds since the value was created,
/// and it is a wall clock: the pool prices one operation in sixteen per
/// handle and operation kind against it, and counts every operation.
///
/// ```
/// use cpool::{NullTiming, Timing, ProcId, Resource, SegIdx};
/// let t = NullTiming::new();
/// t.charge(ProcId::new(0), Resource::Segment(SegIdx::new(0))); // free
/// let a = t.now(ProcId::new(0));
/// let b = t.now(ProcId::new(0));
/// assert!(b >= a);
/// ```
#[derive(Clone, Debug)]
pub struct NullTiming {
    origin: Instant,
}

impl NullTiming {
    /// Creates a new zero-cost timing source.
    pub fn new() -> Self {
        NullTiming { origin: Instant::now() }
    }
}

impl Default for NullTiming {
    fn default() -> Self {
        Self::new()
    }
}

impl Timing for NullTiming {
    fn charge(&self, _proc: ProcId, _resource: Resource) {}

    fn now(&self, _proc: ProcId) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn is_wall_clock(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_timing_clock_is_monotonic() {
        let t = NullTiming::new();
        let p = ProcId::new(0);
        let mut last = 0;
        for _ in 0..100 {
            let now = t.now(p);
            assert!(now >= last);
            last = now;
        }
    }

    #[test]
    fn resource_display() {
        assert_eq!(Resource::Segment(SegIdx::new(3)).to_string(), "seg:3");
        assert_eq!(Resource::TreeNode(1).to_string(), "tree:1");
        assert_eq!(Resource::Shared(0).to_string(), "shared:0");
    }

    #[test]
    fn trait_is_object_safe() {
        let t: Box<dyn Timing> = Box::new(NullTiming::new());
        t.charge(ProcId::new(1), Resource::TreeNode(2));
        t.charge_work(ProcId::new(1), 50);
        let _ = t.now(ProcId::new(1));
    }

    /// A generic charge site accepts both concrete models and the
    /// [`DynTiming`] adapter.
    #[test]
    fn adapters_thread_through_generic_sites() {
        fn charge_one<T: Timing>(t: &T) -> u64 {
            t.charge(ProcId::new(0), Resource::Segment(SegIdx::new(0)));
            t.charge_work(ProcId::new(0), 10);
            t.now(ProcId::new(0))
        }
        let concrete = NullTiming::new();
        let _ = charge_one(&concrete);
        let arced: DynTiming = std::sync::Arc::new(NullTiming::new());
        let _ = charge_one(&arced);
        let boxed: Box<dyn Timing> = Box::new(NullTiming::new());
        let _ = charge_one(&boxed);
        let borrowed: &dyn Timing = &concrete;
        let _ = charge_one(&borrowed);
    }
}
