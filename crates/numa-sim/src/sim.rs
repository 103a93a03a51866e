//! Deterministic virtual-time execution of pool experiments.
//!
//! The paper measured on 16 real Butterfly processors. To reproduce its
//! experiments *exactly* — same interleavings, same statistics, on any
//! host — this module executes the logical processes under a conservative
//! virtual-time scheduler:
//!
//! * every process has a virtual clock (ns);
//! * every shared resource (segment, tree node, central structure) has a
//!   *busy-until* time: an access starts at `max(proc clock, busy-until)`
//!   and occupies the resource for its modelled cost, so contention appears
//!   as queueing delay exactly where the paper saw lock contention;
//! * after each charge, the calling thread blocks until its clock is the
//!   minimum among unfinished processes (ties broken by process id), so
//!   **exactly one process executes between any two charges**.
//!
//! The result is a deterministic discrete-event simulation whose "event
//! handlers" are the *real* pool algorithms running on real threads — no
//! re-implementation, no model drift.
//!
//! # Protocol
//!
//! Each logical process must call [`SimScheduler::start`] before touching
//! any shared state, perform all shared work between `start` and
//! [`SimScheduler::finish`], and charge every shared access through the
//! [`SimTiming`] (the pool does this automatically). Any state shared among
//! processes (pool handles, budgets) must be created *before* the process
//! threads start. See `harness::sim_runner` for the canonical usage.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use cpool::{ProcId, Resource, Timing};

use crate::latency::LatencyModel;
use crate::topology::Topology;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ProcPhase {
    /// Holds the virtual clock at 0, blocking everyone else, until the
    /// process calls `start` — latecomers cannot be overtaken.
    NotStarted,
    Running,
    Finished,
}

#[derive(Debug)]
struct Inner {
    clock: Vec<u64>,
    phase: Vec<ProcPhase>,
    busy: HashMap<Resource, u64>,
}

impl Inner {
    /// The unfinished process with the minimal (clock, pid), if any.
    fn min_unfinished(&self) -> Option<usize> {
        (0..self.clock.len())
            .filter(|&p| self.phase[p] != ProcPhase::Finished)
            .min_by_key(|&p| (self.clock[p], p))
    }
}

/// Conservative virtual-time scheduler for a fixed set of processes.
///
/// See the [module docs](self) for the execution model and protocol.
#[derive(Debug)]
pub struct SimScheduler {
    inner: Mutex<Inner>,
    wakeups: Box<[Condvar]>,
    model: LatencyModel,
    topology: Topology,
}

impl SimScheduler {
    /// Creates a scheduler for processes `0..procs`.
    ///
    /// # Panics
    ///
    /// Panics if `procs` is zero.
    pub fn new(procs: usize, model: LatencyModel, topology: Topology) -> Arc<Self> {
        assert!(procs > 0, "scheduler needs at least one process");
        Arc::new(SimScheduler {
            inner: Mutex::new(Inner {
                clock: vec![0; procs],
                phase: vec![ProcPhase::NotStarted; procs],
                busy: HashMap::new(),
            }),
            wakeups: (0..procs).map(|_| Condvar::new()).collect(),
            model,
            topology,
        })
    }

    /// Number of processes.
    pub fn procs(&self) -> usize {
        self.wakeups.len()
    }

    /// The latency model in use.
    pub fn model(&self) -> LatencyModel {
        self.model
    }

    /// Creates the [`Timing`] facade for this scheduler.
    pub fn timing(self: &Arc<Self>) -> SimTiming {
        SimTiming { scheduler: Arc::clone(self) }
    }

    /// Enters the simulation: blocks until this process holds the minimal
    /// virtual clock. Must be called exactly once per process, before any
    /// shared-state access.
    ///
    /// # Panics
    ///
    /// Panics if called twice for the same process or out of range.
    pub fn start(&self, proc: ProcId) {
        let p = proc.index();
        let mut inner = self.inner.lock();
        assert!(p < inner.clock.len(), "process {proc} out of range");
        assert_eq!(inner.phase[p], ProcPhase::NotStarted, "{proc} started twice");
        inner.phase[p] = ProcPhase::Running;
        self.wait_until_min(p, &mut inner);
    }

    /// Leaves the simulation. The process's clock keeps its final value
    /// (it contributes to [`makespan`](Self::makespan)); the next minimal
    /// process is woken.
    ///
    /// # Panics
    ///
    /// Panics if the process is not running.
    pub fn finish(&self, proc: ProcId) {
        let p = proc.index();
        let mut inner = self.inner.lock();
        assert_eq!(inner.phase[p], ProcPhase::Running, "{proc} finished while not running");
        inner.phase[p] = ProcPhase::Finished;
        if let Some(next) = inner.min_unfinished() {
            self.wakeups[next].notify_one();
        }
    }

    /// Current virtual clock of a process.
    pub fn clock(&self, proc: ProcId) -> u64 {
        self.inner.lock().clock[proc.index()]
    }

    /// Maximum virtual clock across all processes: the modelled parallel
    /// completion time once every process has finished.
    pub fn makespan(&self) -> u64 {
        self.inner.lock().clock.iter().copied().max().unwrap_or(0)
    }

    fn charge_internal(&self, proc: ProcId, resource: Option<Resource>, cost: u64) {
        let p = proc.index();
        let mut inner = self.inner.lock();
        debug_assert_eq!(inner.phase[p], ProcPhase::Running, "{proc} charged without start()");
        let start = match resource {
            Some(r) => {
                let busy = inner.busy.get(&r).copied().unwrap_or(0);
                inner.clock[p].max(busy)
            }
            None => inner.clock[p],
        };
        let end = start + cost;
        inner.clock[p] = end;
        if let Some(r) = resource {
            inner.busy.insert(r, end);
        }
        self.wait_until_min(p, &mut inner);
    }

    /// Blocks `p` until it is the minimal unfinished process, waking the
    /// current minimum first. Exactly one process returns from this at a
    /// time, which is what serializes execution.
    fn wait_until_min(&self, p: usize, inner: &mut parking_lot::MutexGuard<'_, Inner>) {
        loop {
            let min = inner.min_unfinished().expect("caller is unfinished");
            if min == p {
                return;
            }
            self.wakeups[min].notify_one();
            self.wakeups[p].wait(inner);
        }
    }
}

/// [`Timing`] facade over a [`SimScheduler`].
///
/// Cloning shares the scheduler.
#[derive(Clone, Debug)]
pub struct SimTiming {
    scheduler: Arc<SimScheduler>,
}

impl SimTiming {
    /// The underlying scheduler.
    pub fn scheduler(&self) -> &Arc<SimScheduler> {
        &self.scheduler
    }
}

impl Timing for SimTiming {
    fn charge(&self, proc: ProcId, resource: Resource) {
        let cost = self.scheduler.model.cost(proc, resource, &self.scheduler.topology);
        self.scheduler.charge_internal(proc, Some(resource), cost);
    }

    fn charge_work(&self, proc: ProcId, ns: u64) {
        if ns == 0 {
            return;
        }
        self.scheduler.charge_internal(proc, None, ns);
    }

    fn now(&self, proc: ProcId) -> u64 {
        self.scheduler.clock(proc)
    }

    // `is_wall_clock` keeps its default (`false`): the virtual clock is the
    // model's output, so the pool times every operation and the paper's
    // figures stay exact.
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpool::SegIdx;
    use std::thread;

    fn uniform_sched(procs: usize, ns: u64) -> Arc<SimScheduler> {
        SimScheduler::new(procs, LatencyModel::uniform(ns), Topology::identity(procs))
    }

    #[test]
    fn single_process_accumulates_cost() {
        let sched = uniform_sched(1, 100);
        let timing = sched.timing();
        let p = ProcId::new(0);
        sched.start(p);
        for _ in 0..5 {
            timing.charge(p, Resource::Segment(SegIdx::new(0)));
        }
        timing.charge_work(p, 42);
        sched.finish(p);
        assert_eq!(sched.clock(p), 542);
        assert_eq!(sched.makespan(), 542);
    }

    #[test]
    fn independent_resources_run_in_parallel() {
        // Two processes hammer two different segments: virtual time overlaps
        // perfectly, so the makespan equals one process's own cost.
        let sched = uniform_sched(2, 50);
        thread::scope(|s| {
            for p in 0..2 {
                let sched = Arc::clone(&sched);
                s.spawn(move || {
                    let timing = sched.timing();
                    let me = ProcId::new(p);
                    sched.start(me);
                    for _ in 0..100 {
                        timing.charge(me, Resource::Segment(SegIdx::new(p)));
                    }
                    sched.finish(me);
                });
            }
        });
        assert_eq!(sched.makespan(), 100 * 50, "no shared resource, no queueing");
    }

    #[test]
    fn shared_resource_serializes() {
        // Two processes hammer the SAME resource: accesses queue, so the
        // makespan is the sum of all costs.
        let sched = uniform_sched(2, 50);
        thread::scope(|s| {
            for p in 0..2 {
                let sched = Arc::clone(&sched);
                s.spawn(move || {
                    let timing = sched.timing();
                    let me = ProcId::new(p);
                    sched.start(me);
                    for _ in 0..100 {
                        timing.charge(me, Resource::Shared(0));
                    }
                    sched.finish(me);
                });
            }
        });
        assert_eq!(sched.makespan(), 2 * 100 * 50, "hot spot fully serialized");
    }

    #[test]
    fn execution_is_deterministic() {
        // Record the global order of (proc, i) sections across two runs.
        let run = || {
            let sched = uniform_sched(3, 10);
            let order = Arc::new(Mutex::new(Vec::new()));
            thread::scope(|s| {
                for p in 0..3 {
                    let sched = Arc::clone(&sched);
                    let order = Arc::clone(&order);
                    s.spawn(move || {
                        let timing = sched.timing();
                        let me = ProcId::new(p);
                        sched.start(me);
                        for i in 0..50 {
                            // Shared state touched while holding the run
                            // token: ordering must be reproducible.
                            order.lock().push((p, i));
                            timing.charge_work(me, (p as u64 + 1) * 7);
                        }
                        sched.finish(me);
                    });
                }
            });
            Arc::try_unwrap(order).unwrap().into_inner()
        };
        assert_eq!(run(), run(), "same schedule on every run");
    }

    #[test]
    fn makespan_sees_uneven_finishers() {
        let sched = uniform_sched(2, 1);
        thread::scope(|s| {
            for p in 0..2 {
                let sched = Arc::clone(&sched);
                s.spawn(move || {
                    let timing = sched.timing();
                    let me = ProcId::new(p);
                    sched.start(me);
                    let work = if p == 0 { 10 } else { 1000 };
                    timing.charge_work(me, work);
                    sched.finish(me);
                });
            }
        });
        assert_eq!(sched.makespan(), 1000);
    }

    #[test]
    fn zero_work_charge_is_free() {
        let sched = uniform_sched(1, 10);
        let timing = sched.timing();
        sched.start(ProcId::new(0));
        timing.charge_work(ProcId::new(0), 0);
        sched.finish(ProcId::new(0));
        assert_eq!(sched.makespan(), 0);
    }

    #[test]
    #[should_panic(expected = "started twice")]
    fn double_start_panics() {
        let sched = uniform_sched(2, 1);
        sched.start(ProcId::new(0));
        sched.start(ProcId::new(0));
    }

    #[test]
    fn numa_costs_flow_through() {
        let sched = SimScheduler::new(2, LatencyModel::butterfly(), Topology::identity(2));
        let timing = sched.timing();
        let p = ProcId::new(0);
        thread::scope(|s| {
            // Park proc 1 at a huge clock so proc 0 can run alone.
            let sched2 = Arc::clone(&sched);
            s.spawn(move || {
                let t = sched2.timing();
                let me = ProcId::new(1);
                sched2.start(me);
                t.charge_work(me, 10_000_000);
                sched2.finish(me);
            });
            let sched0 = Arc::clone(&sched);
            s.spawn(move || {
                sched0.start(p);
                timing.charge(p, Resource::Segment(SegIdx::new(0))); // local: 10 µs
                timing.charge(p, Resource::Segment(SegIdx::new(1))); // remote: 40 µs
                assert_eq!(sched0.clock(p), 50_000);
                sched0.finish(p);
            });
        });
    }
}
