//! Real-thread cost injection: the paper's own method.
//!
//! "To simulate a higher-cost remote access architecture, delays were added
//! to each remote operation (attempt to steal from a segment) and to each
//! access of nodes in the superimposed tree." — §4.3.
//!
//! [`RealTiming`] runs on ordinary OS threads and busy-waits the modelled
//! cost of every charged access. Concurrency is whatever the host provides;
//! results are *not* deterministic (use [`SimTiming`](crate::SimTiming) for
//! that), but the code path is identical to the paper's: real threads, real
//! locks, injected delays.

use std::time::{Duration, Instant};

use cpool::{ProcId, Resource, Timing};

use crate::latency::LatencyModel;
use crate::spin::spin_for;
use crate::topology::Topology;

/// Spin-injects modelled access costs on real threads.
#[derive(Debug)]
pub struct RealTiming {
    model: LatencyModel,
    topology: Topology,
    origin: Instant,
}

impl RealTiming {
    /// Creates a real-thread cost injector.
    pub fn new(model: LatencyModel, topology: Topology) -> Self {
        RealTiming { model, topology, origin: Instant::now() }
    }

    /// The latency model in use.
    pub fn model(&self) -> LatencyModel {
        self.model
    }

    /// The topology in use.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }
}

impl Timing for RealTiming {
    fn charge(&self, proc: ProcId, resource: Resource) {
        let cost = self.model.cost(proc, resource, &self.topology);
        spin_for(Duration::from_nanos(cost));
    }

    fn charge_work(&self, _proc: ProcId, ns: u64) {
        spin_for(Duration::from_nanos(ns));
    }

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
    use cpool::SegIdx;

    #[test]
    fn remote_charge_takes_longer_than_local() {
        let model = LatencyModel {
            local_segment_ns: 0,
            remote_segment_ns: 300_000, // 300 µs: far above timer noise
            tree_node_ns: 0,
            remote_delay_ns: 0,
        };
        let timing = RealTiming::new(model, Topology::identity(2));
        let p = ProcId::new(0);

        let t0 = Instant::now();
        timing.charge(p, Resource::Segment(SegIdx::new(0))); // local: free
        let local = t0.elapsed();

        let t1 = Instant::now();
        timing.charge(p, Resource::Segment(SegIdx::new(1))); // remote: 300 µs
        let remote = t1.elapsed();

        assert!(remote >= Duration::from_micros(300));
        assert!(remote > local);
    }

    #[test]
    fn clock_advances() {
        let timing = RealTiming::new(LatencyModel::uniform(0), Topology::identity(1));
        let a = timing.now(ProcId::new(0));
        spin_for(Duration::from_micros(50));
        let b = timing.now(ProcId::new(0));
        assert!(b > a);
    }
}
