//! # Workload generators for concurrent-pool experiments
//!
//! §3.3 of Kotz & Ellis (1989) drives the pool with "perhaps two of the
//! most likely patterns of access":
//!
//! * the **random operations model** — every process draws adds and removes
//!   at random to fit a predetermined overall *job mix* (fraction of adds),
//!   swept from 0% to 100% in steps of 10%;
//! * the **producer/consumer model** — a fixed subset of processes only add
//!   while the rest only remove, with the producer *arrangement*
//!   (contiguous vs. spread out) turning out to matter a great deal (§4.2).
//!
//! Job mixes of ≥ 50% adds are *sufficient* (at least as many adds as
//! removes); below 50% they are *sparse*.
//!
//! A trial performs a fixed **combined** number of operations: "rather than
//! executing a fixed number of operations in each process, the processes
//! performed operations until the combined total number of operations
//! reached the desired amount" — that is [`OpBudget`].

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod arrangement;
pub mod budget;
pub mod bursty;
pub mod mix;
pub mod phased;
pub mod stream;
pub mod zipf;

pub use arrangement::{Arrangement, Role};
pub use budget::OpBudget;
pub use bursty::BurstyStream;
pub use mix::{JobMix, KeyedMix, KeyedMixStream};
pub use phased::PhasedStream;
pub use stream::{Op, OpStream, RandomMixStream, RoleStream};
pub use zipf::{KeyDist, KeyStream, Keys, UniformKeys, ZipfKeys};

use std::fmt;

/// A complete workload specification: what every process does.
///
/// This is the configuration surface the experiment harness sweeps.
#[derive(Clone, Debug, PartialEq)]
pub enum Workload {
    /// Random operations model: all processes draw from the same job mix.
    RandomMix {
        /// Target fraction of adds.
        mix: JobMix,
    },
    /// Producer/consumer model with a given number of producers arranged by
    /// the given policy.
    ProducerConsumer {
        /// Number of producer processes.
        producers: usize,
        /// How producers are placed among the process ids.
        arrangement: Arrangement,
    },
    /// §3.5's application lifecycle, run as one workload instead of three:
    /// each process works through `(ops, mix)` phases in order (the final
    /// phase lasts until the trial's budget ends). "It is easy to imagine
    /// an application which has an initial phase with more than sufficient
    /// adds (as the pool is filled), a stable phase, and a more sparse
    /// termination phase (as the pool is emptied). Our experiments have
    /// essentially examined these phases separately."
    Phased {
        /// The per-process phases: operation count and job mix of each.
        phases: Vec<(u64, JobMix)>,
    },
}

impl Workload {
    /// Builds the operation stream for process `proc` of `procs` total,
    /// deterministically derived from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if a producer/consumer workload has more producers than
    /// processes.
    pub fn stream_for(&self, proc: usize, procs: usize, seed: u64) -> Box<dyn OpStream> {
        match self {
            Workload::RandomMix { mix } => {
                Box::new(RandomMixStream::new(*mix, per_proc_seed(seed, proc)))
            }
            Workload::ProducerConsumer { producers, arrangement } => {
                let roles = arrangement.roles(procs, *producers);
                Box::new(RoleStream::new(roles[proc]))
            }
            Workload::Phased { phases } => {
                assert!(!phases.is_empty(), "phased workload needs at least one phase");
                let streams = phases
                    .iter()
                    .enumerate()
                    .map(|(i, (ops, mix))| {
                        // Distinct seed per (process, phase) so phases do not
                        // replay each other's draw sequences.
                        let seed = per_proc_seed(seed ^ (i as u64).wrapping_mul(0xA5A5_5A5A), proc);
                        (*ops, Box::new(RandomMixStream::new(*mix, seed)) as Box<dyn OpStream>)
                    })
                    .collect();
                Box::new(PhasedStream::new(streams))
            }
        }
    }

    /// The role of process `proc` under this workload (producer/consumer
    /// workloads only).
    pub fn role_of(&self, proc: usize, procs: usize) -> Option<Role> {
        match self {
            Workload::RandomMix { .. } | Workload::Phased { .. } => None,
            Workload::ProducerConsumer { producers, arrangement } => {
                Some(arrangement.roles(procs, *producers)[proc])
            }
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Workload::RandomMix { mix } => write!(f, "random({mix})"),
            Workload::ProducerConsumer { producers, arrangement } => {
                write!(f, "prodcons({producers} {arrangement})")
            }
            Workload::Phased { phases } => {
                write!(f, "phased(")?;
                for (i, (ops, mix)) in phases.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "{ops}@{mix}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// Derives a per-process seed from an experiment seed.
///
/// SplitMix64-style mixing: adjacent inputs yield statistically independent
/// outputs, so process streams do not correlate.
pub fn per_proc_seed(seed: u64, proc: usize) -> u64 {
    let mut z = seed ^ (proc as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_mix_streams_differ_per_proc() {
        let w = Workload::RandomMix { mix: JobMix::from_percent(50) };
        let take = |proc: usize| -> Vec<Op> {
            let mut s = w.stream_for(proc, 4, 9);
            (0..32).map(|_| s.next_op()).collect()
        };
        assert_ne!(take(0), take(1), "processes draw independent sequences");
        assert_eq!(take(0), take(0), "but each is deterministic");
    }

    #[test]
    fn producer_consumer_roles_are_pure() {
        let w = Workload::ProducerConsumer { producers: 5, arrangement: Arrangement::Contiguous };
        for proc in 0..16 {
            let mut s = w.stream_for(proc, 16, 0);
            let expected = if proc < 5 { Op::Add } else { Op::Remove };
            for _ in 0..8 {
                assert_eq!(s.next_op(), expected);
            }
            assert_eq!(
                w.role_of(proc, 16),
                Some(if proc < 5 { Role::Producer } else { Role::Consumer })
            );
        }
    }

    #[test]
    fn display_forms() {
        let w = Workload::RandomMix { mix: JobMix::from_percent(30) };
        assert_eq!(w.to_string(), "random(30%)");
        let w = Workload::ProducerConsumer { producers: 5, arrangement: Arrangement::Balanced };
        assert_eq!(w.to_string(), "prodcons(5 balanced)");
    }

    #[test]
    fn phased_workload_switches_mixes() {
        let w = Workload::Phased {
            phases: vec![(8, JobMix::from_percent(100)), (0, JobMix::from_percent(0))],
        };
        let mut s = w.stream_for(0, 4, 42);
        for _ in 0..8 {
            assert_eq!(s.next_op(), Op::Add, "fill phase is pure adds");
        }
        for _ in 0..16 {
            assert_eq!(s.next_op(), Op::Remove, "drain phase is pure removes");
        }
        assert_eq!(w.role_of(0, 4), None);
        assert_eq!(w.to_string(), "phased(8@100% 0@0%)");
    }

    #[test]
    fn phased_streams_differ_per_proc_and_phase() {
        let w = Workload::Phased {
            phases: vec![(50, JobMix::from_percent(50)), (0, JobMix::from_percent(50))],
        };
        let take = |proc: usize| -> Vec<Op> {
            let mut s = w.stream_for(proc, 4, 9);
            (0..100).map(|_| s.next_op()).collect()
        };
        assert_ne!(take(0), take(1), "processes draw independent sequences");
        let seq = take(2);
        assert_ne!(seq[..50], seq[50..], "phases reseed rather than replay");
    }

    #[test]
    fn per_proc_seed_spreads() {
        let seeds: Vec<u64> = (0..64).map(|p| per_proc_seed(1, p)).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len(), "no collisions across processes");
    }
}
