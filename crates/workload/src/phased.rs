//! Phased workloads: the paper's "initial / stable / termination" sketch.
//!
//! "It is easy to imagine an application which has an initial phase with
//! more than sufficient adds (as the pool is filled), a stable phase, and a
//! more sparse termination phase (as the pool is emptied). Our experiments
//! have essentially examined these phases separately." (§3.5)
//!
//! [`PhasedStream`] chains operation streams so the phases can also be
//! examined *together*, an extension the paper suggests but does not run.

use crate::stream::{Op, OpStream};

/// A stream that switches between sub-streams after fixed operation counts.
///
/// The final phase runs forever (streams are endless; the experiment's
/// budget terminates the trial).
pub struct PhasedStream {
    phases: Vec<(u64, Box<dyn OpStream>)>,
    current: usize,
    issued_in_phase: u64,
}

impl std::fmt::Debug for PhasedStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PhasedStream")
            .field("phases", &self.phases.len())
            .field("current", &self.current)
            .field("issued_in_phase", &self.issued_in_phase)
            .finish()
    }
}

impl PhasedStream {
    /// Creates a phased stream from `(ops, stream)` pairs; the last phase's
    /// count is ignored (it runs until the trial ends).
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty.
    pub fn new(phases: Vec<(u64, Box<dyn OpStream>)>) -> Self {
        assert!(!phases.is_empty(), "phased stream needs at least one phase");
        PhasedStream { phases, current: 0, issued_in_phase: 0 }
    }

    /// Index of the phase currently issuing operations.
    pub fn current_phase(&self) -> usize {
        self.current
    }
}

impl OpStream for PhasedStream {
    fn next_op(&mut self) -> Op {
        // Advance to the next phase when the current one is spent (never
        // leaving the final phase).
        while self.current + 1 < self.phases.len()
            && self.issued_in_phase >= self.phases[self.current].0
        {
            self.current += 1;
            self.issued_in_phase = 0;
        }
        self.issued_in_phase += 1;
        self.phases[self.current].1.next_op()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrangement::Role;
    use crate::stream::RoleStream;

    fn fill_then_drain(fill: u64) -> PhasedStream {
        PhasedStream::new(vec![
            (fill, Box::new(RoleStream::new(Role::Producer))),
            (0, Box::new(RoleStream::new(Role::Consumer))),
        ])
    }

    #[test]
    fn switches_after_phase_budget() {
        let mut s = fill_then_drain(3);
        assert_eq!(s.next_op(), Op::Add);
        assert_eq!(s.next_op(), Op::Add);
        assert_eq!(s.next_op(), Op::Add);
        assert_eq!(s.current_phase(), 0, "switch happens lazily on the next draw");
        assert_eq!(s.next_op(), Op::Remove);
        assert_eq!(s.current_phase(), 1);
    }

    #[test]
    fn final_phase_is_endless() {
        let mut s = fill_then_drain(1);
        let _ = s.next_op();
        for _ in 0..100 {
            assert_eq!(s.next_op(), Op::Remove);
        }
    }

    #[test]
    fn zero_length_middle_phases_are_skipped() {
        let mut s = PhasedStream::new(vec![
            (1, Box::new(RoleStream::new(Role::Producer))),
            (0, Box::new(RoleStream::new(Role::Producer))),
            (0, Box::new(RoleStream::new(Role::Consumer))),
        ]);
        assert_eq!(s.next_op(), Op::Add);
        assert_eq!(s.next_op(), Op::Remove, "empty middle phase skipped");
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_phases_panic() {
        let _ = PhasedStream::new(Vec::new());
    }
}
