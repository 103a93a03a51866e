//! Segment-size traces: the raw material of Figures 3–6.
//!
//! "Each processor recorded its segment size at strategic points in the
//! program; these sizes were then plotted on the same time scale for
//! comparison. A steal is obvious as a sudden drop in the size of one
//! segment and a corresponding sudden increase in the size of another
//! segment." — Kotz & Ellis, §4.2.
//!
//! The [`TraceRecorder`] keeps one append-only buffer per process (so
//! recording never contends) and merges them into a single time-ordered
//! sequence on demand.

use parking_lot::Mutex;

use crate::ids::{ProcId, SegIdx};

/// What kind of event a trace sample marks.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TraceKind {
    /// Local add completed.
    Add,
    /// Local remove completed.
    Remove,
    /// This segment was just stolen from (size dropped).
    StealFrom,
    /// This segment just received stolen elements (size jumped).
    StealInto,
}

/// One segment-size sample.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceEvent {
    /// Timestamp (nanoseconds of the pool's clock).
    pub t_ns: u64,
    /// Process that caused the event.
    pub proc: ProcId,
    /// Segment whose size is reported.
    pub seg: SegIdx,
    /// Segment size immediately after the event.
    pub len: u32,
    /// Event kind.
    pub kind: TraceKind,
}

/// Per-process trace buffers for segment sizes over time.
#[derive(Debug)]
pub struct TraceRecorder {
    buffers: Box<[Mutex<Vec<TraceEvent>>]>,
}

impl TraceRecorder {
    /// Creates a recorder for `procs` processes.
    pub fn new(procs: usize) -> Self {
        TraceRecorder { buffers: (0..procs).map(|_| Mutex::new(Vec::new())).collect() }
    }

    /// Records one event on `event.proc`'s buffer.
    ///
    /// Process ids are never reused, so a handle registered after another
    /// dropped gets an id past the buffer count; ids fold onto the buffers
    /// modulo their number. Events carry their process, so the merged
    /// [`snapshot_sorted`](Self::snapshot_sorted) order is unaffected. A
    /// recorder with no buffers records nothing.
    pub fn record(&self, event: TraceEvent) {
        if !self.buffers.is_empty() {
            self.buffers[event.proc.index() % self.buffers.len()].lock().push(event);
        }
    }

    /// Total number of recorded events.
    pub fn len(&self) -> usize {
        self.buffers.iter().map(|b| b.lock().len()).sum()
    }

    /// Whether no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Merges all buffers into one sequence sorted by time (ties broken by
    /// process id for determinism).
    pub fn snapshot_sorted(&self) -> Vec<TraceEvent> {
        let mut all: Vec<TraceEvent> = self.buffers.iter().flat_map(|b| b.lock().clone()).collect();
        all.sort_by_key(|e| (e.t_ns, e.proc, e.seg));
        all
    }

    /// The time series of sizes for one segment: `(t_ns, len)` pairs.
    pub fn segment_series(&self, seg: SegIdx) -> Vec<(u64, u32)> {
        self.snapshot_sorted()
            .into_iter()
            .filter(|e| e.seg == seg)
            .map(|e| (e.t_ns, e.len))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, proc: usize, seg: usize, len: u32, kind: TraceKind) -> TraceEvent {
        TraceEvent { t_ns: t, proc: ProcId::new(proc), seg: SegIdx::new(seg), len, kind }
    }

    #[test]
    fn records_and_sorts_across_processes() {
        let rec = TraceRecorder::new(3);
        rec.record(ev(30, 2, 2, 5, TraceKind::Add));
        rec.record(ev(10, 0, 0, 1, TraceKind::Add));
        rec.record(ev(20, 1, 1, 0, TraceKind::Remove));
        let sorted = rec.snapshot_sorted();
        assert_eq!(sorted.len(), 3);
        assert!(sorted.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
        assert_eq!(sorted[0].seg, SegIdx::new(0));
    }

    #[test]
    fn segment_series_filters() {
        let rec = TraceRecorder::new(2);
        rec.record(ev(1, 0, 0, 10, TraceKind::Add));
        rec.record(ev(2, 1, 1, 3, TraceKind::Add));
        rec.record(ev(3, 1, 0, 5, TraceKind::StealFrom));
        assert_eq!(rec.segment_series(SegIdx::new(0)), vec![(1, 10), (3, 5)]);
        assert_eq!(rec.segment_series(SegIdx::new(1)), vec![(2, 3)]);
    }

    #[test]
    fn late_registrant_events_are_recorded() {
        use crate::pool::{Pool, PoolBuilder};
        use crate::search::LinearSearch;
        use crate::segment::LockedCounter;

        // Process ids are never reused: after the first handle drops, the
        // second registers as process 1 on a one-segment pool.
        let pool: Pool<LockedCounter, LinearSearch> =
            PoolBuilder::new(1).record_trace(true).build();
        drop(pool.register());
        let mut late = pool.register();
        assert_eq!(late.proc_id(), ProcId::new(1));
        late.add(());
        let events = pool.trace().unwrap().snapshot_sorted();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].proc, late.proc_id());
        assert_eq!(events[0].kind, TraceKind::Add);
    }

    #[test]
    fn empty_recorder_records_nothing() {
        let rec = TraceRecorder::new(0);
        rec.record(ev(1, 5, 0, 1, TraceKind::Add));
        assert!(rec.is_empty());
    }

    #[test]
    fn tie_break_is_deterministic() {
        let rec = TraceRecorder::new(2);
        rec.record(ev(7, 1, 1, 1, TraceKind::Add));
        rec.record(ev(7, 0, 0, 2, TraceKind::Add));
        let sorted = rec.snapshot_sorted();
        assert_eq!(sorted[0].proc, ProcId::new(0), "equal times ordered by process id");
    }
}
