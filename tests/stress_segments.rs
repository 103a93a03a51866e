//! N×M stress tests for the element segments themselves — the layer between
//! the lock-free primitives (`stress_primitives.rs`) and the whole-pool
//! suites: owner fleets churn `add`/`try_remove` on a segment family while
//! thief fleets run the two-phase `steal_half` → `add_bulk` transfer
//! between family members, under hard watchdog deadlines.
//!
//! Run for every element segment — the mutex deque, the fully lock-free
//! `LfSegment`, the sharded `LaneSegment` over both, and the key-bucketed
//! `KeyedSegment` — the driver asserts the two properties that survive any interleaving:
//!
//! * **conservation** — globally unique values, checksummed: every element
//!   added is consumed or still resident exactly once, so loss and
//!   duplication (an ABA'd queue block, a double-counted occupancy
//!   reservation, a lane sweep racing a deposit) both shift the sum;
//! * **termination** — steals and removes keep making progress (the
//!   watchdog turns a livelock — e.g. an occupancy reservation that can
//!   never be honored, or a lane sweep forever skipping a "busy" lane —
//!   into a fast failure instead of a hung CI job).
//!
//! CI runs this file under `--release` behind a hard `timeout`, like the
//! primitive stress suite: optimized codegen shrinks the race windows the
//! dev profile masks.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use cpool::keyed::KeyedSegment;
use cpool::{LaneSegment, LfSegment, Segment, VecSegment};

/// Runs `scenario` on its own thread and panics if it does not finish
/// within `deadline` (the lifecycle-test watchdog pattern).
fn with_deadline(deadline: Duration, scenario: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    let runner = thread::spawn(move || {
        scenario();
        let _ = tx.send(());
    });
    match rx.recv_timeout(deadline) {
        Ok(()) => runner.join().expect("scenario panicked"),
        Err(_) => panic!("segment stress exceeded its {deadline:?} deadline: livelock"),
    }
}

const SEGMENTS: usize = 3;
const OWNERS: usize = 3;
const THIEVES: usize = 3;
const PER_OWNER: u64 = 20_000;

/// Values owner `o` adds: globally unique and nonzero, so duplication
/// shifts the checksum just as surely as loss.
fn values_of(o: usize) -> impl Iterator<Item = u64> {
    let base = o as u64 * PER_OWNER;
    (base..base + PER_OWNER).map(|v| v + 1)
}

fn expected_checksum() -> u64 {
    (0..OWNERS).flat_map(values_of).sum()
}

/// The generic fleet: `OWNERS` threads churn add/remove against their home
/// segment of a family while `THIEVES` threads continuously steal from
/// every segment and deposit into their own — elements bounce between
/// family members through the native batch currency the whole time.
/// `make` builds the element for a value and `value` reads it back for the
/// checksum.
fn segment_fleet_conservation<S: Segment>(make: fn(u64) -> S::Item, value: fn(S::Item) -> u64) {
    let family = S::new_family(SEGMENTS);
    let consumed = AtomicU64::new(0);
    let live_owners = AtomicU64::new(OWNERS as u64);
    thread::scope(|s| {
        for o in 0..OWNERS {
            let (family, consumed, live_owners) = (&family, &consumed, &live_owners);
            s.spawn(move || {
                let home = &family[o % SEGMENTS];
                let mut sum = 0u64;
                for (i, v) in values_of(o).enumerate() {
                    home.add(make(v));
                    // Every other op, take one back — from anywhere in the
                    // family, since a thief may have moved ours.
                    if i % 2 == 0 {
                        for seg in family {
                            if let Some(got) = seg.try_remove() {
                                sum += value(got);
                                break;
                            }
                        }
                    }
                    if i % 1024 == 0 {
                        thread::yield_now();
                    }
                }
                consumed.fetch_add(sum, Ordering::Relaxed);
                live_owners.fetch_sub(1, Ordering::Release);
            });
        }
        for t in 0..THIEVES {
            let (family, live_owners) = (&family, &live_owners);
            s.spawn(move || {
                let mut rounds = 0usize;
                loop {
                    let victim = &family[(t + rounds) % SEGMENTS];
                    let target = &family[(t + rounds + 1) % SEGMENTS];
                    let batch = victim.steal_half();
                    // The emptied shell recycles inside the family.
                    target.add_bulk(batch);
                    rounds += 1;
                    if live_owners.load(Ordering::Acquire) == 0 {
                        break;
                    }
                    if rounds.is_multiple_of(64) {
                        thread::yield_now();
                    }
                }
            });
        }
    });
    // Settle the books single-threaded: residue + consumed == pushed.
    let mut residue = 0u64;
    for seg in &family {
        residue += seg.drain_all().into_iter().map(value).sum::<u64>();
        assert!(seg.is_empty(), "drain_all leaves the segment empty");
        assert_eq!(seg.len(), 0, "occupancy agrees with emptiness at quiescence");
    }
    assert_eq!(
        consumed.load(Ordering::Relaxed) + residue,
        expected_checksum(),
        "every added value must be consumed or resident exactly once"
    );
}

fn id(v: u64) -> u64 {
    v
}

#[test]
fn vec_segment_fleet_conservation() {
    with_deadline(Duration::from_secs(120), || {
        segment_fleet_conservation::<VecSegment<u64>>(id, id);
    });
}

#[test]
fn lf_segment_fleet_conservation() {
    with_deadline(Duration::from_secs(120), || {
        segment_fleet_conservation::<LfSegment<u64>>(id, id);
    });
}

#[test]
fn lane_over_vec_fleet_conservation() {
    with_deadline(Duration::from_secs(120), || {
        segment_fleet_conservation::<LaneSegment<VecSegment<u64>, 4>>(id, id);
    });
}

#[test]
fn lane_over_lf_fleet_conservation() {
    with_deadline(Duration::from_secs(120), || {
        segment_fleet_conservation::<LaneSegment<LfSegment<u64>, 2>>(id, id);
    });
}

/// The keyed segment over several keys: thieves take half of the largest
/// bucket, refills land bucket-wise, and owners remove any key.
#[test]
fn keyed_segment_fleet_conservation() {
    with_deadline(Duration::from_secs(120), || {
        segment_fleet_conservation::<KeyedSegment<u8, u64>>(|v| ((v % 7) as u8, v), |(_, v)| v);
    });
}

/// The lane-sweep regression, concurrent edition: a producer with one fixed
/// affinity funnels everything into a single lane while thieves whose home
/// lanes all differ steal continuously. If the sweep (or the summed
/// occupancy probe) could skip a lane holding real elements, the thieves
/// would never collect the full checksum and the watchdog would fire.
#[test]
fn lane_sweep_never_skips_a_loaded_lane() {
    with_deadline(Duration::from_secs(120), || {
        let seg: LaneSegment<VecSegment<u64>, 4> = LaneSegment::new();
        let total: u64 = (1..=50_000u64).sum();
        let stolen = AtomicU64::new(0);
        thread::scope(|s| {
            let (seg, stolen) = (&seg, &stolen);
            s.spawn(move || {
                for v in 1..=50_000u64 {
                    seg.add(v);
                }
            });
            for _ in 0..THIEVES {
                s.spawn(move || {
                    // Thieves run until the full checksum is accounted for:
                    // termination itself is the property under test.
                    while stolen.load(Ordering::Acquire) < total {
                        let sum: u64 = seg.steal_half().into_iter().sum();
                        if sum == 0 {
                            thread::yield_now();
                        } else {
                            stolen.fetch_add(sum, Ordering::AcqRel);
                        }
                    }
                });
            }
        });
        assert_eq!(stolen.load(Ordering::Relaxed), total);
        assert!(seg.is_empty());
    });
}

/// Same regression for the lock-free segment: occupancy is the primary
/// counter, so a counted element must always be poppable — thieves and a
/// single remover must jointly account for every value.
#[test]
fn lf_occupancy_never_strands_elements() {
    with_deadline(Duration::from_secs(120), || {
        let seg: LfSegment<u64> = LfSegment::new();
        let total: u64 = (1..=50_000u64).sum();
        let taken = AtomicU64::new(0);
        thread::scope(|s| {
            let (seg, taken) = (&seg, &taken);
            s.spawn(move || {
                for v in 1..=50_000u64 {
                    seg.add(v);
                }
            });
            for t in 0..THIEVES {
                s.spawn(move || {
                    while taken.load(Ordering::Acquire) < total {
                        let sum: u64 = if t == 0 {
                            seg.try_remove().unwrap_or(0)
                        } else {
                            seg.steal_half().into_iter().sum()
                        };
                        if sum == 0 {
                            thread::yield_now();
                        } else {
                            taken.fetch_add(sum, Ordering::AcqRel);
                        }
                    }
                });
            }
        });
        assert_eq!(taken.load(Ordering::Relaxed), total);
        assert_eq!(seg.len(), 0);
    });
}
