//! The four workloads, each a closed loop on [`THREADS`] real threads over
//! a [`SEGMENTS`]-segment pool: every thread issues its next operation only
//! after the previous one returned.
//!
//! Each thread runs a fixed operation count per round from its own
//! seeded stream. The paper's §3.4 runs instead share one combined budget
//! (`workload::OpBudget`), but taking from that shared counter costs about
//! 50 ns per operation on two threads — more than half of a dense-mix
//! operation — so the load here is generated without it.
//!
//! A round builds a fresh pool, runs the threads, then closes and drains
//! the pool and checks what came out against what went in.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

use baselines::{Done, PoolWorkHandle, PoolWorkList, SharedWorkList, WorkHandle};
use cpool::{
    KeyedHandle, KeyedPool, KeyedPoolBuilder, LinearSearch, NullTiming, PolicyKind, Pool,
    PoolBuilder, PoolCounters, PoolOps, ProcId, ProcStats, RemoveError, VecSegment,
};
use ttt::{expand_parallel, ExpansionConfig, SearchResult, WorkItem};
use workload::{per_proc_seed, JobMix, KeyStream, Op, OpStream, RandomMixStream, ZipfKeys};

use crate::measure::{Ledger, Sampler, MAGAZINE_GAP, MEAN_GAP};

/// Worker threads per workload: `nproc` of the 2-vCPU Xeon VM the bounds
/// in `BENCHMARK.json` were set on. The command refuses to run on fewer CPUs.
pub const THREADS: usize = 2;
/// Pool segments: one per thread, as in the paper.
pub const SEGMENTS: usize = 2;

/// Elements in the `mix40` pool before a round (§3.4: "initialized with
/// only 320 elements").
pub const MIX40_PREFILL: usize = 320;
/// Per-thread burst length of `magazine`. Bursts must fit the two
/// magazines of both handles plus the depot ((2·2 + 2) rings × 32), or
/// the hit share swings with the threads' interleaving.
pub const MAGAZINE_BURST: u64 = 128;
/// Magazine depth of `magazine` (`PoolBuilder::handle_cache`).
pub const MAGAZINE_DEPTH: usize = 32;
/// Key space of `zipf`; every key starts with one element.
pub const ZIPF_KEYS: u64 = 512;
/// Skew of the `zipf` key stream.
pub const ZIPF_S: f64 = 1.1;
/// Plies of the `ttt` expansion (§4.4: the first three moves).
pub const TTT_DEPTH: u8 = 3;

/// Bits of a keyed value that carry its key.
const KEY_BITS: u32 = 9;

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// §3.3 random operations at 40 % adds, uncached, `try_remove`.
    Mix40,
    /// §4.4 depth-3 game-tree expansion over the pool-backed work list.
    Ttt,
    /// Alternating 128-add / 128-remove bursts over 32-deep magazines.
    Magazine,
    /// Keyed add + remove pairs over Zipf(1.1) keys.
    Zipf,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] =
        [Workload::Mix40, Workload::Ttt, Workload::Magazine, Workload::Zipf];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Mix40 => "mix40",
            Workload::Ttt => "ttt",
            Workload::Magazine => "magazine",
            Workload::Zipf => "zipf",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Operations per thread per round.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// `mix40` operations.
    pub mix40_ops: u64,
    /// `magazine` bursts (each [`MAGAZINE_BURST`] adds then as many removes).
    pub magazine_bursts: u64,
    /// `zipf` add + remove pairs.
    pub zipf_pairs: u64,
}

impl Scale {
    /// The benchmark's rounds: roughly 0.05–0.1 s each on a 2-vCPU Xeon VM.
    pub const FULL: Scale =
        Scale { mix40_ops: 200_000, magazine_bursts: 16_000, zipf_pairs: 100_000 };
    /// A few milliseconds per round, for the self-test.
    pub const SMALL: Scale = Scale { mix40_ops: 4_000, magazine_bursts: 40, zipf_pairs: 2_000 };
}

/// The path a sampled operation took, read from its handle's statistics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Path {
    /// Uncached add into the home segment.
    AddLocal,
    /// Uncached remove served by the home segment.
    RemoveLocal,
    /// Remove that stole from another segment.
    RemoveSteal,
    /// Remove aborted by the §3.2 gate.
    RemoveAbort,
    /// Add or remove served by the handle's magazines alone.
    MagazineHit,
    /// Add or remove that exchanged a magazine with the depot.
    MagazineExchange,
    /// Keyed add + remove pair.
    KeyedPair,
}

impl Path {
    /// Every path, in reporting order.
    pub const ALL: [Path; 7] = [
        Path::AddLocal,
        Path::RemoveLocal,
        Path::RemoveSteal,
        Path::RemoveAbort,
        Path::MagazineHit,
        Path::MagazineExchange,
        Path::KeyedPair,
    ];
}

/// Sampled latencies per [`Path`], indexed by `Path as usize`.
pub type PathSamples = [Vec<u32>; 7];

/// What kind of operation a sample timed.
#[derive(Clone, Copy)]
enum Kind {
    Add,
    Remove,
    Pair,
}

/// The counters that tell the paths apart.
#[derive(Clone, Copy)]
struct Snap {
    hits: u64,
    exchanges: u64,
    steals: u64,
}

impl Snap {
    fn of(s: &ProcStats) -> Snap {
        Snap { hits: s.magazine_hits, exchanges: s.depot_exchanges, steals: s.steals }
    }
}

fn classify(kind: Kind, before: Snap, after: Snap, ok: bool) -> Path {
    let exchanged = after.exchanges > before.exchanges;
    match kind {
        Kind::Pair => Path::KeyedPair,
        Kind::Remove if !ok => Path::RemoveAbort,
        _ if exchanged => Path::MagazineExchange,
        _ if after.hits > before.hits => Path::MagazineHit,
        Kind::Add => Path::AddLocal,
        Kind::Remove if after.steals > before.steals => Path::RemoveSteal,
        Kind::Remove => Path::RemoveLocal,
    }
}

/// A handle whose statistics a probe can read across a call.
trait HasStats {
    fn proc_stats(&self) -> &ProcStats;
}

type PlainPool = Pool<VecSegment<u64>, LinearSearch>;
type PlainHandle = cpool::Handle<VecSegment<u64>, LinearSearch>;

impl HasStats for PlainHandle {
    fn proc_stats(&self) -> &ProcStats {
        self.stats()
    }
}

impl HasStats for KeyedHandle<u64, u64> {
    fn proc_stats(&self) -> &ProcStats {
        self.stats()
    }
}

/// One thread's latency sampling; `traced` adds path classification.
struct Probe {
    sampler: Sampler,
    traced: bool,
    latencies: Vec<u32>,
    paths: PathSamples,
}

impl Probe {
    /// A probe for `ops` operations. The sample buffer is sized up front
    /// so the worker thread does not grow it from its own malloc arena,
    /// which would make the process's peak RSS vary from run to run.
    fn new(seed: u64, mean_gap: u32, traced: bool, ops: u64) -> Probe {
        let sampler = Sampler::new(seed, mean_gap);
        let latencies = Vec::with_capacity((2 * ops / u64::from(mean_gap)) as usize + 64);
        Probe { sampler, traced, latencies, paths: Default::default() }
    }

    /// Runs `op` on `h`, timing it when the sampler says so.
    #[inline]
    fn run<H: HasStats, R>(
        &mut self,
        h: &mut H,
        kind: Kind,
        op: impl FnOnce(&mut H) -> Result<R, RemoveError>,
    ) -> Result<R, RemoveError> {
        if !self.sampler.due() {
            return op(h);
        }
        let before = self.traced.then(|| Snap::of(h.proc_stats()));
        let t0 = Instant::now();
        let out = op(h);
        let ns = clamp_ns(t0.elapsed().as_nanos());
        self.latencies.push(ns);
        if let Some(before) = before {
            let path = classify(kind, before, Snap::of(h.proc_stats()), out.is_ok());
            self.paths[path as usize].push(ns);
        }
        out
    }
}

fn clamp_ns(ns: u128) -> u32 {
    u32::try_from(ns).unwrap_or(u32::MAX)
}

/// What one thread of a round reports.
#[derive(Default)]
struct ThreadOut {
    stats: ProcStats,
    added: Ledger,
    removed: Ledger,
    attempted: u64,
    failed: u64,
    err_answers: u64,
    spurious_aborts: u64,
    latencies: Vec<u32>,
    paths: PathSamples,
    violations: Vec<String>,
}

impl ThreadOut {
    fn take_probe(&mut self, probe: Probe) {
        self.latencies = probe.latencies;
        self.paths = probe.paths;
    }
}

/// The outcome of one round.
#[derive(Debug, Default)]
pub struct Round {
    /// Building the pool, prefilling it, registering handles and starting
    /// the threads, up to the moment every thread is ready.
    pub setup_ns: u64,
    /// From the start signal until the last thread finished its operations.
    pub wall_ns: u64,
    /// Pool operations issued.
    pub attempted: u64,
    /// Operations whose answer the workload does not expect (any `Err`
    /// except `mix40`'s §3.2 aborts on an empty pool).
    pub failed: u64,
    /// Operations that answered `Err`, expected or not.
    pub err_answers: u64,
    /// Aborts after which the pool was seen non-empty (traced rounds).
    pub spurious_aborts: u64,
    /// Sampled operation latencies of this round, ns.
    pub latencies: Vec<u32>,
    /// Sampled latencies by path (traced rounds).
    pub paths: PathSamples,
    /// The worker handles' merged statistics.
    pub stats: ProcStats,
    /// Pool-wide counters (keyed pool only).
    pub counters: PoolCounters,
    /// Checksums of every element added, and of every element removed or
    /// drained. They must be equal.
    pub added: Ledger,
    /// See [`added`](Self::added).
    pub removed: Ledger,
    /// Correctness violations found in this round.
    pub violations: Vec<String>,
}

impl Round {
    /// Checks the conservation ledger, recording a violation on mismatch.
    pub fn check_conservation(&mut self) {
        if self.added != self.removed {
            self.violations.push(format!(
                "conservation: added {:?} but removed and drained {:?}",
                self.added, self.removed
            ));
        }
    }

    fn absorb(&mut self, outs: Vec<ThreadOut>) {
        for out in outs {
            self.stats.merge(&out.stats);
            self.added.merge(&out.added);
            self.removed.merge(&out.removed);
            self.attempted += out.attempted;
            self.failed += out.failed;
            self.err_answers += out.err_answers;
            self.spurious_aborts += out.spurious_aborts;
            self.latencies.extend(out.latencies);
            for (all, mine) in self.paths.iter_mut().zip(out.paths) {
                all.extend(mine);
            }
            self.violations.extend(out.violations);
        }
    }
}

/// Starts one thread per worker, releases them together once all are
/// ready, and returns `(setup_ns, wall_ns, outputs)`. `t0` is when the
/// round's setup began.
fn drive<W: Send>(
    t0: Instant,
    workers: Vec<W>,
    body: impl Fn(usize, W) -> ThreadOut + Sync,
) -> (u64, u64, Vec<ThreadOut>) {
    let ready = Barrier::new(workers.len() + 1);
    std::thread::scope(|s| {
        let joins: Vec<_> = workers
            .into_iter()
            .enumerate()
            .map(|(t, w)| {
                let (ready, body) = (&ready, &body);
                s.spawn(move || {
                    ready.wait();
                    let out = body(t, w);
                    (out, Instant::now())
                })
            })
            .collect();
        ready.wait();
        let start = Instant::now();
        let setup_ns = (start - t0).as_nanos() as u64;
        let mut outs = Vec::with_capacity(joins.len());
        let mut end = start;
        for j in joins {
            let (out, done) = j.join().expect("a worker thread panicked");
            end = end.max(done);
            outs.push(out);
        }
        (setup_ns, (end - start).as_nanos() as u64, outs)
    })
}

/// Seed of thread `t`'s streams in the round seeded `seed`; `salt`
/// separates a thread's independent streams.
fn thread_seed(seed: u64, t: usize, salt: u64) -> u64 {
    per_proc_seed(seed ^ salt.wrapping_mul(0xD1B5_4A32_D192_ED03), t)
}

/// First element id of thread `t`: threads draw ids from disjoint ranges
/// above the prefill's.
fn thread_ids(t: usize) -> u64 {
    (t as u64 + 1) << 40
}

/// Closes `pool` and drains whatever the round left in it.
fn drain_plain(pool: &PlainPool, round: &mut Round) {
    pool.close();
    let mut h = pool.register();
    for id in h.drain() {
        round.removed.record(id);
    }
    loop {
        match h.try_remove() {
            Ok(id) => round.removed.record(id),
            Err(RemoveError::Closed) => break,
            Err(e) => {
                round.violations.push(format!("drain after close answered {e:?}"));
                break;
            }
        }
    }
    drop(h);
    if pool.total_len() + pool.depot_len() != 0 {
        round.violations.push("pool not empty after drain".into());
    }
}

/// One `mix40` round: §3.3's random operations model at 40 % adds from a
/// 320-element pool. Removes outnumber adds, so the pool runs dry and most
/// removes search, steal single elements, or abort at the §3.2 gate.
pub fn mix40(scale: Scale, seed: u64, traced: bool) -> Round {
    let t0 = Instant::now();
    let pool: PlainPool = PoolBuilder::new(SEGMENTS).seed(seed).build();
    let mut round = Round::default();
    pool.fill_evenly_with(MIX40_PREFILL, |i| {
        round.added.record(i as u64);
        i as u64
    });
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            (
                pool.register(),
                Probe::new(thread_seed(seed, t, 1), MEAN_GAP, traced, scale.mix40_ops),
            )
        })
        .collect();
    let pool_ref = &pool;
    let (setup_ns, wall_ns, outs) = drive(t0, workers, |t, (mut h, mut probe)| {
        let mut out = ThreadOut::default();
        let mut ops = RandomMixStream::new(JobMix::from_percent(40), thread_seed(seed, t, 2));
        let mut next_id = thread_ids(t);
        for _ in 0..scale.mix40_ops {
            match ops.next_op() {
                Op::Add => {
                    let id = next_id;
                    next_id += 1;
                    out.added.record(id);
                    let _ = probe.run(&mut h, Kind::Add, |h| {
                        h.add(id);
                        Ok(())
                    });
                }
                Op::Remove => match probe.run(&mut h, Kind::Remove, |h| h.try_remove()) {
                    Ok(id) => out.removed.record(id),
                    Err(RemoveError::Aborted) => {
                        out.err_answers += 1;
                        if traced && pool_ref.total_len() + pool_ref.depot_len() > 0 {
                            out.spurious_aborts += 1;
                        }
                    }
                    Err(_) => {
                        out.err_answers += 1;
                        out.failed += 1;
                    }
                },
            }
        }
        out.attempted = scale.mix40_ops;
        out.stats = h.stats().clone();
        // Deregister at once: a finished but registered thread would keep
        // the §3.2 gate from ever aborting the other thread's searches.
        drop(h);
        out.take_probe(probe);
        out
    });
    round.setup_ns = setup_ns;
    round.wall_ns = wall_ns;
    round.absorb(outs);
    drain_plain(&pool, &mut round);
    round.check_conservation();
    round
}

/// One `magazine` round: 32-deep handle caches, each thread alternating
/// [`MAGAZINE_BURST`] adds and as many removes. Every operation is a
/// magazine hit or a depot exchange; segments, search and the operation
/// timer are bypassed.
pub fn magazine(scale: Scale, seed: u64, traced: bool) -> Round {
    let t0 = Instant::now();
    let pool: PlainPool =
        PoolBuilder::new(SEGMENTS).seed(seed).handle_cache(MAGAZINE_DEPTH).build();
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            (
                pool.register(),
                Probe::new(
                    thread_seed(seed, t, 1),
                    MAGAZINE_GAP,
                    traced,
                    2 * MAGAZINE_BURST * scale.magazine_bursts,
                ),
            )
        })
        .collect();
    let (setup_ns, wall_ns, outs) = drive(t0, workers, |t, (mut h, mut probe)| {
        let mut out = ThreadOut::default();
        let mut next_id = thread_ids(t);
        for _ in 0..scale.magazine_bursts {
            for _ in 0..MAGAZINE_BURST {
                let id = next_id;
                next_id += 1;
                out.added.record(id);
                let _ = probe.run(&mut h, Kind::Add, |h| {
                    h.add(id);
                    Ok(())
                });
            }
            for _ in 0..MAGAZINE_BURST {
                match probe.run(&mut h, Kind::Remove, |h| h.try_remove()) {
                    Ok(id) => out.removed.record(id),
                    Err(_) => {
                        out.err_answers += 1;
                        out.failed += 1;
                    }
                }
            }
        }
        out.attempted = 2 * MAGAZINE_BURST * scale.magazine_bursts;
        out.stats = h.stats().clone();
        drop(h);
        out.take_probe(probe);
        out
    });
    let mut round = Round { setup_ns, wall_ns, ..Round::default() };
    round.absorb(outs);
    drain_plain(&pool, &mut round);
    round.check_conservation();
    round
}

/// Encodes element `id` under `key`: the low bits carry the key, so a
/// value removed under the wrong key is detected.
fn keyed_value(id: u64, key: u64) -> u64 {
    (id << KEY_BITS) | key
}

fn check_key(value: u64, key: u64, violations: &mut Vec<String>) {
    if value & ((1 << KEY_BITS) - 1) != key {
        violations.push(format!("value {value:#x} removed under key {key}"));
    }
}

/// One `zipf` round: a keyed pool with hot-key detection at its defaults,
/// [`ZIPF_KEYS`] keys prefilled with one element each, and every thread
/// issuing `add(k)` + `try_remove_key(k)` pairs over Zipf(1.1) keys.
pub fn zipf(scale: Scale, seed: u64, traced: bool) -> Round {
    const _: () = assert!(ZIPF_KEYS <= 1 << KEY_BITS);
    let t0 = Instant::now();
    let pool: KeyedPool<u64, u64> = KeyedPoolBuilder::new(SEGMENTS).build();
    let mut round = Round::default();
    for seg in 0..SEGMENTS {
        // The i-th registration homes at segment i, so this prefills the
        // keys round-robin across the segments.
        let mut h = pool.register();
        for key in (seg as u64..ZIPF_KEYS).step_by(SEGMENTS) {
            let value = keyed_value(key, key);
            round.added.record(value);
            h.add(key, value);
        }
    }
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let keys = ZipfKeys::new(ZIPF_KEYS, ZIPF_S, thread_seed(seed, t, 2));
            (
                pool.register(),
                keys,
                Probe::new(thread_seed(seed, t, 1), MEAN_GAP, traced, scale.zipf_pairs),
            )
        })
        .collect();
    let (setup_ns, wall_ns, outs) = drive(t0, workers, |t, (mut h, mut keys, mut probe)| {
        let mut out = ThreadOut::default();
        for id in thread_ids(t)..thread_ids(t) + scale.zipf_pairs {
            let key = keys.next_key();
            let value = keyed_value(id, key);
            out.added.record(value);
            match probe.run(&mut h, Kind::Pair, |h| {
                h.add(key, value);
                h.try_remove_key(&key)
            }) {
                Ok(got) => {
                    check_key(got, key, &mut out.violations);
                    out.removed.record(got);
                }
                Err(_) => {
                    out.err_answers += 1;
                    out.failed += 1;
                }
            }
        }
        out.attempted = 2 * scale.zipf_pairs;
        out.stats = h.stats().clone();
        drop(h);
        out.take_probe(probe);
        out
    });
    round.setup_ns = setup_ns;
    round.wall_ns = wall_ns;
    round.absorb(outs);
    round.counters = pool.stats().pool;
    pool.close();
    let mut h = pool.register();
    for (key, value) in h.drain() {
        check_key(value, key, &mut round.violations);
        round.removed.record(value);
    }
    drop(h);
    if pool.total_len() + pool.depot_len() != 0 {
        round.violations.push("keyed pool not empty after drain".into());
    }
    round.check_conservation();
    round
}

/// The pool-backed work list with each worker's `get` and `put_batch`
/// timed at seeded random gaps.
struct SampledList<'a> {
    inner: &'a PoolWorkList<WorkItem>,
    seed: u64,
    registered: AtomicU64,
    sink: &'a Mutex<Vec<u32>>,
}

struct SampledHandle<'a> {
    inner: PoolWorkHandle<WorkItem>,
    sampler: Sampler,
    latencies: Vec<u32>,
    sink: &'a Mutex<Vec<u32>>,
}

impl SampledHandle<'_> {
    #[inline]
    fn timed<R>(&mut self, op: impl FnOnce(&mut PoolWorkHandle<WorkItem>) -> R) -> R {
        if !self.sampler.due() {
            return op(&mut self.inner);
        }
        let t0 = Instant::now();
        let out = op(&mut self.inner);
        self.latencies.push(clamp_ns(t0.elapsed().as_nanos()));
        out
    }
}

impl Drop for SampledHandle<'_> {
    fn drop(&mut self) {
        if let Ok(mut sink) = self.sink.lock() {
            sink.append(&mut self.latencies);
        }
    }
}

impl WorkHandle<WorkItem> for SampledHandle<'_> {
    fn put(&mut self, item: WorkItem) {
        self.timed(|h| h.put(item));
    }

    fn put_batch<I: IntoIterator<Item = WorkItem>>(&mut self, items: I) {
        self.timed(|h| h.put_batch(items));
    }

    fn get(&mut self) -> Result<WorkItem, Done> {
        self.timed(|h| h.get())
    }

    fn proc_id(&self) -> ProcId {
        self.inner.proc_id()
    }
}

impl<'a> SharedWorkList<WorkItem> for SampledList<'a> {
    type Handle = SampledHandle<'a>;

    fn register(&self) -> SampledHandle<'a> {
        let t = self.registered.fetch_add(1, Ordering::Relaxed) as usize;
        SampledHandle {
            inner: self.inner.register(),
            sampler: Sampler::new(thread_seed(self.seed, t, 1), MEAN_GAP),
            latencies: Vec::new(),
            sink: self.sink,
        }
    }

    fn seed(&self, items: Vec<WorkItem>) {
        self.inner.seed(items);
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn close(&self) {
        self.inner.close();
    }

    fn is_closed(&self) -> bool {
        self.inner.is_closed()
    }
}

/// One `ttt` round: the §4.4 depth-3 expansion on [`THREADS`] workers over
/// [`PoolWorkList`] (blocking waits, linear search), checked against the
/// sequential `reference`.
pub fn ttt(seed: u64, reference: &SearchResult) -> Round {
    let t0 = Instant::now();
    let list: PoolWorkList<WorkItem> =
        PoolWorkList::new(SEGMENTS, PolicyKind::Linear, NullTiming::new(), seed);
    let latencies = Mutex::default();
    let sampled =
        SampledList { inner: &list, seed, registered: AtomicU64::new(0), sink: &latencies };
    let setup_ns = t0.elapsed().as_nanos() as u64;
    let cfg = ExpansionConfig {
        depth: TTT_DEPTH,
        eval_work_ns: 0,
        expand_work_ns: 0,
        batch_leaves: false,
    };
    let result = expand_parallel(&sampled, THREADS, &cfg, &NullTiming::new(), None);
    let stats = list.pool().stats().merged();
    let mut round = Round {
        setup_ns,
        wall_ns: result.wall_ns,
        attempted: stats.ops(),
        latencies: latencies.into_inner().expect("no worker panicked holding the sink"),
        stats,
        ..Round::default()
    };
    let positions = 64 + 64 * 63 + ttt::PAPER_POSITIONS;
    if (result.score, result.best_move) != (reference.score, reference.best_move) {
        round.violations.push(format!(
            "ttt: expansion chose {:?} scoring {}, minimax {:?} scoring {}",
            result.best_move, result.score, reference.best_move, reference.score
        ));
    }
    if result.leaves != ttt::PAPER_POSITIONS || result.items_processed != positions {
        round.violations.push(format!(
            "ttt: {} leaves and {} items, expected {} and {positions}",
            result.leaves,
            result.items_processed,
            ttt::PAPER_POSITIONS
        ));
    }
    if !list.is_empty() {
        round.violations.push("ttt: work list not empty after the expansion".into());
    }
    round
}
