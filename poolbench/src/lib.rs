//! End-to-end and per-layer benchmark of the concurrent pool on real
//! threads.
//!
//! `run` measures one workload for a fixed time. Untraced, it reports the
//! end-to-end metrics ([`END_TO_END`]). Traced, it alternates untraced
//! rounds, traced rounds and blocks of isolated kernels, and reports the
//! per-layer metrics ([`PER_LAYER`]). Every round checks its outputs; a
//! run is correct only if every round was.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod kernels;
pub mod measure;
pub mod workloads;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use cpool::{PoolCounters, ProcStats};
use ttt::{minimax, Board};

use kernels::Kernels;
use measure::{median, peak_rss_mib, Histogram};
use workloads::{Path, Round, Scale, Workload, TTT_DEPTH};

/// The end-to-end metrics: `(name, unit)`. An untraced run reports these.
///
/// The latency tail is gated at p90. On a 2-vCPU VM whose cross-core
/// transfers drift between cheap and costly regimes for seconds at a time,
/// `mix40`'s p99 doubles between regimes: over eight 30 s runs its spread
/// (interquartile range over median) was 16 %, against 5 % for p90. The
/// p99 is reported per layer (`op_p99_ns`) instead.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("op_p50_ns", "ns"),
    ("op_p90_ns", "ns"),
    ("solve_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics: `(name, unit)`. A traced run reports these.
///
/// A metric of a layer the workload does not exercise reads 0 (no steals
/// on `magazine`, no magazines on `mix40`, the `ttt.*` rows outside
/// `ttt`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("op_p99_ns", "ns"),
    ("timing.clock_read_ns", "ns"),
    ("segment.add_remove_ns", "ns"),
    ("segment.steal_half_ns", "ns"),
    ("notify.idle_ns", "ns"),
    ("notify.wake_us", "us"),
    ("gate.search_enter_ns", "ns"),
    ("pool.add_remove_ns", "ns"),
    ("pool.bookkeeping_ns", "ns"),
    ("magazine.hit_ns", "ns"),
    ("magazine.exchange_ns", "ns"),
    ("transfer.freelist_ns", "ns"),
    ("keyed.pair_uniform_ns", "ns"),
    ("keyed.pair_zipf_ns", "ns"),
    ("workload.next_op_ns", "ns"),
    ("workload.zipf_key_ns", "ns"),
    ("ttt.eval_ns", "ns"),
    ("ttt.seq_ms", "ms"),
    ("ttt.par_ms", "ms"),
    ("ttt.speedup_vs_seq", "x"),
    ("ttt.steals", "count"),
    ("ttt.elements_per_steal", "count"),
    ("add.local_p50_ns", "ns"),
    ("remove.local_p50_ns", "ns"),
    ("remove.steal_p50_ns", "ns"),
    ("remove.steal_p99_ns", "ns"),
    ("remove.abort_p50_ns", "ns"),
    ("magazine.hit_p50_ns", "ns"),
    ("magazine.exchange_p99_ns", "ns"),
    ("keyed.pair_p50_ns", "ns"),
    ("keyed.pair_p99_ns", "ns"),
    ("path.add_local_share", "ratio"),
    ("path.remove_local_share", "ratio"),
    ("path.remove_steal_share", "ratio"),
    ("path.remove_abort_share", "ratio"),
    ("path.magazine_hit_share", "ratio"),
    ("path.magazine_exchange_share", "ratio"),
    ("path.keyed_pair_share", "ratio"),
    ("search.steal_fraction", "ratio"),
    ("search.segments_per_steal", "count"),
    ("search.elements_per_steal", "count"),
    ("gate.abort_ratio", "ratio"),
    ("gate.spurious_abort_ratio", "ratio"),
    ("magazine.hit_ratio", "ratio"),
    ("magazine.exchanges_per_kop", "count"),
    ("magazine.flush_on_wait", "count"),
    ("hotkey.promotions_per_kop", "count"),
    ("hotkey.hot_buckets", "count"),
    ("keyed.evictions_per_kop", "count"),
    ("fail_ratio", "ratio"),
    ("latency.samples", "count"),
    ("trace.overhead", "ratio"),
    ("host.cpus", "count"),
    ("host.available_parallelism", "count"),
];

/// What to run.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Seed of every input the run generates.
    pub seed: u64,
    /// How long to measure, after one untimed warm-up round.
    pub measure: Duration,
    /// Report the per-layer metrics instead of the end-to-end ones.
    pub trace: bool,
    /// Operations per round.
    pub scale: Scale,
}

/// The result of a run.
#[derive(Debug)]
pub struct Report {
    /// Every round's outputs checked out.
    pub correct: bool,
    /// Pool operations issued over the measured rounds.
    pub attempted: u64,
    /// Operations among them whose answer the workload does not expect.
    pub failed: u64,
    /// Whether the run was traced, so `metrics` holds [`PER_LAYER`].
    pub traced: bool,
    /// Metric values by name (units in [`END_TO_END`] / [`PER_LAYER`]).
    pub metrics: BTreeMap<&'static str, f64>,
    /// What went wrong, when not `correct`.
    pub violations: Vec<String>,
}

impl Report {
    /// The `(name, unit)` table this report's metrics follow.
    pub fn table(&self) -> &'static [(&'static str, &'static str)] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }
}

/// Everything a run accumulates over a set of rounds.
#[derive(Default)]
struct Rounds {
    setup_s: Vec<f64>,
    wall_ms: Vec<f64>,
    ops_per_s: Vec<f64>,
    attempted: u64,
    failed: u64,
    err_answers: u64,
    spurious_aborts: u64,
    latency: Histogram,
    paths: [Histogram; 7],
    stats: ProcStats,
    counters: PoolCounters,
    hot_buckets: Vec<f64>,
}

impl Rounds {
    fn push(&mut self, r: Round, violations: &mut Vec<String>) {
        let wall_s = r.wall_ns as f64 / 1e9;
        self.setup_s.push(r.setup_ns as f64 / 1e9);
        self.wall_ms.push(wall_s * 1e3);
        self.ops_per_s.push(r.attempted as f64 / wall_s);
        self.attempted += r.attempted;
        self.failed += r.failed;
        self.err_answers += r.err_answers;
        self.spurious_aborts += r.spurious_aborts;
        self.latency.record_all(&r.latencies);
        for (all, mine) in self.paths.iter_mut().zip(&r.paths) {
            all.record_all(mine);
        }
        self.stats.merge(&r.stats);
        self.counters.bucket_evictions += r.counters.bucket_evictions;
        self.counters.hotkey_promotions += r.counters.hotkey_promotions;
        self.hot_buckets.push(r.counters.hot_buckets as f64);
        violations.extend(r.violations);
    }
}

/// Runs one round of `w`.
fn round(
    w: Workload,
    scale: Scale,
    seed: u64,
    traced: bool,
    reference: &ttt::SearchResult,
) -> Round {
    match w {
        Workload::Mix40 => workloads::mix40(scale, seed, traced),
        Workload::Ttt => workloads::ttt(seed, reference),
        Workload::Magazine => workloads::magazine(scale, seed, traced),
        Workload::Zipf => workloads::zipf(scale, seed, traced),
    }
}

/// `part / whole`, or 0 when there is no whole.
fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Runs `cfg` and reports its metrics.
pub fn run(cfg: &Config) -> Report {
    let reference = minimax(&Board::new(), TTT_DEPTH);
    let is_ttt = cfg.workload == Workload::Ttt;
    let mut kernels = cfg.trace.then(|| Kernels::new(cfg.seed, is_ttt));
    let mut violations = Vec::new();
    let round_seed = |i: u64| workload::per_proc_seed(cfg.seed, i as usize);

    // Warm-up: lazy tables, allocator arenas, thread stacks.
    let warm = round(cfg.workload, cfg.scale, round_seed(0), false, &reference);
    violations.extend(warm.violations);

    let mut plain = Rounds::default();
    let mut traced = Rounds::default();
    let start = Instant::now();
    let mut i = 1;
    while plain.ops_per_s.is_empty() || start.elapsed() < cfg.measure {
        plain.push(
            round(cfg.workload, cfg.scale, round_seed(i), false, &reference),
            &mut violations,
        );
        i += 1;
        if let Some(k) = kernels.as_mut() {
            traced.push(
                round(cfg.workload, cfg.scale, round_seed(i), true, &reference),
                &mut violations,
            );
            i += 1;
            k.slice();
        }
    }

    let mut metrics = BTreeMap::new();
    match &kernels {
        None => {
            metrics.insert("ops_per_s", median(&plain.ops_per_s));
            metrics.insert("op_p50_ns", plain.latency.quantile(0.5));
            metrics.insert("op_p90_ns", plain.latency.quantile(0.9));
            metrics.insert("solve_ms", median(&plain.wall_ms));
            metrics.insert("setup_s", median(&plain.setup_s));
            metrics.insert("peak_rss_mib", peak_rss_mib().unwrap_or(0.0));
        }
        Some(k) => per_layer(&mut metrics, k, &plain, &traced, is_ttt),
    }

    let mut attempted = plain.attempted + traced.attempted;
    let failed = plain.failed + traced.failed;
    if attempted == 0 {
        violations.push("no operations ran".into());
        attempted = 1;
    }
    let mut report =
        Report { correct: false, attempted, failed, traced: cfg.trace, metrics, violations };
    for (name, _) in report.table() {
        match report.metrics.get(name) {
            Some(v) if v.is_finite() => {}
            other => report.violations.push(format!("metric {name} is {other:?}")),
        }
    }
    report.correct = report.violations.is_empty();
    report
}

/// Fills the per-layer metrics of a traced run.
fn per_layer(
    m: &mut BTreeMap<&'static str, f64>,
    kernels: &Kernels,
    plain: &Rounds,
    traced: &Rounds,
    is_ttt: bool,
) {
    for (name, v) in kernels.medians() {
        m.insert(name, v);
    }
    let get = |m: &BTreeMap<&str, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    let bookkeeping =
        get(m, "pool.add_remove_ns") - get(m, "segment.add_remove_ns") - get(m, "notify.idle_ns");
    m.insert("pool.bookkeeping_ns", bookkeeping);

    let par_ms = median(&plain.wall_ms);
    // The sequential kernel runs on `ttt` only; elsewhere the row reads 0.
    let seq_ms = get(m, "ttt.seq_ms");
    m.insert("ttt.seq_ms", seq_ms);
    m.insert("ttt.par_ms", if is_ttt { par_ms } else { 0.0 });
    m.insert("ttt.speedup_vs_seq", if is_ttt { ratio(seq_ms, par_ms) } else { 0.0 });

    let s = &traced.stats;
    let expansions = traced.wall_ms.len() as f64;
    m.insert("ttt.steals", if is_ttt { ratio(s.steals as f64, expansions) } else { 0.0 });
    m.insert(
        "ttt.elements_per_steal",
        if is_ttt { s.elements_per_steal().unwrap_or(0.0) } else { 0.0 },
    );

    let paths = &traced.paths;
    let quantile = |p: Path, q: f64| paths[p as usize].quantile(q);
    m.insert("add.local_p50_ns", quantile(Path::AddLocal, 0.5));
    m.insert("remove.local_p50_ns", quantile(Path::RemoveLocal, 0.5));
    m.insert("remove.steal_p50_ns", quantile(Path::RemoveSteal, 0.5));
    m.insert("remove.steal_p99_ns", quantile(Path::RemoveSteal, 0.99));
    m.insert("remove.abort_p50_ns", quantile(Path::RemoveAbort, 0.5));
    m.insert("magazine.hit_p50_ns", quantile(Path::MagazineHit, 0.5));
    m.insert("magazine.exchange_p99_ns", quantile(Path::MagazineExchange, 0.99));
    m.insert("keyed.pair_p50_ns", quantile(Path::KeyedPair, 0.5));
    m.insert("keyed.pair_p99_ns", quantile(Path::KeyedPair, 0.99));
    let sampled: u64 = paths.iter().map(Histogram::count).sum();
    for (p, name) in Path::ALL.into_iter().zip([
        "path.add_local_share",
        "path.remove_local_share",
        "path.remove_steal_share",
        "path.remove_abort_share",
        "path.magazine_hit_share",
        "path.magazine_exchange_share",
        "path.keyed_pair_share",
    ]) {
        m.insert(name, ratio(paths[p as usize].count() as f64, sampled as f64));
    }

    let ops = s.ops() as f64;
    let remove_attempts = (s.removes + s.aborted_removes) as f64;
    m.insert("search.steal_fraction", s.steal_fraction().unwrap_or(0.0));
    m.insert("search.segments_per_steal", s.segments_per_steal().unwrap_or(0.0));
    m.insert("search.elements_per_steal", s.elements_per_steal().unwrap_or(0.0));
    m.insert("gate.abort_ratio", ratio(s.aborted_removes as f64, remove_attempts));
    m.insert(
        "gate.spurious_abort_ratio",
        ratio(traced.spurious_aborts as f64, s.aborted_removes as f64),
    );
    m.insert("magazine.hit_ratio", s.magazine_hit_fraction().unwrap_or(0.0));
    m.insert("magazine.exchanges_per_kop", ratio(1e3 * s.depot_exchanges as f64, ops));
    m.insert("magazine.flush_on_wait", s.flush_on_wait as f64);
    m.insert(
        "hotkey.promotions_per_kop",
        ratio(1e3 * traced.counters.hotkey_promotions as f64, ops),
    );
    m.insert("hotkey.hot_buckets", median(&traced.hot_buckets));
    m.insert("keyed.evictions_per_kop", ratio(1e3 * traced.counters.bucket_evictions as f64, ops));

    let attempted = (plain.attempted + traced.attempted) as f64;
    m.insert("fail_ratio", ratio((plain.err_answers + traced.err_answers) as f64, attempted));
    m.insert("op_p99_ns", plain.latency.quantile(0.99));
    m.insert("latency.samples", plain.latency.count() as f64);
    m.insert("trace.overhead", ratio(median(&traced.ops_per_s), median(&plain.ops_per_s)));
    m.insert("host.cpus", measure::host_cpus() as f64);
    m.insert("host.available_parallelism", measure::available_parallelism() as f64);
}

/// The run's result as one JSON line: `correct`, `attempted`, `failed`,
/// and every metric with its value and unit.
pub fn to_json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .table()
        .iter()
        .filter_map(|(name, unit)| {
            let v = report.metrics.get(name)?;
            Some(format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(*v)))
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

/// A finite `f64` as a JSON number with every digit of Rust's shortest
/// round-trip form (which never uses exponents); non-finite values,
/// already reported as violations, as 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}
