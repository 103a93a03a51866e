//! Measurement primitives: latency sampling at seeded random gaps, latency
//! histograms, conservation checksums, and host facts.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Mean operations between two latency samples, for operations of a few
/// hundred nanoseconds: enough samples per round (thousands) that each
/// round's p99 has tens of samples beyond it, at well under 1 % cost.
pub const MEAN_GAP: u32 = 64;

/// Mean gap for magazine operations. Each sample costs two clock reads
/// (~33 ns each on a 2-vCPU Xeon VM); at one sample per 512
/// operations that is about 1 % of a ~16 ns magazine operation.
pub const MAGAZINE_GAP: u32 = 512;

/// Decides which operations a thread times.
///
/// Gaps are drawn uniformly from `1..2 * mean`, so the sampled operations
/// do not lock onto a period of the workload (a fixed stride on 128-op
/// bursts over 32-deep magazines lands on the same exchange boundaries
/// every time and reads a different median each run).
#[derive(Debug)]
pub struct Sampler {
    rng: SmallRng,
    mean: u32,
    countdown: u32,
}

impl Sampler {
    /// A sampler with gaps averaging `mean` operations, drawn
    /// deterministically from `seed`.
    pub fn new(seed: u64, mean: u32) -> Self {
        assert!(mean > 0, "the mean gap is at least one operation");
        let mut rng = SmallRng::seed_from_u64(seed);
        let countdown = rng.gen_range(1..2 * mean);
        Sampler { rng, mean, countdown }
    }

    /// Whether the next operation is to be timed.
    #[inline]
    pub fn due(&mut self) -> bool {
        self.countdown -= 1;
        if self.countdown > 0 {
            return false;
        }
        self.countdown = self.rng.gen_range(1..2 * self.mean);
        true
    }
}

/// A latency histogram with one bin per nanosecond up to [`Histogram::MAX_NS`]
/// (longer samples land in the last bin): fixed memory however long the
/// run, and the same quantiles as the raw samples.
///
/// Quantiles read the samples as grouped data. Nanosecond samples of a
/// fast operation tie heavily, so a plain order statistic reads the same
/// integer run after run and hides real shifts. Here each integer `v`
/// stands for the interval `[v - 0.5, v + 0.5)` and the quantile is
/// interpolated within its tie group — the textbook median of grouped data.
#[derive(Clone, Debug)]
pub struct Histogram {
    bins: Vec<u64>,
    count: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { bins: vec![0; Histogram::MAX_NS as usize + 1], count: 0 }
    }
}

impl Histogram {
    /// Samples longer than this many nanoseconds are counted as this long.
    pub const MAX_NS: u32 = (1 << 16) - 1;

    /// Records every sample of `ns`.
    pub fn record_all(&mut self, ns: &[u32]) {
        for &v in ns {
            self.bins[v.min(Self::MAX_NS) as usize] += 1;
        }
        self.count += ns.len() as u64;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The `q`-quantile read as grouped data, or 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q * self.count as f64;
        let mut below = 0u64;
        for (v, &n) in self.bins.iter().enumerate() {
            if n > 0 && (below + n) as f64 > rank {
                let frac = ((rank - below as f64) / n as f64).clamp(0.0, 1.0);
                return v as f64 - 0.5 + frac;
            }
            below += n;
        }
        f64::from(Self::MAX_NS)
    }
}

/// Median of a non-empty set of values.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// An order-independent checksum of a multiset of element ids.
///
/// Every element a workload creates carries a unique id. The ids added
/// must equal, as a multiset, the ids removed plus the ids left over when
/// the pool is closed and drained; a lost, duplicated or corrupted element
/// changes the count or the mixed sum.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Elements recorded.
    pub count: u64,
    /// Wrapping sum of the mixed ids.
    pub sum: u64,
}

impl Ledger {
    /// Records one element id.
    #[inline]
    pub fn record(&mut self, id: u64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(mix(id));
    }

    /// Adds another ledger's elements to this one.
    pub fn merge(&mut self, other: &Ledger) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
    }
}

/// SplitMix64 finalizer: spreads ids so that offsetting errors in a plain
/// sum (one id too high, another too low) do not cancel.
fn mix(id: u64) -> u64 {
    let mut z = id.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// CPUs the host reports online, ignoring affinity and quotas.
pub fn host_cpus() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0)
}

/// CPUs this process may run on (affinity- and quota-aware).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quantile(samples: &[u32], q: f64) -> f64 {
        let mut h = Histogram::default();
        h.record_all(samples);
        assert_eq!(h.count(), samples.len() as u64);
        h.quantile(q)
    }

    #[test]
    fn quantiles_interpolate_within_ties() {
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[5, 5, 5, 5], 0.5), 5.0);
        assert_eq!(quantile(&[4, 3, 2, 1], 0.5), 2.5);
        assert_eq!(quantile(&[10, 10, 10, 11], 0.5), 10.0 - 0.5 + 2.0 / 3.0);
        assert_eq!(quantile(&[1, 100], 0.99), 100.0 - 0.5 + 0.98);
        // A 70 µs sample is counted in the last bin.
        assert!(quantile(&[1, 70_000], 0.99) >= f64::from(Histogram::MAX_NS) - 0.5);
    }

    #[test]
    fn ledger_is_order_independent_and_catches_swaps() {
        let mut a = Ledger::default();
        let mut b = Ledger::default();
        for id in [1, 2, 3] {
            a.record(id);
        }
        for id in [3, 1, 2] {
            b.record(id);
        }
        assert_eq!(a, b);
        let mut c = Ledger::default();
        for id in [0, 2, 4] {
            c.record(id);
        }
        assert_ne!(a, c, "same count and plain sum, different ids");
    }

    #[test]
    fn sampler_gaps_average_near_the_mean() {
        let mut s = Sampler::new(7, MAGAZINE_GAP);
        let n = 1_000_000;
        let hits = (0..n).filter(|_| s.due()).count();
        let mean = n as f64 / hits as f64;
        let want = f64::from(MAGAZINE_GAP);
        assert!((mean - want).abs() < 0.05 * want, "{mean}");
    }
}
