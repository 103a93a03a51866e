//! Zipfian and uniform key generators for keyed-pool experiments.
//!
//! The paper's workloads treat every element as interchangeable; keyed
//! pools add a key dimension, and real key traffic is rarely uniform —
//! request frequencies follow a Zipf law (rank `r` drawn with probability
//! proportional to `r^-s`), so a handful of hot keys dominate. These
//! generators supply both extremes deterministically:
//!
//! * [`UniformKeys`] — every key equally likely (the implicit assumption
//!   the paper's model corresponds to);
//! * [`ZipfKeys`] — rank-frequency skew with exponent `s` (s ≈ 1 is the
//!   classic web/cache regime; larger `s` is more skewed), drawn by
//!   inverse-CDF lookup over a precomputed table, so each draw is one
//!   uniform sample plus a binary search.
//!
//! Streams are seeded and deterministic, like every other generator in
//! this crate: the same `(dist, seed)` replays the same key sequence.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// An endless, per-process source of keys (the key-dimension analogue of
/// [`OpStream`](crate::OpStream)).
pub trait KeyStream: Send {
    /// The next key this process should operate on.
    fn next_key(&mut self) -> u64;
}

/// Uniform keys over `0..keys`: the no-skew baseline.
#[derive(Clone, Debug)]
pub struct UniformKeys {
    keys: u64,
    rng: SmallRng,
}

impl UniformKeys {
    /// Creates a uniform stream over `0..keys`.
    ///
    /// # Panics
    ///
    /// Panics if `keys` is zero.
    pub fn new(keys: u64, seed: u64) -> Self {
        assert!(keys > 0, "a key stream needs at least one key");
        UniformKeys { keys, rng: SmallRng::seed_from_u64(seed) }
    }
}

impl KeyStream for UniformKeys {
    fn next_key(&mut self) -> u64 {
        self.rng.gen_range(0..self.keys)
    }
}

/// Zipf-distributed keys over `0..keys`: key `k` maps to rank `k` rotated
/// by an optional offset, so rank 0 (the hottest key) lands on
/// `offset % keys` — the offset moves the hot set without changing the
/// distribution.
#[derive(Clone, Debug)]
pub struct ZipfKeys {
    /// Cumulative probabilities of ranks `0..keys`, normalized to end at
    /// 1.0; a draw binary-searches its uniform sample here.
    cdf: Vec<f64>,
    offset: u64,
    keys: u64,
    rng: SmallRng,
}

impl ZipfKeys {
    /// Creates a Zipf(`s`) stream over `0..keys` with the hottest key at 0.
    ///
    /// # Panics
    ///
    /// Panics if `keys` is zero or `s` is not a finite non-negative number
    /// (`s = 0` degenerates to uniform).
    pub fn new(keys: u64, s: f64, seed: u64) -> Self {
        Self::with_offset(keys, s, seed, 0)
    }

    /// [`new`](Self::new), with the rank→key mapping rotated so the
    /// hottest key is `offset % keys`.
    pub fn with_offset(keys: u64, s: f64, seed: u64, offset: u64) -> Self {
        assert!(keys > 0, "a key stream needs at least one key");
        assert!(s.is_finite() && s >= 0.0, "Zipf exponent must be finite and >= 0, got {s}");
        let mut cdf = Vec::with_capacity(keys as usize);
        let mut total = 0.0_f64;
        for rank in 0..keys {
            total += (rank as f64 + 1.0).powf(-s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        ZipfKeys { cdf, offset, keys, rng: SmallRng::seed_from_u64(seed) }
    }

    /// The configured key-space size.
    pub fn keys(&self) -> u64 {
        self.keys
    }
}

impl KeyStream for ZipfKeys {
    fn next_key(&mut self) -> u64 {
        let u: f64 = self.rng.gen_range(0.0..1.0);
        // First rank whose cumulative probability exceeds the sample; the
        // final entry is exactly 1.0 > u, so the rank is always in range.
        let rank = self.cdf.partition_point(|&c| c <= u) as u64;
        (rank + self.offset) % self.keys
    }
}

/// A key-distribution specification — the configuration surface harness
/// scenarios sweep (the key analogue of [`Workload`](crate::Workload)).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum KeyDist {
    /// Every key in `0..keys` equally likely.
    Uniform {
        /// Key-space size.
        keys: u64,
    },
    /// Zipf(`s`) ranks over `0..keys`, hottest key first.
    Zipf {
        /// Key-space size.
        keys: u64,
        /// Skew exponent (≈ 1.1 for web-like traffic).
        s: f64,
    },
}

impl KeyDist {
    /// Builds the deterministic key stream for this distribution.
    pub fn stream(&self, seed: u64) -> Keys {
        match *self {
            KeyDist::Uniform { keys } => Keys::Uniform(UniformKeys::new(keys, seed)),
            KeyDist::Zipf { keys, s } => Keys::Zipf(ZipfKeys::new(keys, s, seed)),
        }
    }

    /// The key-space size.
    pub fn keys(&self) -> u64 {
        match *self {
            KeyDist::Uniform { keys } | KeyDist::Zipf { keys, .. } => keys,
        }
    }
}

impl std::fmt::Display for KeyDist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            KeyDist::Uniform { keys } => write!(f, "uniform({keys})"),
            KeyDist::Zipf { keys, s } => write!(f, "zipf({keys} s={s})"),
        }
    }
}

/// A built key stream, either flavor (a plain enum rather than a boxed
/// trait object: the bench inner loop draws millions of keys).
#[derive(Clone, Debug)]
pub enum Keys {
    /// A [`UniformKeys`] stream.
    Uniform(UniformKeys),
    /// A [`ZipfKeys`] stream.
    Zipf(ZipfKeys),
}

impl KeyStream for Keys {
    fn next_key(&mut self) -> u64 {
        match self {
            Keys::Uniform(s) => s.next_key(),
            Keys::Zipf(s) => s.next_key(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_seed_sensitive() {
        let take = |seed: u64| -> Vec<u64> {
            let mut s = ZipfKeys::new(100, 1.1, seed);
            (0..64).map(|_| s.next_key()).collect()
        };
        assert_eq!(take(7), take(7), "same seed replays the same keys");
        assert_ne!(take(7), take(8), "different seeds diverge");
    }

    #[test]
    fn zipf_skews_toward_low_ranks() {
        let mut s = ZipfKeys::new(1000, 1.1, 42);
        let mut hot = 0u32;
        let n = 10_000;
        for _ in 0..n {
            if s.next_key() < 10 {
                hot += 1;
            }
        }
        // Zipf(1.1) over 1000 keys puts well over a third of the mass on
        // the top 10 ranks; uniform would put 1% there.
        assert!(hot > n / 3, "top-10 keys drew only {hot}/{n}");
    }

    #[test]
    fn zero_exponent_is_uniform() {
        let mut s = ZipfKeys::new(10, 0.0, 1);
        let mut counts = [0u32; 10];
        for _ in 0..10_000 {
            counts[s.next_key() as usize] += 1;
        }
        for &c in &counts {
            assert!((700..=1300).contains(&c), "uniform-ish bucket count, got {c}");
        }
    }

    #[test]
    fn offset_rotates_the_hot_key() {
        let mut s = ZipfKeys::with_offset(100, 2.0, 5, 37);
        let mut counts = std::collections::BTreeMap::new();
        for _ in 0..2_000 {
            *counts.entry(s.next_key()).or_insert(0u32) += 1;
        }
        let hottest = counts.iter().max_by_key(|(_, &c)| c).map(|(&k, _)| k);
        assert_eq!(hottest, Some(37), "rank 0 lands on the offset");
    }

    #[test]
    fn uniform_covers_the_space() {
        let mut s = UniformKeys::new(8, 3);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..256 {
            seen.insert(s.next_key());
        }
        assert_eq!(seen.len(), 8, "all 8 keys drawn");
    }

    #[test]
    fn dist_display_and_stream() {
        assert_eq!(KeyDist::Uniform { keys: 4 }.to_string(), "uniform(4)");
        assert_eq!(KeyDist::Zipf { keys: 4, s: 1.1 }.to_string(), "zipf(4 s=1.1)");
        let mut k = KeyDist::Zipf { keys: 4, s: 1.1 }.stream(9);
        for _ in 0..32 {
            assert!(k.next_key() < 4);
        }
    }
}
