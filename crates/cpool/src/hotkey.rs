//! Hot-key detection: a sampled key-frequency window with hysteresis.
//!
//! The paper's keyed pools assume uniform key traffic, but real key
//! distributions are Zipfian: one hot key can serialize every producer and
//! consumer behind a single bucket while the rest of the pool idles. This
//! module supplies the *detection* half of the keyed frontend's adaptive
//! response (the *reaction* — splitting a hot bucket into independently
//! locked sub-shards — lives in [`keyed`](crate::keyed)):
//!
//! * **Sampling** is pelikan-style cheap and *producer-side*: each handle
//!   counts its own adds and feeds every
//!   [`sample_every`](HotKeyConfig::sample_every)-th added key into the
//!   detector, so the unsampled add path pays one branch and an increment
//!   — no shared atomics, no lock — and every remove flavor pays nothing
//!   at all. Adds are a faithful heat proxy: an element must be added
//!   before it can be removed.
//! * The detector keeps a fixed **ring-buffer window** of the last
//!   [`window`](HotKeyConfig::window) sampled keys plus an exact per-key
//!   count over that window. Recording a sample evicts the oldest one, so
//!   heat decays automatically as traffic moves on — no timer, no epochs.
//! * **Hysteresis**: a bucket is *promoted* (split) when its key reaches
//!   [`promote_pct`](HotKeyConfig::promote_pct) of the window and *demoted*
//!   (merged back) only when it falls below the strictly lower
//!   [`demote_pct`](HotKeyConfig::demote_pct), so a key oscillating around
//!   one threshold does not thrash split/merge cycles.
//!
//! The window is pre-allocated and per-key counts reuse their map nodes
//! while a key stays in the window, so steady-state sampling of a stable
//! hot set allocates nothing (asserted by `tests/alloc_steal.rs`).

use std::collections::BTreeMap;

use parking_lot::Mutex;

/// Tuning knobs for hot-key detection on a keyed pool — see
/// [`KeyedPoolBuilder::hot_keys`](crate::KeyedPoolBuilder::hot_keys).
///
/// The defaults target a Zipfian (s ≈ 1.1) workload: with a 256-sample
/// window, `promote_pct = 2` splits keys drawing at least ~2% of all
/// traffic (the top half-dozen ranks of a Zipf(1.1) stream over a few
/// hundred keys — together over a third of it), and `demote_pct = 1`
/// merges them back once they cool to background levels. Uniform traffic
/// over even a few dozen keys sits far below the promote threshold and
/// never splits anything.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HotKeyConfig {
    /// Sample one in this many adds per handle (≥ 1). Larger values cost
    /// less on the unsampled fast path but react slower.
    pub sample_every: u32,
    /// Ring-buffer window size in samples (≥ 8). Heat is a key's share of
    /// this window; the window is the decay horizon.
    pub window: usize,
    /// Sub-shards a hot bucket splits into (≥ 2) — the `K` independently
    /// locked lanes adds rotate across and removes drain from.
    pub sub_shards: usize,
    /// Promote (split) a bucket once its key reaches this percentage of
    /// the sample window (`1..=100`).
    pub promote_pct: u32,
    /// Demote (merge) a split bucket once its key falls below this
    /// percentage of the sample window; must be strictly below
    /// [`promote_pct`](Self::promote_pct) — the gap is the hysteresis.
    pub demote_pct: u32,
}

impl Default for HotKeyConfig {
    fn default() -> Self {
        HotKeyConfig {
            sample_every: 128,
            window: 256,
            sub_shards: 8,
            promote_pct: 2,
            demote_pct: 1,
        }
    }
}

impl HotKeyConfig {
    /// Panics unless the knobs are coherent (used by the builder).
    pub(crate) fn validate(&self) {
        assert!(self.sample_every >= 1, "sample_every must be at least 1");
        assert!(self.window >= 8, "sample window must hold at least 8 samples");
        assert!(self.sub_shards >= 2, "a hot bucket needs at least 2 sub-shards");
        assert!(
            (1..=100).contains(&self.promote_pct),
            "promote_pct must be within 1..=100, got {}",
            self.promote_pct
        );
        assert!(
            self.demote_pct < self.promote_pct,
            "demote_pct ({}) must be strictly below promote_pct ({}) — the gap is the hysteresis",
            self.demote_pct,
            self.promote_pct
        );
    }

    /// Window-sample count at which a key is promoted (at least 2: a single
    /// sample can never split a bucket, whatever the percentages say).
    pub(crate) fn promote_count(&self) -> u32 {
        ((self.window as u64 * u64::from(self.promote_pct)).div_ceil(100) as u32).max(2)
    }

    /// Window-sample count below which a promoted key is demoted.
    pub(crate) fn demote_count(&self) -> u32 {
        ((self.window as u64 * u64::from(self.demote_pct)) / 100) as u32
    }
}

/// The sample window: a pre-allocated ring of the last `window` sampled
/// keys plus an exact per-key count, kept in lockstep.
struct Window<K> {
    ring: Vec<Option<K>>,
    cursor: usize,
    counts: BTreeMap<K, u32>,
}

/// The pool-wide key-frequency detector.
///
/// One instance is shared by every handle of a keyed pool; only sampled
/// operations (one in [`HotKeyConfig::sample_every`]) take its lock, so the
/// window serializes a small, configurable fraction of traffic.
pub(crate) struct HotKeyDetector<K> {
    cfg: HotKeyConfig,
    inner: Mutex<Window<K>>,
}

impl<K: Ord + Clone> HotKeyDetector<K> {
    pub(crate) fn new(cfg: HotKeyConfig) -> Self {
        let mut ring = Vec::new();
        ring.resize_with(cfg.window, || None);
        HotKeyDetector {
            cfg,
            inner: Mutex::new(Window { ring, cursor: 0, counts: BTreeMap::new() }),
        }
    }

    pub(crate) fn cfg(&self) -> &HotKeyConfig {
        &self.cfg
    }

    /// Records one sampled key, evicting the oldest sample, and returns the
    /// key's new count over the window.
    pub(crate) fn observe(&self, key: K) -> u32 {
        let mut w = self.inner.lock();
        let cursor = w.cursor;
        w.cursor = (cursor + 1) % w.ring.len();
        if let Some(old) = w.ring[cursor].take() {
            if let Some(count) = w.counts.get_mut(&old) {
                *count -= 1;
                if *count == 0 {
                    w.counts.remove(&old);
                }
            }
        }
        let count = {
            let count = w.counts.entry(key.clone()).or_insert(0);
            *count += 1;
            *count
        };
        w.ring[cursor] = Some(key);
        count
    }

    /// The key's current sample count over the window (0 if unseen).
    pub(crate) fn count(&self, key: &K) -> u32 {
        self.inner.lock().counts.get(key).copied().unwrap_or(0)
    }

    /// The key's heat: its fraction of the sample window, in `[0, 1]`.
    pub(crate) fn heat(&self, key: &K) -> f64 {
        f64::from(self.count(key)) / self.cfg.window as f64
    }
}

impl<K> std::fmt::Debug for HotKeyDetector<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HotKeyDetector").field("cfg", &self.cfg).finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> HotKeyConfig {
        HotKeyConfig { sample_every: 1, window: 8, sub_shards: 2, promote_pct: 50, demote_pct: 20 }
    }

    #[test]
    fn counts_track_the_window_exactly() {
        let det: HotKeyDetector<u32> = HotKeyDetector::new(small_cfg());
        for _ in 0..4 {
            det.observe(7);
        }
        assert_eq!(det.count(&7), 4);
        // Eight more samples of another key push every 7 out of the window.
        for _ in 0..8 {
            det.observe(9);
        }
        assert_eq!(det.count(&7), 0, "evicted samples decay the count");
        assert_eq!(det.count(&9), 8);
        assert!((det.heat(&9) - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn promote_threshold_has_hysteresis_below_it() {
        let cfg = small_cfg();
        assert_eq!(cfg.promote_count(), 4, "50% of an 8-sample window");
        assert_eq!(cfg.demote_count(), 1, "20% of 8, floored");
        assert!(cfg.demote_count() < cfg.promote_count());
    }

    #[test]
    fn promote_count_never_drops_below_two() {
        let cfg = HotKeyConfig { promote_pct: 1, window: 8, ..HotKeyConfig::default() };
        assert_eq!(cfg.promote_count(), 2, "one sample must never split a bucket");
    }

    #[test]
    #[should_panic(expected = "hysteresis")]
    fn inverted_thresholds_are_rejected() {
        HotKeyConfig { promote_pct: 5, demote_pct: 5, ..HotKeyConfig::default() }.validate();
    }
}
