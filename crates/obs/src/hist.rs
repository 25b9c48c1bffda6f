//! Deterministic log-bucketed histograms — the distribution-valued metric
//! of telemetry v2.
//!
//! # Bucket scheme
//!
//! HDR-style: values below `2^SUB_BITS` get one exact bucket each; above
//! that, every power-of-two octave is split into `2^SUB_BITS` equal-width
//! sub-buckets, so the relative quantization error is bounded by
//! `2^-SUB_BITS` (6.25% at the default 4 sub-bucket bits) across the full
//! `u64` range. Bucket indices are pure integer arithmetic on the value —
//! no floats anywhere near the data path — and counts are saturating
//! `u64`s, so [`HistData::merge`] is exactly commutative and associative:
//! any merge tree over any partition of the same observations yields a
//! bitwise-identical histogram. That is the same `SuffStats` discipline
//! the rest of the registry follows (see [`crate::recorder`]).
//!
//! # Determinism caveat
//!
//! The *merge* is always deterministic; whether the *contents* are depends
//! on what was recorded. Value-shaped histograms (batch sizes) replay
//! identically at any thread or shard count. Wall-time-derived ones
//! (latencies, queue depths over time) are scheduling artifacts;
//! [`is_volatile_hist_name`] classifies them by naming convention so
//! `ct-obs diff` and the golden tests can tolerate exactly those.

use std::collections::BTreeMap;

/// Sub-bucket resolution: each power-of-two octave splits into
/// `2^SUB_BITS` buckets (relative error ≤ `2^-SUB_BITS`).
pub const SUB_BITS: u32 = 4;

const SUB_BUCKETS: u64 = 1 << SUB_BITS;

/// The bucket index recording `v` (pure integer arithmetic; total over
/// `u64`, at most 976 distinct buckets).
pub fn bucket_index(v: u64) -> u32 {
    if v < SUB_BUCKETS {
        return v as u32;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - SUB_BITS;
    let sub = ((v >> shift) & (SUB_BUCKETS - 1)) as u32;
    ((shift + 1) << SUB_BITS) + sub
}

/// The smallest value landing in bucket `i`.
pub fn bucket_lo(i: u32) -> u64 {
    let octave = i >> SUB_BITS;
    let sub = u64::from(i) & (SUB_BUCKETS - 1);
    if octave == 0 {
        return sub;
    }
    (SUB_BUCKETS + sub) << (octave - 1)
}

/// The largest value landing in bucket `i` (quantile reads report this
/// upper bound, clamped to the observed maximum).
pub fn bucket_hi(i: u32) -> u64 {
    let octave = i >> SUB_BITS;
    if octave == 0 {
        return bucket_lo(i);
    }
    bucket_lo(i).saturating_add((1u64 << (octave - 1)) - 1)
}

/// Whether a histogram's *contents* are scheduling-dependent by naming
/// convention: duration-valued histograms carry a `_ns`/`_us`/`_ms`
/// suffix, and queue-depth-over-time histograms contain `queue_depth`.
/// Volatile histograms still merge deterministically; their bucket counts
/// are simply not comparable across runs, so `ct-obs diff` notes rather
/// than flags them (mirroring the volatile `svc.*` scalar metrics).
pub fn is_volatile_hist_name(name: &str) -> bool {
    name.ends_with("_ns")
        || name.ends_with("_us")
        || name.ends_with("_ms")
        || name.contains("queue_depth")
}

/// One log-bucketed histogram: sparse bucket table plus count/sum/min/max.
///
/// All fields are integers and every update saturates, so merging is
/// exactly commutative and associative (see the module docs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistData {
    buckets: BTreeMap<u32, u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl HistData {
    /// Records one observation.
    pub fn record(&mut self, v: u64) {
        let slot = self.buckets.entry(bucket_index(v)).or_insert(0);
        *slot = slot.saturating_add(1);
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(v);
    }

    /// Commutative, associative merge: bucket counts add pointwise
    /// (saturating), min/max resolve by min/max.
    pub fn merge(&mut self, other: &HistData) {
        if other.count == 0 {
            return;
        }
        for (&i, &c) in &other.buckets {
            let slot = self.buckets.entry(i).or_insert(0);
            *slot = slot.saturating_add(c);
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of every observation.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// The `q`-quantile (0 < q ≤ 1) as the covering bucket's upper bound,
    /// clamped to the observed maximum — so `quantile(1.0) == max()`
    /// exactly. Returns 0 on an empty histogram. Deterministic: a pure
    /// function of the bucket table.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (&i, &c) in &self.buckets {
            cum = cum.saturating_add(c);
            if cum >= target {
                return bucket_hi(i).min(self.max);
            }
        }
        self.max
    }

    /// Median upper bound.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile upper bound.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile upper bound.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// The sparse bucket table, ascending by index.
    pub fn buckets(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.buckets.iter().map(|(&i, &c)| (i, c))
    }

    /// Compact `index:count` rendering (`;`-separated, ascending), the
    /// form embedded in JSONL `hist` lines and manifest sections.
    pub fn render_buckets(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, (idx, c)) in self.buckets().enumerate() {
            if i > 0 {
                out.push(';');
            }
            let _ = write!(out, "{idx}:{c}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_u64_range_without_gaps() {
        // Consecutive indices abut: hi(i) + 1 == lo(i + 1), from the exact
        // region through several octaves.
        for i in 0..200 {
            assert_eq!(
                bucket_hi(i) + 1,
                bucket_lo(i + 1),
                "gap or overlap between buckets {i} and {}",
                i + 1
            );
        }
        // Every probed value round-trips into a bucket that contains it.
        for v in [0, 1, 15, 16, 17, 255, 1 << 20, u64::MAX / 3, u64::MAX] {
            let i = bucket_index(v);
            assert!(bucket_lo(i) <= v && v <= bucket_hi(i), "v={v} bucket={i}");
        }
        assert_eq!(bucket_hi(bucket_index(u64::MAX)), u64::MAX);
    }

    #[test]
    fn relative_error_is_bounded_by_sub_bucket_width() {
        for v in (17..1_000_000u64).step_by(997) {
            let i = bucket_index(v);
            let err = (bucket_hi(i) - v) as f64 / v as f64;
            assert!(err <= 1.0 / SUB_BUCKETS as f64, "v={v} err={err}");
        }
    }

    #[test]
    fn quantiles_clamp_to_observed_extremes() {
        let mut h = HistData::default();
        assert_eq!(h.quantile(0.99), 0, "empty histogram reads 0");
        for v in [3, 3, 3, 1000] {
            h.record(v);
        }
        assert_eq!(h.p50(), 3);
        assert_eq!(h.quantile(1.0), 1000);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.min(), 3);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1009);
        // p99 of 4 samples lands on the last one; the bucket's upper bound
        // is clamped to the observed max.
        assert_eq!(h.p99(), 1000);
    }

    #[test]
    fn merge_matches_monolithic_recording() {
        let values: Vec<u64> = (0..500).map(|i| (i * i * 2654435761) % 100_000).collect();
        let mut mono = HistData::default();
        values.iter().for_each(|&v| mono.record(v));
        for parts in [2usize, 3, 7] {
            let mut shards = vec![HistData::default(); parts];
            for (i, &v) in values.iter().enumerate() {
                shards[i % parts].record(v);
            }
            let mut merged = HistData::default();
            shards.iter().for_each(|s| merged.merge(s));
            assert_eq!(merged, mono, "{parts}-way merge diverged");
        }
    }

    #[test]
    fn merging_an_empty_histogram_is_the_identity() {
        let mut h = HistData::default();
        h.record(42);
        let before = h.clone();
        h.merge(&HistData::default());
        assert_eq!(h, before);
        let mut e = HistData::default();
        e.merge(&before);
        assert_eq!(e, before, "empty ⊕ h must equal h (min/max included)");
    }

    #[test]
    fn volatile_name_convention() {
        assert!(is_volatile_hist_name("svc.ingest.enqueue_ns"));
        assert!(is_volatile_hist_name("svc.reduce.latency_us"));
        assert!(is_volatile_hist_name("svc.shard.3.queue_depth"));
        assert!(is_volatile_hist_name("stage.estimate.wall_ns"));
        assert!(!is_volatile_hist_name("svc.batch_samples"));
    }

    #[test]
    fn bucket_rendering_is_compact_and_ordered() {
        let mut h = HistData::default();
        for v in [1, 1, 70, 3] {
            h.record(v);
        }
        let s = h.render_buckets();
        assert_eq!(s, format!("1:2;3:1;{}:1", bucket_index(70)));
    }
}
