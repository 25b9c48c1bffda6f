//! Streaming sample ingestion: mergeable sufficient statistics.
//!
//! The paper's deployment story ships end-to-end timestamps off-mote; at
//! fleet scale those records arrive as *batches from many motes*, not one
//! monolithic vector. [`SuffStats`] holds the sufficient statistics of any
//! number of batches: sample count, the distinct-tick histogram, exact
//! integer moment accumulators, and validation state. [`SuffStats::merge`]
//! is associative and commutative, so a base station can reduce per-mote
//! statistics in any order (tree reduction, arrival order, thread-racing
//! workers) and always obtain the statistics of the monolithic stream —
//! bitwise. A [`BatchTag`] names one batch's delivery, so ingest can drop
//! redeliveries.
//!
//! `SuffStats` is the only sample form the estimators read: every entry
//! point converts its [`crate::samples::DurationSamples`] input to it once
//! (merged statistics pass through borrowed), and the histogram plus the
//! exact moments serve every rung of the ladder, its trim included, so
//! no estimator ever re-materializes a sample vector.
//!
//! Exactness is what makes the merge order-insensitive: the accumulators
//! are integers (`u128` sums, saturating for the square sum — saturating
//! addition of non-negative values is still associative and commutative),
//! never floats, so no summation-order effects exist.

use crate::samples::{
    tick_overflows, trim_filter, DurationSamples, SampleIssue, TimingSamples, TrimPolicy,
};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// The delivery identity of one batch: which mote produced it and its
/// per-mote sequence number.
///
/// The fleet transport is **at-least-once**: a batch may arrive twice (link
/// retransmission after a lost acknowledgement), late, or out of order — but
/// a redelivery carries the *same* tag as the original. [`SuffStats::merge`]
/// is commutative, so late and reordered arrival are already harmless;
/// duplicates are the only hazard, and an ingest path that drops every tag
/// it has already folded in makes ingestion idempotent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BatchTag {
    /// The producing mote's fleet index.
    pub mote: u64,
    /// The batch's sequence number within that mote's stream.
    pub seq: u64,
}

/// Two statistics at different timer resolutions cannot be merged: their
/// ticks are not commensurable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolutionMismatch {
    /// The receiver's resolution.
    pub ours: u64,
    /// The other operand's resolution.
    pub theirs: u64,
}

impl fmt::Display for ResolutionMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cannot merge sample statistics at {} cycles/tick with {} cycles/tick",
            self.ours, self.theirs
        )
    }
}

impl Error for ResolutionMismatch {}

/// Mergeable sufficient statistics of a tick-sample stream.
///
/// Holds everything the estimators need — count, distinct-tick histogram,
/// exact integer moment accumulators, and validation state (how many ticks
/// would overflow the cycle counter) — and nothing order-dependent, so
/// [`SuffStats::merge`] is associative and commutative and any merge tree
/// over any batch partition of a stream yields the statistics of the
/// monolithic stream, bitwise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuffStats {
    cycles_per_tick: u64,
    /// Distinct tick → multiplicity.
    hist: BTreeMap<u64, u64>,
    /// Total sample count (Σ multiplicities; cached).
    n: u64,
    /// Exact Σ tick.
    sum: u128,
    /// Σ tick² (saturating — still associative/commutative for
    /// non-negative addends).
    sum_sq: u128,
    /// Sticky: true once `sum_sq` has ever clamped at `u128::MAX`. A
    /// saturated square-sum silently floors the variance, so moment-based
    /// estimation must refuse (degrade) rather than trust it. Carried
    /// through [`SuffStats::merge`] by OR, which keeps the flag
    /// order-insensitive: the total either exceeds `u128::MAX` (every
    /// merge order saturates somewhere) or it does not (no order does).
    saturated: bool,
    /// Ticks whose cycle conversion `(t + 1) · cycles_per_tick` overflows
    /// `u64` — never real durations; tracked as validation state.
    overflowing: u64,
}

impl SuffStats {
    /// Empty statistics at `cycles_per_tick` resolution.
    ///
    /// Zero resolutions are representable (so stats for a misreported
    /// prescaler can still accumulate); [`SuffStats::validate`] reports
    /// them, mirroring [`TimingSamples`].
    pub fn new(cycles_per_tick: u64) -> SuffStats {
        SuffStats {
            cycles_per_tick,
            hist: BTreeMap::new(),
            n: 0,
            sum: 0,
            sum_sq: 0,
            saturated: false,
            overflowing: 0,
        }
    }

    /// The statistics of a monolithic sample set — bitwise those of
    /// pushing every tick, built from its sorted histogram: one sort of the
    /// ticks and one pass over the distinct values, where pushing would
    /// search the map once per sample.
    pub fn from_samples(samples: &TimingSamples) -> SuffStats {
        let counted = samples.counted();
        let mut s = SuffStats::new(samples.cycles_per_tick());
        let mut clamped = false;
        for &(t, c) in &counted {
            clamped |= s.add_counts(t, c as u64);
        }
        s.hist = counted.into_iter().map(|(t, c)| (t, c as u64)).collect();
        if clamped {
            s.mark_saturated();
        }
        s
    }

    /// Rebuilds statistics from a serialized distinct-tick histogram — the
    /// checkpoint/restore entry point.
    ///
    /// Every derived accumulator (`n`, `sum`, `sum_sq`, `overflowing`) is a
    /// pure function of `(hist, cycles_per_tick)`, so a snapshot only needs
    /// the histogram and the sticky saturation flag: the rebuild is bitwise
    /// identical to pushing every sample again. (The flag is also
    /// recomputable — saturation happens exactly when the true Σt² exceeds
    /// `u128::MAX`, which every accumulation order detects — but it is OR'd
    /// with `saturated` so a snapshot can never *lower* validation state.)
    /// Zero-count entries are skipped; all arithmetic saturates, so a
    /// corrupt histogram can degrade the statistics but never panic.
    pub fn from_histogram(
        cycles_per_tick: u64,
        hist: impl IntoIterator<Item = (u64, u64)>,
        saturated: bool,
    ) -> SuffStats {
        let mut s = SuffStats::new(cycles_per_tick);
        let mut clamped = false;
        for (t, c) in hist {
            if c == 0 {
                continue;
            }
            *s.hist.entry(t).or_insert(0) += c;
            clamped |= s.add_counts(t, c);
        }
        // Restores must not replay the saturation warning the original
        // accumulation already announced; set the flag without the event.
        s.saturated = saturated || clamped;
        s
    }

    /// Folds one tick sample in.
    pub fn push(&mut self, tick: u64) {
        *self.hist.entry(tick).or_insert(0) += 1;
        if self.add_counts(tick, 1) {
            self.mark_saturated();
        }
    }

    /// Adds `c` samples of tick `t` to every accumulator but the histogram
    /// and the saturation flag; true when the square-sum clamps. All
    /// arithmetic saturates, so corrupt counts degrade the statistics but
    /// never panic.
    fn add_counts(&mut self, t: u64, c: u64) -> bool {
        self.n = self.n.saturating_add(c);
        self.sum = self
            .sum
            .saturating_add((t as u128).saturating_mul(c as u128));
        let sq_total = (t as u128)
            .checked_mul(t as u128)
            .and_then(|sq| sq.checked_mul(c as u128));
        let clamped = match sq_total.and_then(|v| self.sum_sq.checked_add(v)) {
            Some(v) => {
                self.sum_sq = v;
                false
            }
            None => {
                self.sum_sq = u128::MAX;
                true
            }
        };
        if tick_overflows(t, self.cycles_per_tick) {
            self.overflowing = self.overflowing.saturating_add(c);
        }
        clamped
    }

    /// Merges another stream's statistics into this one.
    ///
    /// Associative and commutative: for any split of a sample stream into
    /// batches, merging the per-batch statistics in **any** order equals
    /// the statistics of the whole stream.
    ///
    /// # Errors
    ///
    /// [`ResolutionMismatch`] when the resolutions differ.
    pub fn merge(&mut self, other: &SuffStats) -> Result<(), ResolutionMismatch> {
        if self.cycles_per_tick != other.cycles_per_tick {
            return Err(ResolutionMismatch {
                ours: self.cycles_per_tick,
                theirs: other.cycles_per_tick,
            });
        }
        for (&t, &c) in &other.hist {
            *self.hist.entry(t).or_insert(0) += c;
        }
        self.n += other.n;
        self.sum += other.sum;
        self.sum_sq = match self.sum_sq.checked_add(other.sum_sq) {
            Some(v) => v,
            None => {
                self.mark_saturated();
                u128::MAX
            }
        };
        if other.saturated {
            self.mark_saturated();
        }
        self.overflowing += other.overflowing;
        Ok(())
    }

    /// Sets the sticky saturation flag, announcing the transition once.
    fn mark_saturated(&mut self) {
        if !self.saturated {
            self.saturated = true;
            // Only order-insensitive facts in the event fields: the sample
            // count at the moment of saturation depends on merge order.
            ct_obs::emit(
                "warn.suffstats_saturated",
                vec![("cycles_per_tick", self.cycles_per_tick.into())],
            );
        }
    }

    /// True once the square-sum accumulator has ever clamped: the variance
    /// is a lower bound, not a statistic, and moment-based estimation
    /// refuses to run off it.
    pub fn saturated(&self) -> bool {
        self.saturated
    }

    /// The merge of two statistics (consuming form of [`SuffStats::merge`]).
    ///
    /// # Errors
    ///
    /// [`ResolutionMismatch`] when the resolutions differ.
    pub fn merged(mut a: SuffStats, b: &SuffStats) -> Result<SuffStats, ResolutionMismatch> {
        a.merge(b)?;
        Ok(a)
    }

    /// Takes the accumulated statistics, leaving empty statistics at the
    /// same resolution behind — the shard-snapshot entry point: an ingest
    /// shard hands its delta to the reduce tier and keeps accumulating into
    /// the emptied receiver, with no resolution drift and no window where
    /// samples could be double-counted or lost.
    pub fn take(&mut self) -> SuffStats {
        let cycles_per_tick = self.cycles_per_tick;
        std::mem::replace(self, SuffStats::new(cycles_per_tick))
    }

    /// Deterministic pairwise tree reduction of per-shard statistics:
    /// adjacent pairs merge, rounds repeat until one survivor remains.
    ///
    /// Because [`SuffStats::merge`] is associative and commutative, the
    /// survivor is bitwise the left fold of `parts` — and therefore bitwise
    /// the statistics of the monolithic stream — for **any** shard count and
    /// any partition of the stream across shards. The reduce tier leans on
    /// this to serve one global statistic from any sharding. An empty
    /// `parts` reduces to empty statistics at `cycles_per_tick`.
    ///
    /// # Errors
    ///
    /// [`ResolutionMismatch`] when any part disagrees with
    /// `cycles_per_tick` (checked up front; nothing is consumed on error).
    pub fn tree_reduce(
        cycles_per_tick: u64,
        parts: Vec<SuffStats>,
    ) -> Result<SuffStats, ResolutionMismatch> {
        if let Some(p) = parts.iter().find(|p| p.cycles_per_tick != cycles_per_tick) {
            return Err(ResolutionMismatch {
                ours: cycles_per_tick,
                theirs: p.cycles_per_tick,
            });
        }
        let mut level = parts;
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            let mut it = level.into_iter();
            while let Some(a) = it.next() {
                match it.next() {
                    // Resolutions were all checked above; merge cannot fail.
                    Some(b) => {
                        next.push(SuffStats::merged(a, &b).unwrap_or_else(|_| {
                            unreachable!("resolutions verified before reduction")
                        }))
                    }
                    None => next.push(a),
                }
            }
            level = next;
        }
        Ok(level
            .pop()
            .unwrap_or_else(|| SuffStats::new(cycles_per_tick)))
    }

    /// The distinct-tick histogram, ascending.
    pub fn histogram(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.hist.iter().map(|(&t, &c)| (t, c))
    }

    /// Number of distinct tick values observed.
    pub fn distinct(&self) -> usize {
        self.hist.len()
    }

    /// Ticks whose cycle conversion overflows `u64` (validation state).
    pub fn overflowing(&self) -> u64 {
        self.overflowing
    }

    /// The statistics of the ticks `policy`'s robust trim keeps, plus the
    /// number of samples it drops — the degradation ladder's trim, on the
    /// histogram alone. The kept statistics are bitwise those of
    /// [`TimingSamples::trimmed`]'s vector.
    pub fn trimmed(&self, policy: TrimPolicy) -> (SuffStats, usize) {
        let keep = trim_filter(&self.counted(), self.cycles_per_tick, policy);
        let kept = SuffStats::from_histogram(
            self.cycles_per_tick,
            self.histogram().filter(|&(t, _)| keep(t)),
            false,
        );
        let dropped = self.len() - kept.len();
        (kept, dropped)
    }

    /// Timer resolution in cycles per tick.
    pub fn cycles_per_tick(&self) -> u64 {
        self.cycles_per_tick
    }

    /// Number of samples observed.
    pub fn len(&self) -> usize {
        self.n.min(usize::MAX as u64) as usize
    }

    /// True when no samples were observed.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Distinct tick values with their multiplicities, ascending — the
    /// form EM and GNT read the histogram in.
    pub fn counted(&self) -> Vec<(u64, usize)> {
        self.hist
            .iter()
            .map(|(&t, &c)| (t, c.min(usize::MAX as u64) as usize))
            .collect()
    }

    /// Sample mean converted to cycles (mean ticks × resolution). No
    /// quantization correction is applied, because none is needed: under a
    /// uniformly random timer phase the floor-quantized tick count of a
    /// duration `d` has mean exactly `d / cycles_per_tick`.
    pub fn mean_cycles(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        (self.sum as f64 / self.n as f64) * self.cycles_per_tick as f64
    }

    /// Unbiased sample variance (`n − 1` denominator) in cycles².
    ///
    /// The numerator `n·Σt² − (Σt)²` is exact in `u128`, so the only
    /// rounding is the final division: a narrow spread on a large offset
    /// (ticks of `1e8 + {0, 1}`) keeps its variance, where the textbook
    /// `Σt² − (Σt)²/n` in `f64` cancels to zero. That `f64` formula is the
    /// fallback only when the exact products overflow or the square-sum has
    /// saturated (see [`SuffStats::saturated`]).
    pub fn variance_cycles(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let n = self.n as u128;
        let exact = n
            .checked_mul(self.sum_sq)
            .filter(|_| !self.saturated)
            .zip(self.sum.checked_mul(self.sum))
            .and_then(|(a, b)| a.checked_sub(b))
            .zip(n.checked_mul(n - 1));
        let var_ticks = match exact {
            Some((num, den)) => num as f64 / den as f64,
            None => {
                let (n, sum, sum_sq) = (self.n as f64, self.sum as f64, self.sum_sq as f64);
                ((sum_sq - sum * sum / n) / (n - 1.0)).max(0.0)
            }
        };
        var_ticks * (self.cycles_per_tick as f64).powi(2)
    }

    /// Checks the statistics are usable as estimator input: a positive
    /// resolution, at least one sample, and every tick convertible to
    /// cycles without overflowing `u64` (the quantization kernel needs
    /// `(tick + 1) · cycles_per_tick`).
    ///
    /// # Errors
    ///
    /// The first [`SampleIssue`] found; an overflow names the largest tick.
    pub fn validate(&self) -> Result<(), SampleIssue> {
        if self.cycles_per_tick == 0 {
            return Err(SampleIssue::ZeroResolution);
        }
        if self.n == 0 {
            return Err(SampleIssue::Empty);
        }
        if self.overflowing > 0 {
            // The largest tick is the offender (overflow is monotone in t).
            let &tick = self.hist.keys().next_back().expect("n > 0");
            return Err(SampleIssue::TickOverflow {
                tick,
                cycles_per_tick: self.cycles_per_tick,
            });
        }
        Ok(())
    }
}

impl DurationSamples for SuffStats {
    fn suff_stats(&self) -> Cow<'_, SuffStats> {
        Cow::Borrowed(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_match_monolithic_view() {
        let samples = TimingSamples::new(vec![115, 215, 115, 115, 215], 8);
        let stats = SuffStats::from_samples(&samples);
        assert_eq!(stats.len(), 5);
        assert_eq!(stats.counted(), samples.counted());
        assert_eq!(stats.mean_cycles(), 155.0 * 8.0);
        // Tick variance 3·2·100² / (5·4) = 3000 → 3000·8² cycles².
        assert_eq!(stats.variance_cycles(), 3000.0 * 64.0);
        assert_eq!(stats.validate(), Ok(()));
    }

    #[test]
    fn variance_is_exact_for_a_narrow_spread_on_a_large_offset() {
        // 1,000 ticks at each of base + {0, 1}: tick variance 0.25·n/(n−1).
        // The f64 form Σt² − (Σt)²/n cancels here: 0.0 at 1e8, 0.2401 at
        // 1e7.
        let want = 0.25 * 2000.0 / 1999.0;
        for base in [10_000_000u64, 100_000_000, 1 << 40] {
            let mut s = SuffStats::new(1);
            for i in 0..2000 {
                s.push(base + i % 2);
            }
            let got = s.variance_cycles();
            assert!((got - want).abs() < 1e-15, "base {base}: {got} vs {want}");
        }
    }

    #[test]
    fn merge_equals_monolithic() {
        let all = TimingSamples::new(vec![1, 2, 2, 3, 5, 8, 8, 8], 4);
        let whole = SuffStats::from_samples(&all);
        let mut a = SuffStats::new(4);
        let mut b = SuffStats::new(4);
        for (i, &t) in all.ticks().iter().enumerate() {
            if i % 2 == 0 {
                a.push(t);
            } else {
                b.push(t);
            }
        }
        let ab = SuffStats::merged(a.clone(), &b).unwrap();
        let ba = SuffStats::merged(b, &a).unwrap();
        assert_eq!(ab, whole);
        assert_eq!(ba, whole);
    }

    #[test]
    fn merge_rejects_resolution_mismatch() {
        let mut a = SuffStats::new(1);
        let b = SuffStats::new(8);
        let err = a.merge(&b).unwrap_err();
        assert_eq!(err, ResolutionMismatch { ours: 1, theirs: 8 });
        assert!(err.to_string().contains("cycles/tick"));
    }

    #[test]
    fn validation_state_tracks_overflow() {
        let mut s = SuffStats::new(8);
        s.push(5);
        assert_eq!(s.overflowing(), 0);
        assert_eq!(s.validate(), Ok(()));
        s.push(u64::MAX);
        assert_eq!(s.overflowing(), 1);
        assert!(matches!(
            s.validate(),
            Err(SampleIssue::TickOverflow { .. })
        ));
    }

    #[test]
    fn empty_and_zero_resolution_validation() {
        assert_eq!(
            SuffStats::new(0).validate(),
            Err(SampleIssue::ZeroResolution)
        );
        assert_eq!(SuffStats::new(1).validate(), Err(SampleIssue::Empty));
    }

    #[test]
    fn saturating_square_sum_is_merge_stable() {
        // Ticks big enough to saturate Σt²: merge order still agrees.
        let big = u64::MAX - 1;
        let mut a = SuffStats::new(1);
        let mut b = SuffStats::new(1);
        a.push(big);
        a.push(big);
        b.push(big);
        let ab = SuffStats::merged(a.clone(), &b).unwrap();
        let ba = SuffStats::merged(b.clone(), &a).unwrap();
        assert_eq!(ab, ba);
        let mut mono = SuffStats::new(1);
        for _ in 0..3 {
            mono.push(big);
        }
        assert_eq!(ab, mono);
        // The histogram-built statistics of the same ticks saturate alike.
        let vector = TimingSamples::new(vec![big, 7, big, u64::MAX, big], 1);
        let mut pushed = SuffStats::new(1);
        vector.ticks().iter().for_each(|&t| pushed.push(t));
        assert_eq!(SuffStats::from_samples(&vector), pushed);
    }

    #[test]
    fn take_empties_in_place_and_preserves_resolution() {
        let mut s = SuffStats::new(8);
        s.push(5);
        s.push(5);
        let taken = s.take();
        assert_eq!(taken.len(), 2);
        assert_eq!(taken.cycles_per_tick(), 8);
        assert_eq!(s, SuffStats::new(8), "receiver left empty at same cpt");
        // Accumulation continues seamlessly after the take.
        s.push(9);
        let whole = SuffStats::merged(taken, &s).unwrap();
        let mut direct = SuffStats::new(8);
        for t in [5, 5, 9] {
            direct.push(t);
        }
        assert_eq!(whole, direct);
    }

    #[test]
    fn tree_reduce_equals_left_fold_at_any_width() {
        let ticks = [1u64, 2, 2, 3, 5, 8, 8, 8, 13, 21, 34];
        let mut whole = SuffStats::new(4);
        for &t in &ticks {
            whole.push(t);
        }
        for width in 1..=ticks.len() {
            let parts: Vec<SuffStats> = ticks
                .chunks(width)
                .map(|c| {
                    let mut s = SuffStats::new(4);
                    c.iter().for_each(|&t| s.push(t));
                    s
                })
                .collect();
            let reduced = SuffStats::tree_reduce(4, parts).unwrap();
            assert_eq!(reduced, whole, "width {width} diverged");
        }
        // Degenerate widths: no parts, and parts that are all empty.
        assert_eq!(
            SuffStats::tree_reduce(4, vec![]).unwrap(),
            SuffStats::new(4)
        );
        let empties = vec![SuffStats::new(4); 5];
        assert_eq!(
            SuffStats::tree_reduce(4, empties).unwrap(),
            SuffStats::new(4)
        );
    }

    #[test]
    fn tree_reduce_rejects_mismatched_resolution_parts() {
        let err =
            SuffStats::tree_reduce(4, vec![SuffStats::new(4), SuffStats::new(8)]).unwrap_err();
        assert_eq!(err, ResolutionMismatch { ours: 4, theirs: 8 });
    }

    #[test]
    fn from_histogram_rebuilds_bitwise() {
        let mut s = SuffStats::new(8);
        for t in [5, 3, 5, 9, 0, u64::MAX] {
            s.push(t);
        }
        let pairs: Vec<(u64, u64)> = s.histogram().collect();
        let rebuilt = SuffStats::from_histogram(8, pairs, s.saturated());
        assert_eq!(rebuilt, s);
        assert_eq!(rebuilt.overflowing(), s.overflowing());
    }

    #[test]
    fn from_histogram_rebuilds_saturated_stats_and_skips_zero_counts() {
        let big = u64::MAX - 1;
        let mut s = SuffStats::new(1);
        s.push(big);
        s.push(big);
        assert!(s.saturated());
        let pairs: Vec<(u64, u64)> = s.histogram().collect();
        let rebuilt = SuffStats::from_histogram(1, pairs.clone(), s.saturated());
        assert_eq!(rebuilt, s);
        // The flag is recomputed even if the snapshot under-reports it.
        assert!(SuffStats::from_histogram(1, pairs, false).saturated());
        // Zero-count entries never exist in pushed stats; skip them.
        let padded = SuffStats::from_histogram(4, vec![(2, 3), (5, 0)], false);
        let mut direct = SuffStats::new(4);
        for _ in 0..3 {
            direct.push(2);
        }
        assert_eq!(padded, direct);
    }

    #[test]
    fn saturation_flag_is_sticky_and_merge_order_insensitive() {
        let big = u64::MAX - 1;
        // Two pushes of big² overflow u128; one does not.
        let mut a = SuffStats::new(1);
        a.push(big);
        assert!(!a.saturated());
        a.push(big);
        assert!(a.saturated(), "second big² must clamp the accumulator");
        assert!(a.saturated());

        // Saturation caused by the *merge* itself, in either order.
        let mut x = SuffStats::new(1);
        let mut y = SuffStats::new(1);
        x.push(big);
        y.push(big);
        assert!(!x.saturated() && !y.saturated());
        let xy = SuffStats::merged(x.clone(), &y).unwrap();
        let yx = SuffStats::merged(y.clone(), &x).unwrap();
        assert!(xy.saturated() && yx.saturated());
        assert_eq!(xy, yx, "flag participates in Eq; orders must agree");

        // Sticky through merges with clean stats, on both sides.
        let mut clean = SuffStats::new(1);
        clean.push(3);
        let sat_then_clean = SuffStats::merged(xy.clone(), &clean).unwrap();
        let clean_then_sat = SuffStats::merged(clean.clone(), &xy).unwrap();
        assert!(sat_then_clean.saturated());
        assert!(clean_then_sat.saturated());
        assert_eq!(sat_then_clean, clean_then_sat);

        // Clean merges never raise the flag.
        let mut c2 = SuffStats::new(1);
        c2.push(7);
        assert!(!SuffStats::merged(clean, &c2).unwrap().saturated());
    }
}
