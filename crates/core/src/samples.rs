//! Timing sample containers: what the mote's instrumentation hands the
//! estimator — plus the input hygiene (validation, robust trimming) the
//! estimator applies before trusting samples that crossed a lossy channel.

use crate::stream::SuffStats;
use std::borrow::Cow;
use std::error::Error;
use std::fmt;

/// A defect in a timing-sample set that makes it unusable (or only partially
/// usable) as estimator input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleIssue {
    /// The timer resolution was reported as zero cycles per tick.
    ZeroResolution,
    /// No samples were collected.
    Empty,
    /// A tick value is so large that converting it to cycles overflows
    /// `u64` — a stuck-at counter or a corrupted record, never a real
    /// duration.
    TickOverflow {
        /// The offending tick value.
        tick: u64,
        /// The resolution it was reported at.
        cycles_per_tick: u64,
    },
}

impl fmt::Display for SampleIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SampleIssue::ZeroResolution => write!(f, "timer resolution is zero cycles per tick"),
            SampleIssue::Empty => write!(f, "no timing samples provided"),
            SampleIssue::TickOverflow {
                tick,
                cycles_per_tick,
            } => write!(
                f,
                "tick value {tick} at {cycles_per_tick} cycles/tick overflows the cycle counter"
            ),
        }
    }
}

impl Error for SampleIssue {}

/// Robust-trimming configuration: quantile fences with a spread multiplier.
///
/// The fences are `[q_lo − k·spread, q_hi + k·spread]` where
/// `spread = max(q_hi − q_lo, scaled MAD, 1)`. Quantile spread (rather than
/// a bare MAD fence) keeps legitimately multi-modal duration samples — a
/// branchy procedure's fast/slow paths — inside the fences while cutting
/// channel garbage: merged windows, interrupt-latency spikes, stuck-at
/// counters.
///
/// The default quantile base is deliberately far out (2%/98%): a real
/// program's rare-path mode — a buffer flush every 16th activation, say —
/// is a legitimate duration cluster that an aggressive fence would guillotine,
/// and a mis-trimmed mode biases every downstream estimate. Diffuse
/// contamination that slips inside the wide fences is the estimator's
/// problem, not the trimmer's: the EM likelihood ignores off-support
/// samples, and the ladder's unexplained-fraction budget bounds how much of
/// it an accepted answer may carry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrimPolicy {
    /// Lower fence quantile.
    pub lo_q: f64,
    /// Upper fence quantile.
    pub hi_q: f64,
    /// Spread multiplier beyond the fence quantiles.
    pub k: f64,
}

impl Default for TrimPolicy {
    fn default() -> Self {
        TrimPolicy {
            lo_q: 0.02,
            hi_q: 0.98,
            k: 2.0,
        }
    }
}

/// Any sample form an estimator accepts: everything it reads is the
/// form's sufficient statistics ([`SuffStats`]) — the timer resolution, the
/// distinct-tick histogram and the exact integer moments.
///
/// Two implementations exist: the materialized [`TimingSamples`] vector (one
/// mote's batch, in arrival order) and the mergeable [`SuffStats`]
/// accumulator itself (many motes' batches, reduced). Every estimator entry
/// point is generic over this trait and converts its input once, at the
/// front door; below it only the statistics exist, so a fleet's merged
/// statistics and one mote's vector of the same ticks estimate bitwise
/// alike, and arrival order never reaches an estimator.
pub trait DurationSamples {
    /// The samples' sufficient statistics: borrowed when the samples
    /// already are statistics, built once otherwise.
    fn suff_stats(&self) -> Cow<'_, SuffStats>;
}

impl DurationSamples for TimingSamples {
    fn suff_stats(&self) -> Cow<'_, SuffStats> {
        Cow::Owned(SuffStats::from_samples(self))
    }
}

/// End-to-end timing samples of one procedure: exclusive durations in ticks
/// of a known timer resolution.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingSamples {
    ticks: Vec<u64>,
    cycles_per_tick: u64,
}

impl TimingSamples {
    /// Wraps tick samples measured at `cycles_per_tick` resolution.
    ///
    /// # Panics
    ///
    /// Panics if `cycles_per_tick == 0`. Library code receiving resolutions
    /// from outside should use [`TimingSamples::try_new`]; this constructor
    /// stays for tests and benches with literal resolutions.
    pub fn new(ticks: Vec<u64>, cycles_per_tick: u64) -> TimingSamples {
        match TimingSamples::try_new(ticks, cycles_per_tick) {
            Ok(s) => s,
            Err(_) => panic!("timer resolution must be positive"),
        }
    }

    /// Fallible constructor: wraps tick samples measured at
    /// `cycles_per_tick` resolution.
    ///
    /// # Errors
    ///
    /// [`SampleIssue::ZeroResolution`] if `cycles_per_tick == 0`.
    pub fn try_new(ticks: Vec<u64>, cycles_per_tick: u64) -> Result<TimingSamples, SampleIssue> {
        if cycles_per_tick == 0 {
            return Err(SampleIssue::ZeroResolution);
        }
        Ok(TimingSamples {
            ticks,
            cycles_per_tick,
        })
    }

    /// Robust outlier trimming: returns the samples inside the
    /// quantile-fence window of `policy`, in arrival order, plus the number
    /// dropped. Ticks that overflow the cycle counter (see
    /// [`SampleIssue::TickOverflow`]) are dropped before the fences are
    /// estimated, so a stuck-at counter cannot drag them out.
    pub fn trimmed(&self, policy: TrimPolicy) -> (TimingSamples, usize) {
        let keep = trim_filter(&self.counted(), self.cycles_per_tick, policy);
        let ticks: Vec<u64> = self.ticks.iter().copied().filter(|&t| keep(t)).collect();
        let dropped = self.ticks.len() - ticks.len();
        (
            TimingSamples {
                ticks,
                cycles_per_tick: self.cycles_per_tick,
            },
            dropped,
        )
    }

    /// The raw tick values.
    pub fn ticks(&self) -> &[u64] {
        &self.ticks
    }

    /// Timer resolution in cycles per tick.
    pub fn cycles_per_tick(&self) -> u64 {
        self.cycles_per_tick
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.ticks.len()
    }

    /// True when no samples were collected.
    pub fn is_empty(&self) -> bool {
        self.ticks.is_empty()
    }

    /// Distinct tick values with their multiplicities, ascending.
    pub fn counted(&self) -> Vec<(u64, usize)> {
        let mut sorted = self.ticks.clone();
        sorted.sort_unstable();
        let mut out: Vec<(u64, usize)> = Vec::new();
        for t in sorted {
            match out.last_mut() {
                Some((v, n)) if *v == t => *n += 1,
                _ => out.push((t, 1)),
            }
        }
        out
    }
}

/// True when tick `t`'s cycle conversion `(t + 1) · cycles_per_tick`
/// overflows `u64` — a stuck-at counter or a corrupted record, never a real
/// duration (the quantization kernel needs that product).
pub(crate) fn tick_overflows(t: u64, cycles_per_tick: u64) -> bool {
    t.checked_add(1)
        .and_then(|t1| t1.checked_mul(cycles_per_tick))
        .is_none()
}

/// The keep-predicate of `policy`'s robust trim over a distinct-tick
/// histogram `counted` (ascending, as [`TimingSamples::counted`] returns it)
/// observed at `cycles_per_tick`: true for a tick inside the quantile-fence
/// window of [`fences`].
///
/// Overflowing ticks ([`tick_overflows`]) are dropped
/// unconditionally *before* the fences are estimated: they can never be
/// real durations, and at contamination rates beyond the fence quantile
/// they would otherwise poison the quantiles themselves (a stuck-at
/// counter at 30% would drag the upper fence to `u64::MAX`). Callers that
/// need a hard validity guarantee still re-validate afterwards (the
/// degradation ladder does).
pub(crate) fn trim_filter(
    counted: &[(u64, usize)],
    cycles_per_tick: u64,
    policy: TrimPolicy,
) -> impl Fn(u64) -> bool {
    let sane: Vec<(u64, usize)> = counted
        .iter()
        .copied()
        .filter(|&(t, _)| !tick_overflows(t, cycles_per_tick))
        .collect();
    let window = fences(&sane, policy);
    move |t| {
        let x = t as f64;
        !tick_overflows(t, cycles_per_tick) && window.is_some_and(|(lo, hi)| x >= lo && x <= hi)
    }
}

/// The trimming window `[lo, hi]` of `policy` over an overflow-free
/// distinct-tick histogram (ascending, as [`TimingSamples::counted`]
/// returns it); `None` when the histogram is empty.
///
/// The fences are `[q_lo − k·spread, q_hi + k·spread]` with
/// `spread = max(q_hi − q_lo, scaled MAD, 1)`, every quantile a
/// [`count_quantile`] of the histogram — bitwise equal to
/// [`ct_stats::descriptive::quantile`] over the expanded tick vector.
fn fences(counted: &[(u64, usize)], policy: TrimPolicy) -> Option<(f64, f64)> {
    if counted.is_empty() {
        return None;
    }
    let xs: Vec<(f64, usize)> = counted.iter().map(|&(t, n)| (t as f64, n)).collect();
    let q_lo = count_quantile(&xs, policy.lo_q);
    let q_hi = count_quantile(&xs, policy.hi_q);
    // Scaled median absolute deviation: consistent with σ under
    // normality; zero for majority-constant samples, hence the max
    // with the quantile spread and 1 tick. The deviation histogram has
    // one entry per distinct tick, so sorting it is cheap.
    let med = count_quantile(&xs, 0.5);
    let mut dev: Vec<(f64, usize)> = xs.iter().map(|&(x, n)| ((x - med).abs(), n)).collect();
    dev.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mad = 1.4826 * count_quantile(&dev, 0.5);
    let spread = (q_hi - q_lo).max(mad).max(1.0);
    Some((q_lo - policy.k * spread, q_hi + policy.k * spread))
}

/// The `q`-quantile of the sample a non-empty `(value, multiplicity)`
/// histogram (ascending by value) describes: the same order statistics and
/// type-7 interpolation as [`ct_stats::descriptive::quantile`] over the
/// expanded vector, hence bitwise equal to it, without materializing or
/// sorting that vector.
///
/// # Panics
///
/// Like `quantile`, if `q` is outside `[0, 1]`.
fn count_quantile(hist: &[(f64, usize)], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile level must be in [0,1]");
    let total: usize = hist.iter().map(|&(_, n)| n).sum();
    let order_stat = |k: usize| {
        let mut seen = 0;
        hist.iter()
            .find(|&&(_, n)| {
                seen += n;
                k < seen
            })
            .map_or(f64::NAN, |&(x, _)| x)
    };
    let pos = q * (total as f64 - 1.0);
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        order_stat(lo)
    } else {
        let frac = pos - lo as f64;
        order_stat(lo) * (1.0 - frac) + order_stat(hi) * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_stats::descriptive::quantile;
    use proptest::prelude::*;

    #[test]
    fn counted_groups_duplicates() {
        let s = TimingSamples::new(vec![3, 1, 3, 3, 2, 1], 1);
        assert_eq!(s.counted(), vec![(1, 2), (2, 1), (3, 3)]);
    }

    #[test]
    fn mean_scales_with_resolution() {
        let s = TimingSamples::new(vec![2, 4], 100);
        assert!((s.suff_stats().mean_cycles() - 300.0).abs() < 1e-12);
    }

    #[test]
    fn variance_scales_quadratically() {
        let s = TimingSamples::new(vec![2, 4], 10);
        // tick variance = 2 → cycles² variance = 200.
        assert!((s.suff_stats().variance_cycles() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn empty_samples_are_harmless() {
        let s = TimingSamples::new(vec![], 10);
        assert!(s.is_empty());
        assert_eq!(s.suff_stats().mean_cycles(), 0.0);
        assert_eq!(s.counted(), vec![]);
    }

    #[test]
    #[should_panic(expected = "resolution must be positive")]
    fn zero_resolution_rejected() {
        TimingSamples::new(vec![1], 0);
    }

    #[test]
    fn try_new_rejects_zero_resolution() {
        assert_eq!(
            TimingSamples::try_new(vec![1], 0),
            Err(SampleIssue::ZeroResolution)
        );
        assert!(TimingSamples::try_new(vec![1], 8).is_ok());
    }

    #[test]
    fn trimming_keeps_bimodal_bulk_and_drops_spikes() {
        // Legit two-path durations 115/215 plus channel garbage.
        let mut ticks = vec![115u64; 70];
        ticks.extend(vec![215u64; 30]);
        ticks.push(90_000); // interrupt-latency spike
        ticks.push(u64::MAX); // stuck-at counter
        let s = TimingSamples::new(ticks, 1);
        let (t, dropped) = s.trimmed(TrimPolicy::default());
        assert_eq!(dropped, 2);
        assert_eq!(t.len(), 100);
        assert!(t.ticks().contains(&215), "slow path survives trimming");
        assert_eq!(SuffStats::from_samples(&t).validate(), Ok(()));
    }

    #[test]
    fn trimming_survives_heavy_stuck_at_contamination() {
        // 30% all-ones readings — beyond the fence quantile. The overflow
        // pre-filter must remove them before quantile estimation, or the
        // upper fence would blow up and keep everything.
        let mut ticks = vec![115u64; 49];
        ticks.extend(vec![215u64; 21]);
        ticks.extend(vec![u64::MAX; 30]);
        let s = TimingSamples::new(ticks, 244);
        let (t, dropped) = s.trimmed(TrimPolicy::default());
        assert_eq!(dropped, 30);
        assert_eq!(t.len(), 70);
        assert_eq!(SuffStats::from_samples(&t).validate(), Ok(()));
    }

    #[test]
    fn trimming_clean_samples_is_identity() {
        let mut ticks = vec![115u64; 70];
        ticks.extend(vec![215u64; 30]);
        let s = TimingSamples::new(ticks, 1);
        let (t, dropped) = s.trimmed(TrimPolicy::default());
        assert_eq!(dropped, 0);
        assert_eq!(t, s);
        let empty = TimingSamples::new(vec![], 1);
        assert_eq!(empty.trimmed(TrimPolicy::default()).1, 0);
    }

    /// The fences as trimming computed them before the histogram: three
    /// `descriptive::quantile` calls over the expanded f64 vector of the
    /// overflow-free ticks.
    fn expanded_fences(sane: &[u64], policy: TrimPolicy) -> Option<(f64, f64)> {
        if sane.is_empty() {
            return None;
        }
        let xs: Vec<f64> = sane.iter().map(|&t| t as f64).collect();
        let q_lo = quantile(&xs, policy.lo_q);
        let q_hi = quantile(&xs, policy.hi_q);
        let med = quantile(&xs, 0.5);
        let dev: Vec<f64> = xs.iter().map(|x| (x - med).abs()).collect();
        let mad = 1.4826 * quantile(&dev, 0.5);
        let spread = (q_hi - q_lo).max(mad).max(1.0);
        Some((q_lo - policy.k * spread, q_hi + policy.k * spread))
    }

    fn bits(w: Option<(f64, f64)>) -> Option<(u64, u64)> {
        w.map(|(lo, hi)| (lo.to_bits(), hi.to_bits()))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Count-quantile fences are bitwise the expanded-vector fences, and
        /// the trimmed statistics are the statistics of the trimmed vector,
        /// on duplicate-heavy sets, stuck-at ticks, huge ticks whose f64
        /// images collide, single-value sets and empty sets, under wide and
        /// narrow policies.
        #[test]
        fn count_quantile_fences_match_the_expanded_vector(
            raw in prop::collection::vec((0u64..48, 0u8..8), 0..300),
            scale in prop_oneof![Just(1u64), Just(37), Just(1u64 << 52), Just(1u64 << 58)],
            cpt in prop_oneof![Just(1u64), Just(8), Just(244)],
            single in any::<bool>(),
            policy in prop_oneof![
                Just(TrimPolicy::default()),
                // Narrow quantile bases, where the scaled MAD can set the
                // spread (it never outgrows the default 2%–98% range).
                Just(TrimPolicy { lo_q: 0.25, hi_q: 0.75, k: 1.5 }),
                Just(TrimPolicy { lo_q: 0.5, hi_q: 0.5, k: 3.0 }),
            ],
        ) {
            // Kind 0 is a stuck-at counter; the rest land on a small pool
            // of values (duplicates), collapsed to one value when `single`.
            let ticks: Vec<u64> = raw
                .iter()
                .map(|&(v, kind)| match kind {
                    0 => u64::MAX,
                    _ if single => 115u64.saturating_mul(scale),
                    _ => v.saturating_mul(scale),
                })
                .collect();
            let s = TimingSamples::new(ticks, cpt);
            let fits = |t: u64| t.checked_add(1).and_then(|t1| t1.checked_mul(cpt)).is_some();
            let counted = s.counted();
            let sane_counted: Vec<(u64, usize)> =
                counted.iter().copied().filter(|&(t, _)| fits(t)).collect();
            let sane: Vec<u64> = s.ticks().iter().copied().filter(|&t| fits(t)).collect();
            let window = fences(&sane_counted, policy);
            prop_assert_eq!(bits(window), bits(expanded_fences(&sane, policy)));

            let kept_ref: Vec<u64> = sane
                .iter()
                .copied()
                .filter(|&t| window.is_some_and(|(lo, hi)| (lo..=hi).contains(&(t as f64))))
                .collect();
            let (trimmed, dropped) = s.trimmed(policy);
            prop_assert_eq!(trimmed.ticks(), &kept_ref[..]);
            prop_assert_eq!(dropped, s.len() - kept_ref.len());
            // The histogram trim the ladder runs keeps exactly the
            // statistics of the trimmed vector.
            let (kept_stats, stats_dropped) = s.suff_stats().trimmed(policy);
            prop_assert_eq!(kept_stats, SuffStats::from_samples(&trimmed));
            prop_assert_eq!(stats_dropped, dropped);
        }
    }

    #[test]
    fn issue_display() {
        assert!(SampleIssue::ZeroResolution.to_string().contains("zero"));
        let o = SampleIssue::TickOverflow {
            tick: u64::MAX,
            cycles_per_tick: 8,
        };
        assert!(o.to_string().contains("overflows"));
    }
}
