//! The quantization likelihood kernel: probability of observing a tick count
//! given a true cycle duration.
//!
//! A procedure whose activation starts at a uniformly random timer phase
//! `φ ∈ [0, cpt)` and runs for `d` cycles is observed as
//! `⌊(φ+d)/cpt⌋ − ⌊φ/cpt⌋` ticks, which equals `⌊d/cpt⌋` with probability
//! `1 − (d mod cpt)/cpt` and `⌊d/cpt⌋ + 1` otherwise. This two-point kernel
//! is what lets the estimator use coarse timers *exactly* instead of
//! pretending ticks are cycles.

/// Probability of observing `ticks` given a true duration of `d` cycles on a
/// timer with `cpt` cycles per tick, under a uniformly random start phase.
///
/// # Panics
///
/// Panics if `cpt == 0`.
pub fn tick_likelihood(ticks: u64, d: u64, cpt: u64) -> f64 {
    assert!(cpt > 0, "cycles per tick must be positive");
    let base = d / cpt;
    let frac = (d % cpt) as f64 / cpt as f64;
    if ticks == base {
        1.0 - frac
    } else if Some(ticks) == base.checked_add(1) {
        frac
    } else {
        0.0
    }
}

/// Why a duration window could not be formed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowError {
    /// The timer resolution is zero cycles per tick: every window formula
    /// collapses (the saturating chain would yield the inverted pair
    /// `(1, 0)`), and no tick count maps to any duration.
    ZeroResolution,
    /// The saturating arithmetic inverted the fence (`lo > hi`): `ticks` is
    /// so close to the top of the counter that `(ticks+1)·cpt − 1` clamps
    /// below `(ticks−1)·cpt + 1`. Such a tick is a corrupted record, never
    /// a real duration — no PMF has support there.
    DegenerateWindow {
        /// The offending tick count.
        ticks: u64,
        /// The resolution it was evaluated at.
        cpt: u64,
    },
}

impl std::fmt::Display for WindowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WindowError::ZeroResolution => {
                write!(f, "cycles per tick is zero; no duration window exists")
            }
            WindowError::DegenerateWindow { ticks, cpt } => write!(
                f,
                "duration window for {ticks} ticks at {cpt} cycles/tick is degenerate \
                 (saturated arithmetic inverted the fence)"
            ),
        }
    }
}

impl std::error::Error for WindowError {}

/// The saturating fence chain shared by both window entry points.
fn raw_window(ticks: u64, cpt: u64) -> (u64, u64) {
    let lo = ticks
        .saturating_sub(1)
        .saturating_mul(cpt)
        .saturating_add(u64::from(ticks > 0));
    let hi = ticks
        .saturating_add(1)
        .saturating_mul(cpt)
        .saturating_sub(1);
    (lo, hi)
}

/// The inclusive range of cycle durations that could produce `ticks` with
/// nonzero probability: `[(ticks−1)·cpt + 1, (ticks+1)·cpt − 1]`, clipped at
/// zero — or a typed error when no such range exists.
///
/// # Errors
///
/// [`WindowError::ZeroResolution`] when `cpt == 0`;
/// [`WindowError::DegenerateWindow`] when saturation inverts the fence
/// (tick values near the top of the counter — corrupted records).
pub fn try_duration_window(ticks: u64, cpt: u64) -> Result<(u64, u64), WindowError> {
    if cpt == 0 {
        return Err(WindowError::ZeroResolution);
    }
    let (lo, hi) = raw_window(ticks, cpt);
    if lo > hi {
        return Err(WindowError::DegenerateWindow { ticks, cpt });
    }
    Ok((lo, hi))
}

/// Infallible form of [`try_duration_window`] for callers that have already
/// validated their ticks (the estimators validate samples up front).
///
/// Saturates at `u64::MAX` for tick values near the top of the counter
/// (corrupted records), where no real duration PMF has support anyway — the
/// degenerate inverted pair makes the sample score zero instead of tripping
/// an arithmetic overflow.
///
/// # Panics
///
/// Panics if `cpt == 0`.
pub fn duration_window(ticks: u64, cpt: u64) -> (u64, u64) {
    assert!(cpt > 0, "cycles per tick must be positive");
    raw_window(ticks, cpt)
}

/// Probability of observing `ticks` under a duration PMF:
/// `Σ_d p(d) · tick_likelihood(ticks, d, cpt)`, summed left to right.
///
/// Only the support inside [`duration_window`] is visited, so scoring is
/// O(log |pmf| + window) regardless of the PMF's full support size: the
/// window is resolved with run detection (contiguous-support PMFs skip the
/// binary searches) and the masses stream from a contiguous slice.
pub fn pmf_tick_score_soa(pmf: &ct_stats::pmf::Pmf, ticks: u64, cpt: u64) -> f64 {
    match try_duration_window(ticks, cpt) {
        Ok((lo, hi)) => {
            let (a, b) = pmf.window(lo, hi);
            pmf.keys()[a..b]
                .iter()
                .zip(&pmf.masses()[a..b])
                .map(|(&d, &m)| m * tick_likelihood(ticks, d, cpt))
                .sum()
        }
        // Corrupted tick: no duration produces it, the sample scores zero.
        Err(WindowError::DegenerateWindow { .. }) => 0.0,
        Err(WindowError::ZeroResolution) => panic!("cycles per tick must be positive"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference score over sorted flat `(cycles, mass)` pairs: same
    /// windowing and summation order as [`pmf_tick_score_soa`], which must
    /// match it bit for bit.
    fn pmf_tick_score(pmf: &[(u64, f64)], ticks: u64, cpt: u64) -> f64 {
        match try_duration_window(ticks, cpt) {
            Ok((lo, hi)) => ct_stats::pmf::slice_range(pmf, lo, hi)
                .iter()
                .map(|&(d, m)| m * tick_likelihood(ticks, d, cpt))
                .sum(),
            // Corrupted tick: no duration produces it, the sample scores zero.
            Err(WindowError::DegenerateWindow { .. }) => 0.0,
            Err(WindowError::ZeroResolution) => panic!("cycles per tick must be positive"),
        }
    }

    #[test]
    fn exact_multiple_is_deterministic() {
        assert_eq!(tick_likelihood(3, 300, 100), 1.0);
        assert_eq!(tick_likelihood(4, 300, 100), 0.0);
        assert_eq!(tick_likelihood(2, 300, 100), 0.0);
    }

    #[test]
    fn kernel_sums_to_one() {
        for d in [0u64, 1, 99, 100, 101, 250, 999] {
            let total: f64 = (0..20).map(|t| tick_likelihood(t, d, 100)).sum();
            assert!((total - 1.0).abs() < 1e-12, "d={d}");
        }
    }

    #[test]
    fn kernel_is_unbiased() {
        let cpt = 100;
        for d in [37u64, 150, 249, 980] {
            let mean: f64 = (0..20).map(|t| t as f64 * tick_likelihood(t, d, cpt)).sum();
            assert!((mean - d as f64 / cpt as f64).abs() < 1e-12, "d={d}");
        }
    }

    #[test]
    fn fractional_part_splits_mass() {
        // d = 250, cpt = 100: 2 ticks w.p. 0.5, 3 ticks w.p. 0.5.
        assert!((tick_likelihood(2, 250, 100) - 0.5).abs() < 1e-12);
        assert!((tick_likelihood(3, 250, 100) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cycle_accurate_timer_is_exact() {
        assert_eq!(tick_likelihood(57, 57, 1), 1.0);
        assert_eq!(tick_likelihood(56, 57, 1), 0.0);
    }

    #[test]
    fn window_covers_support() {
        let cpt = 100;
        for ticks in [0u64, 1, 5] {
            let (lo, hi) = duration_window(ticks, cpt);
            // Everything inside the window has positive likelihood...
            for d in lo..=hi {
                assert!(tick_likelihood(ticks, d, cpt) > 0.0, "ticks={ticks} d={d}");
            }
            // ...and the boundary just outside has zero.
            if lo > 0 {
                assert_eq!(tick_likelihood(ticks, lo - 1, cpt), 0.0);
            }
            assert_eq!(tick_likelihood(ticks, hi + 1, cpt), 0.0);
        }
    }

    #[test]
    fn zero_duration_is_zero_ticks() {
        assert_eq!(tick_likelihood(0, 0, 244), 1.0);
        assert_eq!(duration_window(0, 244), (0, 243));
    }

    #[test]
    fn extreme_ticks_saturate_instead_of_overflowing() {
        // A stuck-at counter reports ticks near u64::MAX; the window must
        // saturate and the score must be zero, not a panic.
        // Both bounds saturate; the window degenerates to empty (lo > hi),
        // which `slice_range` treats as zero support.
        let (lo, hi) = duration_window(u64::MAX, 244);
        assert_eq!(lo, u64::MAX);
        assert_eq!(hi, u64::MAX - 1);
        assert_eq!(tick_likelihood(u64::MAX, u64::MAX, 1), 1.0);
        let pmf = vec![(116u64, 1.0)];
        assert_eq!(pmf_tick_score(&pmf, u64::MAX, 244), 0.0);
    }

    #[test]
    fn try_window_boundaries() {
        // Zero ticks is a real observation: durations shorter than one tick.
        assert_eq!(try_duration_window(0, 244), Ok((0, 243)));
        // Cycle-accurate timer: width-1 windows everywhere reasonable.
        assert_eq!(try_duration_window(7, 1), Ok((7, 7)));
        // Zero resolution is a typed error, not a degenerate interval.
        assert_eq!(try_duration_window(0, 0), Err(WindowError::ZeroResolution));
        assert_eq!(
            try_duration_window(u64::MAX, 0),
            Err(WindowError::ZeroResolution)
        );
        // Ticks at the top of the counter invert the saturated fence.
        assert_eq!(
            try_duration_window(u64::MAX, 244),
            Err(WindowError::DegenerateWindow {
                ticks: u64::MAX,
                cpt: 244
            })
        );
        assert_eq!(
            try_duration_window(u64::MAX, 1),
            Err(WindowError::DegenerateWindow {
                ticks: u64::MAX,
                cpt: 1
            })
        );
        // The largest non-degenerate tick at cpt = 1 sits one below the top.
        assert_eq!(
            try_duration_window(u64::MAX - 1, 1),
            Ok((u64::MAX - 1, u64::MAX - 1))
        );
        // Every Ok window agrees with the infallible form.
        for (ticks, cpt) in [(0u64, 244u64), (7, 1), (5, 100), (u64::MAX - 1, 1)] {
            assert_eq!(
                try_duration_window(ticks, cpt),
                Ok(duration_window(ticks, cpt))
            );
        }
    }

    #[test]
    fn window_error_display() {
        assert!(WindowError::ZeroResolution.to_string().contains("zero"));
        let e = WindowError::DegenerateWindow {
            ticks: u64::MAX,
            cpt: 8,
        };
        assert!(e.to_string().contains("degenerate"));
    }

    #[test]
    fn soa_score_matches_slice_score_bitwise() {
        let entries = vec![(250u64, 0.5), (310u64, 0.5), (311u64, 0.125)];
        let pmf = ct_stats::pmf::Pmf::from_sorted(entries.clone());
        for ticks in 0..10 {
            let slice = pmf_tick_score(&entries, ticks, 100);
            let soa = pmf_tick_score_soa(&pmf, ticks, 100);
            assert_eq!(slice.to_bits(), soa.to_bits(), "ticks={ticks}");
        }
        assert_eq!(pmf_tick_score_soa(&pmf, u64::MAX, 244), 0.0);
    }

    #[test]
    fn pmf_score_matches_pointwise_sum() {
        // d = 250 and d = 310 under cpt = 100, observed tick 3:
        // 0.5·0.5 (from 250) + 0.5·0.9 (from 310) = 0.7.
        let pmf = vec![(250u64, 0.5), (310u64, 0.5)];
        assert!((pmf_tick_score(&pmf, 3, 100) - 0.7).abs() < 1e-12);
        // Out-of-window support contributes nothing.
        assert_eq!(pmf_tick_score(&pmf, 9, 100), 0.0);
    }
}
