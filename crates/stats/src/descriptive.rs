//! Descriptive statistics over `f64` samples.

/// Summary statistics of a sample.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean; `0.0` for an empty sample.
    pub mean: f64,
    /// Unbiased sample variance (n−1 denominator); `0.0` when `n < 2`.
    pub variance: f64,
    /// Minimum; `0.0` for an empty sample.
    pub min: f64,
    /// Maximum; `0.0` for an empty sample.
    pub max: f64,
}

impl Summary {
    /// Computes a summary of `xs` in one pass (Welford's algorithm).
    ///
    /// # Examples
    ///
    /// ```
    /// use ct_stats::descriptive::Summary;
    /// let s = Summary::of(&[1.0, 2.0, 3.0]);
    /// assert_eq!(s.mean, 2.0);
    /// assert_eq!(s.variance, 1.0);
    /// ```
    pub fn of(xs: &[f64]) -> Summary {
        if xs.is_empty() {
            return Summary::default();
        }
        let mut mean = 0.0;
        let mut m2 = 0.0;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for (i, &x) in xs.iter().enumerate() {
            let delta = x - mean;
            mean += delta / (i as f64 + 1.0);
            m2 += delta * (x - mean);
            min = min.min(x);
            max = max.max(x);
        }
        let n = xs.len();
        let variance = if n >= 2 { m2 / (n as f64 - 1.0) } else { 0.0 };
        Summary {
            n,
            mean,
            variance,
            min,
            max,
        }
    }

    /// Standard deviation (square root of the unbiased variance).
    pub fn std_dev(&self) -> f64 {
        self.variance.sqrt()
    }
}

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    Summary::of(xs).mean
}

/// Unbiased sample variance; `0.0` when fewer than two samples.
pub fn variance(xs: &[f64]) -> f64 {
    Summary::of(xs).variance
}

/// The `q`-quantile (0 ≤ q ≤ 1) using linear interpolation between order
/// statistics (type-7, the numpy default).
///
/// # Panics
///
/// Panics if `xs` is empty or `q` is outside `[0, 1]`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile level must be in [0,1]");
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    let pos = q * (sorted.len() as f64 - 1.0);
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Median (the 0.5-quantile).
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Pearson correlation coefficient of two equal-length samples.
///
/// Returns `0.0` when either sample has zero variance.
///
/// # Panics
///
/// Panics if the slices have different lengths or fewer than two elements.
pub fn correlation(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "correlation requires equal lengths");
    assert!(xs.len() >= 2, "correlation requires at least two samples");
    let mx = mean(xs);
    let my = mean(ys);
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    if vx == 0.0 || vy == 0.0 {
        0.0
    } else {
        cov / (vx.sqrt() * vy.sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.variance - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert_eq!(s.n, 8);
    }

    #[test]
    fn summary_of_empty_is_default() {
        assert_eq!(Summary::of(&[]), Summary::default());
    }

    #[test]
    fn summary_single_sample_has_zero_variance() {
        let s = Summary::of(&[42.0]);
        assert_eq!(s.variance, 0.0);
        assert_eq!(s.mean, 42.0);
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((quantile(&xs, 0.5) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn median_of_odd_sample() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn correlation_of_linear_relation_is_one() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((correlation(&xs, &ys) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn correlation_of_anticorrelated_is_minus_one() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [3.0, 2.0, 1.0];
        assert!((correlation(&xs, &ys) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn correlation_constant_sample_is_zero() {
        assert_eq!(correlation(&[1.0, 1.0], &[2.0, 3.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn quantile_empty_panics() {
        quantile(&[], 0.5);
    }
}
