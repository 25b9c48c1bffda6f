//! Error metrics for comparing estimated profiles against ground truth.

/// Root-mean-square error between two equal-length vectors.
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
pub fn rmse(estimated: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(estimated.len(), truth.len(), "rmse requires equal lengths");
    assert!(!estimated.is_empty(), "rmse of empty vectors");
    let sse: f64 = estimated
        .iter()
        .zip(truth)
        .map(|(a, b)| (a - b) * (a - b))
        .sum();
    (sse / estimated.len() as f64).sqrt()
}

/// Mean absolute error.
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
pub fn mae(estimated: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(estimated.len(), truth.len(), "mae requires equal lengths");
    assert!(!estimated.is_empty(), "mae of empty vectors");
    let sae: f64 = estimated
        .iter()
        .zip(truth)
        .map(|(a, b)| (a - b).abs())
        .sum();
    sae / estimated.len() as f64
}

/// Maximum absolute error.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn max_abs_error(estimated: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(
        estimated.len(),
        truth.len(),
        "max_abs_error requires equal lengths"
    );
    estimated
        .iter()
        .zip(truth)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0_f64, f64::max)
}

/// Weighted mean absolute error: `Σ wᵢ |aᵢ − bᵢ| / Σ wᵢ`.
///
/// Used to weight branch-probability errors by how often the branch executes;
/// an error on a cold branch matters less for placement quality.
///
/// Returns `0.0` when the total weight is zero.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn weighted_mae(estimated: &[f64], truth: &[f64], weights: &[f64]) -> f64 {
    assert_eq!(
        estimated.len(),
        truth.len(),
        "weighted_mae requires equal lengths"
    );
    assert_eq!(estimated.len(), weights.len(), "weights length mismatch");
    let total_w: f64 = weights.iter().sum();
    if total_w <= 0.0 {
        return 0.0;
    }
    let sae: f64 = estimated
        .iter()
        .zip(truth)
        .zip(weights)
        .map(|((a, b), w)| w * (a - b).abs())
        .sum();
    sae / total_w
}

/// Kullback–Leibler divergence `D(truth ‖ estimated)` between two discrete
/// distributions, in nats. Zero-probability truth entries contribute zero;
/// estimated entries are floored at `1e-12` to keep the result finite.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn kl_divergence(truth: &[f64], estimated: &[f64]) -> f64 {
    assert_eq!(truth.len(), estimated.len(), "kl requires equal lengths");
    truth
        .iter()
        .zip(estimated)
        .filter(|(&t, _)| t > 0.0)
        .map(|(&t, &e)| t * (t / e.max(1e-12)).ln())
        .sum()
}

/// Total variation distance `½ Σ |aᵢ − bᵢ|` between two discrete
/// distributions.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn total_variation(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "total variation requires equal lengths");
    0.5 * a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmse_of_identical_is_zero() {
        assert_eq!(rmse(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn rmse_known_value() {
        // Errors 3 and 4 → RMSE = sqrt((9+16)/2) = 3.5355...
        let r = rmse(&[3.0, 4.0], &[0.0, 0.0]);
        assert!((r - (12.5_f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn mae_known_value() {
        assert_eq!(mae(&[1.0, -1.0], &[0.0, 0.0]), 1.0);
    }

    #[test]
    fn max_abs_error_picks_worst() {
        assert_eq!(max_abs_error(&[1.0, 5.0], &[1.0, 2.0]), 3.0);
    }

    #[test]
    fn weighted_mae_ignores_zero_weight_entries() {
        let w = weighted_mae(&[0.0, 10.0], &[0.0, 0.0], &[1.0, 0.0]);
        assert_eq!(w, 0.0);
    }

    #[test]
    fn weighted_mae_weights_proportionally() {
        let w = weighted_mae(&[1.0, 0.0], &[0.0, 0.0], &[3.0, 1.0]);
        assert!((w - 0.75).abs() < 1e-12);
    }

    #[test]
    fn weighted_mae_zero_total_weight_is_zero() {
        assert_eq!(weighted_mae(&[1.0], &[0.0], &[0.0]), 0.0);
    }

    #[test]
    fn kl_of_identical_is_zero() {
        let p = [0.25, 0.75];
        assert!(kl_divergence(&p, &p).abs() < 1e-12);
    }

    #[test]
    fn kl_is_positive_for_different_distributions() {
        assert!(kl_divergence(&[0.5, 0.5], &[0.9, 0.1]) > 0.0);
    }

    #[test]
    fn kl_handles_zero_truth_mass() {
        let d = kl_divergence(&[1.0, 0.0], &[0.5, 0.5]);
        assert!((d - (2.0_f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn total_variation_bounds() {
        assert_eq!(total_variation(&[1.0, 0.0], &[0.0, 1.0]), 1.0);
        assert_eq!(total_variation(&[0.5, 0.5], &[0.5, 0.5]), 0.0);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn rmse_length_mismatch_panics() {
        rmse(&[1.0], &[1.0, 2.0]);
    }
}
