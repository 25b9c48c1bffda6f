//! Small probability-distribution helpers used across the workspace.
//!
//! These cover exactly the needs of the Markov machinery and the workload
//! generators: categorical draws over branch successors and simplex
//! projection for estimator parameter vectors.

use rand::Rng;

/// A categorical distribution over `0..k` given by (not necessarily
/// normalized) nonnegative weights.
///
/// # Examples
///
/// ```
/// use ct_stats::dist::Categorical;
/// use rand::SeedableRng;
/// let c = Categorical::new(&[1.0, 3.0]).unwrap();
/// assert!((c.prob(1) - 0.75).abs() < 1e-12);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let x = c.sample(&mut rng);
/// assert!(x < 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Categorical {
    probs: Vec<f64>,
    cumulative: Vec<f64>,
}

impl Categorical {
    /// Builds a categorical distribution from nonnegative weights.
    ///
    /// Returns `None` when `weights` is empty, contains a negative or
    /// non-finite value, or sums to zero.
    pub fn new(weights: &[f64]) -> Option<Categorical> {
        if weights.is_empty() {
            return None;
        }
        if weights.iter().any(|&w| !w.is_finite() || w < 0.0) {
            return None;
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return None;
        }
        let probs: Vec<f64> = weights.iter().map(|w| w / total).collect();
        let mut cumulative = Vec::with_capacity(probs.len());
        let mut acc = 0.0;
        for &p in &probs {
            acc += p;
            cumulative.push(acc);
        }
        // Guard against floating point drift on the last entry.
        *cumulative.last_mut().expect("nonempty") = 1.0;
        Some(Categorical { probs, cumulative })
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// True when there are no categories. (Never true for a constructed
    /// value; provided for API completeness.)
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }

    /// Probability of category `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn prob(&self, i: usize) -> f64 {
        self.probs[i]
    }

    /// The normalized probability vector.
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Draws a category index.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        // Binary search over the cumulative distribution.
        match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&u).expect("finite"))
        {
            Ok(i) => (i + 1).min(self.probs.len() - 1),
            Err(i) => i.min(self.probs.len() - 1),
        }
    }
}

/// Projects an arbitrary vector onto the probability simplex
/// (`xᵢ ≥ 0`, `Σxᵢ = 1`) in Euclidean distance (Duchi et al. 2008).
///
/// Used by the projected-gradient method-of-moments estimator to keep branch
/// probability vectors feasible.
///
/// # Panics
///
/// Panics if `v` is empty.
pub fn project_to_simplex(v: &[f64]) -> Vec<f64> {
    assert!(!v.is_empty(), "cannot project empty vector");
    let mut u = v.to_vec();
    u.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
    let mut css = 0.0;
    let mut rho = 0;
    let mut theta = 0.0;
    for (i, &ui) in u.iter().enumerate() {
        css += ui;
        let t = (css - 1.0) / (i as f64 + 1.0);
        if ui - t > 0.0 {
            rho = i;
            theta = t;
        }
    }
    let _ = rho;
    v.iter().map(|&x| (x - theta).max(0.0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn categorical_normalizes_weights() {
        let c = Categorical::new(&[2.0, 6.0]).unwrap();
        assert!((c.prob(0) - 0.25).abs() < 1e-12);
        assert!((c.prob(1) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn categorical_rejects_bad_weights() {
        assert!(Categorical::new(&[]).is_none());
        assert!(Categorical::new(&[0.0, 0.0]).is_none());
        assert!(Categorical::new(&[-1.0, 2.0]).is_none());
        assert!(Categorical::new(&[f64::NAN]).is_none());
    }

    #[test]
    fn categorical_sampling_matches_probabilities() {
        let c = Categorical::new(&[1.0, 3.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let n = 20_000;
        let mut counts = [0usize; 2];
        for _ in 0..n {
            counts[c.sample(&mut rng)] += 1;
        }
        let f1 = counts[1] as f64 / n as f64;
        assert!((f1 - 0.75).abs() < 0.02, "got {f1}");
    }

    #[test]
    fn categorical_degenerate_always_samples_same() {
        let c = Categorical::new(&[0.0, 1.0, 0.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(c.sample(&mut rng), 1);
        }
    }

    #[test]
    fn simplex_projection_of_feasible_point_is_identity() {
        let v = [0.2, 0.3, 0.5];
        let p = project_to_simplex(&v);
        for (a, b) in v.iter().zip(&p) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn simplex_projection_is_feasible() {
        let v = [2.0, -1.0, 0.5];
        let p = project_to_simplex(&v);
        assert!(p.iter().all(|&x| x >= 0.0));
        let s: f64 = p.iter().sum();
        assert!((s - 1.0).abs() < 1e-9);
    }
}
