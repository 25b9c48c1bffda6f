//! Absorbing-chain analysis: fundamental matrix, expected visits, absorption
//! probabilities.
//!
//! A sensor procedure's execution is an absorbing chain: basic blocks are
//! transient states and the return block absorbs. The fundamental matrix
//! `N = (I − Q)⁻¹` gives expected visit counts, the quantity the paper's
//! estimators reconstruct from timing data.

use crate::chain::{ChainError, Dtmc};
use ct_stats::matrix::Matrix;
use ct_stats::solve::Lu;

/// Absorbing-chain decomposition of a [`Dtmc`].
#[derive(Debug, Clone)]
pub struct AbsorbingAnalysis {
    /// Transient state indices (original numbering), in order.
    transient: Vec<usize>,
    /// Absorbing state indices (original numbering), in order.
    absorbing: Vec<usize>,
    /// Fundamental matrix `N = (I − Q)⁻¹` over transient states.
    fundamental: Matrix,
    /// `R`: transient → absorbing one-step probabilities.
    r: Matrix,
}

impl AbsorbingAnalysis {
    /// Decomposes `chain` and computes its fundamental matrix.
    ///
    /// # Errors
    ///
    /// [`ChainError::NoAbsorbingStates`] when nothing absorbs, and
    /// [`ChainError::AbsorptionUnreachable`] when `(I − Q)` is singular —
    /// which happens exactly when some transient state cannot reach an
    /// absorbing state.
    pub fn new(chain: &Dtmc) -> Result<AbsorbingAnalysis, ChainError> {
        let absorbing = chain.absorbing_states();
        if absorbing.is_empty() {
            return Err(ChainError::NoAbsorbingStates);
        }
        let transient = chain.transient_states();
        if transient.is_empty() {
            // Degenerate: every state absorbs; represent with empty matrices
            // by special-casing all queries.
            return Ok(AbsorbingAnalysis {
                transient,
                absorbing,
                fundamental: Matrix::identity(1),
                r: Matrix::identity(1),
            });
        }
        let t = transient.len();
        let a = absorbing.len();
        let mut i_minus_q = Matrix::identity(t);
        let mut r = Matrix::zeros(t, a);
        for (ti, &si) in transient.iter().enumerate() {
            for (tj, &sj) in transient.iter().enumerate() {
                i_minus_q[(ti, tj)] -= chain.prob(si, sj);
            }
            for (aj, &sj) in absorbing.iter().enumerate() {
                r[(ti, aj)] = chain.prob(si, sj);
            }
        }
        let lu = Lu::factor(&i_minus_q).map_err(|_| {
            // Singular (I − Q): find a witness state that cannot reach
            // absorption to make the error actionable.
            let witness = transient
                .iter()
                .copied()
                .find(|&s| !can_reach_absorption(chain, s))
                .unwrap_or(transient[0]);
            ChainError::AbsorptionUnreachable { state: witness }
        })?;
        let fundamental = lu
            .inverse()
            .map_err(|e| ChainError::Numeric(e.to_string()))?;
        Ok(AbsorbingAnalysis {
            transient,
            absorbing,
            fundamental,
            r,
        })
    }

    /// The transient states, in the order used by matrix rows.
    pub fn transient(&self) -> &[usize] {
        &self.transient
    }

    /// The absorbing states.
    pub fn absorbing(&self) -> &[usize] {
        &self.absorbing
    }

    /// Expected number of visits to each state before absorption, starting
    /// from `start` (original numbering; absorbing states report 0 visits as
    /// transient-visit counts; the start itself counts its initial visit).
    /// Returns a vector over *all* states.
    ///
    /// # Panics
    ///
    /// Panics if `start` is out of range.
    pub fn expected_visits(&self, start: usize, n_states: usize) -> Vec<f64> {
        let mut out = vec![0.0; n_states];
        let Some(si) = self.transient.iter().position(|&s| s == start) else {
            // Starting absorbed: no transient visits.
            return out;
        };
        for (tj, &sj) in self.transient.iter().enumerate() {
            out[sj] = self.fundamental[(si, tj)];
        }
        out
    }

    /// Probability of being absorbed in each absorbing state, starting from
    /// `start`. Indexed parallel to [`Self::absorbing`].
    pub fn absorption_probs(&self, start: usize) -> Vec<f64> {
        let Some(si) = self.transient.iter().position(|&s| s == start) else {
            // Already absorbed.
            return self
                .absorbing
                .iter()
                .map(|&s| if s == start { 1.0 } else { 0.0 })
                .collect();
        };
        let b = &self.fundamental * &self.r;
        (0..self.absorbing.len()).map(|aj| b[(si, aj)]).collect()
    }
}

#[allow(clippy::needless_range_loop)]
fn can_reach_absorption(chain: &Dtmc, from: usize) -> bool {
    let n = chain.len();
    let mut seen = vec![false; n];
    let mut stack = vec![from];
    seen[from] = true;
    while let Some(s) = stack.pop() {
        if chain.is_absorbing_state(s) {
            return true;
        }
        for j in 0..n {
            if chain.prob(s, j) > 0.0 && !seen[j] {
                seen[j] = true;
                stack.push(j);
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_stats::matrix::Matrix;

    /// Classic gambler-style chain: 0 → {0 stays w.p. 0, goes to 1 or 2}.
    fn simple() -> Dtmc {
        // state 0 transient: 0.5 → 1 (transient), 0.5 → 2 (absorbing)
        // state 1 transient: 1.0 → 2
        let p = Matrix::from_rows(&[&[0.0, 0.5, 0.5], &[0.0, 0.0, 1.0], &[0.0, 0.0, 1.0]]);
        Dtmc::new(p).unwrap()
    }

    #[test]
    fn expected_visits_match_hand_computation() {
        let chain = simple();
        let a = AbsorbingAnalysis::new(&chain).unwrap();
        let v = a.expected_visits(0, 3);
        assert!((v[0] - 1.0).abs() < 1e-12);
        assert!((v[1] - 0.5).abs() < 1e-12);
        assert_eq!(v[2], 0.0);
    }

    #[test]
    fn geometric_loop_visits() {
        // Loop state 0 repeats w.p. q, exits w.p. 1-q → expected visits 1/(1-q).
        let q = 0.75;
        let p = Matrix::from_rows(&[&[q, 1.0 - q], &[0.0, 1.0]]);
        let chain = Dtmc::new(p).unwrap();
        let a = AbsorbingAnalysis::new(&chain).unwrap();
        let v = a.expected_visits(0, 2);
        assert!((v[0] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn absorption_probs_split_correctly() {
        // 0 → 1 (abs) w.p. 0.3, → 2 (abs) w.p. 0.7.
        let p = Matrix::from_rows(&[&[0.0, 0.3, 0.7], &[0.0, 1.0, 0.0], &[0.0, 0.0, 1.0]]);
        let chain = Dtmc::new(p).unwrap();
        let a = AbsorbingAnalysis::new(&chain).unwrap();
        let probs = a.absorption_probs(0);
        assert!((probs[0] - 0.3).abs() < 1e-12);
        assert!((probs[1] - 0.7).abs() < 1e-12);
    }

    #[test]
    fn no_absorbing_states_rejected() {
        let p = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let chain = Dtmc::new(p).unwrap();
        assert!(matches!(
            AbsorbingAnalysis::new(&chain),
            Err(ChainError::NoAbsorbingStates)
        ));
    }

    #[test]
    fn unreachable_absorption_detected() {
        // States 0,1 cycle forever; 2 absorbs but is unreachable from them.
        let p = Matrix::from_rows(&[&[0.0, 1.0, 0.0], &[1.0, 0.0, 0.0], &[0.0, 0.0, 1.0]]);
        let chain = Dtmc::new(p).unwrap();
        assert!(matches!(
            AbsorbingAnalysis::new(&chain),
            Err(ChainError::AbsorptionUnreachable { .. })
        ));
    }

    #[test]
    fn start_in_absorbing_state() {
        let chain = simple();
        let a = AbsorbingAnalysis::new(&chain).unwrap();
        assert_eq!(a.expected_visits(2, 3), vec![0.0, 0.0, 0.0]);
        assert_eq!(a.absorption_probs(2), vec![1.0]);
    }

    #[test]
    fn all_states_absorbing_degenerate() {
        let p = Matrix::identity(2);
        let chain = Dtmc::new(p).unwrap();
        let a = AbsorbingAnalysis::new(&chain).unwrap();
        assert_eq!(a.expected_visits(0, 2), vec![0.0, 0.0]);
    }
}
