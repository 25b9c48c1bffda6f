//! Linear system solvers: LU decomposition with partial pivoting and
//! Householder QR least squares.
//!
//! The absorbing-chain analysis in `ct-markov` solves `(I - Q) x = b` systems
//! with LU; the method-of-moments estimator in `ct-core` uses QR least squares
//! for its Gauss–Newton steps.

use crate::matrix::Matrix;
use std::error::Error;
use std::fmt;

/// Error returned when a linear solve cannot proceed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// The matrix is singular (a pivot underflowed) at the given elimination step.
    Singular {
        /// The elimination step whose pivot underflowed.
        step: usize,
    },
    /// The system is rank-deficient in a least-squares solve.
    RankDeficient {
        /// The detected rank.
        rank: usize,
        /// The number of columns (full rank would equal this).
        cols: usize,
    },
    /// Dimensions of the operands do not match.
    DimensionMismatch {
        /// The expected dimension.
        expected: usize,
        /// The dimension that was provided.
        got: usize,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Singular { step } => {
                write!(f, "matrix is singular at elimination step {step}")
            }
            SolveError::RankDeficient { rank, cols } => {
                write!(
                    f,
                    "least-squares system is rank deficient ({rank} < {cols})"
                )
            }
            SolveError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
        }
    }
}

impl Error for SolveError {}

/// An LU factorization with partial pivoting, `P A = L U`.
///
/// # Examples
///
/// ```
/// use ct_stats::matrix::Matrix;
/// use ct_stats::solve::Lu;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
/// let lu = Lu::factor(&a)?;
/// let x = lu.solve(&[3.0, 5.0])?;
/// assert!((x[0] - 0.8).abs() < 1e-12);
/// assert!((x[1] - 1.4).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Lu {
    /// Combined L (strict lower, unit diagonal implied) and U (upper) factors.
    lu: Matrix,
    /// Row permutation: `perm[i]` is the original row now in position `i`.
    perm: Vec<usize>,
}

/// Pivot threshold below which a matrix is treated as singular.
const PIVOT_EPS: f64 = 1e-12;

impl Lu {
    /// Factors a square matrix.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::Singular`] when a pivot column has no entry with
    /// absolute value above `1e-12`, and [`SolveError::DimensionMismatch`] if
    /// the matrix is not square.
    pub fn factor(a: &Matrix) -> Result<Lu, SolveError> {
        let mut lu = Lu {
            lu: a.clone(),
            perm: Vec::new(),
        };
        lu.eliminate()?;
        Ok(lu)
    }

    /// Factors `a` in place of the current factorization, reusing its
    /// buffers: a caller that factors one matrix after another of the same
    /// size allocates nothing. The result is bit for bit what
    /// [`Lu::factor`] returns for `a`.
    ///
    /// After an error the factorization is unspecified until the next
    /// successful refactor.
    ///
    /// # Errors
    ///
    /// As [`Lu::factor`].
    pub fn refactor(&mut self, a: &Matrix) -> Result<(), SolveError> {
        self.lu.clone_from(a);
        self.eliminate()
    }

    /// Factors `self.lu` in place, replacing the permutation.
    fn eliminate(&mut self) -> Result<(), SolveError> {
        let n = self.lu.rows();
        if self.lu.cols() != n {
            return Err(SolveError::DimensionMismatch {
                expected: n,
                got: self.lu.cols(),
            });
        }
        self.perm.clear();
        self.perm.extend(0..n);
        // Work on the row-major data as a plain slice: a store into it then
        // provably leaves the matrix's own fields alone, so the row loops
        // stay tight.
        let lu = self.lu.as_mut_slice();

        for k in 0..n {
            // Partial pivot: find the largest |entry| in column k at or below row k.
            let mut pivot_row = k;
            let mut pivot_val = lu[k * n + k].abs();
            for i in (k + 1)..n {
                let v = lu[i * n + k].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = i;
                }
            }
            if pivot_val < PIVOT_EPS {
                return Err(SolveError::Singular { step: k });
            }
            if pivot_row != k {
                let (upper, lower) = lu.split_at_mut(pivot_row * n);
                upper[k * n..(k + 1) * n].swap_with_slice(&mut lower[..n]);
                self.perm.swap(k, pivot_row);
            }
            let (upper, lower) = lu.split_at_mut((k + 1) * n);
            let row_k = &upper[k * n..];
            let pivot = row_k[k];
            for row_i in lower.chunks_exact_mut(n) {
                let factor = row_i[k] / pivot;
                row_i[k] = factor;
                for (x, &u) in row_i[k + 1..].iter_mut().zip(&row_k[k + 1..]) {
                    let delta = factor * u;
                    *x -= delta;
                }
            }
        }
        Ok(())
    }

    /// Solves `A x = b` for a single right-hand side.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::DimensionMismatch`] when `b.len()` differs from
    /// the matrix dimension.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, SolveError> {
        let mut x = vec![0.0; b.len()];
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// Solves `A x = b` into `out` without allocating; bit for bit what
    /// [`Lu::solve`] returns.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::DimensionMismatch`] when `b.len()` or
    /// `out.len()` differs from the matrix dimension.
    pub fn solve_into(&self, b: &[f64], out: &mut [f64]) -> Result<(), SolveError> {
        let n = self.lu.rows();
        if b.len() != n {
            return Err(SolveError::DimensionMismatch {
                expected: n,
                got: b.len(),
            });
        }
        if out.len() != n {
            return Err(SolveError::DimensionMismatch {
                expected: n,
                got: out.len(),
            });
        }
        // Forward substitution with permuted b (unit lower-triangular L),
        // then back substitution with U, both in place: row i reads only
        // entries the sweep has already written.
        let rows = self.lu.as_slice().chunks_exact(n);
        for (i, row) in rows.clone().enumerate() {
            let mut acc = b[self.perm[i]];
            for (l, y) in row[..i].iter().zip(&out[..i]) {
                acc -= l * y;
            }
            out[i] = acc;
        }
        for (i, row) in rows.enumerate().rev() {
            let mut acc = out[i];
            for (u, x) in row[i + 1..].iter().zip(&out[i + 1..]) {
                acc -= u * x;
            }
            out[i] = acc / row[i];
        }
        Ok(())
    }

    /// Solves `A X = B` column by column.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::DimensionMismatch`] when `B` has a different row
    /// count than `A`.
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix, SolveError> {
        let n = self.lu.rows();
        if b.rows() != n {
            return Err(SolveError::DimensionMismatch {
                expected: n,
                got: b.rows(),
            });
        }
        let mut out = Matrix::zeros(n, b.cols());
        let mut col = vec![0.0; n];
        for j in 0..b.cols() {
            for i in 0..n {
                col[i] = b[(i, j)];
            }
            let x = self.solve(&col)?;
            for i in 0..n {
                out[(i, j)] = x[i];
            }
        }
        Ok(out)
    }

    /// Returns the inverse of the factored matrix.
    ///
    /// # Errors
    ///
    /// Propagates [`SolveError`] from the underlying solves.
    pub fn inverse(&self) -> Result<Matrix, SolveError> {
        self.solve_matrix(&Matrix::identity(self.lu.rows()))
    }
}

/// Solves the dense linear least-squares problem `min ||A x - b||₂` using
/// Householder QR.
///
/// Requires `A` to have full column rank and at least as many rows as columns.
///
/// # Errors
///
/// Returns [`SolveError::RankDeficient`] when a diagonal of `R` underflows,
/// and [`SolveError::DimensionMismatch`] for shape errors.
///
/// # Examples
///
/// ```
/// use ct_stats::matrix::Matrix;
/// use ct_stats::solve::lstsq;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Fit y = 2x + 1 through three exact points.
/// let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 1.0], &[2.0, 1.0]]);
/// let x = lstsq(&a, &[1.0, 3.0, 5.0])?;
/// assert!((x[0] - 2.0).abs() < 1e-10);
/// assert!((x[1] - 1.0).abs() < 1e-10);
/// # Ok(())
/// # }
/// ```
pub fn lstsq(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, SolveError> {
    let m = a.rows();
    let n = a.cols();
    if b.len() != m {
        return Err(SolveError::DimensionMismatch {
            expected: m,
            got: b.len(),
        });
    }
    if m < n {
        return Err(SolveError::DimensionMismatch {
            expected: n,
            got: m,
        });
    }
    let mut r = a.clone();
    let mut qtb = b.to_vec();

    for k in 0..n {
        // Householder vector for column k below the diagonal.
        let mut norm = 0.0;
        for i in k..m {
            norm += r[(i, k)] * r[(i, k)];
        }
        let norm = norm.sqrt();
        if norm < PIVOT_EPS {
            return Err(SolveError::RankDeficient { rank: k, cols: n });
        }
        let alpha = if r[(k, k)] >= 0.0 { -norm } else { norm };
        let mut v = vec![0.0; m - k];
        v[0] = r[(k, k)] - alpha;
        for i in (k + 1)..m {
            v[i - k] = r[(i, k)];
        }
        let vnorm2: f64 = v.iter().map(|x| x * x).sum();
        if vnorm2 < PIVOT_EPS * PIVOT_EPS {
            // Column already in triangular form.
            r[(k, k)] = alpha;
            continue;
        }
        // Apply H = I - 2 v vᵀ / (vᵀv) to the trailing columns of R and to qtb.
        for j in k..n {
            let mut dot = 0.0;
            for i in k..m {
                dot += v[i - k] * r[(i, j)];
            }
            let scale = 2.0 * dot / vnorm2;
            for i in k..m {
                r[(i, j)] -= scale * v[i - k];
            }
        }
        let mut dot = 0.0;
        for i in k..m {
            dot += v[i - k] * qtb[i];
        }
        let scale = 2.0 * dot / vnorm2;
        for i in k..m {
            qtb[i] -= scale * v[i - k];
        }
    }

    // Back substitution with the upper-triangular R.
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut acc = qtb[i];
        for j in (i + 1)..n {
            acc -= r[(i, j)] * x[j];
        }
        if r[(i, i)].abs() < PIVOT_EPS {
            return Err(SolveError::RankDeficient { rank: i, cols: n });
        }
        x[i] = acc / r[(i, i)];
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_vec_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{a:?} != {b:?}");
        }
    }

    #[test]
    fn lu_solves_2x2() {
        let a = Matrix::from_rows(&[&[4.0, 3.0], &[6.0, 3.0]]);
        let lu = Lu::factor(&a).unwrap();
        let x = lu.solve(&[10.0, 12.0]).unwrap();
        assert_vec_close(&x, &[1.0, 2.0], 1e-12);
    }

    #[test]
    fn lu_solves_system_needing_pivot() {
        // Leading zero forces a row swap.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let lu = Lu::factor(&a).unwrap();
        let x = lu.solve(&[2.0, 3.0]).unwrap();
        assert_vec_close(&x, &[3.0, 2.0], 1e-12);
    }

    #[test]
    fn lu_detects_singular() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(Lu::factor(&a), Err(SolveError::Singular { .. })));
    }

    #[test]
    fn lu_inverse_times_matrix_is_identity() {
        let a = Matrix::from_rows(&[&[2.0, 1.0, 0.0], &[1.0, 3.0, 1.0], &[0.0, 1.0, 4.0]]);
        let inv = Lu::factor(&a).unwrap().inverse().unwrap();
        let prod = &a * &inv;
        assert!(prod.approx_eq(&Matrix::identity(3), 1e-10));
    }

    #[test]
    fn lu_solve_matrix_multiple_rhs() {
        let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 4.0]]);
        let b = Matrix::from_rows(&[&[2.0, 4.0], &[4.0, 8.0]]);
        let x = Lu::factor(&a).unwrap().solve_matrix(&b).unwrap();
        assert!(x.approx_eq(&Matrix::from_rows(&[&[1.0, 2.0], &[1.0, 2.0]]), 1e-12));
    }

    #[test]
    fn lu_rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            Lu::factor(&a),
            Err(SolveError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn lu_rejects_wrong_rhs_length() {
        let a = Matrix::identity(2);
        let lu = Lu::factor(&a).unwrap();
        assert!(matches!(
            lu.solve(&[1.0]),
            Err(SolveError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn refactor_and_solve_into_match_fresh_factor_and_solve_bitwise() {
        let a = Matrix::from_rows(&[&[0.3, 2.0, -1.0], &[4.0, 0.7, 0.2], &[-1.5, 0.9, 3.1]]);
        let b = Matrix::from_rows(&[&[1e-3, 0.0, 5.0], &[2.0, -7.0, 0.1], &[0.0, 3.0, 1.0]]);
        let rhs = [0.25, -1.0, 3.5];
        let mut reused = Lu::factor(&Matrix::identity(2)).unwrap();
        let mut out = [0.0; 3];
        for m in [&a, &b, &a] {
            reused.refactor(m).unwrap();
            reused.solve_into(&rhs, &mut out).unwrap();
            let fresh = Lu::factor(m).unwrap();
            let want = fresh.solve(&rhs).unwrap();
            let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&out), bits(&want));
        }
        assert!(matches!(
            reused.solve_into(&rhs, &mut [0.0; 2]),
            Err(SolveError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn lstsq_exact_square_system() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let x = lstsq(&a, &[5.0, 11.0]).unwrap();
        assert_vec_close(&x, &[1.0, 2.0], 1e-10);
    }

    #[test]
    fn lstsq_overdetermined_regression() {
        // y = 1.5x - 2 with symmetric residuals: least squares recovers the line.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 1.0], &[2.0, 1.0], &[3.0, 1.0]]);
        let b = [-2.0 + 0.1, -0.5 - 0.1, 1.0 + 0.1, 2.5 - 0.1];
        let x = lstsq(&a, &b).unwrap();
        assert!((x[0] - 1.5).abs() < 0.05);
        assert!((x[1] + 2.0).abs() < 0.15);
    }

    #[test]
    fn lstsq_detects_rank_deficiency() {
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0], &[1.0, 1.0]]);
        assert!(matches!(
            lstsq(&a, &[1.0, 1.0, 1.0]),
            Err(SolveError::RankDeficient { .. })
        ));
    }

    #[test]
    fn lstsq_rejects_underdetermined() {
        let a = Matrix::zeros(1, 2);
        assert!(matches!(
            lstsq(&a, &[1.0]),
            Err(SolveError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn solve_error_display_is_informative() {
        let e = SolveError::Singular { step: 3 };
        assert!(e.to_string().contains("singular"));
        let e = SolveError::RankDeficient { rank: 1, cols: 2 };
        assert!(e.to_string().contains("rank deficient"));
    }
}
