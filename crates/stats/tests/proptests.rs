//! Property-based tests for the numeric substrate.

use ct_stats::descriptive::Summary;
use ct_stats::dist::{project_to_simplex, Categorical};
use ct_stats::matrix::Matrix;
use ct_stats::metrics::{kl_divergence, total_variation};
use ct_stats::nnls::{nnls, NnlsOptions};
use ct_stats::pmf;
use ct_stats::solve::{lstsq, Lu};
use proptest::prelude::*;

fn small_vec(n: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-100.0f64..100.0, n)
}

/// One raw contribution mass of palette `palette`: 0 draws ordinary masses
/// only; 1 adds `+0.0`, subnormals, quiet NaNs and negatives; 2 adds `-0.0`
/// and signalling NaNs. The sort must sum every one of them bit for bit.
fn raw_mass(palette: u8, kind: u8, x: f64, bits: u64) -> f64 {
    match (palette, kind) {
        (1.., 0) => 0.0,
        (1.., 1) => f64::from_bits(bits & 0x000f_ffff_ffff_ffff), // subnormal
        (1.., 2) => f64::NAN,
        (1.., 3) => -x,
        (2, 4) => -0.0,
        (2, 5) => f64::from_bits(0x7ff0_0000_0000_0001 | bits & 0x0007_ffff_ffff_ffff),
        _ => x,
    }
}

/// A raw contribution list as propagation frontiers hold them: 0–400
/// entries whose keys sit on a spread of 1–7 (many duplicate keys), up to
/// 2,000 or up to 2^40, above a base that is sometimes near `u64::MAX`.
/// `order` leaves the draw as it is, sorts it stably in chunks (ascending
/// runs, as a frontier holds) or sorts it whole.
fn raw_list() -> impl Strategy<Value = Vec<(u64, f64)>> {
    (
        prop_oneof![1u64..8, 8u64..2_000, 2_000u64..(1 << 40)],
        prop_oneof![0u64..1_000, (u64::MAX - (1 << 41))..(u64::MAX - (1 << 40))],
        0u8..3,
        (0u8..3, 1usize..64),
        proptest::collection::vec(
            (0u64..u64::MAX, 0u8..12, 0.0f64..1.0, 0u64..u64::MAX),
            0..400,
        ),
    )
        .prop_map(|(spread, base, palette, (order, chunk), draws)| {
            let mut list: Vec<(u64, f64)> = draws
                .iter()
                .map(|&(k, kind, x, bits)| (base + k % spread, raw_mass(palette, kind, x, bits)))
                .collect();
            match order {
                1 => list.chunks_mut(chunk).for_each(|c| c.sort_by_key(|e| e.0)),
                2 => list.sort_by_key(|e| e.0),
                _ => {}
            }
            list
        })
}

/// The bits of a coalesced list.
fn list_bits(list: &[(u64, f64)]) -> Vec<(u64, u64)> {
    list.iter().map(|&(d, m)| (d, m.to_bits())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// LU solve round-trips: A·x = b for diagonally dominant A.
    #[test]
    fn lu_solves_diagonally_dominant(
        off in proptest::collection::vec(-1.0f64..1.0, 9),
        b in small_vec(3),
    ) {
        let mut a = Matrix::zeros(3, 3);
        for i in 0..3 {
            for j in 0..3 {
                a[(i, j)] = off[i * 3 + j];
            }
            a[(i, i)] = 10.0 + off[i * 3 + i];
        }
        let lu = Lu::factor(&a).expect("diagonally dominant is nonsingular");
        let x = lu.solve(&b).unwrap();
        let ax = a.mul_vec(&x);
        for (p, q) in ax.iter().zip(&b) {
            prop_assert!((p - q).abs() < 1e-6, "{ax:?} vs {b:?}");
        }
    }

    /// Least squares residual is orthogonal to the column space.
    #[test]
    fn lstsq_residual_is_orthogonal(b in small_vec(4)) {
        let a = Matrix::from_rows(&[
            &[1.0, 0.5],
            &[2.0, -1.0],
            &[0.0, 3.0],
            &[1.0, 1.0],
        ]);
        let x = lstsq(&a, &b).unwrap();
        let ax = a.mul_vec(&x);
        let r: Vec<f64> = b.iter().zip(&ax).map(|(p, q)| p - q).collect();
        let at = a.transpose();
        let atr = at.mul_vec(&r);
        for v in atr {
            prop_assert!(v.abs() < 1e-6, "residual not orthogonal: {v}");
        }
    }

    /// NNLS solutions are nonnegative and never beat the unconstrained
    /// optimum.
    #[test]
    fn nnls_is_feasible(b in small_vec(3)) {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[0.5, -1.0], &[2.0, 0.3]]);
        let sol = nnls(&a, &b, NnlsOptions::default()).unwrap();
        prop_assert!(sol.x.iter().all(|&v| v >= 0.0));
        // Residual at least as large as the unconstrained one.
        if let Ok(x_free) = lstsq(&a, &b) {
            let ax = a.mul_vec(&x_free);
            let free_res: f64 = b.iter().zip(&ax).map(|(p, q)| (p - q).powi(2)).sum::<f64>().sqrt();
            prop_assert!(sol.residual_norm + 1e-9 >= free_res);
        }
    }

    /// Welford summary matches naive two-pass computation.
    #[test]
    fn summary_matches_naive(xs in proptest::collection::vec(-1e4f64..1e4, 2..50)) {
        let s = Summary::of(&xs);
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        prop_assert!((s.mean - mean).abs() < 1e-6 * mean.abs().max(1.0));
        prop_assert!((s.variance - var).abs() < 1e-6 * var.abs().max(1.0));
    }

    /// Categorical sampling only produces valid indices and probabilities
    /// normalize.
    #[test]
    fn categorical_is_normalized(w in proptest::collection::vec(0.0f64..10.0, 1..8), seed in 0u64..1000) {
        prop_assume!(w.iter().sum::<f64>() > 0.0);
        let c = Categorical::new(&w).unwrap();
        prop_assert!((c.probs().iter().sum::<f64>() - 1.0).abs() < 1e-9);
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..20 {
            prop_assert!(c.sample(&mut rng) < w.len());
        }
    }

    /// Simplex projection is idempotent and feasible.
    #[test]
    fn simplex_projection_idempotent(v in proptest::collection::vec(-5.0f64..5.0, 1..6)) {
        let p = project_to_simplex(&v);
        prop_assert!(p.iter().all(|&x| x >= -1e-12));
        prop_assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let pp = project_to_simplex(&p);
        for (a, b) in p.iter().zip(&pp) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    /// The allocation-free sort equals `coalesce` bit for bit, with its
    /// buffer reused across three lists (the third is the first reversed),
    /// so later calls find it dirty and oversized.
    #[test]
    fn sort_coalesce_matches_coalesce_bitwise(a in raw_list(), b in raw_list()) {
        let mut merge = Vec::new();
        let reversed: Vec<(u64, f64)> = a.iter().rev().copied().collect();
        for list in [&a, &b, &reversed] {
            let mut want = list.clone();
            pmf::coalesce(&mut want);
            let mut sorted = list.clone();
            pmf::coalesce_sort(&mut sorted, &mut merge);
            prop_assert_eq!(list_bits(&sorted), list_bits(&want));
        }
    }

    /// KL ≥ 0 and TV ∈ [0, 1] for distributions.
    #[test]
    fn divergences_behave(w1 in proptest::collection::vec(0.01f64..1.0, 4), w2 in proptest::collection::vec(0.01f64..1.0, 4)) {
        let norm = |w: &[f64]| -> Vec<f64> {
            let s: f64 = w.iter().sum();
            w.iter().map(|x| x / s).collect()
        };
        let p = norm(&w1);
        let q = norm(&w2);
        prop_assert!(kl_divergence(&p, &q) >= -1e-12);
        let tv = total_variation(&p, &q);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&tv));
    }
}
