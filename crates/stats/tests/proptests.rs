//! Property-based tests for the numeric substrate.

use ct_stats::descriptive::Summary;
use ct_stats::dist::{project_to_simplex, Categorical};
use ct_stats::matrix::Matrix;
use ct_stats::metrics::{kl_divergence, total_variation};
use ct_stats::nnls::{nnls, NnlsOptions};
use ct_stats::pmf::{self, Entry, Pmf};
use ct_stats::solve::{lstsq, Lu};
use proptest::prelude::*;

fn small_vec(n: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-100.0f64..100.0, n)
}

/// The tuple-layout windowed convolution, the oracle the SoA kernel
/// ([`pmf::convolve_window_into`]) must reproduce bit for bit:
/// `h(d) = Σ_t f(t) · g(d − t − shift)` over `d ∈ [lo, hi]`, on the dense
/// path when `width <= max(4·pairs, 1024)` and `width <= 2^22`, else on
/// the sparse path.
fn convolve_window(f: &[Entry], g: &[Entry], shift: u64, lo: u64, hi: u64) -> Vec<Entry> {
    if lo > hi || f.is_empty() || g.is_empty() {
        return Vec::new();
    }
    let width = (hi - lo + 1) as usize;
    let pairs = f.len().saturating_mul(g.len());
    if width <= pairs.saturating_mul(4).max(1024) && width <= (1 << 22) {
        convolve_dense(f, g, shift, lo, hi, width)
    } else {
        convolve_sparse(f, g, shift, lo, hi)
    }
}

/// [`convolve_window`]'s dense path: accumulates into a window-sized
/// buffer (`width` must equal `hi - lo + 1`) and keeps the cells with mass
/// `> 0.0`.
fn convolve_dense(
    f: &[Entry],
    g: &[Entry],
    shift: u64,
    lo: u64,
    hi: u64,
    width: usize,
) -> Vec<Entry> {
    let mut buf = vec![0.0f64; width];
    for &(t, fm) in f {
        let base = t + shift;
        if base > hi {
            continue;
        }
        for &(s, gm) in pmf::slice_range(g, lo.saturating_sub(base), hi - base) {
            buf[(base + s - lo) as usize] += fm * gm;
        }
    }
    buf.iter()
        .enumerate()
        .filter(|&(_, &m)| m > 0.0)
        .map(|(i, &m)| (lo + i as u64, m))
        .collect()
}

/// [`convolve_window`]'s sparse path: collects the in-window terms and
/// coalesces them.
fn convolve_sparse(f: &[Entry], g: &[Entry], shift: u64, lo: u64, hi: u64) -> Vec<Entry> {
    let mut terms: Vec<Entry> = Vec::new();
    for &(t, fm) in f {
        let base = t + shift;
        if base > hi {
            continue;
        }
        for &(s, gm) in pmf::slice_range(g, lo.saturating_sub(base), hi - base) {
            terms.push((base + s, fm * gm));
        }
    }
    pmf::coalesce(&mut terms);
    terms
}

#[test]
fn dense_and_sparse_paths_agree() {
    let f: Vec<Entry> = (0..40).map(|i| (i * 7, 1.0 / 40.0)).collect();
    let g: Vec<Entry> = (0..40).map(|i| (i * 11, 1.0 / 40.0)).collect();
    let (lo, hi) = (50, 500);
    let dense = convolve_dense(&f, &g, 5, lo, hi, (hi - lo + 1) as usize);
    let sparse = convolve_sparse(&f, &g, 5, lo, hi);
    assert_eq!(dense.len(), sparse.len());
    for (a, b) in dense.iter().zip(&sparse) {
        assert_eq!(a.0, b.0);
        assert!((a.1 - b.1).abs() < 1e-15);
    }
}

#[test]
fn soa_convolution_matches_tuple_kernel_bitwise() {
    let f: Vec<Entry> = (0..40).map(|i| (i * 7, (i as f64 + 1.0).recip())).collect();
    let g: Vec<Entry> = (0..40)
        .map(|i| (i * 11, (2.0 * i as f64 + 1.0).recip()))
        .collect();
    let fp = Pmf::from_sorted(f.clone());
    let gp = Pmf::from_sorted(g.clone());
    for (lo, hi) in [(0u64, 800u64), (50, 500), (120, 121), (700, 100_000)] {
        let tuple = convolve_window(&f, &g, 5, lo, hi);
        let soa = pmf::convolve_window_pmf(&fp, &gp, 5, lo, hi);
        assert_eq!(soa.len(), tuple.len(), "window [{lo},{hi}]");
        for ((dk, dm), (tk, tm)) in soa.iter().zip(tuple) {
            assert_eq!(dk, tk);
            assert_eq!(dm.to_bits(), tm.to_bits(), "window [{lo},{hi}] at {dk}");
        }
    }
}

/// A random normalized PMF: up to 24 support points on a random stride, so
/// the product-support width of a convolution pair lands on both sides of
/// `convolve_window`'s dense/sparse cutoff (`width <= max(4·pairs, 1024)`).
fn rand_pmf() -> impl Strategy<Value = Vec<(u64, f64)>> {
    (
        0u64..200,
        prop_oneof![1u64..4, 30u64..500],
        proptest::collection::vec(0.01f64..1.0, 1..24),
    )
        .prop_map(|(base, stride, masses)| {
            let total: f64 = masses.iter().sum();
            masses
                .iter()
                .enumerate()
                .map(|(i, &m)| (base + i as u64 * stride, m / total))
                .collect()
        })
}

/// [`rand_pmf`] or a PMF on irregular gaps (1–5 apart, so short
/// contiguous runs mix with holes of every width).
fn any_pmf() -> impl Strategy<Value = Vec<(u64, f64)>> {
    let jagged = (
        0u64..200,
        proptest::collection::vec((1u64..6, 0.01f64..1.0), 1..24),
    )
        .prop_map(|(base, steps)| {
            let total: f64 = steps.iter().map(|&(_, m)| m).sum();
            let mut key = base;
            steps
                .iter()
                .map(|&(gap, m)| {
                    key += gap;
                    (key, m / total)
                })
                .collect()
        });
    prop_oneof![rand_pmf(), jagged]
}

/// One raw contribution mass of palette `palette`: 0 draws ordinary masses
/// only; 1 adds `+0.0`, subnormals, quiet NaNs and negatives, which the
/// dense window must sum bit for bit; 2 adds `-0.0` and signalling NaNs,
/// which send the list to the sort.
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

/// A raw contribution list as the E-step's frontiers and accumulators hold
/// them: 0–400 entries whose keys sit on a spread of 1–7 (many duplicate
/// keys), up to 2,000 (either side of the dense span rule) or up to 2^40
/// (the sort fallback), above a base that is sometimes near `u64::MAX`.
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

    /// The dense and sparse windowed-convolution kernels agree to 1e-12 on
    /// randomized PMFs whose window widths straddle the selection cutoff in
    /// `convolve_window` — both are exact enumerations of the same terms,
    /// only the accumulation order differs.
    #[test]
    fn convolution_kernels_agree(
        f in rand_pmf(),
        g in rand_pmf(),
        shift in 0u64..64,
        clip in 0u64..32,
    ) {
        let lo_full = f[0].0 + g[0].0 + shift;
        let hi_full = f[f.len() - 1].0 + g[g.len() - 1].0 + shift;
        let (lo, hi) = (lo_full + clip, hi_full.saturating_sub(clip));
        prop_assume!(lo <= hi);
        let width = (hi - lo + 1) as usize;
        let dense = convolve_dense(&f, &g, shift, lo, hi, width);
        let sparse = convolve_sparse(&f, &g, shift, lo, hi);
        prop_assert_eq!(dense.len(), sparse.len());
        for (&(kd, md), &(ks, ms)) in dense.iter().zip(&sparse) {
            prop_assert_eq!(kd, ks);
            prop_assert!((md - ms).abs() < 1e-12, "key {kd}: dense {md} vs sparse {ms}");
        }
        // Whichever path the cutoff picks, the front door returns one of them.
        let picked = convolve_window(&f, &g, shift, lo, hi);
        prop_assert!(picked == dense || picked == sparse);
    }

    /// The SoA convolution (`convolve_window_pmf`) is bit-identical to the
    /// tuple-based reference (`convolve_window`) — same path selection, same
    /// enumeration and summation order.
    #[test]
    fn soa_convolution_matches_tuple_bitwise(
        f in rand_pmf(),
        g in rand_pmf(),
        shift in 0u64..64,
        clip in 0u64..32,
    ) {
        let lo_full = f[0].0 + g[0].0 + shift;
        let hi_full = f[f.len() - 1].0 + g[g.len() - 1].0 + shift;
        let (lo, hi) = (lo_full + clip, hi_full.saturating_sub(clip));
        prop_assume!(lo <= hi);
        let tuple = convolve_window(&f, &g, shift, lo, hi);
        let soa = pmf::convolve_window_pmf(
            &Pmf::from_sorted(f),
            &Pmf::from_sorted(g),
            shift,
            lo,
            hi,
        );
        prop_assert_eq!(tuple.len(), soa.len());
        for ((kt, mt), (ks, ms)) in tuple.iter().zip(soa.iter()) {
            prop_assert_eq!(*kt, ks);
            prop_assert_eq!(mt.to_bits(), ms.to_bits(), "key {}: {} vs {}", kt, mt, ms);
        }
    }

    /// The point kernel (`convolve_points_into`) equals the sweep's mass
    /// bit for bit at every requested point, and 0 where the sweep has no
    /// key: contiguous, evenly strided and irregularly gapped operands, shifts,
    /// points outside the support on both sides, and empty operands.
    #[test]
    fn point_kernel_matches_the_sweep_bitwise(
        f in any_pmf(),
        g in any_pmf(),
        shift in 0u64..64,
        empty in 0u8..4,
        picks in proptest::collection::vec(0u64..1_000_000, 0..40),
    ) {
        // The product's whole support, swept on whichever path the cutoff
        // picks; the points reach past it on both sides.
        let lo = f[0].0 + g[0].0 + shift;
        let hi = f[f.len() - 1].0 + g[g.len() - 1].0 + shift;
        let mut points: Vec<u64> = picks.iter().map(|&p| p % (hi + 50)).collect();
        points.sort_unstable();
        points.dedup();
        let f = Pmf::from_sorted(if empty == 1 { Vec::new() } else { f });
        let g = Pmf::from_sorted(if empty == 2 { Vec::new() } else { g });
        let swept = pmf::convolve_window_pmf(&f, &g, shift, lo, hi);
        let (mut at, mut span) = (Vec::new(), Vec::new());
        pmf::convolve_points_into(&mut at, &mut span, &f, &g, shift, &points);
        prop_assert_eq!(at.len(), points.len());
        for (&d, &m) in points.iter().zip(&at) {
            let want = match swept.keys().binary_search(&d) {
                Ok(i) => swept.masses()[i],
                Err(_) => 0.0,
            };
            prop_assert_eq!(m.to_bits(), want.to_bits(), "point {}: {} vs {}", d, m, want);
        }
        // Every support point of the sweep, queried exactly.
        pmf::convolve_points_into(&mut at, &mut span, &f, &g, shift, swept.keys());
        for (&m, &want) in at.iter().zip(swept.masses()) {
            prop_assert_eq!(m.to_bits(), want.to_bits());
        }
    }

    /// The dense coalesce and the allocation-free sort equal `coalesce` bit
    /// for bit, with their buffers reused across three lists (the third is
    /// the first reversed), so later calls find them dirty and oversized.
    #[test]
    fn dense_and_sort_coalesce_match_coalesce_bitwise(a in raw_list(), b in raw_list()) {
        let (mut window, mut merge) = (Vec::new(), Vec::new());
        let reversed: Vec<(u64, f64)> = a.iter().rev().copied().collect();
        for list in [&a, &b, &reversed] {
            let mut want = list.clone();
            pmf::coalesce(&mut want);
            let mut dense = list.clone();
            pmf::coalesce_dense(&mut dense, &mut window, &mut merge);
            prop_assert_eq!(list_bits(&dense), list_bits(&want));
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
