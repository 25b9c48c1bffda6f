//! Flat sparse PMF kernels over integer (cycle-count) support.
//!
//! A PMF is kept in one of two layouts:
//!
//! - the array-of-structs `Vec<(u64, f64)>` sorted by support point with
//!   strictly increasing keys — the representation raw contribution lists use
//!   while the time-expanded dynamic programs in `ct-core` are still merging
//!   frontiers; and
//! - the structure-of-arrays [`Pmf`] (keys `Vec<u64>` + masses `Vec<f64>`) —
//!   the hot-path representation: the convolution inner loop runs over a
//!   contiguous `f64` slice (FMA-able, no interleaved keys polluting the
//!   cache lines), and contiguous-support PMFs skip binary-search slicing
//!   entirely (run detection is O(1) on strictly increasing keys:
//!   `last − first + 1 == len`).
//!
//! The kernels here are the hot primitives of the inference engine:
//! coalescing raw contribution lists, pruning sub-epsilon mass, windowed
//! slicing, and windowed convolution of two PMFs, swept over a window or
//! evaluated at chosen points. The SoA convolution reproduces the
//! tuple-layout one (kept beside the property tests as their oracle) bit
//! for bit: same enumeration order, same summation order — only the
//! memory layout differs.

/// One support point: `(value, probability_mass)`.
pub type Entry = (u64, f64);

/// Sorts `entries` by support point and sums duplicate keys left-to-right
/// (stable), leaving a strictly-increasing flat PMF.
///
/// Left-to-right summation over a stable sort reproduces the summation order
/// of inserting the entries into a `BTreeMap` in their original order, which
/// keeps results bit-comparable with the reference implementation.
pub fn coalesce(entries: &mut Vec<Entry>) {
    if entries.len() <= 1 {
        return;
    }
    entries.sort_by_key(|&(d, _)| d);
    sum_sorted_duplicates(entries);
}

/// The widest key span, as a multiple of the list length, that
/// [`coalesce_dense`] sums in its window; a list spanning more keys is
/// sorted instead ([`coalesce_sort`]), so the window stays within a small
/// multiple of the list. The same 8× bound the E-step's point path puts on
/// a gapped backward table's span buffer.
pub const DENSE_SPAN_FACTOR: u64 = 8;

/// The longest list the standard library's stable sort orders in its 4 KiB
/// of stack scratch (16-byte entries); it takes heap scratch for any longer
/// list.
const STACK_SORT_MAX: usize = 256;

/// The bits of `-0.0`, the dense window's untouched-cell seed.
const NEG_ZERO_BITS: u64 = (-0.0f64).to_bits();
/// The quiet bit of an `f64` NaN.
const QUIET_NAN_BIT: u64 = 0x0008_0000_0000_0000;

/// [`coalesce`], bit for bit, without sorting a list whose key window
/// `[min key, max key]` holds at most [`DENSE_SPAN_FACTOR`] × its length
/// keys: each mass is added, in list order, into the cell of its key in
/// `window`, and the touched cells are read back in ascending key order.
/// Any other list goes to [`coalesce_sort`]. `window` and `merge` are
/// working space; reused across calls, neither reallocates once it has
/// grown to the widest span and the longest list.
///
/// Why the bits match: the stable sort keeps list order among equal keys,
/// so `coalesce` sums each key's masses left to right — the window's order.
/// The window is seeded with `-0.0`, and `-0.0 + x == x` bitwise for every
/// `x` (`+0.0`, subnormals and quiet NaNs included), so a cell's first add
/// is the sort's first assignment. A cell is touched when its bits are no
/// longer `-0.0`, so zero-mass entries survive. The two masses that break
/// this — `-0.0` itself (a key it alone reaches would look untouched) and a
/// signalling NaN (the add quiets it) — send the list to the sort after
/// all.
pub fn coalesce_dense(entries: &mut Vec<Entry>, window: &mut Vec<f64>, merge: &mut Vec<Entry>) {
    let (Some(&(first, _)), Some(&(last, _))) = (entries.first(), entries.last()) else {
        return;
    };
    let limit = DENSE_SPAN_FACTOR.saturating_mul(entries.len() as u64);
    // Arrival lists grow roughly in key order, so their two ends usually
    // show a span too wide for the window without a scan.
    if first.abs_diff(last) >= limit {
        coalesce_sort(entries, merge);
        return;
    }
    let (mut lo, mut hi, mut prev, mut sorted) = (first, first, first, true);
    for &(d, _) in entries.iter() {
        sorted &= prev <= d;
        prev = d;
        lo = lo.min(d);
        hi = hi.max(d);
    }
    if sorted {
        sum_sorted_duplicates(entries);
        return;
    }
    if hi - lo >= limit {
        coalesce_sort(entries, merge);
        return;
    }
    window.clear();
    window.resize((hi - lo + 1) as usize, -0.0);
    let mut addable = true;
    for &(d, m) in entries.iter() {
        let bits = m.to_bits();
        addable &= bits != NEG_ZERO_BITS && !(m.is_nan() && bits & QUIET_NAN_BIT == 0);
        window[(d - lo) as usize] += m;
    }
    if !addable {
        coalesce_sort(entries, merge);
        return;
    }
    entries.clear();
    for (i, &m) in window.iter().enumerate() {
        if m.to_bits() != NEG_ZERO_BITS {
            entries.push((lo + i as u64, m));
        }
    }
}

/// [`coalesce`], bit for bit, without heap allocation once `merge` has
/// grown to the longest list: a list of at most 256 entries is sorted by
/// the standard library's stable sort, which needs no heap scratch there;
/// a longer one by a stable merge sort through `merge` that starts from the
/// list's ascending runs, each pass merging neighbouring runs pairwise
/// (ties taken from the left run). A stable sort's output is unique, so
/// both orders are the same, and the duplicates are summed by the same
/// loop.
pub fn coalesce_sort(entries: &mut Vec<Entry>, merge: &mut Vec<Entry>) {
    if entries.len() <= STACK_SORT_MAX {
        coalesce(entries);
        return;
    }
    if !entries.is_sorted_by_key(|&(d, _)| d) {
        // Passes alternate direction; each buffer keeps its own allocation,
        // so neither trades capacity with the other between calls.
        let (mut list, mut spare) = (std::mem::take(entries), std::mem::take(merge));
        let mut in_list = true;
        loop {
            let merged = if in_list {
                merge_runs_pass(&list, &mut spare)
            } else {
                merge_runs_pass(&spare, &mut list)
            };
            in_list = !in_list;
            if merged == 1 {
                break;
            }
        }
        if !in_list {
            list.clear();
            list.extend_from_slice(&spare);
        }
        *entries = list;
        *merge = spare;
    }
    sum_sorted_duplicates(entries);
}

/// One bottom-up pass: merges each neighbouring pair of `src`'s ascending
/// runs stably into `dst` and returns how many merged runs it wrote.
fn merge_runs_pass(src: &[Entry], dst: &mut Vec<Entry>) -> usize {
    let ascending = |s: &[Entry]| 1 + s.windows(2).take_while(|w| w[0].0 <= w[1].0).count();
    dst.clear();
    let (mut rest, mut merged) = (src, 0);
    while !rest.is_empty() {
        let (left, tail) = rest.split_at(ascending(rest));
        let (right, tail) = tail.split_at(if tail.is_empty() { 0 } else { ascending(tail) });
        let (mut i, mut j) = (0, 0);
        while i < left.len() && j < right.len() {
            if right[j].0 < left[i].0 {
                dst.push(right[j]);
                j += 1;
            } else {
                dst.push(left[i]);
                i += 1;
            }
        }
        dst.extend_from_slice(&left[i..]);
        dst.extend_from_slice(&right[j..]);
        rest = tail;
        merged += 1;
    }
    merged
}

/// Sums the masses of equal neighbouring keys left to right in a list in
/// key order, leaving strictly increasing keys.
fn sum_sorted_duplicates(entries: &mut Vec<Entry>) {
    if entries.len() <= 1 {
        return;
    }
    let mut w = 0;
    for r in 1..entries.len() {
        if entries[r].0 == entries[w].0 {
            entries[w].1 += entries[r].1;
        } else {
            w += 1;
            entries[w] = entries[r];
        }
    }
    entries.truncate(w + 1);
}

/// Total probability mass.
pub fn total_mass(pmf: &[Entry]) -> f64 {
    pmf.iter().map(|&(_, m)| m).sum()
}

/// The sub-slice of `pmf` with support in `[lo, hi]` (both inclusive).
pub fn slice_range(pmf: &[Entry], lo: u64, hi: u64) -> &[Entry] {
    if lo > hi {
        return &[];
    }
    let start = pmf.partition_point(|&(d, _)| d < lo);
    let end = pmf.partition_point(|&(d, _)| d <= hi);
    &pmf[start..end]
}

/// Structure-of-arrays PMF: parallel `keys`/`mass` vectors, keys strictly
/// increasing.
///
/// This is the hot-path layout of the inference engine: the convolution and
/// scoring inner loops traverse the `f64` masses contiguously, and windowing
/// detects contiguous runs of support (`last − first + 1 == len`) to replace
/// binary searches with index arithmetic.
#[derive(Debug, Clone, Default)]
pub struct Pmf {
    keys: Vec<u64>,
    mass: Vec<f64>,
}

impl PartialEq for Pmf {
    fn eq(&self, other: &Self) -> bool {
        self.keys == other.keys && self.mass == other.mass
    }
}

impl Pmf {
    /// The empty PMF.
    pub fn new() -> Pmf {
        Pmf::default()
    }

    /// Builds from entries already sorted with strictly increasing keys
    /// (the invariant `coalesce` establishes).
    pub fn from_sorted(entries: Vec<Entry>) -> Pmf {
        let mut p = Pmf::new();
        p.refill_sorted(&entries);
        p
    }

    /// Replaces the contents with `entries` (sorted with strictly increasing
    /// keys, as for [`Pmf::from_sorted`]), reusing the allocations.
    pub fn refill_sorted(&mut self, entries: &[Entry]) {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        self.keys.clear();
        self.mass.clear();
        self.keys.extend(entries.iter().map(|&(d, _)| d));
        self.mass.extend(entries.iter().map(|&(_, m)| m));
    }

    /// Number of support points.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when the PMF has no support.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The support points, ascending.
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// The masses, parallel to [`Pmf::keys`].
    pub fn masses(&self) -> &[f64] {
        &self.mass
    }

    /// Iterates `(key, mass)` pairs in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.keys.iter().copied().zip(self.mass.iter().copied())
    }

    /// Materializes the tuple representation (for interop and tests).
    pub fn entries(&self) -> Vec<Entry> {
        self.iter().collect()
    }

    /// Total probability mass.
    pub fn total_mass(&self) -> f64 {
        self.mass.iter().sum()
    }

    /// True when the support is one contiguous integer run. O(1) on the
    /// strictly-increasing key invariant.
    pub fn is_contiguous(&self) -> bool {
        match (self.keys.first(), self.keys.last()) {
            (Some(&first), Some(&last)) => last - first + 1 == self.keys.len() as u64,
            _ => true,
        }
    }

    /// The index range `[start, end)` of support inside `[lo, hi]` (both
    /// inclusive). Contiguous-support PMFs resolve the range with pure
    /// index arithmetic; only gapped supports pay for binary searches.
    pub fn window(&self, lo: u64, hi: u64) -> (usize, usize) {
        let n = self.keys.len();
        if lo > hi || n == 0 {
            return (0, 0);
        }
        let first = self.keys[0];
        let last = self.keys[n - 1];
        if lo <= first && hi >= last {
            return (0, n);
        }
        if last - first + 1 == n as u64 {
            let start = lo.saturating_sub(first).min(n as u64) as usize;
            let end = if hi < first {
                0
            } else {
                (hi - first + 1).min(n as u64) as usize
            };
            return (start, end.max(start));
        }
        let start = self.keys.partition_point(|&d| d < lo);
        let end = self.keys.partition_point(|&d| d <= hi);
        (start, end)
    }

    /// Bitwise equality: same keys, same mass bit patterns.
    pub fn bits_eq(&self, other: &Pmf) -> bool {
        self.keys == other.keys
            && self.mass.len() == other.mass.len()
            && self
                .mass
                .iter()
                .zip(&other.mass)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

/// A windowed convolution as [`convolve_window_into`] leaves it.
#[derive(Debug, Clone, Copy)]
pub enum Convolved<'a> {
    /// The dense path's window, uncompacted: `cells[i]` is `h(lo + i)` for
    /// every duration of the window, `0.0` where no term lands. The PMF is
    /// the cells whose mass is `> 0.0`, in ascending order.
    Dense {
        /// The window's first duration.
        lo: u64,
        /// One sum per duration of the window.
        cells: &'a [f64],
    },
    /// The sparse path's result, or an empty window: `h`'s in-window
    /// support.
    Sparse(&'a Pmf),
}

/// Windowed convolution with shift: `h(d) = Σ_t f(t) · g(d − t − shift)`
/// restricted to `d ∈ [lo, hi]`, in caller-owned storage. `buf` (the dense
/// path's window), `out` (the sparse path's PMF) and `terms` (its term
/// list) are working space: reused across calls, none of the three
/// reallocates once it has grown to the largest window seen.
///
/// This is the per-edge kernel of the Baum–Welch E-step: with `f` the arrival
/// distribution at an edge's source, `g` the remaining-duration distribution
/// at its target, and `shift` the source block + edge cycle cost, `h(d)` is
/// the joint probability that the procedure runs `d` cycles total *and*
/// crosses the edge (up to the edge probability factor, applied by the
/// caller).
///
/// Strategy: when the window is narrow relative to the number of term
/// pairs (`width <= max(4·pairs, 1024)`, and at most 2^22 cells), every
/// product is added into its duration's cell of a dense window
/// (O(pairs + width)), handed back as [`Convolved::Dense`] without being
/// compacted, so a caller that reads a few durations of it pays nothing
/// for the rest; otherwise the in-window terms are collected and coalesced
/// into `out` (O(pairs · log pairs)), handed back as [`Convolved::Sparse`].
/// Either way each duration sums its terms over `f` in ascending key order.
///
/// The dense path reads the mass arrays contiguously, and when the
/// in-window slice of `g` is one contiguous run, the destination offsets
/// advance by 1 per term, so the loop is a pure `buf[off + j] += fm * gm[j]`
/// sweep with no per-term index computation.
#[allow(clippy::too_many_arguments)]
pub fn convolve_window_into<'a>(
    out: &'a mut Pmf,
    buf: &'a mut Vec<f64>,
    terms: &mut Vec<Entry>,
    f: &Pmf,
    g: &Pmf,
    shift: u64,
    lo: u64,
    hi: u64,
) -> Convolved<'a> {
    out.keys.clear();
    out.mass.clear();
    if lo > hi || f.is_empty() || g.is_empty() {
        return Convolved::Sparse(out);
    }
    let width = (hi - lo + 1) as usize;
    let pairs = f.len().saturating_mul(g.len());
    let dense = width <= pairs.saturating_mul(4).max(1024) && width <= (1 << 22);
    if dense {
        buf.clear();
        buf.resize(width, 0.0);
    } else {
        terms.clear();
    }
    for (i, &t) in f.keys.iter().enumerate() {
        let base = t + shift;
        if base > hi {
            continue;
        }
        let fm = f.mass[i];
        let (a, b) = g.window(lo.saturating_sub(base), hi - base);
        if a == b {
            continue;
        }
        let gk = &g.keys[a..b];
        let gm = &g.mass[a..b];
        if !dense {
            terms.extend(gk.iter().zip(gm).map(|(&s, &m)| (base + s, fm * m)));
        } else if gk[gk.len() - 1] - gk[0] + 1 == gk.len() as u64 {
            // Contiguous run: destination indices advance by one per term.
            let off = (base + gk[0] - lo) as usize;
            for (j, &m) in gm.iter().enumerate() {
                buf[off + j] += fm * m;
            }
        } else {
            for (j, &m) in gm.iter().enumerate() {
                buf[(base + gk[j] - lo) as usize] += fm * m;
            }
        }
    }
    if dense {
        Convolved::Dense { lo, cells: buf }
    } else {
        coalesce(terms);
        out.refill_sorted(terms);
        Convolved::Sparse(out)
    }
}

/// [`convolve_window_into`] as a [`Pmf`], with working space of its own: on
/// the dense path the window is compacted to its cells with mass `> 0.0`,
/// in ascending order.
pub fn convolve_window_pmf(f: &Pmf, g: &Pmf, shift: u64, lo: u64, hi: u64) -> Pmf {
    let (mut out, mut buf) = (Pmf::new(), Vec::new());
    let h = convolve_window_into(&mut out, &mut buf, &mut Vec::new(), f, g, shift, lo, hi);
    let Convolved::Dense { lo, cells } = h else {
        return out;
    };
    let mut compacted = Pmf::new();
    for (i, &m) in cells.iter().enumerate() {
        if m > 0.0 {
            compacted.keys.push(lo + i as u64);
            compacted.mass.push(m);
        }
    }
    compacted
}

/// [`convolve_window_into`] evaluated at chosen points only: `out[i]`
/// becomes `h(points[i])` with `h(d) = Σ_t f(t) · g(d − t − shift)`, and 0
/// where no term lands. `points` must be strictly increasing and the masses
/// nonnegative.
///
/// Each point sums its terms over `f` in ascending key order, starting
/// from 0 — the same products in the same order as the sweep, so every
/// value is bit-equal to the sweep's mass at that key. `g` is read by index
/// arithmetic: a contiguous `g` in place, a gapped one after it is spread
/// into `span` (its masses at their offsets, 0 in the holes), where a hole
/// adds `f(t) · 0 = +0` and leaves a nonnegative sum's bits unchanged. The
/// cost is `O(|points| · |f|)`, plus `g`'s key span when it is gapped,
/// against the sweep's `O(|f| · |g|)`: it pays when far fewer durations are
/// wanted than the window spans and `g`'s holes are few.
pub fn convolve_points_into(
    out: &mut Vec<f64>,
    span: &mut Vec<f64>,
    f: &Pmf,
    g: &Pmf,
    shift: u64,
    points: &[u64],
) {
    debug_assert!(points.windows(2).all(|w| w[0] < w[1]));
    out.clear();
    if f.is_empty() || g.is_empty() {
        out.resize(points.len(), 0.0);
        return;
    }
    let (g_first, g_last) = (g.keys[0], g.keys[g.len() - 1]);
    let dense: &[f64] = if g.is_contiguous() {
        &g.mass
    } else {
        span.clear();
        span.resize((g_last - g_first + 1) as usize, 0.0);
        for (&s, &m) in g.keys.iter().zip(&g.mass) {
            span[(s - g_first) as usize] = m;
        }
        span
    };
    out.extend(points.iter().map(|&d| {
        // Terms land on `d` where `t + s == r`, so `t ≤ r − g_first`.
        let r = match d.checked_sub(shift) {
            Some(r) if r >= g_first => r,
            _ => return 0.0,
        };
        let (a, b) = f.window(r.saturating_sub(g_last), r - g_first);
        f.keys[a..b]
            .iter()
            .zip(&f.mass[a..b])
            .fold(0.0, |acc, (&t, &m)| {
                acc + m * dense[(r - t - g_first) as usize]
            })
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesce_sums_duplicates_in_order() {
        let mut v = vec![(5, 0.25), (3, 0.5), (5, 0.125), (3, 0.1), (7, 0.025)];
        coalesce(&mut v);
        assert_eq!(v, vec![(3, 0.6), (5, 0.375), (7, 0.025)]);
    }

    #[test]
    fn slice_range_is_inclusive() {
        let v = vec![(1, 0.1), (3, 0.2), (5, 0.3), (9, 0.4)];
        assert_eq!(slice_range(&v, 3, 5), &[(3, 0.2), (5, 0.3)]);
        assert_eq!(slice_range(&v, 0, 100), &v[..]);
        assert_eq!(slice_range(&v, 6, 8), &[]);
        assert_eq!(slice_range(&v, 7, 2), &[]);
    }

    #[test]
    fn convolution_matches_naive() {
        let f = vec![(0, 0.5), (2, 0.3), (10, 0.2)];
        let g = vec![(1, 0.6), (4, 0.4)];
        let shift = 3;
        // Naive full convolution.
        let mut naive = std::collections::BTreeMap::new();
        for &(t, fm) in &f {
            for &(s, gm) in &g {
                *naive.entry(t + s + shift).or_insert(0.0) += fm * gm;
            }
        }
        let (fp, gp) = (Pmf::from_sorted(f.clone()), Pmf::from_sorted(g.clone()));
        for (lo, hi) in [(0u64, 100u64), (4, 9), (8, 8), (0, 0)] {
            let h = convolve_window_pmf(&fp, &gp, shift, lo, hi).entries();
            let want: Vec<Entry> = naive
                .iter()
                .filter(|&(&d, _)| d >= lo && d <= hi)
                .map(|(&d, &m)| (d, m))
                .collect();
            assert_eq!(h.len(), want.len(), "window [{lo},{hi}]");
            for (got, exp) in h.iter().zip(&want) {
                assert_eq!(got.0, exp.0);
                assert!((got.1 - exp.1).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn empty_inputs_yield_empty() {
        let one = Pmf::from_sorted(vec![(1, 1.0)]);
        assert!(convolve_window_pmf(&Pmf::new(), &one, 0, 0, 10).is_empty());
        assert!(convolve_window_pmf(&one, &Pmf::new(), 0, 0, 10).is_empty());
        assert!(convolve_window_pmf(&one, &one, 0, 5, 4).is_empty());
        assert!(convolve_window_pmf(&Pmf::new(), &Pmf::new(), 0, 0, 10).is_empty());
    }

    #[test]
    fn pmf_window_matches_slice_range() {
        // One gapped and one contiguous support; the SoA window must agree
        // with the tuple slice on both (the contiguous one exercises the
        // run-detection fast path).
        let gapped = vec![(1u64, 0.1), (3, 0.2), (5, 0.3), (9, 0.4)];
        let run: Vec<Entry> = (10u64..30).map(|d| (d, 1.0 / 20.0)).collect();
        for v in [gapped, run] {
            let p = Pmf::from_sorted(v.clone());
            for lo in 0u64..32 {
                for hi in 0u64..32 {
                    let s = slice_range(&v, lo, hi);
                    let (a, b) = p.window(lo, hi);
                    assert_eq!(&p.entries()[a..b], s, "window [{lo},{hi}]");
                }
            }
        }
    }

    #[test]
    fn pmf_contiguity_detection() {
        assert!(Pmf::new().is_contiguous());
        assert!(Pmf::from_sorted(vec![(7, 1.0)]).is_contiguous());
        assert!(Pmf::from_sorted(vec![(7, 0.5), (8, 0.25), (9, 0.25)]).is_contiguous());
        assert!(!Pmf::from_sorted(vec![(7, 0.5), (9, 0.5)]).is_contiguous());
    }

    #[test]
    fn pmf_roundtrip_and_bits_eq() {
        let mut coalesced = vec![(5, 0.25), (3, 0.5), (5, 0.125), (3, 0.1), (7, 0.025)];
        coalesce(&mut coalesced);
        let p = Pmf::from_sorted(coalesced.clone());
        assert_eq!(p.entries(), coalesced);
        assert_eq!(p.len(), 3);
        assert!((p.total_mass() - 1.0).abs() < 1e-12);
        let q = Pmf::from_sorted(p.entries());
        assert!(p.bits_eq(&q));
        let r = Pmf::from_sorted(vec![(3, 0.6), (5, 0.375), (7, 0.026)]);
        assert!(!p.bits_eq(&r));
    }
}
