//! Flat sparse PMF kernels over integer (cycle-count) support.
//!
//! A PMF is kept in one of two layouts:
//!
//! - the array-of-structs `Vec<(u64, f64)>` sorted by support point with
//!   strictly increasing keys — the representation raw contribution lists use
//!   while the time-expanded dynamic programs in `ct-core` are still merging
//!   frontiers; and
//! - the structure-of-arrays [`Pmf`] (keys `Vec<u64>` + masses `Vec<f64>`) —
//!   the hot-path representation: the scoring loops run over a contiguous
//!   `f64` slice (no interleaved keys polluting the cache lines), and
//!   contiguous-support PMFs skip binary-search slicing entirely (run detection is O(1) on strictly increasing keys:
//!   `last − first + 1 == len`).
//!
//! The kernels here are the hot primitives of the inference engine:
//! coalescing raw contribution lists and windowed slicing.

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

/// The longest list the standard library's stable sort orders in its 4 KiB
/// of stack scratch (16-byte entries); it takes heap scratch for any longer
/// list.
const STACK_SORT_MAX: usize = 256;

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
/// This is the hot-path layout of the inference engine: the scoring inner
/// loops traverse the `f64` masses contiguously, and windowing
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
    fn pmf_roundtrip() {
        let mut coalesced = vec![(5, 0.25), (3, 0.5), (5, 0.125), (3, 0.1), (7, 0.025)];
        coalesce(&mut coalesced);
        let p = Pmf::from_sorted(coalesced.clone());
        assert_eq!(p.entries(), coalesced);
        assert_eq!(p.len(), 3);
        assert!((p.total_mass() - 1.0).abs() < 1e-12);
    }
}
