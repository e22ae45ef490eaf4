//! Parallel merge of sorted sequences.
//!
//! Used by the write-*inefficient* merge-sort baseline (whose `Θ(n log n)`
//! writes the paper's incremental sort is compared against) and by the bulk
//! update paths of the augmented trees, where a sorted batch is merged into
//! the flattened contents of a subtree before reconstruction.

use pwe_asym::counters::{record_reads, record_writes};
use pwe_asym::depth;
use pwe_asym::parallel::par_join;

/// Merge two sorted slices into a new sorted vector (stable: ties favour `a`).
///
/// Cost: `O(n + m)` reads and writes, `O(log²(n + m))` depth via the
/// binary-search divide step.
pub fn merge_sorted<T, F>(a: &[T], b: &[T], less: &F) -> Vec<T>
where
    T: Clone + Send + Sync,
    F: Fn(&T, &T) -> bool + Send + Sync,
{
    let n = a.len() + b.len();
    let mut out = Vec::with_capacity(n);
    if let Some(x) = a.first().or_else(|| b.first()) {
        out.resize(n, x.clone());
    }
    merge_into(a, b, &mut out, less);
    out
}

/// Merge `a` and `b` into `out` (which must have length `a.len() + b.len()`).
/// Stable: equal elements from `a` precede equal elements from `b`.
pub fn merge_into<T, F>(a: &[T], b: &[T], out: &mut [T], less: &F)
where
    T: Clone + Send + Sync,
    F: Fn(&T, &T) -> bool + Send + Sync,
{
    assert_eq!(out.len(), a.len() + b.len());
    const SEQ_CUTOFF: usize = 8192;
    if a.len() + b.len() <= SEQ_CUTOFF || a.is_empty() || b.is_empty() {
        record_reads((a.len() + b.len()) as u64);
        record_writes(out.len() as u64);
        let (mut i, mut j, mut k) = (0, 0, 0);
        while i < a.len() && j < b.len() {
            if less(&b[j], &a[i]) {
                out[k] = b[j].clone();
                j += 1;
            } else {
                out[k] = a[i].clone();
                i += 1;
            }
            k += 1;
        }
        while i < a.len() {
            out[k] = a[i].clone();
            i += 1;
            k += 1;
        }
        while j < b.len() {
            out[k] = b[j].clone();
            j += 1;
            k += 1;
        }
        depth::add(1);
        return;
    }
    // Split on the median of the larger side; find the matching split point
    // in the other side by binary search, then merge both halves in parallel.
    // The split points are chosen so stability (ties favour `a`) is preserved.
    let (mid_a, mid_b) = if a.len() >= b.len() {
        let mid_a = a.len() / 2;
        // Elements of b strictly less than a[mid_a] stay on the left so that
        // a[mid_a] (from `a`) precedes equal elements of `b`.
        let mid_b = lower_bound(b, &a[mid_a], less);
        (mid_a, mid_b)
    } else {
        let mid_b = b.len() / 2;
        // Elements of a less than or equal to b[mid_b] stay on the left so
        // equal `a` elements precede b[mid_b].
        let mid_a = upper_bound(a, &b[mid_b], less);
        (mid_a, mid_b)
    };
    record_reads(depth::log2_ceil(a.len().max(b.len())));
    let (a_lo, a_hi) = a.split_at(mid_a);
    let (b_lo, b_hi) = b.split_at(mid_b);
    let (out_lo, out_hi) = out.split_at_mut(mid_a + mid_b);
    par_join(
        || merge_into(a_lo, b_lo, out_lo, less),
        || merge_into(a_hi, b_hi, out_hi, less),
    );
    depth::add(1);
}

/// First index in sorted `v` whose element is not less than `x`.
pub fn lower_bound<T, F>(v: &[T], x: &T, less: &F) -> usize
where
    F: Fn(&T, &T) -> bool,
{
    let mut lo = 0usize;
    let mut hi = v.len();
    while lo < hi {
        let mid = (lo + hi) / 2;
        if less(&v[mid], x) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// First index in sorted `v` whose element is greater than `x`.
pub fn upper_bound<T, F>(v: &[T], x: &T, less: &F) -> usize
where
    F: Fn(&T, &T) -> bool,
{
    let mut lo = 0usize;
    let mut hi = v.len();
    while lo < hi {
        let mid = (lo + hi) / 2;
        if less(x, &v[mid]) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn lt(a: &u64, b: &u64) -> bool {
        a < b
    }

    #[test]
    fn merge_small() {
        let _g = crate::counter_guard();
        let a = vec![1u64, 3, 5, 7];
        let b = vec![2u64, 4, 6, 8, 10];
        assert_eq!(merge_sorted(&a, &b, &lt), vec![1, 2, 3, 4, 5, 6, 7, 8, 10]);
    }

    #[test]
    fn merge_with_empty_sides() {
        let _g = crate::counter_guard();
        let a: Vec<u64> = vec![];
        let b = vec![1u64, 2, 3];
        assert_eq!(merge_sorted(&a, &b, &lt), vec![1, 2, 3]);
        assert_eq!(merge_sorted(&b, &a, &lt), vec![1, 2, 3]);
        assert_eq!(merge_sorted(&a, &a, &lt), Vec::<u64>::new());
    }

    #[test]
    fn merge_large_parallel_path() {
        let _g = crate::counter_guard();
        let a: Vec<u64> = (0..20_000).map(|x| x * 2).collect();
        let b: Vec<u64> = (0..20_000).map(|x| x * 2 + 1).collect();
        let merged = merge_sorted(&a, &b, &lt);
        assert_eq!(merged.len(), 40_000);
        assert!(merged.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(merged, (0..40_000u64).collect::<Vec<_>>());
    }

    #[test]
    fn merge_unbalanced_sizes() {
        let _g = crate::counter_guard();
        let a: Vec<u64> = (0..30_000).collect();
        let b: Vec<u64> = vec![5, 500, 29_999, 60_000];
        let merged = merge_sorted(&a, &b, &lt);
        assert_eq!(merged.len(), 30_004);
        assert!(merged.windows(2).all(|w| w[0] <= w[1]));
        let merged2 = merge_sorted(&b, &a, &lt);
        assert_eq!(merged, merged2);
    }

    #[test]
    fn merge_is_stable() {
        let _g = crate::counter_guard();
        // Pairs (key, origin); ties by key must keep all `a`-origin items first.
        let a: Vec<(u64, u8)> = (0..10_000).map(|i| (i / 10, 0)).collect();
        let b: Vec<(u64, u8)> = (0..10_000).map(|i| (i / 10, 1)).collect();
        let less = |x: &(u64, u8), y: &(u64, u8)| x.0 < y.0;
        let merged = merge_sorted(&a, &b, &less);
        for w in merged.windows(2) {
            assert!(w[0].0 <= w[1].0);
            if w[0].0 == w[1].0 {
                assert!(w[0].1 <= w[1].1, "stability violated at key {}", w[0].0);
            }
        }
    }

    #[test]
    fn bounds() {
        let _g = crate::counter_guard();
        let v = vec![1u64, 3, 3, 3, 7, 9];
        assert_eq!(lower_bound(&v, &3, &lt), 1);
        assert_eq!(upper_bound(&v, &3, &lt), 4);
        assert_eq!(lower_bound(&v, &0, &lt), 0);
        assert_eq!(lower_bound(&v, &10, &lt), 6);
        assert_eq!(upper_bound(&v, &10, &lt), 6);
    }

    proptest! {
        #[test]
        fn prop_merge_is_sorted_union(
            mut a in proptest::collection::vec(0u64..10_000, 0..2000),
            mut b in proptest::collection::vec(0u64..10_000, 0..2000),
        ) {
            let _g = crate::counter_guard();
            a.sort_unstable();
            b.sort_unstable();
            let merged = merge_sorted(&a, &b, &lt);
            prop_assert!(merged.windows(2).all(|w| w[0] <= w[1]));
            let mut expected = a.clone();
            expected.extend(b.iter().cloned());
            expected.sort_unstable();
            prop_assert_eq!(merged, expected);
        }

        #[test]
        fn prop_bounds_bracket_equal_range(mut v in proptest::collection::vec(0u64..100, 0..300), x in 0u64..100) {
            let _g = crate::counter_guard();
            v.sort_unstable();
            let lo = lower_bound(&v, &x, &lt);
            let hi = upper_bound(&v, &x, &lt);
            prop_assert!(lo <= hi);
            for (i, &item) in v.iter().enumerate() {
                if i < lo { prop_assert!(item < x); }
                else if i < hi { prop_assert_eq!(item, x); }
                else { prop_assert!(item > x); }
            }
        }
    }
}
