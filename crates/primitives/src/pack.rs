//! Filter / pack.
//!
//! Packing the flagged subset of a sequence is the canonical output-sensitive
//! primitive: `O(n)` reads but only `O(k)` writes where `k` is the number of
//! survivors, with `O(log n)` depth.  The incremental algorithms use it to
//! extract un-finished elements, overflowing buckets, alive triangles, etc.

use pwe_asym::counters::{record_reads, record_writes};
use pwe_asym::depth;
use rayon::prelude::*;

/// Keep the elements whose flag is set, preserving order.
///
/// Cost: `O(n)` reads, `O(k)` writes (`k` = survivors), `O(log n)` depth.
pub fn pack_flagged<T: Clone + Send + Sync>(items: &[T], flags: &[bool]) -> Vec<T> {
    assert_eq!(items.len(), flags.len(), "items and flags must align");
    record_reads(2 * items.len() as u64);
    let out: Vec<T> = items
        .par_iter()
        .zip(flags.par_iter())
        .filter(|(_, &f)| f)
        .map(|(x, _)| x.clone())
        .collect();
    record_writes(out.len() as u64);
    depth::add(depth::log2_ceil(items.len().max(1)));
    out
}

/// Keep elements satisfying the predicate, preserving order.
pub fn pack_by<T: Clone + Send + Sync, F>(items: &[T], pred: F) -> Vec<T>
where
    F: Fn(&T) -> bool + Send + Sync,
{
    record_reads(items.len() as u64);
    let out: Vec<T> = items.par_iter().filter(|x| pred(x)).cloned().collect();
    record_writes(out.len() as u64);
    depth::add(depth::log2_ceil(items.len().max(1)));
    out
}

/// Return the indices `i` with `flags[i]` set, in increasing order.
pub fn pack_indices(flags: &[bool]) -> Vec<usize> {
    record_reads(flags.len() as u64);
    let out: Vec<usize> = flags
        .par_iter()
        .enumerate()
        .filter(|(_, &f)| f)
        .map(|(i, _)| i)
        .collect();
    record_writes(out.len() as u64);
    depth::add(depth::log2_ceil(flags.len().max(1)));
    out
}

/// Split into (satisfying, not satisfying), both order-preserving.
pub fn partition_by<T: Clone + Send + Sync, F>(items: &[T], pred: F) -> (Vec<T>, Vec<T>)
where
    F: Fn(&T) -> bool + Send + Sync,
{
    record_reads(items.len() as u64);
    let (yes, no): (Vec<T>, Vec<T>) = items.par_iter().cloned().partition(|x| pred(x));
    record_writes((yes.len() + no.len()) as u64);
    depth::add(depth::log2_ceil(items.len().max(1)));
    (yes, no)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use pwe_asym::counters::CounterSnapshot;

    #[test]
    fn pack_keeps_flagged_in_order() {
        let _g = crate::counter_guard();
        let items = vec![10, 20, 30, 40, 50];
        let flags = vec![true, false, true, false, true];
        assert_eq!(pack_flagged(&items, &flags), vec![10, 30, 50]);
    }

    #[test]
    fn pack_indices_matches_flags() {
        let _g = crate::counter_guard();
        let flags = vec![false, true, true, false, true];
        assert_eq!(pack_indices(&flags), vec![1, 2, 4]);
    }

    #[test]
    fn partition_splits_everything() {
        let _g = crate::counter_guard();
        let items: Vec<u32> = (0..100).collect();
        let (even, odd) = partition_by(&items, |x| x % 2 == 0);
        assert_eq!(even.len(), 50);
        assert_eq!(odd.len(), 50);
        assert!(even.iter().all(|x| x % 2 == 0));
        assert!(odd.iter().all(|x| x % 2 == 1));
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_rejected() {
        let _g = crate::counter_guard();
        pack_flagged(&[1, 2, 3], &[true]);
    }

    #[test]
    fn writes_are_output_sensitive() {
        let _g = crate::counter_guard();
        let items: Vec<u64> = (0..10_000).collect();
        let flags: Vec<bool> = items.iter().map(|&x| x < 10).collect();
        let before = CounterSnapshot::now();
        let out = pack_flagged(&items, &flags);
        let after = CounterSnapshot::now();
        let (_, writes) = after.since(&before);
        assert_eq!(out.len(), 10);
        // Writes should be ~k, far below n. Allow generous slack for other
        // instrumentation noise in parallel test runs.
        assert!(
            writes < 1000,
            "pack should perform output-sensitive writes, got {writes}"
        );
    }

    proptest! {
        #[test]
        fn prop_pack_equals_sequential_filter(v in proptest::collection::vec(0i64..1000, 0..500)) {
            let _g = crate::counter_guard();
            let flags: Vec<bool> = v.iter().map(|x| x % 3 == 0).collect();
            let expected: Vec<i64> = v.iter().cloned().zip(flags.iter()).filter(|(_, &f)| f).map(|(x, _)| x).collect();
            prop_assert_eq!(pack_flagged(&v, &flags), expected);
        }

        #[test]
        fn prop_partition_preserves_multiset(v in proptest::collection::vec(0i64..50, 0..500)) {
            let _g = crate::counter_guard();
            let (yes, no) = partition_by(&v, |x| x % 2 == 0);
            let mut merged = yes.clone();
            merged.extend(no.clone());
            merged.sort_unstable();
            let mut orig = v.clone();
            orig.sort_unstable();
            prop_assert_eq!(merged, orig);
        }
    }
}
