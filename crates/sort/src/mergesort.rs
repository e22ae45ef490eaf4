//! The write-inefficient baseline: parallel merge sort.
//!
//! Merge sort performs `Θ(n log n)` reads *and* `Θ(n log n)` writes — every
//! level of the merge tree rewrites the whole array.  In the Asymmetric NP
//! model its work is therefore `Θ(ωn log n)`, which is the baseline the
//! paper's `O(n log n + ωn)` incremental sort improves on (Section 4; the
//! paper's own comparison point is the write-optimal but much more involved
//! Cole's-mergesort-based sort of \[14\]).
//!
//! pwe-lint: deny-untracked-alloc

use pwe_asym::depth;
use pwe_asym::parallel::par_join;
use pwe_asym::smallmem::{ScratchReport, SmallMem};
use pwe_primitives::merge::merge_into;

/// Small-memory budget constant for the merge-sort baseline: each task chain
/// holds one `O(1)`-word frame per recursion level plus the base case's
/// `O(log SEQ_CUTOFF)`-word pivot stack, so `4·log₂ n` words is a safe
/// logarithmic ceiling (asserted by `small_memory_mergesort` in
/// `tests/small_memory.rs`).
pub const MERGESORT_SCRATCH_C: u64 = 4;

/// Sort a slice with a parallel top-down merge sort, charging
/// `Θ(n log n)` reads and writes.
pub fn merge_sort_baseline<K: Ord + Copy + Send + Sync>(keys: &[K]) -> Vec<K> {
    merge_sort_baseline_with_scratch(keys).0
}

/// [`merge_sort_baseline`] plus the small-memory ledger report: the merge
/// buffers themselves live in (and are charged to) the large asymmetric
/// memory; the per-task *symmetric* scratch is only the recursion frames and
/// the base-case sort's pivot stack, `O(log n)` words.
pub fn merge_sort_baseline_with_scratch<K: Ord + Copy + Send + Sync>(
    keys: &[K],
) -> (Vec<K>, ScratchReport) {
    let n = keys.len();
    let ledger = SmallMem::logarithmic(n, MERGESORT_SCRATCH_C);
    if n <= 1 {
        // alloc: large-mem — n ≤ 1 output copy
        return (keys.to_vec(), ledger.report());
    }
    let out = sort_rec(keys, &ledger, 0);
    depth::add(depth::log2_ceil(n));
    (out, ledger.report())
}

/// `level` counts the recursion frames (one word each) the current task
/// chain holds above this call; the base case folds the chain's total into
/// the ledger.
fn sort_rec<K: Ord + Copy + Send + Sync>(keys: &[K], ledger: &SmallMem, level: u64) -> Vec<K> {
    let n = keys.len();
    const SEQ_CUTOFF: usize = 4096;
    if n <= SEQ_CUTOFF {
        // The sequential base case still pays the model's n log n writes of a
        // standard comparison sort on its block; its in-place pivot stack is
        // O(log n) words of task scratch.
        // alloc: large-mem — base-case block copy (its n·log n writes are recorded below)
        let mut v = keys.to_vec();
        v.sort_unstable();
        let levels = pwe_asym::depth::log2_ceil(n.max(1));
        ledger.observe_task(level + levels + 1);
        pwe_asym::counters::record_reads(n as u64 * levels);
        pwe_asym::counters::record_writes(n as u64 * levels.max(1));
        return v;
    }
    let mid = n / 2;
    let (left, right) = par_join(
        || sort_rec(&keys[..mid], ledger, level + 1),
        || sort_rec(&keys[mid..], ledger, level + 1),
    );
    // alloc: large-mem — merge output buffer (Θ(n) writes charged by merge_into)
    let mut out = vec![keys[0]; n];
    merge_into(&left, &right, &mut out, &|a: &K, b: &K| a < b);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use pwe_asym::cost::{measure, Omega};

    #[test]
    fn sorts_correctly() {
        let _g = crate::counter_guard();
        let keys: Vec<u64> = (0..20_000u64).map(|i| (i * 48271) % 65537).collect();
        let sorted = merge_sort_baseline(&keys);
        let mut expected = keys.clone();
        expected.sort_unstable();
        assert_eq!(sorted, expected);
    }

    #[test]
    fn empty_and_single() {
        let _g = crate::counter_guard();
        assert_eq!(merge_sort_baseline::<u64>(&[]), Vec::<u64>::new());
        assert_eq!(merge_sort_baseline(&[42u64]), vec![42]);
    }

    #[test]
    fn writes_scale_superlinearly() {
        let _g = crate::counter_guard();
        // Confirm the baseline really does pay ~n log n writes, so that the
        // comparison in the benchmark harness is meaningful.
        let keys: Vec<u64> = (0..50_000u64).rev().collect();
        let (_, report) = measure(Omega::symmetric(), || merge_sort_baseline(&keys));
        let wpe = report.writes_per_element(keys.len());
        assert!(
            wpe > 5.0,
            "merge sort should write each element many times, got {wpe:.2} writes/element"
        );
    }

    proptest! {
        #[test]
        fn prop_matches_std_sort(keys in proptest::collection::vec(any::<i32>(), 0..5000)) {
            let _g = crate::counter_guard();
            let sorted = merge_sort_baseline(&keys);
            let mut expected = keys.clone();
            expected.sort_unstable();
            prop_assert_eq!(sorted, expected);
        }
    }
}
