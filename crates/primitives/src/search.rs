//! Branchless binary search over packed sorted runs.
//!
//! pwe-lint: deny-untracked-alloc
//!
//! Every §7 structure in this workspace keeps its augmentation data as
//! *packed sorted runs* in flat arenas (the PR 5 layout), and every query
//! locates its scan window with a `partition_point`-style lower bound over
//! one of those runs.  `std`'s `partition_point` is a conditional-branch
//! loop: on random query keys the branch is essentially unpredictable, so
//! each probe costs a pipeline flush on top of its cache miss.  The
//! [`branchless_partition_point`] here is the classical fixed-trip-count
//! alternative: the probe index is updated with a conditional *move*
//! (`base = if pred { base + half } else { base }` — no branch on the
//! comparison outcome, only on the loop counter, which is perfectly
//! predictable), and the next probe's cache line is software-prefetched
//! while the current comparison retires.
//!
//! The search is *physical* machinery only: it visits exactly the elements
//! a textbook binary search would, and the callers charge the same
//! `⌈log₂ m⌉` ARAM reads they always charged ([`run_partition_point`]
//! bundles that charge).  Wall-clock moves; the cost model does not
//! (MODEL.md §5).

use pwe_asym::counters::record_reads;
use pwe_asym::depth::log2_ceil;

/// Prefetch the cache line holding `*p` into all cache levels.  A pure
/// scheduling hint: no-op on architectures without a prefetch intrinsic,
/// never faults, never reads the value architecturally.
#[inline(always)]
pub fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: _mm_prefetch is a hint instruction; it never faults and has
    // no architectural effect even on dangling or unaligned addresses.
    unsafe {
        std::arch::x86_64::_mm_prefetch(p as *const i8, std::arch::x86_64::_MM_HINT_T0);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Branchless `partition_point`: the index of the first element of `s` for
/// which `pred` is false, assuming `s` is partitioned (all `true` elements
/// precede all `false` ones).  Identical contract and result as
/// `slice::partition_point`, different machine code: the interval update is
/// a conditional move and the two possible next probes are prefetched each
/// iteration.
///
/// Charges nothing — callers on instrumented paths use
/// [`run_partition_point`], which adds the `⌈log₂ m⌉` read charge the
/// hand-rolled call sites always paid.
#[inline]
pub fn branchless_partition_point<T, F: Fn(&T) -> bool>(s: &[T], pred: F) -> usize {
    let mut base = 0usize;
    let mut size = s.len();
    if size == 0 {
        return 0;
    }
    while size > 1 {
        let half = size / 2;
        // Prefetch both candidate midpoints of the *next* iteration so the
        // line is in flight regardless of which way this comparison goes.
        let next = size - half;
        // SAFETY: base + half/2 < base + size <= s.len(); in-bounds
        // pointer arithmetic within one allocation.
        prefetch_read(unsafe { s.as_ptr().add(base + half / 2) });
        // SAFETY: base + half + next/2 < base + size <= s.len().
        prefetch_read(unsafe { s.as_ptr().add(base + half + next / 2) });
        // The answer lies in [base, base + size]; probing s[base + half - 1]
        // keeps the true-prefix invariant either way.  This compiles to a
        // cmov, not a branch.
        base = if pred(&s[base + half - 1]) {
            base + half
        } else {
            base
        };
        size = next;
    }
    base + usize::from(pred(&s[base]))
}

/// [`branchless_partition_point`] plus the standard ARAM charge for probing
/// a packed run: `⌈log₂ max(m, 2)⌉` reads — exactly what every hand-rolled
/// `partition_point`-over-runs call site in the workspace charged before
/// they were deduplicated onto this helper.
#[inline]
pub fn run_partition_point<T, F: Fn(&T) -> bool>(s: &[T], pred: F) -> usize {
    record_reads(log2_ceil(s.len().max(2)));
    branchless_partition_point(s, pred)
}

/// Exact-match search over a packed run sorted by `key(e)`: `Ok(i)` if
/// `s[i]` has key `k`, `Err(i)` with the insertion point otherwise.  Same
/// contract as `slice::binary_search_by_key`, built on the branchless
/// lower bound; charges nothing (the one caller charges table reads
/// itself).
#[inline]
pub fn branchless_search_by_key<T, K: Ord + Copy, F: Fn(&T) -> K>(
    s: &[T],
    k: K,
    key: F,
) -> Result<usize, usize> {
    let i = branchless_partition_point(s, |e| key(e) < k);
    if i < s.len() && key(&s[i]) == k {
        Ok(i)
    } else {
        Err(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_std_partition_point_exhaustively() {
        for n in 0..70usize {
            let v: Vec<u64> = (0..n as u64).map(|i| 2 * i).collect();
            for probe in 0..=(2 * n as u64 + 1) {
                let expect = v.partition_point(|&x| x < probe);
                assert_eq!(
                    branchless_partition_point(&v, |&x| x < probe),
                    expect,
                    "n={n} probe={probe}"
                );
            }
        }
    }

    #[test]
    fn matches_on_duplicate_heavy_runs() {
        let v = vec![1u64, 1, 1, 3, 3, 5, 5, 5, 5, 9];
        for probe in 0..11 {
            assert_eq!(
                branchless_partition_point(&v, |&x| x < probe),
                v.partition_point(|&x| x < probe)
            );
            assert_eq!(
                branchless_partition_point(&v, |&x| x <= probe),
                v.partition_point(|&x| x <= probe)
            );
        }
    }

    #[test]
    fn search_by_key_matches_std() {
        let v: Vec<(u64, u64)> = (0..50).map(|i| (3 * i, i)).collect();
        for k in 0..160u64 {
            assert_eq!(
                branchless_search_by_key(&v, k, |e| e.0),
                v.binary_search_by_key(&k, |e| e.0),
                "k={k}"
            );
        }
        assert_eq!(
            branchless_search_by_key(&[] as &[(u64, u64)], 5, |e| e.0),
            Err(0)
        );
    }

    #[test]
    fn charged_variant_counts_logarithmic_reads() {
        use pwe_asym::cost::{measure, Omega};
        let v: Vec<u64> = (0..1024).collect();
        let (i, cost) = measure(Omega::default(), || run_partition_point(&v, |&x| x < 700));
        assert_eq!(i, 700);
        assert_eq!(cost.reads, 10, "log2(1024) probe charge");
    }
}
