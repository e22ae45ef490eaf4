//! Random permutations.
//!
//! Every randomized incremental algorithm in the paper assumes its input has
//! been placed in a uniformly random order; the bounds (expected linear
//! conflict sizes, `O(log n)` dependence-chain depth) all flow from that
//! assumption.  The permutation itself costs `O(n)` writes, which is within
//! the linear write budget of each algorithm.

use pwe_asym::counters::{record_reads, record_writes};
use pwe_asym::depth;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A uniformly random permutation of `0..n`, generated deterministically from
/// `seed` (Fisher–Yates).  `O(n)` reads and writes.
pub fn random_permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut perm: Vec<usize> = (0..n).collect();
    record_writes(n as u64);
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    record_reads(n as u64);
    record_writes(n as u64);
    depth::add(depth::log2_ceil(n.max(1)));
    perm
}

/// Shuffle a slice in place using a seeded Fisher–Yates shuffle.
pub fn shuffle_in_place<T>(items: &mut [T], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = items.len();
    record_reads(n as u64);
    record_writes(n as u64);
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
    depth::add(depth::log2_ceil(n.max(1)));
}

/// Reorder `items` into the order given by `perm` (i.e. `out[i] = items[perm[i]]`).
pub fn apply_permutation<T: Clone>(items: &[T], perm: &[usize]) -> Vec<T> {
    assert_eq!(items.len(), perm.len());
    record_reads(2 * items.len() as u64);
    record_writes(items.len() as u64);
    depth::add(1);
    perm.iter().map(|&i| items[i].clone()).collect()
}

/// Verify that `perm` is a permutation of `0..perm.len()`.
pub fn is_permutation(perm: &[usize]) -> bool {
    let n = perm.len();
    let mut seen = vec![false; n];
    for &p in perm {
        if p >= n || seen[p] {
            return false;
        }
        seen[p] = true;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn permutation_is_valid_and_deterministic() {
        let _g = crate::counter_guard();
        let a = random_permutation(1000, 42);
        let b = random_permutation(1000, 42);
        let c = random_permutation(1000, 43);
        assert!(is_permutation(&a));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn shuffle_preserves_multiset() {
        let _g = crate::counter_guard();
        let mut v: Vec<u32> = (0..500).collect();
        shuffle_in_place(&mut v, 7);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..500).collect::<Vec<_>>());
        // With 500 elements the identity permutation is astronomically unlikely.
        assert_ne!(v, (0..500).collect::<Vec<_>>());
    }

    #[test]
    fn apply_permutation_reorders() {
        let _g = crate::counter_guard();
        let items = vec!['a', 'b', 'c', 'd'];
        let perm = vec![2, 0, 3, 1];
        assert_eq!(apply_permutation(&items, &perm), vec!['c', 'a', 'd', 'b']);
    }

    #[test]
    fn degenerate_sizes() {
        let _g = crate::counter_guard();
        assert_eq!(random_permutation(0, 1), Vec::<usize>::new());
        assert_eq!(random_permutation(1, 1), vec![0]);
        assert!(is_permutation(&[]));
        assert!(!is_permutation(&[1]));
        assert!(!is_permutation(&[0, 0]));
    }

    #[test]
    fn permutation_looks_uniform_ish() {
        let _g = crate::counter_guard();
        // Position of element 0 across many seeds should spread out.
        let n = 16;
        let mut position_counts = vec![0u32; n];
        for seed in 0..800u64 {
            let p = random_permutation(n, seed);
            let pos = p.iter().position(|&x| x == 0).unwrap();
            position_counts[pos] += 1;
        }
        // Expected 50 per bucket; allow a wide tolerance.
        for &c in &position_counts {
            assert!(c > 15 && c < 120, "suspiciously non-uniform bucket: {c}");
        }
    }

    proptest! {
        #[test]
        fn prop_random_permutation_is_permutation(n in 0usize..2000, seed in 0u64..u64::MAX) {
            let _g = crate::counter_guard();
            prop_assert!(is_permutation(&random_permutation(n, seed)));
        }
    }
}
