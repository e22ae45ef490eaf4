//! Prefix sums (scans).
//!
//! Scans are the workhorse of parallel packing, bucket offsets in semisort,
//! and subtree-size computations.  Both the sequential and the blocked
//! parallel variant perform `O(n)` reads and `O(n)` writes; the parallel
//! variant has `O(log n)` structural depth (two passes over `O(√n)`-ish
//! blocks plus a scan of the per-block sums).

use pwe_asym::counters::{record_reads, record_writes};
use pwe_asym::depth;
use rayon::prelude::*;

/// Exclusive prefix sum: `out[i] = sum of input[..i]`; returns `(out, total)`.
pub fn exclusive_scan(input: &[u64]) -> (Vec<u64>, u64) {
    record_reads(input.len() as u64);
    record_writes(input.len() as u64);
    let mut out = Vec::with_capacity(input.len());
    let mut acc = 0u64;
    for &x in input {
        out.push(acc);
        acc += x;
    }
    depth::add(depth::log2_ceil(input.len().max(1)));
    (out, acc)
}

/// Inclusive prefix sum: `out[i] = sum of input[..=i]`.
pub fn inclusive_scan(input: &[u64]) -> Vec<u64> {
    record_reads(input.len() as u64);
    record_writes(input.len() as u64);
    let mut out = Vec::with_capacity(input.len());
    let mut acc = 0u64;
    for &x in input {
        acc += x;
        out.push(acc);
    }
    depth::add(depth::log2_ceil(input.len().max(1)));
    out
}

/// Blocked parallel exclusive scan; identical output to [`exclusive_scan`].
///
/// Splits the input into `O(√n)` blocks, scans blocks in parallel, scans the
/// per-block totals sequentially (they fit in small memory for the block
/// counts used here), then offsets each block in parallel.
pub fn par_exclusive_scan(input: &[u64]) -> (Vec<u64>, u64) {
    let n = input.len();
    if n < 4096 {
        return exclusive_scan(input);
    }
    record_reads(2 * n as u64);
    record_writes(n as u64);

    let block = usize::max(1024, (n as f64).sqrt() as usize);
    let num_blocks = n.div_ceil(block);

    // Phase 1: per-block totals.
    let totals: Vec<u64> = (0..num_blocks)
        .into_par_iter()
        .map(|b| {
            let start = b * block;
            let end = usize::min(start + block, n);
            input[start..end].iter().sum()
        })
        .collect();

    // Phase 2: scan the totals (num_blocks = O(√n) values).
    let mut offsets = Vec::with_capacity(num_blocks);
    let mut acc = 0u64;
    for &t in &totals {
        offsets.push(acc);
        acc += t;
    }
    let total = acc;

    // Phase 3: per-block exclusive scans with the block offset added.
    let mut out = vec![0u64; n];
    out.par_chunks_mut(block)
        .enumerate()
        .for_each(|(b, chunk)| {
            let start = b * block;
            let mut acc = offsets[b];
            for (i, slot) in chunk.iter_mut().enumerate() {
                *slot = acc;
                acc += input[start + i];
            }
        });

    depth::add(2 * depth::log2_ceil(n));
    (out, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn exclusive_scan_small() {
        let (out, total) = exclusive_scan(&[3, 1, 4, 1, 5]);
        assert_eq!(out, vec![0, 3, 4, 8, 9]);
        assert_eq!(total, 14);
    }

    #[test]
    fn inclusive_scan_small() {
        let out = inclusive_scan(&[3, 1, 4, 1, 5]);
        assert_eq!(out, vec![3, 4, 8, 9, 14]);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(exclusive_scan(&[]), (vec![], 0));
        assert_eq!(inclusive_scan(&[]), Vec::<u64>::new());
        assert_eq!(par_exclusive_scan(&[]), (vec![], 0));
    }

    #[test]
    fn parallel_matches_sequential_on_large_input() {
        let input: Vec<u64> = (0..50_000).map(|i| (i * 7919) % 101).collect();
        let (seq, seq_total) = exclusive_scan(&input);
        let (par, par_total) = par_exclusive_scan(&input);
        assert_eq!(seq_total, par_total);
        assert_eq!(seq, par);
    }

    proptest! {
        #[test]
        fn prop_exclusive_scan_is_prefix_sum(v in proptest::collection::vec(0u64..1000, 0..300)) {
            let (out, total) = exclusive_scan(&v);
            let mut acc = 0u64;
            for (i, &o) in out.iter().enumerate() {
                prop_assert_eq!(o, acc);
                acc += v[i];
            }
            prop_assert_eq!(total, acc);
        }

        #[test]
        fn prop_par_scan_matches_seq(v in proptest::collection::vec(0u64..1000, 0..9000)) {
            let (a, ta) = exclusive_scan(&v);
            let (b, tb) = par_exclusive_scan(&v);
            prop_assert_eq!(ta, tb);
            prop_assert_eq!(a, b);
        }

        #[test]
        fn prop_inclusive_is_exclusive_shifted(v in proptest::collection::vec(0u64..1000, 1..300)) {
            let inc = inclusive_scan(&v);
            let (exc, total) = exclusive_scan(&v);
            for i in 0..v.len() - 1 {
                prop_assert_eq!(inc[i], exc[i + 1]);
            }
            prop_assert_eq!(*inc.last().unwrap(), total);
        }
    }
}
