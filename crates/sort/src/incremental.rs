//! The write-efficient incremental sort (Section 4, Theorem 4.1).
//!
//! For a random insertion order, inserting `n` keys into an unbalanced BST
//! (Algorithm 1) performs `O(n log n)` comparisons but also `Θ(n log n)`
//! writes if every key re-walks the tree in every round.  The write-efficient
//! version splits the insertion into prefix-doubling rounds:
//!
//! * the **initial round** inserts the first `n / log² n` keys with the plain
//!   sequential algorithm (its `O((n/log² n)·log n)` writes are `o(n)`);
//! * each **incremental round** doubles the number of keys: every new key
//!   first *locates* (reads only, in parallel) the empty slot of the current
//!   tree it belongs to, the keys are grouped by slot with a semisort
//!   (expected linear writes), and each group — a "bucket", expected size
//!   `O(1)`, `O(log n)` whp — builds its subtree independently, paying writes
//!   only for the nodes it actually creates.
//!
//! The sorted output is the final in-order traversal.  Expected costs:
//! `O(n log n)` reads, `O(n)` writes, `O(log² n · log log n)` depth
//! (Lemma 4.1; the `O(log² n)` bound of Theorem 4.1 additionally postpones
//! the stragglers of each round, which changes no asymptotic write count —
//! see [`incremental_sort_bounded_buckets`] for that variant).

use rayon::prelude::*;

use pwe_asym::counters::record_writes;
use pwe_asym::depth::{self, RoundDepth};
use pwe_asym::smallmem::{ScratchReport, SmallMem, TaskScratch};
use pwe_primitives::permute::random_permutation;
use pwe_primitives::semisort::semisort_by_key;
use pwe_trace::prefix::prefix_doubling_rounds;

use crate::bst::{Bst, Slot, EMPTY};

/// Small-memory budget constant for the incremental sort.  The largest
/// per-task scratch is the final in-order traversal's stack, `O(height)`
/// words — a random-order BST has height `≈ 3·log₂ n` in expectation and
/// `O(log n)` whp, so `10·log₂ n` words leaves comfortable whp slack while a
/// linear-scratch regression still blows through it (asserted by
/// `small_memory_incremental_sort` in `tests/small_memory.rs`).
pub const SORT_SCRATCH_C: u64 = 10;

/// Statistics reported by [`incremental_sort_with_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrementalSortStats {
    /// Number of prefix-doubling rounds executed (including the initial one).
    pub rounds: usize,
    /// Final height of the (unbalanced) search tree.
    pub tree_height: usize,
    /// Largest bucket encountered in any incremental round.
    pub max_bucket: usize,
    /// Number of keys that were deferred to the clean-up round (only non-zero
    /// for the bounded-bucket variant).
    pub deferred: usize,
    /// Small-memory ledger snapshot: the largest per-task symmetric scratch
    /// any task used (locate-path registers, bucket bookkeeping, traversal
    /// stack) against the `c·log₂ n` budget of Theorem 4.1.
    pub scratch: ScratchReport,
}

/// Sort `keys` with the write-efficient incremental BST sort.
///
/// `seed` drives the random insertion order the analysis requires; the output
/// is the same for every seed (it is just `keys`, sorted).
pub fn incremental_sort<K: Ord + Copy + Send + Sync>(keys: &[K], seed: u64) -> Vec<K> {
    incremental_sort_with_stats(keys, seed).0
}

/// [`incremental_sort`] plus execution statistics.
pub fn incremental_sort_with_stats<K: Ord + Copy + Send + Sync>(
    keys: &[K],
    seed: u64,
) -> (Vec<K>, IncrementalSortStats) {
    incremental_sort_impl(keys, seed, None)
}

/// The depth-improved variant of Theorem 4.1: within each incremental round a
/// bucket only inserts up to `bucket_cap` keys; the rest are deferred to one
/// final clean-up round that inserts them with the plain algorithm.
///
/// With `bucket_cap = Θ(log log n)` the paper shows the deferred work is
/// `o(n)` and the depth drops to `O(log² n)` whp.
pub fn incremental_sort_bounded_buckets<K: Ord + Copy + Send + Sync>(
    keys: &[K],
    seed: u64,
    bucket_cap: usize,
) -> (Vec<K>, IncrementalSortStats) {
    incremental_sort_impl(keys, seed, Some(bucket_cap.max(1)))
}

fn incremental_sort_impl<K: Ord + Copy + Send + Sync>(
    keys: &[K],
    seed: u64,
    bucket_cap: Option<usize>,
) -> (Vec<K>, IncrementalSortStats) {
    let n = keys.len();
    if n == 0 {
        return (Vec::new(), IncrementalSortStats::default());
    }

    // The analysis requires a uniformly random insertion order.
    let perm = random_permutation(n, seed);
    let ordered: Vec<K> = perm.iter().map(|&i| keys[i]).collect();
    record_writes(n as u64);

    let schedule = prefix_doubling_rounds(n, 2);
    let mut tree: Bst<K> = Bst::with_capacity(n);
    let ledger = SmallMem::logarithmic(n, SORT_SCRATCH_C);
    let mut stats = IncrementalSortStats {
        rounds: schedule.rounds().len(),
        ..Default::default()
    };
    let mut deferred: Vec<K> = Vec::new();

    for round in schedule.rounds() {
        let batch = &ordered[round.start..round.end];
        if round.is_initial() {
            // Plain sequential Algorithm 1 on the small prefix.  The insert
            // walk holds O(1) registers (current node, visit counter).
            let mut scratch = TaskScratch::new(&ledger);
            scratch.alloc(2);
            let mut max_depth = 0u64;
            for &k in batch {
                max_depth = max_depth.max(tree.insert(k));
            }
            depth::add(max_depth);
            continue;
        }

        // Step 1 (reads only): locate, in parallel, the empty slot of the
        // current tree each key of the batch belongs to.  `tree` is shared
        // read-only across real worker threads here (the `Bst` arena has no
        // interior mutability); all mutation happens in the sequential
        // splice loop below, after the semisort has produced its
        // deterministic, min-input-index-ordered groups — so the arena
        // layout is identical at every thread count.
        let locate_depth = RoundDepth::new();
        let located: Vec<(Slot, K)> = batch
            .par_iter()
            .map(|&k| {
                // Each locate task holds O(1) words of path registers.
                let mut scratch = TaskScratch::new(&ledger);
                scratch.alloc(2);
                let (slot, visited) = tree.locate(k);
                locate_depth.record(visited);
                (slot, k)
            })
            .collect();
        locate_depth.commit();

        // Step 2: group the keys by destination slot (semisort — expected
        // linear reads/writes, polylog depth).
        let groups = semisort_by_key(&located, |(slot, _)| *slot);

        // Step 3: each bucket builds its subtree independently.  Buckets hang
        // from distinct empty slots, so they are independent; we build each
        // bucket's subtree locally (charging its real reads/writes) and then
        // splice the node block into the shared arena.
        let bucket_depth = RoundDepth::new();
        let built: Vec<(Slot, Bst<K>, Vec<K>)> = groups
            .par_iter()
            .map(|g| {
                // Per-bucket task scratch: insert-walk registers plus one
                // word per deferred key (buckets are O(log n) whp, so the
                // overflow list fits the logarithmic budget).
                let mut scratch = TaskScratch::new(&ledger);
                scratch.alloc(2);
                let mut local: Bst<K> = Bst::with_capacity(g.items.len());
                let mut overflow = Vec::new();
                for (i, (_, k)) in g.items.iter().enumerate() {
                    match bucket_cap {
                        Some(cap) if i >= cap => {
                            overflow.push(*k);
                            scratch.alloc(1);
                        }
                        _ => {
                            local.insert(*k);
                        }
                    }
                }
                bucket_depth.record(local.len() as u64);
                (g.key, local, overflow)
            })
            .collect();
        bucket_depth.commit();

        for (slot, local, overflow) in built {
            stats.max_bucket = stats.max_bucket.max(local.len() + overflow.len());
            splice(&mut tree, slot, &local);
            deferred.extend(overflow);
        }
    }

    // Clean-up round for the bounded-bucket variant: insert the deferred keys
    // with the plain (write-inefficient) algorithm.  The paper shows the
    // expected amount of such work is o(n).
    stats.deferred = deferred.len();
    if !deferred.is_empty() {
        let mut scratch = TaskScratch::new(&ledger);
        scratch.alloc(2);
        let mut max_depth = 0u64;
        for &k in &deferred {
            max_depth = max_depth.max(tree.insert(k));
        }
        depth::add(max_depth);
    }

    stats.tree_height = tree.height();
    depth::add(depth::log2_ceil(n)); // final output traversal
    let out = tree.in_order_scratch(&mut TaskScratch::new(&ledger));
    stats.scratch = ledger.report();
    (out, stats)
}

/// Splice a locally-built bucket subtree into the main arena under `slot`.
///
/// The bucket's reads/writes were charged while it was built; the splice
/// itself only relinks indices (a bulk copy in the model's terms was already
/// paid for by the local construction), plus one write for the parent link.
fn splice<K: Ord + Copy>(tree: &mut Bst<K>, slot: Slot, local: &Bst<K>) {
    if local.is_empty() {
        return;
    }
    let offset = tree.len();
    let remap = |idx: usize| if idx == EMPTY { EMPTY } else { idx + offset };
    // Copy the local nodes into the arena with remapped child indices.  The
    // model cost of materialising these nodes was recorded by the local
    // build, so the splice does not double-charge.
    {
        let nodes = tree.nodes_mut_untracked();
        for node in local.nodes() {
            let mut copy = *node;
            copy.left = remap(copy.left);
            copy.right = remap(copy.right);
            nodes.push(copy);
        }
    }
    let local_root = remap(local.root());
    record_writes(1);
    tree.link_child(slot, local_root);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use pwe_asym::cost::{measure, Omega};
    use rand::Rng;
    use rand::SeedableRng;

    #[test]
    fn sorts_small_inputs() {
        for n in [0usize, 1, 2, 3, 10, 100, 1000] {
            let keys: Vec<u64> = (0..n as u64).rev().collect();
            let sorted = incremental_sort(&keys, 7);
            assert_eq!(sorted, (0..n as u64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn sorts_with_duplicates() {
        let keys = vec![5u32, 1, 5, 5, 2, 2, 9, 0, 0, 5];
        let mut expected = keys.clone();
        expected.sort_unstable();
        assert_eq!(incremental_sort(&keys, 3), expected);
    }

    #[test]
    fn sorts_random_large_input_and_reports_stats() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let keys: Vec<u64> = (0..50_000).map(|_| rng.gen()).collect();
        let (sorted, stats) = incremental_sort_with_stats(&keys, 5);
        let mut expected = keys.clone();
        expected.sort_unstable();
        assert_eq!(sorted, expected);
        assert!(
            stats.rounds >= 2,
            "expected multiple prefix-doubling rounds"
        );
        // Random BST height is ~4.3 log2(n) in expectation; allow slack.
        assert!(
            stats.tree_height < 120,
            "tree height {} unexpectedly large",
            stats.tree_height
        );
        assert_eq!(stats.deferred, 0);
    }

    #[test]
    fn bounded_bucket_variant_sorts_and_defers_little() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let keys: Vec<u64> = (0..30_000).map(|_| rng.gen()).collect();
        let cap = (30_000f64).ln().ln().ceil() as usize * 3; // Θ(log log n)
        let (sorted, stats) = incremental_sort_bounded_buckets(&keys, 5, cap);
        let mut expected = keys.clone();
        expected.sort_unstable();
        assert_eq!(sorted, expected);
        // The deferred fraction should be a small o(n) tail.
        assert!(
            stats.deferred < keys.len() / 10,
            "too many deferred keys: {}",
            stats.deferred
        );
    }

    #[test]
    fn writes_are_linear_reads_are_superlinear() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let n = 40_000usize;
        let keys: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
        let (_, report) = measure(Omega::new(10), || incremental_sort(&keys, 1));
        let wpe = report.writes_per_element(n);
        let rpe = report.reads_per_element(n);
        assert!(
            wpe < 15.0,
            "writes per element should be a small constant, got {wpe:.2}"
        );
        assert!(
            rpe > wpe,
            "reads per element ({rpe:.2}) should exceed writes per element ({wpe:.2})"
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let keys: Vec<u32> = (0u32..5000)
            .map(|i| i.wrapping_mul(2_654_435_761) >> 7)
            .collect();
        assert_eq!(incremental_sort(&keys, 9), incremental_sort(&keys, 9));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_matches_std_sort(keys in proptest::collection::vec(any::<i64>(), 0..3000), seed in 0u64..1000) {
            let sorted = incremental_sort(&keys, seed);
            let mut expected = keys.clone();
            expected.sort_unstable();
            prop_assert_eq!(sorted, expected);
        }

        #[test]
        fn prop_bounded_matches_std_sort(keys in proptest::collection::vec(any::<u32>(), 0..2000), cap in 1usize..8) {
            let (sorted, _) = incremental_sort_bounded_buckets(&keys, 1, cap);
            let mut expected = keys.clone();
            expected.sort_unstable();
            prop_assert_eq!(sorted, expected);
        }
    }
}
