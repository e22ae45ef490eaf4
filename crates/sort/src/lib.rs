//! # pwe-sort — write-efficient comparison sorting
//!
//! Section 4 of the paper derives a comparison sort that, for a randomly
//! ordered input of `n` keys, runs in `O(n log n + ωn)` expected work —
//! i.e. `Θ(n log n)` reads but only `O(n)` writes — and `O(log² n)` depth
//! (Theorem 4.1).  The algorithm is the incremental binary-search-tree sort
//! of Algorithm 1, made write-efficient with the two techniques of Section 3:
//!
//! 1. **Prefix doubling** — the keys are inserted in `O(log log n)` rounds;
//!    the initial round builds a BST over the first `n / log² n` keys with
//!    the plain algorithm, and each later round doubles the number of keys.
//! 2. **DAG tracing** — within a round, every new key first *searches* the
//!    current tree (reads only) for the empty slot it will hang from; the
//!    keys are then grouped by slot with a semisort and each group builds its
//!    subtree independently, so writes are only incurred for the nodes
//!    actually created.
//!
//! Modules: [`bst`] (the unbalanced arena BST of Algorithm 1),
//! [`incremental`] (§4 / Theorem 4.1, the prefix-doubling sort),
//! [`mergesort`] (the `Θ(n log n)`-write baseline the experiments compare
//! against), [`verify`] (output oracles).  Both sorts charge their per-task
//! scratch — locate registers, bucket bookkeeping, the traversal stack —
//! to a `c·log₂ n`-word small-memory ledger (`crates/sort/tests/small_memory.rs`
//! pins the budgets).
//!
//! ```
//! use pwe_sort::{incremental_sort, merge_sort_baseline};
//! use pwe_asym::cost::{measure, Omega};
//!
//! let keys: Vec<u64> = (0..1000).rev().collect();
//! let (sorted, _) = measure(Omega::new(10), || incremental_sort(&keys, 42));
//! assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
//! assert_eq!(sorted, merge_sort_baseline(&keys));
//! ```

pub mod bst;
pub mod incremental;
pub mod mergesort;
pub mod verify;

pub use incremental::{
    incremental_sort, incremental_sort_with_stats, IncrementalSortStats, SORT_SCRATCH_C,
};
pub use mergesort::{merge_sort_baseline, merge_sort_baseline_with_scratch, MERGESORT_SCRATCH_C};
pub use verify::{is_sorted, same_multiset};

/// Serializes this crate's unit tests that run instrumented code: cost
/// assertions difference the process-global ARAM counters, so no other
/// test may charge them concurrently.
#[cfg(test)]
pub(crate) fn counter_guard() -> std::sync::MutexGuard<'static, ()> {
    static COUNTER_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}
