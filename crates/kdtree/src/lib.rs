//! # pwe-kdtree — write-efficient k-d trees
//!
//! Section 6 of the paper shows how to build a k-d tree over `n` points in
//! `k` dimensions with `O(n log n + ωn)` expected work — `O(n)` writes —
//! and `O(log² n)` depth, while preserving the query bounds of the classic
//! median-split tree (`O(n^{(k-1)/k})` for axis-aligned range queries and
//! `log n · O(1/ε)^k` for (1+ε)-approximate nearest neighbours under the
//! bounded-aspect-ratio assumption).
//!
//! The construction is the **p-batched incremental construction**: points are
//! inserted in prefix-doubling rounds; each leaf buffers up to `p` points and
//! is *settled* (split at the median of its buffered sample) only when the
//! buffer overflows.  Choosing `p = Ω(log³ n)` makes the sampled medians
//! accurate enough that the tree height stays `log₂ n + O(1)` whp
//! (Lemma 6.2), which is exactly what the range-query bound needs; choosing
//! `p = Ω(log n)` suffices for ANN queries.
//!
//! The crate contains:
//!
//! * [`tree::KdTree`] — the tree structure shared by all builders, with
//!   range, nearest-neighbour and (1+ε)-ANN queries, each one walk over the
//!   node arena (no cache-blocked copy: see the [`tree`] module doc);
//! * [`build`] — the classic `O(n log n)`-write median-split construction
//!   (the baseline) and the p-batched write-efficient construction; both
//!   charge their per-task scratch to a small-memory ledger — the classic
//!   build against the model's `O(log n)` default, the p-batched build
//!   against the `Ω(p)` exception Section 6.1 states (its settle/flush
//!   buffers are split inside symmetric memory);
//! * [`dynamic`] — dynamic updates: deletion by marking with full rebuilds,
//!   the logarithmic-reconstruction insertion method, and the single-tree
//!   reconstruction-based rebalancing variant (Section 6.2).

pub mod build;
pub mod dynamic;
pub mod tree;

/// Serializes this crate's unit tests that run instrumented code: cost
/// assertions difference the process-global ARAM counters, so no other
/// test may charge them concurrently.
#[cfg(test)]
pub(crate) fn counter_guard() -> std::sync::MutexGuard<'static, ()> {
    static COUNTER_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

pub use build::{
    build_classic, build_p_batched, p_batched_scratch_budget, recommended_p, BuildStats,
    CLASSIC_SCRATCH_C,
};
pub use dynamic::{DynamicKdTree, LogarithmicKdForest};
pub use tree::KdTree;
