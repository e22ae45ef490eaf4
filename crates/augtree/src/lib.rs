//! # pwe-augtree — write-efficient augmented trees
//!
//! Section 7 of the paper builds augmented search trees — interval trees,
//! priority search trees and 2D range trees — that are write-efficient both
//! at construction time and under dynamic updates:
//!
//! * **Post-sorted construction** (Section 7.2): after the input is sorted
//!   (which itself needs only linear writes, Section 4), an interval tree or
//!   a priority search tree can be built with `O(n)` further reads and
//!   writes, instead of the `Θ(n log n)` writes of the textbook
//!   constructions.  A 2D range tree occupies `Θ(n log n)` words, so its
//!   construction writes cannot be reduced below that; with α-labeling the
//!   inner trees are kept only on critical nodes, giving `O(n log_α n)`
//!   construction writes.
//! * **α-labeling + reconstruction-based rebalancing** (Section 7.3): only a
//!   sub-set of *critical* nodes — those whose subtree weight falls in a
//!   window `[2αⁱ, 4αⁱ−2]` — carry balance information (and, for the range
//!   tree, inner trees).  An update touches `O(log_α n)` critical nodes
//!   instead of `O(log n)` nodes, cutting the writes per update by a
//!   `Θ(log α)` factor at the price of up to `α×` more reads; imbalance is
//!   repaired by rebuilding the offending subtree with the post-sorted
//!   construction (Table 1, Theorems 7.3 / 7.4).
//!
//! Modules: [`alpha`] (the §7.3.1 labeling rule and the optimal-α formula),
//! [`engine`] (the shared parallel allocation-lean construction engine:
//! pre-sized arenas with arithmetically computable subtree index ranges,
//! fork-join recursion over disjoint `&mut` regions, and the k-way run
//! merge behind the range tree's packed augmentation), [`interval`] (§7.2
//! interval tree, 1D stabbing queries), [`priority`] (§7.2 priority search
//! tree, 3-sided queries), [`range_tree`] (§7.2–7.3 2D range tree,
//! orthogonal range queries).  Every query has a walk-order `*_into`
//! reporter charging its root-to-leaf frames to a small-memory ledger
//! against the [`QUERY_SCRATCH_C`]`·log₂ n` budget of Theorem 7.1; the parallel builds
//! charge their forked recursion the same way against
//! [`engine::build_scratch_budget`] /
//! [`engine::range_build_scratch_budget`].

pub mod alpha;
pub mod engine;
pub mod interval;
pub mod priority;
pub mod range_tree;

/// Small-memory budget constant for the query paths: a query task's scratch
/// is its root-to-leaf path (one word per frame), `O(log n)` on the
/// post-sorted balanced trees of Section 7.2, so `6·log₂ n` words bounds it
/// with slack (asserted by the `small_memory_*` tests in
/// `tests/small_memory.rs`; the range tree gets an extra `O(α)` term for the
/// critical-descendant descent of Corollary 7.1).
pub const QUERY_SCRATCH_C: u64 = 6;

/// Serializes this crate's unit tests that run instrumented code: cost
/// assertions difference the process-global ARAM counters, so no other
/// test may charge them concurrently.
#[cfg(test)]
pub(crate) fn counter_guard() -> std::sync::MutexGuard<'static, ()> {
    static COUNTER_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

pub use alpha::{is_critical_weight, optimal_alpha};
pub use engine::{
    build_scratch_budget, range_build_scratch_budget, AugBuildStats, BUILD_SCRATCH_C,
};
pub use interval::IntervalTree;
pub use priority::PrioritySearchTree;
pub use range_tree::RangeTree2D;
