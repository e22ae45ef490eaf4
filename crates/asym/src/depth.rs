//! Structural depth (span) accounting.
//!
//! The depth of a nested-parallel computation is the length of the longest
//! chain of sequentially-dependent operations.  Measuring the true span of an
//! arbitrary fork-join program automatically is intrusive; instead the
//! algorithms in this workspace record their depth *structurally*, which is
//! both faithful to how the paper's analyses are written and easy to audit:
//!
//! * a sequential round contributes its own depth via [`add`] (the
//!   canonical example is the Delaunay engine's bulk-synchronous
//!   reserve-and-commit rounds: each round adds `1` for the dependence-DAG
//!   level plus the log of the *widest* cavity retriangulated in the round —
//!   the per-winner chains inside a round compose by max, not by sum, even
//!   though the rounds themselves compose sequentially);
//! * a parallel-for over items, where each item performs a variable-length
//!   chain of dependent operations (for instance tracing a point down the
//!   history DAG), contributes the **maximum** chain length over the items.
//!   [`RoundDepth`] collects that maximum with a relaxed atomic and commits
//!   it with one [`add`].  When the per-item chain lengths are a
//!   deterministic function of the round's data (as in the engine), the max
//!   can equivalently be folded while the round's results are consumed —
//!   either way the committed value is schedule-independent.
//!
//! [`add`] is a plain add into this thread's pending depth, which belongs to
//! the task running on the thread exactly like the pending read/write counts
//! of [`crate::counters`]: [`crate::cost::measure`] collects it into its
//! frame, so a [`crate::cost::CostReport`] carries the total depth of the
//! measured region (sequential composition adds; parallel composition
//! inside a round takes a max through `RoundDepth`).
//!
//! ## Composing over `join`
//!
//! Fork-join branches compose in parallel: the span of
//! `par_join(a, b)` is `max(span(a), span(b))`, not their sum.  Since the
//! pool behind `rayon` executes branches on real threads, summing every
//! branch's [`add`] calls would report the *work-series* depth, not the
//! span.  Instead, [`with_span`] runs a closure under a fresh span scope
//! that captures the closure's `add` calls; `pwe_asym::parallel::par_join`
//! measures both branches this way and adds only the maximum to the
//! enclosing scope.  Scopes follow the task, not the thread: a stolen arm
//! runs with its own pending depth (the cost frame's task hooks, see
//! [`crate::cost`]), so depth recorded by an unrelated task a waiting thread
//! picks up never leaks into the waiter's span.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    /// This thread's pending depth: the innermost span scope's running sum.
    static PENDING: Cell<u64> = const { Cell::new(0) };
}

/// Add `d` units of depth for a sequentially-composed phase or round.
///
/// Inside a [`with_span`] scope (i.e. inside a `par_join` branch) the units
/// accumulate into that branch's span; otherwise into the enclosing
/// [`crate::cost::measure`] frame.
#[inline]
pub fn add(d: u64) {
    PENDING.set(PENDING.get() + d);
}

/// Replace this thread's pending depth, returning the old value.
pub(crate) fn swap_pending(d: u64) -> u64 {
    PENDING.replace(d)
}

/// Run `f` under a fresh span scope, returning its result and the depth it
/// recorded (via [`add`], nested `par_join`s included).  The captured depth
/// is **not** committed anywhere — the caller composes it (a `par_join`
/// takes the max over its two branches) and re-[`add`]s the combined value.
pub fn with_span<R>(f: impl FnOnce() -> R) -> (R, u64) {
    crate::cost::install_task_hooks();
    struct Restore(u64);
    impl Drop for Restore {
        fn drop(&mut self) {
            PENDING.set(self.0);
        }
    }
    let restore = Restore(PENDING.replace(0));
    let result = f();
    let span = PENDING.get();
    drop(restore);
    (result, span)
}

/// Ceiling of `log2(n)` for `n ≥ 1`; `0` for `n ∈ {0, 1}`.
///
/// A convenient unit for phases whose depth is logarithmic in their size
/// (parallel reductions, scans, semisort rounds, balanced-tree builds).
#[inline]
pub fn log2_ceil(n: usize) -> u64 {
    if n <= 1 {
        0
    } else {
        (usize::BITS - (n - 1).leading_zeros()) as u64
    }
}

/// Collects the maximum per-item chain length within one parallel round.
///
/// Typical use: a parallel-for where every item walks a root-to-leaf path of
/// some search structure.  Each item records the length of its own path; the
/// depth contributed by the whole round is the longest such path, committed
/// once the round finishes.
#[derive(Debug, Default)]
pub struct RoundDepth {
    max: AtomicU64,
}

impl RoundDepth {
    /// Start collecting a new round.
    pub fn new() -> Self {
        RoundDepth {
            max: AtomicU64::new(0),
        }
    }

    /// Record the chain length of one item in the round (thread-safe).
    #[inline]
    pub fn record(&self, d: u64) {
        self.max.fetch_max(d, Ordering::Relaxed);
    }

    /// The maximum recorded so far.
    pub fn current_max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Commit the round's depth (its maximum chain) with [`add`] and return
    /// it.
    pub fn commit(self) -> u64 {
        let d = self.max.load(Ordering::Relaxed);
        add(d);
        d
    }
}

/// A named depth tracker for algorithms that want to both [`add`] their
/// depth and report a per-phase breakdown.
#[derive(Debug, Default, Clone)]
pub struct DepthTracker {
    phases: Vec<(String, u64)>,
}

impl DepthTracker {
    /// Create an empty tracker.
    pub fn new() -> Self {
        DepthTracker { phases: Vec::new() }
    }

    /// Record a phase: [`add`]s `depth` and remembers the per-phase value
    /// under `name`.
    pub fn phase(&mut self, name: &str, depth: u64) {
        add(depth);
        self.phases.push((name.to_string(), depth));
    }

    /// Total depth across recorded phases.
    pub fn total(&self) -> u64 {
        self.phases.iter().map(|(_, d)| *d).sum()
    }

    /// Per-phase breakdown.
    pub fn phases(&self) -> &[(String, u64)] {
        &self.phases
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{measure, Omega};

    #[test]
    fn log2_ceil_matches_reference() {
        assert_eq!(log2_ceil(0), 0);
        assert_eq!(log2_ceil(1), 0);
        assert_eq!(log2_ceil(2), 1);
        assert_eq!(log2_ceil(3), 2);
        assert_eq!(log2_ceil(4), 2);
        assert_eq!(log2_ceil(5), 3);
        assert_eq!(log2_ceil(1024), 10);
        assert_eq!(log2_ceil(1025), 11);
    }

    #[test]
    fn round_depth_takes_max() {
        let round = RoundDepth::new();
        round.record(3);
        round.record(10);
        round.record(7);
        assert_eq!(round.current_max(), 10);
        let (committed, report) = measure(Omega::default(), || round.commit());
        assert_eq!(committed, 10);
        assert_eq!(report.depth, 10);
    }

    #[test]
    fn tracker_accumulates_phases() {
        let mut t = DepthTracker::new();
        let ((), report) = measure(Omega::default(), || {
            t.phase("sort", 12);
            t.phase("build", 8);
        });
        assert_eq!(t.total(), 20);
        assert_eq!(t.phases().len(), 2);
        assert_eq!(report.depth, 20);
    }

    #[test]
    fn add_zero_is_noop_but_monotone() {
        let ((), report) = measure(Omega::default(), || add(0));
        assert_eq!(report.depth, 0);
    }

    #[test]
    fn span_scope_captures_adds_without_touching_global() {
        let (((), span), report) = measure(Omega::default(), || {
            with_span(|| {
                add(3);
                add(4);
            })
        });
        assert_eq!(span, 7);
        assert_eq!(report.depth, 0, "a returned span is not committed");
    }

    #[test]
    fn span_scopes_nest() {
        let ((), outer) = with_span(|| {
            add(1);
            let ((), inner) = with_span(|| add(10));
            assert_eq!(inner, 10);
            // The inner span was *returned*, not auto-committed; compose by
            // hand like par_join does.
            add(inner);
        });
        assert_eq!(outer, 11);
    }
}
