//! Thin fork-join helpers over rayon.
//!
//! The Asymmetric NP model's execution statement (Section 2.1 of the paper)
//! is that a computation of work `W` and depth `D` runs in `W/p + O(pD)`
//! expected time under a work-stealing scheduler — which is what the
//! vendored rayon provides since its work-stealing pool landed.  These
//! wrappers exist so that algorithm crates have a single, small surface for
//! parallelism (handy for auditing the fork-join structure, and for the
//! instrumentation below), and so that [`par_join`] can make the depth
//! ledger compose over forks: each branch's [`crate::depth::add`] calls are
//! captured in a span scope and only the **maximum** of the two branch
//! spans is committed, because branches run concurrently — summing them
//! would misreport the span once execution is actually parallel.

use crate::depth;
use rayon::prelude::*;

/// Binary fork-join: run `a` and `b` in parallel and return both results.
///
/// This is the FORK instruction of the nested-parallel model with `n' = 2`.
/// Depth recorded inside the branches composes as `max(span(a), span(b))`
/// (the fork/join overhead itself is `O(1)` and is left to the callers'
/// structural accounting, as before).
#[inline]
pub fn par_join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    depth::install_rayon_task_hooks();
    let ((ra, span_a), (rb, span_b)) = rayon::join(|| depth::with_span(a), || depth::with_span(b));
    depth::add(span_a.max(span_b));
    (ra, rb)
}

/// Parallel for over an index range, calling `f(i)` for each `i` in `0..n`.
#[inline]
pub fn par_for_each<F>(n: usize, f: F)
where
    F: Fn(usize) + Send + Sync,
{
    (0..n).into_par_iter().for_each(f);
}

/// Parallel map over an index range, collecting results in index order.
#[inline]
pub fn par_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Send + Sync,
{
    (0..n).into_par_iter().map(f).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn join_returns_both() {
        let (a, b) = par_join(|| 1 + 1, || "x".to_string() + "y");
        assert_eq!(a, 2);
        assert_eq!(b, "xy");
    }

    #[test]
    fn for_each_visits_every_index() {
        let hits = AtomicU64::new(0);
        par_for_each(1000, |i| {
            hits.fetch_add(i as u64 + 1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1000 * 1001 / 2);
    }

    #[test]
    fn map_preserves_order() {
        let v = par_map(100, |i| i * i);
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i * i);
        }
    }

    #[test]
    fn join_composes_depth_as_max_not_sum() {
        // Measuring inside a span scope keeps the assertion exact even while
        // other tests add depth concurrently from their own threads.
        let ((), span) = depth::with_span(|| {
            par_join(|| depth::add(5), || depth::add(9));
        });
        assert_eq!(span, 9, "parallel branches must compose by max");
    }

    #[test]
    fn nested_join_tree_has_logarithmic_span() {
        fn tree(levels: usize) {
            if levels == 0 {
                depth::add(1);
                return;
            }
            par_join(|| tree(levels - 1), || tree(levels - 1));
        }
        // 64 leaves each adding 1: serial composition would record 64; the
        // span of the balanced fork-join tree is the single deepest chain.
        let ((), span) = depth::with_span(|| tree(6));
        assert_eq!(span, 1);
    }

    // (The observation that join branches actually land on distinct OS
    // threads is asserted once at the vendor level — `rayon`'s
    // `join_branches_run_on_distinct_threads` — and once through `par_join`
    // in `tests/parallel_stress.rs`; no third copy here.)
}
