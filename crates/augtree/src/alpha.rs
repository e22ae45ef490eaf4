//! The α-labeling rule (Section 7.3.1).
//!
//! After a (sub)tree is constructed, a node is marked **critical** when its
//! subtree weight `w` satisfies, for some integer `i ≥ 0`, either
//! `2αⁱ ≤ w ≤ 4αⁱ − 2`, or `w = 2αⁱ − 1` while its sibling's weight is
//! `2αⁱ` (the second clause only matters for odd splits; the trees in this
//! crate use the first clause plus "leaves and the root are always
//! critical", which preserves every property the analysis needs: critical
//! parents and children differ in weight by a factor between `α/2` and
//! `2α + 1` — Lemma 7.1 — so a root-to-leaf path holds `O(log_α n)` critical
//! nodes and `O(α log_α n)` nodes in total — Corollary 7.2).

use pwe_asym::counters::record_reads;

/// Whether a node of subtree weight `weight` is critical for parameter `α`.
///
/// The weight convention follows the paper: the weight of a subtree is the
/// number of nodes in it plus one, so a leaf has weight 2 (and is therefore
/// always critical: `2α⁰ = 2 ≤ 2 ≤ 4α⁰ − 2 = 2`).
pub fn is_critical_weight(weight: usize, alpha: usize) -> bool {
    record_reads(1);
    is_critical_weight_uncharged(weight, alpha)
}

/// [`is_critical_weight`] without the model charge — used by the parallel
/// build engine's arena-sizing pre-pass, which is pure index arithmetic (the
/// same predicate is charged exactly once per node when the node's balance
/// information is actually written).
pub(crate) fn is_critical_weight_uncharged(weight: usize, alpha: usize) -> bool {
    debug_assert!(alpha >= 2, "α must be at least 2");
    let mut bound = 1usize; // α^i
    loop {
        let lo = 2 * bound;
        let hi = 4 * bound - 2;
        if weight < lo {
            return false;
        }
        if weight <= hi {
            return true;
        }
        match bound.checked_mul(alpha) {
            Some(next) => bound = next,
            None => return false,
        }
    }
}

/// The optimal α for an interval or priority search tree given the write
/// asymmetry ω and the update-to-query ratio `r` (Section 7: `min(2 + ω/r, ω)`,
/// clamped to at least 2).
pub fn optimal_alpha(omega: u64, update_query_ratio: f64) -> usize {
    assert!(update_query_ratio > 0.0, "ratio must be positive");
    let candidate = 2.0 + omega as f64 / update_query_ratio;
    let alpha = candidate.min(omega as f64).max(2.0);
    alpha.round() as usize
}

/// The optimal α for a 2D range tree: `2 + min(ω/r, ω)/log₂ n`.
pub fn optimal_alpha_range_tree(omega: u64, update_query_ratio: f64, n: usize) -> usize {
    assert!(update_query_ratio > 0.0, "ratio must be positive");
    let log_n = (n.max(2) as f64).log2();
    let alpha = 2.0 + (omega as f64 / update_query_ratio).min(omega as f64) / log_n;
    (alpha.round() as usize).max(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaves_are_always_critical() {
        let _g = crate::counter_guard();
        for alpha in [2usize, 4, 8, 16, 40] {
            assert!(
                is_critical_weight(2, alpha),
                "leaf weight 2 must be critical for α={alpha}"
            );
        }
    }

    #[test]
    fn windows_match_the_definition_for_alpha_2() {
        let _g = crate::counter_guard();
        // α = 2: windows are [2,2], [4,6], [8,14], [16,30], ...
        let critical: Vec<usize> = (1..40).filter(|&w| is_critical_weight(w, 2)).collect();
        assert_eq!(
            critical,
            vec![
                2, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26,
                27, 28, 29, 30, 32, 33, 34, 35, 36, 37, 38, 39
            ]
        );
    }

    #[test]
    fn larger_alpha_marks_fewer_weights() {
        let _g = crate::counter_guard();
        let count = |alpha: usize| {
            (2..10_000)
                .filter(|&w| is_critical_weight(w, alpha))
                .count()
        };
        assert!(count(8) < count(4));
        assert!(count(4) < count(2));
    }

    #[test]
    fn window_structure_for_alpha_4() {
        let _g = crate::counter_guard();
        // α = 4: [2,2], [8,14], [32,62], [128,254], ...
        assert!(is_critical_weight(8, 4));
        assert!(is_critical_weight(14, 4));
        assert!(!is_critical_weight(7, 4));
        assert!(!is_critical_weight(15, 4));
        assert!(is_critical_weight(32, 4));
        assert!(!is_critical_weight(63, 4));
    }

    #[test]
    fn optimal_alpha_formulae() {
        // r = 1 (as many updates as queries): α = min(2 + ω, ω) = ω for ω ≥ 3.
        assert_eq!(optimal_alpha(10, 1.0), 10);
        // Query-heavy workloads push α down toward 2.
        assert_eq!(optimal_alpha(10, 100.0), 2);
        // Update-heavy workloads cap at ω.
        assert_eq!(optimal_alpha(40, 0.5), 40);
        // Range tree optimum is much closer to 2 because queries touch log n
        // inner trees.
        assert!(optimal_alpha_range_tree(40, 1.0, 1 << 20) <= 4);
        assert!(optimal_alpha_range_tree(2, 10.0, 1 << 20) >= 2);
    }

    #[test]
    #[should_panic]
    fn zero_ratio_rejected() {
        optimal_alpha(10, 0.0);
    }
}
