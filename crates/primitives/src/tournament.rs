//! Tournament tree (Appendix A of the paper).
//!
//! The write-efficient priority-search-tree construction needs three queries
//! over the x-sorted point list while points are progressively removed:
//!
//! 1. the valid element of **maximum priority** in a range (the subtree root),
//! 2. the **k-th valid** element in a range (the median among survivors),
//! 3. **deletion** of an element (the chosen root leaves a "hole").
//!
//! The paper's Appendix A shows that a tournament tree — a perfect binary
//! tree over the positions where each interior node stores the best priority
//! and the number of valid elements below it — answers all construction
//! queries in `O(n)` total reads and writes.  This implementation follows
//! that structure; the priority comparison is a *maximum* (the paper's
//! "highest priority"), and deletion only rewrites the `O(log(range))`
//! ancestors it needs to, mirroring the write-count argument in the appendix.

use pwe_asym::counters::{record_reads, record_writes};
use pwe_asym::depth;

/// A tournament (segment) tree over `n` slots, each carrying a priority.
///
/// Supports range-max-priority, range-valid-count, k-th-valid and deletion.
#[derive(Debug, Clone)]
pub struct TournamentTree<P: Ord + Copy> {
    n: usize,
    size: usize,
    /// `best[v]` = index (into the leaves) of the maximum-priority valid
    /// element in the subtree of internal node `v`, or `usize::MAX` if none.
    best: Vec<usize>,
    /// `count[v]` = number of valid leaves below `v`.
    count: Vec<usize>,
    priorities: Vec<P>,
    valid: Vec<bool>,
}

impl<P: Ord + Copy> TournamentTree<P> {
    /// Build a tournament tree over the given priorities; all slots start valid.
    ///
    /// Cost: `O(n)` reads and writes, `O(log n)` depth.
    pub fn new(priorities: &[P]) -> Self {
        let n = priorities.len();
        let size = n.next_power_of_two().max(1);
        let mut tree = TournamentTree {
            n,
            size,
            best: vec![usize::MAX; 2 * size],
            count: vec![0; 2 * size],
            priorities: priorities.to_vec(),
            valid: vec![true; n],
        };
        // Leaves.
        for i in 0..n {
            tree.best[size + i] = i;
            tree.count[size + i] = 1;
        }
        // Internal nodes, bottom-up.
        for v in (1..size).rev() {
            tree.pull(v);
        }
        record_reads(n as u64);
        record_writes(2 * size as u64);
        depth::add(depth::log2_ceil(size));
        tree
    }

    /// Number of slots (valid or not).
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the tree has no slots.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of currently valid slots.
    pub fn valid_count(&self) -> usize {
        if self.size == 0 {
            0
        } else {
            self.count[1]
        }
    }

    fn pull(&mut self, v: usize) {
        let l = 2 * v;
        let r = 2 * v + 1;
        self.count[v] = self.count[l] + self.count[r];
        self.best[v] = match (self.best[l], self.best[r]) {
            (usize::MAX, b) => b,
            (b, usize::MAX) => b,
            (a, b) => {
                if self.priorities[a] >= self.priorities[b] {
                    a
                } else {
                    b
                }
            }
        };
    }

    /// Index of the maximum-priority **valid** element in `[l, r)`, if any.
    ///
    /// Cost: `O(log(r - l))` reads, no writes.
    pub fn range_max(&self, l: usize, r: usize) -> Option<usize> {
        let r = r.min(self.n);
        if l >= r {
            return None;
        }
        let mut best: Option<usize> = None;
        let mut lo = l + self.size;
        let mut hi = r + self.size;
        let mut reads = 0u64;
        let consider = |cand: usize, best: &mut Option<usize>| {
            if cand == usize::MAX {
                return;
            }
            match best {
                None => *best = Some(cand),
                Some(b) => {
                    if self.priorities[cand] > self.priorities[*b] {
                        *best = Some(cand);
                    }
                }
            }
        };
        while lo < hi {
            if lo & 1 == 1 {
                consider(self.best[lo], &mut best);
                reads += 1;
                lo += 1;
            }
            if hi & 1 == 1 {
                hi -= 1;
                consider(self.best[hi], &mut best);
                reads += 1;
            }
            lo /= 2;
            hi /= 2;
        }
        record_reads(reads);
        best
    }

    /// Number of valid elements in `[l, r)`.
    ///
    /// Cost: `O(log(r - l))` reads, no writes.
    pub fn count_valid(&self, l: usize, r: usize) -> usize {
        let r = r.min(self.n);
        if l >= r {
            return 0;
        }
        let mut total = 0usize;
        let mut lo = l + self.size;
        let mut hi = r + self.size;
        let mut reads = 0u64;
        while lo < hi {
            if lo & 1 == 1 {
                total += self.count[lo];
                reads += 1;
                lo += 1;
            }
            if hi & 1 == 1 {
                hi -= 1;
                total += self.count[hi];
                reads += 1;
            }
            lo /= 2;
            hi /= 2;
        }
        record_reads(reads);
        total
    }

    /// Index of the `k`-th (0-based) valid element in `[l, r)`, if it exists.
    ///
    /// Cost: `O(log n)` reads, no writes.
    pub fn kth_valid(&self, l: usize, r: usize, k: usize) -> Option<usize> {
        let r = r.min(self.n);
        if l >= r || k >= self.count_valid(l, r) {
            return None;
        }
        // Walk down from the root, discarding subtrees fully outside [l, r)
        // and skipping over left children when k exceeds their contribution.
        let mut k = k;
        let mut v = 1usize;
        let mut node_l = 0usize;
        let mut node_r = self.size;
        let mut reads = 0u64;
        while v < self.size {
            let mid = (node_l + node_r) / 2;
            let left = 2 * v;
            // Valid elements of the left child that fall inside [l, r).
            let left_contrib = if r <= node_l || l >= mid {
                0
            } else if l <= node_l && mid <= r {
                self.count[left]
            } else {
                self.count_valid(l.max(node_l), r.min(mid))
            };
            reads += 1;
            if k < left_contrib {
                v = left;
                node_r = mid;
            } else {
                k -= left_contrib;
                v = left + 1;
                node_l = mid;
            }
        }
        record_reads(reads);
        let idx = v - self.size;
        debug_assert!(idx < self.n && self.valid[idx]);
        Some(idx)
    }

    /// The priority stored at slot `i`.
    pub fn priority(&self, i: usize) -> P {
        self.priorities[i]
    }

    /// Whether slot `i` is still valid.
    pub fn is_valid(&self, i: usize) -> bool {
        self.valid[i]
    }

    /// Mark slot `i` invalid and update its ancestors.
    ///
    /// Cost: `O(log n)` reads and writes.
    pub fn delete(&mut self, i: usize) {
        // Scope the update to the whole (padded) tree so every ancestor,
        // including the root, is refreshed.
        self.delete_scoped(i, 0, self.size);
    }

    /// Mark slot `i` invalid, updating only the ancestors whose range is
    /// fully contained in `[lo, hi)`.
    ///
    /// This is the write-saving trick of Appendix A: during the priority-tree
    /// construction every later query is either entirely within the current
    /// construction range or disjoint from it, so the ancestors that span
    /// beyond the range never need their summaries refreshed.  Summed over a
    /// whole construction the writes are `O(n)` instead of `O(n log n)`.
    pub fn delete_scoped(&mut self, i: usize, lo: usize, hi: usize) {
        assert!(i < self.n, "delete index {i} out of bounds {}", self.n);
        debug_assert!(lo <= i && i < hi, "scope [{lo},{hi}) must contain {i}");
        if !self.valid[i] {
            return;
        }
        self.valid[i] = false;
        let mut v = i + self.size;
        self.best[v] = usize::MAX;
        self.count[v] = 0;
        let mut writes = 2u64;
        // Range covered by the current ancestor, in leaf coordinates.
        let mut node_lo = i;
        let mut node_hi = i + 1;
        v /= 2;
        while v >= 1 {
            // The parent of a node covering [node_lo, node_hi) covers the
            // aligned range of twice the length.
            let len = node_hi - node_lo;
            node_lo -= node_lo % (2 * len);
            node_hi = node_lo + 2 * len;
            if node_lo < lo || node_hi > hi {
                break;
            }
            self.pull(v);
            writes += 2;
            if v == 1 {
                break;
            }
            v /= 2;
        }
        record_writes(writes);
        record_reads(writes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn brute_max(p: &[u64], valid: &[bool], l: usize, r: usize) -> Option<usize> {
        (l..r.min(p.len()))
            .filter(|&i| valid[i])
            .max_by_key(|&i| (p[i], std::cmp::Reverse(i)))
    }

    #[test]
    fn basic_queries() {
        let _g = crate::counter_guard();
        let pri = vec![5u64, 1, 9, 3, 7, 2, 8, 6];
        let t = TournamentTree::new(&pri);
        assert_eq!(t.valid_count(), 8);
        assert_eq!(t.range_max(0, 8), Some(2));
        assert_eq!(t.range_max(3, 6), Some(4));
        assert_eq!(t.count_valid(0, 8), 8);
        assert_eq!(t.kth_valid(0, 8, 0), Some(0));
        assert_eq!(t.kth_valid(0, 8, 7), Some(7));
        assert_eq!(t.kth_valid(2, 5, 1), Some(3));
    }

    #[test]
    fn deletion_updates_queries() {
        let _g = crate::counter_guard();
        let pri = vec![5u64, 1, 9, 3, 7, 2, 8, 6];
        let mut t = TournamentTree::new(&pri);
        t.delete(2);
        assert_eq!(t.range_max(0, 8), Some(6));
        assert_eq!(t.valid_count(), 7);
        assert_eq!(t.count_valid(0, 4), 3);
        // k-th skips the hole.
        assert_eq!(t.kth_valid(0, 8, 2), Some(3));
        t.delete(6);
        assert_eq!(t.range_max(0, 8), Some(4));
        // Deleting twice is a no-op.
        t.delete(6);
        assert_eq!(t.valid_count(), 6);
    }

    #[test]
    fn non_power_of_two_sizes() {
        let _g = crate::counter_guard();
        let pri: Vec<u64> = vec![4, 8, 15, 16, 23, 42, 10];
        let t = TournamentTree::new(&pri);
        assert_eq!(t.range_max(0, 7), Some(5));
        assert_eq!(t.count_valid(0, 7), 7);
        assert_eq!(t.kth_valid(0, 7, 6), Some(6));
        assert_eq!(t.range_max(0, 0), None);
        assert_eq!(t.kth_valid(0, 7, 7), None);
    }

    #[test]
    fn empty_and_single() {
        let _g = crate::counter_guard();
        let t: TournamentTree<u64> = TournamentTree::new(&[]);
        assert!(t.is_empty());
        assert_eq!(t.range_max(0, 1), None);
        let mut t1 = TournamentTree::new(&[42u64]);
        assert_eq!(t1.range_max(0, 1), Some(0));
        t1.delete(0);
        assert_eq!(t1.range_max(0, 1), None);
        assert_eq!(t1.valid_count(), 0);
    }

    proptest! {
        #[test]
        fn prop_matches_brute_force(
            pri in proptest::collection::vec(0u64..1000, 1..120),
            deletions in proptest::collection::vec(0usize..120, 0..60),
            queries in proptest::collection::vec((0usize..120, 0usize..121), 1..40),
        ) {
            let _g = crate::counter_guard();
            let n = pri.len();
            let mut t = TournamentTree::new(&pri);
            let mut valid = vec![true; n];
            for &d in &deletions {
                let d = d % n;
                t.delete(d);
                valid[d] = false;
            }
            for &(l, r) in &queries {
                let l = l % (n + 1);
                let r = r % (n + 1);
                let expected_count = (l..r.min(n)).filter(|&i| valid[i]).count();
                prop_assert_eq!(t.count_valid(l, r), expected_count);
                let got = t.range_max(l, r);
                let expected = brute_max(&pri, &valid, l, r);
                match (got, expected) {
                    (None, None) => {}
                    (Some(g), Some(e)) => prop_assert_eq!(pri[g], pri[e]),
                    _ => prop_assert!(false, "mismatch: {:?} vs {:?}", got, expected),
                }
                // kth over the full range enumerates the valid set in order.
                if l == 0 && r >= n {
                    let valid_indices: Vec<usize> = (0..n).filter(|&i| valid[i]).collect();
                    for (k, &vi) in valid_indices.iter().enumerate() {
                        prop_assert_eq!(t.kth_valid(0, n, k), Some(vi));
                    }
                }
            }
        }
    }
}
