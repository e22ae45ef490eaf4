//! The k-d tree structure and its queries.
//!
//! The tree is an arena of nodes over an owned point set.  Interior nodes
//! carry a splitting dimension and value; leaves carry a small bucket of
//! point indices (at most [`KdTree::leaf_capacity`] after construction is
//! finished).  Both the classic and the p-batched builders produce this same
//! structure, so query costs are directly comparable between them.
//!
//! Every query walks that one arena: range queries through `range_rec`,
//! nearest neighbour through `nn_rec`.  The tree keeps no derived layout
//! beside it.  A vEB-blocked copy for range queries was measured and
//! dropped.  It charged the same reads and writes, and a stream of range
//! queries alone took 0.84–0.89× the flat walk's time on it.  But the
//! service's nearest queries (a descent plus a tie-break box) were slower
//! with it built (the `kd_range` rows of `BENCH_queries.json`, MODEL.md
//! §5).

use pwe_asym::counters::{record_read, record_reads, record_writes};
use pwe_geom::bbox::BBoxK;
use pwe_geom::point::PointK;

/// Sentinel index for "no child".
pub const EMPTY: usize = usize::MAX;

/// A node of the k-d tree.
#[derive(Debug, Clone)]
pub struct KdNode {
    /// Splitting dimension (meaningful for interior nodes).
    pub split_dim: usize,
    /// Splitting value: points with `coord(split_dim) < split_val` go left.
    pub split_val: f64,
    /// Left child, or [`EMPTY`] for a leaf.
    pub left: usize,
    /// Right child, or [`EMPTY`] for a leaf.
    pub right: usize,
    /// Point indices stored at this node (non-empty only for leaves, except
    /// transiently during the p-batched construction when it acts as the
    /// leaf buffer).
    pub bucket: Vec<u32>,
    /// Number of (non-deleted) points in this subtree.
    pub size: usize,
}

impl KdNode {
    /// A fresh leaf with an empty bucket.
    pub fn leaf() -> Self {
        KdNode {
            split_dim: 0,
            split_val: 0.0,
            left: EMPTY,
            right: EMPTY,
            bucket: Vec::new(),
            size: 0,
        }
    }

    /// Whether the node is a leaf.
    pub fn is_leaf(&self) -> bool {
        self.left == EMPTY && self.right == EMPTY
    }
}

/// Statistics of a range query, used by the experiments to compare the
/// query cost of classically-built and p-batched trees.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Tree nodes visited.
    pub nodes_visited: u64,
    /// Points individually tested against the query.
    pub points_tested: u64,
    /// Points reported.
    pub reported: u64,
}

/// A k-d tree over `K`-dimensional points: the node arena, its root and
/// the point set the leaf buckets index.  Updates (see [`crate::dynamic`])
/// edit the arena in place; there is no cache to keep in step.
#[derive(Debug, Clone)]
pub struct KdTree<const K: usize> {
    pub(crate) points: Vec<PointK<K>>,
    pub(crate) nodes: Vec<KdNode>,
    pub(crate) root: usize,
    pub(crate) leaf_capacity: usize,
}

impl<const K: usize> KdTree<K> {
    /// An empty tree that owns `points` but has no structure yet (used by the
    /// builders in [`crate::build`]).
    pub(crate) fn empty(points: Vec<PointK<K>>, leaf_capacity: usize) -> Self {
        KdTree {
            points,
            nodes: Vec::new(),
            root: EMPTY,
            leaf_capacity: leaf_capacity.max(1),
        }
    }

    /// The number of points the tree indexes.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the tree indexes no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The indexed points.
    pub fn points(&self) -> &[PointK<K>] {
        &self.points
    }

    /// Leaf bucket capacity of the finished tree.
    pub fn leaf_capacity(&self) -> usize {
        self.leaf_capacity
    }

    /// Number of allocated tree nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Height of the tree in nodes (0 for an empty tree).
    pub fn height(&self) -> usize {
        fn rec(nodes: &[KdNode], v: usize) -> usize {
            if v == EMPTY {
                return 0;
            }
            1 + rec(nodes, nodes[v].left).max(rec(nodes, nodes[v].right))
        }
        rec(&self.nodes, self.root)
    }

    /// Axis-aligned range query: indices of all points inside `query`.
    pub fn range_query(&self, query: &BBoxK<K>) -> Vec<u32> {
        self.range_query_with_stats(query).0
    }

    /// [`Self::range_query`] plus visit statistics.
    pub fn range_query_with_stats(&self, query: &BBoxK<K>) -> (Vec<u32>, QueryStats) {
        let mut out = Vec::new();
        let mut stats = QueryStats::default();
        if self.root != EMPTY {
            self.range_rec(self.root, &BBoxK::everything(), query, &mut out, &mut stats);
        }
        stats.reported = out.len() as u64;
        record_writes(out.len() as u64);
        (out, stats)
    }

    fn range_rec(
        &self,
        v: usize,
        region: &BBoxK<K>,
        query: &BBoxK<K>,
        out: &mut Vec<u32>,
        stats: &mut QueryStats,
    ) {
        stats.nodes_visited += 1;
        record_read();
        let node = &self.nodes[v];
        if node.is_leaf() {
            for &pi in &node.bucket {
                stats.points_tested += 1;
                record_read();
                if query.contains(&self.points[pi as usize]) {
                    out.push(pi);
                }
            }
            return;
        }
        if query.contains_box(region) {
            // The whole subtree is inside the query: report it without
            // further predicate tests (cost proportional to the output).
            self.collect_subtree(v, out, stats);
            return;
        }
        let (left_region, right_region) = split_region(region, node.split_dim, node.split_val);
        if node.left != EMPTY && query.intersects(&left_region) {
            self.range_rec(node.left, &left_region, query, out, stats);
        }
        if node.right != EMPTY && query.intersects(&right_region) {
            self.range_rec(node.right, &right_region, query, out, stats);
        }
    }

    fn collect_subtree(&self, v: usize, out: &mut Vec<u32>, stats: &mut QueryStats) {
        stats.nodes_visited += 1;
        record_read();
        let node = &self.nodes[v];
        if node.is_leaf() {
            out.extend_from_slice(&node.bucket);
            record_reads(node.bucket.len() as u64);
            return;
        }
        if node.left != EMPTY {
            self.collect_subtree(node.left, out, stats);
        }
        if node.right != EMPTY {
            self.collect_subtree(node.right, out, stats);
        }
    }

    /// Exact nearest neighbour of `q` (index), or `None` for an empty tree.
    pub fn nearest(&self, q: &PointK<K>) -> Option<u32> {
        self.nearest_impl(q, 0.0).map(|(i, _)| i)
    }

    /// (1+ε)-approximate nearest neighbour: returns a point whose distance is
    /// at most `(1+ε)` times the true nearest distance.
    pub fn approx_nearest(&self, q: &PointK<K>, eps: f64) -> Option<u32> {
        assert!(eps >= 0.0, "ε must be non-negative");
        self.nearest_impl(q, eps).map(|(i, _)| i)
    }

    /// Nearest-neighbour search returning the index and the distance, with
    /// the (1+ε) pruning rule (ε = 0 gives the exact answer).
    pub fn nearest_impl(&self, q: &PointK<K>, eps: f64) -> Option<(u32, f64)> {
        let shrink = 1.0 / ((1.0 + eps) * (1.0 + eps));
        self.nn_search(q, shrink, &|_| false)
            .map(|(i, d2)| (i, d2.sqrt()))
    }

    /// Exact nearest neighbour of `q` among the points `skip` does not
    /// reject, as `(index, squared distance)`.  The dynamic structures pass
    /// their tombstones here, so one descent serves live and static trees.
    pub(crate) fn nearest_unskipped(
        &self,
        q: &PointK<K>,
        skip: &impl Fn(u32) -> bool,
    ) -> Option<(u32, f64)> {
        self.nn_search(q, 1.0, skip)
    }

    fn nn_search(
        &self,
        q: &PointK<K>,
        shrink: f64,
        skip: &impl Fn(u32) -> bool,
    ) -> Option<(u32, f64)> {
        if self.root == EMPTY {
            return None;
        }
        let mut best: Option<(u32, f64)> = None;
        self.nn_rec(self.root, &BBoxK::everything(), q, shrink, skip, &mut best);
        best
    }

    fn nn_rec(
        &self,
        v: usize,
        region: &BBoxK<K>,
        q: &PointK<K>,
        shrink: f64,
        skip: &impl Fn(u32) -> bool,
        best: &mut Option<(u32, f64)>,
    ) {
        record_read();
        let node = &self.nodes[v];
        if let Some((_, best_d2)) = best {
            // Prune: even the closest possible point of this region cannot
            // improve the current answer by the required (1+ε) factor.
            if region.dist2_to_point(q) > *best_d2 * shrink {
                return;
            }
        }
        if node.is_leaf() {
            for &pi in &node.bucket {
                record_read();
                if skip(pi) {
                    continue;
                }
                let d2 = self.points[pi as usize].dist2(q);
                if best.is_none_or(|(_, b)| d2 < b) {
                    *best = Some((pi, d2));
                }
            }
            return;
        }
        let (left_region, right_region) = split_region(region, node.split_dim, node.split_val);
        // Descend into the side containing the query first.
        let go_left_first = q.coords[node.split_dim] < node.split_val;
        let order = if go_left_first {
            [(node.left, left_region), (node.right, right_region)]
        } else {
            [(node.right, right_region), (node.left, left_region)]
        };
        for (child, child_region) in order {
            if child != EMPTY {
                self.nn_rec(child, &child_region, q, shrink, skip, best);
            }
        }
    }

    /// Check structural invariants: every point index appears in exactly one
    /// leaf bucket, every leaf respects the split values of its ancestors,
    /// and interior sizes equal the sum of their children.  Diagnostic only.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.root == EMPTY {
            if self.points.is_empty() {
                return Ok(());
            }
            return Err("non-empty point set but empty tree".to_string());
        }
        let mut seen = vec![false; self.points.len()];
        self.check_rec(self.root, &BBoxK::everything(), &mut seen)?;
        if let Some(missing) = seen.iter().position(|&s| !s) {
            return Err(format!("point {missing} not present in any leaf"));
        }
        Ok(())
    }

    fn check_rec(&self, v: usize, region: &BBoxK<K>, seen: &mut [bool]) -> Result<usize, String> {
        let node = &self.nodes[v];
        if node.is_leaf() {
            for &pi in &node.bucket {
                let p = &self.points[pi as usize];
                if !region.contains(p) {
                    return Err(format!("point {pi} stored outside its region"));
                }
                if seen[pi as usize] {
                    return Err(format!("point {pi} stored in two leaves"));
                }
                seen[pi as usize] = true;
            }
            return Ok(node.bucket.len());
        }
        if !node.bucket.is_empty() {
            return Err(format!("interior node {v} still holds a bucket"));
        }
        let (left_region, right_region) = split_region(region, node.split_dim, node.split_val);
        let mut total = 0;
        if node.left != EMPTY {
            total += self.check_rec(node.left, &left_region, seen)?;
        }
        if node.right != EMPTY {
            total += self.check_rec(node.right, &right_region, seen)?;
        }
        if node.size != 0 && node.size != total {
            return Err(format!(
                "size mismatch at node {v}: recorded {} actual {total}",
                node.size
            ));
        }
        Ok(total)
    }
}

/// Split an axis-aligned region at `(dim, val)` into the left (`< val`) and
/// right (`≥ val`) sub-regions.
pub fn split_region<const K: usize>(
    region: &BBoxK<K>,
    dim: usize,
    val: f64,
) -> (BBoxK<K>, BBoxK<K>) {
    let mut left = *region;
    let mut right = *region;
    left.max[dim] = left.max[dim].min(val);
    right.min[dim] = right.min[dim].max(val);
    (left, right)
}

/// Brute-force range query used as the tests' oracle.
pub fn range_bruteforce<const K: usize>(points: &[PointK<K>], query: &BBoxK<K>) -> Vec<u32> {
    points
        .iter()
        .enumerate()
        .filter(|(_, p)| query.contains(p))
        .map(|(i, _)| i as u32)
        .collect()
}

/// Brute-force nearest neighbour used as the tests' oracle.
pub fn nearest_bruteforce<const K: usize>(points: &[PointK<K>], q: &PointK<K>) -> Option<u32> {
    points
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| {
            a.dist2(q)
                .partial_cmp(&b.dist2(q))
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .map(|(i, _)| i as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_region_partitions() {
        let r = BBoxK::<2>::new([0.0, 0.0], [10.0, 10.0]);
        let (l, rgt) = split_region(&r, 0, 4.0);
        assert_eq!(l.max[0], 4.0);
        assert_eq!(rgt.min[0], 4.0);
        assert_eq!(l.min[1], 0.0);
        assert_eq!(rgt.max[1], 10.0);
    }

    #[test]
    fn empty_tree_queries() {
        let t: KdTree<2> = KdTree::empty(Vec::new(), 8);
        assert!(t.is_empty());
        assert_eq!(t.height(), 0);
        assert!(t.range_query(&BBoxK::everything()).is_empty());
        assert!(t.nearest(&PointK::new([0.0, 0.0])).is_none());
        assert!(t.check_invariants().is_ok());
    }

    #[test]
    fn bruteforce_oracles() {
        let pts = vec![
            PointK::<2>::new([0.0, 0.0]),
            PointK::<2>::new([1.0, 1.0]),
            PointK::<2>::new([2.0, 2.0]),
        ];
        let q = BBoxK::new([0.5, 0.5], [2.5, 2.5]);
        assert_eq!(range_bruteforce(&pts, &q), vec![1, 2]);
        assert_eq!(nearest_bruteforce(&pts, &PointK::new([1.9, 1.9])), Some(2));
        assert_eq!(nearest_bruteforce::<2>(&[], &PointK::new([0.0, 0.0])), None);
    }
}
