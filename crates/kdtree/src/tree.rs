//! The k-d tree structure and its queries.
//!
//! The tree is an arena of nodes over an owned point set.  Interior nodes
//! carry a splitting dimension and value; leaves carry a small bucket of
//! point indices (at most [`KdTree::leaf_capacity`] after construction is
//! finished).  Both the classic and the p-batched builders produce this same
//! structure, so query costs are directly comparable between them.

use pwe_asym::counters::{record_read, record_reads, record_writes};
use pwe_geom::bbox::BBoxK;
use pwe_geom::point::PointK;
use pwe_primitives::layout::{BlockedTree, NO_NODE};

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

/// Leaf bucket slots inlined into the hot payload: the first
/// `HOT_BUCKET_HEAD` point indices of every leaf ride inside the blocked
/// node itself, so short leaf scans never leave the block.  Longer buckets
/// spill their remainder into [`KdBlocked::tails`] — one contiguous array,
/// not a per-leaf heap `Vec` like the cold arena's `KdNode::bucket`.
const HOT_BUCKET_HEAD: usize = 4;

/// Hot descent fields of the blocked query cache: interior descents read
/// only the split plane; leaf scans read the bucket head inline and any
/// tail from the packed [`KdBlocked::tails`] array — the cold `KdNode`
/// arena is never touched on the blocked path.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KdHot {
    split_dim: u32,
    split_val: f64,
    /// Bucket length (0 for interior nodes).
    blen: u32,
    /// Offset of `bucket[HOT_BUCKET_HEAD..]` in [`KdBlocked::tails`]
    /// (meaningful only when `blen > HOT_BUCKET_HEAD`).
    tail: u32,
    /// The first `min(blen, HOT_BUCKET_HEAD)` bucket entries.
    head: [u32; HOT_BUCKET_HEAD],
}

/// The blocked query cache: the vEB-style descent tree plus the packed
/// leaf-bucket tails.  Purely derived (rebuilt by
/// [`KdTree::rebuild_blocked`], dropped on mutation), identical answers and
/// ARAM charges to the flat arena walk.
#[derive(Debug, Clone)]
pub(crate) struct KdBlocked {
    tree: BlockedTree<KdHot>,
    /// Concatenated `bucket[HOT_BUCKET_HEAD..]` of every long-bucket leaf.
    tails: Vec<u32>,
}

impl KdBlocked {
    /// The `k`-th bucket entry of the leaf whose hot payload is `hot`
    /// (head slots inline, tail slots from the packed array).
    #[inline]
    fn bucket_entry(&self, hot: &KdHot, k: usize) -> u32 {
        debug_assert!(k < hot.blen as usize);
        if k < HOT_BUCKET_HEAD {
            hot.head[k]
        } else {
            self.tails[hot.tail as usize + (k - HOT_BUCKET_HEAD)]
        }
    }
}

/// A k-d tree over `K`-dimensional points.
#[derive(Debug, Clone)]
pub struct KdTree<const K: usize> {
    pub(crate) points: Vec<PointK<K>>,
    pub(crate) nodes: Vec<KdNode>,
    pub(crate) root: usize,
    pub(crate) leaf_capacity: usize,
    /// Cache-conscious descent cache over the finished structure, built at
    /// build-finalize and dropped by any structural mutation (the dynamic
    /// wrappers in [`crate::dynamic`]).  Purely derived: never part of the
    /// structure's identity, identical answers and charges on either path
    /// ([`Self::range_query_flat`] keeps the flat path callable).  Nearest
    /// neighbour always walks the flat arena.
    pub(crate) blocked: Option<KdBlocked>,
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
            blocked: None,
        }
    }

    /// (Re)build the blocked descent cache from the current arena (only the
    /// reachable nodes are copied, so spliced-over slots are skipped).
    /// Purely derived, uncharged physical-layout maintenance.
    pub(crate) fn rebuild_blocked(&mut self) {
        if self.root == EMPTY {
            self.blocked = None;
            return;
        }
        let nodes = &self.nodes;
        // Pack long-bucket tails contiguously (slot order, deterministic);
        // the heads are copied into the hot payloads below.
        let mut tails: Vec<u32> = Vec::new();
        let mut tail_off: Vec<u32> = vec![0; nodes.len()];
        for (v, node) in nodes.iter().enumerate() {
            if node.bucket.len() > HOT_BUCKET_HEAD {
                tail_off[v] = tails.len() as u32;
                tails.extend_from_slice(&node.bucket[HOT_BUCKET_HEAD..]);
            }
        }
        let tree = BlockedTree::build(
            nodes.len(),
            self.root,
            |v| (nodes[v].left, nodes[v].right),
            |v| {
                let node = &nodes[v];
                let take = node.bucket.len().min(HOT_BUCKET_HEAD);
                let mut head = [0u32; HOT_BUCKET_HEAD];
                head[..take].copy_from_slice(&node.bucket[..take]);
                KdHot {
                    split_dim: node.split_dim as u32,
                    split_val: node.split_val,
                    blen: node.bucket.len() as u32,
                    tail: tail_off[v],
                    head,
                }
            },
        );
        self.blocked = Some(KdBlocked { tree, tails });
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

    /// [`Self::range_query`] plus visit statistics.  Descends the blocked
    /// cache when one is live, the flat arena otherwise — same visit set,
    /// same ARAM charges either way.
    pub fn range_query_with_stats(&self, query: &BBoxK<K>) -> (Vec<u32>, QueryStats) {
        let mut out = Vec::new();
        let mut stats = QueryStats::default();
        match &self.blocked {
            Some(kb) if kb.tree.root() != NO_NODE => {
                let region = BBoxK::everything();
                self.range_blocked_rec(kb, kb.tree.root(), &region, query, &mut out, &mut stats);
            }
            _ => {
                if self.root != EMPTY {
                    let region = BBoxK::everything();
                    self.range_rec(self.root, &region, query, &mut out, &mut stats);
                }
            }
        }
        stats.reported = out.len() as u64;
        record_writes(out.len() as u64);
        (out, stats)
    }

    /// [`Self::range_query`] forced onto the flat (pre-blocked) descent —
    /// the live "before" side of the query benchmarks.  Identical answers
    /// and ARAM charges to the blocked path.
    pub fn range_query_flat(&self, query: &BBoxK<K>) -> Vec<u32> {
        let mut out = Vec::new();
        let mut stats = QueryStats::default();
        if self.root != EMPTY {
            let region = BBoxK::everything();
            self.range_rec(self.root, &region, query, &mut out, &mut stats);
        }
        record_writes(out.len() as u64);
        out
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

    /// [`Self::range_rec`] over the blocked cache: interior split planes
    /// are read blocked-locally; leaf buckets come from the inlined head
    /// plus the packed tails — never the cold arena.  Same pruning, visit
    /// set and ARAM charges as the flat walk.
    fn range_blocked_rec(
        &self,
        kb: &KdBlocked,
        v: u32,
        region: &BBoxK<K>,
        query: &BBoxK<K>,
        out: &mut Vec<u32>,
        stats: &mut QueryStats,
    ) {
        stats.nodes_visited += 1;
        record_read();
        let bn = kb.tree.node(v);
        let hot = bn.payload;
        if bn.left == NO_NODE && bn.right == NO_NODE {
            for k in 0..hot.blen as usize {
                let pi = kb.bucket_entry(&hot, k);
                stats.points_tested += 1;
                record_read();
                if query.contains(&self.points[pi as usize]) {
                    out.push(pi);
                }
            }
            return;
        }
        if query.contains_box(region) {
            self.collect_blocked(kb, v, out, stats);
            return;
        }
        let (left_region, right_region) =
            split_region(region, hot.split_dim as usize, hot.split_val);
        if bn.left != NO_NODE && query.intersects(&left_region) {
            self.range_blocked_rec(kb, bn.left, &left_region, query, out, stats);
        }
        if bn.right != NO_NODE && query.intersects(&right_region) {
            self.range_blocked_rec(kb, bn.right, &right_region, query, out, stats);
        }
    }

    fn collect_blocked(&self, kb: &KdBlocked, v: u32, out: &mut Vec<u32>, stats: &mut QueryStats) {
        stats.nodes_visited += 1;
        record_read();
        let bn = kb.tree.node(v);
        if bn.left == NO_NODE && bn.right == NO_NODE {
            let hot = bn.payload;
            for k in 0..hot.blen as usize {
                out.push(kb.bucket_entry(&hot, k));
            }
            record_reads(u64::from(hot.blen));
            return;
        }
        if bn.left != NO_NODE {
            self.collect_blocked(kb, bn.left, out, stats);
        }
        if bn.right != NO_NODE {
            self.collect_blocked(kb, bn.right, out, stats);
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
    ///
    /// Walks the flat arena even when a blocked cache is live: NN
    /// backtracking keeps the upper tree cache-resident either way, and a
    /// blocked walk measured parity within noise (~0.97–1.06×, `kdnn` row
    /// of `BENCH_queries.json`).
    pub fn nearest_impl(&self, q: &PointK<K>, eps: f64) -> Option<(u32, f64)> {
        if self.root == EMPTY {
            return None;
        }
        let mut best: Option<(u32, f64)> = None;
        let shrink = 1.0 / ((1.0 + eps) * (1.0 + eps));
        self.nn_rec(self.root, &BBoxK::everything(), q, shrink, &mut best);
        best.map(|(i, d2)| (i, d2.sqrt()))
    }

    fn nn_rec(
        &self,
        v: usize,
        region: &BBoxK<K>,
        q: &PointK<K>,
        shrink: f64,
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
                self.nn_rec(child, &child_region, q, shrink, best);
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
        let _g = crate::counter_guard();
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
