//! Dynamic k-d trees (Section 6.2).
//!
//! k-d tree nodes represent sub-*spaces*, not just sub-*sets*, so rotations
//! cannot rebalance them.  The paper therefore supports updates by
//! reconstruction, in two flavours:
//!
//! * [`LogarithmicKdForest`] — the logarithmic method (Overmars \[46\]): keep
//!   at most `log₂ n` trees of sizes that are distinct powers of two; an
//!   insertion merges equal-sized trees like a binary counter.  Updates cost
//!   `O(log² n)` reads amortized, and because merged trees are rebuilt with
//!   the *p-batched* construction the writes are `O(log n)` amortized, a
//!   `Θ(log n)` factor below classic rebuilds.
//! * [`DynamicKdTree`] — the single-tree variant: tolerate a bounded
//!   imbalance between sibling subtree weights and rebuild the topmost
//!   subtree that exceeds it.  Deletions mark points and trigger a full
//!   rebuild once a constant fraction of the tree is dead.
//!
//! Both rebuild with the p-batched construction only; the classic one
//! ([`crate::build::build_classic`]) stays as the static baseline.

use pwe_asym::counters::{record_read, record_reads, record_writes};
use pwe_geom::bbox::BBoxK;
use pwe_geom::point::PointK;
use pwe_primitives::hash::{DetHashMap, DetHashSet};

use crate::build::{build_p_batched, recommended_p, DEFAULT_LEAF_CAPACITY};
use crate::tree::{KdTree, EMPTY};

/// Rebuild `points` with the write-efficient p-batched construction.
fn rebuild<const K: usize>(points: &[PointK<K>], seed: u64) -> KdTree<K> {
    build_p_batched(
        points,
        recommended_p(points.len().max(16)),
        DEFAULT_LEAF_CAPACITY,
        seed,
    )
    .0
}

// ---------------------------------------------------------------------------
// Logarithmic reconstruction
// ---------------------------------------------------------------------------

/// One tree of the logarithmic forest, carrying the global ids of its points.
#[derive(Debug, Clone)]
struct ForestTree<const K: usize> {
    tree: KdTree<K>,
    ids: Vec<u64>,
}

/// A dynamic point set maintained as `O(log n)` static k-d trees of sizes
/// that are increasing powers of two (the logarithmic method).
#[derive(Debug)]
pub struct LogarithmicKdForest<const K: usize> {
    /// `slots[i]` holds a tree with exactly `2^i` (live or dead) points.
    slots: Vec<Option<ForestTree<K>>>,
    next_id: u64,
    live: usize,
    dead: usize,
    deleted: DetHashSet<u64>,
    live_ids: DetHashSet<u64>,
    seed: u64,
}

impl<const K: usize> Default for LogarithmicKdForest<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const K: usize> LogarithmicKdForest<K> {
    /// An empty forest.
    pub fn new() -> Self {
        LogarithmicKdForest {
            slots: Vec::new(),
            next_id: 0,
            live: 0,
            dead: 0,
            deleted: DetHashSet::default(),
            live_ids: DetHashSet::default(),
            seed: 0x9E3779B97F4A7C15,
        }
    }

    /// Number of live (non-deleted) points.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the forest holds no live points.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of trees currently present.
    pub fn tree_count(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Insert a point; returns its id (used for deletion).
    ///
    /// Amortized `O(log² n)` reads and `O(log n)` writes (p-batched
    /// rebuilds).
    pub fn insert(&mut self, point: PointK<K>) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.live += 1;
        self.live_ids.insert(id);

        // Collect the cascade of equal-sized trees, like a binary counter.
        let mut points = vec![point];
        let mut ids = vec![id];
        let mut level = 0usize;
        loop {
            if level >= self.slots.len() {
                self.slots.push(None);
            }
            match self.slots[level].take() {
                None => break,
                Some(existing) => {
                    record_reads(existing.tree.len() as u64);
                    points.extend_from_slice(existing.tree.points());
                    ids.extend_from_slice(&existing.ids);
                    level += 1;
                }
            }
        }
        debug_assert_eq!(points.len(), 1 << level);
        self.seed = self.seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let tree = rebuild(&points, self.seed);
        // The p-batched rebuild permutes the points internally; re-associate
        // ids by matching storage order.
        let ids = reorder_ids(&points, &ids, tree.points());
        self.slots[level] = Some(ForestTree { tree, ids });
        id
    }

    /// Delete a point by id.  Costs `O(1)` writes (a mark); a full rebuild is
    /// triggered once half of the stored points are dead.
    ///
    /// Returns `true` if the id was present and live.
    pub fn delete(&mut self, id: u64) -> bool {
        if !self.live_ids.remove(&id) {
            return false;
        }
        self.deleted.insert(id);
        record_writes(1);
        self.live = self.live.saturating_sub(1);
        self.dead += 1;
        if self.dead > self.live {
            self.rebuild_all();
        }
        true
    }

    fn rebuild_all(&mut self) {
        let mut points = Vec::with_capacity(self.live);
        let mut ids = Vec::with_capacity(self.live);
        for slot in self.slots.drain(..).flatten() {
            for (p, &pid) in slot.tree.points().iter().zip(slot.ids.iter()) {
                if !self.deleted.contains(&pid) {
                    points.push(*p);
                    ids.push(pid);
                }
            }
        }
        record_reads((self.live + self.dead) as u64);
        self.deleted.clear();
        self.dead = 0;
        self.live = points.len();
        // Redistribute into power-of-two trees (greedy from the top bit).
        self.slots.clear();
        let mut start = 0usize;
        let mut remaining = points.len();
        let mut slot_sizes = Vec::new();
        while remaining > 0 {
            let bit = usize::BITS as usize - 1 - remaining.leading_zeros() as usize;
            slot_sizes.push(bit);
            remaining -= 1 << bit;
        }
        let max_level = slot_sizes.iter().copied().max().unwrap_or(0);
        self.slots.resize_with(max_level + 1, || None);
        for bit in slot_sizes {
            let size = 1usize << bit;
            let chunk_points = &points[start..start + size];
            let chunk_ids = &ids[start..start + size];
            start += size;
            self.seed = self.seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let tree = rebuild(chunk_points, self.seed);
            let ids = reorder_ids(chunk_points, chunk_ids, tree.points());
            self.slots[bit] = Some(ForestTree { tree, ids });
        }
    }

    /// Range query over the live points: returns `(id, point)` pairs.
    pub fn range_query(&self, query: &BBoxK<K>) -> Vec<(u64, PointK<K>)> {
        let mut out = Vec::new();
        for slot in self.slots.iter().flatten() {
            for idx in slot.tree.range_query(query) {
                let id = slot.ids[idx as usize];
                record_read();
                if !self.deleted.contains(&id) {
                    out.push((id, slot.tree.points()[idx as usize]));
                }
            }
        }
        record_writes(out.len() as u64);
        out
    }

    /// Nearest live neighbour of `q`, as `(id, point)`: one tombstone-aware
    /// descent per tree, `O(log n)` trees.
    pub fn nearest(&self, q: &PointK<K>) -> Option<(u64, PointK<K>)> {
        let mut best: Option<(u64, PointK<K>, f64)> = None;
        for slot in self.slots.iter().flatten() {
            let skip = |i: u32| self.deleted.contains(&slot.ids[i as usize]);
            if let Some((idx, d)) = slot.tree.nearest_unskipped(q, &skip) {
                if best.as_ref().is_none_or(|(_, _, bd)| d < *bd) {
                    best = Some((slot.ids[idx as usize], slot.tree.points()[idx as usize], d));
                }
            }
        }
        best.map(|(id, p, _)| (id, p))
    }
}

/// Re-associate ids after a rebuild permuted the point storage order.
///
/// Points may contain exact duplicates; ids for equal points are assigned in
/// a consistent (arbitrary but stable) order.
fn reorder_ids<const K: usize>(
    original_points: &[PointK<K>],
    original_ids: &[u64],
    stored_points: &[PointK<K>],
) -> Vec<u64> {
    let key = |p: &PointK<K>| -> Vec<u64> { p.coords.iter().map(|c| c.to_bits()).collect() };
    let mut pool: DetHashMap<Vec<u64>, Vec<u64>> =
        DetHashMap::with_capacity_and_hasher(original_points.len(), Default::default());
    for (p, &id) in original_points.iter().zip(original_ids) {
        pool.entry(key(p)).or_default().push(id);
    }
    stored_points
        .iter()
        .map(|p| {
            pool.get_mut(&key(p))
                .and_then(|v| v.pop())
                .expect("stored point must originate from the input")
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Single-tree reconstruction-based rebalancing
// ---------------------------------------------------------------------------

/// The single-tree dynamic k-d tree: insertions go straight into the leaf
/// whose region contains the point; a subtree is rebuilt when the imbalance
/// between its children exceeds the configured fraction (Section 6.2,
/// "single-tree version").  Deletions mark points and a full rebuild happens
/// once half the points are dead.
#[derive(Debug)]
pub struct DynamicKdTree<const K: usize> {
    tree: KdTree<K>,
    ids: Vec<u64>,
    deleted: Vec<bool>,
    live: usize,
    dead: usize,
    /// Maximum tolerated fraction `max(|L|,|R|)/|v|` before a rebuild.
    imbalance: f64,
    next_id: u64,
    seed: u64,
    /// Number of subtree rebuilds performed (diagnostic).
    pub rebuilds: u64,
}

impl<const K: usize> DynamicKdTree<K> {
    /// Build the initial tree from `points`.
    ///
    /// `imbalance` is the tolerated child fraction: `0.5` is perfect balance,
    /// values closer to `1.0` rebuild less often but give taller trees.  The
    /// paper uses `1/2 + O(1/log n)` for range-query-optimal trees and any
    /// constant < 1 for ANN-friendly trees.
    pub fn new(points: &[PointK<K>], imbalance: f64) -> Self {
        assert!(
            (0.5..1.0).contains(&imbalance),
            "imbalance fraction must be in [0.5, 1.0)"
        );
        let seed = 0xA24BAED4963EE407;
        let mut tree = rebuild(points, seed);
        crate::build::recompute_sizes(&mut tree);
        let n = points.len();
        // The rebuild may permute the storage order; associate ids with the
        // stored points, not with the input positions.
        let ids = reorder_ids(points, &(0..n as u64).collect::<Vec<_>>(), tree.points());
        DynamicKdTree {
            tree,
            ids,
            deleted: vec![false; n],
            live: n,
            dead: 0,
            imbalance,
            next_id: n as u64,
            seed,
            rebuilds: 0,
        }
    }

    /// Number of live points.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the structure holds no live points.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Height of the underlying tree.
    pub fn height(&self) -> usize {
        self.tree.height()
    }

    /// Insert a point, returning its id.
    pub fn insert(&mut self, point: PointK<K>) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.live += 1;

        if self.tree.root == EMPTY {
            self.full_rebuild_with(vec![point], vec![id]);
            return id;
        }

        // Walk to the leaf, recording the path and updating subtree sizes.
        let point_index = self.tree.points.len() as u32;
        self.tree.points.push(point);
        self.ids.push(id);
        self.deleted.push(false);
        record_writes(2);

        let mut path = Vec::new();
        let mut v = self.tree.root;
        loop {
            record_read();
            path.push(v);
            self.tree.nodes[v].size += 1;
            if self.tree.nodes[v].is_leaf() {
                break;
            }
            let node = &self.tree.nodes[v];
            v = if point.coords[node.split_dim] < node.split_val {
                node.left
            } else {
                node.right
            };
        }
        record_writes(path.len() as u64); // size updates along the path
        self.tree.nodes[v].bucket.push(point_index);
        record_writes(1);

        // Find the topmost node on the path whose children are now too
        // imbalanced (or whose leaf bucket overflowed) and rebuild it.
        let mut rebuild_at = None;
        for &u in &path {
            let node = &self.tree.nodes[u];
            if node.is_leaf() {
                if node.bucket.len() > 2 * self.tree.leaf_capacity {
                    rebuild_at = Some(u);
                    break;
                }
            } else {
                let ls = self.tree.nodes[node.left].size as f64;
                let rs = self.tree.nodes[node.right].size as f64;
                let total = ls + rs;
                if total >= 8.0 && ls.max(rs) > self.imbalance * total {
                    rebuild_at = Some(u);
                    break;
                }
            }
        }
        if let Some(u) = rebuild_at {
            self.rebuild_subtree(u);
        }
        id
    }

    /// Delete a point by id; `O(1)` writes, full rebuild once half the points
    /// are dead.  Returns `true` if the id was present and live.
    pub fn delete(&mut self, id: u64) -> bool {
        let Some(pos) = self.ids.iter().position(|&x| x == id) else {
            return false;
        };
        if self.deleted[pos] {
            return false;
        }
        self.deleted[pos] = true;
        record_writes(1);
        self.live -= 1;
        self.dead += 1;
        if self.dead > self.live {
            let (points, ids) = self.live_points();
            self.full_rebuild_with(points, ids);
        }
        true
    }

    fn live_points(&self) -> (Vec<PointK<K>>, Vec<u64>) {
        let mut points = Vec::with_capacity(self.live);
        let mut ids = Vec::with_capacity(self.live);
        for (i, p) in self.tree.points.iter().enumerate() {
            if !self.deleted[i] {
                points.push(*p);
                ids.push(self.ids[i]);
            }
        }
        (points, ids)
    }

    fn full_rebuild_with(&mut self, points: Vec<PointK<K>>, ids: Vec<u64>) {
        self.seed = self.seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut tree = rebuild(&points, self.seed);
        crate::build::recompute_sizes(&mut tree);
        let ids = reorder_ids(&points, &ids, tree.points());
        self.deleted = vec![false; tree.len()];
        self.live = tree.len();
        self.dead = 0;
        self.ids = ids;
        self.tree = tree;
        self.rebuilds += 1;
    }

    /// Rebuild the subtree rooted at arena node `u` from its live points.
    fn rebuild_subtree(&mut self, u: usize) {
        self.rebuilds += 1;
        // Collect the point indices stored under u.
        let mut stack = vec![u];
        let mut point_indices = Vec::new();
        while let Some(v) = stack.pop() {
            let node = &self.tree.nodes[v];
            if node.is_leaf() {
                point_indices.extend_from_slice(&node.bucket);
            } else {
                stack.push(node.left);
                stack.push(node.right);
            }
        }
        record_reads(point_indices.len() as u64);
        let subtree_points: Vec<PointK<K>> = point_indices
            .iter()
            .map(|&pi| self.tree.points[pi as usize])
            .collect();
        self.seed = self.seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut sub = rebuild(&subtree_points, self.seed);
        crate::build::recompute_sizes(&mut sub);
        // Remap the rebuilt subtree's point references back to the main
        // tree's point indices (matching by coordinates, as in reorder_ids).
        let idx_map = reorder_ids(
            &subtree_points,
            &point_indices.iter().map(|&i| i as u64).collect::<Vec<_>>(),
            sub.points(),
        );
        // Splice the rebuilt nodes into the arena, reusing slot `u` as root.
        let offset = self.tree.nodes.len();
        let remap = |idx: usize| if idx == EMPTY { EMPTY } else { idx + offset };
        let sub_root = sub.root;
        let mut new_nodes = sub.nodes;
        for node in new_nodes.iter_mut() {
            node.left = remap(node.left);
            node.right = remap(node.right);
            if node.is_leaf() {
                // Rewrite bucket entries from sub-local point indices to main
                // tree point indices.
                for b in node.bucket.iter_mut() {
                    *b = idx_map[*b as usize] as u32;
                }
            }
        }
        record_writes(new_nodes.len() as u64);
        self.tree.nodes.extend(new_nodes);
        let root_copy = self.tree.nodes[remap(sub_root)].clone();
        self.tree.nodes[u] = root_copy;
        record_writes(1);
    }

    /// Range query over live points, returning `(id, point)` pairs.
    pub fn range_query(&self, query: &BBoxK<K>) -> Vec<(u64, PointK<K>)> {
        let hits = self.tree.range_query(query);
        let mut out = Vec::with_capacity(hits.len());
        for idx in hits {
            if !self.deleted[idx as usize] {
                out.push((self.ids[idx as usize], self.tree.points[idx as usize]));
            }
        }
        record_writes(out.len() as u64);
        out
    }

    /// Nearest live neighbour of `q`: one descent that skips deleted points.
    pub fn nearest(&self, q: &PointK<K>) -> Option<(u64, PointK<K>)> {
        let skip = |i: u32| self.deleted[i as usize];
        let (idx, _) = self.tree.nearest_unskipped(q, &skip)?;
        Some((self.ids[idx as usize], self.tree.points[idx as usize]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwe_geom::generators::uniform_points_2d;
    use rand::Rng;
    use rand::SeedableRng;

    fn brute_range(points: &[(u64, PointK<2>)], query: &BBoxK<2>) -> Vec<u64> {
        let mut ids: Vec<u64> = points
            .iter()
            .filter(|(_, p)| query.contains(p))
            .map(|(id, _)| *id)
            .collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn forest_insert_and_query() {
        let mut forest = LogarithmicKdForest::<2>::new();
        let pts = uniform_points_2d(500, 1);
        let mut reference = Vec::new();
        for p in &pts {
            let id = forest.insert(*p);
            reference.push((id, *p));
        }
        assert_eq!(forest.len(), 500);
        // At most log2(500)+1 trees.
        assert!(forest.tree_count() <= 10);

        let query = BBoxK::new([0.2, 0.2], [0.6, 0.5]);
        let mut got: Vec<u64> = forest
            .range_query(&query)
            .iter()
            .map(|(id, _)| *id)
            .collect();
        got.sort_unstable();
        assert_eq!(got, brute_range(&reference, &query));
    }

    #[test]
    fn forest_deletions_and_rebuild() {
        let mut forest = LogarithmicKdForest::<2>::new();
        let pts = uniform_points_2d(300, 2);
        let ids: Vec<u64> = pts.iter().map(|p| forest.insert(*p)).collect();
        // Delete two thirds; this must trigger the global rebuild.
        for id in ids.iter().take(200) {
            assert!(forest.delete(*id));
        }
        assert!(!forest.delete(ids[0]), "double delete must report false");
        assert_eq!(forest.len(), 100);
        let live: Vec<(u64, PointK<2>)> = ids[200..]
            .iter()
            .zip(pts[200..].iter())
            .map(|(&id, &p)| (id, p))
            .collect();
        let query = BBoxK::new([0.0, 0.0], [1.0, 1.0]);
        let mut got: Vec<u64> = forest
            .range_query(&query)
            .iter()
            .map(|(id, _)| *id)
            .collect();
        got.sort_unstable();
        assert_eq!(got, brute_range(&live, &query));
    }

    #[test]
    fn forest_nearest_skips_deleted() {
        let mut forest = LogarithmicKdForest::<2>::new();
        let a = forest.insert(PointK::new([0.1, 0.1]));
        let _b = forest.insert(PointK::new([0.9, 0.9]));
        let q = PointK::new([0.0, 0.0]);
        assert_eq!(forest.nearest(&q).unwrap().0, a);
        forest.delete(a);
        let nn = forest.nearest(&q).unwrap();
        assert_ne!(nn.0, a);
    }

    /// Distance of the brute-force nearest live point (ties make the id
    /// ambiguous, the distance is not).
    fn live_nearest_dist2(live: &[(u64, PointK<2>)], q: &PointK<2>) -> Option<f64> {
        let pts: Vec<PointK<2>> = live.iter().map(|(_, p)| *p).collect();
        crate::tree::nearest_bruteforce(&pts, q).map(|i| pts[i as usize].dist2(q))
    }

    #[test]
    fn nearest_skips_tombstones_like_bruteforce() {
        let pts = uniform_points_2d(3000, 12);
        let mut forest = LogarithmicKdForest::<2>::new();
        let ids: Vec<u64> = pts.iter().map(|p| forest.insert(*p)).collect();
        let mut single = DynamicKdTree::new(&pts, 0.7);
        // A third of the points die: below both rebuild thresholds, so the
        // descents must step over tombstones.
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let mut live: Vec<(u64, PointK<2>)> = Vec::new();
        for (i, &p) in pts.iter().enumerate() {
            if rng.gen_range(0..3u32) == 0 {
                assert!(forest.delete(ids[i]));
                assert!(single.delete(i as u64));
            } else {
                live.push((ids[i], p));
            }
        }
        for q in uniform_points_2d(200, 14) {
            let want = live_nearest_dist2(&live, &q);
            for (id, p) in [forest.nearest(&q), single.nearest(&q)]
                .into_iter()
                .flatten()
            {
                assert!(live.iter().any(|&(l, _)| l == id), "dead id {id} reported");
                assert_eq!(Some(p.dist2(&q)), want);
            }
        }
    }

    #[test]
    fn forest_nearest_reads_stay_sublinear() {
        let n = 20_000;
        let mut forest = LogarithmicKdForest::<2>::new();
        let ids: Vec<u64> = uniform_points_2d(n, 15)
            .iter()
            .map(|p| forest.insert(*p))
            .collect();
        for id in ids.iter().step_by(7) {
            forest.delete(*id);
        }
        for q in uniform_points_2d(20, 16) {
            let (nn, cost) =
                pwe_asym::cost::measure(pwe_asym::cost::Omega::new(1), || forest.nearest(&q));
            assert!(nn.is_some());
            assert!(cost.reads < n as u64 / 4, "{} reads at n = {n}", cost.reads);
        }
    }

    #[test]
    fn single_tree_insert_query_delete() {
        let initial = uniform_points_2d(400, 3);
        let mut dyn_tree = DynamicKdTree::new(&initial, 0.65);
        let mut reference: Vec<(u64, PointK<2>)> =
            (0..400u64).zip(initial.iter().copied()).collect();

        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        // Insert a skewed stream (all in one corner) to force rebuilds.
        for _ in 0..400 {
            let p = PointK::new([rng.gen_range(0.0..0.1), rng.gen_range(0.0..0.1)]);
            let id = dyn_tree.insert(p);
            reference.push((id, p));
        }
        assert!(
            dyn_tree.rebuilds > 0,
            "skewed insertions should trigger rebuilds"
        );
        assert_eq!(dyn_tree.len(), 800);
        // Height must stay logarithmic-ish despite the skew.
        assert!(
            dyn_tree.height() <= 24,
            "height {} too large after rebalancing",
            dyn_tree.height()
        );

        let query = BBoxK::new([0.0, 0.0], [0.15, 0.15]);
        let mut got: Vec<u64> = dyn_tree
            .range_query(&query)
            .iter()
            .map(|(id, _)| *id)
            .collect();
        got.sort_unstable();
        assert_eq!(got, brute_range(&reference, &query));

        // Delete everything in that corner and re-query.
        let corner_ids: Vec<u64> = brute_range(&reference, &query);
        for id in &corner_ids {
            assert!(dyn_tree.delete(*id));
        }
        let after = dyn_tree.range_query(&query);
        assert!(after.is_empty());
    }

    #[test]
    fn single_tree_from_empty() {
        let mut dyn_tree = DynamicKdTree::<2>::new(&[], 0.7);
        assert!(dyn_tree.is_empty());
        let id = dyn_tree.insert(PointK::new([0.5, 0.5]));
        assert_eq!(dyn_tree.len(), 1);
        assert_eq!(dyn_tree.nearest(&PointK::new([0.4, 0.4])).unwrap().0, id);
        assert!(dyn_tree.delete(id));
        assert!(dyn_tree.is_empty());
        assert!(!dyn_tree.delete(id));
    }

    #[test]
    fn single_tree_nearest_after_deletion() {
        let pts = uniform_points_2d(100, 9);
        let mut dyn_tree = DynamicKdTree::new(&pts, 0.7);
        let q = PointK::new([0.5, 0.5]);
        let (first_id, first_p) = dyn_tree.nearest(&q).unwrap();
        dyn_tree.delete(first_id);
        let (second_id, second_p) = dyn_tree.nearest(&q).unwrap();
        assert_ne!(first_id, second_id);
        assert!(second_p.dist2(&q) >= first_p.dist2(&q));
    }
}
