//! Priority search trees and 3-sided range queries (Sections 7.1–7.2).
//!
//! This is the paper's second variant of the priority search tree: a *heap*
//! on the priorities (`y`) in which every node is augmented with a splitter
//! on the coordinate (`x`) dimension.
//!
//! * [`PrioritySearchTree::build_classic`] is the textbook construction —
//!   `Θ(n log n)` reads and writes (it copies every point at every level).
//! * [`PrioritySearchTree::build_parallel`] is the post-sorted construction
//!   (Theorem 7.1) on the shared engine of [`crate::engine`]: it works on the
//!   x-sorted point list and finds, for every sub-range, the surviving point
//!   of maximum priority and the survivor median with validity-flag scans —
//!   `O(n)` writes after sorting — forking over disjoint coordinate ranges.
//!
//! Dynamic updates follow the reconstruction-based scheme: insertions sift
//! down by priority along the splitter path; deletions promote the
//! higher-priority child into the hole; and the whole structure is rebuilt
//! once the number of updates since the last construction exceeds the size
//! at construction — a simplification of the paper's per-subtree
//! α-labeled rebuilding.

use pwe_asym::counters::{record_read, record_reads, record_writes};
use pwe_asym::depth;
use pwe_geom::point::Point2;
use pwe_primitives::racecheck;

use crate::interval::f64_key;

const EMPTY: usize = usize::MAX;

/// A point with an identifier, as stored in the tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PsPoint {
    /// The point; `x` is the coordinate, `y` the priority.
    pub point: Point2,
    /// Caller-provided identifier.
    pub id: u64,
}

#[derive(Debug, Clone)]
struct PNode {
    /// The point stored at this node (the maximum-priority point of its
    /// range), if any.
    item: Option<PsPoint>,
    /// Coordinate splitter: left subtree holds x < splitter, right x ≥ splitter.
    splitter: f64,
    left: usize,
    right: usize,
    /// Number of points stored in this subtree.
    size: usize,
}

/// A priority search tree supporting 3-sided queries
/// (`x ∈ [x_lo, x_hi]`, `y ≥ y_bot`).
#[derive(Debug, Clone)]
pub struct PrioritySearchTree {
    nodes: Vec<PNode>,
    root: usize,
    len: usize,
    built_len: usize,
    updates_since_build: usize,
    /// Number of full reconstructions triggered by updates (diagnostic).
    pub rebuilds: u64,
}

impl PrioritySearchTree {
    /// The classic construction: recursively select the maximum-priority
    /// point and partition the rest around the median coordinate —
    /// `Θ(n log n)` reads and charged writes.  The implementation works in
    /// place over a single scratch buffer (no per-level `Vec`s) and splits
    /// **by index** around the `select_nth_unstable` pivot rather than by
    /// comparing against the splitter value: a value-based
    /// `partition(x < splitter)` sends every x-equal point right, so inputs
    /// with many duplicate coordinates used to degenerate into unbounded
    /// one-sided recursion (stack overflow at scale); the index split keeps
    /// the recursion balanced no matter how many coordinates coincide.
    pub fn build_classic(points: &[PsPoint]) -> Self {
        let mut tree = PrioritySearchTree {
            nodes: Vec::new(),
            root: EMPTY,
            len: points.len(),
            built_len: points.len(),
            updates_since_build: 0,
            rebuilds: 0,
        };
        tree.nodes.reserve(points.len());
        let mut buf = points.to_vec();
        tree.root = tree.build_classic_rec(&mut buf);
        depth::add(depth::log2_ceil(points.len().max(1)));
        tree
    }

    fn build_classic_rec(&mut self, points: &mut [PsPoint]) -> usize {
        if points.is_empty() {
            return EMPTY;
        }
        let m = points.len();
        record_reads(m as u64);
        record_writes(m as u64); // the classic build copies per level
        let best = points
            .iter()
            .enumerate()
            .max_by_key(|(_, p)| f64_key(p.point.y()))
            .map(|(i, _)| i)
            .unwrap();
        points.swap(best, m - 1);
        let item = points[m - 1];
        let (survivors, _) = points.split_at_mut(m - 1);
        let mid = survivors.len() / 2;
        let splitter = if survivors.is_empty() {
            item.point.x()
        } else {
            survivors.select_nth_unstable_by_key(mid, |p| f64_key(p.point.x()));
            survivors[mid].point.x()
        };
        let idx = self.nodes.len();
        self.nodes.push(PNode {
            item: Some(item),
            splitter,
            left: EMPTY,
            right: EMPTY,
            size: m,
        });
        // Index split: [..mid] left, [mid..] right (the pivot goes right,
        // matching the `x ≥ splitter ⇒ right` search convention).
        let (left, right) = survivors.split_at_mut(mid);
        let l = self.build_classic_rec(left);
        let r = self.build_classic_rec(right);
        self.nodes[idx].left = l;
        self.nodes[idx].right = r;
        idx
    }

    /// The post-sorted construction (Theorem 7.1) on the shared parallel
    /// engine of [`crate::engine`]: sort by x once, then build the
    /// heap-with-splitters in place over the x-sorted buffer.  Each
    /// recursion step selects the surviving maximum-priority point and the
    /// survivor median with validity-flag scans (`O(width)` reads, `O(1)`
    /// writes per node), so disjoint coordinate ranges touch disjoint state
    /// and the recursion forks with `par_join` over disjoint `&mut` regions
    /// of a pre-sized preorder node arena (subtree root at the region base,
    /// the left subtree's `⌊(c-1)/2⌋` slots immediately after).
    /// `O(n log n)` reads, `O(n)` writes after the sort, identical arena at
    /// every thread count.
    pub fn build_parallel(points: &[PsPoint]) -> Self {
        Self::build_parallel_with_stats(points).0
    }

    /// [`PrioritySearchTree::build_parallel`] plus build statistics
    /// (budgeted at [`crate::engine::build_scratch_budget`]).
    pub fn build_parallel_with_stats(points: &[PsPoint]) -> (Self, crate::engine::AugBuildStats) {
        let mut tree = PrioritySearchTree {
            nodes: Vec::new(),
            root: EMPTY,
            len: points.len(),
            built_len: points.len(),
            updates_since_build: 0,
            rebuilds: 0,
        };
        let n = points.len();
        if n == 0 {
            return (tree, crate::engine::AugBuildStats::default());
        }
        let ledger =
            pwe_asym::smallmem::SmallMem::with_budget(crate::engine::build_scratch_budget(n));
        // Sort by x (write-efficient sort costs: n log n reads, n writes).
        let mut sorted: Vec<PsPoint> = points.to_vec();
        sorted.sort_by_key(|p| f64_key(p.point.x()));
        record_reads(n as u64 * depth::log2_ceil(n.max(2)));
        record_writes(n as u64);
        // Validity flags are the only mutable shared state; they split along
        // the same coordinate ranges as the node arena.
        let mut valid = vec![true; n];
        record_writes(n as u64);
        let mut nodes = vec![
            PNode {
                item: None,
                splitter: 0.0,
                left: EMPTY,
                right: EMPTY,
                size: 0,
            };
            n
        ];
        build_par_rec(&sorted, 0, &mut valid, &mut nodes, 0, n, 0, &ledger);
        tree.nodes = nodes;
        tree.root = 0;
        depth::add(2 * depth::log2_ceil(n.max(2)));
        let stats = crate::engine::AugBuildStats {
            nodes: n,
            aug_len: 0,
            scratch: ledger.report(),
        };
        (tree, stats)
    }

    /// Deterministic fingerprint of the arena layout (items, splitters,
    /// child indices and sizes in slot order).  Diagnostic: uncharged; used
    /// by `tests/parallel_stress.rs`.
    pub fn layout_digest(&self) -> u64 {
        let mut d = crate::engine::Digest::new();
        d.word(crate::engine::digest_idx(self.root));
        for node in &self.nodes {
            match node.item {
                Some(p) => {
                    d.word(f64_key(p.point.x()));
                    d.word(f64_key(p.point.y()));
                    d.word(p.id);
                }
                None => d.word(u64::MAX),
            }
            d.word(f64_key(node.splitter));
            d.word(crate::engine::digest_idx(node.left));
            d.word(crate::engine::digest_idx(node.right));
            d.word(node.size as u64);
        }
        d.finish()
    }

    /// Number of points stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height of the tree (diagnostic).
    pub fn height(&self) -> usize {
        fn rec(nodes: &[PNode], v: usize) -> usize {
            if v == EMPTY {
                0
            } else {
                1 + rec(nodes, nodes[v].left).max(rec(nodes, nodes[v].right))
            }
        }
        rec(&self.nodes, self.root)
    }

    /// 3-sided query: ids of all points with `x ∈ [x_lo, x_hi]` and
    /// `y ≥ y_bot`, in ascending id order.
    pub fn query_3sided(&self, x_lo: f64, x_hi: f64, y_bot: f64) -> Vec<u64> {
        let mut out = Vec::new();
        let scratch = &mut pwe_asym::smallmem::TaskScratch::untracked();
        self.query_3sided_into(x_lo, x_hi, y_bot, scratch, &mut out);
        out.sort_unstable();
        out
    }

    /// The 3-sided reporter: appends the ids of all points with
    /// `x ∈ [x_lo, x_hi]` and `y ≥ y_bot` to `out` in walk order
    /// (unsorted), charging the recursion frames — one word each, peak
    /// `O(height)` = `O(log n)` on a post-sorted tree — against a
    /// small-memory ledger via `scratch`.  The reported ids are output
    /// writes to the large memory, not scratch.  The walk's reads — one per
    /// visited node, `O(log n + k)` — are charged once, when it ends.
    ///
    /// The descent walks the preorder arena directly: it is already
    /// DFS-local, and a vEB-blocked copy measured ~0.95× (`range3sided` row
    /// of `BENCH_queries.json`).
    pub fn query_3sided_into(
        &self,
        x_lo: f64,
        x_hi: f64,
        y_bot: f64,
        scratch: &mut pwe_asym::smallmem::TaskScratch<'_>,
        out: &mut Vec<u64>,
    ) {
        let start = out.len();
        let mut visited = 0u64;
        self.query_rec(
            self.root,
            x_lo,
            x_hi,
            y_bot,
            f64::NEG_INFINITY,
            f64::INFINITY,
            out,
            scratch,
            &mut visited,
        );
        record_reads(visited);
        record_writes((out.len() - start) as u64);
    }

    #[allow(clippy::too_many_arguments)]
    fn query_rec(
        &self,
        v: usize,
        x_lo: f64,
        x_hi: f64,
        y_bot: f64,
        range_lo: f64,
        range_hi: f64,
        out: &mut Vec<u64>,
        scratch: &mut pwe_asym::smallmem::TaskScratch<'_>,
        visited: &mut u64,
    ) {
        if v == EMPTY || range_lo > x_hi || range_hi < x_lo {
            return;
        }
        scratch.alloc(1);
        *visited += 1;
        let node = &self.nodes[v];
        // Heap order: if even this subtree's best priority is below the
        // threshold, nothing below can qualify.
        if let Some(item) = node.item.filter(|item| item.point.y() >= y_bot) {
            if item.point.x() >= x_lo && item.point.x() <= x_hi {
                out.push(item.id);
            }
            self.query_rec(
                node.left,
                x_lo,
                x_hi,
                y_bot,
                range_lo,
                node.splitter,
                out,
                scratch,
                visited,
            );
            self.query_rec(
                node.right,
                x_lo,
                x_hi,
                y_bot,
                node.splitter,
                range_hi,
                out,
                scratch,
                visited,
            );
        }
        scratch.free(1);
    }

    /// Insert a point: sift down by priority along the splitter path
    /// (`O(log n)` reads, `O(1)` amortized structural writes plus the swaps).
    pub fn insert(&mut self, p: PsPoint) {
        self.len += 1;
        self.updates_since_build += 1;
        if self.root == EMPTY {
            self.root = self.nodes.len();
            self.nodes.push(PNode {
                item: Some(p),
                splitter: p.point.x(),
                left: EMPTY,
                right: EMPTY,
                size: 1,
            });
            record_writes(1);
            return;
        }
        let mut carried = p;
        let mut v = self.root;
        loop {
            record_read();
            self.nodes[v].size += 1;
            let node_item = self.nodes[v].item;
            match node_item {
                None => {
                    self.nodes[v].item = Some(carried);
                    record_writes(1);
                    break;
                }
                Some(existing) => {
                    // Keep the higher-priority point here, push the other down.
                    if carried.point.y() > existing.point.y() {
                        self.nodes[v].item = Some(carried);
                        record_writes(1);
                        carried = existing;
                    }
                    let splitter = self.nodes[v].splitter;
                    let child = if carried.point.x() < splitter {
                        self.nodes[v].left
                    } else {
                        self.nodes[v].right
                    };
                    if child == EMPTY {
                        let idx = self.nodes.len();
                        self.nodes.push(PNode {
                            item: Some(carried),
                            splitter: carried.point.x(),
                            left: EMPTY,
                            right: EMPTY,
                            size: 1,
                        });
                        record_writes(2);
                        if carried.point.x() < splitter {
                            self.nodes[v].left = idx;
                        } else {
                            self.nodes[v].right = idx;
                        }
                        break;
                    }
                    v = child;
                }
            }
        }
        self.maybe_rebuild();
    }

    /// Delete a point by id and coordinates.  Returns whether it was found.
    pub fn delete(&mut self, p: &PsPoint) -> bool {
        let Some(v) = self.find_node(self.root, p) else {
            return false;
        };
        self.len -= 1;
        self.updates_since_build += 1;
        // Promote the higher-priority child into the hole, repeatedly.
        let mut hole = v;
        loop {
            record_read();
            let (l, r) = (self.nodes[hole].left, self.nodes[hole].right);
            let left_item = (l != EMPTY).then(|| self.nodes[l].item).flatten();
            let right_item = (r != EMPTY).then(|| self.nodes[r].item).flatten();
            let promote_from = match (left_item, right_item) {
                (None, None) => {
                    self.nodes[hole].item = None;
                    record_writes(1);
                    break;
                }
                (Some(_), None) => l,
                (None, Some(_)) => r,
                (Some(a), Some(b)) => {
                    if a.point.y() >= b.point.y() {
                        l
                    } else {
                        r
                    }
                }
            };
            self.nodes[hole].item = self.nodes[promote_from].item;
            record_writes(1);
            hole = promote_from;
        }
        self.maybe_rebuild();
        true
    }

    fn find_node(&self, v: usize, p: &PsPoint) -> Option<usize> {
        if v == EMPTY {
            return None;
        }
        record_read();
        let node = &self.nodes[v];
        let item = node.item?;
        // Heap order: the target cannot be below a node with lower priority.
        if item.point.y() < p.point.y() {
            return None;
        }
        if item.id == p.id && item.point == p.point {
            return Some(v);
        }
        if p.point.x() < node.splitter {
            self.find_node(node.left, p)
                .or_else(|| self.find_node(node.right, p))
        } else {
            self.find_node(node.right, p)
                .or_else(|| self.find_node(node.left, p))
        }
    }

    /// Every live point currently stored (used by rebuilds and tests).
    pub fn collect_all(&self) -> Vec<PsPoint> {
        fn rec(nodes: &[PNode], v: usize, out: &mut Vec<PsPoint>) {
            if v == EMPTY {
                return;
            }
            if let Some(item) = nodes[v].item {
                out.push(item);
            }
            rec(nodes, nodes[v].left, out);
            rec(nodes, nodes[v].right, out);
        }
        let mut out = Vec::new();
        rec(&self.nodes, self.root, &mut out);
        out
    }

    fn maybe_rebuild(&mut self) {
        if self.updates_since_build > self.built_len.max(16) {
            let points = self.collect_all();
            record_reads(points.len() as u64);
            *self = PrioritySearchTree::build_parallel(&points);
            self.rebuilds += 1;
        }
    }
}

/// One step of the parallel construction over the position range
/// `[pos_lo, pos_lo + valid.len())` holding exactly `count` surviving
/// points: scan for the surviving maximum-priority point (ties break toward
/// the smaller position), retire it, find the survivor median by rank, and
/// fork the halves over disjoint `&mut` flag/arena regions.
#[allow(clippy::too_many_arguments)]
fn build_par_rec(
    sorted: &[PsPoint],
    pos_lo: usize,
    valid: &mut [bool],
    nodes: &mut [PNode],
    node_base: usize,
    count: usize,
    level: u64,
    ledger: &pwe_asym::smallmem::SmallMem,
) {
    debug_assert_eq!(nodes.len(), count);
    if count == 0 {
        return;
    }
    let width = valid.len();
    record_reads(width as u64);
    let mut best: Option<(u64, usize)> = None;
    for (j, &v) in valid.iter().enumerate() {
        if v {
            let k = f64_key(sorted[pos_lo + j].point.y());
            if best.is_none_or(|(bk, _)| k > bk) {
                best = Some((k, j));
            }
        }
    }
    let (_, best) = best.expect("count > 0 means a survivor exists");
    valid[best] = false;
    record_writes(1);
    let item = sorted[pos_lo + best];
    let remaining = count - 1;
    if remaining == 0 {
        nodes[0] = PNode {
            item: Some(item),
            splitter: item.point.x(),
            left: EMPTY,
            right: EMPTY,
            size: 1,
        };
        record_writes(1);
        ledger.observe_task(level + 4);
        return;
    }
    // The survivor of rank `mid_rank` (by position, i.e. by x) is the
    // median; survivors strictly before it go left.
    let mid_rank = remaining / 2;
    record_reads(width as u64);
    let mut seen = 0usize;
    let mut median_rel = usize::MAX;
    for (j, &v) in valid.iter().enumerate() {
        if v {
            if seen == mid_rank {
                median_rel = j;
                break;
            }
            seen += 1;
        }
    }
    debug_assert_ne!(median_rel, usize::MAX);
    let splitter = sorted[pos_lo + median_rel].point.x();
    let left_count = mid_rank;
    let right_count = remaining - mid_rank;
    nodes[0] = PNode {
        item: Some(item),
        splitter,
        left: if left_count > 0 { node_base + 1 } else { EMPTY },
        right: if right_count > 0 {
            node_base + 1 + left_count
        } else {
            EMPTY
        },
        size: count,
    };
    record_writes(1);
    let (lvalid, rvalid) = valid.split_at_mut(median_rel);
    let (_, rest) = nodes.split_first_mut().expect("count > 0");
    let (lnodes, rnodes) = rest.split_at_mut(left_count);
    // racecheck: when the fork is real, each arm claims both of the disjoint
    // regions it owns (its validity window and its node arena slice).
    let forked = count > crate::engine::SEQUENTIAL_BUILD_CUTOFF;
    crate::engine::join_grain(
        count,
        || {
            let _claims = forked.then(|| {
                (
                    racecheck::claim_slice(&*lvalid, "priority::build_par_rec/left_valid"),
                    racecheck::claim_slice(&*lnodes, "priority::build_par_rec/left_nodes"),
                )
            });
            build_par_rec(
                sorted,
                pos_lo,
                lvalid,
                lnodes,
                node_base + 1,
                left_count,
                level + 1,
                ledger,
            )
        },
        || {
            let _claims = forked.then(|| {
                (
                    racecheck::claim_slice(&*rvalid, "priority::build_par_rec/right_valid"),
                    racecheck::claim_slice(&*rnodes, "priority::build_par_rec/right_nodes"),
                )
            });
            build_par_rec(
                sorted,
                pos_lo + median_rel,
                rvalid,
                rnodes,
                node_base + 1 + left_count,
                right_count,
                level + 1,
                ledger,
            )
        },
    );
}

/// Brute-force 3-sided query used as the tests' oracle.
pub fn three_sided_bruteforce(points: &[PsPoint], x_lo: f64, x_hi: f64, y_bot: f64) -> Vec<u64> {
    let mut ids: Vec<u64> = points
        .iter()
        .filter(|p| p.point.x() >= x_lo && p.point.x() <= x_hi && p.point.y() >= y_bot)
        .map(|p| p.id)
        .collect();
    ids.sort_unstable();
    ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use pwe_asym::cost::{measure, Omega};
    use pwe_geom::generators::{random_three_sided_queries, uniform_points_2d};

    fn make_points(n: usize, seed: u64) -> Vec<PsPoint> {
        uniform_points_2d(n, seed)
            .into_iter()
            .enumerate()
            .map(|(i, point)| PsPoint {
                point,
                id: i as u64,
            })
            .collect()
    }

    #[test]
    fn both_constructions_answer_identically() {
        let points = make_points(600, 1);
        let classic = PrioritySearchTree::build_classic(&points);
        let parallel = PrioritySearchTree::build_parallel(&points);
        for &(lo, hi, y) in &random_three_sided_queries(100, 0.4, 2) {
            let expected = three_sided_bruteforce(&points, lo, hi, y);
            assert_eq!(classic.query_3sided(lo, hi, y), expected);
            assert_eq!(parallel.query_3sided(lo, hi, y), expected);
        }
    }

    #[test]
    fn duplicate_x_inputs_stay_balanced() {
        // Regression: the value-based partition used to send every x-equal
        // point right, so an all-equal-x input recursed once per point
        // (unbounded one-sided recursion).  The index split keeps the
        // recursion balanced: height O(log n) and queries stay exact.
        let n = 4096usize;
        let points: Vec<PsPoint> = (0..n)
            .map(|i| PsPoint {
                point: Point2::xy(0.5, (i as f64 * 0.37) % 1.0),
                id: i as u64,
            })
            .collect();
        for tree in [
            PrioritySearchTree::build_classic(&points),
            PrioritySearchTree::build_parallel(&points),
        ] {
            assert!(
                tree.height() <= 2 * 12 + 4,
                "all-equal-x build must stay balanced, got height {}",
                tree.height()
            );
            assert_eq!(
                tree.query_3sided(0.0, 1.0, 0.9),
                three_sided_bruteforce(&points, 0.0, 1.0, 0.9)
            );
            assert_eq!(
                tree.query_3sided(0.6, 1.0, 0.0),
                Vec::<u64>::new(),
                "no point has x > 0.5"
            );
        }
    }

    #[test]
    fn parallel_build_writes_fewer_than_classic() {
        let points = make_points(20_000, 3);
        let (_, classic) = measure(Omega::symmetric(), || {
            PrioritySearchTree::build_classic(&points)
        });
        let (_, parallel) = measure(Omega::symmetric(), || {
            PrioritySearchTree::build_parallel(&points)
        });
        assert!(
            parallel.writes < classic.writes,
            "engine construction should write less: {} vs {}",
            parallel.writes,
            classic.writes
        );
    }

    #[test]
    fn parallel_build_is_balanced_and_supports_updates() {
        let points = make_points(4096, 5);
        let (tree, stats) = PrioritySearchTree::build_parallel_with_stats(&points);
        assert!(stats.scratch.within_budget(), "{:?}", stats.scratch);
        assert!(tree.height() <= 16, "height {} too large", tree.height());

        let mut tree = PrioritySearchTree::build_parallel(&points[..300]);
        let mut reference: Vec<PsPoint> = points[..300].to_vec();
        for (i, p) in make_points(300, 6).into_iter().enumerate() {
            let p = PsPoint {
                point: p.point,
                id: 5000 + i as u64,
            };
            tree.insert(p);
            reference.push(p);
        }
        for &(lo, hi, y) in &random_three_sided_queries(50, 0.3, 7) {
            assert_eq!(
                tree.query_3sided(lo, hi, y),
                three_sided_bruteforce(&reference, lo, hi, y)
            );
        }
    }

    #[test]
    fn empty_and_single() {
        let empty = PrioritySearchTree::build_parallel(&[]);
        assert!(empty.is_empty());
        assert!(empty.query_3sided(0.0, 1.0, 0.0).is_empty());

        let single = vec![PsPoint {
            point: Point2::xy(0.5, 0.5),
            id: 9,
        }];
        let tree = PrioritySearchTree::build_parallel(&single);
        assert_eq!(tree.query_3sided(0.0, 1.0, 0.0), vec![9]);
        assert_eq!(tree.query_3sided(0.0, 1.0, 0.6), Vec::<u64>::new());
        assert_eq!(tree.query_3sided(0.6, 1.0, 0.0), Vec::<u64>::new());
    }

    #[test]
    fn dynamic_updates_match_bruteforce() {
        let initial = make_points(300, 7);
        let mut tree = PrioritySearchTree::build_parallel(&initial);
        let mut reference = initial.clone();
        // Insert 300 more.
        for (i, p) in make_points(300, 8).into_iter().enumerate() {
            let p = PsPoint {
                point: p.point,
                id: 1000 + i as u64,
            };
            tree.insert(p);
            reference.push(p);
        }
        for &(lo, hi, y) in &random_three_sided_queries(50, 0.3, 9) {
            assert_eq!(
                tree.query_3sided(lo, hi, y),
                three_sided_bruteforce(&reference, lo, hi, y)
            );
        }
        // Delete the original 300.
        for p in &initial {
            assert!(tree.delete(p), "delete id {}", p.id);
        }
        reference.retain(|p| p.id >= 1000);
        assert_eq!(tree.len(), 300);
        for &(lo, hi, y) in &random_three_sided_queries(50, 0.3, 10) {
            assert_eq!(
                tree.query_3sided(lo, hi, y),
                three_sided_bruteforce(&reference, lo, hi, y)
            );
        }
        assert!(!tree.delete(&initial[0]), "double delete must fail");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_query_matches_bruteforce(
            n in 0usize..300,
            seed in 0u64..50,
            lo in 0.0f64..0.8,
            width in 0.05f64..0.5,
            y in 0.0f64..1.0,
        ) {
            let points = make_points(n, seed);
            let tree = PrioritySearchTree::build_parallel(&points);
            prop_assert_eq!(
                tree.query_3sided(lo, lo + width, y),
                three_sided_bruteforce(&points, lo, lo + width, y)
            );
        }
    }
}
