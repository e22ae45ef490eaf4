//! k-d tree construction: the classic median-split baseline and the paper's
//! write-efficient p-batched incremental construction (Section 6.1).
//!
//! pwe-lint: deny-untracked-alloc

use rayon::prelude::*;

use pwe_asym::counters::{record_read, record_reads, record_writes};
use pwe_asym::depth::{self, RoundDepth};
use pwe_asym::parallel::par_join;
use pwe_asym::smallmem::{ScratchReport, SmallMem, TaskScratch};
use pwe_geom::point::PointK;
use pwe_primitives::permute::random_permutation;
use pwe_primitives::semisort::semisort_by_key;
use pwe_trace::prefix::prefix_doubling_rounds;

use crate::tree::{KdNode, KdTree, EMPTY};

/// Default leaf bucket capacity of the finished tree (both builders).
pub const DEFAULT_LEAF_CAPACITY: usize = 16;

/// Small-memory budget constant for the classic builder: its per-task
/// scratch is one `O(1)`-word partition frame per recursion level, so
/// `6·log₂ n` words bounds it with slack (the in-place median select needs
/// no per-element scratch).
pub const CLASSIC_SCRATCH_C: u64 = 6;

/// Small-memory budget for the p-batched builder, in words: Section 6.1's
/// stated exception to the `O(log n)` default is that each task gets `Ω(p)`
/// symmetric words (the settle/flush buffers are split *inside* small
/// memory).  A settle holds its own buffer plus the overflowing child's
/// along one recursion path, hence the factor 4; the additive term covers
/// frame bookkeeping at tiny `p`.
pub fn p_batched_scratch_budget(p: usize) -> u64 {
    4 * p as u64 + 64
}

/// Regions at or below this size are built without forking.  Now that
/// `par_join` really pushes its second branch to the work-stealing pool, a
/// fork per tree node down to 16-point leaves would spend more time on deque
/// traffic than on median selection; stopping the forking a few levels above
/// the leaves leaves ~`n / 2048` stealable tasks, plenty for any realistic
/// worker count, while the subtrees below the cutoff stay single-task.
const SEQUENTIAL_BUILD_CUTOFF: usize = 2048;

/// Statistics reported by the builders.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BuildStats {
    /// Height of the finished tree.
    pub height: usize,
    /// Number of allocated tree nodes.
    pub nodes: usize,
    /// Number of prefix-doubling rounds (1 for the classic builder).
    pub rounds: usize,
    /// Number of leaf settles performed during the incremental rounds.
    pub settles: usize,
    /// Largest buffer observed when a leaf was settled.
    pub max_buffer: usize,
    /// Small-memory ledger snapshot: largest per-task symmetric scratch used
    /// (recursion frames for the classic build; settle/flush buffers, capped
    /// by the `Ω(p)` exception of Section 6.1, for the p-batched build).
    pub scratch: ScratchReport,
}

/// The paper's recommended buffer size for range queries: `p = Θ(log³ n)`
/// (Lemma 6.2).  For ANN-only workloads `Θ(log n)` suffices.
pub fn recommended_p(n: usize) -> usize {
    let log = depth::log2_ceil(n.max(2)) as usize;
    (log * log * log).max(8)
}

/// Classic k-d tree construction: split at the exact median of the points in
/// the region, cycling through the dimensions.  `Θ(n log n)` reads **and
/// writes** — this is the write-inefficient baseline of experiment E-kd.
pub fn build_classic<const K: usize>(points: &[PointK<K>], leaf_capacity: usize) -> KdTree<K> {
    build_classic_with_stats(points, leaf_capacity).0
}

/// [`build_classic`] plus statistics.
pub fn build_classic_with_stats<const K: usize>(
    points: &[PointK<K>],
    leaf_capacity: usize,
) -> (KdTree<K>, BuildStats) {
    // alloc: large-mem — the tree's owned point copy (write charged on the next line)
    let mut tree = KdTree::empty(points.to_vec(), leaf_capacity);
    record_writes(points.len() as u64); // materialize the owned copy
    let ledger = SmallMem::logarithmic(points.len(), CLASSIC_SCRATCH_C);
    // alloc: large-mem — index arena, one u32 per point (partition writes charged per level)
    let mut idxs: Vec<u32> = (0..points.len() as u32).collect();
    if !idxs.is_empty() {
        let (nodes, root) = build_rec(points, &mut idxs, 0, leaf_capacity.max(1), true, &ledger, 0);
        tree.nodes = nodes;
        tree.root = root;
    }
    depth::add(depth::log2_ceil(points.len().max(1)));
    let stats = BuildStats {
        height: tree.height(),
        nodes: tree.node_count(),
        rounds: 1,
        settles: 0,
        max_buffer: 0,
        scratch: ledger.report(),
    };
    (tree, stats)
}

/// Recursive median-split build over `idxs`, returning a locally-indexed node
/// arena and the root's local index.
///
/// When `charge_full_writes` is true every partition level charges a write
/// per point (the classic algorithm); when false the splitting is assumed to
/// happen inside the `Ω(p)`-word small memory (the final settle of the
/// p-batched construction) and only the emitted leaf buckets are charged.
///
/// `base_words` is the scratch the calling task already holds (the flush
/// buffer during the small-memory final build, 0 for the classic build);
/// each leaf folds `base_words` plus its chain's recursion frames into the
/// ledger, so the recorded high-water is the true per-task peak.
fn build_rec<const K: usize>(
    points: &[PointK<K>],
    idxs: &mut [u32],
    depth_level: usize,
    leaf_capacity: usize,
    charge_full_writes: bool,
    ledger: &SmallMem,
    base_words: u64,
) -> (Vec<KdNode>, usize) {
    let n = idxs.len();
    if n <= leaf_capacity {
        let mut leaf = KdNode::leaf();
        // alloc: large-mem — leaf bucket materialization (n writes recorded below)
        leaf.bucket = idxs.to_vec();
        leaf.size = n;
        ledger.observe_task(base_words + depth_level as u64 + 2);
        record_writes(n as u64);
        // alloc: large-mem — single-leaf local arena
        return (vec![leaf], 0);
    }
    let dim = depth_level % K;
    let mid = n / 2;
    // Exact median selection along `dim`.
    record_reads(n as u64);
    idxs.select_nth_unstable_by(mid, |&a, &b| {
        points[a as usize].coords[dim]
            .partial_cmp(&points[b as usize].coords[dim])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let split_val = points[idxs[mid] as usize].coords[dim];
    if charge_full_writes {
        record_writes(n as u64);
    }
    let (left_idxs, right_idxs) = idxs.split_at_mut(mid);
    // The two halves touch disjoint `idxs` ranges and only read `points`
    // (`PointK` is plain `Copy` data, so `&[PointK<K>]` is `Sync`); the
    // branches are safe to run on different OS threads.
    let ((left_nodes, left_root), (right_nodes, right_root)) = if n > SEQUENTIAL_BUILD_CUTOFF {
        // racecheck: each arm claims its half of the shared index arena
        // before recursing; the sanitizer panics if the halves ever overlap.
        par_join(
            || {
                let _claim =
                    pwe_primitives::racecheck::claim_slice(&*left_idxs, "kdtree::build_rec/left");
                build_rec(
                    points,
                    left_idxs,
                    depth_level + 1,
                    leaf_capacity,
                    charge_full_writes,
                    ledger,
                    base_words,
                )
            },
            || {
                let _claim =
                    pwe_primitives::racecheck::claim_slice(&*right_idxs, "kdtree::build_rec/right");
                build_rec(
                    points,
                    right_idxs,
                    depth_level + 1,
                    leaf_capacity,
                    charge_full_writes,
                    ledger,
                    base_words,
                )
            },
        )
    } else {
        (
            build_rec(
                points,
                left_idxs,
                depth_level + 1,
                leaf_capacity,
                charge_full_writes,
                ledger,
                base_words,
            ),
            build_rec(
                points,
                right_idxs,
                depth_level + 1,
                leaf_capacity,
                charge_full_writes,
                ledger,
                base_words,
            ),
        )
    };

    // Merge the two locally-indexed arenas under a fresh parent.
    let mut nodes = left_nodes;
    let offset = nodes.len();
    nodes.extend(right_nodes.into_iter().map(|mut node| {
        if node.left != EMPTY {
            node.left += offset;
        }
        if node.right != EMPTY {
            node.right += offset;
        }
        node
    }));
    let parent = KdNode {
        split_dim: dim,
        split_val,
        left: left_root,
        right: right_root + offset,
        // alloc: none — Vec::new is zero-capacity (interior nodes hold no bucket)
        bucket: Vec::new(),
        size: n,
    };
    record_writes(1);
    let parent_idx = nodes.len();
    nodes.push(parent);
    (nodes, parent_idx)
}

/// The p-batched incremental construction (Section 6.1, Theorem 6.1).
///
/// Points are inserted in prefix-doubling rounds (`log_power = 1`, i.e. the
/// initial round holds `n / log n` points).  Within a round every new point
/// *locates* its leaf (reads only), the points are grouped by leaf with a
/// semisort, appended to the leaf buffers, and the buffers that overflowed
/// `p` are settled by splitting at the median of their buffered sample.
/// After the last round, every non-empty buffer is flushed into a final
/// subtree built inside the `Ω(p)`-word small memory.
///
/// Expected cost: `O(n log n)` reads, `O(n)` writes, `O(log² n)` depth, and a
/// tree height of `log₂ n + O(1)` whp when `p = Ω(log³ n)`.
pub fn build_p_batched<const K: usize>(
    points: &[PointK<K>],
    p: usize,
    leaf_capacity: usize,
    seed: u64,
) -> (KdTree<K>, BuildStats) {
    let n = points.len();
    let p = p.max(2);
    let leaf_capacity = leaf_capacity.max(1);
    let mut stats = BuildStats::default();
    if n == 0 {
        // alloc: none — empty tree, zero-capacity point store
        return (KdTree::empty(Vec::new(), leaf_capacity), stats);
    }

    // Random insertion order (required by the analysis).
    let perm = random_permutation(n, seed);
    // alloc: large-mem — the randomized insertion order (n writes recorded below)
    let ordered: Vec<PointK<K>> = perm.iter().map(|&i| points[i]).collect();
    record_writes(n as u64);

    let schedule = prefix_doubling_rounds(n, 1);
    stats.rounds = schedule.rounds().len();

    // The Ω(p) small-memory exception of Section 6.1: settle and flush
    // buffers are partitioned inside the task's symmetric memory.
    let ledger = SmallMem::with_budget(p_batched_scratch_budget(p));

    // Initial round: classic construction on the small prefix, but with leaf
    // capacity p so the later rounds have buffers to fill.
    let initial = schedule.rounds()[0];
    let mut tree = KdTree::empty(ordered.clone(), leaf_capacity);
    {
        // alloc: large-mem — initial-round index arena
        let mut idxs: Vec<u32> = (initial.start as u32..initial.end as u32).collect();
        let (nodes, root) = build_rec(&ordered, &mut idxs, 0, p, true, &ledger, 0);
        tree.nodes = nodes;
        tree.root = root;
    }
    depth::add(depth::log2_ceil(initial.len().max(1)));

    // Incremental rounds.
    for round in schedule.rounds().iter().skip(1) {
        // alloc: large-mem — this round's batch of point indices
        let batch: Vec<u32> = (round.start as u32..round.end as u32).collect();

        // Step 1 (reads only, parallel): locate the leaf of every new point.
        let locate_depth = RoundDepth::new();
        let located: Vec<(usize, u32)> = batch
            .par_iter()
            .map(|&pi| {
                // Each locate task holds O(1) words of descent registers.
                let mut scratch = TaskScratch::new(&ledger);
                scratch.alloc(2);
                let (leaf, visited) = locate_leaf(&tree, &ordered[pi as usize]);
                locate_depth.record(visited);
                (leaf, pi)
            })
            // alloc: large-mem — (leaf, point) locate results, one record per batch point
            .collect();
        locate_depth.commit();

        // Step 2: group by destination leaf (semisort, expected linear writes).
        let groups = semisort_by_key(&located, |(leaf, _)| *leaf);

        // Step 3: append to the buffers and settle overflowing leaves.
        let settle_depth = RoundDepth::new();
        for group in groups {
            let leaf = group.key;
            record_writes(group.items.len() as u64);
            tree.nodes[leaf]
                .bucket
                .extend(group.items.iter().map(|(_, pi)| *pi));
            stats.max_buffer = stats.max_buffer.max(tree.nodes[leaf].bucket.len());
            let mut scratch = TaskScratch::new(&ledger);
            settle_overflowing(
                &mut tree,
                &ordered,
                leaf,
                p,
                0,
                &mut stats,
                &settle_depth,
                &mut scratch,
            );
        }
        settle_depth.commit();
    }

    // Final phase: flush every non-empty buffer into a subtree built in small
    // memory (reads proportional to b log b, writes proportional to b).
    let final_depth = RoundDepth::new();
    let leaves_with_buffers: Vec<usize> = (0..tree.nodes.len())
        .filter(|&v| tree.nodes[v].is_leaf() && tree.nodes[v].bucket.len() > leaf_capacity)
        // alloc: large-mem — ids of leaves with oversized buffers
        .collect();
    for leaf in leaves_with_buffers {
        let mut bucket = std::mem::take(&mut tree.nodes[leaf].bucket);
        record_reads(bucket.len() as u64 * depth::log2_ceil(bucket.len().max(2)));
        final_depth.record(depth::log2_ceil(bucket.len().max(1)));
        // The whole buffer (≤ p entries by now) is split inside the task's
        // Ω(p)-word small memory; only the emitted leaves are charged as
        // large-memory writes.
        let mut scratch = TaskScratch::new(&ledger);
        let bucket_words = bucket.len() as u64;
        scratch.alloc(bucket_words);
        let (nodes, local_root) = build_rec(
            &ordered,
            &mut bucket,
            0,
            leaf_capacity,
            false,
            &ledger,
            bucket_words,
        );
        graft(&mut tree, leaf, nodes, local_root);
    }
    final_depth.commit();

    recompute_sizes(&mut tree);
    stats.height = tree.height();
    stats.nodes = tree.node_count();
    stats.scratch = ledger.report();
    (tree, stats)
}

/// Walk from the root to the leaf whose region contains `q`.
/// Returns the leaf's node index and the number of nodes visited.
pub(crate) fn locate_leaf<const K: usize>(tree: &KdTree<K>, q: &PointK<K>) -> (usize, u64) {
    let mut v = tree.root;
    let mut visited = 0u64;
    loop {
        visited += 1;
        record_read();
        let node = &tree.nodes[v];
        if node.is_leaf() {
            return (v, visited);
        }
        v = if q.coords[node.split_dim] < node.split_val {
            node.left
        } else {
            node.right
        };
    }
}

/// Settle `leaf` if its buffer exceeds `p`: split it at the median of its
/// buffered sample and recurse into any child that still overflows
/// (Lemma 6.3 shows this recursion terminates after O(1) levels whp).
///
/// The buffered sample is split inside the settle task's `Ω(p)`-word small
/// memory (`scratch` charges it; the recursion path holds at most the buffer
/// plus one overflowing child's buffer at a time).
#[allow(clippy::too_many_arguments)]
fn settle_overflowing<const K: usize>(
    tree: &mut KdTree<K>,
    points: &[PointK<K>],
    leaf: usize,
    p: usize,
    depth_level: usize,
    stats: &mut BuildStats,
    settle_depth: &RoundDepth,
    scratch: &mut TaskScratch<'_>,
) {
    if tree.nodes[leaf].bucket.len() <= p {
        return;
    }
    stats.settles += 1;
    stats.max_buffer = stats.max_buffer.max(tree.nodes[leaf].bucket.len());
    let mut bucket = std::mem::take(&mut tree.nodes[leaf].bucket);
    scratch.alloc(bucket.len() as u64);
    let dim = depth_level % K;
    let mid = bucket.len() / 2;
    record_reads(bucket.len() as u64);
    bucket.select_nth_unstable_by(mid, |&a, &b| {
        points[a as usize].coords[dim]
            .partial_cmp(&points[b as usize].coords[dim])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let split_val = points[bucket[mid] as usize].coords[dim];
    let (left_bucket, right_bucket) = bucket.split_at(mid);
    record_writes(bucket.len() as u64);

    let mut left_node = KdNode::leaf();
    // alloc: large-mem — settled left bucket (split writes recorded above)
    left_node.bucket = left_bucket.to_vec();
    let mut right_node = KdNode::leaf();
    // alloc: large-mem — settled right bucket (split writes recorded above)
    right_node.bucket = right_bucket.to_vec();
    let left_idx = tree.nodes.len();
    tree.nodes.push(left_node);
    let right_idx = tree.nodes.len();
    tree.nodes.push(right_node);
    {
        let node = &mut tree.nodes[leaf];
        node.split_dim = dim;
        node.split_val = split_val;
        node.left = left_idx;
        node.right = right_idx;
    }
    record_writes(2);
    settle_depth.record(1 + depth_level as u64);

    settle_overflowing(
        tree,
        points,
        left_idx,
        p,
        depth_level + 1,
        stats,
        settle_depth,
        scratch,
    );
    settle_overflowing(
        tree,
        points,
        right_idx,
        p,
        depth_level + 1,
        stats,
        settle_depth,
        scratch,
    );
    // `bucket` lives until here; each recursion level's buffer halves, so
    // the path-sum stays within the Ω(p) budget (Lemma 6.3: O(1) levels whp).
    scratch.free(bucket.len() as u64);
}

/// Replace leaf `leaf` with a locally-built subtree (arena `nodes`, root
/// `local_root`), keeping the leaf's arena slot as the subtree root so the
/// parent pointer stays valid.
fn graft<const K: usize>(tree: &mut KdTree<K>, leaf: usize, nodes: Vec<KdNode>, local_root: usize) {
    let offset = tree.nodes.len();
    let remap = |idx: usize| if idx == EMPTY { EMPTY } else { idx + offset };
    for mut node in nodes {
        node.left = remap(node.left);
        node.right = remap(node.right);
        tree.nodes.push(node);
    }
    // Move the subtree root into the leaf's slot.
    let root_copy = tree.nodes[local_root + offset].clone();
    tree.nodes[leaf] = root_copy;
    record_writes(1);
}

/// Recompute the `size` field of every node (diagnostic bookkeeping used by
/// the dynamic variants; cost not charged).
pub(crate) fn recompute_sizes<const K: usize>(tree: &mut KdTree<K>) {
    fn rec(nodes: &mut Vec<KdNode>, v: usize) -> usize {
        if v == EMPTY {
            return 0;
        }
        if nodes[v].is_leaf() {
            let s = nodes[v].bucket.len();
            nodes[v].size = s;
            return s;
        }
        let (l, r) = (nodes[v].left, nodes[v].right);
        let s = rec(nodes, l) + rec(nodes, r);
        nodes[v].size = s;
        s
    }
    if tree.root != EMPTY {
        rec(&mut tree.nodes, tree.root);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{nearest_bruteforce, range_bruteforce};
    use proptest::prelude::*;
    use pwe_asym::cost::{measure, Omega};
    use pwe_geom::bbox::BBoxK;
    use pwe_geom::generators::{uniform_points_2d, uniform_points_k};

    #[test]
    fn classic_build_invariants_and_queries() {
        let _g = crate::counter_guard();
        let pts = uniform_points_2d(5000, 1);
        let tree = build_classic(&pts, 8);
        assert_eq!(tree.len(), 5000);
        tree.check_invariants().expect("invariants");
        // Height of a median-split tree is ~log2(n/leaf) + 1.
        assert!(tree.height() <= 12, "height {} too large", tree.height());

        let query = BBoxK::new([0.2, 0.3], [0.4, 0.6]);
        let mut got = tree.range_query(&query);
        got.sort_unstable();
        let mut expected = range_bruteforce(&pts, &query);
        expected.sort_unstable();
        assert_eq!(got, expected);

        let q = PointK::new([0.51, 0.49]);
        let nn = tree.nearest(&q).unwrap();
        let bf = nearest_bruteforce(&pts, &q).unwrap();
        assert!((pts[nn as usize].dist2(&q) - pts[bf as usize].dist2(&q)).abs() < 1e-12);
    }

    #[test]
    fn p_batched_build_matches_bruteforce_queries() {
        let _g = crate::counter_guard();
        let pts = uniform_points_2d(8000, 3);
        let p = recommended_p(pts.len());
        let (tree, stats) = build_p_batched(&pts, p, 8, 7);
        tree.check_invariants().expect("invariants");
        assert_eq!(tree.len(), 8000);
        assert!(stats.rounds > 1, "expected prefix-doubling rounds");

        for (i, query) in [
            BBoxK::new([0.1, 0.1], [0.3, 0.2]),
            BBoxK::new([0.0, 0.0], [1.0, 1.0]),
            BBoxK::new([0.45, 0.45], [0.55, 0.55]),
        ]
        .iter()
        .enumerate()
        {
            let mut got = tree.range_query(query);
            got.sort_unstable();
            // The p-batched tree stores *permuted* copies of the points, so
            // compare coordinates rather than indices.
            let got_pts: Vec<_> = got.iter().map(|&i| tree.points()[i as usize]).collect();
            let mut expected: Vec<_> = range_bruteforce(&pts, query)
                .iter()
                .map(|&i| pts[i as usize])
                .collect();
            let key = |p: &PointK<2>| (p.coords[0], p.coords[1]);
            let mut got_keys: Vec<_> = got_pts.iter().map(key).collect();
            let mut exp_keys: Vec<_> = expected.iter_mut().map(|p| key(p)).collect();
            got_keys.sort_by(|a, b| a.partial_cmp(b).unwrap());
            exp_keys.sort_by(|a, b| a.partial_cmp(b).unwrap());
            assert_eq!(got_keys, exp_keys, "query {i} mismatch");
        }
    }

    #[test]
    fn p_batched_height_is_close_to_classic() {
        let _g = crate::counter_guard();
        let pts = uniform_points_2d(20_000, 11);
        let classic = build_classic(&pts, 8);
        let (batched, _) = build_p_batched(&pts, recommended_p(pts.len()), 8, 5);
        // Lemma 6.2: height log2 n + O(1); allow a small additive slack.
        assert!(
            batched.height() <= classic.height() + 4,
            "p-batched height {} vs classic {}",
            batched.height(),
            classic.height()
        );
    }

    #[test]
    fn p_batched_writes_fewer_than_classic() {
        let _g = crate::counter_guard();
        let pts = uniform_points_2d(30_000, 13);
        let (_, classic_report) = measure(Omega::symmetric(), || build_classic(&pts, 8));
        let (_, batched_report) = measure(Omega::symmetric(), || {
            build_p_batched(&pts, recommended_p(pts.len()), 8, 5)
        });
        assert!(
            batched_report.writes < classic_report.writes,
            "p-batched writes {} should be below classic writes {}",
            batched_report.writes,
            classic_report.writes
        );
    }

    #[test]
    fn three_dimensional_build() {
        let _g = crate::counter_guard();
        let pts = uniform_points_k::<3>(4000, 17);
        let (tree, _) = build_p_batched(&pts, 64, 8, 3);
        tree.check_invariants().expect("invariants");
        let query = BBoxK::new([0.2, 0.2, 0.2], [0.6, 0.5, 0.7]);
        let got: Vec<_> = tree
            .range_query(&query)
            .iter()
            .map(|&i| tree.points()[i as usize].coords)
            .collect();
        let expected: Vec<_> = pts
            .iter()
            .filter(|p| query.contains(p))
            .map(|p| p.coords)
            .collect();
        assert_eq!(got.len(), expected.len());
    }

    #[test]
    fn tiny_inputs() {
        let _g = crate::counter_guard();
        let pts = uniform_points_2d(3, 1);
        let (tree, _) = build_p_batched(&pts, 4, 2, 1);
        tree.check_invariants().expect("invariants");
        assert_eq!(tree.len(), 3);
        let (tree0, _) = build_p_batched::<2>(&[], 4, 2, 1);
        assert!(tree0.is_empty());
        let tree1 = build_classic(&pts[..1], 4);
        assert_eq!(tree1.range_query(&BBoxK::everything()).len(), 1);
    }

    #[test]
    fn recommended_p_grows_with_n() {
        assert!(recommended_p(1 << 10) < recommended_p(1 << 20));
        assert!(recommended_p(1 << 20) >= 20 * 20 * 20);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_range_queries_match_bruteforce(
            n in 1usize..600,
            seed in 0u64..100,
            qx in 0.0f64..0.8,
            qy in 0.0f64..0.8,
            w in 0.05f64..0.4,
        ) {
            let _g = crate::counter_guard();
            let pts = uniform_points_2d(n, seed);
            let (tree, _) = build_p_batched(&pts, 16, 4, seed);
            let query = BBoxK::new([qx, qy], [qx + w, qy + w]);
            let got = tree.range_query(&query).len();
            let expected = range_bruteforce(&pts, &query).len();
            prop_assert_eq!(got, expected);
        }

        #[test]
        fn prop_nearest_matches_bruteforce(
            n in 1usize..400,
            seed in 0u64..100,
            qx in 0.0f64..1.0,
            qy in 0.0f64..1.0,
        ) {
            let _g = crate::counter_guard();
            let pts = uniform_points_2d(n, seed);
            let tree = build_classic(&pts, 4);
            let q = PointK::new([qx, qy]);
            let nn = tree.nearest(&q).unwrap();
            let bf = nearest_bruteforce(&pts, &q).unwrap();
            let d_tree = pts[nn as usize].dist2(&q);
            let d_bf = pts[bf as usize].dist2(&q);
            prop_assert!((d_tree - d_bf).abs() < 1e-12);
        }

        #[test]
        fn prop_approx_nearest_within_factor(
            n in 2usize..400,
            seed in 0u64..50,
            qx in 0.0f64..1.0,
            qy in 0.0f64..1.0,
            eps in 0.0f64..2.0,
        ) {
            let _g = crate::counter_guard();
            let pts = uniform_points_2d(n, seed);
            let (tree, _) = build_p_batched(&pts, 16, 4, seed);
            let q = PointK::new([qx, qy]);
            let ann = tree.approx_nearest(&q, eps).unwrap();
            let exact = nearest_bruteforce(&pts, &q).unwrap();
            let d_ann = tree.points()[ann as usize].dist(&q);
            let d_exact = pts[exact as usize].dist(&q);
            prop_assert!(d_ann <= (1.0 + eps) * d_exact + 1e-9,
                "ANN distance {d_ann} exceeds (1+ε)·{d_exact}");
        }
    }
}
