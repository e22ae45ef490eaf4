//! 2D range trees with α-labeling (Sections 7.1, 7.3.4).
//!
//! The outer tree is a balanced search tree over the x-coordinates with the
//! points at its leaves.  A classic range tree augments *every* internal
//! node with an inner structure holding its subtree's points sorted by y —
//! `Θ(n log n)` space and construction writes.  With α-labeling only the
//! **critical** nodes carry inner structures, so the total augmentation is
//! `O(n log_α n)` and an update touches only `O(log_α n)` inner structures,
//! at the price of visiting up to `O(α log_α n)` outer nodes per query
//! (Table 1, last two rows).
//!
//! **Representation.**  Construction goes through the shared parallel
//! engine of [`crate::engine`]: the `2n−1` outer nodes live in a pre-sized
//! preorder arena whose subtree regions are computable by index arithmetic,
//! and every critical node's inner structure is a **sorted-by-y flat run
//! packed into one shared augmentation arena** (own run first, then the
//! left subtree's runs, then the right's — so every subtree also owns a
//! contiguous, arithmetically pre-sized augmentation region).  Runs are
//! produced bottom-up in parallel: a critical node k-way-merges the runs of
//! its maximal critical descendants (`O(α)` of them, Lemma 7.1) in a single
//! pass, writing each point once per critical ancestor — the `Θ(n log_α n)`
//! augmentation bound laid out contiguously.  Inner queries are binary
//! searches over contiguous memory; updates splice a small sorted overflow
//! run per node (`Inner::extra`) instead of rebalancing B-trees, and
//! reconstructions rebuild the packed runs.
//!
//! The node arena is split in two vectors indexed by the same preorder
//! slot: a 32-byte hot `RNode` (split key, `u32` children, the main run's
//! place in the augmentation arena, kind flags) that the one query walk
//! reads at every visited node, and a cold `RCold` (leaf point, owned and
//! overflow runs, weights) that it reads only at a leaf or where a run is
//! owned or has overflow.  Updates write both in step.
//!
//! Deletions are handled by tombstoning (the paper's "mark and rebuild when a
//! constant fraction is dead") and insertions by leaf splitting plus
//! reconstruction of any critical subtree whose weight has doubled.

use pwe_asym::counters::{record_read, record_reads, record_writes};
use pwe_asym::depth;
use pwe_asym::smallmem::SmallMem;
use pwe_geom::bbox::Rect;
use pwe_geom::point::Point2;
use pwe_primitives::hash::DetHashSet;
use pwe_primitives::racecheck;
use pwe_primitives::search::{
    branchless_partition_point, branchless_search_by_key, run_partition_point,
};

use crate::alpha::{is_critical_weight, is_critical_weight_uncharged};
use crate::engine::{
    digest_slot, join_grain, kway_merge_into, range_build_scratch_budget, slot, AugBuildStats,
    Digest, NONE,
};
use crate::interval::f64_key;

/// A stored point with its identifier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RtPoint {
    /// The 2D point.
    pub point: Point2,
    /// Caller-provided identifier.
    pub id: u64,
}

/// The y-order key of a stored point: unique per point (ties on y break by
/// id), so runs have strictly increasing keys and merges are deterministic.
#[inline]
fn ykey(p: &RtPoint) -> (u64, u64) {
    (f64_key(p.point.y()), p.id)
}

/// The cold half of a critical node's inner structure.  Its y-sorted **main
/// run** is packed in the tree-wide augmentation arena right after
/// construction (located by [`RNode::aug_off`] / [`RNode::aug_len`]), or
/// owned by the node once updates have repacked it; a small y-sorted
/// overflow run absorbs post-build insertions (spliced in place — no
/// per-node B-tree).  The overflow run is capped at ~`√(main)` words
/// ([`extra_cap`]): when a splice overflows the cap, main + overflow merge
/// into a fresh owned run, so a single insert never moves more than
/// `O(√m)` words and the repack cost amortizes to `O(√m)` per insert.
#[derive(Debug, Clone, Default)]
struct Inner {
    /// Owned main run replacing the arena-backed one after the first
    /// repack (empty while the node is arena-backed).
    owned: Vec<RtPoint>,
    /// Overflow run for post-build insertions, sorted by [`ykey`].
    extra: Vec<RtPoint>,
}

/// Cap on a node's overflow run before it is merged back into the main run.
#[inline]
fn extra_cap(main_len: usize) -> usize {
    main_len.isqrt().max(64)
}

/// Merge two y-sorted runs into a fresh vector (keys are unique, so the
/// order is strict and deterministic).
fn merge_runs(a: &[RtPoint], b: &[RtPoint]) -> Vec<RtPoint> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if ykey(&a[i]) < ykey(&b[j]) {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// The hot half of an outer node: everything the query walk reads at every
/// visited node.
#[derive(Debug, Clone, Copy, Default)]
struct RNode {
    /// Split value: left subtree holds x ≤ split, right subtree x ≥ split
    /// (points with x equal to the split can sit on both sides).
    split: f64,
    left: u32,
    right: u32,
    /// Offset of the arena-backed main run in [`RangeTree2D::aug`] (valid
    /// while [`INNER`] is set; a repack zeroes `aug_len` but keeps this
    /// offset, which `layout_digest` folds).
    aug_off: u32,
    /// Length of the arena-backed main run (0 once repacked, and for the
    /// inner structures of the classic build and of inserted leaves).
    aug_len: u32,
    /// [`LEAF`] | [`INNER`] | [`COLD_RUN`], a function of the cold record
    /// and `aug_len` ([`hot_flags`]).
    flags: u8,
}

/// The node stores a leaf point ([`RCold::leaf`]).
const LEAF: u8 = 1;
/// The node carries an inner structure ([`RCold::inner`]).
const INNER: u8 = 2;
/// The inner structure's main run is owned, or its overflow run is not
/// empty: reporting it reads the cold record.
const COLD_RUN: u8 = 4;

const _: () = assert!(std::mem::size_of::<RNode>() <= 40);

/// The cold half of an outer node, read by the query walk only at leaves
/// and at inner structures with [`COLD_RUN`] set.
#[derive(Debug, Clone, Default)]
struct RCold {
    /// The point stored here (leaves only).
    leaf: Option<RtPoint>,
    /// Inner structure — present only on critical nodes.
    inner: Option<Inner>,
    /// Subtree weight (points + 1), maintained only on critical nodes.
    weight: usize,
    initial_weight: usize,
    critical: bool,
}

/// The hot flags of a node whose cold record is `cold` and whose
/// arena-backed main run has `aug_len` points.
fn hot_flags(cold: &RCold, aug_len: u32) -> u8 {
    let mut flags = 0;
    if cold.leaf.is_some() {
        flags |= LEAF;
    }
    if let Some(inner) = &cold.inner {
        flags |= INNER;
        if aug_len == 0 || !inner.extra.is_empty() {
            flags |= COLD_RUN;
        }
    }
    flags
}

/// Per-update statistics (mirrors [`crate::interval::UpdateStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RtUpdateStats {
    /// Outer nodes visited.
    pub path_nodes: u64,
    /// Critical nodes whose inner structure / weight was written.
    pub critical_touched: u64,
    /// Whether a subtree reconstruction was triggered.
    pub rebuilt: bool,
}

/// A dynamic 2D range tree with α-labeled augmentation.
#[derive(Debug, Clone)]
pub struct RangeTree2D {
    /// Hot node records, in preorder slots.
    nodes: Vec<RNode>,
    /// Cold node records, same slots as `nodes`.
    cold: Vec<RCold>,
    root: u32,
    alpha: usize,
    live: usize,
    dead: usize,
    /// Shared augmentation arena: every critical node's y-sorted run, packed
    /// contiguously in preorder.  Reconstructed segments are appended;
    /// superseded segments become garbage until the next full rebuild (like
    /// detached node-arena slots).
    aug: Vec<RtPoint>,
    deleted: DetHashSet<u64>,
    /// Number of reconstructions triggered by updates (diagnostic).
    pub rebuilds: u64,
}

impl RangeTree2D {
    fn empty(alpha: usize, live: usize) -> Self {
        assert!(alpha >= 2, "α must be at least 2");
        RangeTree2D {
            nodes: Vec::new(),
            cold: Vec::new(),
            root: NONE,
            alpha,
            live,
            dead: 0,
            aug: Vec::new(),
            deleted: DetHashSet::default(),
            rebuilds: 0,
        }
    }

    /// Build a range tree over `points` with parameter `α ≥ 2` through the
    /// parallel engine (see the module docs for the layout).
    ///
    /// Costs `O(n log n)` reads (the sort plus the run merges) and
    /// `O(n log_α n)` writes — each point is written once per critical
    /// ancestor.
    pub fn build(points: &[RtPoint], alpha: usize) -> Self {
        Self::build_with_stats(points, alpha).0
    }

    /// [`RangeTree2D::build`] plus build statistics (arena sizes and the
    /// small-memory ledger snapshot of the forked recursion, budgeted at
    /// [`crate::engine::range_build_scratch_budget`]).
    pub fn build_with_stats(points: &[RtPoint], alpha: usize) -> (Self, AugBuildStats) {
        let mut tree = Self::empty(alpha, points.len());
        if points.is_empty() {
            return (tree, AugBuildStats::default());
        }
        let n = points.len();
        let ledger = SmallMem::with_budget(range_build_scratch_budget(n, alpha));
        let mut sorted = points.to_vec();
        sorted.sort_by_key(|p| f64_key(p.point.x()));
        record_reads(n as u64 * depth::log2_ceil(n.max(2)));
        record_writes(n as u64);

        // Pre-size the arenas by index arithmetic alone (both node slots and
        // run offsets must fit the u32 hot records), then fill them by forked
        // recursion over disjoint regions.
        let sizes = AugSizes::new(n, alpha);
        let aug_total = sizes.root_total(n);
        slot(2 * n - 1);
        slot(aug_total);
        let mut nodes = vec![RNode::default(); 2 * n - 1];
        let mut cold = vec![RCold::default(); 2 * n - 1];
        let filler = RtPoint {
            point: Point2::xy(0.0, 0.0),
            id: 0,
        };
        let mut aug = vec![filler; aug_total];
        build_par_rec(
            &sorted, &mut nodes, &mut cold, 0, &mut aug, 0, alpha, &sizes, true, 0, &ledger,
        );
        tree.nodes = nodes;
        tree.cold = cold;
        tree.aug = aug;
        tree.root = 0;
        depth::add(2 * depth::log2_ceil(n.max(2)));
        let stats = AugBuildStats {
            nodes: 2 * n - 1,
            aug_len: aug_total,
            scratch: ledger.report(),
        };
        (tree, stats)
    }

    /// The classic sequential construction, kept as the write-inefficient
    /// baseline of the `speedup -- --sweep` harness: at every critical node
    /// the subtree's points are *copied* into a freshly allocated run and
    /// sorted by y (one allocation and `Θ(m log m)` comparison reads per
    /// critical node, `Θ(n log n)` writes at the textbook α = 2 where every
    /// node is critical).  Queries and updates behave identically to the
    /// engine-built tree; only the construction cost profile differs.
    pub fn build_classic(points: &[RtPoint], alpha: usize) -> Self {
        let mut tree = Self::empty(alpha, points.len());
        if points.is_empty() {
            return tree;
        }
        let mut sorted = points.to_vec();
        sorted.sort_by_key(|p| f64_key(p.point.x()));
        record_reads(points.len() as u64 * depth::log2_ceil(points.len().max(2)));
        record_writes(points.len() as u64);
        tree.root = tree.build_classic_rec(&sorted);
        depth::add(depth::log2_ceil(points.len()));
        tree
    }

    /// Append one node to both arenas, deriving its hot flags.
    fn push_node(&mut self, mut hot: RNode, cold: RCold) -> u32 {
        let idx = slot(self.nodes.len());
        hot.flags = hot_flags(&cold, hot.aug_len);
        self.nodes.push(hot);
        self.cold.push(cold);
        idx
    }

    /// Re-derive the hot flags of slot `v` after its cold record changed.
    fn sync_flags(&mut self, v: usize) {
        self.nodes[v].flags = hot_flags(&self.cold[v], self.nodes[v].aug_len);
    }

    fn build_classic_rec(&mut self, sorted: &[RtPoint]) -> u32 {
        let n = sorted.len();
        debug_assert!(n > 0);
        record_writes(1);
        if n == 1 {
            record_writes(1);
            return self.push_leaf(sorted[0]);
        }
        let idx = self.push_node(RNode::default(), RCold::default());
        let mid = n / 2;
        let split = sorted[mid].point.x();
        let l = self.build_classic_rec(&sorted[..mid]);
        let r = self.build_classic_rec(&sorted[mid..]);
        let weight = n + 1;
        let critical = is_critical_weight(weight, self.alpha) || idx == 0;
        let v = idx as usize;
        self.nodes[v] = RNode {
            split,
            left: l,
            right: r,
            ..RNode::default()
        };
        let cold = &mut self.cold[v];
        cold.weight = weight;
        cold.initial_weight = weight;
        cold.critical = critical;
        if critical {
            // Copy the subtree's points into a fresh per-node run and sort
            // it by y — the per-critical-level copy the engine eliminates.
            let mut run = sorted.to_vec();
            run.sort_by_key(ykey);
            record_reads(n as u64 * depth::log2_ceil(n.max(2)));
            record_writes(n as u64);
            cold.inner = Some(Inner {
                owned: run,
                ..Inner::default()
            });
        }
        self.sync_flags(v);
        idx
    }

    /// Number of live points.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no live points are stored.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The α parameter.
    pub fn alpha(&self) -> usize {
        self.alpha
    }

    /// Number of critical nodes carrying inner structures (diagnostic).
    pub fn critical_count(&self) -> usize {
        self.cold.iter().filter(|n| n.critical).count()
    }

    /// Total size of all inner structures — the augmentation footprint that
    /// α-labeling reduces from `Θ(n log n)` to `O(n log_α n)` (diagnostic).
    pub fn augmentation_size(&self) -> usize {
        self.nodes
            .iter()
            .zip(&self.cold)
            .filter_map(|(hot, cold)| {
                cold.inner
                    .as_ref()
                    .map(|i| hot.aug_len as usize + i.owned.len() + i.extra.len())
            })
            .sum()
    }

    /// Deterministic fingerprint of the arena layout — outer nodes, inner
    /// run offsets and the augmentation arena contents, in slot order.
    /// Diagnostic: uncharged; used by `tests/parallel_stress.rs` to pin the
    /// layout as bit-identical across thread counts and processes.
    pub fn layout_digest(&self) -> u64 {
        let mut d = Digest::new();
        d.word(digest_slot(self.root));
        for (hot, cold) in self.nodes.iter().zip(&self.cold) {
            d.word(f64_key(hot.split));
            d.word(digest_slot(hot.left));
            d.word(digest_slot(hot.right));
            d.word(cold.leaf.map_or(u64::MAX, |p| p.id));
            d.word(cold.weight as u64);
            d.word(cold.critical as u64);
            match &cold.inner {
                Some(inner) => {
                    d.word(hot.aug_off as u64);
                    d.word(hot.aug_len as u64);
                    for p in inner.owned.iter().chain(&inner.extra) {
                        d.word(p.id);
                    }
                }
                None => d.word(u64::MAX),
            }
        }
        for p in &self.aug {
            let (k, id) = ykey(p);
            d.word(k);
            d.word(id);
        }
        d.finish()
    }

    /// Orthogonal range query: ids of live points inside `rect`, ascending.
    pub fn query(&self, rect: &Rect) -> Vec<u64> {
        let mut out = Vec::new();
        self.query_into(
            rect,
            &mut pwe_asym::smallmem::TaskScratch::untracked(),
            &mut out,
        );
        out.sort_unstable();
        out
    }

    /// The range reporter: appends the ids of live points inside `rect` to
    /// `out` in walk order (unsorted), charging the recursion frames — one
    /// word each, peak `O(height)` plus the `O(α)` critical-descendant
    /// descent (Corollary 7.1) — against a small-memory ledger via
    /// `scratch`.  The reported ids are output writes, not scratch.  A rect
    /// with a NaN bound contains no point and reports nothing.
    pub fn query_into(
        &self,
        rect: &Rect,
        scratch: &mut pwe_asym::smallmem::TaskScratch<'_>,
        out: &mut Vec<u64>,
    ) {
        if has_nan_bound(rect) {
            return;
        }
        let start = out.len();
        let (lo, hi) = (f64::NEG_INFINITY, f64::INFINITY);
        self.query_rec(self.root, rect, lo, hi, out, scratch);
        record_writes((out.len() - start) as u64);
    }

    /// The outer descent: one read per visited node.  A leaf resolves as a
    /// leaf even when it also carries an inner run; a node whose x-range
    /// lies inside the query hands over to [`Self::report_y_range`].
    fn query_rec(
        &self,
        v: u32,
        rect: &Rect,
        lo: f64,
        hi: f64,
        out: &mut Vec<u64>,
        scratch: &mut pwe_asym::smallmem::TaskScratch<'_>,
    ) {
        if v == NONE || lo > rect.x_max || hi < rect.x_min {
            return;
        }
        scratch.alloc(1);
        record_read();
        let node = &self.nodes[v as usize];
        if node.flags & LEAF != 0 {
            self.report_leaf(v, rect, out);
        } else if rect.x_min <= lo && hi <= rect.x_max {
            // The node's x-range is entirely inside the query: answer from
            // the inner structure (or, on a secondary node, from the inner
            // structures of its maximal critical descendants).
            self.report_y_range(v, rect, out, scratch);
        } else {
            self.query_rec(node.left, rect, lo, node.split, out, scratch);
            self.query_rec(node.right, rect, node.split, hi, out, scratch);
        }
        scratch.free(1);
    }

    /// Report the leaf point of slot `v` if it is live and inside `rect`.
    fn report_leaf(&self, v: u32, rect: &Rect, out: &mut Vec<u64>) {
        if let Some(p) = self.cold[v as usize].leaf {
            if rect.contains(&p.point) && !self.deleted.contains(&p.id) {
                out.push(p.id);
            }
        }
    }

    /// Report the points of one y-sorted run whose y lies in the query's
    /// y-range: a branchless binary search for the first candidate
    /// (`O(log m)` probe reads over contiguous memory), then an
    /// output-sensitive scan — one read per visited element, the element
    /// past the query's upper y bound included, charged once when the scan
    /// ends.  An empty run charges nothing.
    fn report_run(&self, run: &[RtPoint], rect: &Rect, out: &mut Vec<u64>) {
        if run.is_empty() {
            return;
        }
        let lo_key = (f64_key(rect.y_min), 0u64);
        let hi_key = f64_key(rect.y_max);
        let start = run_partition_point(run, |p| ykey(p) < lo_key);
        let mut visited = 0u64;
        for p in &run[start..] {
            visited += 1;
            if f64_key(p.point.y()) > hi_key {
                break;
            }
            if !self.deleted.contains(&p.id) {
                debug_assert!(rect.contains(&p.point));
                out.push(p.id);
            }
        }
        record_reads(visited);
    }

    /// Report the points of `v`'s subtree whose y lies in the query's y-range
    /// (x is already known to be inside).  Critical nodes answer from their
    /// main run plus the overflow run — a leaf-with-inner node included;
    /// secondary nodes delegate to their maximal critical descendants (at
    /// most `O(α)` levels down, Corollary 7.1).  The cold record is read
    /// only for an owned main run or a non-empty overflow run: skipping an
    /// empty overflow run charges what scanning it would (nothing).
    fn report_y_range(
        &self,
        v: u32,
        rect: &Rect,
        out: &mut Vec<u64>,
        scratch: &mut pwe_asym::smallmem::TaskScratch<'_>,
    ) {
        if v == NONE {
            return;
        }
        scratch.alloc(1);
        record_read();
        let node = &self.nodes[v as usize];
        if node.flags & INNER != 0 {
            if node.aug_len > 0 {
                let off = node.aug_off as usize;
                self.report_run(&self.aug[off..off + node.aug_len as usize], rect, out);
            }
            if node.flags & COLD_RUN != 0 {
                let inner = self.cold[v as usize]
                    .inner
                    .as_ref()
                    .expect("the INNER flag mirrors the cold inner structure");
                if node.aug_len == 0 {
                    self.report_run(&inner.owned, rect, out);
                }
                self.report_run(&inner.extra, rect, out);
            }
        } else if node.flags & LEAF != 0 {
            self.report_leaf(v, rect, out);
        } else {
            self.report_y_range(node.left, rect, out, scratch);
            self.report_y_range(node.right, rect, out, scratch);
        }
        scratch.free(1);
    }

    /// Insert a point.  Touches the inner structures of the `O(log_α n)`
    /// critical ancestors only (a splice into each one's sorted overflow
    /// run); rebuilds the topmost critical subtree whose weight has doubled
    /// since its construction.
    pub fn insert(&mut self, p: RtPoint) -> RtUpdateStats {
        let mut stats = RtUpdateStats::default();
        self.live += 1;
        if self.root == NONE {
            *self = RangeTree2D::build(&[p], self.alpha);
            self.live = 1;
            return stats;
        }
        // Descend to a leaf.
        let mut path = Vec::new();
        let mut v = self.root as usize;
        loop {
            path.push(v);
            stats.path_nodes += 1;
            record_read();
            let node = &self.nodes[v];
            if node.flags & LEAF != 0 {
                break;
            }
            v = if p.point.x() < node.split {
                node.left
            } else {
                node.right
            } as usize;
        }
        // Split the leaf into an internal node with two leaves.
        let old = self.cold[v].leaf.expect("descent ends at a leaf");
        let (first, second) = if p.point.x() < old.point.x() {
            (p, old)
        } else {
            (old, p)
        };
        let left = self.push_leaf(first);
        let right = self.push_leaf(second);
        record_writes(2);
        {
            let node = &mut self.nodes[v];
            node.split = second.point.x();
            node.left = left;
            node.right = right;
            let critical = is_critical_weight(3, self.alpha);
            let cold = &mut self.cold[v];
            cold.leaf = None;
            cold.weight = 3;
            cold.initial_weight = 3;
            cold.critical = critical;
            record_writes(1);
            // The split node keeps (or drops) its inner structure according
            // to its new criticality; the new point is added below.
            if !critical {
                cold.inner = None;
            } else if cold.inner.is_none() {
                cold.inner = Some(Inner {
                    owned: vec![old],
                    ..Inner::default()
                });
                node.aug_off = 0;
                node.aug_len = 0;
            }
        }
        self.sync_flags(v);

        // Splice the point into the overflow run of every critical ancestor;
        // an overflow run past its √(main) cap is merged back into an owned
        // main run (amortized O(√m) moved words per insert).
        for &u in &path {
            if !self.cold[u].critical {
                continue;
            }
            self.cold[u].weight += 1;
            let hot = &mut self.nodes[u];
            if let Some(inner) = self.cold[u].inner.as_mut() {
                let pos = branchless_partition_point(&inner.extra, |q| ykey(q) < ykey(&p));
                inner.extra.insert(pos, p);
                let main_len = if hot.aug_len > 0 {
                    hot.aug_len as usize
                } else {
                    inner.owned.len()
                };
                if inner.extra.len() > extra_cap(main_len) {
                    let merged = {
                        let main: &[RtPoint] = if hot.aug_len > 0 {
                            let off = hot.aug_off as usize;
                            &self.aug[off..off + hot.aug_len as usize]
                        } else {
                            &inner.owned
                        };
                        merge_runs(main, &inner.extra)
                    };
                    record_reads(merged.len() as u64);
                    record_writes(merged.len() as u64);
                    inner.owned = merged;
                    hot.aug_len = 0;
                    inner.extra = Vec::new();
                }
            }
            self.sync_flags(u);
            record_writes(2);
            stats.critical_touched += 1;
        }

        // Rebuild the topmost critical subtree that has doubled in weight.
        if let Some(&u) = path.iter().find(|&&u| {
            let cold = &self.cold[u];
            cold.critical && cold.weight >= 2 * cold.initial_weight.max(3)
        }) {
            self.rebuild_subtree(u);
            stats.rebuilt = true;
        }
        stats
    }

    /// Append a leaf holding `p`: weight 2, always critical, with a
    /// one-point owned inner run.
    fn push_leaf(&mut self, p: RtPoint) -> u32 {
        let hot = RNode {
            split: p.point.x(),
            left: NONE,
            right: NONE,
            ..RNode::default()
        };
        let cold = RCold {
            leaf: Some(p),
            inner: Some(Inner {
                owned: vec![p],
                ..Inner::default()
            }),
            weight: 2,
            initial_weight: 2,
            critical: true,
        };
        self.push_node(hot, cold)
    }

    /// Delete a stored point (tombstoning), found by an x-descent to its
    /// leaf: `O(log n)` reads for distinct x, plus one path per extra point
    /// sharing `p`'s x.  Returns false if `p` is not stored or is already
    /// deleted.  The whole tree is rebuilt once more than half of the stored
    /// points are dead.
    pub fn delete(&mut self, p: &RtPoint) -> bool {
        if self.deleted.contains(&p.id) || !self.has_leaf(self.root, p) {
            return false;
        }
        self.deleted.insert(p.id);
        record_writes(1);
        self.live -= 1;
        self.dead += 1;
        if self.dead > self.live {
            let live = self.collect_live();
            let alpha = self.alpha;
            let rebuilds = self.rebuilds + 1;
            *self = RangeTree2D::build(&live, alpha);
            self.rebuilds = rebuilds;
        }
        true
    }

    /// Whether a leaf below slot `v` stores `p`, one read per visited node.
    /// Both children are taken where `p`'s x equals the split: the build
    /// splits at the median's x and an insert's leaf split at the larger x,
    /// so equal x can sit on both sides.
    fn has_leaf(&self, v: u32, p: &RtPoint) -> bool {
        if v == NONE {
            return false;
        }
        record_read();
        let node = &self.nodes[v as usize];
        if node.flags & LEAF != 0 {
            return self.cold[v as usize].leaf.as_ref() == Some(p);
        }
        let x = p.point.x();
        (x <= node.split && self.has_leaf(node.left, p))
            || (x >= node.split && self.has_leaf(node.right, p))
    }

    /// Append the live leaf points below slot `v` to `out`, left to right
    /// (uncharged; the callers charge one read per collected point).
    fn collect_rec(&self, v: u32, out: &mut Vec<RtPoint>) {
        if v == NONE {
            return;
        }
        if let Some(p) = self.cold[v as usize].leaf {
            if !self.deleted.contains(&p.id) {
                out.push(p);
            }
            return;
        }
        let node = &self.nodes[v as usize];
        self.collect_rec(node.left, out);
        self.collect_rec(node.right, out);
    }

    /// All live points.
    pub fn collect_live(&self) -> Vec<RtPoint> {
        let mut out = Vec::new();
        self.collect_rec(self.root, &mut out);
        record_reads(out.len() as u64);
        out
    }

    fn rebuild_subtree(&mut self, v: usize) {
        self.rebuilds += 1;
        let mut points = Vec::new();
        self.collect_rec(slot(v), &mut points);
        record_reads(points.len() as u64);
        if points.is_empty() {
            return;
        }
        // Rebuild through the engine and splice its arenas into ours; the
        // replaced subtree's segments become garbage until the next full
        // rebuild, like detached node slots.
        let rebuilt = RangeTree2D::build(&points, self.alpha);
        slot(self.nodes.len() + rebuilt.nodes.len());
        slot(self.aug.len() + rebuilt.aug.len());
        let (node_off, aug_off) = (slot(self.nodes.len()), slot(self.aug.len()));
        self.aug.extend_from_slice(&rebuilt.aug);
        let remap = |idx: u32| if idx == NONE { NONE } else { idx + node_off };
        for (mut hot, cold) in rebuilt.nodes.into_iter().zip(rebuilt.cold) {
            hot.left = remap(hot.left);
            hot.right = remap(hot.right);
            if hot.flags & INNER != 0 {
                hot.aug_off += aug_off;
            }
            self.nodes.push(hot);
            self.cold.push(cold);
        }
        let new_root = remap(rebuilt.root) as usize;
        self.nodes[v] = self.nodes[new_root];
        self.cold[v] = self.cold[new_root].clone();
        record_writes(1);
        if v == self.root as usize {
            self.cold[v].critical = true;
        }
    }
}

// ------------------------------------------------------ parallel build engine

/// Exact augmentation-arena words for every distinct subtree size of the
/// balanced split of `n` — the split `k → (⌊k/2⌋, ⌈k/2⌉)` produces only
/// `O(log² n)` distinct sizes, so one small table computed up front lets the
/// forked recursion look region sizes up in `O(log log)` instead of
/// re-walking each subtree at every node.  Pure index arithmetic, uncharged
/// (the criticality predicate is charged once per node when the node is
/// written).
struct AugSizes {
    /// `(subtree point count, aug words)`, sorted by count.
    table: Vec<(usize, usize)>,
}

impl AugSizes {
    fn new(n: usize, alpha: usize) -> Self {
        use std::collections::BTreeSet;
        let mut sizes = BTreeSet::new();
        let mut stack = vec![n];
        while let Some(k) = stack.pop() {
            if k > 1 && sizes.insert(k) {
                stack.push(k / 2);
                stack.push(k - k / 2);
            }
        }
        let mut table: Vec<(usize, usize)> = vec![(0, 0), (1, 1)];
        for k in sizes {
            if k <= 1 {
                continue;
            }
            let own = if is_critical_weight_uncharged(k + 1, alpha) {
                k
            } else {
                0
            };
            let mid = k / 2;
            let words = own + Self::lookup(&table, mid) + Self::lookup(&table, k - mid);
            table.push((k, words));
        }
        AugSizes { table }
    }

    fn lookup(table: &[(usize, usize)], k: usize) -> usize {
        let i = branchless_search_by_key(table, k, |e| e.0)
            .expect("every subtree size of the balanced split is tabulated");
        table[i].1
    }

    /// Aug words of a non-root subtree over `k` points.
    fn get(&self, k: usize) -> usize {
        Self::lookup(&self.table, k)
    }

    /// Aug words of the whole tree: the root's own run is unconditional
    /// (the root is always treated as critical).
    fn root_total(&self, n: usize) -> usize {
        if n <= 1 {
            return n;
        }
        let mid = n / 2;
        n + self.get(mid) + self.get(n - mid)
    }
}

/// Build the subtree over `sorted` into the preorder node region `nodes`
/// (exactly `2·|sorted|−1` slots, subtree root first) and the augmentation
/// region `aug` (exactly [`aug_len_for`] words: own run first, then the left
/// subtree's region, then the right's), forking over disjoint `&mut`
/// regions.  Returns the subtree's maximal critical runs as
/// `(offset, len)` pairs **relative to `aug`**.
#[allow(clippy::too_many_arguments)]
fn build_par_rec(
    sorted: &[RtPoint],
    nodes: &mut [RNode],
    cold: &mut [RCold],
    node_base: usize,
    aug: &mut [RtPoint],
    aug_base: usize,
    alpha: usize,
    sizes: &AugSizes,
    is_root: bool,
    level: u64,
    ledger: &SmallMem,
) -> Vec<(usize, usize)> {
    let m = sorted.len();
    debug_assert_eq!(nodes.len(), 2 * m - 1);
    if m == 1 {
        let p = sorted[0];
        aug[0] = p;
        nodes[0] = RNode {
            split: p.point.x(),
            left: NONE,
            right: NONE,
            aug_off: slot(aug_base),
            aug_len: 1,
            flags: LEAF | INNER,
        };
        cold[0] = RCold {
            leaf: Some(p),
            inner: Some(Inner::default()),
            weight: 2,
            initial_weight: 2,
            critical: true, // weight 2 is always critical
        };
        record_writes(2);
        ledger.observe_task(level + 4);
        return vec![(0, 1)];
    }
    let mid = m / 2;
    let split = sorted[mid].point.x();
    let weight = m + 1;
    let critical = is_critical_weight(weight, alpha) || is_root;
    let own_len = if critical { m } else { 0 };
    let left_aug_len = sizes.get(mid);

    let (own_seg, rest) = aug.split_at_mut(own_len);
    let (left_aug, right_aug) = rest.split_at_mut(left_aug_len);
    let (node0, rest_nodes) = nodes.split_first_mut().expect("m ≥ 2");
    let (left_nodes, right_nodes) = rest_nodes.split_at_mut(2 * mid - 1);
    let (cold0, rest_cold) = cold.split_first_mut().expect("m ≥ 2");
    let (left_cold, right_cold) = rest_cold.split_at_mut(2 * mid - 1);
    let (ls, rs) = sorted.split_at(mid);
    let left_base = aug_base + own_len;
    let right_base = left_base + left_aug_len;

    // racecheck: when the fork is real, each arm claims its disjoint slices
    // of the shared arenas (augmentation words, hot and cold nodes).
    let forked = m > crate::engine::SEQUENTIAL_BUILD_CUTOFF;
    let ((lruns, lview), (rruns, rview)) = join_grain(
        m,
        move || {
            let _claims = forked.then(|| {
                (
                    racecheck::claim_slice(&*left_aug, "range_tree::build_par_rec/left_aug"),
                    racecheck::claim_slice(&*left_nodes, "range_tree::build_par_rec/left_nodes"),
                    racecheck::claim_slice(&*left_cold, "range_tree::build_par_rec/left_cold"),
                )
            });
            let runs = build_par_rec(
                ls,
                left_nodes,
                left_cold,
                node_base + 1,
                &mut *left_aug,
                left_base,
                alpha,
                sizes,
                false,
                level + 1,
                ledger,
            );
            (runs, &*left_aug)
        },
        move || {
            let _claims = forked.then(|| {
                (
                    racecheck::claim_slice(&*right_aug, "range_tree::build_par_rec/right_aug"),
                    racecheck::claim_slice(&*right_nodes, "range_tree::build_par_rec/right_nodes"),
                    racecheck::claim_slice(&*right_cold, "range_tree::build_par_rec/right_cold"),
                )
            });
            let runs = build_par_rec(
                rs,
                right_nodes,
                right_cold,
                node_base + 1 + (2 * mid - 1),
                &mut *right_aug,
                right_base,
                alpha,
                sizes,
                false,
                level + 1,
                ledger,
            );
            (runs, &*right_aug)
        },
    );

    *node0 = RNode {
        split,
        left: slot(node_base + 1),
        right: slot(node_base + 1 + (2 * mid - 1)),
        ..RNode::default()
    };
    *cold0 = RCold {
        weight,
        initial_weight: weight,
        critical,
        ..RCold::default()
    };
    record_writes(1);

    if critical {
        // Merge the maximal critical runs of both children (O(α) of them,
        // Lemma 7.1) into this node's own contiguous run in one pass.
        let mut srcs: Vec<&[RtPoint]> = Vec::with_capacity(lruns.len() + rruns.len());
        for &(off, len) in &lruns {
            srcs.push(&lview[off..off + len]);
        }
        for &(off, len) in &rruns {
            srcs.push(&rview[off..off + len]);
        }
        kway_merge_into(&srcs, own_seg, &ykey, ledger, level);
        node0.aug_off = slot(aug_base);
        node0.aug_len = slot(m);
        node0.flags = INNER;
        cold0.inner = Some(Inner::default());
        vec![(0, m)]
    } else {
        // Not critical: expose the children's runs, rebased to this region
        // (own_len is 0 here, so the left region starts at offset 0).
        let mut runs = lruns;
        runs.reserve(rruns.len());
        runs.extend(
            rruns
                .into_iter()
                .map(|(off, len)| (left_aug_len + off, len)),
        );
        runs
    }
}

/// Whether a bound of `rect` is NaN.  Such a rect contains no point
/// ([`Rect::contains`] compares), but the run search orders y by
/// [`f64_key`], which puts −NaN below −∞ and +NaN above +∞, so the
/// reporters must not see it.
fn has_nan_bound(rect: &Rect) -> bool {
    [rect.x_min, rect.x_max, rect.y_min, rect.y_max]
        .iter()
        .any(|b| b.is_nan())
}

/// Brute-force range query oracle for the tests.
pub fn range_bruteforce(points: &[RtPoint], rect: &Rect) -> Vec<u64> {
    let mut ids: Vec<u64> = points
        .iter()
        .filter(|p| rect.contains(&p.point))
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
    use pwe_geom::generators::{random_query_rects, uniform_points_2d};

    fn make_points(n: usize, seed: u64) -> Vec<RtPoint> {
        uniform_points_2d(n, seed)
            .into_iter()
            .enumerate()
            .map(|(i, point)| RtPoint {
                point,
                id: i as u64,
            })
            .collect()
    }

    #[test]
    fn queries_match_bruteforce() {
        let points = make_points(1500, 1);
        // NaN bounds of either sign on each y side (and each x side): no
        // point is inside, although the run search's key order puts −NaN
        // below every y and +NaN above.
        let mut rects = random_query_rects(60, 0.3, 2);
        for nan in [f64::NAN, -f64::NAN] {
            let full = Rect::new(-1.0, 2.0, -1.0, 2.0);
            rects.push(Rect { y_min: nan, ..full });
            rects.push(Rect { y_max: nan, ..full });
            rects.push(Rect { x_min: nan, ..full });
            rects.push(Rect { x_max: nan, ..full });
        }
        for alpha in [2usize, 4, 16] {
            let tree = RangeTree2D::build(&points, alpha);
            for rect in &rects {
                let expected = range_bruteforce(&points, rect);
                assert_eq!(tree.query(rect), expected, "α={alpha} {rect:?}");
            }
        }
    }

    #[test]
    fn classic_and_engine_answer_identically() {
        let points = make_points(1200, 13);
        for alpha in [2usize, 8, 64] {
            let classic = RangeTree2D::build_classic(&points, alpha);
            let (engine, stats) = RangeTree2D::build_with_stats(&points, alpha);
            assert!(
                stats.scratch.within_budget(),
                "α={alpha}: {:?}",
                stats.scratch
            );
            assert_eq!(
                classic.critical_count(),
                engine.critical_count(),
                "identical point sets must produce identical α-labelings"
            );
            assert_eq!(classic.augmentation_size(), engine.augmentation_size());
            for rect in &random_query_rects(50, 0.25, 14) {
                let expected = range_bruteforce(&points, rect);
                assert_eq!(classic.query(rect), expected, "classic α={alpha}");
                assert_eq!(engine.query(rect), expected, "engine α={alpha}");
            }
        }
    }

    #[test]
    fn engine_writes_fewer_than_classic_textbook() {
        let points = make_points(20_000, 17);
        let (_, classic) = measure(Omega::symmetric(), || {
            RangeTree2D::build_classic(&points, 2)
        });
        let (_, engine) = measure(Omega::symmetric(), || RangeTree2D::build(&points, 8));
        assert!(
            engine.writes < classic.writes,
            "α-labeled engine build must write less than the textbook α=2 \
             classic build: {} vs {}",
            engine.writes,
            classic.writes
        );
    }

    #[test]
    fn aug_arena_is_exactly_sized_and_packed() {
        let points = make_points(3000, 19);
        for alpha in [2usize, 8, 64] {
            let (tree, stats) = RangeTree2D::build_with_stats(&points, alpha);
            assert_eq!(tree.aug.len(), stats.aug_len);
            assert_eq!(
                tree.augmentation_size(),
                tree.aug.len(),
                "every arena word belongs to exactly one critical run"
            );
            // Every critical node's base run is y-sorted and covers its
            // subtree's points.
            for (hot, cold) in tree.nodes.iter().zip(&tree.cold) {
                if cold.inner.is_some() {
                    let off = hot.aug_off as usize;
                    let run = &tree.aug[off..off + hot.aug_len as usize];
                    assert!(run.windows(2).all(|w| ykey(&w[0]) < ykey(&w[1])));
                    assert_eq!(hot.aug_len as usize, cold.weight - 1);
                }
            }
        }
    }

    #[test]
    fn overflow_runs_repack_and_stay_queryable() {
        // Enough inserts into one engine-built tree to overflow several
        // nodes' √(main) overflow caps (forcing arena → owned repacks)
        // without doubling the root's weight (which would rebuild instead).
        let initial = make_points(2000, 23);
        let mut tree = RangeTree2D::build(&initial, 8);
        let mut reference = initial.clone();
        for (i, p) in make_points(1500, 24).into_iter().enumerate() {
            let p = RtPoint {
                point: p.point,
                id: 50_000 + i as u64,
            };
            tree.insert(p);
            reference.push(p);
        }
        assert!(
            tree.nodes.iter().zip(&tree.cold).any(|(hot, cold)| cold
                .inner
                .as_ref()
                .is_some_and(|i| !i.owned.is_empty() && hot.aug_len == 0)),
            "1500 inserts must overflow at least one node's cap"
        );
        for rect in &random_query_rects(40, 0.3, 25) {
            assert_eq!(tree.query(rect), range_bruteforce(&reference, rect));
        }
    }

    #[test]
    fn alpha_labeling_reduces_augmentation() {
        let points = make_points(8000, 3);
        let dense = RangeTree2D::build(&points, 2);
        let sparse = RangeTree2D::build(&points, 16);
        assert!(sparse.critical_count() < dense.critical_count());
        assert!(
            sparse.augmentation_size() < dense.augmentation_size(),
            "α=16 augmentation {} should be below α=2 augmentation {}",
            sparse.augmentation_size(),
            dense.augmentation_size()
        );
    }

    #[test]
    fn empty_and_single() {
        let empty = RangeTree2D::build(&[], 4);
        assert!(empty.is_empty());
        assert!(empty.query(&Rect::new(0.0, 1.0, 0.0, 1.0)).is_empty());

        let single = vec![RtPoint {
            point: Point2::xy(0.5, 0.5),
            id: 3,
        }];
        let tree = RangeTree2D::build(&single, 4);
        assert_eq!(tree.query(&Rect::new(0.0, 1.0, 0.0, 1.0)), vec![3]);
        assert!(tree.query(&Rect::new(0.6, 1.0, 0.0, 1.0)).is_empty());
    }

    #[test]
    fn dynamic_insert_and_delete_match_bruteforce() {
        let initial = make_points(400, 5);
        let mut tree = RangeTree2D::build(&initial, 4);
        let mut reference = initial.clone();
        for (i, p) in make_points(400, 6).into_iter().enumerate() {
            let p = RtPoint {
                point: p.point,
                id: 10_000 + i as u64,
            };
            tree.insert(p);
            reference.push(p);
        }
        for rect in &random_query_rects(40, 0.25, 7) {
            assert_eq!(tree.query(rect), range_bruteforce(&reference, rect));
        }
        // Delete the original points.
        for p in &initial {
            assert!(tree.delete(p));
        }
        reference.retain(|p| p.id >= 10_000);
        assert_eq!(tree.len(), 400);
        for rect in &random_query_rects(40, 0.25, 8) {
            assert_eq!(tree.query(rect), range_bruteforce(&reference, rect));
        }
        assert!(!tree.delete(&initial[0]), "double delete must fail");
    }

    /// One delete descends one root-to-leaf path for a distinct x, so its
    /// reads grow with the depth, not with n.
    #[test]
    fn delete_reads_scale_with_depth() {
        for n in [1_000usize, 10_000, 100_000] {
            let points = make_points(n, 41);
            let mut tree = RangeTree2D::build(&points, 8);
            let victim = points[n / 3];
            let (deleted, r) = measure(Omega::symmetric(), || tree.delete(&victim));
            assert!(deleted, "n={n}");
            let bound = 2 * depth::log2_ceil(n) + 2;
            assert!(r.reads <= bound, "n={n}: {} reads > {bound}", r.reads);
            assert_eq!(tree.len(), n - 1);
            assert!(!tree
                .query(&Rect::new(0.0, 1.0, 0.0, 1.0))
                .contains(&victim.id));
            // Absent points answer false: a tombstoned one, and a live id
            // given with a point it is not stored at.
            assert!(!tree.delete(&victim));
            let moved = RtPoint {
                point: Point2::xy(points[0].point.x() + 0.5, 0.5),
                id: points[0].id,
            };
            assert!(!tree.delete(&moved));
        }
    }

    /// Many points sharing one x sit on both sides of splits at that x; the
    /// descent takes both children there and still finds every one of them,
    /// paying for the shared-x subtrees only.
    #[test]
    fn delete_finds_every_point_among_many_equal_x() {
        let n = 2_000;
        let shared = 200;
        let mut points = make_points(n, 43);
        for p in &mut points[..shared] {
            p.point = Point2::xy(0.5, p.point.y());
        }
        let mut tree = RangeTree2D::build(&points, 8);
        let bound = 2 * shared as u64 + 4 * depth::log2_ceil(n);
        for p in points[..shared].iter().rev() {
            let (deleted, r) = measure(Omega::symmetric(), || tree.delete(p));
            assert!(deleted, "id {}", p.id);
            assert!(r.reads <= bound, "id {}: {} reads > {bound}", p.id, r.reads);
        }
        let reference = &points[shared..];
        assert_eq!(tree.len(), n - shared);
        for rect in &random_query_rects(30, 0.3, 44) {
            assert_eq!(tree.query(rect), range_bruteforce(reference, rect));
        }
    }

    #[test]
    fn skewed_insertions_trigger_rebuilds_and_stay_correct() {
        let mut tree = RangeTree2D::build(&make_points(64, 9), 2);
        let mut reference = tree.collect_live();
        for i in 0..400u64 {
            let p = RtPoint {
                point: Point2::xy(0.9 + (i as f64) * 1e-4, 0.5),
                id: 5000 + i,
            };
            tree.insert(p);
            reference.push(p);
        }
        assert!(tree.rebuilds > 0);
        for rect in &random_query_rects(30, 0.3, 10) {
            assert_eq!(tree.query(rect), range_bruteforce(&reference, rect));
        }
    }

    #[test]
    fn larger_alpha_touches_fewer_critical_nodes_per_insert() {
        let points = make_points(4000, 11);
        let mut dense = RangeTree2D::build(&points, 2);
        let mut sparse = RangeTree2D::build(&points, 16);
        let extra = make_points(400, 12);
        let mut touched_dense = 0u64;
        let mut touched_sparse = 0u64;
        for (i, p) in extra.into_iter().enumerate() {
            let p = RtPoint {
                point: p.point,
                id: 100_000 + i as u64,
            };
            touched_dense += dense.insert(p).critical_touched;
            touched_sparse += sparse.insert(p).critical_touched;
        }
        assert!(
            touched_sparse < touched_dense,
            "α=16 should touch fewer critical nodes ({touched_sparse} vs {touched_dense})"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_query_matches_bruteforce(
            n in 0usize..300,
            seed in 0u64..40,
            alpha in 2usize..12,
            x in 0.0f64..0.7,
            y in 0.0f64..0.7,
            w in 0.05f64..0.3,
        ) {
            let points = make_points(n, seed);
            let tree = RangeTree2D::build(&points, alpha);
            let rect = Rect::new(x, x + w, y, y + w);
            prop_assert_eq!(tree.query(&rect), range_bruteforce(&points, &rect));
        }
    }
}
