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
//! Deletions are handled by tombstoning (the paper's "mark and rebuild when a
//! constant fraction is dead") and insertions by leaf splitting plus
//! reconstruction of any critical subtree whose weight has doubled.

use pwe_asym::counters::{record_read, record_reads, record_writes};
use pwe_asym::depth;
use pwe_asym::smallmem::SmallMem;
use pwe_geom::bbox::Rect;
use pwe_geom::point::Point2;
use pwe_primitives::hash::DetHashSet;
use pwe_primitives::layout::{BlockedTree, NO_NODE};
use pwe_primitives::racecheck;
use pwe_primitives::search::{
    branchless_partition_point, branchless_search_by_key, run_partition_point,
};

use crate::alpha::{is_critical_weight, is_critical_weight_uncharged};
use crate::engine::{
    digest_idx, join_grain, kway_merge_into, range_build_scratch_budget, AugBuildStats, Digest,
};
use crate::interval::f64_key;

const EMPTY: usize = usize::MAX;

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

/// A critical node's inner structure: a y-sorted **main run** — packed in
/// the tree-wide augmentation arena right after construction, or owned by
/// the node once updates have repacked it — plus a small y-sorted overflow
/// run that absorbs post-build insertions (spliced in place — no per-node
/// B-tree).  The overflow run is capped at ~`√(main)` words
/// ([`extra_cap`]): when a splice overflows the cap, main + overflow merge
/// into a fresh owned run, so a single insert never moves more than
/// `O(√m)` words and the repack cost amortizes to `O(√m)` per insert.
#[derive(Debug, Clone, Default)]
struct Inner {
    /// Offset of the arena-backed main run in [`RangeTree2D::aug`].
    base_off: usize,
    /// Length of the arena-backed main run (0 once repacked or for
    /// dynamically created nodes).
    base_len: usize,
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

#[derive(Debug, Clone, Default)]
struct RNode {
    /// Split value: left subtree holds x < split, right subtree x ≥ split.
    split: f64,
    left: usize,
    right: usize,
    /// The point stored here (leaves only).
    leaf: Option<RtPoint>,
    /// Inner structure — present only on critical nodes.
    inner: Option<Inner>,
    /// Subtree weight (points + 1), maintained only on critical nodes.
    weight: usize,
    initial_weight: usize,
    critical: bool,
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
    nodes: Vec<RNode>,
    root: usize,
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
    /// Cache-conscious descent cache over the outer tree, rebuilt at
    /// build-finalize and dropped on structural mutation (queries then fall
    /// back to the flat arena).  Purely derived: never digested, and the
    /// blocked descent charges the exact reads of the flat one
    /// ([`Self::query_flat`] keeps the flat path callable for comparison).
    blocked: Option<BlockedTree<RtHot>>,
}

/// The hot per-node words of the blocked descent: the split key, the
/// node's kind, and — for arena-backed critical nodes — the main run's
/// coordinates in the augmentation arena, so the report walk reaches every
/// run straight from blocked storage and only touches the cold node arena
/// at leaves (and at the rare non-arena-backed critical node).
#[derive(Debug, Clone, Copy)]
struct RtHot {
    split: f64,
    /// Main-run offset in [`RangeTree2D::aug`] (valid iff `kind` is
    /// [`RtKind::Critical`]).
    base_off: u32,
    /// Main-run length (valid iff `kind` is [`RtKind::Critical`]).
    base_len: u32,
    kind: RtKind,
    /// Whether the node stores a leaf point.  Separate from `kind` because
    /// the two flat walks disagree on precedence: the *descent*
    /// (`query_rec`) resolves a leaf-with-inner node as a leaf, while the
    /// *report* walk (`report_y_range`) answers it from the inner run —
    /// the blocked mirrors must reproduce both to stay charge-identical.
    is_leaf: bool,
}

/// What a blocked node resolves to when *reported* (mirrors the
/// `inner`-first precedence of [`RangeTree2D::report_y_range`]; valid as
/// long as the cache is — the fields change only under mutations that drop
/// it).  `Critical` is baked only when the node is arena-backed with an
/// **empty overflow run** (the build-finalize state; any insert drops the
/// cache), so skipping the overflow probe is charge-identical —
/// `report_run` charges nothing on an empty run.  Any other inner state
/// falls back to `CriticalCold`, which reads the node like the flat path
/// does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RtKind {
    Secondary,
    Leaf,
    Critical,
    CriticalCold,
}

impl RangeTree2D {
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
        assert!(alpha >= 2, "α must be at least 2");
        let mut tree = RangeTree2D {
            nodes: Vec::new(),
            root: EMPTY,
            alpha,
            live: points.len(),
            dead: 0,
            aug: Vec::new(),
            deleted: DetHashSet::default(),
            rebuilds: 0,
            blocked: None,
        };
        if points.is_empty() {
            return (tree, AugBuildStats::default());
        }
        let n = points.len();
        let ledger = SmallMem::with_budget(range_build_scratch_budget(n, alpha));
        let mut sorted = points.to_vec();
        sorted.sort_by(|a, b| a.point.x().total_cmp(&b.point.x()));
        record_reads(n as u64 * depth::log2_ceil(n.max(2)));
        record_writes(n as u64);

        // Pre-size both arenas by index arithmetic alone, then fill them by
        // forked recursion over disjoint regions.
        let sizes = AugSizes::new(n, alpha);
        let aug_total = sizes.root_total(n);
        let mut nodes = vec![RNode::default(); 2 * n - 1];
        let filler = RtPoint {
            point: Point2::xy(0.0, 0.0),
            id: 0,
        };
        let mut aug = vec![filler; aug_total];
        build_par_rec(
            &sorted, &mut nodes, 0, &mut aug, 0, alpha, &sizes, true, 0, &ledger,
        );
        tree.nodes = nodes;
        tree.aug = aug;
        tree.root = 0;
        tree.rebuild_blocked();
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
        assert!(alpha >= 2, "α must be at least 2");
        let mut tree = RangeTree2D {
            nodes: Vec::new(),
            root: EMPTY,
            alpha,
            live: points.len(),
            dead: 0,
            aug: Vec::new(),
            deleted: DetHashSet::default(),
            rebuilds: 0,
            blocked: None,
        };
        if points.is_empty() {
            return tree;
        }
        let mut sorted = points.to_vec();
        sorted.sort_by(|a, b| a.point.x().total_cmp(&b.point.x()));
        record_reads(points.len() as u64 * depth::log2_ceil(points.len().max(2)));
        record_writes(points.len() as u64);
        tree.root = tree.build_classic_rec(&sorted);
        tree.rebuild_blocked();
        depth::add(depth::log2_ceil(points.len()));
        tree
    }

    fn build_classic_rec(&mut self, sorted: &[RtPoint]) -> usize {
        let n = sorted.len();
        debug_assert!(n > 0);
        let idx = self.nodes.len();
        self.nodes.push(RNode::default());
        record_writes(1);
        if n == 1 {
            let node = &mut self.nodes[idx];
            node.leaf = Some(sorted[0]);
            node.split = sorted[0].point.x();
            node.left = EMPTY;
            node.right = EMPTY;
            node.weight = 2;
            node.initial_weight = 2;
            node.critical = true; // weight 2 is always critical
            node.inner = Some(Inner {
                owned: vec![sorted[0]],
                ..Inner::default()
            });
            record_writes(1);
            return idx;
        }
        let mid = n / 2;
        let split = sorted[mid].point.x();
        let l = self.build_classic_rec(&sorted[..mid]);
        let r = self.build_classic_rec(&sorted[mid..]);
        let weight = n + 1;
        let critical = is_critical_weight(weight, self.alpha) || idx == 0;
        let node = &mut self.nodes[idx];
        node.split = split;
        node.left = l;
        node.right = r;
        node.weight = weight;
        node.initial_weight = weight;
        node.critical = critical;
        if critical {
            // Copy the subtree's points into a fresh per-node run and sort
            // it by y — the per-critical-level copy the engine eliminates.
            let mut run = sorted.to_vec();
            run.sort_by_key(ykey);
            record_reads(n as u64 * depth::log2_ceil(n.max(2)));
            record_writes(n as u64);
            self.nodes[idx].inner = Some(Inner {
                owned: run,
                ..Inner::default()
            });
        }
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
        self.nodes.iter().filter(|n| n.critical).count()
    }

    /// Total size of all inner structures — the augmentation footprint that
    /// α-labeling reduces from `Θ(n log n)` to `O(n log_α n)` (diagnostic).
    pub fn augmentation_size(&self) -> usize {
        self.nodes
            .iter()
            .filter_map(|n| {
                n.inner
                    .as_ref()
                    .map(|i| i.base_len + i.owned.len() + i.extra.len())
            })
            .sum()
    }

    /// Deterministic fingerprint of the arena layout — outer nodes, inner
    /// run offsets and the augmentation arena contents, in slot order.
    /// Diagnostic: uncharged; used by `tests/parallel_stress.rs` to pin the
    /// layout as bit-identical across thread counts and processes.
    pub fn layout_digest(&self) -> u64 {
        let mut d = Digest::new();
        d.word(digest_idx(self.root));
        for node in &self.nodes {
            d.word(f64_key(node.split));
            d.word(digest_idx(node.left));
            d.word(digest_idx(node.right));
            d.word(node.leaf.map_or(u64::MAX, |p| p.id));
            d.word(node.weight as u64);
            d.word(node.critical as u64);
            match &node.inner {
                Some(inner) => {
                    d.word(inner.base_off as u64);
                    d.word(inner.base_len as u64);
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

    /// Rebuild the blocked descent cache from the current (reachable) outer
    /// tree.  A pure function of the tree shape, so the cache is as
    /// deterministic as the arena it mirrors; uncharged physical layout
    /// (MODEL.md "Cache cost vs. ARAM cost").
    fn rebuild_blocked(&mut self) {
        if self.root == EMPTY {
            self.blocked = None;
            return;
        }
        let nodes = &self.nodes;
        let bt = BlockedTree::build(
            nodes.len(),
            self.root,
            |v| (nodes[v].left, nodes[v].right),
            |v| {
                let node = &nodes[v];
                let (kind, base_off, base_len) = if let Some(inner) = &node.inner {
                    if inner.extra.is_empty()
                        && inner.base_len > 0
                        && inner.base_off <= u32::MAX as usize
                        && inner.base_len <= u32::MAX as usize
                    {
                        (
                            RtKind::Critical,
                            inner.base_off as u32,
                            inner.base_len as u32,
                        )
                    } else {
                        (RtKind::CriticalCold, 0, 0)
                    }
                } else if node.leaf.is_some() {
                    (RtKind::Leaf, 0, 0)
                } else {
                    (RtKind::Secondary, 0, 0)
                };
                RtHot {
                    split: node.split,
                    base_off,
                    base_len,
                    kind,
                    is_leaf: node.leaf.is_some(),
                }
            },
        );
        self.blocked = Some(bt);
    }

    /// Orthogonal range query: ids of live points inside `rect`, ascending.
    /// Descends the blocked cache while one is live, with a branchless run
    /// search at every critical node; after a structural mutation the cache
    /// is dropped and the query falls back to the flat arena descent.
    /// [`Self::query_flat`] is the charge-identical flat-arena mirror
    /// (pinned by `tests/layout_equiv.rs`).
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

    /// [`RangeTree2D::query`] forced onto the flat arena descent: same
    /// visits, same charges — only the machine addresses differ.
    pub fn query_flat(&self, rect: &Rect) -> Vec<u64> {
        let scratch = &mut pwe_asym::smallmem::TaskScratch::untracked();
        let mut out = Vec::new();
        if has_nan_bound(rect) {
            return out;
        }
        let (lo, hi) = (f64::NEG_INFINITY, f64::INFINITY);
        self.query_rec(self.root, rect, lo, hi, &mut out, scratch);
        record_writes(out.len() as u64);
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
        match &self.blocked {
            Some(bt) => self.query_blocked_rec(bt, bt.root(), rect, lo, hi, out, scratch),
            None => self.query_rec(self.root, rect, lo, hi, out, scratch),
        }
        record_writes((out.len() - start) as u64);
    }

    /// The blocked mirror of [`Self::query_rec`]: same logical visits, same
    /// per-node read charge and scratch accounting — only the machine
    /// addresses differ (hot split keys walk blocked-local children; leaf
    /// points and inner runs are reached through `orig`).
    #[allow(clippy::too_many_arguments)]
    fn query_blocked_rec(
        &self,
        bt: &BlockedTree<RtHot>,
        p: u32,
        rect: &Rect,
        lo: f64,
        hi: f64,
        out: &mut Vec<u64>,
        scratch: &mut pwe_asym::smallmem::TaskScratch<'_>,
    ) {
        if p == NO_NODE || lo > rect.x_max || hi < rect.x_min {
            return;
        }
        scratch.alloc(1);
        record_read();
        let bn = bt.node(p);
        let hot = bn.payload;
        if hot.is_leaf {
            if let Some(q) = self.nodes[bn.orig as usize].leaf {
                if rect.contains(&q.point) && !self.deleted.contains(&q.id) {
                    out.push(q.id);
                }
            }
        } else if rect.x_min <= lo && hi <= rect.x_max {
            self.report_y_blocked(bt, p, rect, out, scratch);
        } else {
            let split = hot.split;
            self.query_blocked_rec(bt, bn.left, rect, lo, split, out, scratch);
            self.query_blocked_rec(bt, bn.right, rect, split, hi, out, scratch);
        }
        scratch.free(1);
    }

    /// The blocked mirror of [`Self::report_y_range`] (same charges; the
    /// report-phase entry read is the node's inner-structure header).
    fn report_y_blocked(
        &self,
        bt: &BlockedTree<RtHot>,
        p: u32,
        rect: &Rect,
        out: &mut Vec<u64>,
        scratch: &mut pwe_asym::smallmem::TaskScratch<'_>,
    ) {
        if p == NO_NODE {
            return;
        }
        scratch.alloc(1);
        record_read();
        let bn = bt.node(p);
        match bn.payload.kind {
            RtKind::Critical => {
                // Arena-backed with empty overflow (baked at rebuild): the
                // run is reachable from the hot payload alone, and skipping
                // the empty overflow probe charges nothing extra — exactly
                // like the flat path's `report_run` on an empty run.
                let hot = bn.payload;
                let main =
                    &self.aug[hot.base_off as usize..hot.base_off as usize + hot.base_len as usize];
                self.report_run(main, rect, out);
            }
            RtKind::CriticalCold => {
                let node = &self.nodes[bn.orig as usize];
                let inner = node.inner.as_ref().expect("critical kind implies inner");
                let main: &[RtPoint] = if inner.base_len > 0 {
                    &self.aug[inner.base_off..inner.base_off + inner.base_len]
                } else {
                    &inner.owned
                };
                self.report_run(main, rect, out);
                self.report_run(&inner.extra, rect, out);
            }
            RtKind::Leaf => {
                if let Some(q) = self.nodes[bn.orig as usize].leaf {
                    if rect.contains(&q.point) && !self.deleted.contains(&q.id) {
                        out.push(q.id);
                    }
                }
            }
            RtKind::Secondary => {
                self.report_y_blocked(bt, bn.left, rect, out, scratch);
                self.report_y_blocked(bt, bn.right, rect, out, scratch);
            }
        }
        scratch.free(1);
    }

    fn query_rec(
        &self,
        v: usize,
        rect: &Rect,
        lo: f64,
        hi: f64,
        out: &mut Vec<u64>,
        scratch: &mut pwe_asym::smallmem::TaskScratch<'_>,
    ) {
        if v == EMPTY || lo > rect.x_max || hi < rect.x_min {
            return;
        }
        scratch.alloc(1);
        record_read();
        let node = &self.nodes[v];
        if let Some(p) = node.leaf {
            if rect.contains(&p.point) && !self.deleted.contains(&p.id) {
                out.push(p.id);
            }
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

    /// Report the points of one y-sorted run whose y lies in the query's
    /// y-range: a branchless binary search for the first candidate
    /// (`O(log m)` probe reads over contiguous memory), then an
    /// output-sensitive scan — one read per visited element, the element
    /// past the query's upper y bound included, charged once when the scan
    /// ends.
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
    /// packed base run plus the overflow run; secondary nodes delegate to
    /// their maximal critical descendants (at most `O(α)` levels down,
    /// Corollary 7.1).
    fn report_y_range(
        &self,
        v: usize,
        rect: &Rect,
        out: &mut Vec<u64>,
        scratch: &mut pwe_asym::smallmem::TaskScratch<'_>,
    ) {
        if v == EMPTY {
            return;
        }
        scratch.alloc(1);
        record_read();
        let node = &self.nodes[v];
        if let Some(inner) = &node.inner {
            let main: &[RtPoint] = if inner.base_len > 0 {
                &self.aug[inner.base_off..inner.base_off + inner.base_len]
            } else {
                &inner.owned
            };
            self.report_run(main, rect, out);
            self.report_run(&inner.extra, rect, out);
        } else if let Some(p) = node.leaf {
            if rect.contains(&p.point) && !self.deleted.contains(&p.id) {
                out.push(p.id);
            }
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
        if self.root == EMPTY {
            *self = RangeTree2D::build(&[p], self.alpha);
            self.live = 1;
            return stats;
        }
        // A leaf split (and a possible subtree rebuild below) changes the
        // outer-tree shape: drop the derived descent cache; queries fall
        // back to the flat descent until the next build-finalize.
        self.blocked = None;
        // Descend to a leaf.
        let mut path = Vec::new();
        let mut v = self.root;
        loop {
            path.push(v);
            stats.path_nodes += 1;
            record_read();
            if self.nodes[v].leaf.is_some() {
                break;
            }
            let node = &self.nodes[v];
            v = if p.point.x() < node.split {
                node.left
            } else {
                node.right
            };
        }
        // Split the leaf into an internal node with two leaves.
        let old = self.nodes[v].leaf.expect("descent ends at a leaf");
        let (first, second) = if p.point.x() < old.point.x() {
            (p, old)
        } else {
            (old, p)
        };
        let left_idx = self.nodes.len();
        self.nodes.push(Self::make_leaf(first));
        let right_idx = self.nodes.len();
        self.nodes.push(Self::make_leaf(second));
        record_writes(2);
        {
            let node = &mut self.nodes[v];
            node.leaf = None;
            node.split = second.point.x();
            node.left = left_idx;
            node.right = right_idx;
            node.weight = 3;
            node.initial_weight = 3;
            node.critical = is_critical_weight(3, self.alpha);
            record_writes(1);
        }
        // The split node keeps (or drops) its inner structure according to
        // its new criticality; the new point is added below.
        if !self.nodes[v].critical {
            self.nodes[v].inner = None;
        } else if self.nodes[v].inner.is_none() {
            self.nodes[v].inner = Some(Inner {
                owned: vec![old],
                ..Inner::default()
            });
        }

        // Splice the point into the overflow run of every critical ancestor;
        // an overflow run past its √(main) cap is merged back into an owned
        // main run (amortized O(√m) moved words per insert).
        let aug = &self.aug;
        for &u in &path {
            if self.nodes[u].critical {
                self.nodes[u].weight += 1;
                if let Some(inner) = self.nodes[u].inner.as_mut() {
                    let pos = branchless_partition_point(&inner.extra, |q| ykey(q) < ykey(&p));
                    inner.extra.insert(pos, p);
                    let main_len = if inner.base_len > 0 {
                        inner.base_len
                    } else {
                        inner.owned.len()
                    };
                    if inner.extra.len() > extra_cap(main_len) {
                        let merged = {
                            let main: &[RtPoint] = if inner.base_len > 0 {
                                &aug[inner.base_off..inner.base_off + inner.base_len]
                            } else {
                                &inner.owned
                            };
                            merge_runs(main, &inner.extra)
                        };
                        record_reads(merged.len() as u64);
                        record_writes(merged.len() as u64);
                        inner.owned = merged;
                        inner.base_len = 0;
                        inner.extra = Vec::new();
                    }
                }
                record_writes(2);
                stats.critical_touched += 1;
            }
        }

        // Rebuild the topmost critical subtree that has doubled in weight.
        if let Some(&u) = path.iter().find(|&&u| {
            self.nodes[u].critical
                && self.nodes[u].weight >= 2 * self.nodes[u].initial_weight.max(3)
        }) {
            self.rebuild_subtree(u);
            stats.rebuilt = true;
        }
        stats
    }

    fn make_leaf(p: RtPoint) -> RNode {
        RNode {
            split: p.point.x(),
            left: EMPTY,
            right: EMPTY,
            leaf: Some(p),
            inner: Some(Inner {
                owned: vec![p],
                ..Inner::default()
            }),
            weight: 2,
            initial_weight: 2,
            critical: true,
        }
    }

    /// Delete a point by id (tombstoning).  The whole tree is rebuilt once
    /// more than half of the stored points are dead.
    pub fn delete(&mut self, id: u64) -> bool {
        if self.deleted.contains(&id) {
            return false;
        }
        let exists = self.collect_live().iter().any(|p| p.id == id);
        if !exists {
            return false;
        }
        self.deleted.insert(id);
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

    /// All live points.
    pub fn collect_live(&self) -> Vec<RtPoint> {
        fn rec(nodes: &[RNode], v: usize, deleted: &DetHashSet<u64>, out: &mut Vec<RtPoint>) {
            if v == EMPTY {
                return;
            }
            if let Some(p) = nodes[v].leaf {
                if !deleted.contains(&p.id) {
                    out.push(p);
                }
                return;
            }
            rec(nodes, nodes[v].left, deleted, out);
            rec(nodes, nodes[v].right, deleted, out);
        }
        let mut out = Vec::new();
        rec(&self.nodes, self.root, &self.deleted, &mut out);
        record_reads(out.len() as u64);
        out
    }

    fn rebuild_subtree(&mut self, v: usize) {
        self.rebuilds += 1;
        // Collect the live points below v.
        fn rec(nodes: &[RNode], v: usize, deleted: &DetHashSet<u64>, out: &mut Vec<RtPoint>) {
            if v == EMPTY {
                return;
            }
            if let Some(p) = nodes[v].leaf {
                if !deleted.contains(&p.id) {
                    out.push(p);
                }
                return;
            }
            rec(nodes, nodes[v].left, deleted, out);
            rec(nodes, nodes[v].right, deleted, out);
        }
        let mut points = Vec::new();
        rec(&self.nodes, v, &self.deleted, &mut points);
        record_reads(points.len() as u64);
        if points.is_empty() {
            return;
        }
        // Rebuild through the engine and splice both arenas into ours; the
        // replaced subtree's segments become garbage until the next full
        // rebuild, like detached node slots.
        let rebuilt = RangeTree2D::build(&points, self.alpha);
        let node_off = self.nodes.len();
        let aug_off = self.aug.len();
        self.aug.extend_from_slice(&rebuilt.aug);
        let remap = |idx: usize| if idx == EMPTY { EMPTY } else { idx + node_off };
        for mut node in rebuilt.nodes {
            node.left = remap(node.left);
            node.right = remap(node.right);
            if let Some(inner) = node.inner.as_mut() {
                inner.base_off += aug_off;
            }
            self.nodes.push(node);
        }
        let new_root = remap(rebuilt.root);
        let root_copy = self.nodes[new_root].clone();
        self.nodes[v] = root_copy;
        record_writes(1);
        if v == self.root {
            self.nodes[self.root].critical = true;
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
            left: EMPTY,
            right: EMPTY,
            leaf: Some(p),
            inner: Some(Inner {
                base_off: aug_base,
                base_len: 1,
                ..Inner::default()
            }),
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
    let (ls, rs) = sorted.split_at(mid);
    let left_base = aug_base + own_len;
    let right_base = left_base + left_aug_len;

    // racecheck: when the fork is real, each arm claims its disjoint slices
    // of both shared arenas (augmentation words and preorder nodes).
    let forked = m > crate::engine::SEQUENTIAL_BUILD_CUTOFF;
    let ((lruns, lview), (rruns, rview)) = join_grain(
        m,
        move || {
            let _claims = forked.then(|| {
                (
                    racecheck::claim_slice(&*left_aug, "range_tree::build_par_rec/left_aug"),
                    racecheck::claim_slice(&*left_nodes, "range_tree::build_par_rec/left_nodes"),
                )
            });
            let runs = build_par_rec(
                ls,
                left_nodes,
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
                )
            });
            let runs = build_par_rec(
                rs,
                right_nodes,
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
        left: node_base + 1,
        right: node_base + 1 + (2 * mid - 1),
        leaf: None,
        inner: None,
        weight,
        initial_weight: weight,
        critical,
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
        node0.inner = Some(Inner {
            base_off: aug_base,
            base_len: m,
            ..Inner::default()
        });
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
                assert_eq!(tree.query_flat(rect), expected, "α={alpha} {rect:?}");
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
            for node in &tree.nodes {
                if let Some(inner) = &node.inner {
                    let run = &tree.aug[inner.base_off..inner.base_off + inner.base_len];
                    assert!(run.windows(2).all(|w| ykey(&w[0]) < ykey(&w[1])));
                    assert_eq!(inner.base_len, node.weight - 1);
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
            tree.nodes.iter().any(|n| n
                .inner
                .as_ref()
                .is_some_and(|i| !i.owned.is_empty() && i.base_len == 0)),
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
            assert!(tree.delete(p.id));
        }
        reference.retain(|p| p.id >= 10_000);
        assert_eq!(tree.len(), 400);
        for rect in &random_query_rects(40, 0.25, 8) {
            assert_eq!(tree.query(rect), range_bruteforce(&reference, rect));
        }
        assert!(!tree.delete(initial[0].id), "double delete must fail");
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
