//! Interval trees and 1D stabbing queries (Sections 7.1–7.3).
//!
//! The tree is a binary search tree over the (sorted, deduplicated) **left**
//! endpoints of the intervals; every interval is stored at the highest node
//! whose key it covers, in two inner structures ordered by left and by right
//! endpoint so that a stabbing query can report exactly the covering
//! intervals in output-sensitive time.  Left endpoints suffice as keys: every
//! closed interval contains its own left endpoint, so the descent that places
//! it follows the search path of that key and stops at the latest on the key's
//! own node — it never falls off the tree.
//!
//! * [`IntervalTree::build_classic`] is the textbook construction —
//!   `Θ(n log n)` reads **and** writes (it moves every interval at every
//!   level of the recursion).
//! * [`IntervalTree::build_parallel`] is the paper's post-sorted
//!   construction (Theorem 7.1) — after a write-efficient sort of the left
//!   endpoints it spends only `O(n)` additional writes — run through the
//!   shared parallel engine of [`crate::engine`]: the node arena is
//!   pre-sized and laid out by index arithmetic (slot `lo + (hi-lo)/2` for
//!   the key range `[lo, hi)`), and the skeleton, attachment and weight
//!   passes fork over disjoint `&mut` arena regions.  Dynamic
//!   reconstructions ([`IntervalTree::insert`] / [`IntervalTree::delete`])
//!   rebuild through this engine.
//! * Updates use α-labeling + reconstruction-based rebalancing
//!   (Theorem 7.3/7.4): only the critical nodes on the search path have
//!   their balance information rewritten, so an insertion writes
//!   `O(log_α n)` words; when a critical subtree doubles its weight it is
//!   rebuilt with the post-sorted construction.
//!
//! **Inner-structure representation.**  Each node's by-left / by-right
//! inner structures are **flat sorted runs**: the parallel build packs them
//! into two tree-wide arenas (`left_arena` / `right_arena`, one segment per
//! node, in node-index order), and post-build attachments splice into a
//! small per-node sorted overflow run that is merged back into an owned run
//! past its `√(main)` cap — the same overflow-run discipline as
//! [`crate::range_tree`], replacing the per-node B-trees.  Queries scan
//! contiguous memory; the ARAM charges (one read per reported interval plus
//! one failed probe per visited node) are those of the B-tree walk they
//! replace.
//!
//! **Node arenas.**  Each node lives in two vectors indexed by the same
//! slot (`lo + (hi-lo)/2` for the key range `[lo, hi)`): a 24-byte hot
//! `Node` (key, `u32` children, one non-empty flag per side) that the
//! stabbing walk reads at every level, and a cold `Cold` (the two sides'
//! runs, weights) that it reads only on a side with something to report.
//! Updates write both in step.

use pwe_asym::counters::{record_read, record_reads, record_writes};
use pwe_asym::depth;
use pwe_geom::interval::Interval;
use pwe_primitives::racecheck;
use pwe_primitives::search::{branchless_partition_point, branchless_search_by_key};
use pwe_sort_shim::sort_f64_keys;

use crate::alpha::is_critical_weight;
use crate::engine::{digest_slot, slot, NONE};

/// Map an `f64` to a `u64` whose natural order matches the float's total
/// order (sign-magnitude flip), so BTreeMap keys and integer sorts can be
/// used on endpoint values.  `-0.0` maps to the key of `0.0`, so keys agree
/// with IEEE `<=` on every non-NaN value.
#[inline]
pub fn f64_key(x: f64) -> u64 {
    let x = x + 0.0;
    let bits = x.to_bits();
    if x.is_sign_negative() {
        !bits
    } else {
        bits ^ 0x8000_0000_0000_0000
    }
}

/// Inverse of [`f64_key`].
#[inline]
pub fn f64_from_key(k: u64) -> f64 {
    if k & 0x8000_0000_0000_0000 != 0 {
        f64::from_bits(k ^ 0x8000_0000_0000_0000)
    } else {
        f64::from_bits(!k)
    }
}

/// Shim module so this crate can use the write-efficient sort without a
/// circular dependency on `pwe-sort` (which depends on nothing here, but
/// keeping the augmented trees self-contained keeps the dependency graph a
/// clean DAG).  The sort is the same incremental-BST approach conceptually;
/// here we sort `u64` keys and charge `O(n log n)` reads and `O(n)` writes,
/// the costs established by Theorem 4.1.
mod pwe_sort_shim {
    use pwe_asym::counters::{record_reads, record_writes};
    use pwe_asym::depth;

    /// Sort a vector of order-preserving `u64` keys, charging the costs of
    /// the write-efficient comparison sort (Theorem 4.1).
    pub fn sort_f64_keys(mut keys: Vec<u64>) -> Vec<u64> {
        let n = keys.len() as u64;
        keys.sort_unstable();
        record_reads(n * depth::log2_ceil(keys.len().max(2)));
        record_writes(n);
        depth::add(2 * depth::log2_ceil(keys.len().max(2)));
        keys
    }
}

/// One entry of a flattened inner run: the ordering key — `(endpoint key,
/// id)`, unique per interval — and the interval itself.
type StabEntry = ((u64, u64), Interval);

/// One side (by-left or by-right) of a node's flattened inner structure: a
/// sorted **main run** — a segment of the tree-wide arena right after the
/// parallel build, or owned by the node once an update has repacked it —
/// plus a small sorted overflow run for post-build attachments, merged back
/// into an owned main run past its `√(main)` cap (the overflow-run
/// discipline of [`crate::range_tree`]).
#[derive(Debug, Clone, Default)]
struct StabSide {
    /// Offset of the arena-backed main run in the tree-wide arena.
    base_off: usize,
    /// Length of the arena-backed main run (0 once repacked, and for nodes
    /// of the sequential builds, which attach through the overflow run).
    base_len: usize,
    /// Owned main run replacing the arena-backed one after a repack.
    owned: Vec<StabEntry>,
    /// Sorted overflow run for post-build attachments.
    extra: Vec<StabEntry>,
}

impl StabSide {
    fn len(&self) -> usize {
        let main = if self.base_len > 0 {
            self.base_len
        } else {
            self.owned.len()
        };
        main + self.extra.len()
    }

    fn is_side_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Cap on a side's overflow run before it merges into an owned main run.
#[inline]
fn extra_cap(main_len: usize) -> usize {
    main_len.isqrt().max(64)
}

/// Merge two sorted entry runs (keys are unique, so the order is strict).
fn merge_entries(a: &[StabEntry], b: &[StabEntry]) -> Vec<StabEntry> {
    // alloc: large-mem — the repacked owned run (uncharged physical layout maintenance)
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i].0 < b[j].0 {
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

/// Splice one entry into a side's overflow run; past the cap, merge main +
/// overflow into an owned run (uncharged physical repack — the caller
/// charges the attachment's model writes).
fn splice_side(side: &mut StabSide, arena: &[StabEntry], key: (u64, u64), s: Interval) {
    let pos = branchless_partition_point(&side.extra, |e| e.0 < key);
    side.extra.insert(pos, (key, s));
    let main_len = if side.base_len > 0 {
        side.base_len
    } else {
        side.owned.len()
    };
    if side.extra.len() > extra_cap(main_len) {
        let main: &[StabEntry] = if side.base_len > 0 {
            &arena[side.base_off..side.base_off + side.base_len]
        } else {
            &side.owned
        };
        side.owned = merge_entries(main, &side.extra);
        side.base_len = 0;
        side.extra = Vec::new();
    }
}

/// Remove the entry with `key` from a side, if present.  An arena-backed
/// main run is first repacked into an owned run (uncharged physical copy),
/// mirroring the overflow-run discipline.
fn remove_side(side: &mut StabSide, arena: &[StabEntry], key: (u64, u64)) -> bool {
    if let Ok(pos) = branchless_search_by_key(&side.extra, key, |e| e.0) {
        side.extra.remove(pos);
        return true;
    }
    if side.base_len > 0 {
        let main = &arena[side.base_off..side.base_off + side.base_len];
        if branchless_search_by_key(main, key, |e| e.0).is_err() {
            return false;
        }
        side.owned = main.to_vec();
        side.base_len = 0;
    }
    match branchless_search_by_key(&side.owned, key, |e| e.0) {
        Ok(pos) => {
            side.owned.remove(pos);
            true
        }
        Err(_) => false,
    }
}

/// The hot half of a node: what the stabbing walk reads at every level.
#[derive(Debug, Clone, Copy, Default)]
struct Node {
    key: f64,
    left: u32,
    right: u32,
    /// [`LEFT_SIDE`] | [`RIGHT_SIDE`]: which of the cold sides hold
    /// intervals ([`side_flags`]).
    flags: u8,
}

/// The by-left side of the node's cold record is non-empty.
const LEFT_SIDE: u8 = 1;
/// The by-right side of the node's cold record is non-empty.
const RIGHT_SIDE: u8 = 2;

const _: () = assert!(std::mem::size_of::<Node>() <= 32);

impl Node {
    fn new(key: f64) -> Self {
        Node {
            key,
            left: NONE,
            right: NONE,
            flags: 0,
        }
    }
}

/// The cold half of a node: its stored intervals and balance information,
/// read by the stabbing walk only on a side flagged non-empty.
#[derive(Debug, Clone, Default)]
struct Cold {
    /// Intervals covering `key`, ordered by left endpoint (ascending).
    by_left: StabSide,
    /// The same intervals, ordered by right endpoint (ascending; queries scan
    /// it from the back).
    by_right: StabSide,
    /// Subtree weight (stored intervals + 1); kept up to date only while the
    /// node is critical.
    weight: usize,
    /// Weight right after the last (re)construction.
    initial_weight: usize,
    /// Whether the node is critical under the current α-labeling.
    critical: bool,
}

impl Cold {
    fn stored(&self) -> usize {
        self.by_left.len()
    }
}

/// The hot flags of a node whose cold record is `cold`.
fn side_flags(cold: &Cold) -> u8 {
    let mut flags = 0;
    if !cold.by_left.is_side_empty() {
        flags |= LEFT_SIDE;
    }
    if !cold.by_right.is_side_empty() {
        flags |= RIGHT_SIDE;
    }
    flags
}

/// Statistics for one update, used by the experiments to verify the
/// read/write trade-off of Theorem 7.3.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Nodes visited on the search path.
    pub path_nodes: u64,
    /// Critical nodes whose balance information was rewritten.
    pub critical_touched: u64,
    /// Whether the update triggered a subtree reconstruction.
    pub rebuilt: bool,
}

/// A dynamic interval tree with α-labeling.
#[derive(Debug, Clone)]
pub struct IntervalTree {
    /// Hot node records.
    nodes: Vec<Node>,
    /// Cold node records, same slots as `nodes`.
    cold: Vec<Cold>,
    root: u32,
    alpha: usize,
    /// Number of stored (live) intervals.
    len: usize,
    /// Intervals stored at the time of the last full (re)construction.
    built_len: usize,
    /// Deletions since the last full reconstruction.
    deletions: usize,
    /// Number of subtree reconstructions triggered by updates (diagnostic).
    pub rebuilds: u64,
    /// Tree-wide by-left run arena: one sorted segment per node, packed in
    /// node-index order by the parallel build (empty for the sequential
    /// builds, whose runs are node-owned).
    left_arena: Vec<StabEntry>,
    /// Tree-wide by-right run arena (same packing).
    right_arena: Vec<StabEntry>,
}

impl IntervalTree {
    // -------------------------------------------------------------- builds

    fn empty(alpha: usize, len: usize) -> Self {
        assert!(alpha >= 2);
        IntervalTree {
            nodes: Vec::new(),
            cold: Vec::new(),
            root: NONE,
            alpha,
            len,
            built_len: len,
            deletions: 0,
            rebuilds: 0,
            left_arena: Vec::new(),
            right_arena: Vec::new(),
        }
    }

    /// The classic construction: recursively split at the median endpoint,
    /// partitioning the interval set at every level — `Θ(n log n)` reads
    /// **and** charged writes.  The implementation selects the median and
    /// 3-way-partitions *in place* over a single scratch buffer (no per-level
    /// `Vec` allocations), but the model charges are the textbook
    /// algorithm's: one copied word per endpoint and per interval per level.
    pub fn build_classic(intervals: &[Interval], alpha: usize) -> Self {
        let mut tree = Self::empty(alpha, intervals.len());
        tree.nodes.reserve(2 * intervals.len());
        tree.cold.reserve(2 * intervals.len());
        let mut buf = intervals.to_vec();
        let mut endpoints = vec![0.0f64; 2 * intervals.len()];
        tree.root = tree.build_classic_rec(&mut buf, &mut endpoints);
        tree.finalize_weights();
        depth::add(depth::log2_ceil(intervals.len().max(1)));
        tree
    }

    fn build_classic_rec(&mut self, intervals: &mut [Interval], endpoints: &mut [f64]) -> u32 {
        if intervals.is_empty() {
            return NONE;
        }
        let m = intervals.len();
        // Median of the 2m endpoints, selected in place in the scratch
        // prefix (the full sort of the old construction is unnecessary).
        let ep = &mut endpoints[..2 * m];
        for (i, s) in intervals.iter().enumerate() {
            ep[2 * i] = s.left;
            ep[2 * i + 1] = s.right;
        }
        record_reads(2 * m as u64);
        ep.select_nth_unstable_by_key(m, |&x| f64_key(x));
        let key = ep[m];
        record_writes(2 * m as u64); // the classic build copies per level

        // In-place 3-way partition: [ right < key | contains key | rest ].
        let left_end = crate::engine::partition_in_place(intervals, |s| s.right < key);
        let here_end = left_end
            + crate::engine::partition_in_place(&mut intervals[left_end..], |s| s.contains(key));
        record_writes(m as u64);

        let idx = self.push_node(key);
        for &s in intervals[left_end..here_end].iter() {
            self.attach_interval(idx as usize, &s);
        }
        let l = self.build_classic_rec(&mut intervals[..left_end], endpoints);
        let r = {
            let (_, tail) = intervals.split_at_mut(here_end);
            self.build_classic_rec(tail, endpoints)
        };
        self.nodes[idx as usize].left = l;
        self.nodes[idx as usize].right = r;
        idx
    }

    /// Append an empty node with `key` to both arenas.
    fn push_node(&mut self, key: f64) -> u32 {
        let idx = slot(self.nodes.len());
        self.nodes.push(Node::new(key));
        self.cold.push(Cold::default());
        idx
    }

    /// The post-sorted construction (Theorem 7.1) on the shared parallel
    /// engine of [`crate::engine`]: sort the left endpoints once, pre-size
    /// the node arenas (the node of key range `[lo, hi)` lives at slot
    /// `lo + (hi-lo)/2`, so every subtree owns a disjoint arena region
    /// computable by index arithmetic alone), then fork `par_join` recursion
    /// over disjoint `&mut` regions for the skeleton, the interval
    /// attachment and the weight/criticality pass.  Charges
    /// `O(sort(n)) + O(n)` writes and produces a bit-identical arena at
    /// every thread count.
    pub fn build_parallel(intervals: &[Interval], alpha: usize) -> Self {
        Self::build_parallel_with_stats(intervals, alpha).0
    }

    /// [`IntervalTree::build_parallel`] plus build statistics (arena size and
    /// the small-memory ledger snapshot of the forked recursion, budgeted at
    /// [`crate::engine::build_scratch_budget`]).
    pub fn build_parallel_with_stats(
        intervals: &[Interval],
        alpha: usize,
    ) -> (Self, crate::engine::AugBuildStats) {
        let mut tree = Self::empty(alpha, intervals.len());
        if intervals.is_empty() {
            return (tree, crate::engine::AugBuildStats::default());
        }
        let ledger = pwe_asym::smallmem::SmallMem::with_budget(
            crate::engine::build_scratch_budget(intervals.len()),
        );

        // 1. Sort the n left-endpoint keys (write-efficient sort costs) and
        //    deduplicate them.
        let keys: Vec<u64> = intervals.iter().map(|s| f64_key(s.left)).collect();
        record_reads(keys.len() as u64);
        let mut sorted = sort_f64_keys(keys);
        sorted.dedup();
        let m = sorted.len();

        // 2. Balanced skeleton over a pre-sized hot arena (its slots must fit
        //    the u32 child fields), forked over disjoint regions (O(m)
        //    writes, O(log m) span).
        let mut nodes = vec![Node::default(); m];
        let mut cold = vec![Cold::default(); m];
        skeleton_rec(&sorted, &mut nodes, 0, 0, &ledger);
        tree.root = slot(m / 2);

        // 3. Locate every interval's node (reads only, embarrassingly
        //    parallel), then group the intervals by destination node with a
        //    deterministic sort.
        let nodes_ref = &nodes;
        let root = tree.root;
        let mut located: Vec<(u64, u32)> = pwe_asym::parallel::par_map(intervals.len(), |i| {
            let mut scratch = pwe_asym::smallmem::TaskScratch::new(&ledger);
            scratch.alloc(2);
            (
                locate_index(nodes_ref, root, &intervals[i]) as u64,
                i as u32,
            )
        });
        located.sort_unstable();
        record_reads(located.len() as u64 * depth::log2_ceil(located.len().max(2)));
        record_writes(located.len() as u64);

        // 4. Attach each group to its node, forking over disjoint node and
        //    run-arena regions (2 writes per interval, exactly as the
        //    sequential attachment charges).  `located` is sorted by node
        //    index, so arena slot == located slot packs each node's runs
        //    contiguously, in node-index order.
        let runs = runs_of(&located);
        // alloc: large-mem — the two flattened inner-run arenas, one slot per interval (their fills are the charged attachment writes)
        let filler: StabEntry = ((0, 0), intervals[0]);
        let mut left_arena = vec![filler; located.len()];
        let mut right_arena = vec![filler; located.len()];
        attach_rec(
            &mut nodes,
            &mut cold,
            0,
            &runs,
            &located,
            intervals,
            &mut left_arena,
            &mut right_arena,
            0,
            &ledger,
            0,
        );

        // 5. Weights + α-criticality, forked over the same regions.
        finalize_rec(&mut cold, alpha, 0, &ledger);
        cold[root as usize].critical = true;
        record_writes(m as u64);
        record_reads(m as u64);

        tree.nodes = nodes;
        tree.cold = cold;
        tree.left_arena = left_arena;
        tree.right_arena = right_arena;
        depth::add(2 * depth::log2_ceil(intervals.len().max(2)));
        let stats = crate::engine::AugBuildStats {
            nodes: m,
            aug_len: 0,
            scratch: ledger.report(),
        };
        (tree, stats)
    }

    /// Deterministic fingerprint of the arena layout (keys, child indices,
    /// weights, criticality and the stored intervals, in slot order).
    /// Diagnostic: uncharged; used by `tests/parallel_stress.rs` to pin the
    /// layout as bit-identical across thread counts and processes.
    pub fn layout_digest(&self) -> u64 {
        let mut d = crate::engine::Digest::new();
        d.word(digest_slot(self.root));
        for (node, cold) in self.nodes.iter().zip(&self.cold) {
            d.word(f64_key(node.key));
            d.word(digest_slot(node.left));
            d.word(digest_slot(node.right));
            d.word(cold.weight as u64);
            d.word(cold.critical as u64);
            // Fold the by-left entries in merged key order — the exact word
            // sequence the pre-flattening B-tree iteration produced.
            let main = self.side_main(&cold.by_left, &self.left_arena);
            let extra = &cold.by_left.extra;
            let (mut i, mut j) = (0, 0);
            while i < main.len() || j < extra.len() {
                let take_main = j >= extra.len() || (i < main.len() && main[i].0 < extra[j].0);
                let (k, id) = if take_main {
                    i += 1;
                    main[i - 1].0
                } else {
                    j += 1;
                    extra[j - 1].0
                };
                d.word(k);
                d.word(id);
            }
        }
        d.finish()
    }

    /// The main run of one side: its arena segment, or the owned run once
    /// repacked.
    fn side_main<'a>(&self, side: &'a StabSide, arena: &'a [StabEntry]) -> &'a [StabEntry] {
        if side.base_len > 0 {
            &arena[side.base_off..side.base_off + side.base_len]
        } else {
            &side.owned
        }
    }

    fn attach_interval(&mut self, node: usize, s: &Interval) {
        record_writes(2);
        let cold = &mut self.cold[node];
        splice_side(
            &mut cold.by_left,
            &self.left_arena,
            (f64_key(s.left), s.id),
            *s,
        );
        splice_side(
            &mut cold.by_right,
            &self.right_arena,
            (f64_key(s.right), s.id),
            *s,
        );
        self.nodes[node].flags = LEFT_SIDE | RIGHT_SIDE;
    }

    /// Recompute every subtree weight and the critical labeling (done after
    /// a construction or reconstruction; O(size) reads/writes, charged).
    fn finalize_weights(&mut self) {
        fn rec(nodes: &[Node], cold: &mut [Cold], v: u32, alpha: usize) -> usize {
            if v == NONE {
                return 1;
            }
            let v = v as usize;
            let (l, r) = (nodes[v].left, nodes[v].right);
            let w = cold[v].stored() + rec(nodes, cold, l, alpha) + rec(nodes, cold, r, alpha);
            cold[v].weight = w;
            cold[v].initial_weight = w;
            cold[v].critical = is_critical_weight(w, alpha);
            w
        }
        if self.root != NONE {
            rec(&self.nodes, &mut self.cold, self.root, self.alpha);
            // The root is always treated as (virtually) critical.
            self.cold[self.root as usize].critical = true;
            record_writes(self.nodes.len() as u64);
            record_reads(self.nodes.len() as u64);
        }
    }

    // ------------------------------------------------------------- queries

    /// Number of live intervals stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree stores no intervals.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The α parameter.
    pub fn alpha(&self) -> usize {
        self.alpha
    }

    /// Height of the tree (diagnostic, not charged).
    pub fn height(&self) -> usize {
        fn rec(nodes: &[Node], v: u32) -> usize {
            if v == NONE {
                0
            } else {
                let node = &nodes[v as usize];
                1 + rec(nodes, node.left).max(rec(nodes, node.right))
            }
        }
        rec(&self.nodes, self.root)
    }

    /// Number of critical nodes (diagnostic).
    pub fn critical_count(&self) -> usize {
        self.cold.iter().filter(|n| n.critical).count()
    }

    /// 1D stabbing query: ids of all stored intervals containing `x`,
    /// in ascending id order.
    pub fn stab(&self, x: f64) -> Vec<u64> {
        let mut out = Vec::new();
        self.stab_into(
            x,
            &mut pwe_asym::smallmem::TaskScratch::untracked(),
            &mut out,
        );
        out.sort_unstable();
        out
    }

    /// The stabbing reporter: appends the ids of all stored intervals
    /// containing `x` to `out` in walk order (unsorted), charging the query
    /// task's symmetric scratch — one word per level of the root-to-leaf
    /// descent, `O(log n)` on a post-sorted (balanced) tree — against a
    /// small-memory ledger via `scratch`.  The reported intervals
    /// themselves are output writes to the large memory, not scratch.
    pub fn stab_into(
        &self,
        x: f64,
        scratch: &mut pwe_asym::smallmem::TaskScratch<'_>,
        out: &mut Vec<u64>,
    ) {
        let start = out.len();
        let levels = self.stab_walk(x, scratch, out);
        // The path is released when the descent ends, so a guard reused
        // across queries sees each descent's peak, not their sum.
        scratch.free(levels);
        record_writes((out.len() - start) as u64);
    }

    /// The root-to-leaf stabbing descent; returns the path length (scratch
    /// words still held).  Direction decisions read the hot record; a side
    /// is scanned from the cold record only when its flag says it holds
    /// intervals, and an empty side still charges the failed-probe read the
    /// scan would.  Charges its reads — one per level plus each node's
    /// report scan — once, when the descent ends.
    fn stab_walk(
        &self,
        x: f64,
        scratch: &mut pwe_asym::smallmem::TaskScratch<'_>,
        out: &mut Vec<u64>,
    ) -> u64 {
        let mut cur = self.root;
        let mut levels = 0u64;
        let mut reads = 0u64;
        while cur != NONE {
            scratch.alloc(1);
            levels += 1;
            let node = &self.nodes[cur as usize];
            if x <= node.key {
                reads += if node.flags & LEFT_SIDE != 0 {
                    self.report_left(&self.cold[cur as usize], x, out)
                } else {
                    1
                };
                cur = if x < node.key { node.left } else { NONE };
            } else {
                reads += if node.flags & RIGHT_SIDE != 0 {
                    self.report_right(&self.cold[cur as usize], x, out)
                } else {
                    1
                };
                cur = node.right;
            }
        }
        record_reads(levels + reads);
        levels
    }

    /// Report the node's intervals with left endpoint ≤ `x` (all of them
    /// contain `x` because every stored interval covers `node.key ≥ x`):
    /// scan the main run then the overflow run, each sorted ascending by
    /// left endpoint.  Returns the scan's read charge — one per reported
    /// interval plus exactly one failed-probe read for the scan's end, the
    /// charge of the inner-walk this flat scan replaces — for the caller to
    /// record once.
    fn report_left(&self, cold: &Cold, x: f64, out: &mut Vec<u64>) -> u64 {
        let bound = f64_key(x);
        let start = out.len();
        let main = self.side_main(&cold.by_left, &self.left_arena);
        for run in [main, cold.by_left.extra.as_slice()] {
            out.extend(run.iter().take_while(|e| e.0 .0 <= bound).map(|&(_, s)| {
                debug_assert!(s.contains(x));
                s.id
            }));
        }
        (out.len() - start) as u64 + 1
    }

    /// Report the node's intervals with right endpoint ≥ `x` (mirror of
    /// [`Self::report_left`]): scan each run from the back.
    fn report_right(&self, cold: &Cold, x: f64, out: &mut Vec<u64>) -> u64 {
        let bound = f64_key(x);
        let start = out.len();
        let main = self.side_main(&cold.by_right, &self.right_arena);
        for run in [main, cold.by_right.extra.as_slice()] {
            out.extend(
                run.iter()
                    .rev()
                    .take_while(|e| e.0 .0 >= bound)
                    .map(|&(_, s)| {
                        debug_assert!(s.contains(x));
                        s.id
                    }),
            );
        }
        (out.len() - start) as u64 + 1
    }

    // ------------------------------------------------------------- updates

    /// Insert an interval.  Writes `O(log_α n)` balance words plus `O(1)` for
    /// the interval itself; triggers a subtree reconstruction when a critical
    /// subtree has doubled its weight since it was last built.
    pub fn insert(&mut self, s: &Interval) -> UpdateStats {
        let mut stats = UpdateStats::default();
        self.len += 1;

        // Walk down, remembering the path, to the node that stores `s`.
        let mut path = Vec::new();
        let target = if self.root == NONE {
            self.root = self.push_node(s.left);
            record_writes(1);
            let cold = &mut self.cold[self.root as usize];
            cold.critical = true;
            cold.weight = 1;
            cold.initial_weight = 1;
            self.root as usize
        } else {
            let mut cur = self.root as usize;
            loop {
                path.push(cur);
                stats.path_nodes += 1;
                record_read();
                let node = self.nodes[cur];
                if s.contains(node.key) {
                    break cur;
                }
                let next = if s.right < node.key {
                    node.left
                } else {
                    node.right
                };
                if next == NONE {
                    let idx = self.push_node(s.left);
                    // A fresh leaf has weight 2 and is always critical.
                    let cold = &mut self.cold[idx as usize];
                    cold.weight = 2;
                    cold.initial_weight = 2;
                    cold.critical = true;
                    record_writes(2);
                    if s.right < node.key {
                        self.nodes[cur].left = idx;
                    } else {
                        self.nodes[cur].right = idx;
                    }
                    path.push(idx as usize);
                    break idx as usize;
                }
                cur = next as usize;
            }
        };
        self.attach_interval(target, s);

        // Update balance information on the critical nodes of the path only.
        for &v in &path {
            if self.cold[v].critical {
                self.cold[v].weight += 1;
                record_writes(1);
                stats.critical_touched += 1;
            }
        }

        // Rebuild the topmost critical subtree that has doubled in weight.
        if let Some(&v) = path.iter().find(|&&v| {
            let cold = &self.cold[v];
            cold.critical && cold.weight >= 2 * cold.initial_weight.max(2)
        }) {
            self.rebuild_subtree(v, &path);
            stats.rebuilt = true;
        }
        stats
    }

    /// Delete an interval (matched by endpoints and id).  Returns whether it
    /// was present.  `O(1)` writes plus the critical-path weight updates; the
    /// whole tree is rebuilt once half of the intervals present at the last
    /// construction have been deleted.
    pub fn delete(&mut self, s: &Interval) -> bool {
        if self.root == NONE {
            return false;
        }
        let mut path = Vec::new();
        let mut cur = self.root as usize;
        let found = loop {
            path.push(cur);
            record_read();
            let node = &self.nodes[cur];
            if s.contains(node.key) {
                break cur;
            }
            let next = if s.right < node.key {
                node.left
            } else {
                node.right
            };
            if next == NONE {
                return false;
            }
            cur = next as usize;
        };
        let cold = &mut self.cold[found];
        let removed = remove_side(&mut cold.by_left, &self.left_arena, (f64_key(s.left), s.id));
        if !removed {
            return false;
        }
        remove_side(
            &mut cold.by_right,
            &self.right_arena,
            (f64_key(s.right), s.id),
        );
        self.nodes[found].flags = side_flags(cold);
        record_writes(2);
        self.len -= 1;
        self.deletions += 1;
        for &v in &path {
            if self.cold[v].critical {
                self.cold[v].weight = self.cold[v].weight.saturating_sub(1);
                record_writes(1);
            }
        }
        // Rebuild everything once a constant fraction has been deleted.
        if self.deletions * 2 > self.built_len.max(1) {
            let all = self.collect_all();
            *self = IntervalTree::build_parallel(&all, self.alpha);
            self.rebuilds += 1;
        }
        true
    }

    fn collect_subtree(&self, v: u32, out: &mut Vec<Interval>) {
        if v == NONE {
            return;
        }
        record_read();
        // Main run then overflow run; rebuilds re-sort the endpoints, so the
        // collection order does not influence the rebuilt layout.
        let cold = &self.cold[v as usize];
        for &(_, s) in self.side_main(&cold.by_left, &self.left_arena) {
            out.push(s);
        }
        for &(_, s) in &cold.by_left.extra {
            out.push(s);
        }
        record_reads(cold.by_left.len() as u64);
        let node = &self.nodes[v as usize];
        self.collect_subtree(node.left, out);
        self.collect_subtree(node.right, out);
    }

    /// All live intervals (used by rebuilds and by tests as an oracle input).
    pub fn collect_all(&self) -> Vec<Interval> {
        let mut out = Vec::new();
        self.collect_subtree(self.root, &mut out);
        out
    }

    fn rebuild_subtree(&mut self, v: usize, path: &[usize]) {
        self.rebuilds += 1;
        let mut intervals = Vec::new();
        self.collect_subtree(slot(v), &mut intervals);
        let rebuilt = IntervalTree::build_parallel(&intervals, self.alpha);
        // Splice the rebuilt arenas into ours: nodes get remapped child
        // indices, arena-backed runs get their offsets shifted past our
        // existing arena tails.
        let loff = self.left_arena.len();
        let roff = self.right_arena.len();
        self.left_arena.extend_from_slice(&rebuilt.left_arena);
        self.right_arena.extend_from_slice(&rebuilt.right_arena);
        slot(self.nodes.len() + rebuilt.nodes.len());
        let offset = slot(self.nodes.len());
        let remap = |idx: u32| if idx == NONE { NONE } else { idx + offset };
        for (mut node, mut cold) in rebuilt.nodes.into_iter().zip(rebuilt.cold) {
            node.left = remap(node.left);
            node.right = remap(node.right);
            if cold.by_left.base_len > 0 {
                cold.by_left.base_off += loff;
            }
            if cold.by_right.base_len > 0 {
                cold.by_right.base_off += roff;
            }
            self.nodes.push(node);
            self.cold.push(cold);
        }
        let new_root = remap(rebuilt.root);
        if new_root == NONE {
            // Nothing left below v: detach it by turning it into an empty leaf.
            self.nodes[v] = Node::new(self.nodes[v].key);
            self.cold[v] = Cold::default();
            record_writes(1);
            return;
        }
        let new_root = new_root as usize;
        self.nodes[v] = self.nodes[new_root];
        self.cold[v] = self.cold[new_root].clone();
        record_writes(1);
        // If v was the overall root, also refresh the virtual-critical mark.
        if path.first() == Some(&v) || v == self.root as usize {
            self.cold[self.root as usize].critical = true;
        }
    }
}

// ------------------------------------------------------ parallel build engine

/// Build the balanced skeleton over `region` (the nodes of key positions
/// `[offset, offset + region.len())`): the subtree root sits at the region's
/// midpoint and the halves fork over disjoint `&mut` regions.
fn skeleton_rec(
    keys: &[u64],
    region: &mut [Node],
    offset: usize,
    level: u64,
    ledger: &pwe_asym::smallmem::SmallMem,
) {
    let m = region.len();
    if m == 0 {
        return;
    }
    let mid = m / 2;
    let (lregion, rest) = region.split_at_mut(mid);
    let (node, rregion) = rest.split_first_mut().expect("non-empty region");
    *node = Node::new(f64_from_key(keys[offset + mid]));
    if mid > 0 {
        node.left = slot(offset + mid / 2);
    }
    if m - mid - 1 > 0 {
        node.right = slot(offset + mid + 1 + (m - mid - 1) / 2);
    }
    record_writes(1);
    if m == 1 {
        ledger.observe_task(level + 2);
        return;
    }
    // racecheck: when the fork is real, each arm registers the arena region
    // it owns; overlapping claims from concurrent arms panic under the
    // sanitizer feature (no-ops otherwise).
    let forked = m > crate::engine::SEQUENTIAL_BUILD_CUTOFF;
    crate::engine::join_grain(
        m,
        || {
            let _claim =
                forked.then(|| racecheck::claim_slice(&*lregion, "interval::skeleton_rec/left"));
            skeleton_rec(keys, lregion, offset, level + 1, ledger)
        },
        || {
            let _claim =
                forked.then(|| racecheck::claim_slice(&*rregion, "interval::skeleton_rec/right"));
            skeleton_rec(keys, rregion, offset + mid + 1, level + 1, ledger)
        },
    );
}

/// Read-only descent to the highest node whose key `s` covers.  The skeleton
/// holds every (deduplicated) left endpoint and `s` contains its own, so the
/// descent follows the search path of `s.left` and always hits.
fn locate_index(nodes: &[Node], root: u32, s: &Interval) -> usize {
    let mut cur = root;
    loop {
        record_read();
        let node = &nodes[cur as usize];
        if s.contains(node.key) {
            return cur as usize;
        }
        cur = if s.right < node.key {
            node.left
        } else {
            node.right
        };
        assert!(
            cur != NONE,
            "left endpoints are present after dedup, so the descent cannot fall off"
        );
    }
}

/// Contiguous runs of `located` (sorted by node index): `(node, start, end)`.
fn runs_of(located: &[(u64, u32)]) -> Vec<(usize, usize, usize)> {
    let mut runs = Vec::new();
    let mut start = 0usize;
    for i in 1..=located.len() {
        if i == located.len() || located[i].0 != located[start].0 {
            runs.push((located[start].0 as usize, start, i));
            start = i;
        }
    }
    runs
}

/// Attach each run's intervals to its node, forking over disjoint node and
/// run-arena regions (runs are sorted by node index and arena slot ==
/// located slot, so a split of the run list maps to a `split_at_mut` of
/// both node arenas *and* of both run arenas).  `seg_off` is the global
/// located index where this invocation's arena slices begin.
#[allow(clippy::too_many_arguments)]
fn attach_rec(
    hot: &mut [Node],
    region: &mut [Cold],
    offset: usize,
    runs: &[(usize, usize, usize)],
    located: &[(u64, u32)],
    intervals: &[Interval],
    larena: &mut [StabEntry],
    rarena: &mut [StabEntry],
    seg_off: usize,
    ledger: &pwe_asym::smallmem::SmallMem,
    level: u64,
) {
    if runs.is_empty() {
        return;
    }
    if runs.len() <= 8 || region.len() <= crate::engine::SEQUENTIAL_BUILD_CUTOFF {
        for &(node, start, end) in runs {
            let nd = &mut region[node - offset];
            let lseg = &mut larena[start - seg_off..end - seg_off];
            let rseg = &mut rarena[start - seg_off..end - seg_off];
            for (slot, &(_, idx)) in located[start..end].iter().enumerate() {
                let s = intervals[idx as usize];
                lseg[slot] = ((f64_key(s.left), s.id), s);
                rseg[slot] = ((f64_key(s.right), s.id), s);
            }
            lseg.sort_unstable_by_key(|e| e.0);
            rseg.sort_unstable_by_key(|e| e.0);
            nd.by_left = StabSide {
                base_off: start,
                base_len: end - start,
                ..Default::default()
            };
            nd.by_right = StabSide {
                base_off: start,
                base_len: end - start,
                ..Default::default()
            };
            hot[node - offset].flags = LEFT_SIDE | RIGHT_SIDE;
            record_writes(2 * (end - start) as u64);
        }
        ledger.observe_task(level + 3);
        return;
    }
    let m = region.len();
    let half = runs.len() / 2;
    let boundary = runs[half].0;
    let cut = runs[half].1; // first located slot of the right half's runs
    let (lruns, rruns) = runs.split_at(half);
    let (lregion, rregion) = region.split_at_mut(boundary - offset);
    let (lhot, rhot) = hot.split_at_mut(boundary - offset);
    let (l_larena, r_larena) = larena.split_at_mut(cut - seg_off);
    let (l_rarena, r_rarena) = rarena.split_at_mut(cut - seg_off);
    // racecheck: the early return above guarantees m is over the cutoff, so
    // this always forks — claim each arm's node and arena regions
    // unconditionally.
    crate::engine::join_grain(
        m,
        || {
            let _claim = racecheck::claim_slice(&*lregion, "interval::attach_rec/left");
            let _claim_h = racecheck::claim_slice(&*lhot, "interval::attach_rec/left-hot");
            let _claim_l = racecheck::claim_slice(&*l_larena, "interval::attach_rec/left-larena");
            let _claim_r = racecheck::claim_slice(&*l_rarena, "interval::attach_rec/left-rarena");
            attach_rec(
                lhot,
                lregion,
                offset,
                lruns,
                located,
                intervals,
                l_larena,
                l_rarena,
                seg_off,
                ledger,
                level + 1,
            )
        },
        || {
            let _claim = racecheck::claim_slice(&*rregion, "interval::attach_rec/right");
            let _claim_h = racecheck::claim_slice(&*rhot, "interval::attach_rec/right-hot");
            let _claim_l = racecheck::claim_slice(&*r_larena, "interval::attach_rec/right-larena");
            let _claim_r = racecheck::claim_slice(&*r_rarena, "interval::attach_rec/right-rarena");
            attach_rec(
                rhot,
                rregion,
                boundary,
                rruns,
                located,
                intervals,
                r_larena,
                r_rarena,
                cut,
                ledger,
                level + 1,
            )
        },
    );
}

/// Subtree weights and α-criticality over the arithmetic arena layout,
/// forked over disjoint regions; returns the subtree weight.
fn finalize_rec(
    region: &mut [Cold],
    alpha: usize,
    level: u64,
    ledger: &pwe_asym::smallmem::SmallMem,
) -> usize {
    if region.is_empty() {
        return 1;
    }
    let m = region.len();
    let mid = m / 2;
    let (lregion, rest) = region.split_at_mut(mid);
    let (node, rregion) = rest.split_first_mut().expect("non-empty region");
    let forked = m > crate::engine::SEQUENTIAL_BUILD_CUTOFF;
    let (wl, wr) = crate::engine::join_grain(
        m,
        || {
            let _claim =
                forked.then(|| racecheck::claim_slice(&*lregion, "interval::finalize_rec/left"));
            finalize_rec(lregion, alpha, level + 1, ledger)
        },
        || {
            let _claim =
                forked.then(|| racecheck::claim_slice(&*rregion, "interval::finalize_rec/right"));
            finalize_rec(rregion, alpha, level + 1, ledger)
        },
    );
    let w = node.stored() + wl + wr;
    node.weight = w;
    node.initial_weight = w;
    node.critical = is_critical_weight(w, alpha);
    if m == 1 {
        ledger.observe_task(level + 2);
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use pwe_asym::cost::{measure, Omega};
    use pwe_geom::generators::{random_intervals, stabbing_queries};
    use pwe_geom::interval::stab_bruteforce;

    #[test]
    fn f64_key_preserves_order() {
        let values = [-1e9, -2.5, -0.0, 0.0, 1e-300, 3.7, 2e18];
        for w in values.windows(2) {
            assert!(f64_key(w[0]) <= f64_key(w[1]));
        }
        for &v in &values {
            assert_eq!(f64_from_key(f64_key(v)), v);
        }
        assert_eq!(f64_key(-0.0), f64_key(0.0));
    }

    #[test]
    fn parallel_build_answers_match_classic() {
        let intervals = random_intervals(3000, 1000.0, 50.0, 21);
        let queries = stabbing_queries(200, 1000.0, 22);
        for alpha in [2usize, 8, 64] {
            let classic = IntervalTree::build_classic(&intervals, alpha);
            let (parallel, stats) = IntervalTree::build_parallel_with_stats(&intervals, alpha);
            assert!(
                stats.scratch.within_budget(),
                "α={alpha}: {:?}",
                stats.scratch
            );
            assert!(stats.nodes > 0);
            for &q in &queries {
                let expected = stab_bruteforce(&intervals, q);
                assert_eq!(classic.stab(q), expected, "classic α={alpha} at {q}");
                assert_eq!(parallel.stab(q), expected, "parallel α={alpha} at {q}");
            }
        }
    }

    #[test]
    fn parallel_build_writes_fewer_than_classic() {
        let intervals = random_intervals(20_000, 1e6, 100.0, 3);
        let (_, classic) = measure(Omega::symmetric(), || {
            IntervalTree::build_classic(&intervals, 2)
        });
        let (_, parallel) = measure(Omega::symmetric(), || {
            IntervalTree::build_parallel(&intervals, 2)
        });
        assert!(
            parallel.writes < classic.writes,
            "engine construction should write less: {} vs {}",
            parallel.writes,
            classic.writes
        );
    }

    #[test]
    fn parallel_build_empty_and_tiny() {
        let t = IntervalTree::build_parallel(&[], 2);
        assert!(t.is_empty());
        assert_eq!(t.stab(1.0), Vec::<u64>::new());
        let one = vec![Interval::new(1.0, 2.0, 7)];
        let t = IntervalTree::build_parallel(&one, 2);
        assert_eq!(t.stab(1.5), vec![7]);
        assert_eq!(t.stab(2.0), vec![7]);
        assert_eq!(t.stab(0.9), Vec::<u64>::new());
    }

    #[test]
    fn parallel_build_supports_dynamic_updates() {
        let initial = random_intervals(400, 1000.0, 30.0, 31);
        let mut tree = IntervalTree::build_parallel(&initial, 4);
        let mut reference = initial.clone();
        for (i, s) in random_intervals(400, 1000.0, 30.0, 32).iter().enumerate() {
            let s = Interval::new(s.left, s.right, 2000 + i as u64);
            tree.insert(&s);
            reference.push(s);
        }
        for s in reference.clone().iter().take(400) {
            assert!(tree.delete(s));
        }
        reference.drain(..400);
        for &q in &stabbing_queries(80, 1000.0, 33) {
            assert_eq!(tree.stab(q), stab_bruteforce(&reference, q));
        }
    }

    #[test]
    fn empty_and_tiny_trees() {
        let t = IntervalTree::build_parallel(&[], 2);
        assert!(t.is_empty());
        assert_eq!(t.stab(1.0), Vec::<u64>::new());

        let one = vec![Interval::new(1.0, 2.0, 7)];
        let t = IntervalTree::build_parallel(&one, 2);
        assert_eq!(t.stab(1.5), vec![7]);
        assert_eq!(t.stab(2.0), vec![7]);
        assert_eq!(t.stab(2.1), Vec::<u64>::new());
    }

    #[test]
    fn dynamic_insertions_and_deletions_match_bruteforce() {
        let initial = random_intervals(300, 1000.0, 30.0, 5);
        let mut tree = IntervalTree::build_parallel(&initial, 4);
        let mut reference = initial.clone();

        let extra = random_intervals(300, 1000.0, 30.0, 6);
        for (i, s) in extra.iter().enumerate() {
            let s = Interval::new(s.left, s.right, 1000 + i as u64);
            tree.insert(&s);
            reference.push(s);
        }
        assert_eq!(tree.len(), 600);
        for &q in &stabbing_queries(100, 1000.0, 7) {
            assert_eq!(
                tree.stab(q),
                stab_bruteforce(&reference, q),
                "after inserts at {q}"
            );
        }

        // Delete half of them.
        for s in reference.clone().iter().take(300) {
            assert!(tree.delete(s), "delete {s}");
        }
        reference.drain(..300);
        assert_eq!(tree.len(), 300);
        for &q in &stabbing_queries(100, 1000.0, 8) {
            assert_eq!(
                tree.stab(q),
                stab_bruteforce(&reference, q),
                "after deletes at {q}"
            );
        }
        // Deleting something absent reports false.
        assert!(!tree.delete(&Interval::new(0.0, 1.0, 999_999)));
    }

    #[test]
    fn larger_alpha_touches_fewer_critical_nodes() {
        let initial = random_intervals(4000, 1e5, 10.0, 9);
        let mut small_alpha = IntervalTree::build_parallel(&initial, 2);
        let mut large_alpha = IntervalTree::build_parallel(&initial, 16);
        assert!(large_alpha.critical_count() < small_alpha.critical_count());

        let extra = random_intervals(500, 1e5, 10.0, 10);
        let mut touched_small = 0u64;
        let mut touched_large = 0u64;
        for (i, s) in extra.iter().enumerate() {
            let s = Interval::new(s.left, s.right, 10_000 + i as u64);
            touched_small += small_alpha.insert(&s).critical_touched;
            touched_large += large_alpha.insert(&s).critical_touched;
        }
        assert!(
            touched_large < touched_small,
            "α=16 should touch fewer critical nodes per update ({touched_large} vs {touched_small})"
        );
    }

    #[test]
    fn skewed_insertions_stay_queryable_via_reconstruction() {
        // Insert nested intervals, a worst case for the unbalanced key set.
        let mut tree = IntervalTree::build_parallel(&random_intervals(64, 100.0, 5.0, 11), 2);
        let mut reference = tree.collect_all();
        for i in 0..500u64 {
            let left = 200.0 + i as f64 * 0.5;
            let s = Interval::new(left, left + 0.25, 5000 + i);
            tree.insert(&s);
            reference.push(s);
        }
        assert!(
            tree.rebuilds > 0,
            "skewed insertions should trigger reconstructions"
        );
        for &q in &stabbing_queries(50, 500.0, 12) {
            assert_eq!(tree.stab(q), stab_bruteforce(&reference, q));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_stab_matches_bruteforce(
            n in 0usize..200,
            seed in 0u64..50,
            queries in proptest::collection::vec(0.0f64..1000.0, 1..20),
            alpha in 2usize..10,
        ) {
            let intervals = random_intervals(n, 1000.0, 40.0, seed);
            let tree = IntervalTree::build_parallel(&intervals, alpha);
            for &q in &queries {
                prop_assert_eq!(tree.stab(q), stab_bruteforce(&intervals, q));
            }
        }

        #[test]
        fn prop_dynamic_matches_bruteforce(
            seed in 0u64..50,
            ops in proptest::collection::vec((0.0f64..100.0, 0.1f64..10.0, any::<bool>()), 1..80),
        ) {
            let mut tree = IntervalTree::build_parallel(&[], 4);
            let mut reference: Vec<Interval> = Vec::new();
            for (i, &(left, len, del)) in ops.iter().enumerate() {
                if del && !reference.is_empty() {
                    let victim = reference.remove(i % reference.len());
                    prop_assert!(tree.delete(&victim));
                } else {
                    let s = Interval::new(left, left + len, seed * 1000 + i as u64);
                    tree.insert(&s);
                    reference.push(s);
                }
            }
            for q in [0.0, 25.0, 50.0, 75.0, 99.0, 105.0] {
                prop_assert_eq!(tree.stab(q), stab_bruteforce(&reference, q));
            }
        }
    }
}
