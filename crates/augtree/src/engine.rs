//! Shared parallel, allocation-lean construction engine for the Section 7
//! augmented trees.
//!
//! pwe-lint: deny-untracked-alloc
//!
//! Every §7 structure in this crate is a balanced binary tree over a
//! *sorted* sequence, and a balanced tree over a sorted slice has
//! **arithmetically computable subtree index ranges**: the subtree covering
//! positions `[lo, hi)` of the sorted input is fully described by that index
//! range, so its arena slot, its children's slots and its children's input
//! ranges are all pure arithmetic on `(lo, hi)`.  The three builders exploit
//! this the same way:
//!
//! 1. **Sort once** (charged at the write-efficient sort costs of
//!    Theorem 4.1), then **pre-size the node arena** — no `Vec::push`, no
//!    per-level reallocation.
//! 2. **Fork [`par_join`] recursion over disjoint `&mut` arena regions**:
//!    because subtree index ranges are disjoint, `split_at_mut` hands each
//!    branch its own region and the recursion needs no locks, no atomics and
//!    no post-hoc index remapping.  Regions at or below the sequential
//!    grain cutoff (`SEQUENTIAL_BUILD_CUTOFF`, 2048 entries — the same
//!    grain rule as the kd-tree and Delaunay paths) stop forking, so deque
//!    traffic never dominates median selection.
//! 3. **Deterministic layout**: slot assignment is a function of the input
//!    alone, so the finished arena (and every read/write counter recorded
//!    along the way) is bit-identical across thread counts and processes —
//!    pinned by `tests/parallel_stress.rs`.
//!
//! Per-tree layouts (the concrete index arithmetic):
//!
//! * **Interval tree** (`m` deduplicated **left**-endpoint keys): the node
//!   of key range `[lo, hi)` lives at arena slot `mid = lo + (hi-lo)/2`; its
//!   children cover `[lo, mid)` and `[mid+1, hi)`.  The root is slot `m/2`.
//!   Left endpoints are enough: a closed interval contains its own left
//!   endpoint, so the descent placing it follows that key's search path and
//!   stops on or above the key's node — it never falls off the skeleton.
//! * **Priority search tree** (`c` surviving points): nodes are laid out in
//!   preorder — the subtree root at the region base, the left subtree (of
//!   exactly `⌊(c-1)/2⌋` survivors) immediately after it, the right subtree
//!   after that.
//! * **Range tree** (`m` points): preorder over the `2m-1` outer nodes, plus
//!   one **shared augmentation arena** holding every critical node's
//!   points-sorted-by-y run contiguously (own run first, then the left
//!   subtree's runs, then the right's).  Region sizes are computed by
//!   [`crate::alpha::is_critical_weight`] arithmetic alone, so the arena is
//!   pre-sized exactly and split recursively like the node arena.  Runs are
//!   produced bottom-up: a critical node merges the runs of its maximal
//!   critical descendants (at most `O(α)` of them, Lemma 7.1) in a single
//!   `k`-way pass (`kway_merge_into`), writing each point once per
//!   critical ancestor, which is exactly the `Θ(n log_α n)` augmentation
//!   write bound of Theorem 7.2.
//!
//! The interval and range trees keep each node in two arenas indexed by the
//! same slot: a compact **hot** record (key or split, `u32` children, flags;
//! the range tree adds its main run's offset and length) that the query walk
//! reads at every level, and a **cold** record (inner runs, leaf point,
//! weights) that it reads only where it reports.  Their builders split both
//! arenas at the same index, so each forked arm owns matching regions.
//!
//! Depth composes over the forks by max (the [`par_join`] span scopes of
//! `pwe_asym`), and every forked task charges its recursion frames — plus
//! the `O(α)` merge cursors on the range-tree path — to a small-memory
//! ledger against the budgets below (see MODEL.md §2.4).

use pwe_asym::counters::{record_reads, record_writes};
use pwe_asym::depth::log2_ceil;
use pwe_asym::parallel::par_join;
use pwe_asym::smallmem::{ScratchReport, SmallMem};

/// Regions at or below this size are built without forking (same rationale
/// as the kd-tree builder: a fork per node down to the leaves would spend
/// more time on deque traffic than on construction; stopping a few levels
/// above the leaves leaves plenty of stealable tasks).
pub(crate) const SEQUENTIAL_BUILD_CUTOFF: usize = 2048;

/// Small-memory budget constant for the parallel builders: a build task's
/// scratch is its recursion frames (a few words each) on a balanced
/// recursion of depth `O(log n)`, so `8·log₂ n` words bounds it with slack.
/// The range tree adds an `O(α)` term for its merge cursors — see
/// [`range_build_scratch_budget`].
pub const BUILD_SCRATCH_C: u64 = 8;

/// Per-task scratch budget of the interval / priority-search parallel
/// builders: `BUILD_SCRATCH_C · log₂ n` words.
pub fn build_scratch_budget(n: usize) -> u64 {
    BUILD_SCRATCH_C * (log2_ceil(n.max(2)) + 1)
}

/// Per-task scratch budget of the range-tree parallel builder: the
/// recursion frames plus the `k ≤ O(α)` cursors (source slice + position)
/// a critical node's k-way merge holds in its symmetric memory.
pub fn range_build_scratch_budget(n: usize, alpha: usize) -> u64 {
    build_scratch_budget(n) + 8 * alpha as u64
}

/// Statistics reported by the parallel builders.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AugBuildStats {
    /// Number of arena nodes in the finished tree.
    pub nodes: usize,
    /// Words in the shared augmentation arena (0 for the trees that have
    /// none).
    pub aug_len: usize,
    /// Small-memory ledger snapshot of the build.
    pub scratch: ScratchReport,
}

/// Fork when the region is above the sequential grain, run inline otherwise.
#[inline]
pub(crate) fn join_grain<A, B, RA, RB>(n: usize, a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if n > SEQUENTIAL_BUILD_CUTOFF {
        par_join(a, b)
    } else {
        (a(), b())
    }
}

/// In-place unstable partition: moves every element satisfying `pred` to the
/// front of `s` and returns how many there are.  The true-group keeps its
/// relative order; the false-group is permuted (deterministically).  This is
/// what lets the classic builders select/partition over a single scratch
/// buffer instead of allocating three `Vec`s per recursion level.
pub(crate) fn partition_in_place<T, F: Fn(&T) -> bool>(s: &mut [T], pred: F) -> usize {
    let mut i = 0;
    for j in 0..s.len() {
        if pred(&s[j]) {
            s.swap(i, j);
            i += 1;
        }
    }
    i
}

/// Single-pass sequential k-way merge of sorted sources into `out`, ordered
/// by `key` (keys must be distinct across sources — the trees key by
/// `(f64_key(y), id)`, unique per point).  Charges `|out|·⌈log₂ k⌉` reads
/// (the heap among the `k` heads) and `|out|` writes — one write per
/// element, which is what keeps the bottom-up augmentation at the
/// `Θ(n log_α n)` write bound instead of the `Θ(n log n)` a pairwise merge
/// cascade would cost.
fn kway_merge_seq<T, K>(srcs: &[&[T]], out: &mut [T], key: &K)
where
    T: Copy,
    K: Fn(&T) -> (u64, u64),
{
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let total = out.len();
    debug_assert_eq!(total, srcs.iter().map(|s| s.len()).sum::<usize>());
    let k = srcs.iter().filter(|s| !s.is_empty()).count();
    if k == 0 {
        return;
    }
    if k == 1 {
        let src = srcs.iter().find(|s| !s.is_empty()).unwrap();
        out.copy_from_slice(src);
        record_reads(total as u64);
        record_writes(total as u64);
        return;
    }
    // alloc: scratch — O(k) cursor words, folded via kway_merge_into's observe_task
    let mut cursors = vec![0usize; srcs.len()];
    let mut heap: BinaryHeap<Reverse<((u64, u64), usize)>> = srcs
        .iter()
        .enumerate()
        .filter(|(_, s)| !s.is_empty())
        .map(|(i, s)| Reverse((key(&s[0]), i)))
        // alloc: scratch — O(k)-entry heap, same task-scratch budget as the cursors
        .collect();
    let mut w = 0usize;
    while let Some(Reverse((_, i))) = heap.pop() {
        out[w] = srcs[i][cursors[i]];
        w += 1;
        cursors[i] += 1;
        if cursors[i] < srcs[i].len() {
            heap.push(Reverse((key(&srcs[i][cursors[i]]), i)));
        }
    }
    debug_assert_eq!(w, total);
    record_reads(total as u64 * log2_ceil(k));
    record_writes(total as u64);
}

/// Parallel k-way merge of sorted sources into `out`.
///
/// The output is split by a pivot (the middle key of the largest source,
/// located in every source by binary search), and the two halves merge in
/// parallel over disjoint `&mut` output regions; below the sequential grain
/// a single-pass heap merge finishes the job.  Each element is written
/// exactly once, the structure is a deterministic function of the inputs,
/// and each task's cursors (`O(k)` words) are folded into `ledger`.
pub(crate) fn kway_merge_into<T, K>(
    srcs: &[&[T]],
    out: &mut [T],
    key: &K,
    ledger: &SmallMem,
    level: u64,
) where
    T: Copy + Send + Sync,
    K: Fn(&T) -> (u64, u64) + Send + Sync,
{
    let total = out.len();
    let nonempty = srcs.iter().filter(|s| !s.is_empty()).count();
    ledger.observe_task(level + 2 * srcs.len() as u64 + 6);
    if total <= SEQUENTIAL_BUILD_CUTOFF || nonempty <= 1 {
        kway_merge_seq(srcs, out, key);
        return;
    }
    // Deterministic pivot: the middle key of the (first) largest source.
    let mut li = 0usize;
    for (i, s) in srcs.iter().enumerate() {
        if s.len() > srcs[li].len() {
            li = i;
        }
    }
    let pivot = key(&srcs[li][srcs[li].len() / 2]);
    // alloc: scratch — O(k) narrowed source table (counted by observe_task above)
    let mut left_srcs: Vec<&[T]> = Vec::with_capacity(srcs.len());
    // alloc: scratch — O(k) narrowed source table (counted by observe_task above)
    let mut right_srcs: Vec<&[T]> = Vec::with_capacity(srcs.len());
    let mut left_total = 0usize;
    for s in srcs {
        let cut = pwe_primitives::search::run_partition_point(s, |e| key(e) < pivot);
        left_total += cut;
        left_srcs.push(&s[..cut]);
        right_srcs.push(&s[cut..]);
    }
    if left_total == 0 || left_total == total {
        // Degenerate split (can only happen on pathological key sets);
        // finish sequentially rather than recursing without progress.
        kway_merge_seq(srcs, out, key);
        return;
    }
    let (out_lo, out_hi) = out.split_at_mut(left_total);
    pwe_asym::depth::add(1);
    // racecheck: this always forks (total is over the sequential cutoff
    // here), so each arm claims its half of the output region.
    par_join(
        || {
            let _claim =
                pwe_primitives::racecheck::claim_slice(&*out_lo, "engine::kway_merge_into/left");
            kway_merge_into(&left_srcs, out_lo, key, ledger, level + 1)
        },
        || {
            let _claim =
                pwe_primitives::racecheck::claim_slice(&*out_hi, "engine::kway_merge_into/right");
            kway_merge_into(&right_srcs, out_hi, key, ledger, level + 1)
        },
    );
}

/// Tiny FNV-1a fold used by the trees' `layout_digest` diagnostics: a
/// deterministic fingerprint of the arena layout, identical across thread
/// counts and processes when construction is schedule-independent.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Digest(u64);

impl Digest {
    pub(crate) fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    #[inline]
    pub(crate) fn word(&mut self, w: u64) {
        // 64-bit FNV-1a: xor, then multiply by the FNV prime 2^40 + 2^8 + 0xb3.
        self.0 = (self.0 ^ w).wrapping_mul(0x100_0000_01b3);
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

/// Encode an arena index for digesting (`EMPTY` folds as `u64::MAX`).
#[inline]
pub(crate) fn digest_idx(idx: usize) -> u64 {
    if idx == usize::MAX {
        u64::MAX
    } else {
        idx as u64
    }
}

/// "No child" in the `u32` slot fields of the interval and range trees'
/// hot node records.
pub(crate) const NONE: u32 = u32::MAX;

/// Narrow an arena slot (or a run offset) to the `u32` a hot node record
/// stores.  Panics instead of truncating once an arena outgrows `u32`.
#[inline]
pub(crate) fn slot(idx: usize) -> u32 {
    match u32::try_from(idx) {
        Ok(s) if s != NONE => s,
        _ => panic!("arena index {idx} does not fit the u32 hot node records"),
    }
}

/// Encode a hot-record slot for digesting: [`NONE`] folds as `u64::MAX`,
/// so a slot digests like the same index does through [`digest_idx`].
#[inline]
pub(crate) fn digest_slot(s: u32) -> u64 {
    if s == NONE {
        u64::MAX
    } else {
        s as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_in_place_splits_and_keeps_true_order() {
        let mut v = vec![5, 2, 8, 1, 9, 3, 7];
        let cut = partition_in_place(&mut v, |&x| x < 5);
        assert_eq!(cut, 3);
        assert_eq!(&v[..cut], &[2, 1, 3], "true group keeps relative order");
        let mut rest: Vec<i32> = v[cut..].to_vec();
        rest.sort_unstable();
        assert_eq!(rest, vec![5, 7, 8, 9]);
    }

    #[test]
    fn kway_merge_merges_disjoint_sorted_runs() {
        let a: Vec<u64> = vec![0, 3, 6, 9, 12];
        let b: Vec<u64> = vec![1, 4, 7, 10];
        let c: Vec<u64> = vec![2, 5, 8, 11, 13, 14];
        let srcs: Vec<&[u64]> = vec![&a, &b, &c];
        let mut out = vec![0u64; 15];
        let ledger = SmallMem::with_budget(64);
        kway_merge_into(&srcs, &mut out, &|&x| (x, 0), &ledger, 0);
        assert_eq!(out, (0..15).collect::<Vec<u64>>());
    }

    #[test]
    fn kway_merge_handles_empty_sources_and_large_inputs() {
        let a: Vec<u64> = (0..20_000).map(|i| 2 * i).collect();
        let b: Vec<u64> = (0..20_000).map(|i| 2 * i + 1).collect();
        let empty: Vec<u64> = Vec::new();
        let srcs: Vec<&[u64]> = vec![&empty, &a, &empty, &b];
        let mut out = vec![0u64; 40_000];
        let ledger = SmallMem::with_budget(1024);
        kway_merge_into(&srcs, &mut out, &|&x| (x, 0), &ledger, 0);
        assert!(out.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(out[0], 0);
        assert_eq!(out[39_999], 39_999);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = Digest::new();
        a.word(1);
        a.word(2);
        let mut b = Digest::new();
        b.word(2);
        b.word(1);
        assert_ne!(a.finish(), b.finish());
    }
}
