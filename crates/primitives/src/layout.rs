//! Cache-conscious (vEB-style implicit-blocked) query layouts for static
//! arena trees.
//!
//! pwe-lint: deny-untracked-alloc
//!
//! The PR 5 builders lay every §7 tree out as a flat arena whose slot
//! assignment is *index arithmetic on the sorted input* — ideal for
//! allocation-lean parallel construction, but query descents hop across the
//! arena (a root-to-leaf path touches `O(log n)` distinct cache lines, one
//! per level).  The classical fix is a van Emde Boas / blocked permutation:
//! store each node next to the top of its subtree so one cache line serves
//! several consecutive levels of the descent.
//!
//! Two hard constraints shape this module:
//!
//! 1. **The digested arena cannot move.**  Every tree's `layout_digest()`
//!    folds its arena in slot order, child indices included, and the
//!    determinism tests pin those digests across thread counts *and across
//!    PRs*.  So the blocked permutation is a **derived query cache**, built
//!    at finalize time *next to* the arena it accelerates: a [`BlockedTree`]
//!    copies the hot descent fields into blocked order and keeps a back
//!    pointer (`orig`) into the original arena for everything cold.  The
//!    digest never sees it.
//! 2. **Counters are the model.**  A blocked descent visits exactly the
//!    logical nodes the flat descent visits — same comparisons, same
//!    pruning — so callers charge identical ARAM reads on either path
//!    (pinned by `crates/augtree/tests/layout_equiv.rs`).  Only the machine
//!    addresses change (MODEL.md §5).
//!
//! The permutation itself is the bounded-block greedy scheme: starting from
//! the root, fill a block of [`BLOCK`] slots top-down within one subtree
//! (children in deterministic left-then-right order), then recurse on the
//! subtree roots that spilled out of the block.  For a balanced tree this
//! packs ⌈log₂ `BLOCK`⌉ consecutive descent levels per block — the implicit
//! vEB recursion truncated at one level, which captures most of its
//! locality at none of its index-arithmetic cost — and it is well defined
//! (and still helpful) on the *unbalanced* trees the incremental sort
//! grows.  The construction is a pure function of the tree shape, so the
//! cache is deterministic wherever the arena is.

use crate::racecheck;

/// Blocked-position sentinel for "no child".
pub const NO_NODE: u32 = u32::MAX;

/// Nodes per layout block.  16 payload nodes cover 4 descent levels per
/// block; with the hot payloads the trees use (2–5 words) a block spans
/// 2–8 consecutive cache lines that hardware prefetch streams trivially.
pub const BLOCK: usize = 16;

/// One node of a blocked query cache: the caller's hot payload plus the
/// blocked positions of the children and the original arena slot.
#[derive(Debug, Clone, Copy)]
pub struct BlockedNode<T> {
    /// Hot descent fields, copied out of the original arena.
    pub payload: T,
    /// Blocked position of the left child, or [`NO_NODE`].
    pub left: u32,
    /// Blocked position of the right child, or [`NO_NODE`].
    pub right: u32,
    /// Slot of this node in the original (digested) arena.
    pub orig: u32,
}

/// A blocked-permutation query cache over a static binary-tree arena.
///
/// Built once at build-finalize from the tree *shape* (root + child
/// function) and a payload extractor; queries descend it instead of the
/// original arena and use [`BlockedNode::orig`] to reach cold per-node data
/// (buckets, augmentation runs).  Purely derived state: rebuilding it never
/// changes answers, counters or digests.
#[derive(Debug, Clone, Default)]
pub struct BlockedTree<T> {
    nodes: Vec<BlockedNode<T>>,
    root: u32,
}

impl<T: Copy> BlockedTree<T> {
    /// Build the blocked cache for the `n`-slot arena rooted at `root`
    /// (`usize::MAX` for an empty tree).  `children(slot)` returns the
    /// original-arena child slots (`usize::MAX` = none); `payload(slot)`
    /// extracts the hot fields.  Deterministic: the permutation depends
    /// only on the tree shape.
    ///
    /// Physical-layout maintenance, not algorithm state: the copies are
    /// uncharged (MODEL.md §5) and `O(n)` words of large memory.
    pub fn build(
        n: usize,
        root: usize,
        children: impl Fn(usize) -> (usize, usize),
        payload: impl Fn(usize) -> T,
    ) -> Self {
        if root == usize::MAX || n == 0 {
            return BlockedTree {
                // alloc: scratch — zero-capacity placeholder for the empty tree (no backing allocation)
                nodes: Vec::new(),
                root: NO_NODE,
            };
        }
        // alloc: large-mem — the blocked node copies, one per arena slot (uncharged derived cache, module doc)
        let mut nodes: Vec<BlockedNode<T>> = Vec::with_capacity(n);
        // alloc: large-mem — original-slot → blocked-position map, one word per slot (uncharged derived cache)
        let mut pos: Vec<u32> = vec![NO_NODE; n];
        // Queue of pending subtree roots, processed FIFO so sibling blocks
        // land near each other.
        // alloc: scratch — pending block roots, bounded by n/BLOCK + fringe (uncharged derived cache build)
        let mut block_roots: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        block_roots.push_back(root);
        // alloc: scratch — intra-block BFS frontier, at most BLOCK+1 entries (uncharged derived cache build)
        let mut frontier: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        let _claim = racecheck::claim_slice(&pos, "layout::BlockedTree::build/pos");
        while let Some(sub_root) = block_roots.pop_front() {
            // Fill one block: BFS within this subtree, children appended in
            // left-then-right order, until the block is full.
            frontier.clear();
            frontier.push_back(sub_root);
            let mut placed = 0usize;
            while placed < BLOCK {
                let Some(v) = frontier.pop_front() else { break };
                debug_assert_eq!(pos[v], NO_NODE, "arena slot visited twice");
                pos[v] = nodes.len() as u32;
                nodes.push(BlockedNode {
                    payload: payload(v),
                    left: NO_NODE,
                    right: NO_NODE,
                    orig: v as u32,
                });
                placed += 1;
                let (l, r) = children(v);
                if l != usize::MAX {
                    frontier.push_back(l);
                }
                if r != usize::MAX {
                    frontier.push_back(r);
                }
            }
            // Whatever is still on the frontier starts its own block.
            block_roots.extend(frontier.drain(..));
        }
        // Second pass: resolve child slots to blocked positions.
        for bn in &mut nodes {
            let (l, r) = children(bn.orig as usize);
            bn.left = if l == usize::MAX { NO_NODE } else { pos[l] };
            bn.right = if r == usize::MAX { NO_NODE } else { pos[r] };
        }
        BlockedTree {
            root: pos[root],
            nodes,
        }
    }

    /// Blocked position of the root, or [`NO_NODE`] for an empty tree.
    #[inline]
    pub fn root(&self) -> u32 {
        self.root
    }

    /// Number of nodes in the cache (equals the reachable arena size).
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the cache is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node at blocked position `p`, prefetching its children's cache
    /// lines (they are usually in the same block).
    #[inline]
    pub fn node(&self, p: u32) -> &BlockedNode<T> {
        let n = &self.nodes[p as usize];
        if n.left != NO_NODE {
            crate::search::prefetch_read(self.nodes.as_ptr().wrapping_add(n.left as usize));
        }
        if n.right != NO_NODE {
            crate::search::prefetch_read(self.nodes.as_ptr().wrapping_add(n.right as usize));
        }
        n
    }

    /// All nodes in blocked order (diagnostics and tests).
    #[inline]
    pub fn nodes(&self) -> &[BlockedNode<T>] {
        &self.nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A complete binary tree over slots 0..n in heap order.
    fn heap_children(n: usize) -> impl Fn(usize) -> (usize, usize) {
        move |v| {
            let l = 2 * v + 1;
            let r = 2 * v + 2;
            (
                if l < n { l } else { usize::MAX },
                if r < n { r } else { usize::MAX },
            )
        }
    }

    #[test]
    fn empty_and_singleton() {
        let t: BlockedTree<u64> =
            BlockedTree::build(0, usize::MAX, |_| (usize::MAX, usize::MAX), |_| 0);
        assert!(t.is_empty());
        assert_eq!(t.root(), NO_NODE);
        let t = BlockedTree::build(1, 0, heap_children(1), |v| v as u64);
        assert_eq!(t.len(), 1);
        assert_eq!(t.node(t.root()).payload, 0);
        assert_eq!(t.node(t.root()).left, NO_NODE);
    }

    #[test]
    fn permutation_is_a_bijection_preserving_shape() {
        for n in [1usize, 2, 15, 16, 17, 100, 1023] {
            let t = BlockedTree::build(n, 0, heap_children(n), |v| v as u64);
            assert_eq!(t.len(), n);
            // Every original slot appears exactly once.
            let mut seen = vec![false; n];
            for bn in t.nodes() {
                assert!(!seen[bn.orig as usize]);
                seen[bn.orig as usize] = true;
                assert_eq!(bn.payload, u64::from(bn.orig));
            }
            assert!(seen.iter().all(|&s| s));
            // Child edges survive the permutation.
            let kids = heap_children(n);
            for bn in t.nodes() {
                let (l, r) = kids(bn.orig as usize);
                match l {
                    usize::MAX => assert_eq!(bn.left, NO_NODE),
                    l => assert_eq!(t.node(bn.left).orig as usize, l),
                }
                match r {
                    usize::MAX => assert_eq!(bn.right, NO_NODE),
                    r => assert_eq!(t.node(bn.right).orig as usize, r),
                }
            }
        }
    }

    #[test]
    fn top_of_tree_shares_the_first_block() {
        // The first BLOCK blocked slots must be the top ⌈log₂ BLOCK⌉ levels
        // of a complete tree: BFS order 0, 1, 2, ... within the root block.
        let t = BlockedTree::build(1023, 0, heap_children(1023), |v| v as u64);
        for (i, bn) in t.nodes().iter().take(BLOCK).enumerate() {
            assert_eq!(
                bn.orig as usize, i,
                "root block is the top levels in BFS order"
            );
        }
        // Root-to-leaf descents touch few distinct blocks: with BLOCK=16 a
        // 10-level tree needs at most ⌈10/4⌉ = 3 blocks... allow slack for
        // the block boundaries not aligning with levels.
        let mut worst = 0usize;
        for leaf_walk in 0..64u64 {
            let mut blocks = Vec::new();
            let mut cur = t.root();
            let mut bits = leaf_walk;
            while cur != NO_NODE {
                let b = cur as usize / BLOCK;
                if !blocks.contains(&b) {
                    blocks.push(b);
                }
                let n = t.node(cur);
                cur = if bits & 1 == 0 { n.left } else { n.right };
                bits >>= 1;
            }
            worst = worst.max(blocks.len());
        }
        assert!(worst <= 4, "a 10-level descent crossed {worst} blocks");
    }
}
