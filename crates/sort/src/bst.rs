//! The unbalanced binary search tree underlying Algorithm 1.
//!
//! The tree is an arena of nodes; `EMPTY` marks an absent child.  For a
//! random insertion order the tree has `O(log n)` depth with high
//! probability, which is what both the work and the depth bounds of
//! Theorem 4.1 rely on.  No rebalancing is ever performed — the paper's
//! point is precisely that the randomness of the insertion order suffices.

use pwe_asym::counters::{record_read, record_reads, record_writes};
use pwe_primitives::layout::{BlockedTree, NO_NODE};

/// Sentinel index for "no child".
pub const EMPTY: usize = usize::MAX;

/// A node of the search tree.
#[derive(Debug, Clone, Copy)]
pub struct Node<K> {
    /// The key stored at this node.
    pub key: K,
    /// Arena index of the left child, or [`EMPTY`].
    pub left: usize,
    /// Arena index of the right child, or [`EMPTY`].
    pub right: usize,
}

/// An arena-allocated binary search tree with no rebalancing.
#[derive(Debug, Clone, Default)]
pub struct Bst<K> {
    nodes: Vec<Node<K>>,
    root: usize,
}

/// Where a key that is not yet in the tree would be attached: the parent
/// node index and the side, or the root slot of an empty tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Slot {
    /// The tree is empty; the key becomes the root.
    Root,
    /// Attach as the left child of the node with this index.
    Left(usize),
    /// Attach as the right child of the node with this index.
    Right(usize),
}

impl<K: Ord + Copy> Bst<K> {
    /// An empty tree.
    pub fn new() -> Self {
        Bst {
            nodes: Vec::new(),
            root: EMPTY,
        }
    }

    /// An empty tree with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Bst {
            nodes: Vec::with_capacity(cap),
            root: EMPTY,
        }
    }

    /// Number of keys in the tree.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The arena (read-only).
    pub fn nodes(&self) -> &[Node<K>] {
        &self.nodes
    }

    /// The root index, or [`EMPTY`].
    pub fn root(&self) -> usize {
        self.root
    }

    /// Insert a key sequentially (the body of Algorithm 1), charging one read
    /// per comparison on the way down and `O(1)` writes for the new node.
    ///
    /// Returns the depth at which the key was inserted (1 for the root).
    pub fn insert(&mut self, key: K) -> u64 {
        let (slot, depth) = self.locate(key);
        self.attach(slot, key);
        depth + 1
    }

    /// Search for the empty slot `key` would occupy, charging one read per
    /// node visited and performing **no writes**.  Returns the slot and the
    /// number of nodes visited.
    pub fn locate(&self, key: K) -> (Slot, u64) {
        if self.root == EMPTY {
            return (Slot::Root, 0);
        }
        let mut cur = self.root;
        let mut visited = 0u64;
        loop {
            visited += 1;
            record_read();
            let node = &self.nodes[cur];
            if key < node.key {
                if node.left == EMPTY {
                    return (Slot::Left(cur), visited);
                }
                cur = node.left;
            } else {
                if node.right == EMPTY {
                    return (Slot::Right(cur), visited);
                }
                cur = node.right;
            }
        }
    }

    /// A blocked-permutation snapshot of the current (frozen) tree for
    /// cache-conscious batch locates: keys move into vEB-blocked order, and
    /// [`Bst::locate_blocked`] descends the snapshot instead of the arena.
    /// Purely derived, uncharged physical-layout maintenance — the snapshot
    /// is read-only and the arena stays the source of truth.
    pub fn blocked_snapshot(&self) -> BlockedTree<K> {
        BlockedTree::build(
            self.nodes.len(),
            self.root,
            |v| (self.nodes[v].left, self.nodes[v].right),
            |v| self.nodes[v].key,
        )
    }

    /// [`Bst::locate`] over a blocked snapshot taken by
    /// [`Bst::blocked_snapshot`]: identical slot, visit count and ARAM
    /// charges (one read per node visited, no writes); only the machine
    /// addresses change.
    pub fn locate_blocked(&self, b: &BlockedTree<K>, key: K) -> (Slot, u64) {
        if b.root() == NO_NODE {
            return (Slot::Root, 0);
        }
        let mut cur = b.root();
        let mut visited = 0u64;
        loop {
            visited += 1;
            record_read();
            let bn = b.node(cur);
            if key < bn.payload {
                if bn.left == NO_NODE {
                    return (Slot::Left(bn.orig as usize), visited);
                }
                cur = bn.left;
            } else {
                if bn.right == NO_NODE {
                    return (Slot::Right(bn.orig as usize), visited);
                }
                cur = bn.right;
            }
        }
    }

    /// Attach a new node carrying `key` at `slot` (which must be empty),
    /// charging the writes for creating the node and linking it.
    ///
    /// Returns the index of the new node.
    pub fn attach(&mut self, slot: Slot, key: K) -> usize {
        let idx = self.nodes.len();
        self.nodes.push(Node {
            key,
            left: EMPTY,
            right: EMPTY,
        });
        // One write for the node's key/child words, one for the parent link.
        record_writes(2);
        match slot {
            Slot::Root => {
                assert_eq!(self.root, EMPTY, "root slot already occupied");
                self.root = idx;
            }
            Slot::Left(parent) => {
                assert_eq!(self.nodes[parent].left, EMPTY, "left slot occupied");
                self.nodes[parent].left = idx;
            }
            Slot::Right(parent) => {
                assert_eq!(self.nodes[parent].right, EMPTY, "right slot occupied");
                self.nodes[parent].right = idx;
            }
        }
        idx
    }

    /// Mutable access to the raw node arena without charging model costs.
    ///
    /// Used by the prefix-doubling sort to splice in bucket subtrees whose
    /// construction cost was already charged when they were built locally.
    pub fn nodes_mut_untracked(&mut self) -> &mut Vec<Node<K>> {
        &mut self.nodes
    }

    /// Link an already-materialized node (arena index `child`) into `slot`.
    ///
    /// The caller is responsible for charging the write; the slot must be empty.
    pub fn link_child(&mut self, slot: Slot, child: usize) {
        match slot {
            Slot::Root => {
                assert_eq!(self.root, EMPTY, "root slot already occupied");
                self.root = child;
            }
            Slot::Left(parent) => {
                assert_eq!(self.nodes[parent].left, EMPTY, "left slot occupied");
                self.nodes[parent].left = child;
            }
            Slot::Right(parent) => {
                assert_eq!(self.nodes[parent].right, EMPTY, "right slot occupied");
                self.nodes[parent].right = child;
            }
        }
    }

    /// Height of the tree (0 for an empty tree) — computed without charging
    /// model costs (it is a diagnostic, not part of any algorithm).
    pub fn height(&self) -> usize {
        fn rec<K>(nodes: &[Node<K>], v: usize) -> usize {
            if v == EMPTY {
                return 0;
            }
            1 + rec(nodes, nodes[v].left).max(rec(nodes, nodes[v].right))
        }
        rec(&self.nodes, self.root)
    }

    /// In-order traversal into a vector, charging `O(n)` reads and writes
    /// (this is the final "write the sorted output" pass of the sort).
    pub fn in_order(&self) -> Vec<K> {
        self.in_order_scratch(&mut pwe_asym::smallmem::TaskScratch::untracked())
    }

    /// [`Bst::in_order`], charging the traversal's explicit stack — one word
    /// per entry, peak `O(height)` = `O(log n)` whp for a random insertion
    /// order — against a small-memory ledger via `scratch`.
    pub fn in_order_scratch(&self, scratch: &mut pwe_asym::smallmem::TaskScratch<'_>) -> Vec<K> {
        let mut out = Vec::with_capacity(self.nodes.len());
        // Iterative traversal; the explicit stack lives in small memory.
        let mut stack = Vec::new();
        let mut cur = self.root;
        while cur != EMPTY || !stack.is_empty() {
            while cur != EMPTY {
                stack.push(cur);
                scratch.alloc(1);
                cur = self.nodes[cur].left;
            }
            let v = stack.pop().expect("stack non-empty");
            scratch.free(1);
            out.push(self.nodes[v].key);
            cur = self.nodes[v].right;
        }
        record_reads(self.nodes.len() as u64);
        record_writes(self.nodes.len() as u64);
        out
    }

    /// Verify the BST ordering invariant (diagnostic; not cost-charged).
    pub fn check_invariant(&self) -> bool {
        fn rec<K: Ord + Copy>(nodes: &[Node<K>], v: usize, lo: Option<K>, hi: Option<K>) -> bool {
            if v == EMPTY {
                return true;
            }
            let k = nodes[v].key;
            if let Some(lo) = lo {
                // Left subtree uses strict <, right subtree allows equal keys,
                // so the lower bound is inclusive.
                if k < lo {
                    return false;
                }
            }
            if let Some(hi) = hi {
                if k >= hi {
                    return false;
                }
            }
            rec(nodes, nodes[v].left, lo, Some(k)) && rec(nodes, nodes[v].right, Some(k), hi)
        }
        rec(&self.nodes, self.root, None, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn insert_and_traverse() {
        let mut t = Bst::new();
        for k in [5u64, 2, 8, 1, 9, 3, 7] {
            t.insert(k);
        }
        assert_eq!(t.len(), 7);
        assert!(t.check_invariant());
        assert_eq!(t.in_order(), vec![1, 2, 3, 5, 7, 8, 9]);
        assert!(t.height() >= 3 && t.height() <= 7);
    }

    #[test]
    fn duplicates_are_kept() {
        let mut t = Bst::new();
        for k in [3u64, 3, 3, 1, 1] {
            t.insert(k);
        }
        assert_eq!(t.in_order(), vec![1, 1, 3, 3, 3]);
        assert!(t.check_invariant());
    }

    #[test]
    fn locate_then_attach_matches_insert() {
        let keys = [50u64, 20, 80, 10, 30, 70, 90];
        let mut a = Bst::new();
        let mut b = Bst::new();
        for &k in &keys {
            a.insert(k);
            let (slot, _) = b.locate(k);
            b.attach(slot, k);
        }
        assert_eq!(a.in_order(), b.in_order());
    }

    #[test]
    fn empty_tree_behaviour() {
        let t: Bst<u64> = Bst::new();
        assert!(t.is_empty());
        assert_eq!(t.height(), 0);
        assert_eq!(t.in_order(), Vec::<u64>::new());
        assert!(t.check_invariant());
        assert_eq!(t.locate(5), (Slot::Root, 0));
    }

    #[test]
    fn random_order_gives_logarithmic_height() {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut keys: Vec<u64> = (0..10_000).collect();
        keys.shuffle(&mut rng);
        let mut t = Bst::new();
        for &k in &keys {
            t.insert(k);
        }
        // Expected height ≈ 4.3 log2 n ≈ 57 for n = 10^4; assert a loose cap.
        assert!(
            t.height() < 80,
            "height {} too large for random order",
            t.height()
        );
        assert!(t.check_invariant());
    }

    proptest! {
        #[test]
        fn prop_in_order_is_sorted_permutation(keys in proptest::collection::vec(0u64..1000, 0..400)) {
            let mut t = Bst::new();
            for &k in &keys {
                t.insert(k);
            }
            let inorder = t.in_order();
            prop_assert!(inorder.windows(2).all(|w| w[0] <= w[1]));
            let mut expected = keys.clone();
            expected.sort_unstable();
            prop_assert_eq!(inorder, expected);
            prop_assert!(t.check_invariant());
        }
    }
}
