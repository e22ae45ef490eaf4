//! Output verification helpers shared by tests, examples and the harness.

use pwe_primitives::hash::DetHashMap;
use std::hash::Hash;

/// Whether the slice is sorted in non-decreasing order.
pub fn is_sorted<K: Ord>(keys: &[K]) -> bool {
    keys.windows(2).all(|w| w[0] <= w[1])
}

/// Whether `a` and `b` contain exactly the same multiset of elements.
pub fn same_multiset<K: Eq + Hash>(a: &[K], b: &[K]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut counts: DetHashMap<&K, i64> =
        DetHashMap::with_capacity_and_hasher(a.len(), Default::default());
    for x in a {
        *counts.entry(x).or_insert(0) += 1;
    }
    for y in b {
        match counts.get_mut(y) {
            Some(c) => *c -= 1,
            None => return false,
        }
    }
    counts.values().all(|&c| c == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn is_sorted_detects_order() {
        assert!(is_sorted::<u32>(&[]));
        assert!(is_sorted(&[1]));
        assert!(is_sorted(&[1, 1, 2, 3]));
        assert!(!is_sorted(&[2, 1]));
    }

    #[test]
    fn same_multiset_detects_differences() {
        assert!(same_multiset(&[1, 2, 2, 3], &[3, 2, 1, 2]));
        assert!(!same_multiset(&[1, 2, 3], &[1, 2, 2]));
        assert!(!same_multiset(&[1, 2], &[1, 2, 3]));
        assert!(same_multiset::<u32>(&[], &[]));
    }
}
