//! Semisort: group records by key in expected linear work and writes.
//!
//! The paper repeatedly invokes the top-down parallel semisort of Gu, Shun,
//! Sun and Blelloch \[34\]: after an incremental round locates, for every new
//! object, the bucket / triangle / leaf it conflicts with, the objects that
//! share a destination must be gathered together — in linear expected writes
//! and polylogarithmic depth, because a comparison sort here would reintroduce
//! the `Θ(n log n)` writes the framework is trying to avoid.
//!
//! This implementation is a two-pass count-then-scatter into `Θ(n)` hashed
//! buckets, fully parallel now that the pool behind `rayon` runs real
//! threads (the earlier version built per-chunk `HashMap`s and merged them
//! sequentially — a serial `Θ(n)` tail on the critical path):
//!
//! 1. **Count.** Every record hashes its key into one of `Θ(n)` buckets and
//!    bumps that bucket's atomic counter (one parallel pass, `n` writes).
//! 2. **Offsets.** A parallel exclusive scan over the bucket counts turns
//!    them into scatter offsets (`O(n)` work, `O(log n)` depth).
//! 3. **Scatter.** Every record re-hashes its key and claims a slot in its
//!    bucket with a fetch-and-add on the bucket cursor (one parallel pass,
//!    `n` writes).  Slot order within a bucket is interleaving-dependent,
//!    so…
//! 4. **Group.** …each bucket (in parallel) sorts its few indices back into
//!    input order, splits hash collisions by actual key equality, and emits
//!    its groups.  Buckets hold `O(1)` records in expectation, so this step
//!    is linear work with `O(log n)` whp depth.
//!
//! Total: `O(n)` expected reads and writes and `O(log n)` structural depth.
//! Equal keys end up contiguous; the *relative* order of groups would be
//! arbitrary (that is what makes it a *semi*sort), but for deterministic
//! output — identical counters and downstream structures at every thread
//! count — the groups are returned ordered by each group's minimum original
//! input index.
//!
//! Cost accounting: each of the three passes over the records charges one
//! write per record (bucket counter, scatter slot, output materialization)
//! and the scan charges its own `Θ(#buckets)` reads and writes; the
//! `Θ(#buckets)`-word control arrays derived from the scan (count snapshot,
//! cursor copy) are charged to the scan pass.  With `#buckets ≈ n/4` the
//! recorded writes stay well under `4n` (asserted by a property test).

use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU32, Ordering};

use crate::hash::DetHashMap;
use crate::scan::par_exclusive_scan;
use pwe_asym::counters::{record_reads, record_writes};
use pwe_asym::depth;
use rayon::prelude::*;

/// A group of records sharing one key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Group<K, T> {
    /// The shared key.
    pub key: K,
    /// The records with that key, in input order.
    pub items: Vec<T>,
}

#[inline]
fn bucket_of<K: Hash>(key: &K, mask: usize) -> usize {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut hasher);
    (hasher.finish() as usize) & mask
}

/// Group `items` by `key(item)`.
///
/// Returns one [`Group`] per distinct key, ordered by the group's first
/// (minimum) original input index — i.e. by first occurrence of the key —
/// with the items inside a group preserving their relative input order.
///
/// Cost: `O(n)` expected reads and writes, `O(log n)` depth.
///
/// ```
/// use pwe_primitives::semisort::semisort_by_key;
///
/// // Group (triangle, point) conflict pairs by triangle, as the Delaunay
/// // engine does after a locate round.
/// let pairs = [(2u32, 10u32), (0, 11), (2, 12), (0, 13)];
/// let groups = semisort_by_key(&pairs, |&(tri, _)| tri);
/// // Groups come back in first-occurrence order, items in input order:
/// assert_eq!(groups[0].key, 2);
/// assert_eq!(groups[0].items, vec![(2, 10), (2, 12)]);
/// assert_eq!(groups[1].key, 0);
/// assert_eq!(groups[1].items, vec![(0, 11), (0, 13)]);
/// ```
pub fn semisort_by_key<T, K, F>(items: &[T], key: F) -> Vec<Group<K, T>>
where
    T: Clone + Send + Sync,
    K: Eq + Hash + Clone + Send + Sync,
    F: Fn(&T) -> K + Send + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    assert!(
        n < u32::MAX as usize,
        "semisort index width is u32; got n = {n}"
    );

    // Θ(n) buckets with an expected load of ~4 records keeps the recorded
    // writes (3 per record + the scan over the bucket array) under the 4n
    // linear-writes budget while still giving O(1)-expected-size buckets.
    let num_buckets = (n / 4).next_power_of_two().max(16);
    let mask = num_buckets - 1;

    // Pass 1: count records per bucket.
    record_reads(n as u64);
    record_writes(n as u64);
    let counts: Vec<AtomicU32> = (0..num_buckets)
        .into_par_iter()
        .map(|_| AtomicU32::new(0))
        .collect();
    (0..n).into_par_iter().for_each(|i| {
        let b = bucket_of(&key(&items[i]), mask);
        counts[b].fetch_add(1, Ordering::Relaxed);
    });

    // Offsets: parallel exclusive scan over the bucket counts (the scan
    // charges its own reads/writes; the snapshot and cursor arrays below are
    // part of that charge).
    let sizes: Vec<u64> = (0..num_buckets)
        .into_par_iter()
        .map(|b| u64::from(counts[b].load(Ordering::Relaxed)))
        .collect();
    let (offsets, total) = par_exclusive_scan(&sizes);
    debug_assert_eq!(total, n as u64);
    let cursors: Vec<AtomicU32> = (0..num_buckets)
        .into_par_iter()
        .map(|b| AtomicU32::new(offsets[b] as u32))
        .collect();

    // Pass 2: scatter each record's index into its bucket's slice.
    record_reads(n as u64);
    record_writes(n as u64);
    let scattered: Vec<AtomicU32> = (0..n).into_par_iter().map(|_| AtomicU32::new(0)).collect();
    (0..n).into_par_iter().for_each(|i| {
        let b = bucket_of(&key(&items[i]), mask);
        let slot = cursors[b].fetch_add(1, Ordering::Relaxed) as usize;
        scattered[slot].store(i as u32, Ordering::Relaxed);
    });

    // Pass 3: per bucket, restore input order, split hash collisions by real
    // key equality, and emit (min-input-index, group) pairs.
    record_reads(n as u64);
    record_writes(n as u64);
    let per_bucket: Vec<Vec<(usize, Group<K, T>)>> = (0..num_buckets)
        .into_par_iter()
        .map(|b| {
            let start = offsets[b] as usize;
            let end = start + sizes[b] as usize;
            if start == end {
                return Vec::new();
            }
            let mut idxs: Vec<usize> = scattered[start..end]
                .iter()
                .map(|slot| slot.load(Ordering::Relaxed) as usize)
                .collect();
            idxs.sort_unstable(); // restore input order inside the bucket
            let mut groups: Vec<(usize, Group<K, T>)> = Vec::new();
            for i in idxs {
                let k = key(&items[i]);
                match groups.iter_mut().find(|(_, g)| g.key == k) {
                    Some((_, g)) => g.items.push(items[i].clone()),
                    None => groups.push((
                        i,
                        Group {
                            key: k,
                            items: vec![items[i].clone()],
                        },
                    )),
                }
            }
            groups
        })
        .collect();

    depth::add(depth::log2_ceil(n));

    // Deterministic output order: by each group's minimum original input
    // index (= first occurrence of its key).  There are at most as many
    // group headers as records and usually far fewer, so this costs
    // O(#groups log #groups) header moves and no extra record writes.
    let mut tagged: Vec<(usize, Group<K, T>)> = per_bucket.into_iter().flatten().collect();
    tagged.sort_unstable_by_key(|(min_idx, _)| *min_idx);
    tagged.into_iter().map(|(_, g)| g).collect()
}

/// Group indices `0..keys.len()` by `keys[i]`, returning `(key, indices)` pairs.
pub fn semisort_indices_by_key<K>(keys: &[K]) -> Vec<(K, Vec<usize>)>
where
    K: Eq + Hash + Clone + Send + Sync,
{
    let idx: Vec<usize> = (0..keys.len()).collect();
    semisort_by_key(&idx, |&i| keys[i].clone())
        .into_iter()
        .map(|g| (g.key, g.items))
        .collect()
}

/// Count the number of records per key (a histogram), in linear expected work.
///
/// Returns a [`DetHashMap`] so the histogram's iteration order (and thus any
/// structure derived from it) is identical across processes and thread counts.
pub fn count_by_key<T, K, F>(items: &[T], key: F) -> DetHashMap<K, usize>
where
    T: Sync,
    K: Eq + Hash + Send,
    F: Fn(&T) -> K + Send + Sync,
{
    record_reads(items.len() as u64);
    depth::add(depth::log2_ceil(items.len().max(1)));
    let mut counts = DetHashMap::default();
    for item in items {
        *counts.entry(key(item)).or_insert(0) += 1;
    }
    record_writes(counts.len() as u64);
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use pwe_asym::counters::CounterSnapshot;

    #[test]
    fn groups_partition_the_input() {
        let _g = crate::counter_guard();
        let items: Vec<u32> = (0..100).collect();
        let groups = semisort_by_key(&items, |x| x % 7);
        let mut all: Vec<u32> = groups.iter().flat_map(|g| g.items.clone()).collect();
        all.sort_unstable();
        assert_eq!(all, items);
        assert_eq!(groups.len(), 7);
        for g in &groups {
            assert!(g.items.iter().all(|x| x % 7 == g.key));
            // Input order preserved within groups.
            assert!(g.items.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn empty_input() {
        let _g = crate::counter_guard();
        let groups: Vec<Group<u32, u32>> = semisort_by_key(&[], |x| *x);
        assert!(groups.is_empty());
    }

    #[test]
    fn single_key() {
        let _g = crate::counter_guard();
        let items = vec![5u32; 50];
        let groups = semisort_by_key(&items, |_| 0u8);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].items.len(), 50);
    }

    #[test]
    fn groups_ordered_by_first_occurrence() {
        let _g = crate::counter_guard();
        // Keys appear in a scrambled pattern; the output groups must come
        // back ordered by each key's first appearance in the input.
        let items: Vec<u32> = (0..5000).map(|i| (i * i + 3 * i + 7) % 41).collect();
        let groups = semisort_by_key(&items, |x| *x);
        let mut first_seen: Vec<u32> = Vec::new();
        for &x in &items {
            if !first_seen.contains(&x) {
                first_seen.push(x);
            }
        }
        let got: Vec<u32> = groups.iter().map(|g| g.key).collect();
        assert_eq!(got, first_seen, "groups must be ordered by min input index");
    }

    #[test]
    fn indices_variant_matches() {
        let _g = crate::counter_guard();
        let keys = vec!['a', 'b', 'a', 'c', 'b', 'a'];
        let mut grouped = semisort_indices_by_key(&keys);
        grouped.sort_by_key(|(k, _)| *k);
        assert_eq!(
            grouped,
            vec![('a', vec![0, 2, 5]), ('b', vec![1, 4]), ('c', vec![3]),]
        );
    }

    #[test]
    fn count_by_key_matches_group_sizes() {
        let _g = crate::counter_guard();
        let items: Vec<u32> = (0..1000).collect();
        let counts = count_by_key(&items, |x| x % 13);
        let groups = semisort_by_key(&items, |x| x % 13);
        for g in groups {
            assert_eq!(counts[&g.key], g.items.len());
        }
    }

    #[test]
    fn writes_are_linear_not_nlogn() {
        let _g = crate::counter_guard();
        let n = 50_000usize;
        let items: Vec<u64> = (0..n as u64).collect();
        let before = CounterSnapshot::now();
        let _ = semisort_by_key(&items, |x| x % 97);
        let after = CounterSnapshot::now();
        let (_, writes) = after.since(&before);
        // Linear writes with a small constant; n log n would be ~16n here.
        // The two-pass scatter records 3 writes per record plus the Θ(n/4)
        // bucket scan, ≈ 3.3n in total.
        assert!(
            writes < 4 * n as u64,
            "semisort should use O(n) writes, got {writes} for n={n}"
        );
    }

    proptest! {
        #[test]
        fn prop_semisort_partitions(v in proptest::collection::vec(0u16..64, 0..400)) {
            let _g = crate::counter_guard();
            let groups = semisort_by_key(&v, |x| *x / 8);
            let mut all: Vec<u16> = groups.iter().flat_map(|g| g.items.clone()).collect();
            all.sort_unstable();
            let mut orig = v.clone();
            orig.sort_unstable();
            prop_assert_eq!(all, orig);
            // keys are distinct across groups
            let mut keys: Vec<_> = groups.iter().map(|g| g.key).collect();
            keys.sort_unstable();
            keys.dedup();
            prop_assert_eq!(keys.len(), groups.len());
        }
    }
}
