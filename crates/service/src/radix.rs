//! The one sort of an id answer: an LSD radix sort over the bytes that
//! vary.
//!
//! A cross-shard id answer is the concatenation of the shards' walk-order
//! reports, sorted once into the canonical ascending order (MODEL.md §6).
//! Ids of one keyspace share their high bytes, so after one pass that finds
//! which bytes differ across the answer, a counting pass per varying byte
//! sorts it — two passes for ids below 2¹⁶, at most eight for any `u64`.
//! Short answers go to `sort_unstable` instead.  The sort is uncharged: it
//! orders the output the walks already paid for.

/// Answers shorter than this are sorted by comparison.  Each counting pass
/// clears and prefix-sums a 256-slot table, so on ids below 2¹⁶
/// `sort_unstable` wins below about 100 ids; the cutoff keeps a margin.
const MIN_RADIX_LEN: usize = 256;

/// Sort `ids` ascending.
pub(crate) fn sort_ids(ids: &mut Vec<u64>) {
    if ids.len() < MIN_RADIX_LEN {
        ids.sort_unstable();
        return;
    }
    let first = ids[0];
    let varying = ids.iter().fold(0u64, |acc, &id| acc | (id ^ first));
    let mut shifts = [0u32; 8];
    let mut passes = 0;
    for shift in (0..64).step_by(8) {
        if (varying >> shift) & 0xff != 0 {
            shifts[passes] = shift;
            passes += 1;
        }
    }
    let mut buf = vec![0u64; ids.len()];
    for &shift in &shifts[..passes] {
        let digit = |id: u64| ((id >> shift) & 0xff) as usize;
        let mut offsets = [0usize; 256];
        for &id in ids.iter() {
            offsets[digit(id)] += 1;
        }
        let mut sum = 0;
        for slot in offsets.iter_mut() {
            let count = *slot;
            *slot = sum;
            sum += count;
        }
        for &id in ids.iter() {
            let slot = &mut offsets[digit(id)];
            buf[*slot] = id;
            *slot += 1;
        }
        std::mem::swap(ids, &mut buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// xorshift64 stream (deterministic, dependency-free).
    fn stream(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed | 1;
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        }
    }

    fn check(ids: Vec<u64>) {
        let mut want = ids.clone();
        want.sort_unstable();
        let mut got = ids;
        sort_ids(&mut got);
        assert_eq!(got, want);
    }

    #[test]
    fn matches_sort_unstable_around_the_cutoff() {
        for n in [0usize, 1, 2, 255, 256, 257, 1000] {
            let mut next = stream(n as u64 + 11);
            check((0..n).map(|_| next() % 50_000).collect());
            // Dense ids 0..n, reversed and shuffled.
            check((0..n as u64).rev().collect());
            let mut dense: Vec<u64> = (0..n as u64).collect();
            for i in (1..dense.len()).rev() {
                dense.swap(i, (next() % (i as u64 + 1)) as usize);
            }
            check(dense);
        }
    }

    #[test]
    fn shared_high_bytes_sort_on_the_low_ones() {
        let mut next = stream(3);
        let base = 0xABCD_EF01_2345_0000u64;
        check((0..3000).map(|_| base | (next() & 0xffff)).collect());
        // Four varying bytes.
        check((0..2000).map(|_| next() & 0xffff_ffff).collect());
        // Only a middle byte varies.
        check((0..600).map(|_| base | ((next() & 0xff) << 24)).collect());
    }

    #[test]
    fn keys_varying_in_every_byte() {
        let mut next = stream(5);
        check((0..2000).map(|_| next()).collect());
        // Five varying bytes: an odd pass count leaves the result in the
        // swapped-in buffer.
        check((0..2000).map(|_| next() & 0xff_ffff_ffff).collect());
    }

    #[test]
    fn extremes_and_duplicates() {
        let mut ids = vec![u64::MAX, 0, u64::MAX, 0, 7];
        ids.extend((0..400).map(|i| i % 13));
        check(ids.clone());
        ids.extend([u64::MAX; 300]);
        check(ids);
        check(vec![42; 1000]);
        check(vec![0, u64::MAX]);
    }
}
