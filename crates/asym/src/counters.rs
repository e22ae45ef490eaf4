//! Read/write counters for the large asymmetric memory.
//!
//! The Asymmetric NP model charges `1` for a read of a `Θ(log n)`-bit word of
//! the large memory and `ω` for a write; accesses to the small symmetric
//! memory (registers, per-task scratch of logarithmic size) are free.
//! Algorithms in this workspace call [`record_read`] / [`record_write`] at the
//! program points where the paper's analysis charges an access.  Writes to the
//! small memory are simply not recorded, mirroring the paper's convention
//! ("the number of writes refers only to the writes to the large-memory").
//!
//! A scan or walk that charges one read per element it visits — a query
//! reporter's output-sensitive scan, a tree descent — counts its visits in
//! a local and charges them with one [`record_reads`] when it ends, the
//! failed probe that ends the scan included.  The totals are the ones a
//! per-element [`record_read`] would give.
//!
//! A charge is a plain add into this thread's pending counts — no atomic, no
//! shared cache line, so the hottest instrumented loops (one `record_read`
//! per in-circle test in the Delaunay engine) cost what an ordinary
//! increment costs.  The pending counts belong to whatever task runs on the
//! thread: [`crate::cost::measure`] opens a frame that collects them from
//! its own thread and from every fork-join task stolen under it, and a
//! charge made outside any `measure` is simply never read.

use std::cell::Cell;

thread_local! {
    static READS: Cell<u64> = const { Cell::new(0) };
    static WRITES: Cell<u64> = const { Cell::new(0) };
}

/// Record a single read of one word from the large asymmetric memory.
#[inline]
pub fn record_read() {
    READS.set(READS.get() + 1);
}

/// Record `n` reads of words from the large asymmetric memory.
#[inline]
pub fn record_reads(n: u64) {
    READS.set(READS.get() + n);
}

/// Record a single write of one word to the large asymmetric memory.
#[inline]
pub fn record_write() {
    WRITES.set(WRITES.get() + 1);
}

/// Record `n` writes of words to the large asymmetric memory.
#[inline]
pub fn record_writes(n: u64) {
    WRITES.set(WRITES.get() + n);
}

/// Replace this thread's pending `(reads, writes)`, returning the old pair.
pub(crate) fn swap_pending(reads: u64, writes: u64) -> (u64, u64) {
    (READS.replace(reads), WRITES.replace(writes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{measure, Omega};

    #[test]
    fn snapshot_difference_counts_region() {
        let ((), report) = measure(Omega::default(), || {
            record_read();
            record_reads(4);
            record_write();
            record_writes(2);
        });
        assert_eq!((report.reads, report.writes), (5, 3));
    }

    #[test]
    fn zero_counts_are_free() {
        let ((), report) = measure(Omega::default(), || {
            record_reads(0);
            record_writes(0);
        });
        assert_eq!((report.reads, report.writes), (0, 0));
    }
}
