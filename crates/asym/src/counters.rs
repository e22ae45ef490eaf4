//! Global read/write counters for the large asymmetric memory.
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
//! per-element [`record_read`] would give; only the number of atomic adds
//! drops.
//!
//! The counters are process-global and relaxed so that instrumentation
//! composes across rayon worker threads without any coordination in the
//! algorithms themselves — but they are **striped per thread**: a single
//! shared pair of atomics turns the hottest instrumented loops (one
//! `record_read` per in-circle test in the Delaunay engine, tens of millions
//! per run) into a four-way cacheline fight that erases the very parallel
//! speedup the instrumentation is supposed to observe.  Each thread
//! increments its own cache-line-padded stripe; totals are the sum over
//! stripes, which is exact whenever no instrumented work is in flight (the
//! measurement discipline [`crate::cost::measure`] already imposes).
//! [`CounterSnapshot`] captures the counters before and after a region of
//! interest.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Number of stripes; power of two so assignment wraps cheaply.  More
/// threads than stripes simply share (correctness is unaffected — stripes
/// are summed, never reset).
const STRIPES: usize = 64;

/// One per-thread counter pair, padded to keep stripes on distinct cache
/// lines.
#[repr(align(128))]
struct Stripe {
    reads: AtomicU64,
    writes: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)] // used only as array initializer
const EMPTY_STRIPE: Stripe = Stripe {
    reads: AtomicU64::new(0),
    writes: AtomicU64::new(0),
};

static CELLS: [Stripe; STRIPES] = [EMPTY_STRIPE; STRIPES];
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's stripe index, assigned round-robin on first use.
    static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
}

#[inline]
fn my_stripe() -> &'static Stripe {
    let idx = STRIPE.with(|s| {
        let mut idx = s.get();
        if idx == usize::MAX {
            idx = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) & (STRIPES - 1);
            s.set(idx);
        }
        idx
    });
    &CELLS[idx]
}

/// Record a single read of one word from the large asymmetric memory.
#[inline]
pub fn record_read() {
    my_stripe().reads.fetch_add(1, Ordering::Relaxed);
}

/// Record `n` reads of words from the large asymmetric memory.
#[inline]
pub fn record_reads(n: u64) {
    if n > 0 {
        my_stripe().reads.fetch_add(n, Ordering::Relaxed);
    }
}

/// Record a single write of one word to the large asymmetric memory.
#[inline]
pub fn record_write() {
    my_stripe().writes.fetch_add(1, Ordering::Relaxed);
}

/// Record `n` writes of words to the large asymmetric memory.
#[inline]
pub fn record_writes(n: u64) {
    if n > 0 {
        my_stripe().writes.fetch_add(n, Ordering::Relaxed);
    }
}

/// Total reads recorded since process start (sum over thread stripes).
#[inline]
pub fn total_reads() -> u64 {
    CELLS.iter().map(|c| c.reads.load(Ordering::Relaxed)).sum()
}

/// Total writes recorded since process start (sum over thread stripes).
#[inline]
pub fn total_writes() -> u64 {
    CELLS.iter().map(|c| c.writes.load(Ordering::Relaxed)).sum()
}

/// A point-in-time snapshot of the global counters.
///
/// Snapshots are monotone: the counters only ever increase, so the difference
/// between two snapshots taken around a region is the cost of that region
/// (plus whatever other instrumented work ran concurrently — measurement
/// scopes in benchmarks are therefore run without unrelated concurrent work).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Reads recorded at the time of the snapshot.
    pub reads: u64,
    /// Writes recorded at the time of the snapshot.
    pub writes: u64,
}

impl CounterSnapshot {
    /// Capture the current global counter values.
    pub fn now() -> Self {
        CounterSnapshot {
            reads: total_reads(),
            writes: total_writes(),
        }
    }

    /// Reads and writes that happened since `earlier`.
    ///
    /// Saturates at zero so that a stale snapshot never underflows.
    pub fn since(&self, earlier: &CounterSnapshot) -> (u64, u64) {
        (
            self.reads.saturating_sub(earlier.reads),
            self.writes.saturating_sub(earlier.writes),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_difference_counts_region() {
        let before = CounterSnapshot::now();
        record_read();
        record_reads(4);
        record_write();
        record_writes(2);
        let after = CounterSnapshot::now();
        let (r, w) = after.since(&before);
        assert!(r >= 5, "expected at least 5 reads, got {r}");
        assert!(w >= 3, "expected at least 3 writes, got {w}");
    }

    #[test]
    fn zero_counts_are_free() {
        let before = CounterSnapshot::now();
        record_reads(0);
        record_writes(0);
        let after = CounterSnapshot::now();
        // No other test in this module runs concurrently against these exact
        // calls, but other test threads may record; we only assert monotonicity.
        assert!(after.reads >= before.reads);
        assert!(after.writes >= before.writes);
    }

    #[test]
    fn since_saturates() {
        let later = CounterSnapshot {
            reads: 10,
            writes: 10,
        };
        let earlier = CounterSnapshot {
            reads: 20,
            writes: 15,
        };
        assert_eq!(earlier.since(&later), (10, 5));
        assert_eq!(later.since(&earlier), (0, 0));
    }
}
