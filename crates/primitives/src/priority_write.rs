//! Priority writes (write-min).
//!
//! The parallel incremental algorithms (Algorithm 1's BST insertion,
//! Algorithm 2's choice of the minimum encroaching point) resolve concurrent
//! writes to the same location by keeping the *smallest* value — the
//! priority-write CRCW convention the paper assumes.  On real hardware this
//! is a `fetch_min` loop over a CAS; in the cost model a successful priority
//! write is one write to large memory, and losing attempts are reads.

use std::sync::atomic::{AtomicU64, Ordering};

use pwe_asym::counters::{record_read, record_write};

/// Sentinel meaning "empty" for [`PriorityCell`] and [`PriorityIndex`].
pub const EMPTY: u64 = u64::MAX;

/// A single cell supporting concurrent priority (minimum) writes of `u64`.
#[derive(Debug)]
pub struct PriorityCell {
    value: AtomicU64,
}

impl Default for PriorityCell {
    fn default() -> Self {
        Self::new()
    }
}

impl PriorityCell {
    /// An empty cell (holds [`EMPTY`]).
    pub fn new() -> Self {
        PriorityCell {
            value: AtomicU64::new(EMPTY),
        }
    }

    /// A cell initialised to `v`.
    pub fn with_value(v: u64) -> Self {
        PriorityCell {
            value: AtomicU64::new(v),
        }
    }

    /// Attempt to write `v`; the cell keeps the minimum of its current value
    /// and `v`.  Returns `true` if `v` became the stored value (it "won").
    #[inline]
    pub fn write_min(&self, v: u64) -> bool {
        let prev = self.value.fetch_min(v, Ordering::Relaxed);
        if v < prev {
            record_write();
            true
        } else {
            record_read();
            false
        }
    }

    /// [`Self::write_min`] without touching the global ledger.
    ///
    /// For callers that account a whole reservation round in bulk (the
    /// Delaunay engine charges one read per conflict-list entry for the
    /// nomination scan and treats the reservation cells themselves as
    /// per-round small-memory scratch): per-attempt charging would make the
    /// recorded totals depend on which attempt happened to observe the
    /// smaller value first — i.e. on the thread schedule.
    #[inline]
    pub fn write_min_untracked(&self, v: u64) -> bool {
        let prev = self.value.fetch_min(v, Ordering::Relaxed);
        v < prev
    }

    /// Read the current value ([`EMPTY`] if never written).
    #[inline]
    pub fn load(&self) -> u64 {
        record_read();
        self.value.load(Ordering::Relaxed)
    }

    /// Read without charging (for assertions / bulk-accounted callers).
    #[inline]
    pub fn load_untracked(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Whether the cell has ever been written.
    pub fn is_empty(&self) -> bool {
        self.load_untracked() == EMPTY
    }

    /// Reset to empty (one write if it was non-empty).
    pub fn clear(&self) {
        if self.value.swap(EMPTY, Ordering::Relaxed) != EMPTY {
            record_write();
        }
    }

    /// Reset to empty without touching the global ledger (see
    /// [`Self::write_min_untracked`]).
    #[inline]
    pub fn clear_untracked(&self) {
        self.value.store(EMPTY, Ordering::Relaxed);
    }
}

/// An array of priority cells, addressed by index — the shape Algorithm 1
/// uses for "the smallest key wins the empty child slot".
#[derive(Debug)]
pub struct PriorityIndex {
    cells: Vec<PriorityCell>,
}

impl PriorityIndex {
    /// `n` empty cells.
    pub fn new(n: usize) -> Self {
        PriorityIndex {
            cells: (0..n).map(|_| PriorityCell::new()).collect(),
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether there are no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Priority-write `v` into cell `i`; `true` if `v` won.
    ///
    /// This is the CRCW convention the paper's parallel incremental
    /// algorithms assume: concurrent writers to one location resolve to the
    /// minimum, a successful write costs one large-memory write, and a
    /// losing attempt costs one read.
    ///
    /// ```
    /// use pwe_primitives::priority_write::{PriorityIndex, EMPTY};
    ///
    /// let reservations = PriorityIndex::new(4);
    /// assert!(reservations.write_min(2, 7)); // first writer wins…
    /// assert!(!reservations.write_min(2, 9)); // …larger values lose…
    /// assert!(reservations.write_min(2, 3)); // …smaller values re-win.
    /// assert_eq!(reservations.load(2), 3);
    /// assert_eq!(reservations.load(0), EMPTY); // untouched cells stay empty
    /// ```
    #[inline]
    pub fn write_min(&self, i: usize, v: u64) -> bool {
        self.cells[i].write_min(v)
    }

    /// Priority-write without ledger charges (bulk-accounted callers).
    #[inline]
    pub fn write_min_untracked(&self, i: usize, v: u64) -> bool {
        self.cells[i].write_min_untracked(v)
    }

    /// Reset cell `i` without ledger charges.
    #[inline]
    pub fn clear_untracked(&self, i: usize) {
        self.cells[i].clear_untracked();
    }

    /// Read cell `i`.
    #[inline]
    pub fn load(&self, i: usize) -> u64 {
        self.cells[i].load()
    }

    /// Read cell `i` without charging.
    #[inline]
    pub fn load_untracked(&self, i: usize) -> u64 {
        self.cells[i].load_untracked()
    }

    /// Clear every cell.
    pub fn clear_all(&self) {
        for c in &self.cells {
            c.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    #[test]
    fn min_wins_sequentially() {
        let _g = crate::counter_guard();
        let cell = PriorityCell::new();
        assert!(cell.is_empty());
        assert!(cell.write_min(10));
        assert!(!cell.write_min(20));
        assert!(cell.write_min(5));
        assert_eq!(cell.load_untracked(), 5);
        cell.clear();
        assert!(cell.is_empty());
    }

    #[test]
    fn concurrent_writers_keep_global_minimum() {
        let _g = crate::counter_guard();
        let cell = PriorityCell::new();
        (0..10_000u64).into_par_iter().for_each(|i| {
            cell.write_min(10_000 - i);
        });
        assert_eq!(cell.load_untracked(), 1);
    }

    #[test]
    fn exactly_the_minimum_reports_winning_last() {
        let _g = crate::counter_guard();
        // Among a fixed set of writes, the final stored value is the min and
        // at least one writer observed a win.
        let cell = PriorityCell::new();
        let wins: usize = (0..1000u64)
            .into_par_iter()
            .map(|i| usize::from(cell.write_min(i ^ 0x2a)))
            .sum();
        assert!(wins >= 1);
        assert_eq!(
            cell.load_untracked(),
            (0..1000u64).map(|i| i ^ 0x2a).min().unwrap()
        );
    }

    #[test]
    fn untracked_ops_keep_write_min_semantics() {
        let _g = crate::counter_guard();
        // Ledger neutrality itself is pinned end-to-end by the Delaunay
        // engine's schedule-independence test (tests/parallel_stress.rs),
        // which would see differing totals if these ops charged anything;
        // asserting the global counters here would race sibling unit tests.
        let idx = PriorityIndex::new(4);
        assert!(idx.write_min_untracked(1, 9));
        assert!(!idx.write_min_untracked(1, 12));
        assert!(idx.write_min_untracked(1, 2));
        assert_eq!(idx.load_untracked(1), 2);
        idx.clear_untracked(1);
        assert_eq!(idx.load_untracked(1), EMPTY);
    }

    #[test]
    fn index_cells_are_independent() {
        let _g = crate::counter_guard();
        let idx = PriorityIndex::new(8);
        idx.write_min(0, 3);
        idx.write_min(7, 9);
        idx.write_min(0, 1);
        assert_eq!(idx.load_untracked(0), 1);
        assert_eq!(idx.load_untracked(7), 9);
        assert_eq!(idx.load_untracked(3), EMPTY);
        idx.clear_all();
        assert!(idx.load_untracked(0) == EMPTY && idx.load_untracked(7) == EMPTY);
    }
}
