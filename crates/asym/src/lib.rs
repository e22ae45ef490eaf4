//! # pwe-asym — the Asymmetric Nested-Parallel cost model
//!
//! The algorithms in this workspace reproduce the SPAA 2018 paper
//! *Parallel Write-Efficient Algorithms and Data Structures for Computational
//! Geometry* (Blelloch, Gu, Shun, Sun).  Every result in that paper is stated
//! in the **Asymmetric NP model**: an infinitely large *asymmetric* memory in
//! which a write costs `ω ≥ 1` and a read costs `1`, plus a small per-task
//! *symmetric* memory (usually `O(log n)` words) whose accesses are free.
//!
//! The paper has no hardware evaluation — its "experiments" are the counted
//! read/write/work/depth bounds of its theorems.  This crate is therefore the
//! substrate that the rest of the workspace is measured against:
//!
//! * [`counters`] — read/write counters.  Algorithms call
//!   [`record_read`]/[`record_write`] at exactly the points where the paper
//!   charges an access to the large asymmetric memory; each charge is a
//!   plain thread-local add.
//! * [`cost`] — [`cost::Omega`], [`cost::CostReport`] and [`cost::measure`]:
//!   scoped measurement that turns the charges of one computation's own
//!   fork-join tasks into the `work = reads + ω·writes` quantity the paper
//!   reports.
//! * [`depth`] — structural span (critical-path) accounting for fork-join
//!   computations, so the depth columns of the paper's theorems can be
//!   measured rather than merely cited.
//! * [`smallmem`] — a ledger for the size of the symmetric small-memory a
//!   task uses: algorithms charge their per-task scratch through a
//!   [`smallmem::TaskScratch`] RAII guard, and the per-crate
//!   `small_memory_*` tests assert the `O(log n)` / `O(D(G))` / `Ω(p)`
//!   small-memory assumptions of Theorems 3.1, 6.1 and 7.1 against the
//!   recorded high-water mark.  Gated behind the default-on `ledger`
//!   feature; a build without it pays nothing.
//! * [`parallel`] — thin fork-join helpers over rayon (the model's
//!   work-stealing scheduler) that compose with the depth tracker.
//!
//! ## Quick example
//!
//! ```
//! use pwe_asym::cost::{measure, Omega};
//! use pwe_asym::counters;
//!
//! let (sum, report) = measure(Omega::new(10), || {
//!     let data = vec![1u64, 2, 3, 4];
//!     counters::record_reads(data.len() as u64); // read the input
//!     let s: u64 = data.iter().sum();
//!     counters::record_write(); // write the single output word
//!     s
//! });
//! assert_eq!(sum, 10);
//! assert_eq!(report.reads, 4);
//! assert_eq!(report.writes, 1);
//! assert_eq!(report.work(), 4 + 10); // reads + ω·writes
//! ```

pub mod cost;
pub mod counters;
pub mod depth;
pub mod parallel;
pub mod smallmem;

pub use cost::{measure, CostReport, Omega};
pub use counters::{record_read, record_reads, record_write, record_writes};
pub use depth::DepthTracker;
pub use smallmem::{ScratchReport, SmallMem, TaskScratch};

/// Convenience prelude for algorithm crates.
pub mod prelude {
    pub use crate::cost::{measure, CostReport, Omega};
    pub use crate::counters::{record_read, record_reads, record_write, record_writes};
    pub use crate::depth::DepthTracker;
    pub use crate::parallel::{par_for_each, par_join, par_map};
}
