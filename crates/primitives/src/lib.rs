//! # pwe-primitives — parallel building blocks
//!
//! The write-efficient geometry algorithms of the SPAA 2018 paper lean on a
//! small set of classical parallel primitives.  This crate implements them
//! with explicit Asymmetric-NP cost accounting (via [`pwe_asym`]) so the
//! higher-level algorithms can charge exactly what the paper's analysis
//! charges:
//!
//! * [`scan`] — exclusive/inclusive prefix sums (`O(n)` work, `O(log n)` depth).
//! * [`permute`] — seeded random permutations; the randomized incremental
//!   algorithms all assume the input arrives in random order.
//! * [`semisort`] — grouping records by key in expected linear work and
//!   writes (the paper cites Gu, Shun, Sun, Blelloch \[34\] for this bound);
//!   used to collect the points that landed in the same bucket / triangle /
//!   leaf during an incremental round.
//! * [`priority_write`] — the priority-write (write-min) primitive the
//!   parallel incremental algorithms resolve conflicts with.
//! * [`merge`] — parallel merge of sorted sequences (used by the
//!   write-inefficient merge-sort baseline and by bulk updates).
//! * [`hash`] — a fixed-seed hasher ([`hash::DetState`]) for the few places
//!   that still want a hash map on an instrumented path: `RandomState` would
//!   make recorded totals differ from process to process.
//! * [`racecheck`] — the region-claim schedule sanitizer (default-off
//!   `racecheck` feature): parallel fan-outs register the region they are
//!   about to touch and overlapping claims from logically concurrent tasks
//!   panic with both tasks' provenance.
//! * [`faultpoint`] — deterministic fault injection (default-off
//!   `faultinject` feature): named fault sites compiled to no-ops by
//!   default; an armed `faultpoint::FaultPlan` replays a seeded,
//!   thread-count-independent schedule of injected panics, errors and
//!   delays (the chaos half of the serving layer's failure-containment
//!   story, MODEL.md §6).
//! * [`layout`] / [`search`] — the cache-conscious query layer: blocked
//!   (vEB-style) permutation caches for static arena trees and the
//!   branchless, prefetching binary search every packed-run lookup goes
//!   through.  Wall-clock machinery only: counters, digests and answers
//!   are unchanged (MODEL.md §5).

pub mod faultpoint;
pub mod hash;
pub mod layout;
pub mod merge;
pub mod permute;
pub mod priority_write;
pub mod racecheck;
pub mod scan;
pub mod search;
pub mod semisort;

pub use faultpoint::InjectedFault;
pub use hash::{DetHashMap, DetHashSet, DetState};
pub use layout::{BlockedNode, BlockedTree, NO_NODE};
pub use permute::{random_permutation, shuffle_in_place};
pub use priority_write::{PriorityCell, PriorityIndex};
pub use scan::{exclusive_scan, inclusive_scan, par_exclusive_scan};
pub use search::{branchless_partition_point, branchless_search_by_key, run_partition_point};
pub use semisort::semisort_by_key;
