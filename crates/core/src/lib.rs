//! # pwe — parallel write-efficient computational geometry
//!
//! Umbrella crate re-exporting the workspace that reproduces
//! *Parallel Write-Efficient Algorithms and Data Structures for Computational
//! Geometry* (Blelloch, Gu, Shun, Sun — SPAA 2018).
//!
//! The library provides, under one roof:
//!
//! * the **Asymmetric NP cost model** ([`asym`]) — instrumented read/write
//!   counters, `work = reads + ω·writes`, structural depth, and the
//!   small-memory ledger whose per-task budgets the `small_memory_*` tests
//!   pin (see the repo-root `MODEL.md`);
//! * the **parallel primitives** the paper relies on ([`primitives`]) —
//!   scans, semisort, random permutations, priority writes and merges;
//! * the **geometry substrate** ([`geom`]) — exact predicates, points,
//!   boxes, intervals and seeded workload generators;
//! * the paper's two frameworks — DAG tracing + prefix doubling ([`trace`])
//!   and post-sorted construction + α-labeling ([`augtree`]);
//! * the four algorithm families: write-efficient comparison sort
//!   ([`sort`]), planar Delaunay triangulation ([`delaunay`]), k-d trees
//!   ([`kdtree`]) and augmented trees ([`augtree`]).
//!
//! ## Quickstart
//!
//! ```
//! use pwe::prelude::*;
//! use pwe::sort::incremental_sort;
//!
//! let keys: Vec<u64> = (0..10_000).rev().collect();
//! let (sorted, cost) = measure(Omega::new(10), || incremental_sort(&keys, 42));
//! assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
//! // The whole point of the paper: writes stay linear in n.
//! assert!(cost.writes_per_element(keys.len()) < 15.0);
//! ```

pub use pwe_asym as asym;
pub use pwe_augtree as augtree;
pub use pwe_delaunay as delaunay;
pub use pwe_geom as geom;
pub use pwe_kdtree as kdtree;
pub use pwe_primitives as primitives;
pub use pwe_sort as sort;
pub use pwe_trace as trace;

/// Convenience prelude: the cost-model types and the most common entry points.
pub mod prelude {
    pub use pwe_asym::cost::{measure, CostReport, Omega};
    pub use pwe_asym::counters::{record_read, record_reads, record_write, record_writes};
    pub use pwe_asym::smallmem::{ScratchReport, SmallMem, TaskScratch};
    pub use pwe_augtree::{IntervalTree, PrioritySearchTree, RangeTree2D};
    pub use pwe_delaunay::{triangulate_baseline, triangulate_write_efficient};
    pub use pwe_geom::point::{GridPoint, Point2, PointK};
    pub use pwe_kdtree::{build_classic, build_p_batched, KdTree};
    pub use pwe_sort::{incremental_sort, merge_sort_baseline};
}
