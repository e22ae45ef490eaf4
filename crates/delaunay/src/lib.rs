//! # pwe-delaunay — write-efficient planar Delaunay triangulation
//!
//! Section 5 of the paper shows how to compute the Delaunay triangulation of
//! `n` points in the plane with `O(n log n + ωn)` expected work — that is,
//! `Θ(n log n)` reads but only `O(n)` writes — and polylogarithmic depth
//! (Theorem 5.1).  The starting point is the BGSS parallel randomized
//! incremental algorithm (Algorithm 2 in the paper): triangles maintain the
//! set `E(t)` of not-yet-inserted points that *encroach* them (lie inside
//! their circumcircle); in every round, each point that is the
//! minimum-priority encroacher of its entire conflict region is inserted, its
//! cavity is re-triangulated, and the surviving encroachers are redistributed
//! to the new triangles.  That redistribution is what costs `Θ(n log n)`
//! writes: every point moves down the dependence DAG once per round it
//! survives.
//!
//! The write-efficient variant applies the two techniques of Section 3:
//!
//! * **prefix doubling** — only the points of the current prefix-doubling
//!   round participate in the rounds above, so each redistribution touches
//!   only the current batch;
//! * **DAG tracing** — the points of the next batch locate their conflict
//!   triangles by tracing the *tracing structure* (the history DAG built by
//!   the earlier rounds: every new triangle has its two witness triangles as
//!   parents) using reads only, and a semisort gathers them per triangle.
//!
//! Modules:
//!
//! * [`mesh`] — the triangulation: triangle arena, alive-edge adjacency map,
//!   and the history/tracing DAG (which implements [`pwe_trace::TraceDag`]).
//! * [`engine`] — the §5 batch insertion engine shared by both algorithms:
//!   parallel, deterministic bulk-synchronous *reserve-and-commit* rounds
//!   over flat conflict-row arenas (priority-write nomination, cavity
//!   assessment, prefix-scan triangle-id reservation, fan construction,
//!   ordered commit), with every cavity task's scratch charged to the
//!   `O(log n)` small-memory ledger.
//! * [`baseline`] — `ParIncrementalDT`: all points compete from the start
//!   (write-inefficient baseline, `Θ(n log n)` writes).
//! * [`write_efficient`] — the prefix-doubling + tracing variant
//!   (`O(n)` writes).
//! * [`verify`] — structural and Delaunay-property verification used by the
//!   tests and the experiment harness.

pub mod baseline;
pub mod engine;
pub mod mesh;
pub mod verify;
pub mod write_efficient;

/// Serializes this crate's unit tests that run instrumented code: cost
/// assertions difference the process-global ARAM counters, so no other
/// test may charge them concurrently.
#[cfg(test)]
pub(crate) fn counter_guard() -> std::sync::MutexGuard<'static, ()> {
    static COUNTER_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

pub use baseline::{triangulate_baseline, triangulate_baseline_with_stats};
pub use mesh::{TriMesh, Triangle};
pub use verify::{check_delaunay_property, check_mesh_consistency};
pub use write_efficient::{
    triangulate_write_efficient, triangulate_write_efficient_with_stats, DtStats,
};
