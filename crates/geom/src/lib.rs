//! # pwe-geom — geometric primitives
//!
//! The geometric substrate shared by the write-efficient algorithms:
//!
//! * [`point`] — 2D integer-grid points (for exact Delaunay predicates),
//!   k-dimensional floating-point points (for k-d trees and range trees).
//! * [`predicates`] — exact orientation and in-circle tests on grid points
//!   using `i128` arithmetic.  The paper assumes exact predicates and general
//!   position (Section 5); grid-snapped integer coordinates give exactness
//!   without a floating-point filter stack.
//! * [`batch`] — batched SoA variants of the predicates with an exact
//!   integer width filter: most tests settle in `i64`, only
//!   large-magnitude differences fall back to the `i128` path.  Bit-equal
//!   to the `i128` predicates on every input, which stay as the reference
//!   oracle; [`in_circle_filtered`] is the production in-circle test.
//! * [`bbox`] — axis-aligned boxes and rectangles for k-d tree regions and
//!   range queries.
//! * [`interval`] — closed intervals for the interval tree / stabbing queries.
//! * [`generators`] — seeded workload generators (uniform, clustered,
//!   on-circle point sets; random interval sets; query workloads) used by the
//!   examples, the tests and the benchmark harness.

pub mod batch;
pub mod bbox;
pub mod generators;
pub mod interval;
pub mod point;
pub mod predicates;

pub use batch::{in_circle_batch, in_circle_filtered, orient2d_batch};
pub use bbox::{BBoxK, Rect};
pub use interval::Interval;
pub use point::{GridPoint, Point2, PointK};
pub use predicates::{in_circle, orient2d, Orientation};
