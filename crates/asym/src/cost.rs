//! Scoped cost measurement: `work = reads + ω · writes`.
//!
//! The paper reports, for every algorithm, the expected *work* in the
//! Asymmetric NP model together with the number of *writes* and the *depth*.
//! [`measure`] runs a closure under a **cost frame** and returns a
//! [`CostReport`] holding exactly those quantities (plus wall-clock time,
//! which the paper does not use but which the benchmark harness prints for
//! context).
//!
//! ## Frames
//!
//! The model defines a computation's cost over its own fork-join DAG, so a
//! frame is charged by the thread that opened it and by every task forked
//! under it — and by nothing else, whatever other threads charge at the
//! same moment:
//!
//! * Charges are plain adds into thread-local pending counts (reads and
//!   writes in [`crate::counters`], depth in [`crate::depth`]).  `measure`
//!   saves the thread's pending counts, runs the closure from zero, and
//!   restores them afterwards plus the frame's total, so nested measures
//!   sum into the enclosing one.
//! * Each `rayon::join` captures the forking thread's frame.  An arm that
//!   runs on the forking thread (not stolen, sequential mode, one-thread
//!   pool) charges that thread's pending counts as usual.  A stolen arm runs
//!   on the thief from zero pending counts and flushes them into the
//!   captured frame with one atomic add each, inside the job before its
//!   latch is set, so the joiner — and through it `measure` — sees them.
//!   The thief's own pending counts and span scope are restored around it.

use std::any::Any;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Once};
use std::time::{Duration, Instant};

use crate::{counters, depth};

/// The read/write asymmetry parameter `ω ≥ 1`.
///
/// The paper's motivating projections put the asymmetry of emerging
/// non-volatile memories "between 5–40 in terms of latency, bandwidth, or
/// energy"; the benchmark harness sweeps `ω ∈ {1, 5, 10, 20, 40}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Omega(pub u64);

impl Omega {
    /// Create a new asymmetry parameter; `omega` must be at least 1.
    pub fn new(omega: u64) -> Self {
        assert!(omega >= 1, "ω must be at least 1, got {omega}");
        Omega(omega)
    }

    /// The symmetric special case `ω = 1` (ordinary RAM / PRAM costs).
    pub fn symmetric() -> Self {
        Omega(1)
    }

    /// The raw multiplier.
    pub fn get(&self) -> u64 {
        self.0
    }

    /// The default sweep used by the experiment harness.
    pub fn paper_sweep() -> Vec<Omega> {
        [1, 5, 10, 20, 40].into_iter().map(Omega).collect()
    }
}

impl Default for Omega {
    fn default() -> Self {
        Omega(10)
    }
}

impl std::fmt::Display for Omega {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ω={}", self.0)
    }
}

/// The measured cost of a region of instrumented code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostReport {
    /// Reads charged to the large asymmetric memory.
    pub reads: u64,
    /// Writes charged to the large asymmetric memory.
    pub writes: u64,
    /// The asymmetry parameter used to weight writes.
    pub omega: Omega,
    /// Structural depth (critical path length) recorded by [`crate::depth`].
    pub depth: u64,
    /// Wall-clock duration of the region (informational only).
    pub elapsed: Duration,
}

impl CostReport {
    /// Asymmetric work: `reads + ω · writes`.
    pub fn work(&self) -> u64 {
        self.reads + self.omega.0.saturating_mul(self.writes)
    }

    /// Total number of memory operations, unweighted.
    pub fn operations(&self) -> u64 {
        self.reads + self.writes
    }

    /// Writes per input element, a convenient normalized metric for the
    /// "linear writes" claims (Theorems 4.1, 5.1, 6.1, 7.1).
    pub fn writes_per_element(&self, n: usize) -> f64 {
        if n == 0 {
            0.0
        } else {
            self.writes as f64 / n as f64
        }
    }

    /// Reads per input element.
    pub fn reads_per_element(&self, n: usize) -> f64 {
        if n == 0 {
            0.0
        } else {
            self.reads as f64 / n as f64
        }
    }

    /// Re-weight the same counts under a different ω (counts are ω-independent;
    /// only the work changes).
    pub fn with_omega(mut self, omega: Omega) -> Self {
        self.omega = omega;
        self
    }
}

impl std::fmt::Display for CostReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "reads={} writes={} work={} depth={} ({}, {:.2?})",
            self.reads,
            self.writes,
            self.work(),
            self.depth,
            self.omega,
            self.elapsed
        )
    }
}

/// Reads, writes and depth charged by one task.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counts {
    reads: u64,
    writes: u64,
    depth: u64,
}

impl Counts {
    /// Replace this thread's pending counts with `self`, returning the old.
    fn swap_pending(self) -> Counts {
        let (reads, writes) = counters::swap_pending(self.reads, self.writes);
        let depth = depth::swap_pending(self.depth);
        Counts {
            reads,
            writes,
            depth,
        }
    }

    /// Add `self` to this thread's pending counts.
    fn charge(self) {
        let pending = Counts::default().swap_pending();
        (pending + self).swap_pending();
    }
}

impl std::ops::Add for Counts {
    type Output = Counts;

    fn add(self, other: Counts) -> Counts {
        Counts {
            reads: self.reads + other.reads,
            writes: self.writes + other.writes,
            depth: self.depth + other.depth,
        }
    }
}

/// The counts that stolen tasks flushed into one `measure` scope.
///
/// `Relaxed` suffices: a stolen task flushes before its job's `SeqCst`
/// latch store, the joiner's `SeqCst` latch load orders the flush before
/// the `join` returns, and every `join` under `f` returns before `measure`
/// reads the frame.
#[derive(Debug, Default)]
struct Frame {
    reads: AtomicU64,
    writes: AtomicU64,
    depth: AtomicU64,
}

impl Frame {
    fn add(&self, counts: Counts) {
        self.reads.fetch_add(counts.reads, Ordering::Relaxed);
        self.writes.fetch_add(counts.writes, Ordering::Relaxed);
        self.depth.fetch_add(counts.depth, Ordering::Relaxed);
    }

    fn counts(&self) -> Counts {
        Counts {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            depth: self.depth.load(Ordering::Relaxed),
        }
    }
}

thread_local! {
    /// The frame that tasks running on this thread charge.
    static FRAME: RefCell<Option<Arc<Frame>>> = const { RefCell::new(None) };
}

/// Run `f` as a task of `frame`: from zero pending counts, with the
/// thread's pending counts and frame restored afterwards (also on unwind).
/// Returns what `f` charged on this thread.
fn run_in_frame<R>(frame: Option<Arc<Frame>>, f: impl FnOnce() -> R) -> (R, Counts) {
    struct Restore(Counts, Option<Arc<Frame>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            self.0.swap_pending();
            FRAME.set(self.1.take());
        }
    }
    let restore = Restore(Counts::default().swap_pending(), FRAME.replace(frame));
    let value = f();
    let own = Counts::default().swap_pending();
    drop(restore);
    (value, own)
}

fn fork() -> rayon::TaskContext {
    FRAME.with_borrow(|frame| frame.clone().map(|f| f as Arc<dyn Any + Send + Sync>))
}

fn run_stolen(context: &rayon::TaskContext, body: &mut dyn FnMut()) {
    let frame = context.clone().and_then(|c| c.downcast::<Frame>().ok());
    let ((), counts) = run_in_frame(frame.clone(), body);
    if let Some(frame) = frame {
        frame.add(counts);
    }
}

/// Register the frame hooks with the pool.  Idempotent; [`measure`] and
/// [`depth::with_span`] call it before running anything that could fork.
pub(crate) fn install_task_hooks() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        rayon::set_task_hooks(rayon::TaskHooks { fork, run_stolen });
    });
}

/// Run `f`, measuring the reads, writes, depth and wall-clock time it records.
///
/// The counts are exactly those charged by `f`'s own fork-join tasks (see
/// the module docs), whatever else runs concurrently.  Measurement nests: an
/// outer `measure` around several inner ones sees the sum of their counts.
pub fn measure<T>(omega: Omega, f: impl FnOnce() -> T) -> (T, CostReport) {
    install_task_hooks();
    let frame = Arc::new(Frame::default());
    let start = Instant::now();
    let (value, own) = run_in_frame(Some(frame.clone()), f);
    let elapsed = start.elapsed();
    let total = own + frame.counts();
    total.charge();
    (
        value,
        CostReport {
            reads: total.reads,
            writes: total.writes,
            omega,
            depth: total.depth,
            elapsed,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::{record_reads, record_writes};
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;

    #[test]
    fn work_weights_writes_by_omega() {
        let report = CostReport {
            reads: 100,
            writes: 7,
            omega: Omega::new(5),
            depth: 3,
            elapsed: Duration::ZERO,
        };
        assert_eq!(report.work(), 100 + 5 * 7);
        assert_eq!(report.operations(), 107);
        assert_eq!(report.with_omega(Omega::new(1)).work(), 107);
    }

    #[test]
    fn measure_captures_region_counts() {
        let ((), report) = measure(Omega::new(3), || {
            record_reads(10);
            record_writes(4);
        });
        assert_eq!((report.reads, report.writes), (10, 4));
        assert_eq!(report.work(), 10 + 3 * 4);
    }

    #[test]
    fn nested_measures_sum_into_the_outer_frame() {
        let (inner, outer) = measure(Omega::default(), || {
            record_reads(1);
            let ((), inner) = measure(Omega::default(), || {
                record_reads(10);
                record_writes(2);
                depth::add(3);
            });
            record_writes(1);
            inner
        });
        assert_eq!((inner.reads, inner.writes, inner.depth), (10, 2, 3));
        assert_eq!((outer.reads, outer.writes, outer.depth), (11, 3, 3));
    }

    #[test]
    fn concurrent_measures_each_report_only_their_own_charges() {
        let barrier = Barrier::new(2);
        let reports: Vec<CostReport> = std::thread::scope(|s| {
            let workers: Vec<_> = (1..=2u64)
                .map(|k| {
                    let barrier = &barrier;
                    s.spawn(move || {
                        measure(Omega::default(), || {
                            for _ in 0..1000 {
                                barrier.wait();
                                record_reads(k);
                                record_writes(k);
                                depth::add(k);
                            }
                        })
                        .1
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        for (k, report) in (1..=2u64).zip(reports) {
            assert_eq!(
                (report.reads, report.writes, report.depth),
                (1000 * k, 1000 * k, 1000 * k)
            );
        }
    }

    #[test]
    fn a_stolen_join_arm_charges_the_forkers_frame() {
        if rayon::current_num_threads() < 2 {
            return; // one-thread pool: nothing is ever stolen
        }
        let forker = std::thread::current().id();
        let started = AtomicBool::new(false);
        let (thief, report) = measure(Omega::default(), || {
            let ((), thief) = rayon::join(
                // Arm `a` waits until arm `b` has started, which forces `b`
                // onto another thread.
                || {
                    while !started.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                },
                || {
                    started.store(true, Ordering::Release);
                    record_reads(7);
                    record_writes(3);
                    depth::add(2);
                    std::thread::current().id()
                },
            );
            record_reads(1);
            thief
        });
        assert_ne!(thief, forker, "arm b was not stolen");
        assert_eq!((report.reads, report.writes, report.depth), (8, 3, 2));
    }

    #[test]
    fn per_element_metrics() {
        let report = CostReport {
            reads: 1000,
            writes: 200,
            omega: Omega::symmetric(),
            depth: 0,
            elapsed: Duration::ZERO,
        };
        assert!((report.writes_per_element(100) - 2.0).abs() < 1e-12);
        assert!((report.reads_per_element(100) - 10.0).abs() < 1e-12);
        assert_eq!(report.writes_per_element(0), 0.0);
    }

    #[test]
    #[should_panic]
    fn omega_zero_rejected() {
        let _ = Omega::new(0);
    }

    #[test]
    fn paper_sweep_is_ascending_and_in_projection_range() {
        let sweep = Omega::paper_sweep();
        assert!(sweep.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(sweep.first().unwrap().0, 1);
        assert!(sweep.last().unwrap().0 <= 40);
    }
}
