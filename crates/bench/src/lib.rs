//! Experiment harness shared by the `table1` / `theorems` binaries.
//!
//! Every function runs one of the paper's experiments — the theorem
//! baselines vs write-efficient pairs of §4 (sort), §5 (Delaunay) and §6
//! (k-d trees), the §7 tree constructions with their α sweeps, and the
//! small-memory ledger report of [`smallmem_experiment`] — measures
//! reads/writes/depth with [`pwe_asym`], and returns printable rows.  The
//! absolute numbers are implementation constants; what the experiments are
//! expected to reproduce is the *shape* of the paper's claims — which
//! variant writes less, by roughly what factor, and how the trade-off moves
//! with α and ω.  The machine-readable counterpart is the `speedup` binary,
//! whose JSON schema is specified in the repo-root `MODEL.md`.

use pwe_asym::cost::{measure, CostReport, Omega};
use pwe_asym::smallmem::{ScratchReport, SmallMem, TaskScratch};
use pwe_augtree::interval::IntervalTree;
use pwe_augtree::priority::{PrioritySearchTree, PsPoint};
use pwe_augtree::range_tree::{RangeTree2D, RtPoint};
use pwe_delaunay::{triangulate_baseline, triangulate_write_efficient};
use pwe_geom::generators::{
    random_intervals, random_query_rects, random_three_sided_queries, stabbing_queries,
    uniform_grid_points, uniform_points_2d,
};
use pwe_geom::interval::Interval;
use pwe_kdtree::build::{build_classic, build_p_batched, recommended_p};
use pwe_sort::{incremental_sort, merge_sort_baseline, merge_sort_baseline_with_scratch};
use pwe_trace::trace_collect_scratch;
use rand::Rng;
use rand::SeedableRng;

/// One row of an experiment table.
#[derive(Debug, Clone)]
pub struct Row {
    /// Experiment / variant label.
    pub label: String,
    /// Problem size.
    pub n: usize,
    /// Measured cost.
    pub report: CostReport,
}

impl Row {
    /// Render the row for the plain-text tables the harness prints.
    pub fn render(&self) -> String {
        format!(
            "{:<38} n={:<8} reads={:<12} writes={:<12} writes/n={:<8.2} work(ω={})={:<14} depth={}",
            self.label,
            self.n,
            self.report.reads,
            self.report.writes,
            self.report.writes_per_element(self.n),
            self.report.omega.get(),
            self.report.work(),
            self.report.depth
        )
    }
}

/// Print a titled table of rows.
pub fn print_table(title: &str, rows: &[Row]) {
    println!("\n=== {title} ===");
    for row in rows {
        println!("{}", row.render());
    }
}

/// Experiment E-sort (Theorem 4.1): incremental sort vs merge-sort baseline.
pub fn sort_experiment(n: usize, omega: Omega) -> Vec<Row> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let keys: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
    let (_, merge) = measure(omega, || merge_sort_baseline(&keys));
    let (_, incr) = measure(omega, || incremental_sort(&keys, 7));
    vec![
        Row {
            label: "sort/merge-sort (baseline)".into(),
            n,
            report: merge,
        },
        Row {
            label: "sort/incremental (write-efficient)".into(),
            n,
            report: incr,
        },
    ]
}

/// Experiment E-dt (Theorem 5.1): baseline vs write-efficient Delaunay.
pub fn delaunay_experiment(n: usize, omega: Omega) -> Vec<Row> {
    let points = uniform_grid_points(n, 1 << 20, 3);
    let (_, base) = measure(omega, || triangulate_baseline(&points, 5));
    let (_, we) = measure(omega, || triangulate_write_efficient(&points, 5));
    vec![
        Row {
            label: "delaunay/ParIncrementalDT (baseline)".into(),
            n,
            report: base,
        },
        Row {
            label: "delaunay/write-efficient".into(),
            n,
            report: we,
        },
    ]
}

/// Experiment E-kd (Theorem 6.1): classic vs p-batched k-d construction, with
/// a p-ablation, plus the resulting tree heights.
pub fn kdtree_experiment(n: usize, omega: Omega) -> (Vec<Row>, Vec<String>) {
    let points = uniform_points_2d(n, 11);
    let mut rows = Vec::new();
    let mut notes = Vec::new();

    let (classic, classic_report) = measure(omega, || build_classic(&points, 16));
    rows.push(Row {
        label: "kdtree/classic (baseline)".into(),
        n,
        report: classic_report,
    });
    notes.push(format!("classic height = {}", classic.height()));

    let log_n = (n.max(2) as f64).log2().ceil() as usize;
    for (name, p) in [
        ("p=1 (pure incremental)", 1usize),
        ("p=log n", log_n),
        ("p=log^2 n", log_n * log_n),
        ("p=log^3 n (paper)", recommended_p(n)),
    ] {
        let ((tree, _), report) = measure(omega, || build_p_batched(&points, p, 16, 13));
        rows.push(Row {
            label: format!("kdtree/p-batched {name}"),
            n,
            report,
        });
        notes.push(format!("p-batched {name}: height = {}", tree.height()));
    }
    (rows, notes)
}

/// Experiments T1-interval / E-aug-construct / E-aug-update for the interval
/// tree: construction (classic vs post-sorted), query and update costs as a
/// function of α.
pub fn interval_experiment(n: usize, alphas: &[usize], omega: Omega) -> Vec<Row> {
    let intervals = random_intervals(n, 1e6, 200.0, 17);
    let queries = stabbing_queries(1000, 1e6, 18);
    let updates = random_intervals(n / 10, 1e6, 200.0, 19);
    let mut rows = Vec::new();

    let (_, classic) = measure(omega, || IntervalTree::build_classic(&intervals, 2));
    rows.push(Row {
        label: "interval/classic construction".into(),
        n,
        report: classic,
    });
    let (_, post_sorted) = measure(omega, || IntervalTree::build_parallel(&intervals, 2));
    rows.push(Row {
        label: "interval/post-sorted construction".into(),
        n,
        report: post_sorted,
    });

    for &alpha in alphas {
        let mut tree = IntervalTree::build_parallel(&intervals, alpha);
        let (_, query_cost) = measure(omega, || {
            let mut total = 0usize;
            for &q in &queries {
                total += tree.stab(q).len();
            }
            total
        });
        rows.push(Row {
            label: format!("interval/α={alpha} {} stabbing queries", queries.len()),
            n,
            report: query_cost,
        });
        let (_, update_cost) = measure(omega, || {
            for (i, s) in updates.iter().enumerate() {
                let s = Interval::new(s.left, s.right, 1_000_000 + i as u64);
                tree.insert(&s);
            }
        });
        rows.push(Row {
            label: format!("interval/α={alpha} {} insertions", updates.len()),
            n,
            report: update_cost,
        });
    }
    rows
}

/// Experiments T1-priority: construction and query costs of the priority
/// search tree.
pub fn priority_experiment(n: usize, omega: Omega) -> Vec<Row> {
    let points: Vec<PsPoint> = uniform_points_2d(n, 23)
        .into_iter()
        .enumerate()
        .map(|(i, point)| PsPoint {
            point,
            id: i as u64,
        })
        .collect();
    let queries = random_three_sided_queries(1000, 0.2, 24);
    let mut rows = Vec::new();

    let (_, classic) = measure(omega, || PrioritySearchTree::build_classic(&points));
    rows.push(Row {
        label: "priority/classic construction".into(),
        n,
        report: classic,
    });
    let (tree, post_sorted) = measure(omega, || PrioritySearchTree::build_parallel(&points));
    rows.push(Row {
        label: "priority/post-sorted construction".into(),
        n,
        report: post_sorted,
    });

    let (_, query_cost) = measure(omega, || {
        let mut total = 0usize;
        for &(lo, hi, y) in &queries {
            total += tree.query_3sided(lo, hi, y).len();
        }
        total
    });
    rows.push(Row {
        label: format!("priority/{} 3-sided queries", queries.len()),
        n,
        report: query_cost,
    });

    let mut tree = tree;
    let extra: Vec<PsPoint> = uniform_points_2d(n / 10, 25)
        .into_iter()
        .enumerate()
        .map(|(i, point)| PsPoint {
            point,
            id: (n + i) as u64,
        })
        .collect();
    let (_, update_cost) = measure(omega, || {
        for p in &extra {
            tree.insert(*p);
        }
    });
    rows.push(Row {
        label: format!("priority/{} insertions", extra.len()),
        n,
        report: update_cost,
    });
    rows
}

/// Experiments T1-range: range-tree construction, query and update costs as a
/// function of α.
pub fn range_tree_experiment(n: usize, alphas: &[usize], omega: Omega) -> Vec<Row> {
    let points: Vec<RtPoint> = uniform_points_2d(n, 31)
        .into_iter()
        .enumerate()
        .map(|(i, point)| RtPoint {
            point,
            id: i as u64,
        })
        .collect();
    let rects = random_query_rects(500, 0.1, 32);
    let extra: Vec<RtPoint> = uniform_points_2d(n / 10, 33)
        .into_iter()
        .enumerate()
        .map(|(i, point)| RtPoint {
            point,
            id: (n + i) as u64,
        })
        .collect();
    let mut rows = Vec::new();

    for &alpha in alphas {
        let (tree, construct) = measure(omega, || RangeTree2D::build(&points, alpha));
        rows.push(Row {
            label: format!(
                "range-tree/α={alpha} construction (aug size {})",
                tree.augmentation_size()
            ),
            n,
            report: construct,
        });
        let (_, query_cost) = measure(omega, || {
            let mut total = 0usize;
            for rect in &rects {
                total += tree.query(rect).len();
            }
            total
        });
        rows.push(Row {
            label: format!("range-tree/α={alpha} {} range queries", rects.len()),
            n,
            report: query_cost,
        });
        let mut tree = tree;
        let (_, update_cost) = measure(omega, || {
            for p in &extra {
                tree.insert(*p);
            }
        });
        rows.push(Row {
            label: format!("range-tree/α={alpha} {} insertions", extra.len()),
            n,
            report: update_cost,
        });
    }
    rows
}

/// One row of the small-memory report: an algorithm's declared per-task
/// budget against the high-water mark its ledger actually observed.
#[derive(Debug, Clone)]
pub struct SmallMemRow {
    /// Algorithm / phase label.
    pub label: String,
    /// Problem size.
    pub n: usize,
    /// The stated bound ("c·log2 n", "Ω(p)", "O(D)").
    pub bound: &'static str,
    /// Ledger snapshot (budget + high water).
    pub scratch: ScratchReport,
}

impl SmallMemRow {
    /// Render the row for the plain-text table.
    pub fn render(&self) -> String {
        format!(
            "{:<26} n={:<9} bound={:<10} budget={:>6} words   high_water={:>6} words   {}",
            self.label,
            self.n,
            self.bound,
            self.scratch.budget,
            self.scratch.high_water,
            if self.scratch.within_budget() {
                "ok"
            } else {
                "OVER BUDGET"
            }
        )
    }
}

/// Print a small-memory table.
pub fn print_smallmem_table(title: &str, rows: &[SmallMemRow]) {
    println!("== {title} ==");
    for row in rows {
        println!("  {}", row.render());
    }
}

/// Exercise every algorithm crate's small-memory ledger at size `n` and
/// report each declared budget against the observed per-task high-water
/// mark — the machine-checked form of the paper's small-memory assumptions
/// (Theorems 3.1, 4.1, 5.1, 6.1, 7.1).
pub fn smallmem_experiment(n: usize) -> Vec<SmallMemRow> {
    let mut rows = Vec::new();

    // Sorting (Theorem 4.1): O(log n) words per task.
    let keys = {
        let mut rng = rand::rngs::StdRng::seed_from_u64(71);
        (0..n).map(|_| rng.gen::<u64>()).collect::<Vec<u64>>()
    };
    let (_, merge_scratch) = merge_sort_baseline_with_scratch(&keys);
    rows.push(SmallMemRow {
        label: "mergesort baseline".into(),
        n,
        bound: "c*log2 n",
        scratch: merge_scratch,
    });
    let (_, sort_stats) = pwe_sort::incremental_sort_with_stats(&keys, 7);
    rows.push(SmallMemRow {
        label: "incremental sort".into(),
        n,
        bound: "c*log2 n",
        scratch: sort_stats.scratch,
    });

    // Delaunay engine (Theorem 5.1): O(log n) words per cavity task.
    let dn = n.min(20_000);
    let points = uniform_grid_points(dn, 1 << 20, 3);
    let (mesh, dt_stats) = pwe_delaunay::triangulate_write_efficient_with_stats(&points, 5);
    rows.push(SmallMemRow {
        label: "delaunay engine (WE)".into(),
        n: dn,
        bound: "c*log2 n",
        scratch: dt_stats.insert.scratch,
    });

    // k-d tree (Theorem 6.1): classic O(log n); p-batched Ω(p).
    let pts2 = uniform_points_2d(n, 11);
    let (_, classic_stats) = pwe_kdtree::build::build_classic_with_stats(&pts2, 16);
    rows.push(SmallMemRow {
        label: "kd classic build".into(),
        n,
        bound: "c*log2 n",
        scratch: classic_stats.scratch,
    });
    let (_, batched_stats) = build_p_batched(&pts2, recommended_p(n), 16, 13);
    rows.push(SmallMemRow {
        label: "kd p-batched build".into(),
        n,
        bound: "Omega(p)",
        scratch: batched_stats.scratch,
    });

    // Augmented-tree query paths (Theorem 7.1): O(log n) words per query.
    let intervals = random_intervals(n, 1e6, 200.0, 17);
    let tree = IntervalTree::build_parallel(&intervals, 2);
    let ledger = SmallMem::logarithmic(n, pwe_augtree::QUERY_SCRATCH_C);
    for &q in &stabbing_queries(64, 1e6, 19) {
        let mut scratch = TaskScratch::new(&ledger);
        tree.stab_into(q, &mut scratch, &mut Vec::new());
    }
    rows.push(SmallMemRow {
        label: "interval stab queries".into(),
        n,
        bound: "c*log2 n",
        scratch: ledger.report(),
    });

    // Augmented-tree parallel builds (shared engine): forked-recursion
    // frames at O(log n), plus O(α) k-way-merge cursors on the range tree.
    let (_, iv_build) = IntervalTree::build_parallel_with_stats(&intervals, 2);
    rows.push(SmallMemRow {
        label: "interval engine build".into(),
        n,
        bound: "c*log2 n",
        scratch: iv_build.scratch,
    });
    let ps_points: Vec<pwe_augtree::priority::PsPoint> = uniform_points_2d(n, 23)
        .into_iter()
        .enumerate()
        .map(|(i, point)| pwe_augtree::priority::PsPoint {
            point,
            id: i as u64,
        })
        .collect();
    let (_, ps_build) = PrioritySearchTree::build_parallel_with_stats(&ps_points);
    rows.push(SmallMemRow {
        label: "priority engine build".into(),
        n,
        bound: "c*log2 n",
        scratch: ps_build.scratch,
    });
    let rt_points: Vec<pwe_augtree::range_tree::RtPoint> = uniform_points_2d(n, 31)
        .into_iter()
        .enumerate()
        .map(|(i, point)| pwe_augtree::range_tree::RtPoint {
            point,
            id: i as u64,
        })
        .collect();
    let (_, rt_build) = RangeTree2D::build_with_stats(&rt_points, 8);
    rows.push(SmallMemRow {
        label: "range engine build".into(),
        n,
        bound: "c*log2 n + c*alpha",
        scratch: rt_build.scratch,
    });

    // DAG tracing (Theorem 3.1): O(D(G)) words — the Delaunay history DAG
    // built above bounds the trace stack by its longest path.
    let depth_bound = 4 * (pwe_asym::depth::log2_ceil(dn.max(2)) + 1);
    let trace_ledger = SmallMem::with_budget(4 * depth_bound);
    let elements: Vec<u32> = (3..(dn as u32 + 3).min(259)).collect();
    trace_collect_scratch(&mesh, &elements, Some(&trace_ledger));
    rows.push(SmallMemRow {
        label: "DAG tracing (history)".into(),
        n: dn,
        bound: "O(D(G))",
        scratch: trace_ledger.report(),
    });

    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort_experiment_shows_write_gap() {
        let rows = sort_experiment(20_000, Omega::new(10));
        assert_eq!(rows.len(), 2);
        let merge = &rows[0].report;
        let incr = &rows[1].report;
        assert!(incr.writes < merge.writes);
        assert!(incr.work() < merge.work());
    }

    #[test]
    fn delaunay_experiment_shows_write_gap() {
        let rows = delaunay_experiment(2_000, Omega::new(10));
        assert!(rows[1].report.writes < rows[0].report.writes);
    }

    #[test]
    fn kdtree_experiment_reports_all_p_values() {
        let (rows, notes) = kdtree_experiment(5_000, Omega::new(10));
        assert_eq!(rows.len(), 5);
        assert_eq!(notes.len(), 5);
        // The paper's p = Θ(log³ n) setting writes less than the classic build.
        assert!(rows.last().unwrap().report.writes < rows[0].report.writes);
    }

    #[test]
    fn smallmem_experiment_within_every_budget() {
        for row in smallmem_experiment(3_000) {
            assert!(row.scratch.high_water > 0, "{} ledger is dead", row.label);
            assert!(
                row.scratch.within_budget(),
                "{} used {} of {} scratch words",
                row.label,
                row.scratch.high_water,
                row.scratch.budget,
            );
        }
    }

    #[test]
    fn interval_experiment_alpha_sweep_runs() {
        let rows = interval_experiment(3_000, &[2, 8], Omega::new(10));
        // classic + post-sorted + 2 rows per α.
        assert_eq!(rows.len(), 2 + 2 * 2);
        assert!(rows[1].report.writes < rows[0].report.writes);
    }
}
