//! Blocked-vs-flat equivalence for the k-d tree range query: the
//! vEB-blocked descent (the default when the cache is live) must return the
//! same answers and charge the same ARAM reads/writes as the flat arena
//! walk (MODEL.md "Cache cost vs. ARAM cost").  Counter checks serialize on a process
//! lock because the counters are global.

use std::sync::{Mutex, MutexGuard, OnceLock};

use pwe_asym::CounterSnapshot;
use pwe_geom::bbox::BBoxK;
use pwe_geom::generators::uniform_points_2d;
use pwe_kdtree::build::{build_p_batched, recommended_p};

static COUNTER_LOCK: OnceLock<Mutex<()>> = OnceLock::new();

fn counter_guard() -> MutexGuard<'static, ()> {
    COUNTER_LOCK
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn charged<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let before = CounterSnapshot::now();
    let out = f();
    let after = CounterSnapshot::now();
    let (r, w) = after.since(&before);
    (out, r, w)
}

#[test]
fn kd_blocked_queries_match_flat() {
    let _g = counter_guard();
    for &n in &[129usize, 2_000, 20_000] {
        let pts = uniform_points_2d(n, 41);
        let (tree, _) = build_p_batched(&pts, recommended_p(n), 16, 13);
        let mut state = 7u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for qi in 0..64 {
            let w = 0.02 + 0.3 * next();
            let h = 0.02 + 0.3 * next();
            let x = next() * (1.0 - w);
            let y = next() * (1.0 - h);
            let bbox = BBoxK::new([x, y], [x + w, y + h]);
            let (a, fr, fw) = charged(|| tree.range_query_flat(&bbox));
            let (b, br, bw) = charged(|| tree.range_query(&bbox));
            assert_eq!(a, b, "range n={n} q={qi}");
            assert_eq!((fr, fw), (br, bw), "range counters n={n} q={qi}");
        }
    }
}
