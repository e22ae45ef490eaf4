// Fixture: trips D2 (and only D2) — wall-clock outside the cost report.
use std::time::Instant;

pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}
