//! Epoch-based monotonic microseconds shared by all in-process nodes.

use dg_topology::Micros;
use std::sync::OnceLock;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Current time in microseconds since the Unix epoch, as of the
/// process's first call: the wall clock is read once, and every value
/// after is that reading plus monotonic time elapsed since.
///
/// So the clock cannot run backwards — a wall-clock step does not move
/// the hello, link-state and digest deadlines a node keeps on it — yet
/// stays epoch-based: a restarted node's link-state epoch outranks its
/// previous life's, and all overlay nodes of one host — one process's
/// or, each anchored to the same host clock, several processes' — read
/// directly comparable packet timestamps. A multi-host deployment would
/// substitute a synchronized clock here.
pub fn now_us() -> Micros {
    static ANCHOR: OnceLock<(Instant, u64)> = OnceLock::new();
    let (start, wall_us) = ANCHOR.get_or_init(|| {
        let wall = SystemTime::now().duration_since(UNIX_EPOCH);
        (Instant::now(), wall.expect("system clock after unix epoch").as_micros() as u64)
    });
    Micros::from_micros(wall_us + start.elapsed().as_micros() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_never_runs_backwards_and_is_epoch_based() {
        let mut last = now_us();
        // Sanity: we are past 2020.
        assert!(last.as_secs() > 1_577_836_800);
        for _ in 0..10_000 {
            let now = now_us();
            assert!(now >= last, "{now} after {last}");
            last = now;
        }
    }
}
