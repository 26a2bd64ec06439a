//! Property tests for the per-link loss estimator, end to end over its
//! two halves: a seeded packet stream goes through
//! [`GapTracker::observe`], each hello tick's evidence through
//! [`LinkMonitor::record_data_tick`], and the detector reads
//! [`LinkMonitor::loss_from`]. Virtual time throughout; nothing sleeps.
//!
//! Invariants under test:
//! - **Accuracy**: on enough samples the estimate is within three
//!   points of the rate the stream was thinned at, for rates 0–0.6.
//! - **Bursts are not problems**: five-packet 50 % bursts on a link
//!   carrying 1000 pps never trigger at the 5 % threshold, wherever in
//!   the tick they fall.
//! - **Problems are**: a sustained 50 % loss triggers within two whole
//!   ticks of starting (the wide span wants twenty losses; a tick of
//!   coin flips over fifty packets brings 25 ± 3.5), never clears while
//!   it lasts, and clears within five whole ticks of clean data.
//! - **Judged on arrival**: with the detector also reading each gap as
//!   it lands (the closed ticks plus the open one, as a node judges a
//!   busy link), bursts still never trigger; a sustained 50 % loss
//!   triggers within two whole ticks, and a trigger read on a gap is
//!   never undone by the tick that closes after it; a healed link
//!   clears within three whole ticks of clean data.

use dg_core::splitmix;
use dg_overlay::monitor::{LinkMonitor, WINDOW_TICKS};
use dg_overlay::recovery::GapTracker;
use dg_topology::{Micros, NodeId};
use proptest::prelude::*;

const TICK: Micros = Micros::from_millis(50);
const THRESHOLD: f64 = 0.05;

/// A uniform draw in `[0, 1)` per call.
fn unit(state: &mut u64) -> f64 {
    (splitmix::next(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// One in-link: the tracker its data goes through, the monitor its
/// ticks end in, and the stream's position.
struct Link {
    neighbor: NodeId,
    tracker: GapTracker,
    monitor: LinkMonitor,
    next_seq: u64,
    ticks: u64,
}

impl Link {
    fn new() -> Self {
        Link {
            neighbor: NodeId::new(1),
            tracker: GapTracker::new(),
            monitor: LinkMonitor::new(WINDOW_TICKS, TICK),
            next_seq: 0,
            ticks: 0,
        }
    }

    /// Sends `packets` more, dropping those `lost` says to, then closes
    /// the tick (its hello arrives) and runs the detector: the
    /// estimate and what [`LinkMonitor::detect`] made of it.
    fn tick(&mut self, packets: u64, mut lost: impl FnMut(u64) -> bool) -> (f64, Option<bool>) {
        let now = Micros::from_micros(self.ticks * TICK.as_micros());
        for seq in self.next_seq..self.next_seq + packets {
            if !lost(seq) {
                self.tracker.observe(seq, now);
            }
        }
        self.next_seq += packets;
        let (expected, received) = self.tracker.take_evidence();
        self.monitor.record_hello(self.neighbor, self.ticks, Micros::ZERO, now);
        self.monitor.record_data_tick(self.neighbor, expected, received, now);
        self.ticks += 1;
        let loss = self.monitor.loss_from(self.neighbor, now);
        (loss, self.monitor.detect(self.neighbor, loss, THRESHOLD))
    }
}

impl Link {
    /// As [`Link::tick`], with the detector judging each gap as the
    /// packet exposing it lands, while the link is busy and not
    /// triggered, on the closed ticks and the open one. Also says
    /// whether a gap triggered it during the tick.
    fn tick_on_arrival(
        &mut self,
        packets: u64,
        mut lost: impl FnMut(u64) -> bool,
    ) -> (bool, f64, Option<bool>) {
        let now = Micros::from_micros(self.ticks * TICK.as_micros());
        let mut on_a_gap = false;
        for seq in self.next_seq..self.next_seq + packets {
            if lost(seq) || self.tracker.observe(seq, now).is_empty() {
                continue;
            }
            let open = self.tracker.evidence();
            if !self.monitor.is_triggered(self.neighbor)
                && self.monitor.is_busy(self.neighbor, open)
            {
                let loss = self.monitor.estimate(self.neighbor, open, now);
                on_a_gap |= self.monitor.detect(self.neighbor, loss, THRESHOLD) == Some(true);
            }
        }
        self.next_seq += packets;
        let (loss, verdict) = self.tick(0, |_| false);
        (on_a_gap, loss, verdict)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn estimate_is_within_three_points_of_the_injected_rate(
        percent in 0u64..=60,
        seed in any::<u64>(),
    ) {
        let rate = percent as f64 / 100.0;
        let mut rng = seed;
        let mut link = Link::new();
        // 2500 a tick: the narrow span's four ticks hold 10 000
        // samples, so three points are six standard deviations.
        let mut loss = 0.0;
        for _ in 0..12 {
            (loss, _) = link.tick(2_500, |_| unit(&mut rng) < rate);
        }
        prop_assert!((loss - rate).abs() <= 0.03, "rate {rate} reads as {loss}");
    }

    #[test]
    fn bursts_never_trigger_and_sustained_loss_always_does(
        seed in any::<u64>(),
        burst_gaps in proptest::collection::vec(200u64..2_000, 40),
        onset in 0u64..50,
        loss_ticks in 4u64..30,
    ) {
        let mut rng = seed;
        let mut link = Link::new();
        // A second of clean history, as any link in a running overlay
        // has: the first samples of a link's life are too few to dilute
        // anything.
        for _ in 0..20 {
            link.tick(50, |_| false);
        }
        // Five-packet bursts at 50 % loss, at least 200 packets apart
        // (five a second at most; the benchmarks' background has one).
        let mut starts = Vec::new();
        let mut at = link.next_seq;
        for gap in burst_gaps {
            at += gap;
            starts.push(at);
        }
        let horizon = at + 100;
        while link.next_seq < horizon {
            let (loss, verdict) = link.tick(50, |seq| {
                starts.iter().any(|&s| (s..s + 5).contains(&seq)) && unit(&mut rng) < 0.5
            });
            prop_assert_eq!(verdict, None, "a burst read as {} and triggered", loss);
        }
        // Let the last burst leave both spans, then lose every other
        // packet from `onset` packets into a tick.
        for _ in 0..8 {
            link.tick(50, |_| false);
        }
        let begins = link.next_seq + onset;
        let mut triggered_after = None;
        for i in 0..loss_ticks {
            let (loss, verdict) = link.tick(50, |seq| seq >= begins && unit(&mut rng) < 0.5);
            prop_assert_ne!(verdict, Some(false), "cleared during the loss, reading {}", loss);
            if verdict == Some(true) {
                triggered_after = triggered_after.or(Some(i));
            }
        }
        // The first evaluation sees only the part of its tick after the
        // onset; the second has a whole tick of loss, which is twenty
        // losses nine times in ten; the third has two.
        prop_assert!(
            triggered_after.is_some_and(|i| i <= 2),
            "a sustained 50 % loss triggered after {:?} evaluations",
            triggered_after
        );
        // The first clean packet still exposes the loss's last gap, so
        // the first clean tick may hold a loss or two of the old ones;
        // the four after it fill the narrow span with clean samples.
        let cleared_after = (0..12).position(|_| link.tick(50, |_| false).1 == Some(false));
        prop_assert!(
            cleared_after.is_some_and(|i| i < 5),
            "a healed link cleared after {:?} clean ticks",
            cleared_after.map(|i| i + 1)
        );
    }

    #[test]
    fn judged_on_arrival_a_trigger_holds_and_a_heal_clears_within_three_ticks(
        seed in any::<u64>(),
        burst_gaps in proptest::collection::vec(200u64..2_000, 40),
        onset in 0u64..50,
        loss_ticks in 4u64..30,
    ) {
        let mut rng = seed;
        let mut link = Link::new();
        for _ in 0..20 {
            link.tick_on_arrival(50, |_| false);
        }
        let mut starts = Vec::new();
        let mut at = link.next_seq;
        for gap in burst_gaps {
            at += gap;
            starts.push(at);
        }
        let horizon = at + 100;
        while link.next_seq < horizon {
            let (on_a_gap, loss, verdict) = link.tick_on_arrival(50, |seq| {
                starts.iter().any(|&s| (s..s + 5).contains(&seq)) && unit(&mut rng) < 0.5
            });
            prop_assert!(!on_a_gap, "a burst triggered on a gap");
            prop_assert_eq!(verdict, None, "a burst read as {} and triggered", loss);
        }
        for _ in 0..8 {
            link.tick_on_arrival(50, |_| false);
        }
        let begins = link.next_seq + onset;
        let mut triggered_after = None;
        for i in 0..loss_ticks {
            let (on_a_gap, loss, verdict) =
                link.tick_on_arrival(50, |seq| seq >= begins && unit(&mut rng) < 0.5);
            prop_assert_ne!(verdict, Some(false), "cleared during the loss, reading {}", loss);
            if on_a_gap || verdict == Some(true) {
                triggered_after = triggered_after.or(Some(i));
            }
        }
        prop_assert!(
            triggered_after.is_some_and(|i| i <= 2),
            "a sustained 50 % loss triggered after {:?} ticks",
            triggered_after
        );
        // The first clean tick may hold the loss's last gap; the two
        // after it are the short span, clean.
        let cleared_after =
            (0..12).position(|_| link.tick_on_arrival(50, |_| false).2 == Some(false));
        prop_assert!(
            cleared_after.is_some_and(|i| i < 3),
            "a healed link cleared after {:?} clean ticks",
            cleared_after.map(|i| i + 1)
        );
    }
}
