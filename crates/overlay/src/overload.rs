//! Overload detection with hysteresis and hold-down.
//!
//! An overloaded dissemination-graph node that keeps duplicating
//! packets amplifies its own congestion collapse: every admitted packet
//! fans out onto several out-links, so pressure feeds redundancy feeds
//! pressure. The [`OverloadDetector`] watches two signals — a smoothed
//! (EWMA) depth of the outbound data queue and the node's shed counters
//! — and drives a small, damped state machine of degradation *levels*:
//!
//! ```text
//!              pressure ≥ hold-down          pressure ≥ hold-down
//!   level 0  ─────────────────────▶ level 1 ─────────────────────▶ level 2
//!   (full)  ◀───────────────────── (bulk    ◀───────────────────  (bulk +
//!            quiet for a hold-down  single-   exit only from any    timely
//!            (depth low, no sheds)  path)     level, to level 0    degraded)
//! ```
//!
//! Every transition — enter, escalate, exit — is separated from the
//! previous one by at least the configured hold-down, exactly like the
//! route-flap damper's admission window: a load spike shorter than the
//! hold-down cannot flap routes, and recovery must be *sustained*
//! (depth below the exit threshold **and** zero new sheds for a full
//! hold-down) before full redundancy is restored. The exit threshold
//! sits below the enter threshold, so depth hovering at the boundary
//! cannot oscillate the detector.
//!
//! The mapping from level to per-class redundancy lives in the node
//! (see `OverlayNode`): surgical keeps its targeted graph at every
//! level, timely falls back to its two disjoint paths at level 2, and
//! bulk drops to a single path at level 1.

use dg_topology::Micros;
use std::time::Duration;

/// The deepest degradation level ([`OverloadDetector::level`] range is
/// `0..=MAX_LEVEL`).
pub const MAX_LEVEL: u8 = 2;

/// EWMA smoothing factor for the queue-depth signal. One constant for
/// every node: the hold-down, not the smoothing, is the tuning knob.
const DEPTH_ALPHA: f64 = 0.3;

/// Smoothed-depth fraction of the queue bound at which pressure is
/// declared (redundancy downgrades begin).
pub const ENTER_DEPTH: f64 = 0.5;

/// Smoothed-depth fraction of the queue bound below which — with zero
/// sheds — the node counts as quiet. Well under [`ENTER_DEPTH`]:
/// hysteresis needs a gap.
pub const EXIT_DEPTH: f64 = 0.125;

/// What the [`OverloadDetector`] takes from `NodeConfig`
/// (`shipper_queue`, `overload_hold_down`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverloadConfig {
    /// Capacity of the outbound data queue the depth signal is measured
    /// against.
    pub queue_bound: u64,
    /// Minimum dwell between transitions, and the sustained-quiet
    /// horizon required before exit.
    pub hold_down: Duration,
}

/// A state change reported by [`OverloadDetector::observe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadTransition {
    /// Pressure first crossed the enter threshold: level 0 → 1.
    Enter {
        /// The level entered (always 1).
        level: u8,
    },
    /// Pressure persisted for another hold-down: the level deepened.
    Escalate {
        /// The new, deeper level.
        level: u8,
    },
    /// Sustained quiet: the node returned to level 0.
    Exit {
        /// The level the detector was at before exiting.
        from_level: u8,
    },
}

/// Damped, hysteretic overload state machine (see the module docs).
#[derive(Debug, Clone)]
pub struct OverloadDetector {
    config: OverloadConfig,
    level: u8,
    /// Smoothed queue depth (EWMA over `observe` calls).
    depth_ewma: f64,
    /// Shed-counter total at the previous observation.
    last_shed_total: u64,
    /// When the last admitted transition happened (`None` before any).
    last_transition: Option<Micros>,
    /// Start of the current uninterrupted quiet streak (`None` while
    /// pressured).
    quiet_since: Option<Micros>,
}

impl OverloadDetector {
    /// A detector at level 0 with no history.
    pub fn new(config: OverloadConfig) -> Self {
        OverloadDetector {
            config,
            level: 0,
            depth_ewma: 0.0,
            last_shed_total: 0,
            last_transition: None,
            quiet_since: None,
        }
    }

    /// The current degradation level (0 = full redundancy).
    pub fn level(&self) -> u8 {
        self.level
    }

    /// The smoothed queue-depth estimate.
    pub fn depth_ewma(&self) -> f64 {
        self.depth_ewma
    }

    /// Feeds one observation of the outbound data-queue depth and the
    /// monotone total of shed packets, returning the admitted
    /// transition, if any.
    ///
    /// Call this periodically (the node does so once per hello tick);
    /// `now` must be monotone across calls.
    pub fn observe(
        &mut self,
        now: Micros,
        queue_depth: u64,
        shed_total: u64,
    ) -> Option<OverloadTransition> {
        self.depth_ewma = DEPTH_ALPHA * queue_depth as f64 + (1.0 - DEPTH_ALPHA) * self.depth_ewma;
        let shed_delta = shed_total.saturating_sub(self.last_shed_total);
        self.last_shed_total = shed_total;

        let bound = self.config.queue_bound as f64;
        let pressured = shed_delta > 0 || self.depth_ewma >= ENTER_DEPTH * bound;
        let quiet = shed_delta == 0 && self.depth_ewma <= EXIT_DEPTH * bound;

        // Track the quiet streak regardless of the hold-down: exit
        // requires quiet to have *persisted*, not merely to coincide
        // with the hold-down expiring.
        if quiet {
            self.quiet_since.get_or_insert(now);
        } else {
            self.quiet_since = None;
        }

        let hold = Micros::from_micros(self.config.hold_down.as_micros() as u64);
        let held = self.last_transition.is_none_or(|at| now.saturating_sub(at) >= hold);
        if !held {
            return None;
        }

        if pressured && self.level < MAX_LEVEL {
            self.level += 1;
            self.last_transition = Some(now);
            return Some(if self.level == 1 {
                OverloadTransition::Enter { level: 1 }
            } else {
                OverloadTransition::Escalate { level: self.level }
            });
        }
        if self.level > 0 {
            let quiet_long_enough =
                self.quiet_since.is_some_and(|since| now.saturating_sub(since) >= hold);
            if quiet_long_enough {
                let from_level = self.level;
                self.level = 0;
                self.last_transition = Some(now);
                return Some(OverloadTransition::Exit { from_level });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Micros {
        Micros::from_millis(v)
    }

    fn detector() -> OverloadDetector {
        OverloadDetector::new(OverloadConfig {
            queue_bound: 100,
            hold_down: Duration::from_millis(100),
        })
    }

    #[test]
    fn idle_node_never_transitions() {
        let mut d = detector();
        for t in 0..50 {
            assert_eq!(d.observe(ms(t * 10), 2, 0), None);
        }
        assert_eq!(d.level(), 0);
    }

    #[test]
    fn pressure_enters_then_escalates_after_hold_down() {
        let mut d = detector();
        // Shedding alone is enough pressure, even at low depth.
        assert_eq!(d.observe(ms(0), 0, 5), Some(OverloadTransition::Enter { level: 1 }));
        // Still pressured, but inside the hold-down: no transition.
        assert_eq!(d.observe(ms(50), 90, 10), None);
        assert_eq!(d.level(), 1);
        // Hold-down over and still pressured: escalate.
        assert_eq!(d.observe(ms(100), 90, 15), Some(OverloadTransition::Escalate { level: 2 }));
        // Level 2 is the floor; continued pressure changes nothing.
        assert_eq!(d.observe(ms(300), 95, 20), None);
        assert_eq!(d.level(), MAX_LEVEL);
    }

    #[test]
    fn exit_requires_sustained_quiet() {
        let mut d = detector();
        d.observe(ms(0), 0, 5);
        assert_eq!(d.level(), 1);
        // Quiet begins at t=200; a shed blip at t=250 re-pressures
        // (past the hold-down, so it also escalates) and resets the
        // quiet streak.
        assert_eq!(d.observe(ms(200), 0, 5), None);
        assert_eq!(d.observe(ms(250), 0, 6), Some(OverloadTransition::Escalate { level: 2 }));
        // Quiet again from t=300; the streak completes a hold-down at
        // t=400.
        assert_eq!(d.observe(ms(300), 0, 6), None);
        assert_eq!(d.observe(ms(380), 0, 6), None, "quiet streak not yet a hold-down long");
        assert_eq!(d.observe(ms(400), 0, 6), Some(OverloadTransition::Exit { from_level: 2 }));
        assert_eq!(d.level(), 0);
    }

    #[test]
    fn depth_hysteresis_gap_prevents_flapping() {
        let mut d = detector();
        // Drive the EWMA well above the enter threshold.
        for t in 0..10 {
            d.observe(ms(t), 100, 0);
        }
        assert_eq!(d.level(), 1);
        // Let the EWMA decay into the hysteresis band while the
        // hold-down still suppresses transitions.
        for t in 1..10 {
            assert_eq!(d.observe(ms(t * 10), 30, 0), None);
        }
        // Depth hovering between the exit (12.5) and enter (50)
        // thresholds: neither pressured nor quiet, so the level holds
        // forever.
        for t in 0..50 {
            assert_eq!(d.observe(ms(1_000 + t * 100), 30, 0), None);
        }
        assert_eq!(d.level(), 1);
    }

    #[test]
    fn transitions_never_closer_than_hold_down() {
        let mut d = detector();
        let mut last: Option<Micros> = None;
        let mut shed = 0;
        for t in 0..200u64 {
            // Alternate bursts of pressure and quiet every 30 ms — much
            // faster than the 100 ms hold-down.
            if (t / 3) % 2 == 0 {
                shed += 1;
            }
            if let Some(tr) = d.observe(ms(t * 10), 0, shed) {
                let now = ms(t * 10);
                if let Some(prev) = last {
                    assert!(
                        now.saturating_sub(prev) >= ms(100),
                        "transition {tr:?} at {now:?} only {:?} after previous",
                        now.saturating_sub(prev)
                    );
                }
                last = Some(now);
            }
        }
    }
}
