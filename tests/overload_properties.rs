//! Property battery for the overload detector: the damped, hysteretic
//! state machine must honour its hold-down under *every* load trace,
//! not just the hand-picked unit-test ones. Each case drives the real
//! [`OverloadDetector`] and an independently written reference state
//! machine over the same observation trace and cross-checks them.

use dissemination_graphs::overlay::overload::{ENTER_DEPTH, EXIT_DEPTH};
use dissemination_graphs::overlay::{
    OverloadConfig, OverloadDetector, OverloadTransition, MAX_LEVEL,
};
use dissemination_graphs::prelude::*;
use proptest::prelude::*;
use std::time::Duration;

const DEPTH_ALPHA: f64 = 0.3;

/// One observation: instantaneous queue depth and how many packets
/// were shed since the previous observation.
type Step = (u16, u8);

/// A straight-line re-statement of the documented detector contract,
/// written without looking at the production control flow: smooth the
/// depth, classify the instant as pressured / quiet / neither, extend
/// or reset the quiet streak, and admit at most one transition per
/// hold-down.
struct Reference {
    level: u8,
    ewma: f64,
    quiet_run: u64,
    since_transition: Option<u64>,
}

enum RefStep {
    None,
    Enter(u8),
    Escalate(u8),
    Exit(u8),
}

impl Reference {
    fn new() -> Self {
        Reference { level: 0, ewma: 0.0, quiet_run: 0, since_transition: None }
    }

    /// Advances one observation taken `dt_us` after the previous one.
    fn step(&mut self, depth: u16, shed_delta: u8, dt_us: u64, config: &OverloadConfig) -> RefStep {
        self.ewma = DEPTH_ALPHA * f64::from(depth) + (1.0 - DEPTH_ALPHA) * self.ewma;
        let bound = config.queue_bound as f64;
        let pressured = shed_delta > 0 || self.ewma >= ENTER_DEPTH * bound;
        let quiet = shed_delta == 0 && self.ewma <= EXIT_DEPTH * bound;
        // The streak includes the time elapsed *since* the observation
        // that started it, matching a timestamped `quiet_since` marker:
        // the starting observation contributes no elapsed time itself.
        self.quiet_run = if quiet { self.quiet_run + dt_us } else { 0 };
        if let Some(t) = self.since_transition.as_mut() {
            *t += dt_us;
        }
        let hold = config.hold_down.as_micros() as u64;
        if self.since_transition.is_some_and(|t| t < hold) {
            return RefStep::None;
        }
        if pressured && self.level < MAX_LEVEL {
            self.level += 1;
            self.since_transition = Some(0);
            return if self.level == 1 { RefStep::Enter(1) } else { RefStep::Escalate(self.level) };
        }
        if self.level > 0 && quiet && self.quiet_run >= hold + dt_us {
            let from = self.level;
            self.level = 0;
            self.since_transition = Some(0);
            return RefStep::Exit(from);
        }
        RefStep::None
    }
}

fn arb_config() -> impl Strategy<Value = OverloadConfig> {
    (16u64..=256, 50u64..=300).prop_map(|(queue_bound, hold_ms)| OverloadConfig {
        queue_bound,
        hold_down: Duration::from_millis(hold_ms),
    })
}

fn arb_trace() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec((0u16..1_024, 0u8..4), 1..200)
}

/// Timestep between observations, microseconds. The floor of 15 ms
/// guarantees the quiet tail in `sustained_quiet_always_restores` can
/// both decay the EWMA and out-wait the longest hold-down.
fn arb_dt() -> impl Strategy<Value = u64> {
    15_000u64..=50_000
}

/// Runs the production detector over a trace, returning
/// `(time_us, transition)` pairs and the final level.
fn run_detector(
    config: OverloadConfig,
    trace: &[Step],
    dt_us: u64,
) -> (Vec<(u64, OverloadTransition)>, u8) {
    let mut d = OverloadDetector::new(config);
    let mut shed_total = 0u64;
    let mut out = Vec::new();
    for (i, &(depth, shed)) in trace.iter().enumerate() {
        shed_total += u64::from(shed);
        let now = (i as u64 + 1) * dt_us;
        if let Some(tr) = d.observe(Micros::from_micros(now), u64::from(depth), shed_total) {
            out.push((now, tr));
        }
    }
    (out, d.level())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// No two admitted transitions are ever closer than the hold-down,
    /// whatever the load does.
    #[test]
    fn transitions_respect_hold_down(
        config in arb_config(),
        trace in arb_trace(),
        dt in arb_dt(),
    ) {
        let (transitions, _) = run_detector(config, &trace, dt);
        let hold = config.hold_down.as_micros() as u64;
        for pair in transitions.windows(2) {
            let gap = pair[1].0 - pair[0].0;
            prop_assert!(
                gap >= hold,
                "transitions {:?} and {:?} only {gap} us apart (hold-down {hold} us)",
                pair[0],
                pair[1]
            );
        }
    }

    /// Within one pressure episode the level only deepens: Enter is
    /// always 0 → 1, Escalate always climbs one step, Exit always lands
    /// on 0, and the level never leaves `0..=MAX_LEVEL`.
    #[test]
    fn levels_are_monotone_within_an_episode(
        config in arb_config(),
        trace in arb_trace(),
        dt in arb_dt(),
    ) {
        let (transitions, final_level) = run_detector(config, &trace, dt);
        let mut level = 0u8;
        for &(at, tr) in &transitions {
            match tr {
                OverloadTransition::Enter { level: l } => {
                    prop_assert_eq!(level, 0, "Enter from level {} at {}", level, at);
                    prop_assert_eq!(l, 1);
                    level = l;
                }
                OverloadTransition::Escalate { level: l } => {
                    prop_assert_eq!(l, level + 1, "Escalate skipped a level at {}", at);
                    prop_assert!(l <= MAX_LEVEL);
                    level = l;
                }
                OverloadTransition::Exit { from_level } => {
                    prop_assert_eq!(from_level, level, "Exit from the wrong level at {}", at);
                    prop_assert!(from_level > 0);
                    level = 0;
                }
            }
        }
        prop_assert_eq!(level, final_level, "replayed transitions disagree with final level");
    }

    /// Sustained quiet always restores full redundancy: appending a
    /// long idle tail (zero depth, zero sheds) to *any* trace brings
    /// the detector back to level 0.
    #[test]
    fn sustained_quiet_always_restores(
        config in arb_config(),
        mut trace in arb_trace(),
        dt in arb_dt(),
    ) {
        // 64 idle steps at >= 15 ms each: ~18 steps decay a saturated
        // EWMA below the exit threshold, the rest out-wait the 300 ms
        // worst-case hold-down twice over.
        trace.extend(std::iter::repeat_n((0u16, 0u8), 64));
        let (_, final_level) = run_detector(config, &trace, dt);
        prop_assert_eq!(final_level, 0, "idle tail did not restore level 0");
    }

    /// The production detector and the independently written reference
    /// admit the *same* transitions at the same observations.
    #[test]
    fn detector_matches_reference_state_machine(
        config in arb_config(),
        trace in arb_trace(),
        dt in arb_dt(),
    ) {
        let mut reference = Reference::new();
        let mut detector = OverloadDetector::new(config);
        let mut shed_total = 0u64;
        for (i, &(depth, shed)) in trace.iter().enumerate() {
            shed_total += u64::from(shed);
            let now = (i as u64 + 1) * dt;
            let got = detector.observe(Micros::from_micros(now), u64::from(depth), shed_total);
            let want = reference.step(depth, shed, dt, &config);
            let agree = match (&want, &got) {
                (RefStep::None, None) => true,
                (RefStep::Enter(l), Some(OverloadTransition::Enter { level }))
                | (RefStep::Escalate(l), Some(OverloadTransition::Escalate { level })) => {
                    l == level
                }
                (RefStep::Exit(l), Some(OverloadTransition::Exit { from_level })) => {
                    l == from_level
                }
                _ => false,
            };
            prop_assert!(agree, "step {i}: detector said {got:?}, reference disagrees");
            let want_level = match want {
                RefStep::Enter(l) | RefStep::Escalate(l) => Some(l),
                RefStep::Exit(_) => Some(0),
                RefStep::None => None,
            };
            if let Some(l) = want_level {
                prop_assert_eq!(detector.level(), l, "step {}: levels diverge", i);
            }
            prop_assert_eq!(detector.level(), reference.level, "step {}: state diverged", i);
        }
    }
}
