//! Programmable link impairment for localhost deployments.
//!
//! A real overlay link has propagation delay and (sometimes) loss; on
//! localhost both must be synthesized. Every outgoing datagram passes
//! through the sending node's [`FaultPlan`], which decides the
//! datagram's fate: dropped (uniform or Gilbert–Elliott bursty loss, or
//! a full blackhole), delayed (baseline latency plus uniform jitter),
//! reordered (held back long enough to land behind its successors),
//! duplicated, or corrupted (one byte flipped in flight). All knobs are
//! adjustable at runtime, which is how tests, the chaos harness
//! ([`crate::chaos`]), and examples inject the paper's "problems around
//! a node".
//!
//! Decisions are drawn from a per-link deterministic RNG seeded from
//! the plan's seed, so two plans with the same seed facing the same
//! per-link decision sequence produce identical impairment streams —
//! the foundation of the seeded chaos soak tests.

use dg_topology::{Micros, NodeId};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// How long a reordered datagram is held beyond its normal delay —
/// enough for several successors on the same link to overtake it.
const REORDER_HOLD: Micros = Micros::from_millis(2);

/// Two-state Gilbert–Elliott bursty-loss model.
///
/// The link alternates between a *good* and a *bad* state; each
/// datagram first advances the state machine, then is dropped with the
/// current state's loss probability. Bursts arise because the bad
/// state persists for a geometrically distributed run of datagrams.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BurstLoss {
    /// Probability of entering the bad state, per datagram.
    pub p_enter: f64,
    /// Probability of leaving the bad state, per datagram.
    pub p_exit: f64,
    /// Drop probability while in the good state.
    pub good_loss: f64,
    /// Drop probability while in the bad state.
    pub bad_loss: f64,
}

impl BurstLoss {
    /// Average loss rate of the stationary chain (sanity aid for tests).
    pub fn stationary_loss(&self) -> f64 {
        let denom = self.p_enter + self.p_exit;
        if denom <= 0.0 {
            return self.good_loss;
        }
        let bad_frac = self.p_enter / denom;
        self.good_loss * (1.0 - bad_frac) + self.bad_loss * bad_frac
    }
}

/// Impairment applied to one directed link (this node → neighbour).
///
/// Every field defaults when absent, so a JSON fault can name only the
/// impairments it wants (the vendored serde derive supports field-level
/// `default`, not the container-level form).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct LinkFault {
    /// Uniform drop probability per datagram.
    #[serde(default)]
    pub loss: f64,
    /// Added delay per datagram (emulated propagation + injected).
    #[serde(default)]
    pub delay: Micros,
    /// Uniform extra delay in `[0, jitter]` per datagram.
    #[serde(default)]
    pub jitter: Micros,
    /// Probability a datagram is held back long enough to be overtaken.
    #[serde(default)]
    pub reorder: f64,
    /// Probability a datagram is transmitted twice.
    #[serde(default)]
    pub duplicate: f64,
    /// Probability one byte of the datagram is flipped in flight.
    #[serde(default)]
    pub corrupt: f64,
    /// Drop everything: a full link blackhole / partition.
    #[serde(default)]
    pub blackhole: bool,
    /// Bursty (Gilbert–Elliott) loss, layered on top of `loss`.
    #[serde(default)]
    pub burst: Option<BurstLoss>,
}

impl LinkFault {
    /// The classic two-knob impairment: uniform loss plus fixed delay.
    pub fn lossy(loss: f64, delay: Micros) -> Self {
        LinkFault { loss, delay, ..LinkFault::default() }
    }

    /// Pure emulated propagation delay, no loss.
    pub fn delayed(delay: Micros) -> Self {
        LinkFault { delay, ..LinkFault::default() }
    }
}

/// The fate [`FaultPlan::decide`] assigns one outgoing datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultVerdict {
    /// The datagram is dropped (loss, burst loss, or blackhole).
    pub drop: bool,
    /// Total injected delay (baseline + jitter + any reorder hold).
    pub delay: Micros,
    /// A second copy must be transmitted.
    pub duplicate: bool,
    /// One byte must be flipped; position/value derive from
    /// [`FaultVerdict::corrupt_seed`].
    pub corrupt: bool,
    /// Entropy for choosing the corrupted byte and its flip pattern.
    pub corrupt_seed: u64,
}

impl FaultVerdict {
    /// A clean pass-through with only the given delay.
    fn clean(delay: Micros) -> Self {
        FaultVerdict { drop: false, delay, duplicate: false, corrupt: false, corrupt_seed: 0 }
    }

    /// The datagram is lost.
    fn dropped() -> Self {
        FaultVerdict { drop: true, ..FaultVerdict::clean(Micros::ZERO) }
    }
}

/// SplitMix64 step: advances the state and returns a 64-bit draw.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)`.
pub(crate) fn unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

#[derive(Debug)]
struct LinkEntry {
    fault: LinkFault,
    /// Per-link RNG state, preserved across `set` calls so healing and
    /// re-injecting impairments stays on the same deterministic stream.
    rng: u64,
    /// Gilbert–Elliott state: currently in the bad (bursty) state.
    burst_bad: bool,
}

/// Runtime-adjustable impairments for a node's out-links.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    links: Mutex<HashMap<NodeId, LinkEntry>>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::with_seed(0)
    }
}

impl FaultPlan {
    /// A plan with no impairments and seed zero.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// A plan with no impairments whose per-link decision streams are
    /// determined by `seed`.
    pub fn with_seed(seed: u64) -> Self {
        FaultPlan { seed, links: Mutex::new(HashMap::new()) }
    }

    fn entry_rng_seed(&self, neighbor: NodeId) -> u64 {
        // Decorrelate per-link streams from the plan seed.
        let mut s = self.seed ^ (neighbor.index() as u64).wrapping_mul(0xA24B_AED4_963E_E407);
        splitmix64(&mut s);
        s
    }

    /// Sets the impairment toward `neighbor`, replacing any previous one
    /// (the link's RNG stream continues where it left off).
    pub fn set(&self, neighbor: NodeId, fault: LinkFault) {
        let mut links = self.links.lock();
        match links.get_mut(&neighbor) {
            Some(entry) => {
                entry.fault = fault;
                if fault.burst.is_none() {
                    entry.burst_bad = false;
                }
            }
            None => {
                let rng = self.entry_rng_seed(neighbor);
                links.insert(neighbor, LinkEntry { fault, rng, burst_bad: false });
            }
        }
    }

    /// Removes the impairment toward `neighbor`.
    pub fn clear(&self, neighbor: NodeId) {
        self.links.lock().remove(&neighbor);
    }

    /// Decides the fate of one datagram toward `neighbor`, advancing
    /// the link's deterministic RNG and burst state.
    pub fn decide(&self, neighbor: NodeId) -> FaultVerdict {
        let mut links = self.links.lock();
        let Some(entry) = links.get_mut(&neighbor) else {
            return FaultVerdict::clean(Micros::ZERO);
        };
        let fault = entry.fault;
        if fault.blackhole {
            return FaultVerdict::dropped();
        }
        // Work on local copies of the mutable state so the borrow of
        // `entry` stays simple; write back before returning.
        let mut rng = entry.rng;
        let mut burst_bad = entry.burst_bad;
        // Advance the Gilbert–Elliott chain first, then sample loss in
        // the (possibly new) state.
        let mut drop = false;
        if let Some(burst) = fault.burst {
            let flip = unit(&mut rng);
            if burst_bad {
                if flip < burst.p_exit {
                    burst_bad = false;
                }
            } else if flip < burst.p_enter {
                burst_bad = true;
            }
            let state_loss = if burst_bad { burst.bad_loss } else { burst.good_loss };
            if state_loss > 0.0 && unit(&mut rng) < state_loss {
                drop = true;
            }
        }
        if !drop && fault.loss > 0.0 && unit(&mut rng) < fault.loss.clamp(0.0, 1.0) {
            drop = true;
        }
        let verdict = if drop {
            FaultVerdict::dropped()
        } else {
            let mut delay = fault.delay;
            if fault.jitter > Micros::ZERO {
                let extra = splitmix64(&mut rng) % (fault.jitter.as_micros() + 1);
                delay = delay.saturating_add(Micros::from_micros(extra));
            }
            if fault.reorder > 0.0 && unit(&mut rng) < fault.reorder {
                delay = delay.saturating_add(REORDER_HOLD);
            }
            let duplicate = fault.duplicate > 0.0 && unit(&mut rng) < fault.duplicate;
            let mut corrupt = false;
            let mut corrupt_seed = 0;
            if fault.corrupt > 0.0 && unit(&mut rng) < fault.corrupt {
                corrupt = true;
                corrupt_seed = splitmix64(&mut rng);
            }
            FaultVerdict { drop: false, delay, duplicate, corrupt, corrupt_seed }
        };
        entry.rng = rng;
        entry.burst_bad = burst_bad;
        verdict
    }
}

/// Flips one byte of `datagram` according to `corrupt_seed` (never the
/// identity: the XOR pattern is forced nonzero).
pub fn corrupt_in_place(datagram: &mut [u8], corrupt_seed: u64) {
    if datagram.is_empty() {
        return;
    }
    let pos = (corrupt_seed as usize) % datagram.len();
    let xor = ((corrupt_seed >> 32) as u8) | 1;
    datagram[pos] ^= xor;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partial_json_fault_fills_defaults() {
        let fault: LinkFault = serde_json::from_str(r#"{"loss": 0.3, "corrupt": 0.1}"#).unwrap();
        assert_eq!(fault.loss, 0.3);
        assert_eq!(fault.corrupt, 0.1);
        assert_eq!(fault.delay, Micros::ZERO);
        assert!(!fault.blackhole);
        assert!(fault.burst.is_none());
    }

    #[test]
    fn set_impairs_one_neighbour_until_cleared() {
        let plan = FaultPlan::new();
        let (n, other) = (NodeId::new(4), NodeId::new(5));
        let delayed = FaultVerdict::clean(Micros::from_millis(9));
        plan.set(n, LinkFault::delayed(delayed.delay));
        assert_eq!(plan.decide(n), delayed);
        // Other neighbours are untouched.
        assert_eq!(plan.decide(other), FaultVerdict::clean(Micros::ZERO));
        plan.clear(n);
        assert_eq!(plan.decide(n), FaultVerdict::clean(Micros::ZERO));
    }

    #[test]
    fn unimpaired_link_passes_everything_clean() {
        let plan = FaultPlan::with_seed(1);
        let n = NodeId::new(0);
        for _ in 0..100 {
            let v = plan.decide(n);
            assert!(!v.drop && !v.duplicate && !v.corrupt);
            assert_eq!(v.delay, Micros::ZERO);
        }
    }

    #[test]
    fn blackhole_drops_everything() {
        let plan = FaultPlan::with_seed(1);
        let n = NodeId::new(0);
        plan.set(n, LinkFault { blackhole: true, ..LinkFault::default() });
        for _ in 0..50 {
            assert!(plan.decide(n).drop);
        }
    }

    #[test]
    fn loss_frequency_tracks_probability() {
        let plan = FaultPlan::with_seed(42);
        let n = NodeId::new(3);
        plan.set(n, LinkFault::lossy(0.3, Micros::ZERO));
        let drops = (0..20_000).filter(|_| plan.decide(n).drop).count();
        let freq = drops as f64 / 20_000.0;
        assert!((freq - 0.3).abs() < 0.02, "freq {freq}");
    }

    #[test]
    fn burst_loss_is_bursty_but_matches_stationary_rate() {
        let burst = BurstLoss { p_enter: 0.02, p_exit: 0.2, good_loss: 0.001, bad_loss: 0.9 };
        let plan = FaultPlan::with_seed(7);
        let n = NodeId::new(1);
        plan.set(n, LinkFault { burst: Some(burst), ..LinkFault::default() });
        let n_draws = 50_000;
        let outcomes: Vec<bool> = (0..n_draws).map(|_| plan.decide(n).drop).collect();
        let rate = outcomes.iter().filter(|&&d| d).count() as f64 / n_draws as f64;
        let expect = burst.stationary_loss();
        assert!((rate - expect).abs() < 0.05, "rate {rate} vs stationary {expect}");
        // Bursts: the probability a drop is followed by another drop
        // must far exceed the marginal rate.
        let mut after_drop = 0usize;
        let mut drop_pairs = 0usize;
        for w in outcomes.windows(2) {
            if w[0] {
                after_drop += 1;
                if w[1] {
                    drop_pairs += 1;
                }
            }
        }
        let cond = drop_pairs as f64 / after_drop.max(1) as f64;
        assert!(cond > 2.0 * rate, "conditional drop rate {cond} vs marginal {rate}");
    }

    #[test]
    fn jitter_bounds_delay_and_reorder_holds() {
        let plan = FaultPlan::with_seed(5);
        let n = NodeId::new(2);
        let base = Micros::from_millis(3);
        let jitter = Micros::from_millis(2);
        plan.set(n, LinkFault { delay: base, jitter, reorder: 0.5, ..LinkFault::default() });
        let mut held = 0;
        for _ in 0..1_000 {
            let v = plan.decide(n);
            assert!(v.delay >= base);
            if v.delay > base.saturating_add(jitter) {
                held += 1;
                assert!(v.delay <= base.saturating_add(jitter).saturating_add(REORDER_HOLD));
            }
        }
        assert!(held > 300, "reorder held only {held}/1000");
    }

    #[test]
    fn same_seed_same_stream_different_seed_diverges() {
        let replay = |seed: u64| -> Vec<FaultVerdict> {
            let plan = FaultPlan::with_seed(seed);
            let n = NodeId::new(6);
            plan.set(
                n,
                LinkFault {
                    loss: 0.2,
                    jitter: Micros::from_millis(1),
                    duplicate: 0.1,
                    corrupt: 0.1,
                    burst: Some(BurstLoss {
                        p_enter: 0.05,
                        p_exit: 0.3,
                        good_loss: 0.0,
                        bad_loss: 0.8,
                    }),
                    ..LinkFault::default()
                },
            );
            (0..2_000).map(|_| plan.decide(n)).collect()
        };
        assert_eq!(replay(11), replay(11), "same seed must replay identically");
        assert_ne!(replay(11), replay(12), "different seeds must diverge");
    }

    #[test]
    fn reinjecting_preserves_the_stream() {
        // set → clear-to-clean → set again must continue the same RNG
        // stream as set-once, because chaos schedules heal and re-inject.
        let run = |interrupt: bool| -> Vec<FaultVerdict> {
            let plan = FaultPlan::with_seed(99);
            let n = NodeId::new(4);
            let f = LinkFault { loss: 0.5, ..LinkFault::default() };
            plan.set(n, f);
            let mut out: Vec<FaultVerdict> = (0..100).map(|_| plan.decide(n)).collect();
            if interrupt {
                plan.set(n, LinkFault::default());
                plan.set(n, f);
            }
            out.extend((0..100).map(|_| plan.decide(n)));
            out
        };
        let (a, b) = (run(false), run(true));
        // The interrupted run's clean interlude draws nothing from the
        // stream, so both runs see identical drop decisions.
        assert_eq!(a.len(), b.len());
        assert_eq!(
            a.iter().map(|v| v.drop).collect::<Vec<_>>(),
            b.iter().map(|v| v.drop).collect::<Vec<_>>()
        );
    }

    #[test]
    fn corruption_always_changes_a_byte() {
        for seed in 0..500u64 {
            let mut data = vec![0xAB; 32];
            corrupt_in_place(&mut data, seed);
            assert_eq!(data.iter().filter(|&&b| b != 0xAB).count(), 1);
        }
        let mut empty: Vec<u8> = Vec::new();
        corrupt_in_place(&mut empty, 1); // must not panic
    }
}
