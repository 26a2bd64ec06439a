//! Link monitoring: one loss estimator per in-link.
//!
//! Each node probes its out-links with periodic hellos; neighbours echo
//! them back. Loss on the link *from* a neighbour is estimated from
//! every sequenced arrival that link carries — the hello sequence, and
//! the per-link sequence of the data packets the gap tracker
//! ([`crate::recovery::GapTracker`]) already reads for NACKs — and RTT
//! from the echo round trip. These estimates feed the node's
//! link-state reports — the information dynamic schemes and the
//! targeted-redundancy detector act on.
//!
//! The estimate spans the shortest run of trailing hello ticks that
//! holds [`SAMPLE_TARGET`] samples, between [`SPAN_FLOOR_TICKS`] and
//! the configured window: a link carrying a thousand packets a second
//! is judged on its last fifth of a second, an idle one on its last
//! window of hellos and nothing else. What is advertised is the lowest
//! of that estimate, one over twice the floor and the samples, and one
//! over half of each: a problem has to be more than one burst can fake,
//! and on a busy link it is over as soon as the last two ticks say so
//! (see [`LinkMonitor::estimate`]).
//!
//! Ticks close on the hello tick, but evidence need not wait for one:
//! the estimate reads the closed ticks plus whatever the open tick has
//! gathered so far, so the node judges a busy link
//! ([`LinkMonitor::is_busy`]) on the frame whose gap pushed it over the
//! threshold, and every link on the hello tick, with the one estimate.
//!
//! Estimates are *staleness-aware*: a link that stops delivering hellos
//! entirely would otherwise freeze at its last (possibly clean)
//! estimate, so silence is charged as loss based on how many hellos
//! should have arrived since the last one did. Absent *data* is no
//! evidence either way: a tick in which a link carried nothing only
//! widens the span.

use dg_topology::{Micros, NodeId};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

/// The fewest trailing hello ticks an estimate spans, however many
/// samples they hold. A loss burst is over within a tick (the
/// Gilbert–Elliott background of the benchmarks loses two or three
/// packets of five); four ticks of a busy link dilute it well below a
/// 5 % threshold, while one tick of a real 50 % loss still reads above
/// 10 %. A clear does not wait for it on a busy link: a span of half
/// the floor and half the [`SAMPLE_TARGET`] is the estimate's third —
/// the last two ticks at a thousand packets a second — and the estimate
/// of a healed link falls to zero once those ticks are clean, two to
/// three ticks after the loss ends. A quieter link's short span reaches
/// further back, and a link carrying hellos only fills none of the
/// three before the window's end.
pub const SPAN_FLOOR_TICKS: u64 = 4;

/// The samples an estimate wants before it stops widening its span. At
/// a 5 % threshold 200 samples put ten losses between clean and
/// problem — four average bursts' worth — and an estimate on 200
/// samples of an independent loss is within ±3 points of the rate
/// nineteen times in twenty. A link too quiet to supply them inside
/// the window is judged on the whole window, as an idle link always
/// was. Half of them — a hundred samples, where a 2.5 % clear reads
/// two or three losses — is what the short span wants: the fewest that
/// can stand for a link's present on their own.
pub const SAMPLE_TARGET: u64 = 200;

/// Hello ticks per loss-estimation window as the node runs it (the
/// span's cap): one second of evidence at the default 50 ms hellos.
pub const WINDOW_TICKS: usize = 20;

/// Hello silence longer than this many hello intervals declares the
/// incoming link down (flooded via link state).
pub const LINK_DOWN_INTERVALS: u64 = 5;

/// Half-life of the route-flap damper's instability penalty as the
/// node runs it.
pub const FLAP_PENALTY_HALF_LIFE: Micros = Micros::from_secs(2);

/// Penalty above which the node considers a link flapping: its
/// transitions stay suppressed until the penalty decays. Three admitted
/// transitions inside a half-life reach it.
pub const FLAP_SUPPRESS_THRESHOLD: f64 = 3.0;

/// Per-neighbour monitoring state.
#[derive(Debug, Default)]
struct NeighborStats {
    /// Hello seqs received from this neighbour (pruned to the window),
    /// each with the one-way delay it measured.
    received: BTreeMap<u64, Micros>,
    /// Highest hello seq seen.
    highest: Option<u64>,
    /// Lowest hello seq seen in the neighbour's current life (while
    /// `highest` is set): hellos numbered below it were sent before this
    /// estimator knew the link, and are not evidence of loss.
    first: u64,
    /// When the most recent hello arrived.
    last_heard: Option<Micros>,
    /// Smoothed round-trip time to this neighbour.
    rtt: Option<Micros>,
    /// Data evidence per closed hello tick, newest last, at most a
    /// window of them: `(expected, received)` link sequences.
    data: VecDeque<(u64, u64)>,
}

impl NeighborStats {
    /// `(expected, received)` data sequences over the last `ticks`
    /// closed ticks and the open tick's `open`.
    fn data_over(&self, ticks: u64, open: (u64, u64)) -> (u64, u64) {
        self.data
            .iter()
            .rev()
            .take(ticks as usize)
            .fold(open, |(e, r), &(expected, received)| (e + expected, r + received))
    }
}

/// Tracks hello reception and RTT per neighbour.
#[derive(Debug)]
pub struct LinkMonitor {
    window: u64,
    hello_interval: Micros,
    neighbors: HashMap<NodeId, NeighborStats>,
    /// Neighbours whose incoming link is currently flagged lossy.
    triggered: HashSet<NodeId>,
    /// Neighbours whose incoming link is currently declared down.
    down: HashSet<NodeId>,
}

impl LinkMonitor {
    /// Creates a monitor estimating loss over at most the last `window`
    /// hello ticks (the node passes [`WINDOW_TICKS`]), charging silence
    /// as loss at one hello per `hello_interval` and declaring a link
    /// down after [`LINK_DOWN_INTERVALS`] silent intervals.
    ///
    /// # Panics
    ///
    /// Panics if `window` or `hello_interval` is zero.
    pub fn new(window: usize, hello_interval: Micros) -> Self {
        assert!(window > 0, "monitor window must be positive");
        assert!(hello_interval > Micros::ZERO, "hello interval must be positive");
        LinkMonitor {
            window: window as u64,
            hello_interval,
            neighbors: HashMap::new(),
            triggered: HashSet::new(),
            down: HashSet::new(),
        }
    }

    /// Whether the link from `neighbor` has been silent past the
    /// down-declaration timeout. A neighbour never heard from is not
    /// "down" — startup silence is not evidence of failure (the loss
    /// estimate already reads 1.0 for it).
    pub fn is_down(&self, neighbor: NodeId, now: Micros) -> bool {
        let Some(last_heard) = self.neighbors.get(&neighbor).and_then(|s| s.last_heard) else {
            return false;
        };
        now.saturating_sub(last_heard) > self.hello_interval.saturating_mul(LINK_DOWN_INTERVALS)
    }

    /// Re-evaluates the down declaration for `neighbor`. Returns
    /// `Some(true)` when the link is newly declared down, `Some(false)`
    /// when a down link has come back (hellos resumed), and `None` when
    /// nothing changed.
    pub fn down_transition(&mut self, neighbor: NodeId, now: Micros) -> Option<bool> {
        let down_now = self.is_down(neighbor, now);
        if down_now && self.down.insert(neighbor) {
            Some(true)
        } else if !down_now && self.down.remove(&neighbor) {
            Some(false)
        } else {
            None
        }
    }

    /// Whether any hello has ever arrived from `neighbor` (used to keep
    /// the problem detector quiet before a link's first evidence).
    pub fn heard_from(&self, neighbor: NodeId) -> bool {
        self.neighbors.get(&neighbor).is_some_and(|s| s.last_heard.is_some())
    }

    /// Whether the problem detector currently flags the link from
    /// `neighbor` as lossy.
    pub fn is_triggered(&self, neighbor: NodeId) -> bool {
        self.triggered.contains(&neighbor)
    }

    /// Feeds a fresh loss estimate for the link from `neighbor` into the
    /// problem detector. Returns `Some(true)` on a new trigger
    /// (`loss >= threshold`), `Some(false)` when a triggered link clears
    /// (`loss <= threshold / 2` — hysteresis so a link hovering at the
    /// threshold does not flap), and `None` when nothing changed.
    pub fn detect(&mut self, neighbor: NodeId, loss: f64, threshold: f64) -> Option<bool> {
        if self.triggered.contains(&neighbor) {
            if loss <= threshold / 2.0 {
                self.triggered.remove(&neighbor);
                return Some(false);
            }
        } else if loss >= threshold {
            self.triggered.insert(neighbor);
            return Some(true);
        }
        None
    }

    /// Records a hello received *from* `neighbor` — i.e. evidence about
    /// the link `neighbor -> self` — along with its measured one-way
    /// delay and the local arrival time.
    ///
    /// Hellos are expected from the first one heard, not from zero: a
    /// neighbour that was up before this node was (or before this node
    /// restarted) has not lost what it sent into the void.
    ///
    /// A sequence more than a window below the highest seen cannot be a
    /// reordered hello: the neighbour restarted and counts from zero
    /// again, so the estimator starts over with it instead of pruning
    /// the new life's hellos until they outgrow the old one's.
    pub fn record_hello(&mut self, neighbor: NodeId, seq: u64, one_way: Micros, now: Micros) {
        let stats = self.neighbors.entry(neighbor).or_default();
        if stats.highest.is_some_and(|h| seq.saturating_add(self.window) < h) {
            stats.received.clear();
            stats.highest = None;
        }
        stats.first = if stats.highest.is_some() { stats.first.min(seq) } else { seq };
        stats.received.entry(seq).or_insert(one_way);
        let highest = stats.highest.map_or(seq, |h| h.max(seq));
        stats.highest = Some(highest);
        stats.last_heard = Some(stats.last_heard.map_or(now, |t| t.max(now)));
        stats.received.retain(|&s, _| s + self.window > highest);
    }

    /// Closes one hello tick of data evidence about the link from
    /// `neighbor`: its sequence stream advanced by `expected`, of which
    /// `received` arrived as first transmissions (what
    /// [`crate::recovery::GapTracker::take_evidence`] hands over) by
    /// `now`. An empty tick still counts as a tick. A link that
    /// delivered data is alive whatever became of its hellos: the
    /// silence that charges overdue hellos and declares a link down is
    /// measured from the last arrival of either kind.
    pub fn record_data_tick(
        &mut self,
        neighbor: NodeId,
        expected: u64,
        received: u64,
        now: Micros,
    ) {
        let stats = self.neighbors.entry(neighbor).or_default();
        if stats.data.len() as u64 == self.window {
            stats.data.pop_front();
        }
        stats.data.push_back((expected, received));
        if received > 0 {
            // Only a hello starts the clock: `heard_from` keeps its meaning.
            stats.last_heard = stats.last_heard.map(|t| t.max(now));
        }
    }

    /// One-way delay from `neighbor`: the least any hello of the window
    /// measured, once the neighbour's current life has sent a window of
    /// them. A delay moves it only once it has held for a window of
    /// hellos, so a burst of host load (one-way delays are read off
    /// hello timestamps, and a localhost cluster's nodes share a clock
    /// and its scheduler) does not, nor does the load of a cluster's
    /// start, while a link that turned slow does within a window.
    pub fn one_way_from(&self, neighbor: NodeId) -> Option<Micros> {
        let stats = self.neighbors.get(&neighbor)?;
        let sent = stats.highest? + 1 - stats.first;
        (sent >= self.window).then(|| stats.received.values().min().copied()).flatten()
    }

    /// Records a measured round trip to `neighbor` (EWMA-smoothed).
    pub fn record_rtt(&mut self, neighbor: NodeId, rtt: Micros) {
        let stats = self.neighbors.entry(neighbor).or_default();
        stats.rtt = Some(match stats.rtt {
            // Standard 7/8 smoothing.
            Some(old) => Micros::from_micros((old.as_micros() * 7 + rtt.as_micros()) / 8),
            None => rtt,
        });
    }

    /// How many trailing hello ticks an estimate for `stats` spans: the
    /// fewest, from `floor` up, that hold `target` samples with the open
    /// tick's `open`, or the whole window when none does. `sent` is how
    /// many hellos the neighbour has sent since the first one heard.
    fn span(
        &self,
        stats: &NeighborStats,
        sent: u64,
        (floor, target): (u64, u64),
        open: (u64, u64),
    ) -> u64 {
        let enough = |&ticks: &u64| sent.min(ticks) + stats.data_over(ticks, open).0 >= target;
        (floor.min(self.window)..self.window).find(enough).unwrap_or(self.window)
    }

    /// Whether the link from `neighbor` is busy enough to be judged as
    /// its evidence lands rather than on the hello tick: its data
    /// alone, the closed ticks of the window and the open tick's
    /// `open`, supplies the wide span's twice [`SAMPLE_TARGET`]. Then
    /// a burst has four hundred samples to dilute it, not the handful a
    /// link starting to carry a flow has, and the rest of the tick
    /// cannot halve what a gap read.
    pub fn is_busy(&self, neighbor: NodeId, open: (u64, u64)) -> bool {
        self.neighbors
            .get(&neighbor)
            .is_some_and(|s| s.data_over(self.window, open).0 >= 2 * SAMPLE_TARGET)
    }

    /// [`LinkMonitor::estimate`] as of a tick just closed: the closed
    /// ticks alone.
    pub fn loss_from(&self, neighbor: NodeId, now: Micros) -> f64 {
        self.estimate(neighbor, (0, 0), now)
    }

    /// Estimated loss rate on the link *from* `neighbor` to this node
    /// as of `now`, with `open` the `(expected, received)` data
    /// sequences of the tick still open (what
    /// [`crate::recovery::GapTracker::evidence`] reads): the hellos and
    /// data sequences missing among those expected, over three spans of
    /// hello ticks, each the closed ticks plus the open one, and the
    /// lowest reading wins. The estimate's span; a short one, of half
    /// the floor and half the samples; and a wide one, of twice both
    /// (the window permitting each). A problem has to be substantial,
    /// so the ten losses the worst background burst in fifty packs into
    /// one tick do not read as a 5 % link; and it has to be current, so
    /// a healed busy link reads clean once its last two ticks do. The
    /// short span reaches back as far as it must for its samples, so a
    /// link that falls quiet after a clear is judged on the clean
    /// samples that cleared it, not on the older, lossy ones; an idle
    /// link, or one carrying hellos only, fills no span before the
    /// window's end and is judged on the window, as before.
    /// Unknown neighbours report full loss (a link that has never
    /// delivered a hello is as good as down), hellos are expected from
    /// the first one heard in the neighbour's current life, and hellos
    /// overdue since the link last delivered anything count as lost.
    pub fn estimate(&self, neighbor: NodeId, open: (u64, u64), now: Micros) -> f64 {
        let Some(stats) = self.neighbors.get(&neighbor) else {
            return 1.0;
        };
        let (Some(highest), Some(last_heard)) = (stats.highest, stats.last_heard) else {
            return 1.0;
        };
        let sent = highest + 1 - stats.first;
        // Hellos that should have arrived during the silence. One
        // interval of quiet is normal scheduling jitter, so it is free.
        let silence = now.saturating_sub(last_heard).as_micros();
        let overdue = (silence / self.hello_interval.as_micros()).saturating_sub(1);
        let over = |ticks: u64| {
            let hellos = stats.received.keys().filter(|&&s| s + ticks > highest).count() as u64;
            let (data_expected, data) = stats.data_over(ticks, open);
            let expected = sent.min(ticks) + overdue.min(ticks) + data_expected;
            (1.0 - (hellos + data) as f64 / expected.max(1) as f64).clamp(0.0, 1.0)
        };
        [
            (SPAN_FLOOR_TICKS / 2, SAMPLE_TARGET / 2),
            (SPAN_FLOOR_TICKS, SAMPLE_TARGET),
            (2 * SPAN_FLOOR_TICKS, 2 * SAMPLE_TARGET),
        ]
        .into_iter()
        .map(|shape| over(self.span(stats, sent, shape, open)))
        .fold(1.0, f64::min)
    }

    /// Smoothed RTT to `neighbor`, if any echo has returned.
    pub fn rtt_to(&self, neighbor: NodeId) -> Option<Micros> {
        self.neighbors.get(&neighbor).and_then(|s| s.rtt)
    }
}

/// Per-neighbour route-flap damping state.
#[derive(Debug, Default)]
struct FlapState {
    /// Accumulated instability penalty (decays exponentially).
    penalty: f64,
    /// When the penalty was last decayed.
    touched: Micros,
    /// When a transition for this neighbour was last admitted.
    last_admitted: Option<Micros>,
}

/// Route-flap damper: rate-limits how often a link's advertised state
/// (detector trigger/clear, link down/up) may change.
///
/// Two mechanisms, both per neighbour, in the style of BGP route-flap
/// damping:
///
/// - **Hold-down** — after an admitted transition, further transitions
///   are suppressed until `hold_down` elapses, so one detector blip
///   costs at most one dissemination-graph recomputation per window.
/// - **Penalty** — every *admitted* transition adds one unit of
///   penalty, which decays exponentially with `half_life`. When the
///   penalty exceeds `suppress_threshold`, the link is considered
///   flapping and transitions stay suppressed (even outside the
///   hold-down) until the penalty decays back under the threshold.
///
/// Suppression delays advertisement but never loses it: the caller
/// re-attempts on every origination while its advertised state differs
/// from the measured one, so the last stable state is always admitted
/// eventually.
#[derive(Debug)]
pub struct FlapDamper {
    hold_down: Micros,
    half_life: Micros,
    suppress_threshold: f64,
    states: HashMap<NodeId, FlapState>,
}

impl FlapDamper {
    /// Creates a damper.
    ///
    /// # Panics
    ///
    /// Panics if `half_life` is zero or `suppress_threshold` is not
    /// greater than one (the first transition must always be
    /// admissible).
    pub fn new(hold_down: Micros, half_life: Micros, suppress_threshold: f64) -> Self {
        assert!(half_life > Micros::ZERO, "penalty half-life must be positive");
        assert!(suppress_threshold > 1.0, "suppress threshold must exceed one");
        FlapDamper { hold_down, half_life, suppress_threshold, states: HashMap::new() }
    }

    fn decay(&self, state: &mut FlapState, now: Micros) {
        let elapsed = now.saturating_sub(state.touched).as_micros() as f64;
        state.penalty *= 0.5f64.powf(elapsed / self.half_life.as_micros() as f64);
        state.touched = now;
    }

    /// Asks to admit a state transition for the link from `neighbor` at
    /// time `now`. Returns `true` when the transition may be advertised
    /// (charging one penalty unit and starting a hold-down window), or
    /// `false` when it must be suppressed for now.
    pub fn admit(&mut self, neighbor: NodeId, now: Micros) -> bool {
        let mut state = self.states.remove(&neighbor).unwrap_or_default();
        self.decay(&mut state, now);
        let held = state.last_admitted.is_some_and(|t| now.saturating_sub(t) < self.hold_down);
        let admitted = !held && state.penalty <= self.suppress_threshold;
        if admitted {
            state.penalty += 1.0;
            state.last_admitted = Some(now);
        }
        self.states.insert(neighbor, state);
        admitted
    }

    /// Records a transition as admitted regardless of hold-down or
    /// penalty — the fail-fast path for down declarations, which must
    /// never wait on damping. The transition still charges a penalty
    /// unit and starts a hold-down window, so the *recovery* (link-up)
    /// side of a flapping link stays damped.
    pub fn record_forced(&mut self, neighbor: NodeId, now: Micros) {
        let mut state = self.states.remove(&neighbor).unwrap_or_default();
        self.decay(&mut state, now);
        state.penalty += 1.0;
        state.last_admitted = Some(now);
        self.states.insert(neighbor, state);
    }

    /// The neighbour's current penalty (decayed to `now`); zero for a
    /// neighbour with no damping history.
    pub fn penalty(&self, neighbor: NodeId, now: Micros) -> f64 {
        self.states.get(&neighbor).map_or(0.0, |s| {
            let elapsed = now.saturating_sub(s.touched).as_micros() as f64;
            s.penalty * 0.5f64.powf(elapsed / self.half_life.as_micros() as f64)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TICK: Micros = Micros::from_millis(50);

    fn monitor() -> LinkMonitor {
        LinkMonitor::new(10, TICK)
    }

    fn at(i: u64) -> Micros {
        Micros::from_micros(i * TICK.as_micros())
    }

    #[test]
    fn unknown_neighbor_is_fully_lossy() {
        let m = monitor();
        assert_eq!(m.loss_from(NodeId::new(0), at(100)), 1.0);
        assert_eq!(m.rtt_to(NodeId::new(0)), None);
    }

    #[test]
    fn perfect_reception_is_zero_loss() {
        let mut m = monitor();
        let n = NodeId::new(1);
        for seq in 0..30 {
            m.record_hello(n, seq, Micros::from_millis(10), at(seq));
        }
        assert_eq!(m.loss_from(n, at(30)), 0.0);
        assert_eq!(m.one_way_from(n), Some(Micros::from_millis(10)));
    }

    #[test]
    fn gaps_raise_the_estimate() {
        let mut m = monitor();
        let n = NodeId::new(1);
        // Seqs 20..30 with every other one missing.
        for seq in (20..30).step_by(2) {
            m.record_hello(n, seq, Micros::from_millis(5), at(seq));
        }
        let loss = m.loss_from(n, at(29));
        assert!(loss > 0.4 && loss < 0.6, "loss {loss}");
    }

    #[test]
    fn window_forgets_old_losses() {
        let mut m = monitor();
        let n = NodeId::new(1);
        // A terrible early patch...
        m.record_hello(n, 0, Micros::ZERO, at(0));
        m.record_hello(n, 9, Micros::ZERO, at(9));
        assert!(m.loss_from(n, at(9)) > 0.5);
        // ...followed by a clean window.
        for seq in 10..21 {
            m.record_hello(n, seq, Micros::ZERO, at(seq));
        }
        assert_eq!(m.loss_from(n, at(21)), 0.0);
    }

    #[test]
    fn silence_decays_toward_full_loss() {
        let mut m = monitor();
        let n = NodeId::new(3);
        for seq in 0..20 {
            m.record_hello(n, seq, Micros::ZERO, at(seq));
        }
        assert_eq!(m.loss_from(n, at(20)), 0.0);
        // The neighbour dies: after a few missed intervals the estimate
        // climbs, and eventually saturates near 1.
        let after_5 = m.loss_from(n, at(25));
        assert!(after_5 > 0.2, "after 5 quiet intervals: {after_5}");
        let after_20 = m.loss_from(n, at(40));
        assert!(after_20 >= 0.5, "after 20 quiet intervals: {after_20}");
        // A single quiet interval is free (scheduling jitter).
        let mut m2 = monitor();
        for seq in 0..20 {
            m2.record_hello(n, seq, Micros::ZERO, at(seq));
        }
        assert_eq!(m2.loss_from(n, at(20) + Micros::from_millis(40)), 0.0);
    }

    #[test]
    fn a_delay_moves_the_one_way_estimate_once_it_fills_the_window() {
        let mut m = monitor();
        let n = NodeId::new(2);
        let fast = Micros::from_millis(10);
        let slow = Micros::from_millis(40);
        // A window of hellos first: the delays of a start are no
        // estimate.
        for seq in 0..10 {
            assert_eq!(m.one_way_from(n), None, "hello {seq}");
            m.record_hello(n, seq, fast, at(seq));
        }
        assert_eq!(m.one_way_from(n), Some(fast));
        // A spike of nine slow hellos is not a slower link.
        for seq in 10..19 {
            m.record_hello(n, seq, slow, at(seq));
            assert_eq!(m.one_way_from(n), Some(fast), "hello {seq}");
        }
        // The tenth fills the window of ten.
        m.record_hello(n, 19, slow, at(19));
        assert_eq!(m.one_way_from(n), Some(slow));
        // One fast hello is a link that is fast again.
        m.record_hello(n, 20, fast, at(20));
        assert_eq!(m.one_way_from(n), Some(fast));
    }

    #[test]
    fn rtt_smoothing_converges() {
        let mut m = monitor();
        let n = NodeId::new(2);
        m.record_rtt(n, Micros::from_millis(10));
        assert_eq!(m.rtt_to(n), Some(Micros::from_millis(10)));
        for _ in 0..50 {
            m.record_rtt(n, Micros::from_millis(20));
        }
        let rtt = m.rtt_to(n).unwrap();
        assert!(rtt > Micros::from_millis(19), "rtt {rtt}");
    }

    #[test]
    fn detector_triggers_and_clears_with_hysteresis() {
        let mut m = monitor();
        let n = NodeId::new(4);
        assert!(!m.heard_from(n));
        m.record_hello(n, 0, Micros::ZERO, at(0));
        assert!(m.heard_from(n));
        // Below threshold: quiet.
        assert_eq!(m.detect(n, 0.01, 0.05), None);
        // Crossing the threshold triggers exactly once.
        assert_eq!(m.detect(n, 0.10, 0.05), Some(true));
        assert_eq!(m.detect(n, 0.20, 0.05), None);
        // Hovering between half-threshold and threshold does not clear.
        assert_eq!(m.detect(n, 0.04, 0.05), None);
        // Dropping to half the threshold clears exactly once.
        assert_eq!(m.detect(n, 0.02, 0.05), Some(false));
        assert_eq!(m.detect(n, 0.02, 0.05), None);
    }

    #[test]
    fn silence_declares_down_and_hellos_bring_it_back() {
        let mut m = monitor();
        let n = NodeId::new(7);
        // Never heard: not down, no transition.
        assert!(!m.is_down(n, at(100)));
        assert_eq!(m.down_transition(n, at(100)), None);
        for seq in 0..5 {
            m.record_hello(n, seq, Micros::ZERO, at(seq));
        }
        // Quiet for fewer than LINK_DOWN_INTERVALS intervals: still up.
        assert!(!m.is_down(n, at(8)));
        assert_eq!(m.down_transition(n, at(8)), None);
        // Past the timeout (five intervals after last hello
        // at tick 4): declared down exactly once.
        assert!(m.is_down(n, at(11)));
        assert_eq!(m.down_transition(n, at(11)), Some(true));
        assert_eq!(m.down_transition(n, at(12)), None);
        // Hellos resume: cleared exactly once.
        m.record_hello(n, 5, Micros::ZERO, at(13));
        assert!(!m.is_down(n, at(13)));
        assert_eq!(m.down_transition(n, at(13)), Some(false));
        assert_eq!(m.down_transition(n, at(13)), None);
    }

    /// The window the node runs.
    fn busy_monitor() -> LinkMonitor {
        LinkMonitor::new(WINDOW_TICKS, TICK)
    }

    /// One hello tick on the link from `n`: hello `i` arrives, and the
    /// data stream advanced by `expected` of which `received` arrived.
    fn tick(m: &mut LinkMonitor, n: NodeId, i: u64, expected: u64, received: u64) {
        m.record_hello(n, i, Micros::ZERO, at(i));
        m.record_data_tick(n, expected, received, at(i));
    }

    /// 1000 pps across 50 ms ticks.
    const PER_TICK: u64 = 50;

    #[test]
    fn bursts_on_a_busy_link_do_not_trigger() {
        let mut m = busy_monitor();
        let n = NodeId::new(1);
        // Once the link has a history, a five-packet burst at 50 % loss
        // (three lost) every fourth tick: five times the rate of the
        // benchmarks' background.
        for i in 0..200 {
            let lost = if i >= 8 && i % 4 == 0 { 3 } else { 0 };
            tick(&mut m, n, i, PER_TICK, PER_TICK - lost);
            let loss = m.loss_from(n, at(i));
            assert!(loss < 0.025, "tick {i}: a burst reads as {loss}");
            assert_eq!(m.detect(n, loss, 0.05), None);
        }
    }

    #[test]
    fn sustained_loss_on_a_busy_link_triggers_within_one_tick() {
        let mut m = busy_monitor();
        let n = NodeId::new(1);
        for i in 0..40 {
            tick(&mut m, n, i, PER_TICK, PER_TICK);
        }
        assert_eq!(m.loss_from(n, at(39)), 0.0);
        // One tick of 50 % loss: 25 of 50 missing.
        tick(&mut m, n, 40, PER_TICK, PER_TICK / 2);
        let loss = m.loss_from(n, at(40));
        assert_eq!(m.detect(n, loss, 0.05), Some(true), "one lossy tick reads as {loss}");
    }

    #[test]
    fn busy_link_clears_within_five_clean_ticks_and_never_during_the_loss() {
        let mut m = busy_monitor();
        let n = NodeId::new(1);
        for i in 0..20 {
            tick(&mut m, n, i, PER_TICK, PER_TICK);
        }
        for i in 20..40 {
            tick(&mut m, n, i, PER_TICK, PER_TICK / 2);
            let loss = m.loss_from(n, at(i));
            assert_ne!(m.detect(n, loss, 0.05), Some(false), "cleared during the loss");
            assert!(m.is_triggered(n));
        }
        assert!((m.loss_from(n, at(39)) - 0.5).abs() < 0.03);
        let cleared_after = (40..60)
            .position(|i| {
                tick(&mut m, n, i, PER_TICK, PER_TICK);
                m.detect(n, m.loss_from(n, at(i)), 0.05) == Some(false)
            })
            .expect("a healed link clears");
        assert!(cleared_after < 5, "cleared only after {} clean ticks", cleared_after + 1);
    }

    #[test]
    fn a_busy_link_clears_once_its_last_two_ticks_are_clean() {
        let mut m = busy_monitor();
        let n = NodeId::new(1);
        for i in 0..20 {
            tick(&mut m, n, i, PER_TICK, PER_TICK);
        }
        for i in 20..40 {
            tick(&mut m, n, i, PER_TICK, PER_TICK / 2);
        }
        assert_eq!(m.detect(n, m.loss_from(n, at(39)), 0.05), Some(true));
        // One clean tick: the last two still hold half of a lossy one.
        tick(&mut m, n, 40, PER_TICK, PER_TICK);
        assert_eq!(m.detect(n, m.loss_from(n, at(40)), 0.05), None);
        // Two: they are clean, whatever the four- and eight-tick spans
        // still hold.
        tick(&mut m, n, 41, PER_TICK, PER_TICK);
        let loss = m.loss_from(n, at(41));
        assert_eq!(loss, 0.0);
        assert_eq!(m.detect(n, loss, 0.05), Some(false));
    }

    #[test]
    fn a_quieter_link_releases_on_as_many_ticks_as_hold_half_the_samples() {
        let mut m = busy_monitor();
        let n = NodeId::new(1);
        // 40 samples a tick: the short span needs three ticks for its
        // hundred, so a healed link clears on its third clean tick.
        for i in 0..20 {
            tick(&mut m, n, i, 40, 20);
        }
        let cleared_after = (20..40)
            .position(|i| {
                tick(&mut m, n, i, 40, 40);
                m.loss_from(n, at(i)) <= 0.025
            })
            .expect("a healed link clears");
        assert_eq!(cleared_after + 1, 3, "cleared after {} clean ticks", cleared_after + 1);
    }

    #[test]
    fn a_cleared_link_stays_clear_when_its_ticks_thin_or_it_falls_idle() {
        let n = NodeId::new(1);
        for after in [48, 0] {
            let mut m = busy_monitor();
            for i in 0..20 {
                tick(&mut m, n, i, PER_TICK, PER_TICK);
            }
            for i in 20..40 {
                tick(&mut m, n, i, PER_TICK, PER_TICK / 2);
            }
            assert_eq!(m.detect(n, m.loss_from(n, at(39)), 0.05), Some(true));
            for i in 40..42 {
                tick(&mut m, n, i, PER_TICK, PER_TICK);
            }
            assert_eq!(m.detect(n, m.loss_from(n, at(41)), 0.05), Some(false));
            // The flow thins below a hundred samples in two ticks (tick
            // jitter), or moves off the link: the short span reaches
            // back to the clean ticks that cleared it, never past them
            // to the loss the longer spans still hold.
            for i in 42..70 {
                tick(&mut m, n, i, after, after);
                let loss = m.loss_from(n, at(i));
                assert!(loss <= 0.025, "{after} a tick, tick {i}: a cleared link reads {loss}");
                assert_eq!(m.detect(n, loss, 0.05), None);
            }
        }
    }

    #[test]
    fn the_open_tick_is_judged_before_it_closes() {
        let mut m = busy_monitor();
        let n = NodeId::new(1);
        for i in 0..40 {
            tick(&mut m, n, i, PER_TICK, PER_TICK);
        }
        // A tick of 50 % loss, not yet closed: the closed ticks say
        // nothing, the open one says enough for all three spans.
        let open = (PER_TICK, PER_TICK / 2);
        assert_eq!(m.loss_from(n, at(40)), 0.0);
        let loss = m.estimate(n, open, at(40));
        assert!(loss >= 0.05, "the open tick reads as {loss}");
        // Closing it loses none of what was read: the tick's estimate
        // drops a clean tick from each span, not a lossy one.
        m.record_hello(n, 40, Micros::ZERO, at(40));
        m.record_data_tick(n, open.0, open.1, at(40));
        assert!(m.loss_from(n, at(40)) >= loss);
    }

    #[test]
    fn a_link_is_busy_once_its_data_fills_the_wide_span() {
        let mut m = busy_monitor();
        let n = NodeId::new(1);
        assert!(!m.is_busy(n, (400, 400)), "an unknown link");
        for i in 0..7 {
            tick(&mut m, n, i, PER_TICK, PER_TICK);
        }
        // 350 closed, and the open tick brings the rest.
        assert!(!m.is_busy(n, (0, 0)));
        assert!(m.is_busy(n, (PER_TICK, 0)));
        // Hellos alone never make a link busy.
        let idle = NodeId::new(2);
        for i in 0..40 {
            tick(&mut m, idle, i, 0, 0);
        }
        assert!(!m.is_busy(idle, (0, 0)));
    }

    #[test]
    fn drained_link_neither_triggers_nor_clears() {
        let n = NodeId::new(1);
        // A clean busy link stops carrying data: silence of data is not
        // loss, and the estimate stays what the hellos say.
        let mut m = busy_monitor();
        for i in 0..60 {
            let data = if i < 30 { PER_TICK } else { 0 };
            tick(&mut m, n, i, data, data);
            assert_eq!(m.loss_from(n, at(i)), 0.0);
        }
        // A lossy busy link stops carrying data while its hellos keep
        // arriving: the clean hellos are a handful of samples against
        // the hundreds that said 50 %, and the empty ticks are none.
        // The estimate holds until the window has forgotten the data —
        // where a healed link that still carried data cleared in four.
        let mut m = busy_monitor();
        for i in 0..30 {
            tick(&mut m, n, i, PER_TICK, PER_TICK / 2);
        }
        assert_eq!(m.detect(n, m.loss_from(n, at(29)), 0.05), Some(true));
        for i in 30..45 {
            tick(&mut m, n, i, 0, 0);
            let loss = m.loss_from(n, at(i));
            assert!(loss > 0.4, "tick {i}: empty ticks moved the estimate to {loss}");
            assert_eq!(m.detect(n, loss, 0.05), None);
        }
        // From then on it is an idle link, judged on its hellos alone.
        for i in 45..50 {
            tick(&mut m, n, i, 0, 0);
        }
        assert_eq!(m.loss_from(n, at(49)), 0.0);
    }

    #[test]
    fn empty_data_ticks_leave_an_idle_link_on_its_hello_window() {
        let (mut idle, mut ticked) = (monitor(), monitor());
        let n = NodeId::new(1);
        for seq in (0..40).filter(|s| s % 3 != 0) {
            idle.record_hello(n, seq, Micros::ZERO, at(seq));
            tick(&mut ticked, n, seq, 0, 0);
            assert_eq!(idle.loss_from(n, at(seq)), ticked.loss_from(n, at(seq)));
        }
    }

    #[test]
    fn estimate_tracks_the_injected_rate() {
        let n = NodeId::new(1);
        for percent in (0..=60).step_by(5) {
            let mut m = busy_monitor();
            // 200 samples is four ticks; eight let both spans fill.
            for i in 0..8 {
                tick(&mut m, n, i, PER_TICK, PER_TICK - PER_TICK * percent / 100);
            }
            let (loss, rate) = (m.loss_from(n, at(7)), percent as f64 / 100.0);
            assert!((loss - rate).abs() <= 0.03, "{rate} reads as {loss}");
        }
    }

    #[test]
    fn restarted_neighbor_resynchronises_the_hello_window() {
        let mut m = monitor();
        let n = NodeId::new(1);
        for seq in 0..100 {
            m.record_hello(n, seq, Micros::ZERO, at(seq));
        }
        assert_eq!(m.loss_from(n, at(99)), 0.0);
        // The neighbour restarts and counts from zero over a link that
        // now loses every other hello. The old life's sequences must
        // not mask the new one's until it has been up as long.
        for (i, seq) in (0..20).step_by(2).enumerate() {
            m.record_hello(n, seq, Micros::ZERO, at(100 + 2 * i as u64));
        }
        let loss = m.loss_from(n, at(119));
        assert!(loss > 0.4 && loss < 0.6, "the new life's loss reads as {loss}");
    }

    #[test]
    fn hellos_are_expected_from_the_first_one_heard() {
        let mut m = monitor();
        let n = NodeId::new(1);
        // The neighbour was up long before this node: its first hello
        // here is its 1 000th, and the 999 before it are not losses.
        m.record_hello(n, 1_000, Micros::ZERO, at(0));
        assert_eq!(m.loss_from(n, at(0)), 0.0);
        for seq in 1_001..1_004 {
            m.record_hello(n, seq, Micros::ZERO, at(seq - 1_000));
        }
        assert_eq!(m.loss_from(n, at(3)), 0.0);
        // Gaps after the first still count: 1 004 and 1 005 are lost.
        m.record_hello(n, 1_006, Micros::ZERO, at(6));
        let loss = m.loss_from(n, at(6));
        assert!((loss - 2.0 / 7.0).abs() < 1e-9, "two of seven lost reads as {loss}");
        // A reordered hello below the first is one more expected and one
        // more received, not a loss.
        m.record_hello(n, 999, Micros::ZERO, at(6));
        let loss = m.loss_from(n, at(6));
        assert!((loss - 2.0 / 8.0).abs() < 1e-9, "two of eight lost reads as {loss}");
    }

    #[test]
    fn a_neighbour_restarting_from_zero_is_expected_from_zero() {
        let mut m = monitor();
        let n = NodeId::new(1);
        for seq in 1_000..1_030 {
            m.record_hello(n, seq, Micros::ZERO, at(seq - 1_000));
        }
        assert_eq!(m.loss_from(n, at(29)), 0.0);
        // It restarts: its new life starts at zero and loses hello 1.
        for (i, seq) in [0, 2, 3].into_iter().enumerate() {
            m.record_hello(n, seq, Micros::ZERO, at(30 + i as u64));
        }
        let loss = m.loss_from(n, at(32));
        assert!((loss - 0.25).abs() < 1e-9, "one of four lost reads as {loss}");
    }

    #[test]
    fn data_keeps_a_link_alive_through_lost_hellos() {
        let mut m = busy_monitor();
        let n = NodeId::new(1);
        for i in 0..10 {
            tick(&mut m, n, i, PER_TICK, PER_TICK);
        }
        // Six hellos in a row are lost (LINK_DOWN_INTERVALS is five)
        // while data keeps arriving: the link is lossy, not down.
        for i in 10..16 {
            m.record_data_tick(n, PER_TICK, PER_TICK / 2, at(i));
            assert!(!m.is_down(n, at(i)));
        }
        // Without data the same silence is a dead link.
        for i in 16..23 {
            m.record_data_tick(n, 0, 0, at(i));
        }
        assert!(m.is_down(n, at(22)));
        // And data alone never makes a link heard from.
        let stranger = NodeId::new(2);
        m.record_data_tick(stranger, PER_TICK, PER_TICK, at(22));
        assert!(!m.heard_from(stranger));
        assert_eq!(m.loss_from(stranger, at(22)), 1.0);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_panics() {
        LinkMonitor::new(0, TICK);
    }

    #[test]
    #[should_panic(expected = "interval")]
    fn zero_interval_panics() {
        LinkMonitor::new(10, Micros::ZERO);
    }

    #[test]
    fn triggered_accessor_tracks_detector_state() {
        let mut m = monitor();
        let n = NodeId::new(4);
        assert!(!m.is_triggered(n));
        assert_eq!(m.detect(n, 0.10, 0.05), Some(true));
        assert!(m.is_triggered(n));
        assert_eq!(m.detect(n, 0.01, 0.05), Some(false));
        assert!(!m.is_triggered(n));
    }

    #[test]
    fn damper_admits_first_transition_immediately() {
        let mut d = FlapDamper::new(Micros::from_millis(500), Micros::from_secs(2), 3.0);
        let n = NodeId::new(1);
        assert_eq!(d.penalty(n, Micros::ZERO), 0.0);
        assert!(d.admit(n, Micros::ZERO));
        assert!(d.penalty(n, Micros::ZERO) > 0.9);
    }

    #[test]
    fn hold_down_admits_at_most_one_transition_per_window() {
        let hold = Micros::from_millis(500);
        let mut d = FlapDamper::new(hold, Micros::from_secs(60), 100.0);
        let n = NodeId::new(1);
        // An oscillating signal attempts a transition every 100 ms over
        // 3 seconds; with a huge threshold only the hold-down gates.
        let mut admitted: Vec<Micros> = Vec::new();
        for i in 0..30u64 {
            let now = Micros::from_millis(i * 100);
            if d.admit(n, now) {
                admitted.push(now);
            }
        }
        assert!(!admitted.is_empty());
        for pair in admitted.windows(2) {
            assert!(
                pair[1].saturating_sub(pair[0]) >= hold,
                "two admissions {} and {} inside one hold-down window",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn sustained_flapping_builds_penalty_and_suppresses_entirely() {
        let mut d = FlapDamper::new(Micros::from_millis(100), Micros::from_secs(2), 3.0);
        let n = NodeId::new(2);
        // Flap hard: an attempt every 100 ms for 4 seconds. The penalty
        // climbs past the threshold and admissions stop.
        let mut last_admit = Micros::ZERO;
        for i in 0..40u64 {
            let now = Micros::from_millis(i * 100);
            if d.admit(n, now) {
                last_admit = now;
            }
        }
        assert!(
            last_admit < Micros::from_millis(3_900),
            "sustained flapping was never suppressed (last admit {last_admit})"
        );
        assert!(d.penalty(n, Micros::from_millis(4_000)) > 3.0);
        // Quiet period: the penalty decays and the link is forgiven.
        let later = Micros::from_secs(30);
        assert!(d.penalty(n, later) < 0.1);
        assert!(d.admit(n, later), "a calmed link must be admitted again");
    }

    #[test]
    fn damper_state_is_per_neighbor() {
        let mut d = FlapDamper::new(Micros::from_millis(500), Micros::from_secs(2), 3.0);
        assert!(d.admit(NodeId::new(1), Micros::ZERO));
        // A different neighbour is unaffected by node 1's hold-down.
        assert!(d.admit(NodeId::new(2), Micros::from_millis(1)));
        assert!(!d.admit(NodeId::new(1), Micros::from_millis(2)));
    }

    #[test]
    fn forced_admission_bypasses_hold_down_but_still_charges() {
        let n = NodeId::new(3);
        let mut d = FlapDamper::new(Micros::from_millis(500), Micros::from_secs(2), 3.0);
        assert!(d.admit(n, Micros::ZERO));
        // A down declaration inside the hold-down goes through anyway...
        d.record_forced(n, Micros::from_millis(100));
        assert!(d.penalty(n, Micros::from_millis(100)) > 1.5, "forced admission must charge");
        // ...and restarts the hold-down, so the recovery side is damped.
        assert!(!d.admit(n, Micros::from_millis(550)));
        assert!(d.admit(n, Micros::from_millis(650)));
    }

    #[test]
    #[should_panic(expected = "half-life")]
    fn zero_half_life_panics() {
        FlapDamper::new(Micros::from_millis(500), Micros::ZERO, 3.0);
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn tiny_threshold_panics() {
        FlapDamper::new(Micros::from_millis(500), Micros::from_secs(2), 1.0);
    }
}
