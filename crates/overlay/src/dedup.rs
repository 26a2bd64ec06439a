//! Flow-level duplicate suppression: one sliding window per flow.
//!
//! A dissemination graph sends every packet over every edge of a
//! subgraph, so every node on it sees most packets more than once and
//! must hand each on (and deliver each) exactly once. Each flow gets an
//! anti-replay window in the style of IPsec's and WireGuard's (RFC
//! 6479): the highest flow sequence seen (`top`) and a ring of
//! [`DEDUP_WINDOW`] bits, one per sequence in `(top - DEDUP_WINDOW,
//! top]`. A sequence inside the window is accepted exactly once, however
//! its copies are reordered; a sequence above `top` slides the window.
//!
//! A sequence a whole window or more below `top` cannot be a copy still
//! in flight — it is the flow's source in its next life, numbering from
//! zero again — and restarts the window there, the rule
//! [`crate::recovery::GapTracker`] applies to link sequences.
//!
//! Flow ids come off the wire, so the map is bounded by time, not by
//! trust: [`DedupWindows::reclaim_idle`] drops every window no packet
//! has touched for [`DEDUP_IDLE`].

use dg_core::Flow;
use dg_topology::Micros;
use std::collections::HashMap;

/// Sequences each flow's window covers: a `(flow, seq)` among the
/// flow's last `DEDUP_WINDOW` sequences is never accepted twice.
pub const DEDUP_WINDOW: usize = 16_384;

/// How long a window may go untouched before the ticker reclaims it —
/// far past any deadline, so nothing still in flight loses its window.
pub const DEDUP_IDLE: Micros = Micros::from_secs(10);

const WORDS: usize = DEDUP_WINDOW / 64;

/// One flow's window: the highest sequence seen and which of the
/// `DEDUP_WINDOW` sequences ending there have been.
#[derive(Debug)]
pub struct FlowWindow {
    top: u64,
    /// Bit `s % DEDUP_WINDOW` is sequence `s`'s, for the one `s` in
    /// `(top - DEDUP_WINDOW, top]` that maps there.
    bits: [u64; WORDS],
    touched: Micros,
}

impl FlowWindow {
    /// An empty window positioned at `seq`.
    fn at(seq: u64, now: Micros) -> Self {
        FlowWindow { top: seq, bits: [0; WORDS], touched: now }
    }

    /// Whether `seq` is new to this flow, marking it seen.
    pub fn accept(&mut self, seq: u64) -> bool {
        let window = DEDUP_WINDOW as u64;
        let (word, bit) = ((seq / 64) as usize % WORDS, 1u64 << (seq % 64));
        if seq <= self.top && self.top - seq < window {
            let fresh = self.bits[word] & bit == 0;
            self.bits[word] |= bit;
            return fresh;
        }
        if seq > self.top && seq - self.top < window {
            // Slide: the sequences skipped over are unseen so far. (The
            // new top's own bit was `seq - DEDUP_WINDOW`'s, which just
            // left the window.)
            self.clear(self.top + 1, seq);
        } else {
            // A jump past everything remembered, or a restarted source:
            // nothing of what came before matters.
            self.bits = [0; WORDS];
        }
        self.top = seq;
        self.bits[word] |= bit;
        true
    }

    /// Clears the bits of sequences `from..to` (fewer than a window of
    /// them), a word at a time.
    fn clear(&mut self, from: u64, to: u64) {
        let mut seq = from;
        while seq < to {
            let bit = seq % 64;
            let span = (64 - bit).min(to - seq);
            let mask = if span == 64 { u64::MAX } else { ((1u64 << span) - 1) << bit };
            self.bits[(seq / 64) as usize % WORDS] &= !mask;
            seq += span;
        }
    }
}

/// A node's duplicate-suppression state: a [`FlowWindow`] per live flow.
#[derive(Debug, Default)]
pub struct DedupWindows {
    flows: HashMap<Flow, FlowWindow>,
}

impl DedupWindows {
    /// The window of `flow`, touched at `now`. A flow first heard of
    /// starts its window at `seq`, the sequence about to be offered.
    pub fn flow(&mut self, flow: Flow, seq: u64, now: Micros) -> &mut FlowWindow {
        let window = self.flows.entry(flow).or_insert_with(|| FlowWindow::at(seq, now));
        window.touched = now;
        window
    }

    /// Drops every window untouched for `idle` or longer; returns how
    /// many went. A flow that speaks again afterwards starts afresh.
    pub fn reclaim_idle(&mut self, now: Micros, idle: Micros) -> usize {
        let before = self.flows.len();
        self.flows.retain(|_, w| now.saturating_sub(w.touched) < idle);
        before - self.flows.len()
    }

    /// Flows currently holding a window.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// True when no flow holds a window.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_topology::NodeId;

    const W: u64 = DEDUP_WINDOW as u64;

    fn flow(destination: u32) -> Flow {
        Flow::new(NodeId::new(0), NodeId::new(destination))
    }

    fn window_at(seq: u64) -> FlowWindow {
        FlowWindow::at(seq, Micros::ZERO)
    }

    #[test]
    fn a_sequence_is_accepted_once() {
        let mut w = window_at(0);
        assert!(w.accept(0));
        assert!(!w.accept(0));
        assert!(w.accept(2), "ahead of the top");
        assert!(w.accept(1), "reordered behind it");
        assert!(!w.accept(1));
        assert!(!w.accept(2));
    }

    #[test]
    fn a_slide_across_a_word_boundary_forgets_only_what_left() {
        let mut w = window_at(0);
        for seq in 0..W {
            assert!(w.accept(seq));
        }
        // 60..=69 straddle the first word's end; sliding past them by a
        // whole window reuses exactly their bits.
        assert!(w.accept(W + 69), "a jump of 70");
        for seq in W..W + 69 {
            assert!(w.accept(seq), "skipped sequence {seq} is unseen");
        }
        for seq in 70..W + 70 {
            assert!(!w.accept(seq), "sequence {seq} is still inside the window");
        }
    }

    #[test]
    fn a_jump_of_a_window_or_more_empties_it() {
        let mut w = window_at(5);
        assert!(w.accept(5));
        assert!(w.accept(5 + W));
        assert!(!w.accept(5 + W));
        assert!(w.accept(5 + W - 1), "unseen, and inside the new window");
        assert!(w.accept(5 + 3 * W + 7), "several windows at once");
        assert!(!w.accept(5 + 3 * W + 7));
    }

    #[test]
    fn a_sequence_a_window_below_the_top_restarts_the_flow() {
        let mut w = window_at(0);
        for seq in 0..2 * W {
            assert!(w.accept(seq));
        }
        // The lowest sequence still covered is a duplicate...
        assert!(!w.accept(W));
        // ...one below it is a restarted source: it and what follows are
        // fresh at once, not after a window's worth of sequences.
        assert!(w.accept(W - 1), "restarts");
        assert!(!w.accept(W - 1));
        assert!(w.accept(W), "the previous life's sequences are forgotten");
        let mut w = window_at(0);
        for seq in 0..2 * W {
            w.accept(seq);
        }
        assert!(w.accept(0), "a source numbering from zero again");
        assert!(w.accept(1));
        assert!(!w.accept(0));
    }

    #[test]
    fn flows_do_not_evict_each_other() {
        let mut windows = DedupWindows::default();
        let (quiet, busy) = (flow(1), flow(2));
        assert!(windows.flow(quiet, 7, Micros::ZERO).accept(7));
        // Ten windows' worth of another flow's traffic...
        for seq in 0..10 * W {
            assert!(windows.flow(busy, seq, Micros::ZERO).accept(seq));
        }
        // ...and the quiet flow's one packet is still remembered.
        assert!(!windows.flow(quiet, 7, Micros::ZERO).accept(7));
        assert_eq!(windows.len(), 2);
    }

    #[test]
    fn idle_windows_are_reclaimed() {
        let mut windows = DedupWindows::default();
        let s = Micros::from_secs;
        assert!(windows.flow(flow(1), 0, s(0)).accept(0));
        assert!(windows.flow(flow(2), 0, s(0)).accept(0));
        assert!(windows.flow(flow(2), 1, s(6)).accept(1), "flow 2 speaks again");
        assert_eq!(windows.reclaim_idle(s(9), DEDUP_IDLE), 0, "nothing idle that long yet");
        assert_eq!(windows.reclaim_idle(s(10), DEDUP_IDLE), 1, "flow 1 goes");
        assert_eq!(windows.len(), 1);
        assert!(!windows.flow(flow(2), 1, s(10)).accept(1), "flow 2 kept its window");
        assert!(windows.flow(flow(1), 0, s(10)).accept(0), "flow 1 starts afresh");
        assert_eq!(windows.reclaim_idle(s(30), DEDUP_IDLE), 2);
        assert!(windows.is_empty());
    }
}
