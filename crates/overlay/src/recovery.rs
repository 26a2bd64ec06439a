//! Hop-by-hop recovery: per-link sequencing, gap detection, and a
//! bounded retransmission buffer.
//!
//! Every data transmission on an overlay link carries a per-link
//! sequence number. The receiving side detects gaps when a later
//! sequence arrives and NACKs the missing ones; the sending side keeps
//! recent datagrams in a ring buffer and retransmits each **once** —
//! the paper's single-retransmission discipline, which bounds the
//! latency a recovered packet can accumulate.
//!
//! Two deadline-awareness refinements on top of the basic discipline:
//!
//! - Both sides consult [`retransmit_worthwhile`] — a retransmission
//!   that cannot arrive inside the packet's deadline is pure cost
//!   (CASPR's observation). The serving side skips it before answering
//!   a NACK (counted `retransmits_suppressed`); the requesting side
//!   does not ask a second time for it (`nack_rerequests_skipped`).
//! - A NACK itself rides an unreliable datagram. If the requested
//!   sequences stay silent past a timeout, [`GapTracker::due_rerequests`]
//!   re-issues the request exactly once, so a lost NACK does not
//!   silently forfeit the recovery.
//!
//! The sequence stream the tracker reads for gaps is also the richest
//! loss evidence a link offers: [`GapTracker::take_evidence`] hands
//! the link monitor how far the stream advanced and how much of that
//! arrived.

use dg_topology::Micros;
use std::collections::{HashMap, HashSet, VecDeque};

/// Cap on how many sequences one gap can NACK; a bigger gap means the
/// link was effectively down and recovery would be useless anyway.
const MAX_NACK: u64 = 64;

/// Packets the node keeps per out-link for retransmission — and so how
/// far below its expectation a receiver still reads an arrival as a
/// retransmission rather than a restarted sender.
pub const RETRANSMIT_BUFFER: usize = 2_048;

/// How long a NACKed sequence may stay silent before the node re-issues
/// the NACK (once).
pub const NACK_REREQUEST_AFTER: Micros = Micros::from_millis(250);

/// Sender side: recent transmissions kept for possible retransmission.
///
/// Generic over the stored representation: the node keeps decoded
/// packets (cheap reference-counted clones, re-encoded only on the rare
/// NACK path) while tests may store raw frames.
#[derive(Debug)]
pub struct SendBuffer<T> {
    capacity: usize,
    /// The last `capacity` sequences pushed, oldest first; a slot is
    /// emptied in place when its datagram is taken.
    entries: VecDeque<(u64, Option<T>)>,
}

impl<T> SendBuffer<T> {
    /// A buffer holding up to `capacity` recent datagrams.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "send buffer capacity must be positive");
        SendBuffer { capacity, entries: VecDeque::with_capacity(capacity) }
    }

    /// Stores a transmitted datagram under its link sequence number.
    /// Sequences must be pushed in increasing order (the per-link
    /// counter guarantees it), which is what lets [`SendBuffer::take`]
    /// binary-search instead of scanning.
    pub fn push(&mut self, link_seq: u64, datagram: T) {
        debug_assert!(
            self.entries.back().is_none_or(|(s, _)| *s < link_seq),
            "link sequences must be pushed in increasing order"
        );
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back((link_seq, Some(datagram)));
    }

    /// Takes the datagram for `link_seq`, emptying its slot so a second
    /// NACK for the same sequence cannot trigger a second
    /// retransmission. Binary search over the sequence-sorted ring and
    /// nothing moved: O(log n) against the node's
    /// [`RETRANSMIT_BUFFER`]-deep buffer.
    pub fn take(&mut self, link_seq: u64) -> Option<T> {
        let idx = self.entries.binary_search_by_key(&link_seq, |(s, _)| *s).ok()?;
        self.entries[idx].1.take()
    }

    /// Number of buffered datagrams (a diagnostic: it counts the slots
    /// still full).
    pub fn len(&self) -> usize {
        self.entries.iter().filter(|(_, datagram)| datagram.is_some()).count()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A NACKed sequence still awaited: when it was asked for, and the
/// budget of the packet whose arrival exposed the gap (its neighbours
/// in the link stream were sent within a millisecond of it).
#[derive(Debug, Clone, Copy)]
struct Pending {
    asked_at: Micros,
    sent_at: Micros,
    deadline: Micros,
}

/// Receiver side: detects sequence gaps on one incoming link.
#[derive(Debug, Default)]
pub struct GapTracker {
    next_expected: Option<u64>,
    /// Sequences already NACKed, so reordering cannot double-request.
    requested: HashSet<u64>,
    /// Outstanding NACKed sequences awaiting either the retransmission
    /// or a timed re-request; a sequence leaves when either happens,
    /// which is what makes the re-request single.
    pending: HashMap<u64, Pending>,
    /// `(expected, received)` since the last [`GapTracker::take_evidence`]:
    /// how far the stream advanced, and how many of those sequences
    /// arrived first time. A retransmission is not evidence that the
    /// link delivered, so arrivals below the expectation count nowhere.
    evidence: (u64, u64),
}

impl GapTracker {
    /// A tracker that synchronizes on the first observed sequence
    /// (equivalent to `GapTracker::default()`).
    pub fn new() -> Self {
        GapTracker::default()
    }

    /// [`GapTracker::observe_packet`] for a stream without deadlines:
    /// nothing it NACKs is ever too late to ask for again.
    pub fn observe(&mut self, link_seq: u64, now: Micros) -> Vec<u64> {
        self.observe_packet(link_seq, now, now, Micros::MAX)
    }

    /// Observes the link sequence number of a packet arriving at local
    /// time `now`, stamped `sent_at` at its source with a one-way
    /// `deadline`, and returns the gap of missing sequences to NACK
    /// (empty for in-order, duplicate, or retransmitted arrivals).
    pub fn observe_packet(
        &mut self,
        link_seq: u64,
        now: Micros,
        sent_at: Micros,
        deadline: Micros,
    ) -> Vec<u64> {
        let expected = match self.next_expected {
            Some(expected) if link_seq >= expected => expected,
            Some(expected) if expected - link_seq <= RETRANSMIT_BUFFER as u64 => {
                // Within what the sender still holds: a retransmission
                // or reordering; no new information, and the sequence
                // is no longer outstanding.
                self.requested.remove(&link_seq);
                self.pending.remove(&link_seq);
                return Vec::new();
            }
            // The first packet on this link, or — further below the
            // expectation than any retransmission could be — of a
            // restarted sender numbering the link from zero again:
            // synchronize, nothing to recover (anything earlier predates
            // our knowledge of the stream).
            _ => {
                self.requested.clear();
                self.pending.clear();
                self.next_expected = Some(link_seq + 1);
                self.evidence.0 += 1;
                self.evidence.1 += 1;
                return Vec::new();
            }
        };
        self.evidence.0 += link_seq - expected + 1;
        self.evidence.1 += 1;
        let gap_start = expected.max(link_seq.saturating_sub(MAX_NACK));
        let missing: Vec<u64> =
            (gap_start..link_seq).filter(|s| !self.requested.contains(s)).collect();
        self.requested.extend(missing.iter().copied());
        for &s in &missing {
            self.pending.insert(s, Pending { asked_at: now, sent_at, deadline });
        }
        // Bound the memory of the bookkeeping sets.
        if self.requested.len() > 4 * MAX_NACK as usize {
            let floor = link_seq.saturating_sub(2 * MAX_NACK);
            self.requested.retain(|&s| s >= floor);
            self.pending.retain(|&s, _| s >= floor);
        }
        self.next_expected = Some(link_seq + 1);
        missing
    }

    /// Observes the packets of one frame, each `(link_seq, sent_at,
    /// deadline)`, all arriving at `now`: exactly
    /// [`GapTracker::observe_packet`] on each in turn, returning the
    /// non-empty gaps in order. A frame that continues the stream —
    /// consecutive sequences starting at the expectation, which is what
    /// a sender's batch is unless the link lost or reordered something
    /// — exposes no gap and costs one addition, not one call a packet.
    pub fn observe_run(
        &mut self,
        now: Micros,
        packets: impl ExactSizeIterator<Item = (u64, Micros, Micros)> + Clone,
    ) -> Vec<Vec<u64>> {
        let n = packets.len() as u64;
        if let Some((expected, end)) = self.next_expected.and_then(|e| Some((e, e.checked_add(n)?)))
        {
            if packets.clone().map(|(seq, ..)| seq).eq(expected..end) {
                self.evidence.0 += n;
                self.evidence.1 += n;
                self.next_expected = Some(end);
                return Vec::new();
            }
        }
        packets
            .map(|(seq, sent_at, deadline)| self.observe_packet(seq, now, sent_at, deadline))
            .filter(|missing| !missing.is_empty())
            .collect()
    }

    /// Sequences NACKed at least `silence` ago that have still not
    /// arrived, each eligible for exactly one re-request (a NACK rides
    /// an unreliable datagram too) — those, that is, whose
    /// retransmission could still arrive in time over a link of
    /// round-trip `rtt` ([`retransmit_worthwhile`]); the rest are
    /// dropped and counted in the second value. Either way the
    /// sequence is never offered again.
    pub fn due_rerequests(
        &mut self,
        now: Micros,
        silence: Micros,
        rtt: Option<Micros>,
    ) -> (Vec<u64>, u64) {
        let mut due = Vec::new();
        let mut skipped = 0;
        self.pending.retain(|&s, p| {
            if now.saturating_sub(p.asked_at) < silence {
                return true;
            }
            if retransmit_worthwhile(p.sent_at, p.deadline, now, rtt) {
                due.push(s);
            } else {
                skipped += 1;
            }
            false
        });
        due.sort_unstable();
        (due, skipped)
    }

    /// Outstanding NACKed sequences awaiting retransmission or
    /// re-request (bookkeeping-bound diagnostics).
    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }

    /// The loss evidence gathered since the last call, `(expected,
    /// received)`: the link sequences the stream advanced by and how
    /// many of them arrived as first transmissions.
    pub fn take_evidence(&mut self) -> (u64, u64) {
        std::mem::take(&mut self.evidence)
    }
}

/// Whether retransmitting a packet can still beat its deadline.
///
/// The packet was stamped `sent_at` at its source with a one-way
/// `deadline` budget; the retransmission costs (at least) half the
/// link's smoothed RTT to reach the NACKing neighbour, plus whatever
/// downstream hops remain. If even the optimistic bound
/// `now + rtt/2 > sent_at + deadline` fails, the copy would arrive
/// expired and be dropped on arrival — sending it is pure cost, so the
/// serving side skips it (counted `retransmits_suppressed`). With no
/// RTT estimate yet the check degrades to plain expiry.
pub fn retransmit_worthwhile(
    sent_at: Micros,
    deadline: Micros,
    now: Micros,
    rtt: Option<Micros>,
) -> bool {
    let hop = rtt.map_or(Micros::ZERO, |r| Micros::from_micros(r.as_micros() / 2));
    now.saturating_add(hop) <= sent_at.saturating_add(deadline)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    #[test]
    fn buffer_stores_and_takes_once() {
        let mut b = SendBuffer::new(4);
        assert!(b.is_empty());
        b.push(1, Bytes::from_static(b"one"));
        b.push(2, Bytes::from_static(b"two"));
        assert_eq!(b.len(), 2);
        assert_eq!(b.take(1), Some(Bytes::from_static(b"one")));
        assert_eq!(b.take(1), None, "single retransmission only");
        assert_eq!(b.take(99), None);
    }

    #[test]
    fn buffer_evicts_oldest() {
        let mut b = SendBuffer::new(2);
        b.push(1, Bytes::from_static(b"a"));
        b.push(2, Bytes::from_static(b"b"));
        b.push(3, Bytes::from_static(b"c"));
        assert_eq!(b.take(1), None, "evicted");
        assert!(b.take(2).is_some());
        assert!(b.take(3).is_some());
    }

    #[test]
    fn tracker_synchronizes_then_detects_gaps() {
        let mut t = GapTracker::new();
        assert!(t.observe(10, Micros::ZERO).is_empty(), "first packet synchronizes");
        assert!(t.observe(11, Micros::ZERO).is_empty(), "in order");
        assert_eq!(t.observe(14, Micros::ZERO), vec![12, 13]);
        assert!(t.observe(15, Micros::ZERO).is_empty());
    }

    #[test]
    fn duplicates_and_retransmissions_do_not_renack() {
        let mut t = GapTracker::new();
        t.observe(0, Micros::ZERO);
        assert_eq!(t.observe(3, Micros::ZERO), vec![1, 2]);
        // The retransmission of 1 arrives late.
        assert!(t.observe(1, Micros::ZERO).is_empty());
        // A later gap does not re-request 2 (already asked).
        assert_eq!(t.observe(5, Micros::ZERO), vec![4]);
    }

    #[test]
    fn huge_gaps_are_capped() {
        let mut t = GapTracker::new();
        t.observe(0, Micros::ZERO);
        let missing = t.observe(10_000, Micros::ZERO);
        assert_eq!(missing.len() as u64, MAX_NACK);
        assert_eq!(*missing.first().unwrap(), 10_000 - MAX_NACK);
        assert_eq!(*missing.last().unwrap(), 9_999);
    }

    #[test]
    fn silent_nacks_are_rerequested_exactly_once() {
        let mut t = GapTracker::new();
        let silence = Micros::from_millis(250);
        t.observe(0, Micros::ZERO);
        assert_eq!(t.observe(3, Micros::from_millis(10)), vec![1, 2]);
        assert_eq!(t.outstanding(), 2);
        // Too early: nothing is due yet.
        assert!(t.due_rerequests(Micros::from_millis(100), silence, None).0.is_empty());
        // Sequence 1's retransmission lands; it is no longer pending.
        assert!(t.observe(1, Micros::from_millis(150)).is_empty());
        assert_eq!(t.outstanding(), 1);
        // Past the silence horizon, 2 is re-requested — once.
        assert_eq!(t.due_rerequests(Micros::from_millis(300), silence, None), (vec![2], 0));
        assert!(t.due_rerequests(Micros::from_millis(600), silence, None).0.is_empty());
        assert_eq!(t.outstanding(), 0);
        // A late arrival of 2 is still passed through harmlessly.
        assert!(t.observe(2, Micros::from_millis(700)).is_empty());
    }

    #[test]
    fn hopeless_gaps_are_not_rerequested() {
        let mut t = GapTracker::new();
        let silence = Micros::from_millis(250);
        let deadline = Micros::from_millis(65);
        let rtt = Some(Micros::from_millis(20));
        let ms = Micros::from_millis;
        t.observe_packet(0, ms(1_000), ms(990), deadline);
        // A 65 ms budget: the gap exposed at +10 ms is long expired when
        // the 250 ms silence timer fires...
        assert_eq!(t.observe_packet(3, ms(1_010), ms(1_000), deadline), vec![1, 2]);
        assert_eq!(t.due_rerequests(ms(1_260), silence, rtt), (vec![], 2));
        // ...and is never offered again.
        assert_eq!(t.outstanding(), 0);
        assert_eq!(t.due_rerequests(ms(2_000), silence, rtt), (vec![], 0));
        // A budget that outlasts the silence keeps its one re-request —
        // unless the hop back takes longer than what is left of it.
        let slow = Micros::from_secs(1);
        assert_eq!(t.observe_packet(5, ms(3_000), ms(2_990), slow), vec![4]);
        assert_eq!(t.due_rerequests(ms(3_250), silence, rtt), (vec![4], 0));
        assert_eq!(t.observe_packet(7, ms(4_000), ms(3_990), slow), vec![6]);
        assert_eq!(t.due_rerequests(ms(4_985), silence, rtt), (vec![], 1));
    }

    #[test]
    fn restarted_sender_resynchronises_the_tracker() {
        let mut t = GapTracker::new();
        for seq in 0..5_000 {
            assert!(t.observe(seq, Micros::ZERO).is_empty());
        }
        // Within the horizon a low sequence is a retransmission...
        assert!(t.observe(4_000, Micros::ZERO).is_empty());
        assert!(t.observe(5_000, Micros::ZERO).is_empty(), "and the stream goes on");
        // ...further back than the sender's buffer reaches, it is the
        // sender's next life: gaps are gaps again at once, not after
        // 5000 more packets.
        assert!(t.observe(0, Micros::ZERO).is_empty(), "synchronizes");
        assert!(t.observe(1, Micros::ZERO).is_empty());
        assert_eq!(t.observe(4, Micros::ZERO), vec![2, 3]);
    }

    #[test]
    fn evidence_counts_first_transmissions_only() {
        let mut t = GapTracker::new();
        assert_eq!(t.take_evidence(), (0, 0));
        t.observe(10, Micros::ZERO);
        t.observe(11, Micros::ZERO);
        assert_eq!(t.take_evidence(), (2, 2), "in order");
        t.observe(14, Micros::ZERO);
        assert_eq!(t.take_evidence(), (3, 1), "12 and 13 are missing");
        // Their retransmissions (or a duplicate) say nothing about the
        // link: it had lost them.
        t.observe(12, Micros::ZERO);
        t.observe(13, Micros::ZERO);
        t.observe(14, Micros::ZERO);
        assert_eq!(t.take_evidence(), (0, 0));
        // A gap too long to NACK in full is still counted in full.
        assert_eq!(t.observe(1_015, Micros::ZERO).len() as u64, MAX_NACK);
        assert_eq!(t.take_evidence(), (1_001, 1));
    }

    #[test]
    fn rerequest_bookkeeping_is_bounded() {
        let mut t = GapTracker::new();
        t.observe(0, Micros::ZERO);
        // Many separated gaps, never recovered, never re-requested.
        for i in 1..500u64 {
            t.observe(i * 2, Micros::from_micros(i));
        }
        assert!(
            t.outstanding() <= 4 * MAX_NACK as usize,
            "pending set grew to {}",
            t.outstanding()
        );
    }

    #[test]
    fn worthwhile_weighs_remaining_budget_against_link_rtt() {
        let sent = Micros::from_secs(1);
        let deadline = Micros::from_millis(65);
        // Plenty of slack.
        assert!(retransmit_worthwhile(sent, deadline, Micros::from_millis(1_020), None));
        assert!(retransmit_worthwhile(
            sent,
            deadline,
            Micros::from_millis(1_020),
            Some(Micros::from_millis(20))
        ));
        // The budget expires in 5 ms but the hop alone costs 10 ms.
        assert!(!retransmit_worthwhile(
            sent,
            deadline,
            Micros::from_millis(1_060),
            Some(Micros::from_millis(20))
        ));
        // Without an RTT estimate the check degrades to plain expiry.
        assert!(retransmit_worthwhile(sent, deadline, Micros::from_millis(1_065), None));
        assert!(!retransmit_worthwhile(sent, deadline, Micros::from_millis(1_066), None));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        SendBuffer::<Bytes>::new(0);
    }

    #[test]
    fn take_binary_search_finds_wrapped_entries() {
        // Exercise take() after the ring has wrapped (pop_front +
        // push_back), where the deque's internal layout is split.
        let mut b = SendBuffer::new(8);
        for seq in 0..20u64 {
            b.push(seq, Bytes::from(seq.to_be_bytes().to_vec()));
        }
        assert_eq!(b.len(), 8);
        assert_eq!(b.take(11), None, "evicted");
        for seq in (12..20).rev() {
            assert!(b.take(seq).is_some(), "seq {seq} present");
            assert!(b.take(seq).is_none(), "seq {seq} single-shot");
        }
        assert!(b.is_empty());
    }
}
