//! Hop-by-hop recovery: per-link sequencing, gap detection, and a
//! bounded retransmission buffer.
//!
//! Every data transmission on an overlay link carries a per-link
//! sequence number. The receiving side detects gaps when a later
//! sequence arrives and NACKs the missing ones; the sending side keeps
//! the frames it sent recently ([`SendBuffer`]) and retransmits each
//! sequence **once** — the paper's single-retransmission discipline,
//! which bounds the latency a recovered packet can accumulate.
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

/// Link sequences the node can retransmit per out-link — and so how
/// far below its expectation a receiver still reads an arrival as a
/// retransmission rather than a restarted sender.
pub const RETRANSMIT_BUFFER: usize = 2_048;

/// How long a NACKed sequence may stay silent before the node re-issues
/// the NACK (once).
pub const NACK_REREQUEST_AFTER: Micros = Micros::from_millis(250);

/// Sender side: recent transmissions kept for possible retransmission,
/// serving exactly the last `capacity` link sequences pushed, each at
/// most once.
///
/// An item holds a run of consecutive sequences — the node pushes each
/// data frame it sends once, under the sequences of its records, and
/// copies a record out of it on the rare NACK — and is held until the
/// last of them leaves the window. So with `r` sequences an item at
/// most `⌈capacity / r⌉ + 1` items are held, and an item released is
/// handed back to the caller (the node returns the frame's buffer to its
/// pool).
#[derive(Debug)]
pub struct SendBuffer<T> {
    capacity: usize,
    /// The items held, oldest first, each with the first sequence it
    /// holds and how many.
    items: VecDeque<(u64, u64, T)>,
    /// One bit a sequence, at `seq` modulo the power of two at or above
    /// `capacity` (so no two sequences of the window share one): set
    /// once the sequence has been served. A push clears the bits of its
    /// sequences, which belonged to ones long out of the window.
    served: Vec<u64>,
    /// The newest sequence pushed.
    newest: Option<u64>,
}

impl<T> SendBuffer<T> {
    /// A buffer serving the last `capacity` sequences pushed.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "send buffer capacity must be positive");
        SendBuffer {
            capacity,
            items: VecDeque::new(),
            served: vec![0; capacity.next_power_of_two().div_ceil(64)],
            newest: None,
        }
    }

    /// Stores a transmission of one sequence ([`SendBuffer::push_run`]
    /// of one, dropping whatever it releases).
    pub fn push(&mut self, link_seq: u64, item: T) {
        self.push_run(link_seq, 1, item, drop);
    }

    /// Stores `item` under the `count` consecutive sequences from
    /// `first` and hands every older item whose last sequence has left
    /// the window to `release`. Sequences must be pushed in increasing
    /// order (the per-link counter guarantees it), which is what lets
    /// [`SendBuffer::take`] binary-search instead of scanning.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    pub fn push_run(&mut self, first: u64, count: usize, item: T, mut release: impl FnMut(T)) {
        assert!(count > 0, "an item holds at least one sequence");
        debug_assert!(
            self.newest.is_none_or(|newest| newest < first),
            "link sequences must be pushed in increasing order"
        );
        // As many consecutive sequences as there are bits cover them all.
        let bits = self.capacity.next_power_of_two();
        for seq in first..first + count.min(bits) as u64 {
            let (word, mask) = self.bit(seq);
            self.served[word] &= !mask;
        }
        let last = first + (count as u64 - 1);
        self.newest = Some(last);
        self.items.push_back((first, count as u64, item));
        while let Some(&(oldest, held, _)) = self.items.front() {
            if last - (oldest + held - 1) < self.capacity as u64 {
                break;
            }
            let (_, _, item) = self.items.pop_front().expect("the front was just read");
            release(item);
        }
    }

    /// Serves `link_seq`: the item holding it and the sequence's place
    /// in that item — once. `None` for a sequence never pushed, older
    /// than the window, or served already, so a second NACK for the
    /// same sequence cannot trigger a second retransmission. Binary
    /// search over the sequence-sorted items and nothing moved.
    pub fn take(&mut self, link_seq: u64) -> Option<(&T, usize)> {
        let newest = self.newest?;
        if link_seq > newest || newest - link_seq >= self.capacity as u64 {
            return None;
        }
        let idx = self.items.partition_point(|&(first, ..)| first <= link_seq).checked_sub(1)?;
        let (first, held, item) = &self.items[idx];
        let place = link_seq - first;
        if place >= *held {
            return None;
        }
        let (word, mask) = self.bit(link_seq);
        if self.served[word] & mask != 0 {
            return None;
        }
        self.served[word] |= mask;
        Some((item, place as usize))
    }

    /// Where `seq`'s served bit is: its word and the mask within it.
    fn bit(&self, seq: u64) -> (usize, u64) {
        let at = seq as usize & (self.capacity.next_power_of_two() - 1);
        (at / 64, 1 << (at % 64))
    }

    /// Number of items held (a diagnostic: an item is held until its
    /// last sequence leaves the window, served or not).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing is held.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
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
    use crate::pool::BufferPool;
    use bytes::Bytes;

    /// What `take` served, owned.
    fn served(b: &mut SendBuffer<Bytes>, seq: u64) -> Option<(Bytes, usize)> {
        b.take(seq).map(|(item, place)| (item.clone(), place))
    }

    #[test]
    fn buffer_stores_and_takes_once() {
        let mut b = SendBuffer::new(4);
        assert!(b.is_empty());
        b.push(1, Bytes::from_static(b"one"));
        b.push(2, Bytes::from_static(b"two"));
        assert_eq!(b.len(), 2);
        assert_eq!(served(&mut b, 1), Some((Bytes::from_static(b"one"), 0)));
        assert_eq!(served(&mut b, 1), None, "single retransmission only");
        assert_eq!(served(&mut b, 99), None);
    }

    #[test]
    fn buffer_evicts_oldest() {
        let mut b = SendBuffer::new(2);
        b.push(1, Bytes::from_static(b"a"));
        b.push(2, Bytes::from_static(b"b"));
        b.push(3, Bytes::from_static(b"c"));
        assert_eq!(served(&mut b, 1), None, "evicted");
        assert!(b.take(2).is_some());
        assert!(b.take(3).is_some());
    }

    /// Each sequence of a frame is served once, with its place in the
    /// frame; the frame itself stays for its other sequences.
    #[test]
    fn every_sequence_of_a_frame_is_served_once() {
        let mut b = SendBuffer::new(RETRANSMIT_BUFFER);
        let frame = Bytes::from_static(b"thirty-two records");
        b.push_run(100, 32, frame.clone(), |_| panic!("nothing leaves the window"));
        for seq in [116, 100, 131, 101] {
            assert_eq!(served(&mut b, seq), Some((frame.clone(), (seq - 100) as usize)));
            assert_eq!(served(&mut b, seq), None, "sequence {seq} a second time");
        }
        assert_eq!(b.len(), 1, "held for the sequences not yet asked for");
        let rest =
            (102..131).filter(|&seq| seq != 116).filter(|&seq| b.take(seq).is_some()).count();
        assert_eq!(rest, 28);
    }

    /// Nothing is served that was never pushed — before, between or
    /// after the frames — or that is older than the newest sequence
    /// less the window, whatever frame still holds it.
    #[test]
    fn only_pushed_sequences_inside_the_window_are_served() {
        let mut b = SendBuffer::new(64);
        assert_eq!(served(&mut b, 0), None, "nothing pushed yet");
        b.push_run(10, 20, Bytes::from_static(b"first"), drop);
        // A gap at 30..40: a shed run took no sequences, say.
        b.push_run(40, 40, Bytes::from_static(b"second"), drop);
        let newest = 79;
        for seq in [0, 9, 30, 39, 80, 1_000] {
            assert_eq!(served(&mut b, seq), None, "{seq} was never pushed");
        }
        // The window is 16..=79: the first frame still holds 10..30, yet
        // only its sequences from newest − 64 + 1 on are served.
        assert_eq!(b.len(), 2);
        for seq in 10..16 {
            assert_eq!(served(&mut b, seq), None, "{seq} left the window");
        }
        assert_eq!(served(&mut b, newest + 1 - 64).map(|(_, place)| place), Some(6));
        assert_eq!(served(&mut b, newest).map(|(_, place)| place), Some(39));
    }

    /// The oldest frame is held until its last sequence falls out of the
    /// window — not when its first does — and then leaves, and its
    /// buffer is back in the pool.
    #[test]
    fn the_oldest_frame_leaves_with_its_last_sequence_and_its_buffer_is_pooled() {
        let mut pool = BufferPool::default();
        let mut b = SendBuffer::new(64);
        let push = |b: &mut SendBuffer<Bytes>, pool: &mut BufferPool, first: u64, count| {
            let mut buf = pool.get();
            buf.extend_from_slice(&first.to_be_bytes());
            b.push_run(first, count, Bytes::from(buf), |released| pool.recycle(released));
        };
        push(&mut b, &mut pool, 0, 32);
        push(&mut b, &mut pool, 32, 32);
        assert_eq!((b.len(), pool.idle()), (2, 0), "the window is exactly the two frames");
        // One sequence more and frame 0's first sequence leaves; its 31
        // others are still in the window.
        push(&mut b, &mut pool, 64, 1);
        assert_eq!((b.len(), pool.idle()), (3, 0));
        assert!(b.take(1).is_some() && b.take(0).is_none());
        // 30 more, and 31 is still in; one after, and sequence 31, the
        // frame's last, leaves — and so does the frame.
        push(&mut b, &mut pool, 65, 30);
        assert_eq!((b.len(), pool.idle()), (4, 0));
        push(&mut b, &mut pool, 95, 1);
        assert_eq!(b.len(), 4, "frame 0 left");
        assert_eq!(pool.idle(), 1, "and its buffer is the pool's again");
        assert_eq!(served(&mut b, 32).map(|(frame, place)| (frame[7], place)), Some((32, 0)));
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
        assert_eq!(served(&mut b, 11), None, "evicted");
        for seq in (12..20).rev() {
            assert!(b.take(seq).is_some(), "seq {seq} present");
            assert!(b.take(seq).is_none(), "seq {seq} single-shot");
        }
        assert_eq!(b.len(), 8, "served, yet held until the window moves past them");
    }
}
