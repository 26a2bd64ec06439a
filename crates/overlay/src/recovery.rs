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
//! Three deadline-awareness refinements on top of the basic discipline:
//!
//! - Both sides consult [`retransmit_worthwhile`] — a retransmission
//!   that cannot arrive inside the packet's deadline is pure cost
//!   (CASPR's observation). The serving side skips it before answering
//!   a NACK (counted `retransmits_suppressed`); the requesting side
//!   does not ask a second time for it (`nack_rerequests_skipped`).
//! - The serving side holds a frame only while one of its packets can
//!   still make its deadline: past that, [`retransmit_worthwhile`] is
//!   false for any round-trip, so the frame could only ever be
//!   suppressed. [`SendBuffer`] lets it go at the next push or release
//!   pass, and answers a NACK for it [`Take::Hopeless`] — suppressed,
//!   as before, never a miss.
//! - A NACK itself rides an unreliable datagram. If the requested
//!   sequences stay silent past a timeout, [`GapTracker::due_rerequests`]
//!   re-issues the request exactly once, so a lost NACK does not
//!   silently forfeit the recovery.
//!
//! The sequence stream the tracker reads for gaps is also the richest
//! loss evidence a link offers: [`GapTracker::take_evidence`] hands
//! the link monitor how far the stream advanced and how much of that
//! arrived on each hello tick, and [`GapTracker::evidence`] lets it
//! read the open tick's share when a gap lands between ticks.

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
/// serving the last `capacity` link sequences pushed, each at most
/// once, for as long as their item is held.
///
/// An item holds a run of consecutive sequences — the node pushes each
/// data frame it sends once, under the sequences of its records, and
/// copies a record out of it on the rare NACK — and an expiry: the
/// instant after which no packet in it can make its deadline any more.
/// Items leave from the front, oldest first, for either of two reasons:
///
/// - its last sequence left the window — so with `r` sequences an item
///   at most `⌈capacity / r⌉ + 1` items are held;
/// - it expired, on the push or the [`SendBuffer::release_expired`]
///   pass after its expiry — so a link holds what it sent within its
///   packets' budget, plus however long the passes are apart. An
///   unexpired item at the front holds back expired ones behind it, but
///   no longer than the window would.
///
/// An item released is handed back to the caller (the node returns the
/// frame's buffer to its pool). A sequence whose item left on expiry
/// while the sequence was still in the window is answered
/// [`Take::Hopeless`] — once — so its neighbour's NACK is told apart
/// from one for a sequence the buffer never had.
#[derive(Debug)]
pub struct SendBuffer<T> {
    capacity: usize,
    /// The items held, oldest first.
    items: VecDeque<Held<T>>,
    /// One bit a sequence, at `seq` modulo the power of two at or above
    /// `capacity` (so no two sequences of the window share one): set
    /// once the sequence has been answered. A push clears the bits of
    /// its sequences and of any it skipped, which belonged to ones long
    /// out of the window.
    served: Vec<u64>,
    /// The same places: set for a sequence still in the window when its
    /// item was released on expiry. Cleared as `served` is.
    lapsed: Vec<u64>,
    /// The newest sequence pushed.
    newest: Option<u64>,
}

/// One item of a [`SendBuffer`]: the first sequence it holds, how many,
/// and when it expires.
#[derive(Debug)]
struct Held<T> {
    first: u64,
    count: u64,
    expires: Micros,
    item: T,
}

/// What [`SendBuffer::take`] found for a sequence.
#[derive(Debug, PartialEq, Eq)]
pub enum Take<'a, T> {
    /// Held: the item holding the sequence and the sequence's place in
    /// it.
    Served(&'a T, usize),
    /// Pushed and still in the window, but its item was released
    /// because no packet in it could make its deadline any more: a
    /// retransmission would have been too late.
    Hopeless,
    /// Never pushed, older than the window, or answered already.
    Missing,
}

impl<T> SendBuffer<T> {
    /// A buffer serving the last `capacity` sequences pushed.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "send buffer capacity must be positive");
        let words = capacity.next_power_of_two().div_ceil(64);
        SendBuffer {
            capacity,
            items: VecDeque::new(),
            served: vec![0; words],
            lapsed: vec![0; words],
            newest: None,
        }
    }

    /// Stores a transmission of one sequence that never expires
    /// ([`SendBuffer::push_run`] of one, dropping whatever it releases).
    pub fn push(&mut self, link_seq: u64, item: T) {
        self.push_run(link_seq, 1, item, Micros::MAX, Micros::ZERO, drop);
    }

    /// Stores `item`, which expires after `expires`, under the `count`
    /// consecutive sequences from `first`, at `now`, and hands every
    /// older item that leaves to `release`: whose last sequence has left
    /// the window, or — from the front — that expired before `now`.
    /// Sequences must be pushed in increasing order (the per-link
    /// counter guarantees it), which is what lets [`SendBuffer::take`]
    /// binary-search instead of scanning.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    pub fn push_run(
        &mut self,
        first: u64,
        count: usize,
        item: T,
        expires: Micros,
        now: Micros,
        release: impl FnMut(T),
    ) {
        assert!(count > 0, "an item holds at least one sequence");
        debug_assert!(
            self.newest.is_none_or(|newest| newest < first),
            "link sequences must be pushed in increasing order"
        );
        let last = first + (count as u64 - 1);
        // The item's sequences and any skipped before them start a new
        // life; as many consecutive sequences as there are bits cover
        // them all.
        let bits = self.capacity.next_power_of_two() as u64;
        let from = self.newest.map_or(first, |newest| newest + 1);
        for seq in from.max((last + 1).saturating_sub(bits))..=last {
            let (word, mask) = self.bit(seq);
            self.served[word] &= !mask;
            self.lapsed[word] &= !mask;
        }
        self.newest = Some(last);
        self.items.push_back(Held { first, count: count as u64, expires, item });
        self.release_expired(now, release);
    }

    /// Hands the items at the front that have expired by `now` — and any
    /// whose last sequence has left the window — to `release`, oldest
    /// first, and stops at the first that has neither. An expired item's
    /// sequences still in the window are answered
    /// [`Take::Hopeless`] from now on.
    pub fn release_expired(&mut self, now: Micros, mut release: impl FnMut(T)) {
        let Some(newest) = self.newest else { return };
        let window_start = (newest + 1).saturating_sub(self.capacity as u64);
        while let Some(front) = self.items.front() {
            let last = front.first + front.count - 1;
            let in_window = last >= window_start;
            if in_window && now <= front.expires {
                break;
            }
            let front = self.items.pop_front().expect("the front was just read");
            if in_window {
                for seq in front.first.max(window_start)..=last {
                    let (word, mask) = self.bit(seq);
                    self.lapsed[word] |= mask;
                }
            }
            release(front.item);
        }
    }

    /// Answers a NACK for `link_seq` — once: a second NACK for the same
    /// sequence finds it [`Take::Missing`], so it cannot trigger a second
    /// retransmission. Binary search over the sequence-sorted items and
    /// nothing moved.
    pub fn take(&mut self, link_seq: u64) -> Take<'_, T> {
        let Some(newest) = self.newest else { return Take::Missing };
        if link_seq > newest || newest - link_seq >= self.capacity as u64 {
            return Take::Missing;
        }
        let (word, mask) = self.bit(link_seq);
        if self.served[word] & mask != 0 {
            return Take::Missing;
        }
        let idx = self.items.partition_point(|held| held.first <= link_seq);
        let held = idx.checked_sub(1).map(|i| &self.items[i]);
        let answer = match held {
            Some(held) if link_seq - held.first < held.count => {
                Take::Served(&held.item, (link_seq - held.first) as usize)
            }
            _ if self.lapsed[word] & mask != 0 => Take::Hopeless,
            _ => return Take::Missing,
        };
        self.served[word] |= mask;
        answer
    }

    /// Where `seq`'s bits are: their word and the mask within it.
    fn bit(&self, seq: u64) -> (usize, u64) {
        let at = seq as usize & (self.capacity.next_power_of_two() - 1);
        (at / 64, 1 << (at % 64))
    }

    /// The items held, oldest first.
    pub fn items(&self) -> impl Iterator<Item = &T> {
        self.items.iter().map(|held| &held.item)
    }

    /// Number of items held (a diagnostic: an item is held until it
    /// expires or its last sequence leaves the window, served or not).
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
    /// many of them arrived as first transmissions. Taking it closes
    /// the monitor's hello tick.
    pub fn take_evidence(&mut self) -> (u64, u64) {
        std::mem::take(&mut self.evidence)
    }

    /// The evidence [`GapTracker::take_evidence`] would hand over now,
    /// left where it is: the open tick, as the link monitor judges it
    /// between hello ticks.
    pub fn evidence(&self) -> (u64, u64) {
        self.evidence
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
        match b.take(seq) {
            Take::Served(item, place) => Some((item.clone(), place)),
            _ => None,
        }
    }

    /// `push_run` of an item that never expires, dropping what leaves.
    fn keep(b: &mut SendBuffer<Bytes>, first: u64, count: usize, item: Bytes) {
        b.push_run(first, count, item, Micros::MAX, Micros::ZERO, drop);
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
        assert!(served(&mut b, 2).is_some());
        assert!(served(&mut b, 3).is_some());
    }

    /// Each sequence of a frame is served once, with its place in the
    /// frame; the frame itself stays for its other sequences.
    #[test]
    fn every_sequence_of_a_frame_is_served_once() {
        let mut b = SendBuffer::new(RETRANSMIT_BUFFER);
        let frame = Bytes::from_static(b"thirty-two records");
        let never = Micros::MAX;
        b.push_run(100, 32, frame.clone(), never, Micros::ZERO, |_| panic!("nothing leaves"));
        for seq in [116, 100, 131, 101] {
            assert_eq!(served(&mut b, seq), Some((frame.clone(), (seq - 100) as usize)));
            assert_eq!(served(&mut b, seq), None, "sequence {seq} a second time");
        }
        assert_eq!(b.len(), 1, "held for the sequences not yet asked for");
        let rest = (102..131)
            .filter(|&seq| seq != 116)
            .filter(|&seq| served(&mut b, seq).is_some())
            .count();
        assert_eq!(rest, 28);
    }

    /// Nothing is served that was never pushed — before, between or
    /// after the frames — or that is older than the newest sequence
    /// less the window, whatever frame still holds it.
    #[test]
    fn only_pushed_sequences_inside_the_window_are_served() {
        let mut b = SendBuffer::new(64);
        assert_eq!(served(&mut b, 0), None, "nothing pushed yet");
        keep(&mut b, 10, 20, Bytes::from_static(b"first"));
        // A gap at 30..40: a shed run took no sequences, say.
        keep(&mut b, 40, 40, Bytes::from_static(b"second"));
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
            let frame = Bytes::from(buf);
            b.push_run(first, count, frame, Micros::MAX, Micros::ZERO, |old| pool.recycle(old));
        };
        push(&mut b, &mut pool, 0, 32);
        push(&mut b, &mut pool, 32, 32);
        assert_eq!((b.len(), pool.idle()), (2, 0), "the window is exactly the two frames");
        // One sequence more and frame 0's first sequence leaves; its 31
        // others are still in the window.
        push(&mut b, &mut pool, 64, 1);
        assert_eq!((b.len(), pool.idle()), (3, 0));
        assert!(served(&mut b, 1).is_some() && served(&mut b, 0).is_none());
        // 30 more, and 31 is still in; one after, and sequence 31, the
        // frame's last, leaves — and so does the frame.
        push(&mut b, &mut pool, 65, 30);
        assert_eq!((b.len(), pool.idle()), (4, 0));
        push(&mut b, &mut pool, 95, 1);
        assert_eq!(b.len(), 4, "frame 0 left");
        assert_eq!(pool.idle(), 1, "and its buffer is the pool's again");
        assert_eq!(served(&mut b, 32).map(|(frame, place)| (frame[7], place)), Some((32, 0)));
    }

    /// An item leaves at the first push or release pass after its
    /// expiry — not at the instant itself, when its last packet can
    /// still make it, and never before — and a NACK for a sequence of
    /// it then reads hopeless, once.
    #[test]
    fn an_item_leaves_at_the_push_or_pass_after_it_expires() {
        let ms = Micros::from_millis;
        let mut b = SendBuffer::new(RETRANSMIT_BUFFER);
        let mut released = Vec::new();
        b.push_run(0, 32, "a", ms(65), ms(0), |old| released.push(old));
        b.push_run(32, 32, "b", ms(70), ms(1), |old| released.push(old));
        b.release_expired(ms(65), |old| released.push(old));
        assert!(released.is_empty(), "at its expiry an item is still held");
        assert_eq!(b.take(0), Take::Served(&"a", 0));
        b.release_expired(ms(66), |old| released.push(old));
        assert_eq!(released, ["a"], "the pass after its expiry lets it go");
        assert_eq!(b.take(1), Take::Hopeless);
        assert_eq!(b.take(1), Take::Missing, "answered once");
        assert_eq!(b.take(0), Take::Missing, "served before it left");
        b.push_run(64, 1, "c", ms(200), ms(70), |old| released.push(old));
        assert_eq!(released, ["a"]);
        b.push_run(65, 1, "d", ms(200), ms(71), |old| released.push(old));
        assert_eq!(released, ["a", "b"], "so does the push after it");
        assert_eq!(b.take(63), Take::Hopeless);
        assert_eq!(b.take(65), Take::Served(&"d", 0));
        assert_eq!(b.take(66), Take::Missing, "never pushed");
        assert_eq!(b.len(), 2);
    }

    /// An item that never expires leaves only when its last sequence
    /// leaves the window, however late the pass; its sequences out of
    /// the window are missing, not hopeless.
    #[test]
    fn an_item_that_never_expires_leaves_only_by_the_window() {
        let late = Micros::MAX;
        let mut b = SendBuffer::new(64);
        let mut released = Vec::new();
        b.push_run(0, 32, 0, Micros::MAX, late, |old| released.push(old));
        b.push_run(32, 32, 1, Micros::MAX, late, |old| released.push(old));
        b.release_expired(late, |old| released.push(old));
        b.push_run(64, 1, 2, Micros::MAX, late, |old| released.push(old));
        assert!(released.is_empty(), "item 0's last sequence is still in the window");
        b.push_run(65, 31, 3, Micros::MAX, late, |old| released.push(old));
        assert_eq!(released, [0]);
        assert_eq!(b.take(31), Take::Missing, "out of the window");
        assert_eq!(b.take(32), Take::Served(&1, 0));
    }

    /// Release is from the front only: an expired item behind one with a
    /// longer budget waits for it — but no longer than the window keeps
    /// the front, and then leaves with it.
    #[test]
    fn an_expired_item_behind_a_long_budget_waits_no_longer_than_the_window() {
        let ms = Micros::from_millis;
        let mut b = SendBuffer::new(64);
        let mut released = Vec::new();
        b.push_run(0, 16, "long", ms(1_000), ms(0), |old| released.push(old));
        b.push_run(16, 16, "short", ms(65), ms(0), |old| released.push(old));
        b.release_expired(ms(100), |old| released.push(old));
        assert!(released.is_empty(), "the unexpired front holds it back");
        assert_eq!(b.take(20), Take::Served(&"short", 4));
        b.push_run(32, 32, "next", ms(200), ms(100), |old| released.push(old));
        assert!(released.is_empty());
        b.push_run(64, 16, "more", ms(200), ms(100), |old| released.push(old));
        assert_eq!(released, ["long", "short"], "the front left the window, the expired follow");
        assert_eq!(b.take(21), Take::Hopeless);
        assert_eq!(b.take(20), Take::Missing, "served while held");
        assert_eq!(b.take(10), Take::Missing, "out of the window");
        assert_eq!(b.len(), 2);
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
            assert!(served(&mut b, seq).is_some(), "seq {seq} present");
            assert_eq!(b.take(seq), Take::Missing, "seq {seq} single-shot");
        }
        assert_eq!(b.len(), 8, "served, yet held until the window moves past them");
    }
}
