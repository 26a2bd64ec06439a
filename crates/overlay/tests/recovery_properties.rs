//! Property tests for the hop-by-hop recovery primitives under random
//! reorder, duplication, and loss.
//!
//! Invariants under test:
//! - **Single-retransmission discipline**: across any arrival pattern,
//!   [`GapTracker::observe`] NACKs each sequence at most once, and
//!   [`GapTracker::due_rerequests`] re-offers each at most once more —
//!   so no sequence is ever requested more than twice in total.
//! - **Bounded memory**: the tracker's bookkeeping stays bounded no
//!   matter how long or how lossy the stream is.
//! - **Buffer agreement**: [`SendBuffer::take`] (a binary search over
//!   the sequence-sorted items, each holding a run of sequences) agrees
//!   exactly with a per-sequence model, and never serves the same
//!   sequence twice.
//! - **Frame agreement**: [`GapTracker::observe_run`] on a frame is the
//!   loop of [`GapTracker::observe_packet`] over its packets — same
//!   NACKs in the same order, same evidence, same bookkeeping —
//!   wherever the frame starts and whatever its sequences do.

use dg_overlay::recovery::{GapTracker, SendBuffer, RETRANSMIT_BUFFER};
use dg_topology::Micros;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

/// Turns a loss/dup/reorder plan into an arrival stream of link seqs.
fn arrivals(n: u64, lost: &HashSet<u64>, dup: &HashSet<u64>, swaps: &[(usize, usize)]) -> Vec<u64> {
    let mut stream: Vec<u64> = (0..n).filter(|s| !lost.contains(s)).collect();
    let dupped: Vec<u64> = stream.iter().copied().filter(|s| dup.contains(s)).collect();
    stream.extend(dupped);
    for &(a, b) in swaps {
        if !stream.is_empty() {
            let (a, b) = (a % stream.len(), b % stream.len());
            stream.swap(a, b);
        }
    }
    stream
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// No sequence is NACKed twice by `observe`, and a re-request adds
    /// at most one more, regardless of reordering and duplication.
    #[test]
    fn each_sequence_is_requested_at_most_twice(
        n in 1u64..300,
        lost in proptest::collection::vec(0u64..300, 0..40),
        dup in proptest::collection::vec(0u64..300, 0..20),
        swaps in proptest::collection::vec((0usize..300, 0usize..300), 0..30),
        rerequest_every in 1u64..20,
    ) {
        let lost: HashSet<u64> = lost.into_iter().collect();
        let dup: HashSet<u64> = dup.into_iter().collect();
        let stream = arrivals(n, &lost, &dup, &swaps);
        let mut tracker = GapTracker::new();
        let mut requests: HashMap<u64, u32> = HashMap::new();
        for (i, &seq) in stream.iter().enumerate() {
            let now = Micros::from_micros(i as u64 * 1_000);
            for s in tracker.observe(seq, now) {
                *requests.entry(s).or_default() += 1;
            }
            // Periodically fire the re-request timer with a silence
            // horizon short enough to actually re-offer something.
            if (i as u64).is_multiple_of(rerequest_every) {
                for s in tracker.due_rerequests(now, Micros::from_micros(2_000), None).0 {
                    *requests.entry(s).or_default() += 1;
                }
            }
        }
        // Drain the timer once more, far in the future, then verify it
        // never offers anything a third time.
        let end = Micros::from_micros((stream.len() as u64 + 10) * 1_000);
        for s in tracker.due_rerequests(end, Micros::ZERO, None).0 {
            *requests.entry(s).or_default() += 1;
        }
        prop_assert!(tracker.due_rerequests(end, Micros::ZERO, None).0.is_empty());
        for (&seq, &count) in &requests {
            prop_assert!(
                count <= 2,
                "seq {seq} requested {count} times — single NACK plus one re-request is the cap"
            );
        }
        // The final zero-silence drain took every pending entry, so
        // nothing is left outstanding.
        prop_assert_eq!(tracker.outstanding(), 0);
    }

    /// Bookkeeping memory stays bounded even across an arbitrarily long
    /// and lossy stream (the tracker prunes below a sliding floor).
    #[test]
    fn tracker_memory_is_bounded(
        stride in 2u64..9,
        rounds in 100u64..2_000,
    ) {
        let mut tracker = GapTracker::new();
        // Deliver only every `stride`-th sequence: maximal sustained
        // gappiness without ever healing.
        for i in 0..rounds {
            let now = Micros::from_micros(i * 1_000);
            tracker.observe(i * stride, now);
        }
        // `requested` prunes at 4 * MAX_NACK (256); `pending` can only
        // be smaller. Allow one unpruned batch of slack.
        prop_assert!(
            tracker.outstanding() <= 320,
            "outstanding grew to {} — bookkeeping is unbounded",
            tracker.outstanding()
        );
    }

    /// Serving agrees with a per-sequence model — the last `capacity`
    /// sequences pushed, each served at most once, with the item that
    /// holds it and its place there — for items of 1–40 sequences,
    /// gaps between them, capacities above and below an item's size,
    /// and across eviction; and an item is held exactly while its last
    /// sequence is in the window.
    #[test]
    fn send_buffer_matches_model(
        capacity in 1usize..96,
        pushes in proptest::collection::vec((0u64..5, 1usize..=40), 1..60),
        takes in proptest::collection::vec((0usize..2_400, any::<bool>()), 0..300),
    ) {
        let mut buffer: SendBuffer<usize> = SendBuffer::new(capacity);
        // Per sequence pushed: the item (its push index) and the place.
        let mut model: HashMap<u64, (usize, usize)> = HashMap::new();
        let mut served: HashSet<u64> = HashSet::new();
        let (mut next, mut released) = (0u64, Vec::new());
        let mut items: Vec<(u64, u64)> = Vec::new();
        for (item, &(gap, count)) in pushes.iter().enumerate() {
            let first = next + gap;
            buffer.push_run(first, count, item, |old| released.push(old));
            for place in 0..count {
                model.insert(first + place as u64, (item, place));
            }
            items.push((first, first + count as u64 - 1));
            next = first + count as u64;
        }
        let newest = next - 1;
        let in_window = |seq: u64| seq <= newest && newest - seq < capacity as u64;
        // Released, oldest first: exactly the items whose last sequence
        // left the window.
        let gone: Vec<usize> = (0..items.len()).filter(|&i| !in_window(items[i].1)).collect();
        prop_assert_eq!(&released, &gone);
        prop_assert_eq!(buffer.len(), items.len() - gone.len());
        for &(idx, second_take) in &takes {
            let target = idx as u64 % (next + 3);
            let expected = model
                .get(&target)
                .copied()
                .filter(|_| in_window(target) && served.insert(target));
            prop_assert_eq!(buffer.take(target).map(|(&item, place)| (item, place)), expected);
            if second_take {
                prop_assert_eq!(
                    buffer.take(target),
                    None,
                    "a served sequence must not be served twice"
                );
            }
        }
        prop_assert_eq!(buffer.len(), items.len() - gone.len(), "serving releases nothing");
    }

    /// A frame handed to the tracker whole leaves it exactly as the
    /// same packets handed over one by one do, and asks for the same
    /// sequences — for frames that continue the stream, jump ahead of
    /// it, fall back inside the sender's buffer, fall a restart's
    /// distance back, repeat a sequence or skip some.
    #[test]
    fn observe_run_is_the_loop_of_observe_packet(
        frames in proptest::collection::vec(
            (0u8..5, 1u64..100, any::<bool>(), proptest::collection::vec(0u64..4, 1..40)),
            1..40,
        ),
    ) {
        let ms = Micros::from_millis;
        let horizon = RETRANSMIT_BUFFER as u64;
        // What both trackers expect next, by the tracker's own rule.
        let mut expect = 3 * horizon;
        let (mut by_run, mut by_packet) = (GapTracker::new(), GapTracker::new());
        by_run.observe(expect - 1, Micros::ZERO);
        by_packet.observe(expect - 1, Micros::ZERO);
        for (i, (start, delta, consecutive, steps)) in frames.iter().enumerate() {
            let now = ms(10 * (i as u64 + 1));
            let mut seq = match start {
                0 | 1 => expect,
                2 => expect + delta,
                3 => expect.saturating_sub(*delta),
                _ => expect.saturating_sub(horizon + delta),
            };
            // Every other frame's budget is spent by the time anyone
            // could ask twice.
            let deadline = if i.is_multiple_of(2) { ms(15) } else { Micros::MAX };
            let packets: Vec<(u64, Micros, Micros)> = steps
                .iter()
                .map(|&step| {
                    let packet = (seq, now.saturating_sub(ms(1)), deadline);
                    seq += if *consecutive { 1 } else { step };
                    packet
                })
                .collect();
            let whole = by_run.observe_run(now, packets.iter().copied());
            let one_by_one: Vec<Vec<u64>> = packets
                .iter()
                .map(|&(seq, sent_at, deadline)| by_packet.observe_packet(seq, now, sent_at, deadline))
                .filter(|missing| !missing.is_empty())
                .collect();
            prop_assert_eq!(whole, one_by_one, "frame {} from {}", i, packets[0].0);
            prop_assert_eq!(by_run.outstanding(), by_packet.outstanding());
            for &(seq, ..) in &packets {
                if seq >= expect || expect - seq > horizon {
                    expect = seq + 1;
                }
            }
            if i % 3 == 2 {
                prop_assert_eq!(by_run.take_evidence(), by_packet.take_evidence());
                prop_assert_eq!(
                    by_run.due_rerequests(now, ms(20), Some(ms(4))),
                    by_packet.due_rerequests(now, ms(20), Some(ms(4)))
                );
            }
        }
        // The next in-order packet finds both at the same expectation.
        prop_assert_eq!(by_run.observe(expect, Micros::ZERO), by_packet.observe(expect, Micros::ZERO));
        prop_assert_eq!(by_run.take_evidence(), by_packet.take_evidence());
        let end = ms(10_000);
        prop_assert_eq!(
            by_run.due_rerequests(end, Micros::ZERO, None),
            by_packet.due_rerequests(end, Micros::ZERO, None)
        );
        prop_assert_eq!(by_run.outstanding(), 0);
    }
}
