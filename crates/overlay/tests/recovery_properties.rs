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
//!   exactly with a per-sequence model, and never answers the same
//!   sequence twice; items leave on expiry or by the window exactly
//!   when the model says, and never later than by the window alone.
//! - **Frame agreement**: [`GapTracker::observe_run`] on a frame is the
//!   loop of [`GapTracker::observe_packet`] over its packets — same
//!   NACKs in the same order, same evidence, same bookkeeping —
//!   wherever the frame starts and whatever its sequences do.

use dg_overlay::recovery::{GapTracker, SendBuffer, Take, RETRANSMIT_BUFFER};
use dg_topology::Micros;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet, VecDeque};

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

/// What [`SendBuffer::take`] answered, owned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Answer {
    Served(usize, usize),
    Hopeless,
    Missing,
}

fn answer(take: Take<'_, usize>) -> Answer {
    match take {
        Take::Served(&item, place) => Answer::Served(item, place),
        Take::Hopeless => Answer::Hopeless,
        Take::Missing => Answer::Missing,
    }
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
    /// sequences pushed, each answered at most once: served with the
    /// item that holds it and its place there while the item is held,
    /// hopeless once the item left on expiry — for items of 1–40
    /// sequences, gaps between them, capacities above and below an
    /// item's size, budgets from none to never, release passes in
    /// between, and across eviction. Items leave from the front, each
    /// at the first push or pass that finds its last sequence out of the
    /// window or its expiry passed; and the buffer never holds more than
    /// the same pushes hold by the window alone, ⌈capacity / r⌉ + 1 with
    /// `r` sequences the smallest item.
    #[test]
    fn send_buffer_matches_model(
        capacity in 1usize..96,
        ops in proptest::collection::vec(
            (0u8..4, 0u64..5, 1usize..=40, 0u64..120, 0u64..30, 0usize..2_400, any::<bool>()),
            1..300,
        ),
    ) {
        let ms = Micros::from_millis;
        let mut buffer: SendBuffer<usize> = SendBuffer::new(capacity);
        // The same pushes, never expiring: what the window alone holds.
        let mut by_window: SendBuffer<usize> = SendBuffer::new(capacity);
        // Per sequence pushed: the item (its push index) and the place.
        let mut model: HashMap<u64, (usize, usize)> = HashMap::new();
        // Per item: its last sequence and its expiry.
        let mut items: Vec<(u64, Micros)> = Vec::new();
        let mut held: VecDeque<usize> = VecDeque::new();
        // Items that left on expiry with a sequence in the window.
        let mut lapsed: HashSet<usize> = HashSet::new();
        let mut answered: HashSet<u64> = HashSet::new();
        let (mut next, mut now, mut newest, mut fewest) = (0u64, Micros::ZERO, None, usize::MAX);
        let (mut released, mut expected) = (Vec::new(), Vec::new());
        for &(op, gap, count, budget, advance, idx, twice) in &ops {
            now = now.saturating_add(ms(advance));
            match op {
                0 | 1 => {
                    let first = next + gap;
                    let expires =
                        if budget >= 100 { Micros::MAX } else { now.saturating_add(ms(budget)) };
                    let item = items.len();
                    buffer.push_run(first, count, item, expires, now, |old| released.push(old));
                    by_window.push_run(first, count, item, Micros::MAX, now, drop);
                    for place in 0..count {
                        model.insert(first + place as u64, (item, place));
                    }
                    next = first + count as u64;
                    newest = Some(next - 1);
                    items.push((next - 1, expires));
                    held.push_back(item);
                    fewest = fewest.min(count);
                }
                2 => buffer.release_expired(now, |old| released.push(old)),
                _ => {
                    let target = idx as u64 % (next + 3);
                    let in_window =
                        newest.is_some_and(|n| target <= n && n - target < capacity as u64);
                    let want = match model.get(&target) {
                        _ if !in_window || answered.contains(&target) => Answer::Missing,
                        Some(&(item, place)) if held.contains(&item) => Answer::Served(item, place),
                        Some(&(item, _)) if lapsed.contains(&item) => Answer::Hopeless,
                        _ => Answer::Missing,
                    };
                    if want != Answer::Missing {
                        answered.insert(target);
                    }
                    prop_assert_eq!(answer(buffer.take(target)), want, "seq {}", target);
                    if twice {
                        prop_assert_eq!(
                            answer(buffer.take(target)),
                            Answer::Missing,
                            "a sequence must not be answered twice"
                        );
                    }
                    prop_assert_eq!(buffer.len(), held.len(), "answering releases nothing");
                    continue;
                }
            }
            while let Some(&front) = held.front() {
                let (last, expires) = items[front];
                let left = newest.is_some_and(|n: u64| n - last >= capacity as u64);
                if !left && now <= expires {
                    break;
                }
                held.pop_front();
                if !left {
                    lapsed.insert(front);
                }
                expected.push(front);
            }
            prop_assert_eq!(&released, &expected);
            prop_assert_eq!(buffer.len(), held.len());
            prop_assert!(buffer.len() <= by_window.len());
            prop_assert!(buffer.len() <= capacity.div_ceil(fewest) + 1);
        }
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
