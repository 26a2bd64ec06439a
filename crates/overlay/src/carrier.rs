//! The carrier: what becomes of a frame between a core's `Actions` and
//! the wire. See `docs/RUNTIME.md`.
//!
//! A [`Carrier`] reads no clock and owns no socket: it is told the
//! instant, shown the node's [`FaultPlan`] and statistics, and handed a
//! sink that puts bytes on the wire and says whether it took them. A
//! verdict of the fault plan is acted on here and nowhere else, so the
//! UDP driver ([`crate::runtime`]) and the stepped harness
//! ([`crate::simnet`]) cannot disagree about it.

use crate::fault::{corrupt_in_place, FaultPlan};
use crate::metrics::NodeStats;
use bytes::Bytes;
use dg_core::SlaClass;
use dg_topology::{Micros, NodeId};
use std::collections::BTreeMap;

/// Accounts one wire transmission, node-wide and on its link.
fn account_send(stats: &mut NodeStats, to: NodeId, len: usize) {
    stats.counters.datagrams_sent += 1;
    stats.counters.bytes_sent += len as u64;
    let link = stats.link(to);
    link.datagrams += 1;
    link.bytes += len as u64;
}

/// A node's way to the wire: the departure queue of the frames its
/// fault plan delayed, keyed by departure instant and then by arrival,
/// so the first entry leaves first and an instant's frames leave in the
/// order they came.
#[derive(Default)]
pub(crate) struct Carrier {
    /// `(to, datagram, counts as data)` per departure.
    queue: BTreeMap<(Micros, u64), (NodeId, Bytes, bool)>,
    /// Data frames queued — the `backlog` the core's shed bands and
    /// overload detector are told. Control frames do not count.
    data: u64,
    pushed: u64,
}

impl Carrier {
    /// Carries `frames` out at `now`: each through `faults` to `wire`
    /// or the departure queue. What only the carrier sees — a wire
    /// send, a fault verdict, a parked shed — is counted into `stats`.
    pub(crate) fn carry(
        &mut self,
        now: Micros,
        frames: &mut Vec<(NodeId, Bytes, Option<SlaClass>)>,
        faults: &FaultPlan,
        stats: &mut NodeStats,
        shipper_queue: u64,
        mut wire: impl FnMut(NodeId, Bytes) -> bool,
    ) {
        for (to, datagram, class) in frames.drain(..) {
            let verdict = faults.decide(to);
            if verdict.drop {
                stats.counters.fault_drops += 1;
                continue;
            }
            let datagram = if verdict.corrupt {
                stats.counters.fault_corruptions += 1;
                let mut bytes = datagram.to_vec();
                corrupt_in_place(&mut bytes, verdict.corrupt_seed);
                Bytes::from(bytes)
            } else {
                datagram
            };
            // The hot path: no delay, so no queue and no context
            // switch — the frame leaves on the calling thread.
            if verdict.delay == Micros::ZERO && !verdict.duplicate {
                // A datagram the wire refuses was not sent.
                let len = datagram.len();
                if wire(to, datagram) {
                    account_send(stats, to, len);
                } else {
                    stats.counters.send_errors += 1;
                }
                continue;
            }
            // A delayed frame parks and is accounted as sent — or, a
            // data frame finding `shipper_queue` of them parked, is shed
            // against its class, uncounted. Control frames (no class)
            // never are: data cannot starve hellos into a link-down.
            let depart_at = now.saturating_add(verdict.delay);
            let mut park = |stats: &mut NodeStats, datagram: Bytes| {
                if let Some(class) = class.filter(|_| self.data >= shipper_queue) {
                    stats.shed(class, 1);
                    stats.counters.shipper_drops += 1;
                    return;
                }
                account_send(stats, to, datagram.len());
                self.park(to, datagram, depart_at, class.is_some());
            };
            if verdict.duplicate {
                stats.counters.fault_duplicates += 1;
                park(stats, datagram.clone());
            }
            park(stats, datagram);
        }
    }

    fn park(&mut self, to: NodeId, datagram: Bytes, depart_at: Micros, data: bool) {
        self.data += u64::from(data);
        self.pushed += 1;
        self.queue.insert((depart_at, self.pushed), (to, datagram, data));
    }

    /// Puts every parked frame due at `now` on the wire; returns how
    /// many of them it refused (they were accounted when they parked).
    pub(crate) fn service(
        &mut self,
        now: Micros,
        mut wire: impl FnMut(NodeId, Bytes) -> bool,
    ) -> u64 {
        let mut refused = 0;
        while let Some(entry) = self.queue.first_entry().filter(|e| e.key().0 <= now) {
            let (to, datagram, data) = entry.remove();
            self.data -= u64::from(data);
            refused += u64::from(!wire(to, datagram));
        }
        refused
    }

    /// When the earliest parked frame leaves.
    pub(crate) fn head(&self) -> Option<Micros> {
        self.queue.first_key_value().map(|(&(at, _), _)| at)
    }

    /// Data frames parked toward the wire.
    pub(crate) fn backlog(&self) -> u64 {
        self.data
    }

    /// Parks `shipments` synthetic bulk-class frames addressed to no
    /// peer (they evaporate at `depart_at`): deterministic backlog for
    /// chaos and soak tests, past the bound so the injection itself is
    /// never shed.
    pub(crate) fn inject_overload(&mut self, shipments: usize, depart_at: Micros) {
        for _ in 0..shipments {
            self.park(NodeId::new(u32::MAX), Bytes::new(), depart_at, true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::LinkFault;
    use crate::metrics::JOURNAL_CAPACITY;

    #[test]
    fn the_queue_head_is_the_earliest_departure_and_data_counts_as_backlog() {
        let mut carrier = Carrier::default();
        assert_eq!(carrier.head(), None);
        carrier.park(NodeId::new(1), Bytes::new(), Micros::from_millis(7), true);
        carrier.park(NodeId::new(2), Bytes::new(), Micros::from_millis(3), false);
        carrier.park(NodeId::new(3), Bytes::new(), Micros::from_millis(7), true);
        assert_eq!((carrier.head(), carrier.backlog()), (Some(Micros::from_millis(3)), 2));
        let mut due = Vec::new();
        carrier.service(Micros::from_millis(2), |_, _| panic!("nothing is due"));
        // The wire refuses the frame for node 1: said, and gone all the same.
        let refused = carrier.service(Micros::from_millis(7), |to, _| {
            due.push(to.index());
            to.index() != 1
        });
        assert_eq!(refused, 1);
        assert_eq!(due, [2, 1, 3], "earliest first, FIFO within an instant");
        assert_eq!((carrier.head(), carrier.backlog()), (None, 0));
    }

    /// A frame the wire refuses (`send_to` failed) is an error, not a
    /// transmission.
    #[test]
    fn a_refused_frame_is_not_counted_sent() {
        let (peer, other) = (NodeId::new(1), NodeId::new(2));
        let faults = FaultPlan::with_seed(0);
        let (mut carrier, mut stats) = (Carrier::default(), NodeStats::new(JOURNAL_CAPACITY));
        let frame = Bytes::from_static(b"frame");
        let mut frames = vec![(peer, frame.clone(), None), (other, frame.clone(), None)];
        carrier.carry(Micros::ZERO, &mut frames, &faults, &mut stats, 2, |to, _| to == peer);
        let snap = stats.snapshot(NodeId::new(0));
        assert_eq!((snap.counters.datagrams_sent, snap.counters.send_errors), (1, 1));
        assert_eq!(snap.counters.bytes_sent, frame.len() as u64);
        assert_eq!(snap.links.len(), 1, "no link cell for the refused frame's link");
    }

    /// A delayed data frame finding the queue full is shed against its
    /// class and is not on the books as a transmission; control frames
    /// are parked regardless.
    #[test]
    fn a_shed_frame_is_not_counted_sent() {
        let peer = NodeId::new(1);
        let faults = FaultPlan::with_seed(0);
        faults.set(peer, LinkFault::delayed(Micros::from_secs(60)));
        let (mut carrier, mut stats) = (Carrier::default(), NodeStats::new(JOURNAL_CAPACITY));
        let frame = Bytes::from_static(b"frame");
        let mut frames: Vec<_> =
            [Some(SlaClass::Bulk); 3].map(|class| (peer, frame.clone(), class)).into();
        frames.push((peer, frame.clone(), None));
        frames.push((peer, frame.clone(), Some(SlaClass::Surgical)));
        carrier.carry(Micros::ZERO, &mut frames, &faults, &mut stats, 2, |_, _| {
            panic!("every frame is delayed")
        });
        let counters = stats.snapshot(NodeId::new(0)).counters;
        assert_eq!(carrier.backlog(), 2, "the bound holds");
        assert_eq!((counters.shed_bulk, counters.shed_surgical, counters.shipper_drops), (1, 1, 2));
        assert_eq!(counters.datagrams_sent, 3, "two data frames and the control frame");
        assert_eq!(counters.bytes_sent, 3 * frame.len() as u64);
    }
}
