//! The flooded link-state database.
//!
//! A node reports the condition of its in-links when what it
//! advertises changes (see [`crate::core`]'s control plane: first
//! contact, a flag transition, or a move a scheme can act on); the
//! reports are flooded with per-origin (epoch, sequence) stamps — newer
//! replaces older, duplicates are not re-flooded. Each node's database
//! thus converges to a network-wide [`NetworkState`] — the input the
//! routing schemes consume.
//!
//! A node mints a fresh epoch at process start. A restarted node's
//! sequence numbers reset to zero, but its higher epoch makes its
//! reports strictly newer than anything from the previous incarnation,
//! so they are not discarded as stale.
//!
//! Nothing ages out. A report stands until its origin replaces it. An
//! origin that dies leaves its last report in every database, alike
//! everywhere. Its out-links do not stay clean: each is some
//! neighbour's in-link, which that neighbour declares down once the
//! dead origin's hellos have been silent for
//! [`crate::monitor::LINK_DOWN_INTERVALS`] intervals, and floods. A
//! flood lost on the way is repaired by the digest exchange
//! ([`LinkStateDb::digest`], [`LinkStateDb::updates_newer_than`]).

use crate::wire::{DigestEntry, LinkStateEntry, LinkStateUpdate};
use dg_topology::{EdgeId, Graph, Micros, NodeId};
use dg_trace::{LinkCondition, NetworkState};

/// How long a flooded report waits for a neighbour's ack before it is
/// retransmitted (doubles per retry).
pub const LSA_RETRANSMIT_TIMEOUT: Micros = Micros::from_millis(100);

/// Retransmission budget per (neighbour, origin) link-state report; an
/// exhausted report is abandoned and left to anti-entropy.
pub const LSA_MAX_RETRANSMITS: u32 = 4;

/// The condition a database holds for a reported link: a down link
/// reads as fully lossy, whatever loss the entry carries.
pub(crate) fn reported_condition(entry: &LinkStateEntry) -> LinkCondition {
    if entry.down {
        LinkCondition::down()
    } else {
        LinkCondition::new(
            f64::from(entry.loss),
            Micros::from_micros(u64::from(entry.extra_latency_us)),
        )
    }
}

/// Per-node view of every link's reported condition.
#[derive(Debug)]
pub struct LinkStateDb {
    /// The latest report per origin node, kept verbatim so anti-entropy
    /// repair (§ digest exchange) can re-send it to a neighbour that
    /// missed it.
    origins: Vec<Option<LinkStateUpdate>>,
    /// Latest reported condition per edge.
    conditions: Vec<LinkCondition>,
}

impl LinkStateDb {
    /// An empty database for `graph`: all links presumed clean.
    pub fn new(graph: &Graph) -> Self {
        LinkStateDb {
            origins: (0..graph.node_count()).map(|_| None).collect(),
            conditions: vec![LinkCondition::CLEAN; graph.edge_count()],
        }
    }

    /// Applies an update and says whether it was new (and should
    /// therefore be re-flooded to neighbours).
    ///
    /// Acceptance is by `(epoch, seq)` lexicographic order: a higher
    /// epoch always wins (restarted origin), within an epoch a higher
    /// sequence wins. Stale or duplicate updates are ignored. Entries
    /// referencing unknown edges are skipped rather than erroring: a
    /// malformed report from one node must not poison the database.
    pub fn apply(&mut self, update: &LinkStateUpdate) -> bool {
        let Some(slot) = self.origins.get_mut(update.origin.index()) else {
            return false;
        };
        if slot.as_ref().is_some_and(|r| (update.epoch, update.seq) <= (r.epoch, r.seq)) {
            return false;
        }
        for entry in &update.entries {
            if let Some(c) = self.conditions.get_mut(entry.edge.index()) {
                *c = reported_condition(entry);
            }
        }
        *slot = Some(update.clone());
        true
    }

    /// The reported condition of `edge`.
    pub(crate) fn condition(&self, edge: EdgeId) -> LinkCondition {
        self.conditions[edge.index()]
    }

    /// Snapshot of the database as a [`NetworkState`] stamped `now`.
    pub fn network_state(&self, now: Micros) -> NetworkState {
        NetworkState::from_conditions(now, self.conditions.clone())
    }

    /// How many origins have reported.
    pub fn origins_heard(&self) -> usize {
        self.origins.iter().filter(|s| s.is_some()).count()
    }

    /// Anti-entropy summary of the database: the latest `(epoch, seq)`
    /// stamp per origin heard, in ascending origin order (so two equal
    /// databases produce byte-identical digests).
    pub fn digest(&self) -> Vec<DigestEntry> {
        self.origins
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| {
                slot.as_ref().map(|r| DigestEntry {
                    origin: NodeId::new(i as u32),
                    epoch: r.epoch,
                    seq: r.seq,
                })
            })
            .collect()
    }

    /// The stored reports a peer advertising `remote` is missing: every
    /// origin whose local stamp is strictly newer than the peer's, or
    /// that the peer does not know at all. Pushing these back closes the
    /// gap a lost flood or a healed partition left.
    pub fn updates_newer_than(&self, remote: &[DigestEntry]) -> Vec<LinkStateUpdate> {
        self.origins
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| {
                let r = slot.as_ref()?;
                let theirs =
                    remote.iter().find(|e| e.origin.index() == i).map(|e| (e.epoch, e.seq));
                match theirs {
                    Some(stamp) if (r.epoch, r.seq) <= stamp => None,
                    _ => Some(r.clone()),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_topology::presets;

    fn update(origin: u32, epoch: u64, seq: u64, edge: u32, loss: f32) -> LinkStateUpdate {
        LinkStateUpdate {
            origin: NodeId::new(origin),
            epoch,
            seq,
            entries: vec![LinkStateEntry {
                edge: EdgeId::new(edge),
                loss,
                extra_latency_us: 500,
                down: false,
            }],
        }
    }

    fn db() -> LinkStateDb {
        LinkStateDb::new(&presets::north_america_12())
    }

    #[test]
    fn applies_new_and_rejects_stale() {
        let mut db = db();
        assert_eq!(db.origins_heard(), 0);
        assert!(db.apply(&update(0, 1, 1, 3, 0.5)));
        assert_eq!(db.origins_heard(), 1);
        assert!(!db.apply(&update(0, 1, 1, 3, 0.9)), "duplicate seq");
        assert!(!db.apply(&update(0, 1, 0, 3, 0.9)), "older seq");
        let st = db.network_state(Micros::ZERO);
        assert!((st.condition(EdgeId::new(3)).loss_rate - 0.5).abs() < 1e-6);
        assert_eq!(st.condition(EdgeId::new(3)).extra_latency, Micros::from_micros(500));
        // Newer seq replaces.
        assert!(db.apply(&update(0, 1, 2, 3, 0.0)));
        let st = db.network_state(Micros::ZERO);
        assert_eq!(st.condition(EdgeId::new(3)).loss_rate, 0.0);
    }

    #[test]
    fn restarted_origin_with_reset_seq_is_accepted_via_epoch() {
        let mut db = db();
        // First life: epoch 100, sequence climbed to 50.
        assert!(db.apply(&update(2, 100, 50, 5, 0.4)));
        // Restart resets the sequence to 1 — the old code dropped this
        // as stale; the higher epoch must win.
        assert!(db.apply(&update(2, 200, 1, 5, 0.0)), "post-restart report");
        let st = db.network_state(Micros::ZERO);
        assert_eq!(st.condition(EdgeId::new(5)).loss_rate, 0.0);
        // But the old life's leftovers are now stale.
        assert!(!db.apply(&update(2, 100, 60, 5, 0.9)));
    }

    #[test]
    fn down_entries_read_as_fully_lossy() {
        let mut db = db();
        let mut u = update(1, 1, 1, 4, 0.02);
        u.entries[0].down = true;
        assert!(db.apply(&u));
        let st = db.network_state(Micros::ZERO);
        assert_eq!(st.condition(EdgeId::new(4)).loss_rate, 1.0);
    }

    #[test]
    fn unknown_origin_or_edge_is_harmless() {
        let mut db = db();
        assert!(!db.apply(&update(99, 1, 1, 3, 0.5)));
        // Known origin, bogus edge id: accepted but entry skipped.
        assert!(db.apply(&update(1, 1, 1, 9_999, 0.5)));
        let st = db.network_state(Micros::ZERO);
        assert!(st.problematic_edges(0.01).is_empty());
    }

    #[test]
    fn state_time_is_stamped() {
        let db = db();
        assert_eq!(db.network_state(Micros::from_secs(9)).time(), Micros::from_secs(9));
    }

    #[test]
    fn digest_summarizes_origins_in_order() {
        let mut db = db();
        assert!(db.digest().is_empty());
        assert!(db.apply(&update(3, 10, 2, 4, 0.1)));
        assert!(db.apply(&update(1, 7, 9, 2, 0.2)));
        let d = db.digest();
        assert_eq!(d.len(), 2);
        assert_eq!((d[0].origin, d[0].epoch, d[0].seq), (NodeId::new(1), 7, 9));
        assert_eq!((d[1].origin, d[1].epoch, d[1].seq), (NodeId::new(3), 10, 2));
    }

    #[test]
    fn repair_covers_missing_and_stale_origins_only() {
        let mut a = db();
        let mut b = db();
        // a knows origins 0 (newer than b) and 2 (unknown to b); both
        // know origin 5 at the same stamp.
        assert!(a.apply(&update(0, 1, 4, 3, 0.1)));
        assert!(a.apply(&update(2, 3, 1, 5, 0.2)));
        assert!(a.apply(&update(5, 2, 2, 7, 0.3)));
        assert!(b.apply(&update(0, 1, 2, 3, 0.9)));
        assert!(b.apply(&update(5, 2, 2, 7, 0.3)));
        let repairs = a.updates_newer_than(&b.digest());
        let mut origins: Vec<u32> = repairs.iter().map(|u| u.origin.index() as u32).collect();
        origins.sort_unstable();
        assert_eq!(origins, vec![0, 2]);
        // Applying the repairs converges b's digest to a's.
        for u in &repairs {
            assert!(b.apply(u));
        }
        assert_eq!(a.digest(), b.digest());
        // Nothing further to repair, in either direction.
        assert!(a.updates_newer_than(&b.digest()).is_empty());
        assert!(b.updates_newer_than(&a.digest()).is_empty());
    }

    #[test]
    fn repair_ignores_origins_where_peer_is_newer() {
        let mut a = db();
        let mut b = db();
        assert!(a.apply(&update(4, 1, 1, 6, 0.1)));
        assert!(b.apply(&update(4, 2, 0, 6, 0.0)), "higher epoch wins");
        assert!(a.updates_newer_than(&b.digest()).is_empty());
        assert_eq!(b.updates_newer_than(&a.digest()).len(), 1);
    }
}
