//! The flooded link-state database.
//!
//! Every node periodically reports the condition of its in-links; the
//! reports are flooded with per-origin (epoch, sequence) stamps — newer
//! replaces older, duplicates are not re-flooded. Each node's database
//! thus converges to a network-wide [`NetworkState`] — the input the
//! routing schemes consume.
//!
//! Two robustness mechanisms keep the database honest under node
//! failures:
//!
//! - **Epochs.** A node mints a fresh epoch at process start. A
//!   restarted node's sequence numbers reset to zero, but its higher
//!   epoch makes its reports strictly newer than anything from the
//!   previous incarnation, so they are not discarded as stale.
//! - **Aging.** An origin that stops refreshing (crashed, partitioned)
//!   would otherwise freeze its last — possibly clean — report in every
//!   database forever. Reports older than `max_age` expire: the edges
//!   that origin reported revert to a pessimistic fully-lossy default
//!   and the origin is forgotten, so even a zero-epoch report from a
//!   replacement process is accepted.

use crate::wire::{DigestEntry, LinkStateUpdate};
use dg_core::scheme::SchemeParams;
use dg_topology::{EdgeId, Graph, Micros};
use dg_trace::{LinkCondition, NetworkState};

/// How long a flooded report waits for a neighbour's ack before it is
/// retransmitted (doubles per retry).
pub const LSA_RETRANSMIT_TIMEOUT: Micros = Micros::from_millis(100);

/// Retransmission budget per (neighbour, origin) link-state report; an
/// exhausted report is abandoned and left to anti-entropy.
pub const LSA_MAX_RETRANSMITS: u32 = 4;

/// The condition assumed for edges whose reporter has gone silent:
/// fully lossy, so routing schemes steer clear until fresh evidence.
fn pessimistic() -> LinkCondition {
    LinkCondition::new(1.0, Micros::ZERO)
}

/// What [`LinkStateDb::apply`] did with an update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Applied {
    /// Stale, duplicate, or from an unknown origin: ignored, and not to
    /// be re-flooded.
    Stale,
    /// New: stored, and to be re-flooded to neighbours.
    Fresh,
    /// New, and it moved some edge across the problem threshold (a
    /// down edge reads as fully lossy): the routes computed from the
    /// database may change, so they are worth recomputing at once
    /// rather than at the next periodic refresh.
    Crossed,
}

impl Applied {
    /// True unless the update was [`Applied::Stale`].
    pub fn is_new(self) -> bool {
        self != Applied::Stale
    }
}

#[derive(Debug)]
struct OriginRecord {
    epoch: u64,
    seq: u64,
    /// When this origin's latest report was applied (local clock).
    refreshed_at: Micros,
    /// Every edge this origin has ever reported, so expiry knows what
    /// to reset.
    edges: Vec<EdgeId>,
    /// The latest report itself, kept verbatim so anti-entropy repair
    /// (§ digest exchange) can re-send it to a neighbour that missed it.
    latest: LinkStateUpdate,
}

/// Per-node view of every link's reported condition.
#[derive(Debug)]
pub struct LinkStateDb {
    /// Latest (epoch, seq) and coverage per origin node.
    origins: Vec<Option<OriginRecord>>,
    /// Latest reported condition per edge.
    conditions: Vec<LinkCondition>,
    /// Reports older than this expire back to [`pessimistic`]; `MAX`
    /// disables aging.
    max_age: Micros,
    /// Loss at which routing schemes count a link as a problem
    /// ([`SchemeParams::problem_loss_threshold`]).
    problem_threshold: f64,
}

impl LinkStateDb {
    /// An empty database for `graph` (all links presumed clean), aging
    /// out origins silent for longer than `max_age` and telling
    /// [`LinkStateDb::apply`]'s callers when an edge crosses the
    /// schemes' problem threshold.
    pub fn new(graph: &Graph, max_age: Micros) -> Self {
        LinkStateDb {
            origins: (0..graph.node_count()).map(|_| None).collect(),
            conditions: vec![LinkCondition::CLEAN; graph.edge_count()],
            max_age,
            problem_threshold: SchemeParams::default().problem_loss_threshold,
        }
    }

    /// Applies an update received at local time `now` and says whether
    /// it was new (and should therefore be re-flooded to neighbours)
    /// and, if so, whether any edge crossed the problem threshold.
    ///
    /// Acceptance is by `(epoch, seq)` lexicographic order: a higher
    /// epoch always wins (restarted origin), within an epoch a higher
    /// sequence wins. Stale or duplicate updates are ignored. Entries
    /// referencing unknown edges are skipped rather than erroring: a
    /// malformed report from one node must not poison the database.
    pub fn apply(&mut self, update: &LinkStateUpdate, now: Micros) -> Applied {
        let Some(slot) = self.origins.get_mut(update.origin.index()) else {
            return Applied::Stale;
        };
        if let Some(record) = slot {
            if (update.epoch, update.seq) <= (record.epoch, record.seq) {
                return Applied::Stale;
            }
        }
        let mut edges: Vec<EdgeId> = slot.take().map(|r| r.edges).unwrap_or_default();
        let mut crossed = false;
        for entry in &update.entries {
            if let Some(c) = self.conditions.get_mut(entry.edge.index()) {
                let was_problem = c.is_problematic(self.problem_threshold);
                *c = if entry.down {
                    pessimistic()
                } else {
                    LinkCondition::new(
                        f64::from(entry.loss),
                        Micros::from_micros(u64::from(entry.extra_latency_us)),
                    )
                };
                crossed |= was_problem != c.is_problematic(self.problem_threshold);
                if !edges.contains(&entry.edge) {
                    edges.push(entry.edge);
                }
            }
        }
        *slot = Some(OriginRecord {
            epoch: update.epoch,
            seq: update.seq,
            refreshed_at: now,
            edges,
            latest: update.clone(),
        });
        if crossed {
            Applied::Crossed
        } else {
            Applied::Fresh
        }
    }

    /// Expires origins that have not refreshed within `max_age` as of
    /// `now`: their reported edges revert to the pessimistic default
    /// and the origin is forgotten (any future report is accepted).
    pub fn expire(&mut self, now: Micros) {
        if self.max_age.is_unreachable() {
            return;
        }
        for slot in &mut self.origins {
            let stale =
                slot.as_ref().is_some_and(|r| now.saturating_sub(r.refreshed_at) > self.max_age);
            if stale {
                let record = slot.take().expect("checked above");
                for edge in record.edges {
                    if let Some(c) = self.conditions.get_mut(edge.index()) {
                        *c = pessimistic();
                    }
                }
            }
        }
    }

    /// Snapshot of the database as a [`NetworkState`] stamped `now`,
    /// after expiring silent origins.
    pub fn network_state(&mut self, now: Micros) -> NetworkState {
        self.expire(now);
        NetworkState::from_conditions(now, self.conditions.clone())
    }

    /// How many origins have a live (unexpired) report.
    pub fn origins_heard(&self) -> usize {
        self.origins.iter().filter(|s| s.is_some()).count()
    }

    /// Anti-entropy summary of the database: the latest `(epoch, seq)`
    /// stamp per live origin, in ascending origin order (so two equal
    /// databases produce byte-identical digests).
    pub fn digest(&self) -> Vec<DigestEntry> {
        self.origins
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| {
                slot.as_ref().map(|r| DigestEntry {
                    origin: dg_topology::NodeId::new(i as u32),
                    epoch: r.epoch,
                    seq: r.seq,
                })
            })
            .collect()
    }

    /// The stored reports a peer advertising `remote` is missing: every
    /// origin whose local stamp is strictly newer than the peer's, or
    /// that the peer does not know at all. Pushing these back closes the
    /// gap a healed partition left, without waiting for each origin's
    /// next periodic refresh to happen to traverse the healed cut.
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
                    _ => Some(r.latest.clone()),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::LinkStateEntry;
    use dg_topology::{presets, NodeId};

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
        LinkStateDb::new(&presets::north_america_12(), Micros::from_secs(10))
    }

    #[test]
    fn applies_new_and_rejects_stale() {
        let mut db = db();
        assert_eq!(db.origins_heard(), 0);
        assert!(db.apply(&update(0, 1, 1, 3, 0.5), Micros::ZERO).is_new());
        assert_eq!(db.origins_heard(), 1);
        assert_eq!(
            db.apply(&update(0, 1, 1, 3, 0.9), Micros::ZERO),
            Applied::Stale,
            "duplicate seq"
        );
        assert_eq!(db.apply(&update(0, 1, 0, 3, 0.9), Micros::ZERO), Applied::Stale, "older seq");
        let st = db.network_state(Micros::ZERO);
        assert!((st.condition(EdgeId::new(3)).loss_rate - 0.5).abs() < 1e-6);
        assert_eq!(st.condition(EdgeId::new(3)).extra_latency, Micros::from_micros(500));
        // Newer seq replaces.
        assert!(db.apply(&update(0, 1, 2, 3, 0.0), Micros::ZERO).is_new());
        let st = db.network_state(Micros::ZERO);
        assert_eq!(st.condition(EdgeId::new(3)).loss_rate, 0.0);
    }

    #[test]
    fn apply_reports_threshold_crossings_only() {
        let mut db = db();
        // Clean -> clean drift, below the 5 % threshold: nothing to act on.
        assert_eq!(db.apply(&update(0, 1, 1, 3, 0.01), Micros::ZERO), Applied::Fresh);
        assert_eq!(db.apply(&update(0, 1, 2, 3, 0.04), Micros::ZERO), Applied::Fresh);
        // Up through the threshold, drift above it, back down through it.
        assert_eq!(db.apply(&update(0, 1, 3, 3, 0.05), Micros::ZERO), Applied::Crossed);
        assert_eq!(db.apply(&update(0, 1, 4, 3, 0.5), Micros::ZERO), Applied::Fresh);
        assert_eq!(db.apply(&update(0, 1, 5, 3, 0.0), Micros::ZERO), Applied::Crossed);
        // A down declaration reads as fully lossy, whatever loss it carries.
        let mut down = update(0, 1, 6, 3, 0.0);
        down.entries[0].down = true;
        assert_eq!(db.apply(&down, Micros::ZERO), Applied::Crossed);
        assert_eq!(db.apply(&update(0, 1, 7, 3, 0.9), Micros::ZERO), Applied::Fresh);
        // A stale report crosses nothing, whatever it says.
        assert_eq!(db.apply(&update(0, 1, 7, 3, 0.0), Micros::ZERO), Applied::Stale);
    }

    #[test]
    fn restarted_origin_with_reset_seq_is_accepted_via_epoch() {
        let mut db = db();
        // First life: epoch 100, sequence climbed to 50.
        assert!(db.apply(&update(2, 100, 50, 5, 0.4), Micros::ZERO).is_new());
        // Restart resets the sequence to 1 — the old code dropped this
        // as stale; the higher epoch must win.
        assert!(db.apply(&update(2, 200, 1, 5, 0.0), Micros::ZERO).is_new(), "post-restart report");
        let st = db.network_state(Micros::ZERO);
        assert_eq!(st.condition(EdgeId::new(5)).loss_rate, 0.0);
        // But the old life's leftovers are now stale.
        assert!(!db.apply(&update(2, 100, 60, 5, 0.9), Micros::ZERO).is_new());
    }

    #[test]
    fn down_entries_read_as_fully_lossy() {
        let mut db = db();
        let mut u = update(1, 1, 1, 4, 0.02);
        u.entries[0].down = true;
        assert!(db.apply(&u, Micros::ZERO).is_new());
        let st = db.network_state(Micros::ZERO);
        assert_eq!(st.condition(EdgeId::new(4)).loss_rate, 1.0);
    }

    #[test]
    fn silent_origin_expires_to_pessimistic_default() {
        let mut db = db();
        assert!(db.apply(&update(0, 1, 1, 3, 0.0), Micros::from_secs(1)).is_new());
        // Still fresh at +5s.
        let st = db.network_state(Micros::from_secs(6));
        assert_eq!(st.condition(EdgeId::new(3)).loss_rate, 0.0);
        assert_eq!(db.origins_heard(), 1);
        // Silent past max_age: the reported edge turns pessimistic and
        // the origin is forgotten.
        let st = db.network_state(Micros::from_secs(12));
        assert_eq!(st.condition(EdgeId::new(3)).loss_rate, 1.0);
        assert_eq!(db.origins_heard(), 0);
        // Any fresh report — even epoch 0, seq 0 — is accepted again.
        assert!(db.apply(&update(0, 0, 0, 3, 0.1), Micros::from_secs(13)).is_new());
    }

    #[test]
    fn unknown_origin_or_edge_is_harmless() {
        let mut db = db();
        assert!(!db.apply(&update(99, 1, 1, 3, 0.5), Micros::ZERO).is_new());
        // Known origin, bogus edge id: accepted but entry skipped.
        assert!(db.apply(&update(1, 1, 1, 9_999, 0.5), Micros::ZERO).is_new());
        let st = db.network_state(Micros::ZERO);
        assert!(st.problematic_edges(0.01).is_empty());
    }

    #[test]
    fn state_time_is_stamped() {
        let mut db = db();
        assert_eq!(db.network_state(Micros::from_secs(9)).time(), Micros::from_secs(9));
    }

    #[test]
    fn digest_summarizes_live_origins_in_order() {
        let mut db = db();
        assert!(db.digest().is_empty());
        assert!(db.apply(&update(3, 10, 2, 4, 0.1), Micros::ZERO).is_new());
        assert!(db.apply(&update(1, 7, 9, 2, 0.2), Micros::ZERO).is_new());
        let d = db.digest();
        assert_eq!(d.len(), 2);
        assert_eq!((d[0].origin, d[0].epoch, d[0].seq), (NodeId::new(1), 7, 9));
        assert_eq!((d[1].origin, d[1].epoch, d[1].seq), (NodeId::new(3), 10, 2));
    }

    #[test]
    fn expired_origins_leave_the_digest() {
        let mut db = db();
        assert!(db.apply(&update(0, 1, 1, 3, 0.0), Micros::ZERO).is_new());
        db.expire(Micros::from_secs(20));
        assert!(db.digest().is_empty());
    }

    #[test]
    fn repair_covers_missing_and_stale_origins_only() {
        let mut a = db();
        let mut b = db();
        // a knows origins 0 (newer than b) and 2 (unknown to b); both
        // know origin 5 at the same stamp.
        assert!(a.apply(&update(0, 1, 4, 3, 0.1), Micros::ZERO).is_new());
        assert!(a.apply(&update(2, 3, 1, 5, 0.2), Micros::ZERO).is_new());
        assert!(a.apply(&update(5, 2, 2, 7, 0.3), Micros::ZERO).is_new());
        assert!(b.apply(&update(0, 1, 2, 3, 0.9), Micros::ZERO).is_new());
        assert!(b.apply(&update(5, 2, 2, 7, 0.3), Micros::ZERO).is_new());
        let repairs = a.updates_newer_than(&b.digest());
        let mut origins: Vec<u32> = repairs.iter().map(|u| u.origin.index() as u32).collect();
        origins.sort_unstable();
        assert_eq!(origins, vec![0, 2]);
        // Applying the repairs converges b's digest to a's.
        for u in &repairs {
            assert!(b.apply(u, Micros::ZERO).is_new());
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
        assert!(a.apply(&update(4, 1, 1, 6, 0.1), Micros::ZERO).is_new());
        assert!(b.apply(&update(4, 2, 0, 6, 0.0), Micros::ZERO).is_new(), "higher epoch wins");
        assert!(a.updates_newer_than(&b.digest()).is_empty());
        assert_eq!(b.updates_newer_than(&a.digest()).len(), 1);
    }
}
