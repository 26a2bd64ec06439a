//! The control plane: hello probes, the problem detector and flap
//! damper over this node's in-links, and reliable link-state flooding
//! (flood, per-neighbour ack, retransmit with backoff, anti-entropy
//! digests).

use super::{Cx, NodeCore};
use crate::linkstate::{Applied, LSA_MAX_RETRANSMITS, LSA_RETRANSMIT_TIMEOUT};
use crate::metrics::EventKind;
use crate::wire::{DigestEntry, Envelope, LinkStateEntry, LinkStateUpdate, Message};
use dg_topology::{Micros, NodeId};

/// A link-state update one neighbour has not yet acknowledged.
pub(super) struct PendingLsa {
    update: LinkStateUpdate,
    next_retry: Micros,
    backoff: Micros,
    retries_left: u32,
}

/// The last link state actually advertised for one in-edge, held
/// across flap-damped suppressions so an oscillating link keeps
/// advertising its previous stable state.
#[derive(Clone, Copy, Default)]
pub(super) struct AdvertisedLink {
    down: bool,
    triggered: bool,
    loss: f32,
    extra_latency_us: u32,
    /// The damper is withholding a transition of this link's flags; it
    /// is asked again on every hello tick, and the refusal counted and
    /// journalled once.
    withheld: bool,
}

impl NodeCore {
    pub(super) fn send_hellos(&mut self, cx: &mut Cx) {
        let seq = self.hello_seq;
        self.hello_seq += 1;
        for &(_, neighbor) in &self.out_links {
            self.stats.counters.hellos_sent += 1;
            cx.control(self.config.node, neighbor, Message::Hello { seq, sent_at: cx.now });
        }
    }

    /// Records a hello from `from` and echoes it. The first hello of
    /// this incarnation from the last in-link still silent completes the
    /// node's picture of its links: it reports them at once rather than
    /// at the next link-state refresh.
    pub(super) fn handle_hello(&mut self, cx: &mut Cx, from: NodeId, seq: u64, sent_at: Micros) {
        let first_contact =
            self.in_links.iter().any(|&(_, n, _)| n == from) && !self.monitor.heard_from(from);
        self.monitor.record_hello(from, seq, cx.now.saturating_sub(sent_at), cx.now);
        self.stats.counters.hellos_echoed += 1;
        cx.control(self.me(), from, Message::HelloAck { echo_seq: seq, echo_sent_at: sent_at });
        if first_contact && self.in_links.iter().all(|&(_, n, _)| self.monitor.heard_from(n)) {
            self.evaluate_links(cx.now);
            self.originate_link_state(cx);
        }
    }

    pub(super) fn handle_link_state(
        &mut self,
        cx: &mut Cx,
        from: NodeId,
        update: &LinkStateUpdate,
    ) {
        // Ack unconditionally — even a stale or duplicate update
        // must stop the sender's retransmissions.
        self.stats.counters.lsa_acks_sent += 1;
        let ack = Message::LsaAck { origin: update.origin, epoch: update.epoch, seq: update.seq };
        cx.control(self.me(), from, ack);
        self.take_link_state(cx, update, Some(from));
    }

    pub(super) fn handle_lsa_ack(&mut self, from: NodeId, origin: NodeId, epoch: u64, seq: u64) {
        self.stats.counters.lsa_acks_received += 1;
        let Some(per_origin) = self.pending_lsa.get_mut(&from) else { return };
        // An ack for a newer stamp covers the pending one; an ack for
        // an older stamp does not.
        if per_origin.get(&origin).is_some_and(|p| (p.update.epoch, p.update.seq) <= (epoch, seq)) {
            per_origin.remove(&origin);
        }
        if per_origin.is_empty() {
            self.pending_lsa.remove(&from);
        }
    }

    /// Anti-entropy push repair: sends back every origin this node
    /// knows more about than the digesting neighbour, each tracked for
    /// acknowledgement like a flood.
    pub(super) fn handle_digest(&mut self, cx: &mut Cx, from: NodeId, entries: &[DigestEntry]) {
        self.stats.counters.digests_received += 1;
        let repairs = self.linkstate.updates_newer_than(entries);
        self.stats.counters.lsa_repairs_sent += repairs.len() as u64;
        for update in repairs {
            self.register_pending(from, &update, cx.now);
            cx.control(self.me(), from, Message::LinkState(update));
        }
    }

    fn flood_link_state(&mut self, cx: &mut Cx, update: &LinkStateUpdate, except: Option<NodeId>) {
        let bytes =
            Envelope { from: self.me(), message: Message::LinkState(update.clone()) }.encode();
        for i in 0..self.out_links.len() {
            let neighbor = self.out_links[i].1;
            if Some(neighbor) != except {
                self.register_pending(neighbor, update, cx.now);
                self.stats.counters.link_state_flooded += 1;
                cx.frame(neighbor, bytes.clone(), None);
            }
        }
    }

    /// Records that `neighbor` owes an ack for `update`, superseding
    /// any older pending advertisement from the same origin.
    fn register_pending(&mut self, neighbor: NodeId, update: &LinkStateUpdate, now: Micros) {
        let per_origin = self.pending_lsa.entry(neighbor).or_default();
        if per_origin
            .get(&update.origin)
            .is_some_and(|p| (p.update.epoch, p.update.seq) >= (update.epoch, update.seq))
        {
            return;
        }
        per_origin.insert(
            update.origin,
            PendingLsa {
                update: update.clone(),
                next_retry: now.saturating_add(LSA_RETRANSMIT_TIMEOUT),
                backoff: LSA_RETRANSMIT_TIMEOUT,
                retries_left: LSA_MAX_RETRANSMITS,
            },
        );
    }

    /// Retransmits every pending link-state update whose ack timer has
    /// expired, with exponential backoff; updates out of retries are
    /// abandoned (the periodic digest exchange repairs whatever was
    /// lost for good).
    pub(super) fn retransmit_pending_lsas(&mut self, cx: &mut Cx) {
        let (me, counters) = (self.config.node, &mut self.stats.counters);
        for (&neighbor, per_origin) in &mut self.pending_lsa {
            per_origin.retain(|_, p| {
                if p.next_retry > cx.now {
                    return true;
                }
                if p.retries_left == 0 {
                    counters.lsa_retransmits_abandoned += 1;
                    return false;
                }
                p.retries_left -= 1;
                p.backoff = p.backoff.saturating_add(p.backoff);
                p.next_retry = cx.now.saturating_add(p.backoff);
                counters.lsa_retransmits += 1;
                cx.control(me, neighbor, Message::LinkState(p.update.clone()));
                true
            });
        }
        self.pending_lsa.retain(|_, per_origin| !per_origin.is_empty());
    }

    /// Advertises this node's per-origin link-state summary to every
    /// neighbour. Sent even when the database is empty: a fresh node's
    /// empty digest makes every neighbour push its full database back.
    pub(super) fn send_digests(&mut self, cx: &mut Cx) {
        let entries = self.linkstate.digest();
        let bytes = Envelope { from: self.me(), message: Message::Digest { entries } }.encode();
        for &(_, neighbor) in &self.out_links {
            self.stats.counters.digests_sent += 1;
            cx.frame(neighbor, bytes.clone(), None);
        }
    }

    /// Runs the problem detector over every in-link, as the hello tick
    /// does: [`NodeCore::evaluate_link`] on each. Returns whether an
    /// advertised flag changed, which is worth an origination of its
    /// own.
    pub(super) fn evaluate_links(&mut self, now: Micros) -> bool {
        let mut transitioned = false;
        for link in 0..self.in_links.len() {
            transitioned |= self.evaluate_link(link, now);
        }
        transitioned
    }

    /// A gap on the link from `from`, exposed by a frame at `cx.now`:
    /// a busy link ([`crate::monitor::LinkMonitor::is_busy`]) that is
    /// not triggered is judged on the spot rather than at the next
    /// hello tick, and a trigger it admits is originated at once. A
    /// triggered link waits for the tick to clear, and a quiet one is
    /// judged on ticks alone.
    pub(super) fn judge_on_gap(&mut self, cx: &mut Cx, from: NodeId) {
        let open = self.recv_links.get(&from).map_or((0, 0), |t| t.evidence());
        if self.monitor.is_triggered(from) || !self.monitor.is_busy(from, open) {
            return;
        }
        let Some(link) = self.in_links.iter().position(|&(_, n, _)| n == from) else { return };
        if self.evaluate_link(link, cx.now) {
            self.originate_link_state(cx);
        }
    }

    /// Runs the problem detector over in-link number `link` — the loss
    /// observed *from* its neighbour, over the closed hello ticks and
    /// the open one's evidence so far, and the latency above baseline,
    /// as of `now` — and moves what the link advertises through the
    /// flap damper. Returns whether an advertised flag changed.
    fn evaluate_link(&mut self, link: usize, now: Micros) -> bool {
        let (monitor, damper, stats) = (&mut self.monitor, &mut self.damper, &mut self.stats);
        let (_, neighbor, baseline) = self.in_links[link];
        let extra =
            monitor.one_way_from(neighbor).map_or(Micros::ZERO, |d| d.saturating_sub(baseline));
        let open = self.recv_links.get(&neighbor).map_or((0, 0), |t| t.evidence());
        let loss = monitor.estimate(neighbor, open, now);
        // The problem detector stays quiet until a link has delivered
        // at least one hello; a never-heard link reads as 100% loss and
        // would trigger spuriously at startup.
        if monitor.heard_from(neighbor) {
            let _ = monitor.detect(neighbor, loss, self.scheme_params.problem_loss_threshold);
        }
        // Hello silence past the monitor's horizon declares the link
        // down outright — flooded so every scheme routes around it
        // rather than waiting for loss estimates to decay.
        let _ = monitor.down_transition(neighbor, now);
        let raw = AdvertisedLink {
            down: monitor.is_down(neighbor, now),
            triggered: monitor.is_triggered(neighbor),
            loss: loss as f32,
            extra_latency_us: extra.as_micros().min(u64::from(u32::MAX)) as u32,
            withheld: false,
        };
        let adv = self.advertised.entry(neighbor).or_default();
        if raw.down == adv.down && raw.triggered == adv.triggered {
            // Flags are steady: measured loss and latency drift through
            // untouched.
            *adv = raw;
            return false;
        }
        // Bad news is fail-fast: a down declaration or a detector
        // trigger bypasses the damper (but still charges it, so the
        // good-news side of a flapping link stays held). Everything
        // else asks.
        let bad_news = (raw.down && !adv.down) || (raw.triggered && !adv.triggered);
        let admitted = if bad_news {
            damper.record_forced(neighbor, now);
            true
        } else {
            damper.admit(neighbor, now)
        };
        if !admitted {
            // Suppressed: keep the previous advertisement wholesale —
            // flags *and* measurements — so an oscillating link cannot
            // thrash every scheme in the network.
            if !std::mem::replace(&mut adv.withheld, true) {
                stats.counters.flap_suppressions += 1;
                let penalty = damper.penalty(neighbor, now) as f32;
                stats.record_at(now, EventKind::FlapSuppressed { neighbor, penalty });
            }
            return false;
        }
        if raw.down != adv.down {
            if raw.down {
                stats.counters.links_declared_down += 1;
                stats.record_at(now, EventKind::LinkDown { neighbor });
            } else {
                stats.record_at(now, EventKind::LinkUp { neighbor });
            }
        }
        if raw.triggered != adv.triggered {
            let kind = if raw.triggered {
                EventKind::DetectorTriggered { neighbor, loss: raw.loss }
            } else {
                EventKind::DetectorCleared { neighbor, loss: raw.loss }
            };
            stats.record_at(now, kind);
        }
        *adv = raw;
        true
    }

    /// Originates this node's own link-state report — what
    /// [`NodeCore::evaluate_links`] last settled on advertising for each
    /// in-edge — unless originations are paused.
    pub(super) fn originate_link_state(&mut self, cx: &mut Cx) {
        if self.originations_paused {
            return;
        }
        let entries = self
            .in_links
            .iter()
            .map(|&(edge, neighbor, _)| {
                let adv = self.advertised.get(&neighbor).copied().unwrap_or_default();
                LinkStateEntry {
                    edge,
                    loss: adv.loss,
                    extra_latency_us: adv.extra_latency_us,
                    down: adv.down,
                }
            })
            .collect();
        self.stats.counters.link_state_originated += 1;
        self.ls_seq += 1;
        let update =
            LinkStateUpdate { origin: self.me(), epoch: self.ls_epoch, seq: self.ls_seq, entries };
        self.take_link_state(cx, &update, None);
    }

    /// Stores a link-state report, own or received from `except`, and
    /// if it is news: feeds it to the graph cache (so precomputed routes
    /// depending on a link that crossed the usability threshold are
    /// evicted before the next scheme refresh), floods it onward, and —
    /// when it moved an edge across the problem threshold, which is
    /// when a route can change — re-runs the local senders' schemes at
    /// once instead of at the next periodic refresh.
    fn take_link_state(&mut self, cx: &mut Cx, update: &LinkStateUpdate, except: Option<NodeId>) {
        let applied = self.linkstate.apply(update, cx.now);
        if applied.is_new() {
            for entry in &update.entries {
                let loss = if entry.down { 1.0 } else { f64::from(entry.loss) };
                self.graph_cache.note_loss(entry.edge, loss);
            }
            self.flood_link_state(cx, update, except);
        }
        if applied == Applied::Crossed {
            self.update_schemes(cx.now);
        }
    }
}
