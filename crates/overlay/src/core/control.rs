//! The control plane: hello probes, the problem detector and flap
//! damper over this node's in-links, and reliable link-state flooding
//! (flood, per-neighbour ack, retransmit with backoff, anti-entropy
//! digests).

use super::{Cx, NodeCore};
use crate::linkstate::{reported_condition, LSA_MAX_RETRANSMITS, LSA_RETRANSMIT_TIMEOUT};
use crate::metrics::EventKind;
use crate::wire::{DigestEntry, Envelope, LinkStateEntry, LinkStateUpdate, Message};
use dg_core::scheme::expected_link_weight;
use dg_topology::{EdgeId, Micros, NodeId};

/// The least move of a link's advertised latency that is news. The
/// least one-way delay a window of hellos measured still wanders by
/// tens to hundreds of microseconds on a shared host, and on the
/// shortest links (a generated ring of cliques has 219 µs ones) that is
/// several times the schemes' hysteresis: a 100-node loopback cluster
/// re-reported that noise about twenty times a second once its windows
/// had filled. A millisecond is above the noise and below any delay a
/// scheme has reason to route around.
const LATENCY_STEP: Micros = Micros::from_millis(1);

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

impl AdvertisedLink {
    /// What a report says of in-edge `edge` while this is advertised.
    fn entry(&self, edge: EdgeId) -> LinkStateEntry {
        LinkStateEntry {
            edge,
            loss: self.loss,
            extra_latency_us: self.extra_latency_us,
            down: self.down,
        }
    }
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
    /// node's picture of its links: it reports them at once. (An in-link
    /// that never speaks cannot hold the first report back past the
    /// link-down horizon; see [`NodeCore::poll_timers`].)
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
    /// does: [`NodeCore::evaluate_link`] on each. Returns whether any
    /// link's advertisement is news worth an origination.
    pub(super) fn evaluate_links(&mut self, now: Micros) -> bool {
        let mut news = false;
        for link in 0..self.in_links.len() {
            news |= self.evaluate_link(link, now);
        }
        news
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
    /// flap damper. Returns whether the advertisement is news worth an
    /// origination: an admitted flag transition, or, once this
    /// incarnation has reported, a loss or latency that moved
    /// ([`NodeCore::moved`]).
    fn evaluate_link(&mut self, link: usize, now: Micros) -> bool {
        let (monitor, damper, stats) = (&mut self.monitor, &mut self.damper, &mut self.stats);
        let (edge, neighbor, baseline) = self.in_links[link];
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
            // untouched, and are news only once they have moved.
            *adv = raw;
            return self.ls_seq > 0 && self.moved(edge, baseline, &raw);
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

    /// Whether advertising `adv` for in-edge `edge`, of baseline latency
    /// `baseline`, moves it from what the database holds — what this
    /// node last originated for it — by a step some consumer acts on:
    /// its expected weight ([`expected_link_weight`], what the dynamic
    /// schemes route on) by more than the schemes' hysteresis, the
    /// smallest relative move they switch on, or its loss across the
    /// graph cache's unusable threshold. The latency in it is the
    /// least a window of hellos measured
    /// ([`crate::monitor::LinkMonitor::one_way_from`]), so host load
    /// that comes and goes within a window makes no report, and it
    /// counts only once it has moved by [`LATENCY_STEP`].
    fn moved(&self, edge: EdgeId, baseline: Micros, adv: &AdvertisedLink) -> bool {
        let was = self.linkstate.condition(edge);
        let mut is = reported_condition(&adv.entry(edge));
        if is.extra_latency.as_micros().abs_diff(was.extra_latency.as_micros())
            < LATENCY_STEP.as_micros()
        {
            is.extra_latency = was.extra_latency;
        }
        let (from, to) = (expected_link_weight(baseline, was), expected_link_weight(baseline, is));
        let unusable = self.graph_cache.unusable_loss();
        to.abs_diff(from) as f64 > self.scheme_params.hysteresis * from as f64
            || (was.loss_rate >= unusable) != (is.loss_rate >= unusable)
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
                self.advertised.get(&neighbor).copied().unwrap_or_default().entry(edge)
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
    /// evicted before the schemes ask), floods it onward, and re-runs
    /// the local senders' schemes. A report is only originated when
    /// something moved, so every new one is worth showing them.
    ///
    /// A report of this node's own that a neighbour holds stamped at or
    /// above this incarnation's is a previous life's, minted from a
    /// clock that read later than this one's did at spawn (stepped back,
    /// or another host's). It would outrank everything this incarnation
    /// says, for good: nothing ages out. So, as OSPF does with a
    /// self-originated LSA newer than its own, the node takes an epoch
    /// past it and, if it has reported already, reports again.
    fn take_link_state(&mut self, cx: &mut Cx, update: &LinkStateUpdate, except: Option<NodeId>) {
        if !self.linkstate.apply(update) {
            return;
        }
        // The entries the database took: it skips those naming an edge
        // the topology lacks.
        for entry in update.entries.iter().filter(|e| self.graph.check_edge(e.edge).is_ok()) {
            self.graph_cache.note_loss(entry.edge, reported_condition(entry).loss_rate);
        }
        self.flood_link_state(cx, update, except);
        self.update_schemes(cx.now);
        if except.is_some()
            && update.origin == self.me()
            && (update.epoch, update.seq) >= (self.ls_epoch, self.ls_seq)
        {
            self.ls_epoch = update.epoch.saturating_add(1);
            let reported = std::mem::take(&mut self.ls_seq) > 0;
            if reported {
                self.originate_link_state(cx);
            }
        }
    }
}
