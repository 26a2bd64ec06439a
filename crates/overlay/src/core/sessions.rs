//! Sending sessions: the slots local senders stamp their packets from,
//! the scheme updates that keep each slot's graph current, and the
//! per-class redundancy downgrade under overload.

use super::{Cx, NodeCore};
use crate::metrics::EventKind;
use crate::overload::OverloadTransition;
use crate::OverlayError;
use bytes::Bytes;
use dg_core::scheme::{build_scheme, RoutingScheme, SchemeKind};
use dg_core::{CachedGraphKind, DisseminationGraph, Flow, ServiceRequirement, SlaClass};
use dg_topology::Micros;
use dg_trace::NetworkState;
use std::ops::Range;

/// Names one open sending session of a node: its slot in the core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SessionId(usize);

/// The per-session sending state: the routing scheme, shown every
/// link-state update, plus its current dissemination graph pre-encoded
/// as a wire bitmask, and — under overload — a cheaper override mask
/// that temporarily replaces it.
pub(crate) struct SessionSlot {
    scheme: Box<dyn RoutingScheme>,
    pub(crate) flow: Flow,
    pub(crate) class: SlaClass,
    pub(super) deadline: Micros,
    /// The next flow sequence to mint.
    pub(super) next_seq: u64,
    mask: Bytes,
    /// The cheaper mask applied while the node is overloaded, with the
    /// effective level it was computed at (so re-applying the same
    /// level is silent); `None` means the route's full graph is in force.
    downgrade: Option<(u8, Bytes)>,
}

impl SessionSlot {
    /// The graph the scheme currently selects.
    pub(crate) fn graph(&self) -> &DisseminationGraph {
        self.scheme.current()
    }

    /// Re-stamps the wire mask after the scheme changed its graph.
    fn refresh_mask(&mut self, edge_count: usize) {
        self.mask = Bytes::from(self.graph().to_bitmask(edge_count));
    }

    pub(crate) fn is_downgraded(&self) -> bool {
        self.downgrade.is_some()
    }

    pub(super) fn mask(&self) -> Bytes {
        self.downgrade.as_ref().map_or(&self.mask, |(_, mask)| mask).clone()
    }
}

impl NodeCore {
    /// Opens a sending session. Admission control: refuse work beyond
    /// the configured capacity instead of absorbing it and failing
    /// every class.
    pub(crate) fn open_session(
        &mut self,
        now: Micros,
        scheme: Box<dyn RoutingScheme>,
        flow: Flow,
        class: SlaClass,
        deadline: Micros,
    ) -> Result<SessionId, OverlayError> {
        let active = self.sessions.iter().flatten().count();
        let capacity = self.config.sender_capacity;
        if active >= capacity {
            return Err(OverlayError::AdmissionDenied { active, capacity });
        }
        let mut slot = SessionSlot {
            scheme,
            flow,
            class,
            deadline,
            next_seq: 0,
            mask: Bytes::new(),
            downgrade: None,
        };
        slot.refresh_mask(self.graph.edge_count());
        // An open session's flow is reported from the start, at zero.
        self.stats.flow(flow);
        let id = self.sessions.iter().position(Option::is_none).unwrap_or_else(|| {
            self.sessions.push(None);
            self.sessions.len() - 1
        });
        self.sessions[id] = Some(slot);
        // Reports arrive only on change, so none may come to show a new
        // scheme the network for a long while: it starts from the state
        // the database holds now.
        self.show_state(now, id..id + 1);
        Ok(SessionId(id))
    }

    /// Closes `session`: its admission slot is free again and the
    /// scheme updates stop visiting it.
    pub(crate) fn close_session(&mut self, session: SessionId) {
        self.sessions[session.0] = None;
    }

    /// The slot of an open session.
    pub(crate) fn slot(&self, session: SessionId) -> &SessionSlot {
        self.sessions[session.0].as_ref().expect("a session is closed only when dropped")
    }

    pub(super) fn slot_mut(&mut self, session: SessionId) -> &mut SessionSlot {
        self.sessions[session.0].as_mut().expect("a session is closed only when dropped")
    }

    /// Shows every open session's scheme the current network state and
    /// re-stamps the masks of those whose graph changed.
    pub(super) fn update_schemes(&mut self, now: Micros) {
        self.show_state(now, 0..self.sessions.len());
    }

    /// [`NodeCore::update_schemes`] for the sessions in `slots`. Every
    /// new report lands here, so a node with no session open there does
    /// not build the network state at all.
    fn show_state(&mut self, now: Micros, slots: Range<usize>) {
        if self.sessions[slots.clone()].iter().all(Option::is_none) {
            return;
        }
        let state = self.linkstate.network_state(now);
        for slot in self.sessions[slots].iter_mut().flatten() {
            let flow = slot.flow;
            if slot.scheme.update(&self.graph, &state) {
                let edges = slot.graph().len() as u64;
                let scheme = slot.scheme.kind();
                self.stats.record_at(now, EventKind::RouteChange { flow, scheme, edges });
                slot.refresh_mask(self.graph.edge_count());
                self.stats.counters.graph_changes += 1;
                self.stats.flow(flow).graph_changes += 1;
            }
            // Keep a usable disjoint-pair fallback warm for the flow.
            // Hits are free; a recompute only happens after a report
            // flipped one of the routes' links across the usability
            // threshold (the pair itself is deadline-independent).
            let _ = self.graph_cache.live(
                flow,
                CachedGraphKind::TwoDisjoint,
                ServiceRequirement::default(),
            );
        }
        // An ongoing overload episode keeps its downgrade masks in step
        // with the topology: recompute them (silently — the level did
        // not change) after the scheme update.
        let level = self.overload.level();
        if level > 0 {
            self.apply_overload(now, level, &state);
        }
    }

    /// Feeds the overload detector one observation (called once per
    /// hello tick) and, when a damped transition is admitted, journals
    /// the episode and adjusts per-class redundancy.
    pub(super) fn observe_overload(&mut self, cx: &mut Cx) {
        let shed_total = self.stats.shed_total();
        let (event, level) = match self.overload.observe(cx.now, cx.backlog, shed_total) {
            Some(OverloadTransition::Enter { level })
            | Some(OverloadTransition::Escalate { level }) => {
                (EventKind::OverloadEnter { level }, level)
            }
            Some(OverloadTransition::Exit { from_level }) => {
                (EventKind::OverloadExit { level: from_level }, 0)
            }
            None => return,
        };
        self.stats.record_at(cx.now, event);
        if self.sessions.iter().flatten().next().is_some() {
            let state = self.linkstate.network_state(cx.now);
            self.apply_overload(cx.now, level, &state);
        }
    }

    /// (Re)applies the downgrade policy for overload `level` to every
    /// session: surgical keeps its full graph at every level,
    /// timely falls back to its precomputed disjoint pair at level 2,
    /// and bulk drops to a single path from level 1. `ClassDowngraded`
    /// is journaled only when a slot's effective level changes; a mask
    /// recomputed at an unchanged level (link state moved mid-episode)
    /// is silent.
    fn apply_overload(&mut self, now: Micros, level: u8, state: &NetworkState) {
        for slot in self.sessions.iter_mut().flatten() {
            let (flow, class) = (slot.flow, slot.class);
            // Surgical is never downgraded, timely at level 2, bulk
            // from level 1; a flow whose cheaper graph cannot be
            // computed right now (e.g. the topology is partitioned)
            // keeps whatever it has.
            let (effective, graph) = match class {
                SlaClass::Timely if level >= 2 => (
                    2,
                    self.graph_cache
                        .live(flow, CachedGraphKind::TwoDisjoint, ServiceRequirement::default())
                        .ok()
                        .map(|g| (*g).clone()),
                ),
                // One loss-aware path under the current network state.
                SlaClass::Bulk if level >= 1 => {
                    let single = SchemeKind::DynamicSinglePath;
                    let budget = SlaClass::Bulk.requirement();
                    let scheme =
                        build_scheme(single, &self.graph, flow, budget, &self.scheme_params);
                    (
                        1,
                        scheme.ok().map(|mut scheme| {
                            let _ = scheme.update(&self.graph, state);
                            scheme.current().clone()
                        }),
                    )
                }
                _ => (0, None),
            };
            if effective == 0 {
                slot.downgrade = None;
            } else if let Some(graph) = graph {
                let mask = Bytes::from(graph.to_bitmask(self.graph.edge_count()));
                let was = slot.downgrade.replace((effective, mask));
                if was.map(|(level, _)| level) != Some(effective) {
                    let edges = graph.len() as u64;
                    self.stats.record_at(now, EventKind::ClassDowngraded { flow, class, edges });
                }
            }
        }
    }
}
