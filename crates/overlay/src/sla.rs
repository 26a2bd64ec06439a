//! Per-flow SLA service-class plans.
//!
//! An [`SlaPlan`] is plain serde data — the `--sla-json` counterpart of
//! the chaos schedule: it names the flows a daemon or tool should open
//! sending sessions for, the [`SlaClass`] each rides in, and an
//! optional per-flow deadline override. Sites are referenced by
//! topology name, so a plan file is portable across deployments of the
//! same topology.
//!
//! ```json
//! {
//!   "flows": [
//!     { "source": "NYC", "destination": "SJC", "class": "surgical" },
//!     { "source": "NYC", "destination": "LAX", "class": "bulk",
//!       "deadline_ms": 300 }
//!   ]
//! }
//! ```

use dg_core::{Flow, ServiceRequirement, SlaClass};
use dg_topology::{Graph, Micros};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Why [`SlaPlan::from_json`] refused a plan. A flow is named by its
/// place in the file, from zero.
#[derive(Debug)]
#[non_exhaustive]
pub enum SlaPlanError {
    /// The file is not a plan.
    Format(serde_json::Error),
    /// The flow's deadline override is zero: no packet can make it.
    ZeroDeadline {
        /// The flow's place in the plan.
        flow: usize,
    },
    /// The flow's source is its destination.
    SelfFlow {
        /// The flow's place in the plan.
        flow: usize,
        /// The site at both ends.
        site: String,
    },
}

impl fmt::Display for SlaPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SlaPlanError::Format(e) => write!(f, "{e}"),
            SlaPlanError::ZeroDeadline { flow } => write!(f, "flow {flow}: deadline_ms is 0"),
            SlaPlanError::SelfFlow { flow, site } => {
                write!(f, "flow {flow}: source and destination are both {site}")
            }
        }
    }
}

impl std::error::Error for SlaPlanError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SlaPlanError::Format(e) => Some(e),
            SlaPlanError::ZeroDeadline { .. } | SlaPlanError::SelfFlow { .. } => None,
        }
    }
}

/// One flow's service-class assignment in an [`SlaPlan`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlaFlowSpec {
    /// Source site, by topology name.
    pub source: String,
    /// Destination site, by topology name.
    pub destination: String,
    /// The service class the flow rides in.
    pub class: SlaClass,
    /// Deadline override in milliseconds; omitted, the class's own
    /// budget applies (see [`SlaClass::requirement`]).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub deadline_ms: Option<u64>,
}

impl SlaFlowSpec {
    /// Resolves the spec against a topology into the session
    /// parameters: the flow, its class, and its effective requirement.
    ///
    /// # Errors
    ///
    /// Returns the unknown site name when either endpoint is not in
    /// the topology.
    pub fn resolve(&self, graph: &Graph) -> Result<(Flow, SlaClass, ServiceRequirement), &str> {
        let source = graph.node_by_name(&self.source).ok_or(self.source.as_str())?;
        let destination = graph.node_by_name(&self.destination).ok_or(self.destination.as_str())?;
        let requirement = match self.deadline_ms {
            Some(ms) => ServiceRequirement::new(Micros::from_millis(ms)),
            None => self.class.requirement(),
        };
        Ok((Flow::new(source, destination), self.class, requirement))
    }
}

/// A set of per-flow class assignments (the `--sla-json` file format).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlaPlan {
    /// The flows to open, in file order.
    pub flows: Vec<SlaFlowSpec>,
}

impl SlaPlan {
    /// Parses a plan from JSON, and refuses one no deployment could
    /// serve.
    ///
    /// # Errors
    ///
    /// [`SlaPlanError::Format`] on malformed input,
    /// [`SlaPlanError::ZeroDeadline`] for a flow with `deadline_ms: 0`,
    /// and [`SlaPlanError::SelfFlow`] for a flow whose source is its
    /// destination. Site names are checked against a topology later,
    /// by [`SlaFlowSpec::resolve`].
    pub fn from_json(json: &str) -> Result<SlaPlan, SlaPlanError> {
        let plan: SlaPlan = serde_json::from_str(json).map_err(SlaPlanError::Format)?;
        for (flow, spec) in plan.flows.iter().enumerate() {
            if spec.deadline_ms == Some(0) {
                return Err(SlaPlanError::ZeroDeadline { flow });
            }
            if spec.source == spec.destination {
                return Err(SlaPlanError::SelfFlow { flow, site: spec.source.clone() });
            }
        }
        Ok(plan)
    }

    /// Serializes the plan to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("plan serializes")
    }

    /// The specs whose flow originates at `source` (the slice a
    /// single daemon acts on).
    pub fn sourced_at<'a>(
        &'a self,
        graph: &'a Graph,
        source: dg_topology::NodeId,
    ) -> impl Iterator<Item = &'a SlaFlowSpec> {
        self.flows.iter().filter(move |s| graph.node_by_name(&s.source) == Some(source))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_topology::presets;

    #[test]
    fn plans_round_trip_through_json() {
        let plan = SlaPlan {
            flows: vec![
                SlaFlowSpec {
                    source: "NYC".into(),
                    destination: "SJC".into(),
                    class: SlaClass::Surgical,
                    deadline_ms: None,
                },
                SlaFlowSpec {
                    source: "NYC".into(),
                    destination: "LAX".into(),
                    class: SlaClass::Bulk,
                    deadline_ms: Some(300),
                },
            ],
        };
        let parsed = SlaPlan::from_json(&plan.to_json()).unwrap();
        assert_eq!(parsed, plan);
    }

    #[test]
    fn a_zero_deadline_is_refused() {
        let json = r#"{ "flows": [
            { "source": "NYC", "destination": "SJC", "class": "timely" },
            { "source": "NYC", "destination": "LAX", "class": "bulk", "deadline_ms": 0 } ] }"#;
        let err = SlaPlan::from_json(json).unwrap_err();
        assert!(matches!(err, SlaPlanError::ZeroDeadline { flow: 1 }), "{err}");
    }

    #[test]
    fn a_flow_to_itself_is_refused() {
        let json =
            r#"{ "flows": [ { "source": "NYC", "destination": "NYC", "class": "surgical" } ] }"#;
        let err = SlaPlan::from_json(json).unwrap_err();
        assert!(matches!(&err, SlaPlanError::SelfFlow { flow: 0, site } if site == "NYC"), "{err}");
    }

    #[test]
    fn specs_resolve_against_the_topology() {
        let g = presets::north_america_12();
        let spec = SlaFlowSpec {
            source: "NYC".into(),
            destination: "SJC".into(),
            class: SlaClass::Timely,
            deadline_ms: None,
        };
        let (flow, class, req) = spec.resolve(&g).unwrap();
        assert_eq!(flow.source, g.node_by_name("NYC").unwrap());
        assert_eq!(class, SlaClass::Timely);
        assert_eq!(req.deadline, SlaClass::Timely.requirement().deadline);

        let override_spec = SlaFlowSpec { deadline_ms: Some(42), ..spec.clone() };
        let (_, _, req) = override_spec.resolve(&g).unwrap();
        assert_eq!(req.deadline, Micros::from_millis(42));

        let bad = SlaFlowSpec { source: "ATLANTIS".into(), ..spec };
        assert_eq!(bad.resolve(&g).unwrap_err(), "ATLANTIS");
    }

    #[test]
    fn sourced_at_filters_by_origin() {
        let g = presets::north_america_12();
        let nyc = g.node_by_name("NYC").unwrap();
        let plan = SlaPlan {
            flows: vec![
                SlaFlowSpec {
                    source: "NYC".into(),
                    destination: "SJC".into(),
                    class: SlaClass::Surgical,
                    deadline_ms: None,
                },
                SlaFlowSpec {
                    source: "CHI".into(),
                    destination: "SJC".into(),
                    class: SlaClass::Bulk,
                    deadline_ms: None,
                },
            ],
        };
        let mine: Vec<_> = plan.sourced_at(&g, nyc).collect();
        assert_eq!(mine.len(), 1);
        assert_eq!(mine[0].destination, "SJC");
    }
}
