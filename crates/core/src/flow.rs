//! Flows, their service requirements, and SLA service classes.

use crate::scheme::SchemeKind;
use dg_topology::{Graph, Micros, NodeId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A unidirectional application flow between two overlay sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Flow {
    /// Sending site.
    pub source: NodeId,
    /// Receiving site.
    pub destination: NodeId,
}

impl Flow {
    /// Creates a flow from `source` to `destination`.
    pub const fn new(source: NodeId, destination: NodeId) -> Self {
        Flow { source, destination }
    }

    /// Human-readable label using site names, e.g. `"NYC->SJC"`.
    pub fn label(&self, graph: &Graph) -> String {
        format!("{}->{}", graph.node(self.source).name, graph.node(self.destination).name)
    }
}

impl fmt::Display for Flow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}->{}", self.source, self.destination)
    }
}

/// The timeliness contract a flow must meet.
///
/// The paper's motivating applications need one-way delivery within
/// 65 ms (a 130 ms round trip across the US); that is the default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceRequirement {
    /// Maximum one-way latency for a packet to count as delivered.
    pub deadline: Micros,
}

impl ServiceRequirement {
    /// Creates a requirement with the given one-way deadline.
    pub const fn new(deadline: Micros) -> Self {
        ServiceRequirement { deadline }
    }
}

impl Default for ServiceRequirement {
    fn default() -> Self {
        ServiceRequirement { deadline: Micros::from_millis(65) }
    }
}

/// Per-flow SLA service class: how much redundancy budget a flow is
/// entitled to, and how expendable its packets are under overload.
///
/// The class binds three things together: a *scheme preference* (how
/// much the flow spends on extra paths when the network is healthy), a
/// *deadline budget* (how late a packet may arrive and still count),
/// and a *drop priority* (which traffic an overloaded node sheds
/// first). Bulk is shed before timely, timely before surgical; control
/// frames are never shed at all.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SlaClass {
    /// Throughput-oriented background traffic: cheapest scheme, widest
    /// deadline, first to be shed.
    Bulk,
    /// Latency-sensitive but loss-tolerant traffic (the common case).
    #[default]
    Timely,
    /// The paper's motivating remote-surgery/robotics class: targeted
    /// redundancy, tight deadline, shed last.
    Surgical,
}

impl SlaClass {
    /// All classes, in drop-priority order (shed-first first).
    pub const ALL: [SlaClass; 3] = [SlaClass::Bulk, SlaClass::Timely, SlaClass::Surgical];

    /// The routing scheme the class runs when the node has headroom.
    pub fn preferred_scheme(self) -> SchemeKind {
        match self {
            SlaClass::Bulk => SchemeKind::DynamicSinglePath,
            SlaClass::Timely => SchemeKind::DynamicTwoDisjoint,
            SlaClass::Surgical => SchemeKind::TargetedRedundancy,
        }
    }

    /// The class's default deadline budget.
    pub fn requirement(self) -> ServiceRequirement {
        match self {
            SlaClass::Bulk => ServiceRequirement::new(Micros::from_millis(250)),
            SlaClass::Timely => ServiceRequirement::new(Micros::from_millis(100)),
            SlaClass::Surgical => ServiceRequirement::default(),
        }
    }

    /// Shed order under overload: lower is shed first.
    pub fn drop_priority(self) -> u8 {
        match self {
            SlaClass::Bulk => 0,
            SlaClass::Timely => 1,
            SlaClass::Surgical => 2,
        }
    }

    /// The two-bit wire encoding carried in the data-frame flags byte.
    pub fn to_bits(self) -> u8 {
        self.drop_priority()
    }

    /// Decodes the two-bit wire encoding; `None` for the reserved
    /// pattern `3`.
    pub fn from_bits(bits: u8) -> Option<SlaClass> {
        match bits {
            0 => Some(SlaClass::Bulk),
            1 => Some(SlaClass::Timely),
            2 => Some(SlaClass::Surgical),
            _ => None,
        }
    }

    /// Short lowercase label, e.g. `"surgical"`.
    pub fn label(self) -> &'static str {
        match self {
            SlaClass::Bulk => "bulk",
            SlaClass::Timely => "timely",
            SlaClass::Surgical => "surgical",
        }
    }
}

impl fmt::Display for SlaClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

// Hand-written serde impls: classes serialize as their lowercase label
// (`"surgical"`), matching the CLI/config spelling, rather than the
// Rust variant name.
impl serde::ser::Serialize for SlaClass {
    fn to_value(&self) -> serde::Value {
        serde::Value::String(self.label().to_owned())
    }
}

impl serde::de::Deserialize for SlaClass {
    fn from_value(value: &serde::Value) -> Result<Self, serde::de::Error> {
        match value {
            serde::Value::String(s) => match s.as_str() {
                "bulk" => Ok(SlaClass::Bulk),
                "timely" => Ok(SlaClass::Timely),
                "surgical" => Ok(SlaClass::Surgical),
                other => Err(serde::de::Error::custom(format!("unknown SLA class `{other}`"))),
            },
            other => Err(serde::de::Error::unexpected("SLA class string", other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_topology::presets;

    #[test]
    fn labels_use_site_names() {
        let g = presets::north_america_12();
        let f = Flow::new(g.node_by_name("BOS").unwrap(), g.node_by_name("LAX").unwrap());
        assert_eq!(f.label(&g), "BOS->LAX");
        assert_eq!(f.to_string(), format!("{}->{}", f.source, f.destination));
    }

    #[test]
    fn default_requirement_is_65ms() {
        assert_eq!(ServiceRequirement::default().deadline, Micros::from_millis(65));
        assert_eq!(ServiceRequirement::new(Micros::from_millis(100)).deadline.as_millis(), 100);
    }

    #[test]
    fn serde_round_trip() {
        let f = Flow::new(NodeId::new(1), NodeId::new(2));
        let json = serde_json::to_string(&f).unwrap();
        assert_eq!(serde_json::from_str::<Flow>(&json).unwrap(), f);
    }

    #[test]
    fn sla_class_bits_round_trip_and_reject_reserved() {
        for class in SlaClass::ALL {
            assert_eq!(SlaClass::from_bits(class.to_bits()), Some(class));
        }
        assert_eq!(SlaClass::from_bits(3), None);
        assert_eq!(SlaClass::default(), SlaClass::Timely);
    }

    #[test]
    fn sla_class_ordering_matches_drop_priority() {
        // Shed-first classes sort first; deadlines tighten with class.
        assert!(SlaClass::Bulk < SlaClass::Timely && SlaClass::Timely < SlaClass::Surgical);
        assert!(
            SlaClass::Surgical.requirement().deadline < SlaClass::Timely.requirement().deadline
        );
        assert!(SlaClass::Timely.requirement().deadline < SlaClass::Bulk.requirement().deadline);
    }

    #[test]
    fn sla_class_serde_uses_lowercase_labels() {
        for class in SlaClass::ALL {
            let json = serde_json::to_string(&class).unwrap();
            assert_eq!(json, format!("\"{}\"", class.label()));
            assert_eq!(serde_json::from_str::<SlaClass>(&json).unwrap(), class);
        }
    }
}
