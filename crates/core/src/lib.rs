//! Dissemination graphs: the unified routing framework of *Timely,
//! Reliable, and Cost-Effective Internet Transport Service Using
//! Dissemination Graphs* (Babay, Wagner, Dinitz, Amir — ICDCS 2017).
//!
//! A [`DisseminationGraph`] is an arbitrary subgraph of the overlay on
//! which every packet of a flow is forwarded: each overlay node that
//! receives the packet forwards it once on each of its out-edges in the
//! graph. Single paths, disjoint path pairs, and flooding are all just
//! special cases — which is what lets one transport service switch
//! routing strategies per flow and per network condition.
//!
//! The [`scheme`] module implements the paper's six routing schemes
//! behind one [`scheme::RoutingScheme`] trait; [`scheme::build_scheme`]
//! makes any of them from its [`scheme::SchemeKind`]:
//!
//! | Scheme | Paper role |
//! |---|---|
//! | [`StaticSinglePath`](scheme::SchemeKind::StaticSinglePath) | the traditional baseline |
//! | [`DynamicSinglePath`](scheme::SchemeKind::DynamicSinglePath) | single path, re-routed on updates |
//! | [`StaticTwoDisjoint`](scheme::SchemeKind::StaticTwoDisjoint) | two node-disjoint paths, fixed |
//! | [`DynamicTwoDisjoint`](scheme::SchemeKind::DynamicTwoDisjoint) | two node-disjoint paths, re-routed |
//! | [`TargetedRedundancy`](scheme::TargetedRedundancy) | **the paper's contribution** |
//! | [`TimeConstrainedFlooding`](scheme::SchemeKind::TimeConstrainedFlooding) | the optimal (costly) benchmark |
//!
//! # Example
//!
//! ```
//! use dg_topology::presets;
//! use dg_core::{Flow, ServiceRequirement};
//! use dg_core::scheme::{build_scheme, SchemeKind, SchemeParams};
//!
//! let g = presets::north_america_12();
//! let flow = Flow::new(
//!     g.node_by_name("NYC").unwrap(),
//!     g.node_by_name("SJC").unwrap(),
//! );
//! let req = ServiceRequirement::default(); // 65 ms one-way deadline
//! let scheme = build_scheme(
//!     SchemeKind::TargetedRedundancy, &g, flow, req, &SchemeParams::default(),
//! )?;
//! assert!(scheme.current().cost(&g) >= 2);
//! # Ok::<(), dg_core::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
mod detector;
mod dgraph;
mod error;
mod flow;
pub mod scheme;
pub mod splitmix;

pub use cache::{
    build_scheme_cached, receiver_digest, CachedGraphKind, GraphCache, GraphCacheStats,
    MulticastKind,
};
pub use detector::{ProblemDetector, ProblemStatus};
pub use dgraph::DisseminationGraph;
pub use error::CoreError;
pub use flow::{Flow, ServiceRequirement, SlaClass};
