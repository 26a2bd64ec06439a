//! Property battery for the per-flow duplicate-suppression window
//! against the thing it stands for: the set of sequences a flow has
//! shown so far.
//!
//! Inside [`DEDUP_WINDOW`] of a flow's highest sequence the window is
//! exact — it accepts a sequence if and only if the flow never showed
//! it before — for any mix of fresh, duplicated and reordered
//! sequences, however far the top jumps ahead, and whatever other
//! flows do meanwhile.

use dg_core::Flow;
use dg_overlay::dedup::{DedupWindows, DEDUP_WINDOW};
use dg_topology::{Micros, NodeId};
use proptest::prelude::*;
use std::collections::HashSet;

/// One arrival, relative to its flow's highest sequence so far.
#[derive(Debug, Clone)]
enum Arrival {
    /// That many above the top.
    Ahead(u64),
    /// That many below it (zero repeats the top), inside the window.
    Behind(u64),
}

fn arrival() -> impl Strategy<Value = Arrival> {
    let window = DEDUP_WINDOW as u64;
    prop_oneof![
        (1u64..3).prop_map(Arrival::Ahead),
        (1u64..3).prop_map(Arrival::Ahead),
        (1u64..200).prop_map(Arrival::Ahead),
        (1u64..3 * window).prop_map(Arrival::Ahead),
        (0u64..8).prop_map(Arrival::Behind),
        (0u64..200).prop_map(Arrival::Behind),
        (0u64..window).prop_map(Arrival::Behind),
        // The window's far edge, where an off-by-one would live.
        (window - 2..window).prop_map(Arrival::Behind),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn window_agrees_with_the_set_of_sequences_seen(
        first in 0u64..100_000,
        arrivals in proptest::collection::vec((0usize..2, arrival()), 1..600),
    ) {
        let flows = [
            Flow::new(NodeId::new(0), NodeId::new(1)),
            Flow::new(NodeId::new(0), NodeId::new(2)),
        ];
        let mut windows = DedupWindows::default();
        let mut seen = [HashSet::new(), HashSet::new()];
        let mut top = [first, first];
        for (i, (f, arrival)) in arrivals.iter().enumerate() {
            let seq = match *arrival {
                Arrival::Ahead(by) => top[*f] + by,
                Arrival::Behind(by) => top[*f].saturating_sub(by),
            };
            top[*f] = top[*f].max(seq);
            let accepted = windows.flow(flows[*f], seq, Micros::from_micros(i as u64)).accept(seq);
            prop_assert_eq!(accepted, seen[*f].insert(seq), "arrival {} of flow {}: {}", i, f, seq);
        }
    }
}
