//! Where the playback loop sends a replay's packets on the calibrated
//! trace: answered by the memoised loss-free wavefront, or propagated
//! through the event heap.
//!
//! The inputs are the 20-second calibrated trace (seed 2017) on the
//! 12-site US overlay, NYC → SJC at 2 000 packets a second and the
//! preset's 65 ms deadline, replayed under targeted redundancy and under
//! time-constrained flooding. The counters are counts, not timings, so
//! they repeat exactly on any host and are pinned exactly: a change that
//! sends more packets through the heap, or pushes more arrivals onto it,
//! moves them. Beside the pins, targeted redundancy must answer more than
//! nine packets in ten from the wavefront — a silent fall-back to
//! per-packet propagation breaks that whatever the wall clock says.

use dg_core::scheme::{build_scheme, SchemeKind, SchemeParams};
use dg_core::{Flow, ServiceRequirement};
use dg_sim::{run_flow_full_with, PlaybackConfig, ReplayCounters, SimScratch};
use dg_topology::generate::TopoSpec;
use dg_topology::Micros;
use dg_trace::gen::{self, SyntheticWanConfig};

const TRACE_SECS: u64 = 20;
const RATE: u32 = 2_000;
const PACKETS: u64 = TRACE_SECS * RATE as u64;

/// The most of its packets targeted redundancy may send through the
/// event heap.
const TARGETED_FULL_SHARE_CEILING: f64 = 0.10;

/// Replays NYC → SJC under each of `kinds` on a scratch of its own and
/// returns what each scratch counted.
fn replay(kinds: [SchemeKind; 2]) -> [ReplayCounters; 2] {
    let spec = TopoSpec::NorthAmerica;
    let g = spec.build();
    let mut cfg = SyntheticWanConfig::calibrated(2017);
    cfg.duration = Micros::from_secs(TRACE_SECS);
    let traces = gen::generate(&g, &cfg);
    let flow = Flow::new(g.node_by_name("NYC").unwrap(), g.node_by_name("SJC").unwrap());
    let deadline = spec.default_deadline(&g, &[(flow.source, flow.destination)]);
    let config = PlaybackConfig { packets_per_second: RATE, deadline, ..PlaybackConfig::default() };
    kinds.map(|kind| {
        let requirement = ServiceRequirement::new(deadline);
        let mut scheme = build_scheme(kind, &g, flow, requirement, &SchemeParams::default())
            .expect("NYC -> SJC is routable");
        let mut scratch = SimScratch::new();
        let out = run_flow_full_with(&g, &traces, scheme.as_mut(), &config, &mut scratch);
        assert_eq!(out.stats.packets_sent, PACKETS, "{kind}");
        scratch.replay()
    })
}

#[test]
fn replay_counters_are_pinned_on_the_calibrated_trace() {
    let [targeted, flooding] =
        replay([SchemeKind::TargetedRedundancy, SchemeKind::TimeConstrainedFlooding]);
    for (kind, c) in [("targeted", targeted), ("flooding", flooding)] {
        let counted = c.wave_hits + c.wave_repairs + c.full_propagations;
        assert_eq!(counted, PACKETS, "{kind}: every packet counted once");
        assert!(c.straddlers <= c.full_propagations, "{kind}: a straddler is a full propagation");
        // Every propagation and every wavefront build pushes its send.
        assert!(c.heap_pushes >= c.full_propagations + c.wave_builds, "{kind}: {c:?}");
    }
    assert!(
        targeted.full_share() < TARGETED_FULL_SHARE_CEILING,
        "targeted sent {:.4} of its packets through the event heap",
        targeted.full_share()
    );
    let pinned =
        |wave_hits, wave_repairs, full_propagations, straddlers, wave_builds, heap_pushes| {
            ReplayCounters {
                wave_hits,
                wave_repairs,
                full_propagations,
                straddlers,
                wave_builds,
                heap_pushes,
            }
        };
    assert_eq!(targeted, pinned(39_826, 44, 130, 130, 2, 984));
    assert_eq!(flooding, pinned(39_432, 438, 130, 130, 2, 2_312));
}
