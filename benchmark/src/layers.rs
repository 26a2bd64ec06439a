//! The `layers` pass: each public function timed on its own, with
//! inputs taken from the workloads. A call is run in batches of
//! `Ctx::call_batch`, timed on the calling thread's processor clock, and
//! the better quartile of five batches is reported, so the numbers say
//! what one layer costs when nothing else contends.

use crate::host::HostSpeed;
use crate::report::RunResult;
use crate::stats::{better_quartile, median, Better, SplitMix64};
use crate::Ctx;
use bytes::{Bytes, BytesMut};
use dg_core::scheme::{build_scheme, SchemeKind, SchemeParams};
use dg_core::{CachedGraphKind, Flow, GraphCache, MulticastKind, ServiceRequirement, SlaClass};
use dg_overlay::fault::{FaultPlan, LinkFault};
use dg_overlay::pool::BufferPool;
use dg_overlay::recovery::{GapTracker, SendBuffer};
use dg_overlay::shard::ShardedMap;
use dg_overlay::wire::{DataPacket, Envelope, Message};
use dg_sim::{simulate_packet_with, RecoveryModel, SimScratch};
use dg_topology::generate::GeneratorConfig;
use dg_topology::{presets, Graph, Micros, NodeId};
use dg_trace::{LinkCondition, NetworkState, TraceSet};
use std::hint::black_box;
use std::time::Duration;

/// Nanoseconds per call of `f`: the iteration count is raised until a
/// batch lasts `batch`, then five batches run and the better quartile
/// counts.
pub fn time_call(speed: &mut HostSpeed, batch: Duration, mut f: impl FnMut()) -> f64 {
    let mut iters = 1u64;
    // Scaled to the reference host's speed, as every processor-bound
    // time in this benchmark is.
    let mut run = |iters: u64, f: &mut dyn FnMut()| {
        let ((), seconds) = speed.timed(|| {
            for _ in 0..iters {
                f();
            }
        });
        Duration::from_secs_f64(seconds)
    };
    loop {
        let took = run(iters, &mut f);
        if took >= batch || iters >= 1 << 40 {
            break;
        }
        // Aim straight at the target once the timing is readable.
        iters = if took < Duration::from_micros(50) {
            iters * 8
        } else {
            (iters as f64 * (batch.as_secs_f64() / took.as_secs_f64()) * 1.1).ceil() as u64
        };
    }
    let batches: Vec<f64> =
        (0..5).map(|_| run(iters, &mut f).as_nanos() as f64 / iters as f64).collect();
    better_quartile(&batches, Better::Lower)
}

fn data_packet(payload: usize, link_seq: u64) -> DataPacket {
    DataPacket {
        flow: Flow::new(NodeId::new(0), NodeId::new(3)),
        flow_seq: link_seq,
        sent_at: Micros::from_micros(1_700_000_000_000_000),
        deadline: Micros::from_millis(65),
        link_seq,
        retransmission: false,
        class: SlaClass::Timely,
        // The 4-node chain has six directed edges: a one-byte mask.
        mask: Bytes::from_static(&[0b0001_0101]),
        payload: Bytes::from(vec![0xAB; payload]),
    }
}

/// The overlay's per-packet functions, as `fwd_sat_*` drives them.
pub fn overlay_calls(ctx: &mut Ctx, result: &mut RunResult) {
    let batch = ctx.call_batch();
    let from = NodeId::new(1);

    for (payload, encode, decode) in [
        (64, "overlay.wire.encode_ns.64", "overlay.wire.decode_ns.64"),
        (1200, "overlay.wire.encode_ns.1200", "overlay.wire.decode_ns.1200"),
    ] {
        let envelope = Envelope { from, message: Message::Data(data_packet(payload, 7)) };
        let mut buf = BytesMut::with_capacity(2048);
        result.set(
            encode,
            time_call(&mut ctx.speed, batch, || {
                buf.clear();
                black_box(&envelope).encode_into(&mut buf);
                black_box(&buf);
            }),
        );
        let frame = envelope.encode();
        result.set(
            decode,
            time_call(&mut ctx.speed, batch, || {
                black_box(Envelope::decode_shared(black_box(&frame)).expect("own frame decodes"));
            }),
        );
    }

    let batch32 = Envelope {
        from,
        message: Message::DataBatch((0..32).map(|i| data_packet(64, i)).collect()),
    };
    let mut buf = BytesMut::with_capacity(8192);
    result.set(
        "overlay.wire.batch32_encode_ns",
        time_call(&mut ctx.speed, batch, || {
            buf.clear();
            black_box(&batch32).encode_into(&mut buf);
            black_box(&buf);
        }),
    );
    let frame = batch32.encode();
    result.set(
        "overlay.wire.batch32_decode_ns",
        time_call(&mut ctx.speed, batch, || {
            black_box(Envelope::decode_shared(black_box(&frame)).expect("own frame decodes"));
        }),
    );

    // A link with an emulated delay and the burst model armed, as every
    // cluster link has.
    let plan = FaultPlan::with_seed(ctx.seed);
    let neighbor = NodeId::new(2);
    plan.set(
        neighbor,
        LinkFault {
            delay: Micros::from_millis(5),
            burst: Some(dg_overlay::fault::BurstLoss {
                p_enter: 0.001,
                p_exit: 0.2,
                good_loss: 0.0,
                bad_loss: 0.5,
            }),
            ..LinkFault::default()
        },
    );
    result.set(
        "overlay.fault.decide_ns",
        time_call(&mut ctx.speed, batch, || {
            black_box(plan.decide(black_box(neighbor)));
        }),
    );

    // In-order arrivals with every 100th sequence skipped: mostly the
    // fast path, sometimes a one-packet gap.
    let mut tracker = GapTracker::new();
    let mut seq = 0u64;
    result.set(
        "overlay.recovery.observe_ns",
        time_call(&mut ctx.speed, batch, || {
            seq += if seq % 100 == 99 { 2 } else { 1 };
            black_box(tracker.observe(seq, Micros::from_micros(seq)));
        }),
    );

    // A full retransmission buffer: push one, take one from the middle.
    let mut sendbuf: SendBuffer<DataPacket> = SendBuffer::new(2048);
    let packet = data_packet(64, 0);
    let mut next = 0u64;
    for _ in 0..2048 {
        sendbuf.push(next, packet.clone());
        next += 1;
    }
    result.set(
        "overlay.recovery.sendbuf_ns",
        time_call(&mut ctx.speed, batch, || {
            sendbuf.push(next, packet.clone());
            black_box(sendbuf.take(next - 1024));
            next += 1;
        }),
    );

    let sessions: ShardedMap<Flow, u64> = ShardedMap::new();
    for i in 0..64 {
        sessions.insert(Flow::new(NodeId::new(i), NodeId::new(i + 1)), u64::from(i));
    }
    let key = Flow::new(NodeId::new(17), NodeId::new(18));
    result.set(
        "overlay.shard.with_ns",
        time_call(&mut ctx.speed, batch, || {
            black_box(sessions.with(black_box(&key), |v| *v));
        }),
    );

    let mut pool = BufferPool::default();
    result.set(
        "overlay.pool.cycle_ns",
        time_call(&mut ctx.speed, batch, || {
            let mut b = pool.get();
            b.extend_from_slice(&[0u8; 128]);
            pool.put(black_box(b));
        }),
    );
}

/// The control plane's functions, on the inputs of `ctrl_churn` and
/// `path_loss`.
pub fn core_calls(
    ctx: &mut Ctx,
    w100: &Graph,
    w100_flows: &[Flow],
    deadline: Micros,
    result: &mut RunResult,
) {
    let batch = ctx.call_batch();
    let us = presets::north_america_12();
    let flow = Flow::new(
        us.node_by_name("NYC").expect("preset has NYC"),
        us.node_by_name("SJC").expect("preset has SJC"),
    );
    let requirement = ServiceRequirement::default();
    let params = SchemeParams::default();

    for (kind, name) in [
        (SchemeKind::StaticTwoDisjoint, "core.scheme.build_us.two_disjoint"),
        (SchemeKind::TargetedRedundancy, "core.scheme.build_us.targeted"),
        (SchemeKind::TimeConstrainedFlooding, "core.scheme.build_us.flooding"),
    ] {
        let ns = time_call(&mut ctx.speed, batch, || {
            black_box(
                build_scheme(kind, &us, flow, requirement, &params).expect("NYC->SJC routes"),
            );
        });
        result.set(name, ns / 1000.0);
    }
    let w_req = ServiceRequirement::new(deadline);
    let w_flow = w100_flows[0];
    let ns = time_call(&mut ctx.speed, batch, || {
        black_box(
            build_scheme(SchemeKind::TargetedRedundancy, w100, w_flow, w_req, &params)
                .expect("representative flows route"),
        );
    });
    result.set("core.scheme.build_us.targeted_w100", ns / 1000.0);

    // One targeted scheme fed a clean state, then alternately a problem
    // at the source and a clean state (so every update switches graph).
    let mut scheme = build_scheme(SchemeKind::TargetedRedundancy, &us, flow, requirement, &params)
        .expect("NYC->SJC routes");
    let clean = NetworkState::clean(us.edge_count(), Micros::ZERO);
    let mut problem = clean.clone();
    for &e in us.out_edges(flow.source) {
        problem.set_condition(e, LinkCondition::new(0.5, Micros::ZERO));
    }
    result.set(
        "core.scheme.update_ns.clean",
        time_call(&mut ctx.speed, batch, || {
            black_box(scheme.update(&us, black_box(&clean)));
        }),
    );
    let mut flip = false;
    result.set(
        "core.scheme.update_ns.problem",
        time_call(&mut ctx.speed, batch, || {
            flip = !flip;
            black_box(scheme.update(&us, if flip { &problem } else { &clean }));
        }),
    );

    let graph = scheme.current().clone();
    result.set(
        "core.dgraph.bitmask_ns",
        time_call(&mut ctx.speed, batch, || {
            black_box(black_box(&graph).to_bitmask(us.edge_count()));
        }),
    );

    // Cache hit: a warm Robust live lookup. Miss: the same lookup after
    // an epoch flush. note_loss: one flip with every flow's live graph
    // resident, alternating down and up.
    let cache = GraphCache::new(w100.clone(), params);
    for &f in w100_flows {
        cache.live(f, CachedGraphKind::Robust, w_req).expect("representative flows route");
    }
    result.set(
        "core.cache.hit_ns",
        time_call(&mut ctx.speed, batch, || {
            black_box(cache.live(black_box(w_flow), CachedGraphKind::Robust, w_req).expect("hit"));
        }),
    );
    let ns = time_call(&mut ctx.speed, batch, || {
        cache.advance_epoch();
        black_box(cache.live(w_flow, CachedGraphKind::Robust, w_req).expect("miss recomputes"));
    });
    result.set("core.cache.miss_us", ns / 1000.0);
    for &f in w100_flows {
        cache.live(f, CachedGraphKind::Robust, w_req).expect("representative flows route");
    }
    // Each flip is timed on its own, with every flow's graph resident
    // again before the next, so invalidation has work to do.
    let on_graph = cache.live(w_flow, CachedGraphKind::Robust, w_req).expect("hit").edges()[0];
    let flips: Vec<f64> = (0..200)
        .map(|i| {
            let loss = if i % 2 == 0 { 0.9 } else { 0.0 };
            let (_, seconds) = ctx.speed.timed(|| black_box(cache.note_loss(on_graph, loss)));
            let took = seconds * 1e6;
            for &f in w100_flows {
                cache.live(f, CachedGraphKind::Robust, w_req).expect("representative flows route");
            }
            took
        })
        .collect();
    // Down and up flips alternate and cost differently: the median of both.
    result.set("core.cache.note_loss_us", median(&flips));

    let mut rng = SplitMix64(ctx.seed ^ 0x6d67);
    let receivers: Vec<NodeId> =
        (0..6).map(|_| NodeId::new(rng.below(w100.node_count()) as u32)).collect();
    let ns = time_call(&mut ctx.speed, batch, || {
        black_box(
            cache
                .compute_multicast_uncached(
                    w_flow.source,
                    &receivers,
                    MulticastKind::Targeted,
                    w_req,
                )
                .expect("multicast group routes"),
        );
    });
    result.set("core.mgraph.build_us", ns / 1000.0);

    let ns = time_call(&mut ctx.speed, batch, || {
        black_box(GeneratorConfig::waxman(100, 2017).generate());
    });
    result.set("topology.generate_ms.w100", ns / 1e6);
}

/// The simulator's per-packet function and the trace lookup under it.
pub fn sim_calls(
    ctx: &mut Ctx,
    graph: &Graph,
    traces: &TraceSet,
    flow: Flow,
    result: &mut RunResult,
) {
    let batch = ctx.call_batch();
    let requirement = ServiceRequirement::default();
    let recovery = RecoveryModel::default();
    let span_us = traces.duration().as_micros();
    for (kind, name) in [
        (SchemeKind::StaticSinglePath, "sim.packet.simulate_ns.single"),
        (SchemeKind::TargetedRedundancy, "sim.packet.simulate_ns.targeted"),
        (SchemeKind::TimeConstrainedFlooding, "sim.packet.simulate_ns.flooding"),
    ] {
        let scheme = build_scheme(kind, graph, flow, requirement, &SchemeParams::default())
            .expect("NYC->SJC routes");
        let mut scratch = SimScratch::new();
        scratch.index_graph(graph, scheme.current());
        let mut seq = 0u64;
        result.set(
            name,
            time_call(&mut ctx.speed, batch, || {
                seq += 1;
                black_box(simulate_packet_with(
                    &mut scratch,
                    graph,
                    scheme.current(),
                    traces,
                    Micros::from_micros((seq * 10_000) % span_us),
                    requirement.deadline,
                    &recovery,
                    ctx.seed,
                    seq,
                ));
            }),
        );
    }
    let edges: Vec<_> = graph.edges().collect();
    let mut i = 0usize;
    result.set(
        "trace.condition_at_ns",
        time_call(&mut ctx.speed, batch, || {
            i += 1;
            black_box(traces.condition_at(
                edges[i % edges.len()],
                Micros::from_micros((i as u64 * 7_919) % span_us),
            ));
        }),
    );
}
