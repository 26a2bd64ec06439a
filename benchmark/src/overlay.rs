//! The overlay workloads' shared machinery: launching a localhost
//! cluster on a named runtime, the one generator thread that both
//! sends and drains, and the per-packet output checks.
//!
//! All traffic is host loopback UDP between nodes of one process; no
//! real link is crossed.

use crate::span::{clock_ns, Tracer};
use dg_core::scheme::SchemeKind;
use dg_core::{Flow, ServiceRequirement};
use dg_overlay::cluster::{Cluster, ClusterConfig};
use dg_overlay::session::{Delivery, FlowReceiver, FlowSender};
use dg_overlay::{now_us, ClusterMetricsReport, Runtime};
use dg_topology::{Graph, GraphBuilder, Micros, NodeId};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// The paper's one-way budget; a packet delivered later, or never,
/// missed its deadline.
pub const DEADLINE_US: u64 = 65_000;

/// A trial whose generator ran later than this was hit by a host stall
/// and is discarded and re-run.
pub const STALL_US: f64 = 20_000.0;

/// How long a full closed-loop pipe may deliver nothing before its
/// contents count as lost.
const STUCK: Duration = Duration::from_millis(100);

/// Packets whose origin time the ledger remembers.
const RING: u64 = 1 << 16;

/// Spans are recorded for at most about this many packets per trial,
/// so a saturating trial's trace stays a few MB.
const TRACED_PACKETS_PER_TRIAL: u64 = 20_000;

/// The 4-node chain A→B→C→D: three hops, two relays.
pub fn chain4() -> (Graph, Flow) {
    let mut b = GraphBuilder::new();
    let ids: Vec<NodeId> = ["A", "B", "C", "D"].iter().map(|n| b.add_node(n)).collect();
    for pair in ids.windows(2) {
        b.add_link(pair[0], pair[1], Micros::from_millis(1), 1).expect("chain links are distinct");
    }
    (b.build(), Flow::new(ids[0], ids[3]))
}

pub struct OverlaySpec {
    pub graph: Graph,
    pub flow: Flow,
    /// `threaded` or `reactor:N`, named explicitly; `DG_RUNTIME` is
    /// never read.
    pub runtime: &'static str,
    pub scheme: SchemeKind,
    pub config: ClusterConfig,
}

/// One running cluster with one open flow.
pub struct Instance {
    pub cluster: Cluster,
    runtime: Runtime,
    pub flow: Flow,
    pub tx: FlowSender,
    pub rx: FlowReceiver,
    /// Next `flow_seq` the sender will assign; the harness is the only
    /// caller of `tx`, so it can embed the number in the payload.
    pub next_seq: u64,
    /// Deliveries popped from `rx` since launch.
    pub popped: u64,
}

impl Instance {
    /// Launches the cluster, waits for link state to converge and opens
    /// the flow's two sessions.
    pub fn launch(spec: &OverlaySpec) -> Result<Instance, String> {
        let runtime = Runtime::from_descriptor(spec.runtime);
        let cluster = Cluster::launch_on(&spec.graph, spec.config.clone(), runtime.clone())
            .map_err(|e| format!("cluster launch: {e}"))?;
        if !cluster.wait_for_link_state(Duration::from_secs(10)) {
            return Err("link state did not converge in 10 s".to_string());
        }
        let rx = cluster.open_receiver(spec.flow).map_err(|e| format!("open receiver: {e}"))?;
        let tx = cluster
            .open_sender(spec.flow, spec.scheme, ServiceRequirement::default())
            .map_err(|e| format!("open sender: {e}"))?;
        Ok(Instance { cluster, runtime, flow: spec.flow, tx, rx, next_seq: 0, popped: 0 })
    }

    pub fn report(&self) -> ClusterMetricsReport {
        self.cluster.metrics_report()
    }

    /// Stops the nodes, then the runtime `launch_on` left to the caller.
    pub fn shutdown(self) {
        let Instance { cluster, runtime, tx, rx, .. } = self;
        drop((tx, rx));
        cluster.shutdown();
        runtime.shutdown();
    }
}

#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// Packets are due on a fixed schedule whatever the system does;
    /// latency runs from the due time.
    Open { pps: u32 },
    /// One client keeps at most `cap` packets outstanding, sending
    /// `batch` per `send_batch` call; latency runs from the send.
    Closed { batch: usize, cap: u64 },
}

/// A bounded sample of a stream: every `stride`-th value, the stride
/// doubling whenever the buffer fills, so the harness's memory does not
/// grow with the rate the system reaches (and `rss_mb` does not read a
/// faster system as a fatter one).
#[derive(Debug, Clone)]
pub struct Samples {
    stride: u64,
    offered: u64,
    kept: Vec<f64>,
}

impl Default for Samples {
    fn default() -> Self {
        Samples { stride: 1, offered: 0, kept: Vec::new() }
    }
}

impl Samples {
    const CAP: usize = 1 << 16;

    pub fn push(&mut self, value: f64) {
        if self.offered.is_multiple_of(self.stride) {
            self.kept.push(value);
            if self.kept.len() == 2 * Self::CAP {
                let mut i = 0;
                self.kept.retain(|_| {
                    i += 1;
                    i % 2 == 1
                });
                self.stride *= 2;
            }
        }
        self.offered += 1;
    }

    fn sort(&mut self) {
        self.kept.sort_by(f64::total_cmp);
    }

    /// Nearest-rank quantile; call after the trial has sorted the sample.
    pub fn quantile(&self, q: f64) -> f64 {
        crate::stats::quantile_sorted(&self.kept, q).unwrap_or(0.0)
    }
}

/// What one trial measured.
#[derive(Debug, Default, Clone)]
pub struct Trial {
    pub attempted: u64,
    /// Delivered at all, on time or not.
    pub delivered: u64,
    /// Delivered within [`DEADLINE_US`] of the due (open loop) or send
    /// (closed loop) time.
    pub on_time: u64,
    /// Delivered before the sending window closed; the throughput
    /// numerator.
    pub in_window: u64,
    pub window_s: f64,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Quantiles of the delivered packets' latencies, µs. Only these are
    /// kept: a run of many trials must not hold every trial's samples
    /// (and `rss_mb` must not read them).
    pub lat_p50_us: f64,
    pub lat_p90_us: f64,
    pub lat_p99_us: f64,
    /// Median of `delivered_at − sent_at`, µs.
    pub transit_p50_us: f64,
    /// How late the generator ran against its schedule, µs.
    pub gen_late_p99_us: f64,
    pub gen_late_max_us: f64,
    pub send_calls: u64,
    pub send_call_ns: u64,
    /// Output-check failures.
    pub bad_payload: u64,
    pub duplicates: u64,
    pub send_errors: u64,
}

impl Trial {
    pub fn on_time_frac(&self) -> f64 {
        self.on_time as f64 / self.attempted.max(1) as f64
    }
    pub fn pps(&self) -> f64 {
        self.in_window as f64 / self.window_s
    }
    pub fn hard_failures(&self) -> u64 {
        self.bad_payload + self.duplicates + self.send_errors
    }
}

/// The payload of packet `seq`: the sequence number, then a fill byte
/// derived from it, so a delivery can be checked against what was sent.
fn fill_payload(buf: &mut [u8], seq: u64) {
    buf[..8].copy_from_slice(&seq.to_be_bytes());
    buf[8..].fill(pattern(seq));
}

fn pattern(seq: u64) -> u8 {
    (seq as u8).wrapping_mul(167).wrapping_add(13)
}

fn payload_ok(d: &Delivery, len: usize) -> bool {
    let p = &d.payload;
    p.len() == len
        && p[..8] == d.flow_seq.to_be_bytes()
        && p[8..].iter().all(|&b| b == pattern(d.flow_seq))
}

/// Per-packet stamps of one trial, indexed by `flow_seq − base`.
struct Ledger {
    base: u64,
    payload_len: usize,
    /// Due (open loop) or send (closed loop) time in µs of the last
    /// [`RING`] packets, slot `index % RING`. Far more than are ever in
    /// flight: a delivery whose slot has been reused is a straggler.
    origin_us: Vec<u64>,
    /// One bit per packet sent: delivered already?
    seen: Vec<u64>,
    sent: u64,
    window_end_us: u64,
    highest_seen: Option<u64>,
    /// Packets per send call, and which send calls are traced: every
    /// `trace_every`-th, so the span count stays bounded whatever rate
    /// the system reaches.
    batch: u64,
    trace_every: u64,
    /// Traced send calls: `(first index, origin_us, start_ns, end_ns)`.
    traced_sends: Vec<(u64, u64, u64, u64)>,
    /// Traced deliveries: index → `(sent_at, delivered_at, popped)` in ns.
    traced_pops: HashMap<u64, (u64, u64, u64)>,
    /// Latencies of delivered packets and their `delivered_at −
    /// sent_at`, µs; the generator's lateness against its schedule, µs.
    lat_us: Samples,
    transit_us: Samples,
    gen_late_us: Vec<f64>,
    t: Trial,
}

impl Ledger {
    fn traced(&self, i: u64) -> bool {
        (i / self.batch).is_multiple_of(self.trace_every)
    }

    fn push_origin(&mut self, origin_us: u64) {
        self.origin_us[(self.sent % RING) as usize] = origin_us;
        if self.sent.is_multiple_of(64) {
            self.seen.push(0);
        }
        self.sent += 1;
    }

    /// The origin time of packet `i`, while its ring slot still holds it.
    fn origin(&self, i: u64) -> Option<u64> {
        (i < self.sent && self.sent - i <= RING).then(|| self.origin_us[(i % RING) as usize])
    }

    fn pop(&mut self, d: &Delivery, tracing: bool) {
        // A straggler of an earlier trial: already written off there.
        let Some(i) = d.flow_seq.checked_sub(self.base) else { return };
        if i >= self.sent {
            // Never sent: not a packet of this harness.
            self.t.bad_payload += 1;
            return;
        }
        let (word, bit) = ((i / 64) as usize, 1u64 << (i % 64));
        if self.seen[word] & bit != 0 {
            self.t.duplicates += 1;
            return;
        }
        self.seen[word] |= bit;
        let Some(origin) = self.origin(i) else { return };
        if !payload_ok(d, self.payload_len) {
            self.t.bad_payload += 1;
        }
        let at = d.delivered_at.as_micros();
        let lat = at.saturating_sub(origin);
        self.t.delivered += 1;
        self.t.on_time += u64::from(lat <= DEADLINE_US);
        self.t.in_window += u64::from(at <= self.window_end_us);
        self.lat_us.push(lat as f64);
        self.transit_us.push(d.latency().as_micros() as f64);
        self.highest_seen = Some(self.highest_seen.map_or(i, |h| h.max(i)));
        if tracing && self.traced(i) {
            self.traced_pops.insert(i, (d.sent_at.as_micros() * 1000, at * 1000, clock_ns()));
        }
    }

    /// Turns the stamps into the span chain `harness.due →
    /// overlay.session.send_call → overlay.node.transit → harness.pop`.
    fn emit_spans(&self, tracer: &mut Tracer) {
        for &(first, origin_us, start_ns, end_ns) in &self.traced_sends {
            for i in first..first + self.batch {
                let seq = self.base + i;
                let due_ns = (origin_us * 1000).min(start_ns);
                let pop = self.traced_pops.get(&i);
                let root_end = pop.map_or(end_ns, |p| p.2);
                let root = tracer.record("harness.due", due_ns, root_end, None, seq);
                tracer.record("overlay.session.send_call", start_ns, end_ns, root, seq);
                if let Some(&(sent_ns, delivered_ns, pop_ns)) = pop {
                    tracer.record("overlay.node.transit", sent_ns, delivered_ns, root, seq);
                    tracer.record("harness.pop", delivered_ns, pop_ns, root, seq);
                }
            }
        }
    }
}

/// Runs one trial: sends for `window`, then drains for up to `drain`.
/// `tick` is called on every pass of the generator with the current
/// time in µs, which is where a workload changes faults mid-trial.
pub fn run_trial(
    inst: &mut Instance,
    load: Load,
    payload_len: usize,
    window: Duration,
    drain: Duration,
    tracer: &mut Tracer,
    tick: &mut dyn FnMut(&Instance, u64),
) -> Trial {
    let tracing = tracer.enabled();
    let cpu0 = crate::host::cpu_seconds();
    let wall0 = Instant::now();
    let start_us = now_us().as_micros() + 1_000;
    let (batch, trace_every, expected) = match load {
        Load::Open { pps } => {
            let n = (window.as_secs_f64() * f64::from(pps)) as u64;
            (1, (n / TRACED_PACKETS_PER_TRIAL).max(1), n)
        }
        // The closed loop sends what the system takes; nothing is known
        // in advance.
        Load::Closed { batch, .. } => (batch as u64, 64, 0),
    };
    let mut ledger = Ledger {
        base: inst.next_seq,
        payload_len,
        origin_us: vec![0; RING as usize],
        seen: Vec::new(),
        sent: 0,
        window_end_us: start_us + window.as_micros() as u64,
        highest_seen: None,
        batch,
        trace_every,
        traced_sends: Vec::new(),
        traced_pops: HashMap::new(),
        lat_us: Samples::default(),
        transit_us: Samples::default(),
        gen_late_us: Vec::new(),
        t: Trial::default(),
    };

    match load {
        Load::Open { pps } => {
            let interval_us = 1e6 / f64::from(pps);
            let due = |i: u64| start_us + (i as f64 * interval_us) as u64;
            let mut payload = vec![0u8; payload_len];
            let mut next = 0u64;
            while next < expected {
                let mut now = now_us().as_micros();
                tick(inst, now);
                while next < expected && due(next) <= now {
                    let seq = ledger.base + next;
                    fill_payload(&mut payload, seq);
                    ledger.gen_late_us.push((now - due(next)) as f64);
                    ledger.push_origin(due(next));
                    let traced = tracing && ledger.traced(next);
                    let t0 = if traced { clock_ns() } else { 0 };
                    match inst.tx.send(&payload) {
                        Ok(got) if got == seq => {}
                        _ => ledger.t.send_errors += 1,
                    }
                    if traced {
                        let t1 = clock_ns();
                        ledger.traced_sends.push((next, due(next), t0, t1));
                        ledger.t.send_call_ns += t1 - t0;
                        ledger.t.send_calls += 1;
                    }
                    next += 1;
                    now = now_us().as_micros();
                }
                while let Some(d) = inst.rx.try_recv() {
                    inst.popped += 1;
                    ledger.pop(&d, tracing);
                }
                if next < expected {
                    let wait = due(next).saturating_sub(now_us().as_micros());
                    if wait > 80 {
                        std::thread::sleep(Duration::from_micros(wait - 60));
                    } else {
                        std::thread::yield_now();
                    }
                }
            }
        }
        Load::Closed { batch, cap } => {
            let mut bufs = vec![vec![0u8; payload_len]; batch];
            // Packets below this index are written off as lost.
            let mut floor = 0u64;
            loop {
                let now = now_us().as_micros();
                if now >= ledger.window_end_us {
                    break;
                }
                tick(inst, now);
                let first = ledger.sent;
                for (k, buf) in bufs.iter_mut().enumerate() {
                    fill_payload(buf, ledger.base + first + k as u64);
                    ledger.push_origin(now);
                }
                let refs: Vec<&[u8]> = bufs.iter().map(Vec::as_slice).collect();
                let t0 = if tracing { clock_ns() } else { 0 };
                match inst.tx.send_batch(&refs) {
                    Ok(got) if got == ledger.base + first => {}
                    _ => ledger.t.send_errors += batch as u64,
                }
                if tracing {
                    let t1 = clock_ns();
                    ledger.t.send_call_ns += t1 - t0;
                    ledger.t.send_calls += batch as u64;
                    if ledger.traced(first) {
                        ledger.traced_sends.push((first, now, t0, t1));
                    }
                }
                while let Some(d) = inst.rx.try_recv() {
                    inst.popped += 1;
                    ledger.pop(&d, tracing);
                }
                // At the cap, wait for the pipe to drain. Packets lost
                // inside it never will: after `STUCK` without a single
                // delivery, what is outstanding is written off.
                let mut waiting_since = None;
                loop {
                    let acked = ledger.highest_seen.map_or(0, |h| h + 1).max(floor);
                    if ledger.sent - acked <= cap {
                        break;
                    }
                    match inst.rx.recv_timeout(Duration::from_millis(5)) {
                        Some(d) => {
                            inst.popped += 1;
                            ledger.pop(&d, tracing);
                            waiting_since = None;
                        }
                        None if waiting_since.get_or_insert_with(Instant::now).elapsed()
                            >= STUCK =>
                        {
                            floor = ledger.sent;
                        }
                        None => {}
                    }
                }
            }
        }
    }
    inst.next_seq = ledger.base + ledger.sent;
    ledger.t.attempted = ledger.sent;

    let drain_end = Instant::now() + drain;
    while ledger.t.delivered < ledger.t.attempted {
        let left = drain_end.saturating_duration_since(Instant::now());
        if left.is_zero() {
            break;
        }
        tick(inst, now_us().as_micros());
        if let Some(d) = inst.rx.recv_timeout(left.min(Duration::from_millis(20))) {
            inst.popped += 1;
            ledger.pop(&d, tracing);
        }
    }
    tick(inst, now_us().as_micros());

    if tracing {
        ledger.emit_spans(tracer);
    }
    let Ledger { mut t, mut lat_us, mut transit_us, mut gen_late_us, .. } = ledger;
    t.window_s = window.as_secs_f64();
    t.wall_s = wall0.elapsed().as_secs_f64();
    t.cpu_s = crate::host::cpu_seconds() - cpu0;
    lat_us.sort();
    transit_us.sort();
    gen_late_us.sort_by(f64::total_cmp);
    (t.lat_p50_us, t.lat_p90_us, t.lat_p99_us) =
        (lat_us.quantile(0.5), lat_us.quantile(0.9), lat_us.quantile(0.99));
    t.transit_p50_us = transit_us.quantile(0.5);
    t.gen_late_p99_us = crate::stats::quantile_sorted(&gen_late_us, 0.99).unwrap_or(0.0);
    t.gen_late_max_us = gen_late_us.last().copied().unwrap_or(0.0);
    t
}

/// Sends at the trial's load for `for_` and throws the result away, so
/// sessions, pools and caches are warm before the first timed trial.
/// Always takes `for_` plus [`WARM_UP_DRAIN`], whether the drain found
/// everything delivered at once or waited for a lost packet, so that
/// set-up time does not depend on which.
pub fn warm_up(inst: &mut Instance, load: Load, payload_len: usize, for_: Duration) {
    let started = Instant::now();
    let mut off = Tracer::new(false);
    run_trial(inst, load, payload_len, for_, WARM_UP_DRAIN, &mut off, &mut |_, _| {});
    std::thread::sleep((for_ + WARM_UP_DRAIN).saturating_sub(started.elapsed()));
}

const WARM_UP_DRAIN: Duration = Duration::from_millis(100);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_stay_bounded_and_keep_the_distribution() {
        let mut s = Samples::default();
        let n = 1_000_000u64;
        for i in 0..n {
            s.push(i as f64);
        }
        assert!(s.kept.len() < 2 * Samples::CAP, "kept {}", s.kept.len());
        assert!(s.kept.len() >= Samples::CAP / 2);
        s.sort();
        // A systematic sample of a ramp has the ramp's quantiles.
        assert!((s.quantile(0.5) - 0.5 * n as f64).abs() < 0.001 * n as f64);
        assert!((s.quantile(0.99) - 0.99 * n as f64).abs() < 0.001 * n as f64);

        let mut few = Samples::default();
        for v in [3.0, 1.0, 2.0] {
            few.push(v);
        }
        few.sort();
        assert_eq!(few.quantile(0.5), 2.0);
    }

    #[test]
    fn payload_carries_its_sequence_number() {
        let mut buf = vec![0u8; 64];
        fill_payload(&mut buf, 0x0102_0304_0506_0708);
        assert_eq!(&buf[..8], &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert!(buf[8..].iter().all(|&b| b == pattern(0x0102_0304_0506_0708)));
        assert_ne!(pattern(1), pattern(2));
    }
}
