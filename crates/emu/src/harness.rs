//! The deployment harness: spawn, disrupt, collect.
//!
//! [`EmuRun`] owns the full lifecycle of a multi-process deployment on
//! one shared timeline (milliseconds since the first spawn wave):
//!
//! ```text
//! 0 ───── warmup ───── chaos window ── recover ┬─ measure ─┬ drain ┬ quiesce ┬ end
//! spawn + READY waits  kills/partitions        baseline    traffic  pause     final
//! traffic starts       restarts/heals          snapshots   stops    originat. dumps
//! ```
//!
//! Every daemon anchors this timeline to the same wall-clock instant
//! (`dg-node --epoch-us`, stamped once at deploy time), so a respawned
//! daemon receives flags *identical* to its first incarnation:
//! deadlines already past are honoured immediately — missed chaos
//! events replay instantly in order, a missed baseline is skipped —
//! and snapshots, traffic stop, and quiesce happen deployment-wide at
//! the same real moments no matter how many times a process died in
//! between.

use crate::ports;
use crate::verify::{verify, NodeReport, Verdict};
use dg_core::SlaClass;
use dg_overlay::chaos::{ChaosAction, ChaosSchedule};
use dg_overlay::{MetricsSnapshot, NodeFileConfig, SlaFlowSpec, SlaPlan};
use dg_topology::{Graph, NodeId};
use serde::Serialize;
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::Read;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Everything that can sink a deployment before the verifier even
/// runs.
#[derive(Debug)]
pub enum EmuError {
    /// Filesystem trouble preparing or collecting the deployment.
    Io(std::io::Error),
    /// The port allocator could not find enough free UDP ports.
    NoPorts,
    /// A daemon process could not be spawned.
    Spawn {
        /// The node whose daemon failed to start.
        node: String,
        /// The underlying error.
        error: std::io::Error,
    },
    /// A daemon never printed its `READY` line (the log tail is
    /// included for the post-mortem).
    ReadyTimeout {
        /// The node that never became ready.
        node: String,
        /// The last portion of the daemon's log.
        log_tail: String,
    },
}

impl fmt::Display for EmuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmuError::Io(e) => write!(f, "deployment i/o failed: {e}"),
            EmuError::NoPorts => write!(f, "no free UDP ports for the deployment"),
            EmuError::Spawn { node, error } => {
                write!(f, "cannot spawn dg-node for {node}: {error}")
            }
            EmuError::ReadyTimeout { node, log_tail } => {
                write!(f, "{node} never reported READY; log tail:\n{log_tail}")
            }
        }
    }
}

impl std::error::Error for EmuError {}

impl From<std::io::Error> for EmuError {
    fn from(e: std::io::Error) -> Self {
        EmuError::Io(e)
    }
}

/// Tuning for an [`EmuRun`]; `new` fills in soak-tested defaults.
#[derive(Debug, Clone)]
pub struct EmuOptions {
    /// The `dg-node` binary to deploy.
    pub node_bin: PathBuf,
    /// Where configs, logs, metrics, and the report land.
    pub out_dir: PathBuf,
    /// Seed for port assignment (and recorded in the report).
    pub seed: u64,
    /// Convergence head-room before the first chaos event.
    pub warmup_ms: u64,
    /// Margin between the last chaos event and the baseline snapshot,
    /// sized to cover link-down detection, flap hold-downs, and route
    /// recomputation.
    pub recover_ms: u64,
    /// Post-heal measurement window (baseline → traffic stop).
    pub measure_ms: u64,
    /// Drain after traffic stops, so in-flight packets and NACK
    /// repairs land before anything is judged.
    pub drain_ms: u64,
    /// Quiesce window: link-state origination pauses this long before
    /// the final snapshots, so digests settle to one fingerprint.
    pub quiesce_ms: u64,
    /// Fixed-rate control-stream load per flow (packets per second).
    pub traffic_pps: u64,
    /// Post-heal delivery ratio every surviving flow must clear.
    pub threshold: f64,
    /// How long a daemon may take to print `READY`.
    pub ready_timeout_ms: u64,
    /// Grace past the nominal end before stragglers are force-killed.
    pub shutdown_grace_ms: u64,
}

impl EmuOptions {
    /// Defaults for a localhost soak: 2 s warm-up, 1.5 s recovery
    /// margin, 2.5 s measurement, 100 pps per flow, 99% threshold.
    pub fn new(node_bin: PathBuf, out_dir: PathBuf, seed: u64) -> EmuOptions {
        EmuOptions {
            node_bin,
            out_dir,
            seed,
            warmup_ms: 2_000,
            recover_ms: 1_500,
            measure_ms: 2_500,
            drain_ms: 400,
            quiesce_ms: 1_600,
            traffic_pps: 100,
            threshold: 0.99,
            ready_timeout_ms: 10_000,
            shutdown_grace_ms: 10_000,
        }
    }
}

/// What a finished run reports (also serialized to
/// `<out>/report.json`).
#[derive(Debug, Clone, Serialize)]
pub struct EmuReport {
    /// The verifier's judgement (collection failures are folded in).
    pub verdict: Verdict,
    /// Nodes alive at the nominal end of the run.
    pub survivors: Vec<String>,
    /// Hard process kills the harness executed, in schedule order.
    pub hard_kills: Vec<String>,
    /// Respawns the harness executed, in schedule order.
    pub restarts: Vec<String>,
    /// Nodes that ignored the graceful window and had to be
    /// force-killed at teardown (each also fails the verdict, by
    /// rule 3 or by its missing final dump).
    pub forced_teardown: Vec<String>,
    /// Total nominal run length on the shared timeline.
    pub run_ms: u64,
    /// The seed the deployment ran under.
    pub seed: u64,
}

/// The shared deployment timeline, all in ms since the first spawn.
#[derive(Debug, Clone, Copy)]
struct Timeline {
    baseline_at: u64,
    traffic_stop: u64,
    quiesce_at: u64,
    run_ms: u64,
}

/// One node's deployment state.
struct NodeSlot {
    name: String,
    config_path: PathBuf,
    chaos_dir: PathBuf,
    log_path: PathBuf,
    metrics_path: PathBuf,
    baseline_path: PathBuf,
    child: Option<Child>,
}

/// A fully-specified deployment, ready to execute.
pub struct EmuRun {
    graph: Graph,
    flows: Vec<(NodeId, NodeId)>,
    deadline_ms: u64,
    /// Relative to "chaos starts"; shifted by `warmup_ms` at execute.
    schedule: ChaosSchedule,
    options: EmuOptions,
}

impl EmuRun {
    /// A deployment of `graph` carrying `flows` (each opened as a
    /// Timely-class SLA flow with `deadline_ms`), disrupted by
    /// `schedule` (authored relative to the end of warm-up).
    pub fn new(
        graph: Graph,
        flows: Vec<(NodeId, NodeId)>,
        deadline_ms: u64,
        schedule: ChaosSchedule,
        options: EmuOptions,
    ) -> EmuRun {
        EmuRun { graph, flows, deadline_ms, schedule, options }
    }

    /// Runs the whole lifecycle: distribute, deploy, disrupt, collect,
    /// verify. Returns the report; `Err` means the deployment itself
    /// broke (spawn failure, readiness timeout, i/o), not that
    /// verification failed — check [`Verdict::passed`] for that.
    ///
    /// # Errors
    ///
    /// Returns an [`EmuError`] when the deployment cannot be prepared,
    /// a daemon cannot be spawned or never reports ready, or collected
    /// artifacts cannot be read.
    pub fn execute(mut self) -> Result<EmuReport, EmuError> {
        let absolute = self.schedule.shifted(self.options.warmup_ms);
        let timeline = {
            let baseline_at = absolute.end_ms() + self.options.recover_ms;
            let traffic_stop = baseline_at + self.options.measure_ms;
            let quiesce_at = traffic_stop + self.options.drain_ms;
            Timeline {
                baseline_at,
                traffic_stop,
                quiesce_at,
                run_ms: quiesce_at + self.options.quiesce_ms,
            }
        };

        let mut slots = self.distribute(&absolute, timeline)?;
        let started = Instant::now();
        // Every daemon anchors its deadlines to this one wall-clock
        // instant (--epoch-us): snapshots, quiesce, and traffic stop
        // happen deployment-wide at the same real moments no matter
        // when each process was spawned or respawned.
        let epoch_us = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_micros() as u64);
        // Deploy: spawn everyone, then wait for every READY line.
        for slot in &mut slots {
            self.spawn(slot, timeline, epoch_us)?;
        }
        for slot in &mut slots {
            self.wait_ready(slot)?;
        }

        // Disrupt: the harness owns process-level events; daemons
        // replay their sharded impairments themselves.
        let mut hard_kills = Vec::new();
        let mut restarts = Vec::new();
        for event in absolute.process_events() {
            let target = started + Duration::from_millis(event.at_ms);
            let now = Instant::now();
            if target > now {
                std::thread::sleep(target - now);
            }
            match event.action {
                ChaosAction::CrashNode { node } => {
                    let slot = &mut slots[node.index()];
                    if let Some(mut child) = slot.child.take() {
                        // SIGKILL-equivalent: no chance to flush, no
                        // goodbye to peers — they learn from hello
                        // silence.
                        let _ = child.kill();
                        let _ = child.wait();
                        hard_kills.push(slot.name.clone());
                        println!("emu: hard-killed {} at {} ms", slot.name, event.at_ms);
                    }
                }
                ChaosAction::RestartNode { node } => {
                    let elapsed_ms = started.elapsed().as_millis() as u64;
                    let slot = &mut slots[node.index()];
                    if slot.child.is_none() {
                        self.spawn(slot, timeline, epoch_us)?;
                        self.wait_ready_from(slot, restarts.len() + 1)?;
                        restarts.push(slot.name.clone());
                        println!("emu: restarted {} at {} ms (same port)", slot.name, elapsed_ms);
                    }
                }
                _ => {}
            }
        }

        // Let the run play out, then tear down: graceful first (every
        // daemon has its own --run-ms and exits by itself), per-process
        // waits against a shared deadline, forced kill as last resort.
        let nominal_end = started + Duration::from_millis(timeline.run_ms);
        let now = Instant::now();
        if nominal_end > now {
            std::thread::sleep(nominal_end - now);
        }
        let survivors: Vec<String> =
            slots.iter().filter(|s| s.child.is_some()).map(|s| s.name.clone()).collect();
        let grace_deadline = nominal_end + Duration::from_millis(self.options.shutdown_grace_ms);
        let mut forced_teardown = Vec::new();
        let mut exit_codes = vec![None; slots.len()];
        for (slot, exit_code) in slots.iter_mut().zip(&mut exit_codes) {
            let Some(child) = slot.child.as_mut() else { continue };
            let status = loop {
                match child.try_wait()? {
                    Some(status) => break Some(status),
                    None if Instant::now() >= grace_deadline => {
                        let _ = child.kill();
                        forced_teardown.push(slot.name.clone());
                        break child.wait().ok();
                    }
                    None => std::thread::sleep(Duration::from_millis(20)),
                }
            };
            *exit_code = status.and_then(|status| status.code());
            slot.child = None;
        }

        // Collect + verify.
        let mut collection_failures = Vec::new();
        let mut reports = Vec::new();
        for (slot, exit_code) in slots.iter().zip(exit_codes) {
            if !survivors.contains(&slot.name) {
                continue;
            }
            match read_snapshot(&slot.metrics_path) {
                Ok(snapshot) => reports.push(NodeReport {
                    name: slot.name.clone(),
                    exit_code,
                    snapshot,
                    baseline: read_snapshot(&slot.baseline_path).ok(),
                }),
                Err(e) => collection_failures
                    .push(format!("{}: final metrics unreadable: {e}", slot.name)),
            }
        }
        // A daemon force-killed at teardown fails once: rule 3 (it did
        // not exit 0) or, without a final dump, the collection failure.
        let mut verdict = verify(&self.graph, &self.flows, self.options.threshold, &reports);
        verdict.failures.extend(collection_failures);
        verdict.passed = verdict.failures.is_empty();

        let report = EmuReport {
            verdict,
            survivors,
            hard_kills,
            restarts,
            forced_teardown,
            run_ms: timeline.run_ms,
            seed: self.options.seed,
        };
        let json = serde_json::to_string_pretty(&report).expect("report serializes");
        fs::write(self.options.out_dir.join("report.json"), json)?;
        Ok(report)
    }

    /// Distribute: ports, topology file, SLA plan, per-node configs
    /// and chaos shards.
    fn distribute(
        &mut self,
        absolute: &ChaosSchedule,
        timeline: Timeline,
    ) -> Result<Vec<NodeSlot>, EmuError> {
        let out = self.options.out_dir.clone();
        for sub in ["configs", "chaos", "logs", "metrics"] {
            fs::create_dir_all(out.join(sub))?;
        }
        let n = self.graph.node_count();
        let ports = ports::allocate(n, self.options.seed).ok_or(EmuError::NoPorts)?;
        let addrs: Vec<SocketAddr> =
            ports.iter().map(|&p| SocketAddr::from(([127, 0, 0, 1], p))).collect();

        let topo_path = out.join("topology.json");
        let topo_json = serde_json::to_string_pretty(&self.graph).expect("graph serializes");
        fs::write(&topo_path, topo_json)?;

        let plan = SlaPlan {
            flows: self
                .flows
                .iter()
                .map(|&(s, t)| SlaFlowSpec {
                    source: self.graph.node(s).name.clone(),
                    destination: self.graph.node(t).name.clone(),
                    class: SlaClass::Timely,
                    deadline_ms: Some(self.deadline_ms),
                })
                .collect(),
        };
        let sla_path = out.join("sla.json");
        fs::write(&sla_path, plan.to_json())?;

        let mut slots = Vec::with_capacity(n);
        for node in self.graph.nodes() {
            let name = self.graph.node(node).name.clone();
            let mut file = NodeFileConfig::new(
                topo_path.to_str().expect("utf-8 path"),
                &name,
                addrs[node.index()],
            );
            // Soak cadences: quick link-down detection and anti-entropy
            // (the resilience suite's settings), and an aging horizon
            // past the run so a dead origin's reports freeze
            // identically everywhere instead of expiring mid-compare.
            file.hello_interval_ms = Some(25);
            file.link_state_interval_ms = Some(100);
            file.digest_interval_ms = Some(300);
            file.link_state_max_age_ms = Some(timeline.run_ms + 30_000);
            file.fault_seed = Some(self.options.seed);
            for &edge in self.graph.out_edges(node) {
                let peer = self.graph.edge(edge).dst;
                file.peers.insert(self.graph.node(peer).name.clone(), addrs[peer.index()]);
            }
            let config_path = out.join("configs").join(format!("{name}.json"));
            fs::write(&config_path, file.to_json())?;

            let shard = absolute.shard_for_node(&self.graph, node);
            fs::write(out.join("chaos").join(format!("{name}.json")), shard.to_json())?;
            slots.push(NodeSlot {
                chaos_dir: out.join("chaos"),
                log_path: out.join("logs").join(format!("{name}.log")),
                metrics_path: out.join("metrics").join(format!("{name}.json")),
                baseline_path: out.join("metrics").join(format!("{name}.baseline.json")),
                config_path,
                name,
                child: None,
            });
        }
        Ok(slots)
    }

    /// Spawns (or respawns) one daemon. Every spawn gets the same
    /// flags: deadlines are absolute on the `--epoch-us` timeline, so a
    /// respawned daemon needs no rebasing — it honours past deadlines
    /// immediately (replaying missed chaos events in order, skipping a
    /// missed baseline) and keeps future ones at their shared instants.
    fn spawn(
        &self,
        slot: &mut NodeSlot,
        timeline: Timeline,
        epoch_us: u64,
    ) -> Result<(), EmuError> {
        let shard_path = slot.chaos_dir.join(format!("{}.json", slot.name));
        let log = fs::OpenOptions::new().create(true).append(true).open(&slot.log_path)?;
        let log_err = log.try_clone()?;
        let mut command = Command::new(&self.options.node_bin);
        command
            .arg("--config")
            .arg(&slot.config_path)
            .arg("--epoch-us")
            .arg(epoch_us.to_string())
            .arg("--run-ms")
            .arg(timeline.run_ms.to_string())
            .arg("--metrics-json")
            .arg(&slot.metrics_path)
            .arg("--chaos-json")
            .arg(&shard_path)
            .arg("--sla-json")
            .arg(self.options.out_dir.join("sla.json"))
            .arg("--quiesce-at-ms")
            .arg(timeline.quiesce_at.to_string())
            .arg("--baseline-json")
            .arg(&slot.baseline_path)
            .arg("--baseline-at-ms")
            .arg(timeline.baseline_at.to_string())
            .stdout(Stdio::from(log))
            .stderr(Stdio::from(log_err));
        if self.options.traffic_pps > 0 {
            command
                .arg("--traffic-pps")
                .arg(self.options.traffic_pps.to_string())
                .arg("--traffic-stop-ms")
                .arg(timeline.traffic_stop.to_string());
        }
        let child =
            command.spawn().map_err(|error| EmuError::Spawn { node: slot.name.clone(), error })?;
        slot.child = Some(child);
        Ok(())
    }

    /// Waits for the daemon's first `READY` line.
    fn wait_ready(&self, slot: &mut NodeSlot) -> Result<(), EmuError> {
        self.wait_ready_from(slot, 1)
    }

    /// Waits until the daemon's log holds `occurrence` READY lines —
    /// a respawned daemon appends to the same log, so its readiness is
    /// the (restarts+1)-th occurrence. Bounded retry with exponential
    /// backoff: 5 ms doubling to a 320 ms cap, up to
    /// `ready_timeout_ms` total.
    fn wait_ready_from(&self, slot: &mut NodeSlot, occurrence: usize) -> Result<(), EmuError> {
        let marker = format!("READY {} ", slot.name);
        let deadline = Instant::now() + Duration::from_millis(self.options.ready_timeout_ms);
        let mut backoff = Duration::from_millis(5);
        loop {
            let log = fs::read_to_string(&slot.log_path).unwrap_or_default();
            if log.matches(&marker).count() >= occurrence {
                return Ok(());
            }
            // A daemon that already exited will never become ready;
            // surface its log instead of burning the whole timeout.
            let died =
                slot.child.as_mut().is_none_or(|child| child.try_wait().ok().flatten().is_some());
            if died || Instant::now() + backoff > deadline {
                let tail: String = log.chars().skip(log.len().saturating_sub(800)).collect();
                return Err(EmuError::ReadyTimeout { node: slot.name.clone(), log_tail: tail });
            }
            std::thread::sleep(backoff);
            backoff = (backoff * 2).min(Duration::from_millis(320));
        }
    }
}

/// Reads and parses one atomically-written snapshot.
fn read_snapshot(path: &Path) -> Result<MetricsSnapshot, String> {
    let mut raw = String::new();
    fs::File::open(path)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .read_to_string(&mut raw)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&raw).map_err(|e| format!("{}: {e}", path.display()))
}

/// Per-node peer wiring sanity used by tests: every out-neighbour of
/// every node must appear in that node's generated peer table.
#[doc(hidden)]
pub fn peer_table(
    graph: &Graph,
    addrs: &[SocketAddr],
    node: NodeId,
) -> HashMap<String, SocketAddr> {
    graph
        .out_edges(node)
        .iter()
        .map(|&e| {
            let peer = graph.edge(e).dst;
            (graph.node(peer).name.clone(), addrs[peer.index()])
        })
        .collect()
}
