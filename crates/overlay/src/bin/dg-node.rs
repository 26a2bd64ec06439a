//! `dg-node` — a standalone overlay transport daemon.
//!
//! Runs one overlay node from a JSON config: it joins the overlay,
//! monitors its links, floods link state, and forwards dissemination-
//! graph traffic for any flow crossing it. Applications attach through
//! the in-process session API (see `dg_overlay::cluster` for the
//! single-machine variant); a production deployment would front this
//! daemon with an IPC shim.
//!
//! Usage:
//!   dg-node --emit-topology topology.json        # write the preset
//!   dg-node --config node.json                   # run a node
//!   dg-node --config node.json --run-secs 30 --metrics-json out.json
//!   dg-node --help                               # full flag reference
//!
//! Once the UDP socket is bound and the node's threads are running,
//! the daemon prints a machine-parseable readiness line to stdout:
//!
//! ```text
//! READY <node> <addr>
//! ```
//!
//! Deployment harnesses (`dg-emu`) wait for this line instead of
//! guessing at startup latency. All failures to load or validate the
//! config, topology, chaos, or SLA files exit with code 1 and a
//! diagnostic naming the file and the parse error — a daemon never
//! panics over operator input.
//!
//! `--run-secs N` / `--run-ms N` exit after the given span instead of
//! running forever, and `--metrics-json PATH` dumps the node's full
//! metrics snapshot (counters, per-flow/per-link cells, event journal,
//! link-state digest) as JSON on shutdown; `-` writes it to stdout.
//! A node is crash-only: if a call into its core panics, the daemon
//! dumps the post-mortem snapshot to `--metrics-json` and exits with
//! code 3 and one line on stderr, for its supervisor to restart it.
//! File dumps are atomic (temp file + rename) so an out-of-process
//! collector never observes partial JSON — even if the daemon is
//! SIGKILLed mid-dump, the destination holds either nothing or a
//! complete document. `--baseline-at-ms N --baseline-json PATH` writes
//! a second, mid-run snapshot the same way, so collectors can compute
//! post-heal deltas from cumulative counters.
//!
//! `--chaos-json PATH` replays a [`dg_overlay::chaos::ChaosSchedule`]
//! against this node's own out-links: impairments of edges whose source
//! is this node (a node-wide one is every edge incident to the node
//! named, so this node's edge toward a neighbour counts) are applied at
//! their scheduled offsets; other nodes' edges are theirs to impair, and
//! crash/restart events are ignored — killing a daemon is the operator's
//! job (`dg-emu` pre-slices schedules with `shard_for_node`). A schedule
//! naming an edge or site the topology lacks, or a probability outside
//! [0, 1], is refused at startup like any other bad input.
//!
//! `--sla-json PATH` loads an [`dg_overlay::SlaPlan`] and opens a
//! sending session for every flow in it that originates at this node,
//! in the flow's SLA service class (bulk/timely/surgical) with the
//! class's scheme preference and deadline budget. The sessions are held
//! for the daemon's lifetime, so admission control, class shed bands,
//! and overload downgrades all apply to them. `--traffic-pps N` drives
//! an RTP-like fixed-rate control stream (64-byte frames) through every
//! opened sender — the application workload for deployment soaks —
//! optionally stopping at `--traffic-stop-ms` so in-flight traffic can
//! drain before the final snapshot.
//!
//! `--quiesce-at-ms N` pauses link-state *origination* N ms into the
//! run (hellos, digests, and flooding keep running): databases settle
//! to a fixed per-origin fingerprint, so snapshots taken across many
//! daemons at slightly different instants remain comparable.
//!
//! Config format: see [`dg_overlay::NodeFileConfig`] — identity fields
//! plus optional tuning overrides; a key it does not know is an error:
//! ```json
//! {
//!   "topology": "topology.json",
//!   "node": "NYC",
//!   "listen": "0.0.0.0:7100",
//!   "peers": { "CHI": "192.0.2.10:7100", "WAS": "192.0.2.11:7100" },
//!   "hello_interval_ms": 50,
//!   "link_state_interval_ms": 200
//! }
//! ```

use dg_cli::Cli;
use dg_overlay::chaos::{ChaosRunner, ChaosSchedule};
use dg_overlay::session::FlowSender;
use dg_overlay::{MetricsSnapshot, NodeFileConfig, OverlayHandle, OverlayNode, SlaPlan};
use dg_topology::{Graph, NodeId};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn cli() -> Cli {
    Cli::new("dg-node", "standalone overlay transport daemon")
        .flag("config", "FILE", "JSON node configuration to run")
        .flag("emit-topology", "FILE", "write the 12-node preset topology and exit")
        .flag("run-secs", "N", "exit after N seconds instead of running forever")
        .flag("run-ms", "N", "exit after N milliseconds (finer-grained --run-secs)")
        .flag("metrics-json", "PATH", "dump the metrics snapshot on shutdown ('-' for stdout)")
        .flag("baseline-json", "PATH", "dump a mid-run snapshot at --baseline-at-ms")
        .flag("baseline-at-ms", "N", "when to take the baseline snapshot, in ms into the run")
        .flag("quiesce-at-ms", "N", "pause link-state origination N ms into the run")
        .flag("chaos-json", "PATH", "replay a chaos schedule against this node's out-links")
        .flag("sla-json", "PATH", "open per-flow SLA-class sending sessions sourced at this node")
        .flag("traffic-pps", "N", "drive N packets/s through every SLA sender opened here")
        .flag("traffic-stop-ms", "N", "stop the traffic driver N ms into the run")
        .flag(
            "epoch-us",
            "T",
            "anchor all time flags to this wall-clock instant (us since the UNIX epoch) \
             instead of process start; deadlines already past are honoured immediately",
        )
}

/// The longest the daemon goes without looking whether its node
/// crashed.
const CRASH_CHECK: Duration = Duration::from_millis(100);

/// Exits with code 1 and a diagnostic on stderr — the non-panicking
/// path for every operator-input failure.
fn fail(message: std::fmt::Arguments<'_>) -> ! {
    eprintln!("dg-node: {message}");
    std::process::exit(1);
}

macro_rules! fail {
    ($($arg:tt)*) => { fail(format_args!($($arg)*)) };
}

/// Reads a file, exiting with a diagnostic naming it on failure.
fn read_file(what: &str, path: &str) -> String {
    match std::fs::read_to_string(path) {
        Ok(raw) => raw,
        Err(e) => fail!("cannot read {what} {path}: {e}"),
    }
}

/// Writes JSON atomically: temp file in the destination's directory,
/// then rename. A collector racing the writer sees the old content or
/// the new content, never a torn prefix.
fn write_json_atomic(path: &str, json: &str) -> std::io::Result<()> {
    let dest = std::path::Path::new(path);
    let tmp = dest.with_extension(format!("tmp.{}", std::process::id()));
    std::fs::write(&tmp, json)?;
    std::fs::rename(&tmp, dest)
}

/// The daemon's parsed runtime options.
struct Options {
    run_limit: Option<Duration>,
    metrics_json: Option<String>,
    baseline_json: Option<String>,
    baseline_at: Option<Duration>,
    quiesce_at: Option<Duration>,
    chaos_json: Option<String>,
    sla_json: Option<String>,
    traffic_pps: Option<u64>,
    traffic_stop: Option<Duration>,
    epoch_us: Option<u64>,
}

fn main() {
    let cli = cli();
    let matches = cli.parse_env();
    if let Some(path) = matches.value("emit-topology") {
        let graph = dg_topology::presets::north_america_12();
        let json = serde_json::to_string_pretty(&graph).expect("graph serializes");
        if let Err(e) = std::fs::write(path, json) {
            fail!("cannot write topology {path}: {e}");
        }
        println!("wrote {path}");
        return;
    }
    let Some(config_path) = matches.value("config") else {
        eprintln!("dg-node: either --config or --emit-topology is required\n\n{}", cli.usage());
        std::process::exit(2);
    };
    let get_u64 = |name: &str| match matches.get::<u64>(name) {
        Ok(v) => v,
        Err(e) => cli.exit_with(&e),
    };
    let options = Options {
        run_limit: get_u64("run-ms")
            .map(Duration::from_millis)
            .or_else(|| get_u64("run-secs").map(Duration::from_secs)),
        metrics_json: matches.value("metrics-json").map(str::to_string),
        baseline_json: matches.value("baseline-json").map(str::to_string),
        baseline_at: get_u64("baseline-at-ms").map(Duration::from_millis),
        quiesce_at: get_u64("quiesce-at-ms").map(Duration::from_millis),
        chaos_json: matches.value("chaos-json").map(str::to_string),
        sla_json: matches.value("sla-json").map(str::to_string),
        traffic_pps: get_u64("traffic-pps"),
        traffic_stop: get_u64("traffic-stop-ms").map(Duration::from_millis),
        epoch_us: get_u64("epoch-us"),
    };
    run(config_path, options);
}

fn run(config_path: &str, options: Options) {
    let raw = read_file("config", config_path);
    let file = match NodeFileConfig::from_json(&raw) {
        Ok(file) => file,
        Err(e) => fail!("bad config {config_path}: {e}"),
    };
    let topo_raw = read_file("topology", &file.topology);
    let graph: Graph = match serde_json::from_str(&topo_raw) {
        Ok(graph) => graph,
        Err(e) => fail!("bad topology {}: {e}", file.topology),
    };
    let config = match file.resolve(&graph) {
        Ok(config) => config,
        Err(e) => fail!("{config_path}: {e}"),
    };
    let me = config.node;

    let mut chaos: Option<ChaosRunner> = options.chaos_json.as_ref().map(|path| {
        let schedule = match ChaosSchedule::from_json(&read_file("chaos schedule", path)) {
            Ok(schedule) => schedule,
            Err(e) => fail!("bad chaos schedule {path}: {e}"),
        };
        match ChaosRunner::new(&schedule, &graph) {
            Ok(runner) => runner,
            Err(e) => fail!("bad chaos schedule {path}: {e}"),
        }
    });
    let sla_plan: Option<SlaPlan> =
        options.sla_json.as_ref().map(|path| {
            match SlaPlan::from_json(&read_file("sla plan", path)) {
                Ok(plan) => plan,
                Err(e) => fail!("bad sla plan {path}: {e}"),
            }
        });

    let graph = Arc::new(graph);
    let mut handle = match OverlayNode::spawn(config, Arc::clone(&graph)) {
        Ok(handle) => handle,
        Err(e) => fail!("{config_path}: cannot start node {}: {e}", file.node),
    };
    // The machine-parseable readiness line harnesses wait for: printed
    // only after the socket is bound and the node's threads are
    // running. Rust's stdout is line-buffered even into a pipe, so the
    // line is visible immediately.
    println!("READY {} {}", file.node, handle.local_addr());
    println!(
        "dg-node {} listening on {} with {} peers",
        file.node,
        handle.local_addr(),
        file.peers.len()
    );
    // SLA plan: open (and hold) a class-appropriate sending session for
    // every flow sourced here, so admission, shed bands, and overload
    // downgrades apply for the daemon's lifetime.
    let sla_senders: Vec<FlowSender> = sla_plan
        .as_ref()
        .map(|plan| open_sla_senders(&handle, &graph, me, plan))
        .unwrap_or_default();

    // With --epoch-us every time flag measures from a wall-clock
    // instant the whole deployment shares, not from this process's
    // start: daemons spawned (or respawned) at different moments still
    // snapshot, quiesce, and stop traffic at the same real instants,
    // and a respawned daemon replays already-past chaos events
    // immediately in order, restoring the deployment's intended state.
    let started = Instant::now();
    let start_offset = options.epoch_us.map_or(Duration::ZERO, |epoch| {
        let now_us = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_micros() as u64);
        Duration::from_micros(now_us.saturating_sub(epoch))
    });

    // The RTP-like fixed-rate control stream: one paced 64-byte frame
    // per sender per tick, from a dedicated thread so protocol pacing
    // and chaos replay never skew the send cadence.
    let traffic_running = Arc::new(AtomicBool::new(true));
    let traffic_thread = options.traffic_pps.filter(|_| !sla_senders.is_empty()).map(|pps| {
        let running = Arc::clone(&traffic_running);
        let stop_at = options.traffic_stop;
        let senders = sla_senders;
        std::thread::spawn(move || {
            let interval = Duration::from_micros(1_000_000 / pps.max(1));
            let payload = [0x5Au8; 64];
            let mut next = Instant::now();
            while running.load(Ordering::Relaxed) {
                if stop_at.is_some_and(|stop| start_offset + started.elapsed() >= stop) {
                    break;
                }
                for sender in &senders {
                    // Shed or refused sends are the overload machinery
                    // working as designed, not a driver error.
                    let _ = sender.send(&payload);
                }
                next += interval;
                let now = Instant::now();
                if next > now {
                    std::thread::sleep(next - now);
                } else {
                    // Fell behind (scheduler stall): realign instead of
                    // bursting to catch up.
                    next = now;
                }
            }
            // Tail-loss probes: hop-by-hop recovery is gap-triggered,
            // so the last packets of the stream can be lost with
            // nothing behind them to expose the gap. Re-offer the final
            // packet a few times (same flow sequence — duplicates are
            // suppressed, losses are repaired) so the tail survives
            // into the final snapshots.
            for _ in 0..3 {
                if !running.load(Ordering::Relaxed) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(120));
                for sender in &senders {
                    let _ = sender.tail_probe(&payload);
                }
            }
        })
    });

    // Report stats periodically until killed (or the run limit passes);
    // tick finely while chaos events or snapshot deadlines are pending.
    let mut next_stats = start_offset + Duration::from_secs(10);
    // A baseline deadline already past at (re)spawn is skipped, not
    // fired late: this incarnation's counters started from zero, and a
    // stale overwrite would corrupt the deployment's delta arithmetic.
    let mut baseline_due = options.baseline_at.filter(|&at| {
        let due = at > start_offset;
        if !due {
            println!("baseline: deadline already past at startup, skipping");
        }
        due
    });
    let mut quiesce_due = options.quiesce_at;
    loop {
        let elapsed = start_offset + started.elapsed();
        if options.run_limit.is_some_and(|limit| elapsed >= limit) || !handle.is_running() {
            break;
        }
        // Fire everything due at this instant.
        if let Some(runner) = &mut chaos {
            let fired = runner.poll(&mut handle, elapsed).expect("a daemon restarts nobody");
            if fired > 0 {
                println!("chaos: {fired} event(s) due at {} ms", elapsed.as_millis());
            }
        }
        if baseline_due.is_some_and(|at| elapsed >= at) {
            baseline_due = None;
            if let Some(path) = &options.baseline_json {
                dump_snapshot(&handle.metrics_snapshot(), path, "baseline");
            }
        }
        if quiesce_due.is_some_and(|at| elapsed >= at) {
            quiesce_due = None;
            println!("quiesce: pausing link-state origination");
            handle.set_origination_paused(true);
        }
        if elapsed >= next_stats {
            next_stats += Duration::from_secs(10);
            let c = handle.metrics_snapshot().counters;
            println!(
                "stats: rx {} tx {} delivered {} dup {} expired {} nack {} retx {}",
                c.data_received,
                c.data_sent,
                c.delivered_on_time + c.delivered_late,
                c.duplicates,
                c.expired,
                c.nack_messages_sent,
                c.retransmissions_served
            );
        }
        // Sleep until the nearest future deadline.
        let mut nap = next_stats.saturating_sub(elapsed);
        if let Some(at_ms) = chaos.as_ref().and_then(ChaosRunner::next_due_ms) {
            nap = nap.min(Duration::from_millis(at_ms).saturating_sub(elapsed));
        }
        for at in [baseline_due, quiesce_due, options.run_limit].into_iter().flatten() {
            nap = nap.min(at.saturating_sub(elapsed));
        }
        std::thread::sleep(nap.clamp(Duration::from_millis(1), CRASH_CHECK));
    }
    traffic_running.store(false, Ordering::Relaxed);
    if let Some(thread) = traffic_thread {
        let _ = thread.join();
    }
    let crashed = !handle.is_running();
    let snapshot = handle.metrics_snapshot();
    handle.shutdown();
    if let Some(path) = &options.metrics_json {
        dump_snapshot(&snapshot, path, "metrics");
    }
    if crashed {
        eprintln!("dg-node: {} crashed: a call into its core panicked", file.node);
        std::process::exit(3);
    }
}

/// Serializes a snapshot to `path` ('-' for stdout) atomically; exits
/// with a diagnostic when the destination is unwritable.
fn dump_snapshot(snapshot: &MetricsSnapshot, path: &str, what: &str) {
    let json = serde_json::to_string_pretty(snapshot).expect("snapshot serializes");
    if path == "-" {
        println!("{json}");
    } else if let Err(e) = write_json_atomic(path, &json) {
        fail!("cannot write {what} {path}: {e}");
    } else {
        println!("wrote {what} to {path}");
    }
}

/// Opens the slice of an SLA plan this daemon owns: one sending session
/// per flow sourced here, in the flow's class. Unknown sites and
/// admission refusals are warned about and skipped — a partial plan
/// still serves the flows it can.
fn open_sla_senders(
    handle: &OverlayHandle,
    graph: &Graph,
    me: NodeId,
    plan: &SlaPlan,
) -> Vec<FlowSender> {
    let params = dg_core::scheme::SchemeParams::default();
    let mut senders = Vec::new();
    for spec in plan.sourced_at(graph, me) {
        let (flow, class, requirement) = match spec.resolve(graph) {
            Ok(resolved) => resolved,
            Err(site) => {
                eprintln!(
                    "sla: skipping {}->{}: unknown site {site:?}",
                    spec.source, spec.destination
                );
                continue;
            }
        };
        let scheme = match dg_core::scheme::build_scheme(
            class.preferred_scheme(),
            graph,
            flow,
            requirement,
            &params,
        ) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("sla: skipping {flow}: {e}");
                continue;
            }
        };
        match handle.open_sender_with_class(scheme, requirement, class) {
            Ok(sender) => {
                println!(
                    "sla: opened {} -> {} as {class} (deadline {} ms)",
                    spec.source,
                    spec.destination,
                    requirement.deadline.as_millis()
                );
                senders.push(sender);
            }
            Err(e) => eprintln!("sla: skipping {flow}: {e}"),
        }
    }
    senders
}
