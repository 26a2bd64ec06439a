//! `dg-emu` — deploy a topology as real `dg-node` processes on
//! localhost, disrupt it, and verify convergence.
//!
//! Usage:
//!   dg-emu --topology us --seed 42                 # generated storm
//!   dg-emu --topology us --schedule kill-heal.json --seed 42
//!   dg-emu --topology ring --nodes 6 --out /tmp/soak
//!   dg-emu --emit-schedule kill-heal.json          # write the storm, exit
//!   dg-emu --help
//!
//! The harness spawns one `dg-node` process per overlay node (ports
//! auto-assigned, peer tables cross-wired), waits for every daemon's
//! `READY` line, then drives the chaos schedule: hard process kills and
//! same-port restarts executed by the harness, link impairments sharded
//! into per-node `--chaos-json` slices the daemons replay themselves.
//! After a recovery margin it snapshots baselines, runs a fixed-rate
//! measurement window, quiesces link-state origination, collects every
//! survivor's metrics, and judges the deployment:
//!
//! * identical link-state digests across all survivors, covering every
//!   origin in the topology,
//! * post-heal delivery on every surviving flow at or above
//!   `--threshold` (default 99%),
//! * every daemon the schedule did not kill exited 0 at its run limit.
//!
//! Exit status: 0 when the verdict passes, 1 when it fails (or the
//! deployment itself breaks), 2 on usage errors. Artifacts — per-node
//! configs, chaos shards, logs, metrics, and `report.json` — land under
//! `--out` (default `target/emu/<label>-seed<seed>`).

use dg_cli::Cli;
use dg_emu::schedule::KillHealProfile;
use dg_emu::{kill_heal_schedule, resolve_node_bin, EmuOptions, EmuRun};
use dg_overlay::chaos::ChaosSchedule;
use dg_topology::generate::TopoSpec;
use std::collections::BTreeSet;
use std::path::PathBuf;

fn cli() -> Cli {
    Cli::new("dg-emu", "multi-process deployment harness: chaos soak + convergence verdict")
        .flag_default("topology", "NAME", "topology family: us, global, ring, waxman", "us")
        .flag_default("nodes", "N", "node count for generated families", "12")
        .flag_default("seed", "N", "run seed: ports, storm shape, generated topologies", "42")
        .flag("schedule", "FILE", "chaos schedule JSON (default: a generated kill-heal storm)")
        .flag("emit-schedule", "FILE", "write the generated kill-heal storm and exit")
        .flag_default("flows", "N", "how many default flows carry traffic", "2")
        .flag_default("traffic-pps", "N", "fixed-rate load per flow, packets/second", "100")
        .flag_default(
            "threshold",
            "RATIO",
            "post-heal delivery ratio every flow must clear",
            "0.99",
        )
        .flag("out", "DIR", "artifact directory (default target/emu/<label>-seed<seed>)")
        .flag("node-bin", "PATH", "dg-node binary (default: $DG_NODE_BIN, then a sibling)")
        .flag_default(
            "warmup-ms",
            "N",
            "convergence head-room before the first chaos event",
            "2000",
        )
        .flag_default(
            "recover-ms",
            "N",
            "margin between the last chaos event and the baseline",
            "1500",
        )
        .flag_default("measure-ms", "N", "post-heal measurement window", "2500")
}

fn main() {
    let cli = cli();
    let matches = cli.parse_env();
    let get_u64 = |name: &str| match matches.get::<u64>(name) {
        Ok(v) => v.expect("flag has a default"),
        Err(e) => cli.exit_with(&e),
    };
    let seed = get_u64("seed");
    let nodes = get_u64("nodes") as usize;
    let topology = matches.value("topology").expect("defaulted");
    let spec = match TopoSpec::parse(topology, nodes, seed) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("dg-emu: {e}");
            std::process::exit(2);
        }
    };
    let graph = spec.build();
    let flow_count = get_u64("flows") as usize;
    let flows = spec.default_flows(&graph, flow_count.max(1));
    if flows.is_empty() {
        eprintln!("dg-emu: topology {} yields no default flows", spec.label());
        std::process::exit(2);
    }
    let deadline_ms = spec.default_deadline(&graph, &flows).as_millis();

    // Flow endpoints are protected from process-level chaos: a source
    // restarted before its flow has left its first dedup window would
    // replay sequence numbers its destination already suppressed (only
    // a whole window below the top does a sequence read as a new
    // life), turning a transport property into a false verdict.
    let protected: Vec<_> =
        BTreeSet::from_iter(flows.iter().flat_map(|&(s, t)| [s, t])).into_iter().collect();
    let schedule = match matches.value("schedule") {
        Some(path) => {
            let raw = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("dg-emu: cannot read schedule {path}: {e}");
                std::process::exit(2);
            });
            ChaosSchedule::from_json(&raw).unwrap_or_else(|e| {
                eprintln!("dg-emu: schedule {path} is not a chaos schedule: {e}");
                std::process::exit(2);
            })
        }
        None => kill_heal_schedule(&graph, &protected, seed, &KillHealProfile::default()),
    };
    if let Err(e) = schedule.validate(&graph) {
        eprintln!("dg-emu: {e}");
        std::process::exit(2);
    }
    if let Some(path) = matches.value("emit-schedule") {
        std::fs::write(path, schedule.to_json()).unwrap_or_else(|e| {
            eprintln!("dg-emu: cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("wrote {} chaos events to {path}", schedule.events.len());
        return;
    }

    let node_bin = match matches.value("node-bin").map(PathBuf::from).or_else(resolve_node_bin) {
        Some(path) if path.is_file() => path,
        Some(path) => {
            eprintln!("dg-emu: node binary {} does not exist", path.display());
            std::process::exit(2);
        }
        None => {
            eprintln!(
                "dg-emu: cannot locate dg-node — pass --node-bin or set DG_NODE_BIN \
                 (build it with: cargo build -p dg-overlay --bin dg-node)"
            );
            std::process::exit(2);
        }
    };
    let out_dir = matches
        .value("out")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(format!("target/emu/{}-seed{seed}", spec.label())));

    let mut options = EmuOptions::new(node_bin, out_dir.clone(), seed);
    options.warmup_ms = get_u64("warmup-ms");
    options.recover_ms = get_u64("recover-ms");
    options.measure_ms = get_u64("measure-ms");
    options.traffic_pps = get_u64("traffic-pps");
    options.threshold = match matches.get::<f64>("threshold") {
        Ok(v) => v.expect("flag has a default"),
        Err(e) => cli.exit_with(&e),
    };

    println!(
        "dg-emu: deploying {} ({} nodes, {} flows, {} chaos events) under seed {seed}",
        spec.label(),
        graph.node_count(),
        flows.len(),
        schedule.events.len(),
    );
    let run = EmuRun::new(graph, flows, deadline_ms, schedule, options);
    let report = match run.execute() {
        Ok(report) => report,
        Err(e) => {
            eprintln!("dg-emu: deployment failed: {e}");
            std::process::exit(1);
        }
    };

    println!(
        "dg-emu: {} survivors, {} hard kills, {} restarts; digest covers {} origins",
        report.survivors.len(),
        report.hard_kills.len(),
        report.restarts.len(),
        report.verdict.digest_origins,
    );
    for flow in &report.verdict.flows {
        println!(
            "dg-emu: {} -> {}: post-heal {}/{} = {:.4}",
            flow.source, flow.destination, flow.delivered, flow.sent, flow.ratio
        );
    }
    if report.verdict.passed {
        println!("dg-emu: PASS (artifacts in {})", out_dir.display());
    } else {
        for failure in &report.verdict.failures {
            eprintln!("dg-emu: FAIL: {failure}");
        }
        eprintln!("dg-emu: artifacts in {}", out_dir.display());
        std::process::exit(1);
    }
}
