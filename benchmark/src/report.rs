//! The benchmark's names: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics — and how a run prints them.
//!
//! `BENCHMARK.json` at the repository root lists the same names; the
//! `manifest_matches_benchmark_json` test keeps the two in step.

use std::collections::BTreeMap;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "path_loss",
        why: "12-site US overlay, NYC->SJC targeted redundancy, open loop 1000 pps x 256 B, burst loss plus loss phases around source and destination: detector, graph switch, NACK recovery, redundancy do the work",
    },
    WorkloadDef {
        name: "fwd_sat_64",
        why: "4-node chain on the threaded runtime, closed loop send_batch 32 x 64 B with at most 64 outstanding: per-packet cost through two relays at the smallest useful size; bypasses recovery",
    },
    WorkloadDef {
        name: "fwd_sat_1200",
        why: "as fwd_sat_64 with 1200 B payloads: the same layers, per-byte cost (copy, checksum); a batching or zero-copy change that helps one size and costs the other shows here",
    },
    WorkloadDef {
        name: "sim_table2",
        why: "playback simulator as table2 runs it: US preset, 16 flows, calibrated trace, six schemes at 100 pps via run_flows; flooding dominates; bypasses the overlay entirely",
    },
    WorkloadDef {
        name: "ctrl_churn",
        why: "Waxman-100, 64 flows, 12 multicast groups: fresh-GraphCache opens (interning hits) beside seeded link flaps that invalidate and rebuild (cache writes)",
    },
];

/// End-to-end metrics, reported by every workload (the table in
/// README.md says what each means on each workload), with the share of
/// the parent's median by which each may worsen.
pub const END_TO_END: &[(MetricDef, f64)] = &[
    (MetricDef { name: "setup_s", unit: "s", better: "lower" }, 0.25),
    (MetricDef { name: "rss_mb", unit: "MB", better: "lower" }, 0.25),
    (MetricDef { name: "ops_per_s", unit: "1/s", better: "higher" }, 0.25),
    (MetricDef { name: "on_time_frac", unit: "frac", better: "higher" }, 0.05),
    (MetricDef { name: "lat_p50_us", unit: "us", better: "lower" }, 0.25),
    (MetricDef { name: "lat_tail_us", unit: "us", better: "lower" }, 0.25),
    (MetricDef { name: "tx_per_pkt", unit: "tx/pkt", better: "lower" }, 0.15),
];

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// Per-layer metrics. A workload on which a layer does not run reports
/// that layer's metrics as 0.
pub const PER_LAYER: &[MetricDef] = &[
    // The harness itself.
    m("harness.gen_late_p99_us", "us", "lower"),
    m("harness.gen_late_max_us", "us", "lower"),
    m("harness.trials_discarded", "count", "lower"),
    m("harness.cpu_util", "frac", "higher"),
    m("harness.samples", "count", "higher"),
    m("harness.deadline_missed", "count", "lower"),
    m("harness.trace_overhead_frac", "frac", "lower"),
    m("harness.steal_frac", "frac", "lower"),
    m("harness.host_speed", "x", "higher"),
    // Counter deltas that the recovery path moves (path_loss).
    m("overlay.monitor.react_ms", "ms", "lower"),
    m("core.scheme.graph_changes", "count", "lower"),
    m("overlay.recovery.nack_per_kpkt", "1/kpkt", "lower"),
    m("overlay.recovery.retx_served", "count", "higher"),
    m("overlay.recovery.retx_suppressed", "count", "lower"),
    m("overlay.recovery.retx_miss", "count", "lower"),
    m("overlay.recovery.useful_frac", "frac", "higher"),
    m("overlay.session.dup_per_pkt", "1/pkt", "lower"),
    m("overlay.fault.drops", "count", "lower"),
    m("overlay.node.expired", "count", "lower"),
    // Per-packet cost (fwd_sat_*).
    m("overlay.session.send_call_ns", "ns/pkt", "lower"),
    m("overlay.node.data_per_datagram", "pkt/dgram", "higher"),
    m("overlay.node.datagrams_per_delivered", "dgram/pkt", "lower"),
    m("overlay.node.cpu_us_per_pkt", "us/pkt", "lower"),
    m("overlay.node.pps_unscaled", "1/s", "higher"),
    m("overlay.node.shipper_drops", "count", "lower"),
    m("overlay.session.delivery_drops", "count", "lower"),
    m("overlay.node.malformed", "count", "lower"),
    m("overlay.node.transit_p50_us", "us", "lower"),
    // Software latency floor (the idle legs of a traced fwd_sat_64).
    m("overlay.runtime.idle_lat_p50_us.reactor", "us", "lower"),
    m("overlay.runtime.idle_lat_p99_us.reactor", "us", "lower"),
    m("overlay.runtime.idle_lat_p50_us.default", "us", "lower"),
    m("overlay.runtime.idle_nack_per_kpkt", "1/kpkt", "lower"),
    // Isolated calls into the overlay's public functions.
    m("overlay.wire.encode_ns.64", "ns", "lower"),
    m("overlay.wire.encode_ns.1200", "ns", "lower"),
    m("overlay.wire.decode_ns.64", "ns", "lower"),
    m("overlay.wire.decode_ns.1200", "ns", "lower"),
    m("overlay.wire.batch32_encode_ns", "ns", "lower"),
    m("overlay.wire.batch32_decode_ns", "ns", "lower"),
    m("overlay.fault.decide_ns", "ns", "lower"),
    m("overlay.recovery.observe_ns", "ns", "lower"),
    m("overlay.recovery.sendbuf_ns", "ns", "lower"),
    m("overlay.shard.with_ns", "ns", "lower"),
    m("overlay.pool.cycle_ns", "ns", "lower"),
    m("core.dgraph.bitmask_ns", "ns", "lower"),
    // Isolated calls into the control plane, and its counters.
    m("core.scheme.build_us.two_disjoint", "us", "lower"),
    m("core.scheme.build_us.targeted", "us", "lower"),
    m("core.scheme.build_us.flooding", "us", "lower"),
    m("core.scheme.build_us.targeted_w100", "us", "lower"),
    m("core.scheme.update_ns.clean", "ns", "lower"),
    m("core.scheme.update_ns.problem", "ns", "lower"),
    m("core.cache.hit_ns", "ns", "lower"),
    m("core.cache.miss_us", "us", "lower"),
    m("core.cache.note_loss_us", "us", "lower"),
    m("core.mgraph.build_us", "us", "lower"),
    m("topology.generate_ms.w100", "ms", "lower"),
    m("core.cache.hit_rate", "frac", "higher"),
    m("core.cache.invalidated_per_flap", "count", "lower"),
    m("core.cache.flaps_per_s", "1/s", "higher"),
    // The simulator.
    m("sim.playback.pkts_per_s.static-single-path", "1/s", "higher"),
    m("sim.playback.pkts_per_s.dynamic-single-path", "1/s", "higher"),
    m("sim.playback.pkts_per_s.static-2-disjoint", "1/s", "higher"),
    m("sim.playback.pkts_per_s.dynamic-2-disjoint", "1/s", "higher"),
    m("sim.playback.pkts_per_s.targeted-redundancy", "1/s", "higher"),
    m("sim.playback.pkts_per_s.time-constrained-flooding", "1/s", "higher"),
    m("sim.playback.pkts_per_s.targeted-1000pps", "1/s", "higher"),
    m("sim.packet.simulate_ns.single", "ns", "lower"),
    m("sim.packet.simulate_ns.targeted", "ns", "lower"),
    m("sim.packet.simulate_ns.flooding", "ns", "lower"),
    m("sim.parallel.pkts_per_s", "1/s", "higher"),
    m("sim.parallel.speedup", "x", "higher"),
    m("sim.parallel.threads", "count", "higher"),
    m("trace.generate_ms", "ms", "lower"),
    m("trace.condition_at_ns", "ns", "lower"),
];

/// The listed per-layer metric called `name`, for names built at run
/// time (one per scheme).
pub fn per_layer(name: &str) -> &'static str {
    PER_LAYER.iter().find(|d| d.name == name).unwrap_or_else(|| panic!("{name} is not listed")).name
}

/// How long one run measures, and the command that builds and runs the
/// benchmark from the root of a checkout.
pub const RUN_SECONDS: u32 = 22;
const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// The text of `BENCHMARK.json`, generated from the tables above so the
/// file the driver reads cannot drift from what the program prints
/// (`dg-perf manifest > BENCHMARK.json`).
pub fn manifest_json() -> String {
    let quoted =
        |items: &[&str]| items.iter().map(|i| format!("\"{i}\"")).collect::<Vec<_>>().join(", ");
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|(d, bound)| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {bound}}}",
                d.name, d.unit, d.better
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                d.name, d.unit, d.better
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        quoted(COMMAND),
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

/// What identifies the conditions a result was measured under.
#[derive(Debug, Clone)]
pub struct Stamp {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub cores: usize,
    pub runtime: String,
    pub git_rev: String,
    pub trials: usize,
    pub trial_s: f64,
    pub traced: bool,
}

impl Stamp {
    pub fn to_json(&self) -> String {
        format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"cores\":{},\"runtime\":\"{}\",\
             \"git_rev\":\"{}\",\"trials\":{},\"trial_s\":{:.3},\"traced\":{},\
             \"traffic\":\"host loopback UDP\"}}",
            self.workload,
            self.seed,
            self.seconds,
            self.cores,
            self.runtime,
            self.git_rev,
            self.trials,
            self.trial_s,
            self.traced
        )
    }
}

/// Everything one run of one workload produced.
pub struct RunResult {
    pub stamp: Stamp,
    /// Operations attempted and operations that failed outright: a send
    /// that returned an error, a corrupt or duplicate delivery, a sim
    /// job or cache request that errored. Deadline misses are not
    /// failures of the harness's operations; `on_time_frac` measures
    /// them and `harness.deadline_missed` counts them.
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold; any entry fails the run.
    pub check_failures: Vec<String>,
    pub values: BTreeMap<&'static str, f64>,
}

impl RunResult {
    pub fn new(stamp: Stamp) -> Self {
        RunResult {
            stamp,
            attempted: 0,
            failed: 0,
            check_failures: Vec::new(),
            values: BTreeMap::new(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().any(|(d, _)| d.name == name)
                || PER_LAYER.iter().any(|d| d.name == name),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
    }

    pub fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.check_failures.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.check_failures.is_empty() && self.failed == 0
    }

    fn value(&self, name: &str) -> f64 {
        let v = self.values.get(name).copied().unwrap_or(0.0);
        if v.is_finite() {
            v
        } else {
            0.0
        }
    }

    /// The metric set the mode asks for: end-to-end untraced, per-layer
    /// traced.
    fn defs(&self) -> Vec<&'static MetricDef> {
        if self.stamp.traced {
            PER_LAYER.iter().collect()
        } else {
            END_TO_END.iter().map(|(d, _)| d).collect()
        }
    }

    /// Every metric by name with its unit, one per line.
    pub fn print_table(&self) {
        println!("# {}", self.stamp.to_json());
        println!(
            "# attempted {} failed {} correct {}",
            self.attempted,
            self.failed,
            self.correct()
        );
        for f in &self.check_failures {
            println!("# CHECK FAILED: {f}");
        }
        for d in self.defs() {
            println!(
                "{:<28} {:<48} {:>16.4} {}",
                self.stamp.workload,
                d.name,
                self.value(d.name),
                d.unit
            );
        }
    }

    /// The one-line JSON object the driver reads.
    pub fn to_json_line(&self) -> String {
        let metrics: Vec<String> = self
            .defs()
            .iter()
            .map(|d| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    d.name,
                    self.value(d.name),
                    d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|(d, _)| d.name))
            .chain(PER_LAYER.iter().map(|d| d.name));
        for name in names {
            assert!(seen.insert(name), "{name} is used twice");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16 && WORKLOADS.len() <= 8);
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for (d, bound) in END_TO_END {
            assert!(*bound > 0.0 && *bound <= 0.25, "{}", d.name);
        }
    }

    /// `BENCHMARK.json` is what the driver reads; the tables here are what
    /// the program prints. The file must be the generated text.
    #[test]
    fn manifest_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(on_disk, manifest_json(), "regenerate with `dg-perf manifest > BENCHMARK.json`");
        let parsed: serde_json::Value = serde_json::from_str(&on_disk).expect("valid JSON");
        assert!(on_disk.len() < 64 * 1024);
        for key in ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"] {
            assert!(parsed.get(key).is_some(), "{key} missing");
        }
    }
}
