//! `dg-perf` — the repo's benchmark.
//!
//! Five named workloads over the multi-hop overlay, the playback
//! simulator and the control-plane cache; seven end-to-end metrics with
//! fixed regression bounds; about seventy per-layer metrics measured
//! from outside, by timing calls into each crate's public functions and
//! by differencing the public counters. See `README.md` beside this
//! package for the definitions.
//!
//! ```text
//! dg-perf --workload W --seed N --seconds S --trace 0|1   one run, result as the last line (the driver's form)
//! dg-perf run W [--seed N] [--seconds S] [--trace FILE]    one run, one process
//! dg-perf all [--seed N] [--seconds S] [--trace]           every workload, one process each
//! dg-perf aa  [--seed N] [--seconds S]                     the untraced suite twice, compared against the bounds
//! dg-perf manifest                                         the text of BENCHMARK.json
//! ```

mod host;
mod layers;
mod overlay;
mod report;
mod span;
mod stats;
mod wl_ctrl;
mod wl_overlay;
mod wl_sim;

use report::{RunResult, Stamp, END_TO_END, WORKLOADS};
use span::Tracer;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Duration;

const DEFAULT_SEED: u64 = 2017;
const DEFAULT_SECONDS: f64 = report::RUN_SECONDS as f64;

/// What a workload is given: the seed every RNG derives from, how long
/// to measure, and the tracer (off for end-to-end numbers).
pub struct Ctx<'a> {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub tracer: &'a mut Tracer,
    /// The host's speed against the reference host's, by which the
    /// processor-bound workloads scale their times.
    pub speed: host::HostSpeed,
}

impl Ctx<'_> {
    pub fn stamp(&self, runtime: String, trials: usize, trial_s: f64) -> Stamp {
        Stamp {
            workload: self.workload,
            seed: self.seed,
            seconds: self.seconds,
            cores: host::cores(),
            runtime,
            git_rev: host::git_rev(),
            trials,
            trial_s,
            traced: self.traced,
        }
    }

    /// Sets up `times` times (once in a traced run, which does not
    /// report `setup_s`), tearing down every instance but the last, and
    /// returns the last with the better quartile of the set-up times:
    /// a slow socket bind, convergence round or a host stall must not
    /// read as a regression. A set-up that is all computation on the
    /// calling thread (`computed`) is timed as such computation is
    /// everywhere here, in seconds of the reference host; one that
    /// launches threads and waits for them, on the wall clock.
    pub fn set_up<T, E>(
        &mut self,
        times: usize,
        computed: bool,
        mut make: impl FnMut() -> Result<T, E>,
        mut tear_down: impl FnMut(T),
    ) -> Result<(T, f64), E> {
        let mut took = Vec::new();
        let mut kept = None;
        for _ in 0..if self.traced { 1 } else { times.max(1) } {
            if let Some(old) = kept.take() {
                tear_down(old);
            }
            let wall0 = std::time::Instant::now();
            let (made, reference_s) = self.speed.timed(&mut make);
            kept = Some(made?);
            took.push(if computed { reference_s } else { wall0.elapsed().as_secs_f64() });
        }
        let setup_s = stats::better_quartile(&took, stats::Better::Lower);
        Ok((kept.expect("at least one set-up ran"), setup_s))
    }

    /// Seconds the timed trials may take. A traced run keeps 30 % of
    /// `--seconds` for what it adds (the isolated-call pass, the extra
    /// legs), so that it ends when an untraced run does.
    pub fn budget_s(&self) -> f64 {
        if self.traced {
            self.seconds * 0.7
        } else {
            self.seconds
        }
    }

    /// Whether one more trial of the average length so far still ends
    /// within the budget (trials of fixed work are repeated for as long
    /// as they fit). A traced run makes at least two: one each way.
    pub fn fits_another(&self, started: std::time::Instant, done: usize) -> bool {
        let spent = started.elapsed().as_secs_f64();
        done == 0 || (self.traced && done < 2) || spent + spent / done as f64 <= self.budget_s()
    }

    /// Whether trial `index` of a run of unknown length records spans:
    /// every second trial of a traced run, so that the untraced ones
    /// give the tracing overhead on the same instance.
    pub fn traces_trial(&self, index: usize) -> bool {
        self.traced && index % 2 == 1
    }

    /// How long one timing batch of an isolated call runs: a thousandth
    /// of the run (22 ms at the driver's 22 s), so that the isolated
    /// pass of some fifteen calls, six batches each, stays inside the
    /// share of a traced run kept for it.
    pub fn call_batch(&self) -> Duration {
        Duration::from_secs_f64((self.seconds / 1000.0).clamp(0.005, 0.2))
    }
}

fn run_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: Option<PathBuf>,
) -> Result<RunResult, String> {
    let def = WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        format!("unknown workload '{name}' (expected one of: {})", workload_names())
    })?;
    let mut tracer = Tracer::new(false);
    let mut ctx = Ctx {
        workload: def.name,
        seed,
        seconds,
        traced: trace.is_some(),
        tracer: &mut tracer,
        speed: host::HostSpeed::new(),
    };
    let (started, steal0) = (std::time::Instant::now(), host::steal_seconds());
    let mut result = match def.name {
        "path_loss" => wl_overlay::run(wl_overlay::Kind::PathLoss, &mut ctx),
        "fwd_sat_64" => wl_overlay::run(wl_overlay::Kind::FwdSat { payload: 64 }, &mut ctx),
        "fwd_sat_1200" => wl_overlay::run(wl_overlay::Kind::FwdSat { payload: 1200 }, &mut ctx),
        "sim_table2" => wl_sim::run(&mut ctx),
        "ctrl_churn" => wl_ctrl::run(&mut ctx),
        other => unreachable!("workload {other} is listed but not dispatched"),
    };
    let stolen =
        (host::steal_seconds() - steal0) / (started.elapsed().as_secs_f64() * host::cores() as f64);
    result.set("harness.steal_frac", stolen);
    result.set("harness.host_speed", ctx.speed.typical());
    if stolen > 0.01 {
        eprintln!(
            "dg-perf: the hypervisor withheld {:.1} % of this run's processor time; its timings are not the machine's",
            stolen * 100.0
        );
    }
    if let Some(path) = trace {
        tracer
            .write_json(&path, &result.stamp.to_json())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("dg-perf: {} spans written to {}", tracer.spans().len(), path.display());
        for t in span::self_times(tracer.spans()) {
            eprintln!(
                "dg-perf: span {:<28} n={:<8} total {:>12.3} ms  self {:>12.3} ms",
                t.name,
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
    }
    Ok(result)
}

fn workload_names() -> String {
    WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>().join(", ")
}

/// `--flag value` pairs and bare switches after the subcommand.
struct Flags(Vec<String>);

impl Flags {
    fn value(&self, flag: &str) -> Option<&str> {
        self.0.iter().position(|a| a == flag).and_then(|i| self.0.get(i + 1)).map(String::as_str)
    }
    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{flag}: cannot parse '{v}'")),
        }
    }
    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }
}

/// Where a driver-form traced run leaves its spans: inside the
/// checkout, under the benchmark's own (ignored) output directory.
fn default_trace_path(workload: &str) -> PathBuf {
    PathBuf::from(format!("benchmark/out/trace_{workload}.json"))
}

/// Runs one workload in a child process and parses the result line.
fn run_child(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let json: serde_json::Value =
        serde_json::from_str(last).map_err(|e| format!("{workload}: no result line ({e})"))?;
    let mut metrics = Vec::new();
    if let Some(serde_json::Value::Object(entries)) = json.get("metrics") {
        for (name, m) in entries {
            let value = match m.get("value") {
                Some(serde_json::Value::Float(f)) => *f,
                Some(serde_json::Value::UInt(u)) => *u as f64,
                Some(serde_json::Value::Int(i)) => *i as f64,
                _ => return Err(format!("{workload}: metric {name} has no value")),
            };
            metrics.push((name.clone(), value));
        }
    }
    // Everything but the result line is the child's readable table.
    let table: Vec<&str> = stdout.lines().collect();
    print!("{}", table[..table.len().saturating_sub(1)].join("\n"));
    println!();
    Ok(ChildResult {
        correct: out.status.success()
            && json.get("correct") == Some(&serde_json::Value::Bool(true)),
        metrics,
    })
}

struct ChildResult {
    correct: bool,
    metrics: Vec<(String, f64)>,
}

fn suite(
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<Vec<(&'static str, ChildResult)>, String> {
    WORKLOADS.iter().map(|w| Ok((w.name, run_child(w.name, seed, seconds, traced)?))).collect()
}

/// The untraced suite twice; each end-to-end metric's two values, their
/// relative difference in the metric's worse direction, and the bound.
fn aa(seed: u64, seconds: f64) -> Result<bool, String> {
    let first = suite(seed, seconds, false)?;
    let second = suite(seed, seconds, false)?;
    let mut ok = true;
    println!(
        "{:<14} {:<14} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    for ((name, a), (_, b)) in first.iter().zip(&second) {
        ok &= a.correct && b.correct;
        for (def, bound) in END_TO_END {
            let get =
                |r: &ChildResult| r.metrics.iter().find(|(n, _)| n == def.name).map(|(_, v)| *v);
            let (Some(x), Some(y)) = (get(a), get(b)) else {
                return Err(format!("{name}: {} missing from a result", def.name));
            };
            let worse = if def.better == "lower" { (y - x) / x } else { (x - y) / x };
            let within = worse.abs() <= *bound;
            ok &= within;
            println!(
                "{name:<14} {:<14} {x:>16.4} {y:>16.4} {:>8.2}% {:>6.1}%{}",
                def.name,
                worse * 100.0,
                bound * 100.0,
                if within { "" } else { "  EXCEEDS" }
            );
        }
    }
    Ok(ok)
}

fn usage() -> String {
    format!(
        "usage: dg-perf --workload W --seed N --seconds S --trace 0|1\n       dg-perf run W [--seed N] [--seconds S] [--trace FILE]\n       dg-perf all [--seed N] [--seconds S] [--trace]\n       dg-perf aa [--seed N] [--seconds S]\n       dg-perf manifest\nworkloads: {}",
        workload_names()
    )
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = Flags(args.clone());
    let seed = flags.parsed("--seed", DEFAULT_SEED)?;
    let seconds: f64 = flags.parsed("--seconds", DEFAULT_SECONDS)?;
    if !(1.0..=600.0).contains(&seconds) {
        return Err(format!("--seconds {seconds}: expected 1 to 600"));
    }
    match args.first().map(String::as_str) {
        // The driver's form: one run, the result as the last line.
        Some(first) if first.starts_with("--") => {
            let name = flags.value("--workload").ok_or_else(usage)?;
            let trace = match flags.value("--trace") {
                None | Some("0") => None,
                Some("1") => Some(default_trace_path(name)),
                Some(other) => return Err(format!("--trace {other}: expected 0 or 1")),
            };
            let result = run_workload(name, seed, seconds, trace)?;
            result.print_table();
            println!("{}", result.to_json_line());
            Ok(result.correct())
        }
        Some("run") => {
            let name = args.get(1).ok_or_else(usage)?;
            let result =
                run_workload(name, seed, seconds, flags.value("--trace").map(PathBuf::from))?;
            result.print_table();
            println!("{}", result.to_json_line());
            Ok(result.correct())
        }
        Some("all") => {
            // End-to-end numbers come from untraced runs; `--trace`
            // re-runs every workload traced for the per-layer numbers.
            let mut results = suite(seed, seconds, false)?;
            if flags.has("--trace") {
                results.extend(suite(seed, seconds, true)?);
            }
            Ok(results.iter().all(|(_, r)| r.correct))
        }
        Some("manifest") => {
            print!("{}", report::manifest_json());
            Ok(true)
        }
        Some("aa") => aa(seed, seconds),
        _ => Err(usage()),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("dg-perf: an output check failed");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("dg-perf: {e}");
            ExitCode::from(2)
        }
    }
}
