//! End-to-end smoke tests of the `dg-bench` harness: the quick mode
//! must emit schema-valid JSON results, and the CLI must behave like
//! every other binary (uniform --help, errors instead of panics).

use serde::Value;
use std::path::Path;
use std::process::Command;

fn dg_bench() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dg-bench"))
}

fn read_json(path: &Path) -> Value {
    let raw = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    serde_json::from_str(&raw).unwrap_or_else(|e| panic!("bad JSON in {}: {e}", path.display()))
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.get(key).unwrap_or_else(|| panic!("missing field {key:?} in {v:?}"))
}

fn as_num(v: &Value) -> Option<f64> {
    match *v {
        Value::Int(n) => Some(n as f64),
        Value::UInt(n) => Some(n as f64),
        Value::Float(n) => Some(n),
        _ => None,
    }
}

/// The sim results' stamps and per-scheme replay counters: every one of
/// a scheme's `packets` is a wave hit or a full propagation, the
/// wavefront answers for nearly all of them, and the heap's pushes are
/// counted.
fn assert_replay_counters(result: &Value, packets: u64) {
    assert!(as_num(field(result, "cores")).unwrap() >= 1.0);
    assert!(matches!(field(result, "git_rev"), Value::String(rev) if !rev.is_empty()));
    let Value::Array(replay) = field(result, "replay") else { panic!("replay must be an array") };
    let schemes: Vec<_> = replay.iter().map(|r| field(r, "scheme").clone()).collect();
    let expected = ["targeted-redundancy", "time-constrained-flooding"];
    assert_eq!(schemes, expected.map(|s| Value::String(s.into())));
    for scheme in replay {
        let counters = field(scheme, "counters");
        let count = |key| match field(counters, key) {
            Value::UInt(n) => *n,
            other => panic!("{key} must be a count, got {other:?}"),
        };
        assert_eq!(count("wave_hits") + count("full_propagations"), packets);
        assert!(count("straddlers") <= count("full_propagations"));
        assert!(count("wave_builds") >= 2, "the quick trace has two intervals");
        // Every propagation pushes its send, and the hits push nothing.
        assert!(count("heap_pushes") >= count("full_propagations") + count("wave_builds"));
        let share = as_num(field(scheme, "full_share")).unwrap();
        assert!(share > 0.0 && share < 0.10, "full share {share}");
    }
}

#[test]
fn quick_run_emits_schema_valid_results() {
    let dir = std::env::temp_dir().join(format!("dg_bench_smoke_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let output = dg_bench()
        .args(["--quick", "--parallel", "--out", dir.to_str().unwrap()])
        .output()
        .expect("dg-bench runs");
    assert!(
        output.status.success(),
        "dg-bench --quick failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );

    let sim = read_json(&dir.join("BENCH_sim.json"));
    assert_eq!(field(&sim, "bench"), &Value::String("sim".into()));
    assert_eq!(field(&sim, "schema_version"), &Value::UInt(1));
    for key in ["trace_seconds", "rate", "packets", "wall_secs", "packets_per_sec"] {
        assert!(as_num(field(&sim, key)).is_some(), "{key} must be numeric");
    }
    assert!(as_num(field(&sim, "packets_per_sec")).unwrap() > 0.0);
    assert_replay_counters(&sim, 40_000);

    let par = read_json(&dir.join("BENCH_sim_parallel.json"));
    assert_eq!(field(&par, "bench"), &Value::String("sim_parallel".into()));
    assert_eq!(field(&par, "schema_version"), &Value::UInt(1));
    for key in [
        "trace_seconds",
        "rate",
        "cores",
        "threads",
        "jobs",
        "packets",
        "serial_wall_secs",
        "serial_packets_per_sec",
        "parallel_wall_secs",
        "parallel_packets_per_sec",
        "speedup",
    ] {
        assert!(as_num(field(&par, key)).is_some(), "{key} must be numeric");
    }
    // The harness exits nonzero on divergence, so a written file must
    // say identical — but pin it anyway: it is the bench's contract.
    assert_eq!(field(&par, "identical"), &Value::Bool(true));
    assert_replay_counters(&par, 8 * 40_000);

    // A self-check against the numbers just produced always passes.
    let check = dg_bench()
        .args([
            "--quick",
            "--only",
            "sim",
            "--out",
            dir.to_str().unwrap(),
            "--check",
            dir.to_str().unwrap(),
            "--tolerance",
            "0.9",
        ])
        .output()
        .expect("dg-bench runs");
    assert!(
        check.status.success(),
        "self-check regressed:\n{}",
        String::from_utf8_lossy(&check.stderr)
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn help_and_errors_are_uniform() {
    let help = dg_bench().arg("--help").output().expect("dg-bench runs");
    assert!(help.status.success());
    let text = String::from_utf8_lossy(&help.stdout);
    assert!(text.contains("--quick"), "help lists --quick:\n{text}");
    assert!(text.contains("--check"), "help lists --check:\n{text}");

    let bad = dg_bench().args(["--bogus", "1"]).output().expect("dg-bench runs");
    assert_eq!(bad.status.code(), Some(2), "unknown flags exit 2");
    let err = String::from_utf8_lossy(&bad.stderr);
    assert!(err.contains("unknown flag"), "uniform error text:\n{err}");

    let bad_only = dg_bench().args(["--only", "everything"]).output().expect("dg-bench runs");
    assert_eq!(bad_only.status.code(), Some(2), "bad --only exits 2");
}
