//! `dg-exp`'s refusals: bad outside input is a usage error (exit 2)
//! naming what was wrong, caught before any figure runs.

use std::process::{Command, Output};

fn dg_exp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dg-exp")).args(args).output().expect("dg-exp runs")
}

#[test]
fn bad_input_exits_2_with_a_reason() {
    let dir = std::env::temp_dir().join(format!("dg_exp_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let garbage = dir.join("garbage.json");
    std::fs::write(&garbage, "{ not a trace").unwrap();
    let short = dir.join("short.dgtrace");
    dg_trace::TraceSet::clean(7, 3, dg_topology::Micros::from_secs(10))
        .unwrap()
        .save_binary(&short)
        .unwrap();
    let missing = dir.join("missing.dgtrace");
    let (garbage, short, missing) =
        (garbage.to_str().unwrap(), short.to_str().unwrap(), missing.to_str().unwrap());

    let cases: [(&[&str], &str); 8] = [
        (&[], "Figures: table1, table2, fig1_graphs"),
        (&["fig9_everything"], "unknown figure \"fig9_everything\""),
        (&["table2", "--trace", missing], "a trace file"),
        (&["table1", "--trace", garbage], "a trace file"),
        (&["fig7_latency_cdf", "--trace", short], "7 links, the topology has"),
        (&["fig6_sensitivity", "--trace", short], "unknown flag: --trace"),
        (&["fig1_graphs", "--src", "ATLANTIS", "--dst", "SJC"], "--src: cannot parse \"ATLANTIS\""),
        (&["table2", "--topo", "ring"], "unknown flag: --topo"),
    ];
    for (args, reason) in cases {
        let out = dg_exp(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "dg-exp {args:?}:\n{stderr}");
        assert!(stderr.contains(reason), "dg-exp {args:?} should say {reason:?}:\n{stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn each_figure_answers_help_with_its_own_flags() {
    let out = dg_exp(&["table1", "--help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("dg-exp table1"), "{text}");
    for flag in ["--loss-threshold", "--topology", "--seed", "--trace"] {
        assert!(text.contains(flag), "table1 --help lists {flag}:\n{text}");
    }
    let out = dg_exp(&["fig6_sensitivity", "--help"]);
    assert!(!String::from_utf8_lossy(&out.stdout).contains("--trace"));
}

#[test]
fn out_puts_a_figures_files_in_the_directory_named() {
    let dir = std::env::temp_dir().join(format!("dg_exp_out_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = dg_exp(&["fig2_topology", "--out", dir.join("nested").to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let mut written: Vec<_> = std::fs::read_dir(dir.join("nested"))
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    written.sort();
    assert_eq!(written, ["fig2_topology.csv", "fig2_topology.dot"]);
    std::fs::remove_dir_all(&dir).ok();
}
