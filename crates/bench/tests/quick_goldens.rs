//! Every figure at small arguments, byte for byte against the files
//! under `tests/fixtures/quick/`.
//!
//! The fixtures were written by the per-figure binaries that `dg-exp`
//! replaced, at the arguments in the table below, and are not
//! regenerated from `dg-exp`: they pin that the figures still compute
//! what they computed. `fig8_scale` is compared on its scheme rows
//! only, since its timings and revision stamp vary from run to run.

use dg_bench::figures::{self, Input, STANDARD};
use dg_bench::{Experiment, Report};
use serde::Value;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Small enough to run in a fraction of a second in release, large
/// enough that the schemes' rows differ.
const QUICK: &[&str] = &["--seconds", "600", "--weeks", "2", "--rate", "25"];

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/quick")
}

fn run(figure: &str, args: &[&str]) -> Report {
    let figure = figures::find(figure).expect("figure exists");
    let matches = figure.cli().parse(args.iter().map(|s| s.to_string())).expect("arguments parse");
    figure.run(&matches).expect("figure runs")
}

/// The scheme rows of a `BENCH_fig8_scale.json`: per size, its label
/// and its schemes.
fn scheme_rows(json: &str) -> Value {
    let result: Value = serde_json::from_str(json).expect("fig8 result parses");
    let Some(Value::Array(sizes)) = result.get("sizes") else { panic!("no sizes in {json}") };
    let rows = sizes.iter().map(|size| {
        let field = |key: &str| (key.to_string(), size.get(key).expect(key).clone());
        Value::Object(vec![field("topo"), field("schemes")])
    });
    Value::Array(rows.collect())
}

fn compare(dir: &Path, report: &Report, checked: &mut BTreeSet<PathBuf>) {
    assert!(!report.files.is_empty(), "the figure writes files");
    for (name, body) in &report.files {
        if name == "BENCH_fig8_scale.json" {
            let path = dir.join("fig8_scale_schemes.json");
            let fixture = std::fs::read_to_string(&path).expect("fixture exists");
            let fixture: Value = serde_json::from_str(&fixture).expect("fixture parses");
            assert_eq!(scheme_rows(body), fixture, "fig8_scale scheme rows drifted");
            checked.insert(path);
            continue;
        }
        let path = dir.join(name);
        let fixture = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{name}: no fixture at {}: {e}", path.display()));
        assert_eq!(body, &fixture, "{name} drifted from its fixture");
        checked.insert(path);
    }
}

#[test]
fn every_figure_matches_its_quick_golden() {
    let quick = fixtures();
    let cases: [(&str, &[&str], PathBuf); 13] = [
        ("table1", QUICK, quick.clone()),
        ("table2", QUICK, quick.clone()),
        ("fig1_graphs", &[], quick.clone()),
        ("fig2_topology", &[], quick.clone()),
        ("fig3_case_study", &[], quick.clone()),
        ("fig4_per_flow", QUICK, quick.clone()),
        ("fig5_cost", QUICK, quick.clone()),
        ("fig6_sensitivity", QUICK, quick.clone()),
        ("fig7_latency_cdf", QUICK, quick.clone()),
        ("fig8_scale", &["--quick"], quick.clone()),
        ("ablation_kpaths", QUICK, quick.clone()),
        ("ablation_branches", QUICK, quick.clone()),
        (
            "table2",
            &["--seconds", "600", "--weeks", "2", "--rate", "25", "--topology", "global"],
            quick.join("global"),
        ),
    ];
    let mut checked = BTreeSet::new();
    for (figure, args, dir) in cases {
        compare(&dir, &run(figure, args), &mut checked);
    }

    // The four figures that read the standard comparison, served by one
    // run of it as `dg-exp all` serves them, write the same files.
    let cli = figures::find("table2").unwrap().cli();
    let matches = cli.parse(QUICK.iter().map(|s| s.to_string())).unwrap();
    let experiment = Experiment::from_matches(&matches).unwrap();
    let tally = experiment.run(&STANDARD);
    let mut served = 0;
    for figure in &figures::FIGURES {
        if let Input::Compared(_, run) = figure.input {
            compare(&quick, &run(&experiment, &tally), &mut checked);
            served += 1;
        }
    }
    assert_eq!(served, 4, "table2, fig4_per_flow, fig5_cost and ablation_kpaths");

    // Every fixture was compared: no figure stopped writing a file.
    let mut fixtures = BTreeSet::new();
    for dir in [quick.clone(), quick.join("global")] {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_file() {
                fixtures.insert(path);
            }
        }
    }
    assert_eq!(checked, fixtures);
}
