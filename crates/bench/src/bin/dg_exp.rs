//! `dg-exp`: regenerates the paper's tables and figures.
//!
//! `dg-exp <figure> [flags]` runs one figure with that figure's flags
//! (`dg-exp <figure> --help` lists them); `dg-exp all [flags]` runs
//! every figure. `all` takes the standard experiment flags, gives each
//! figure the ones it takes, and runs the rest at their defaults; the
//! standard comparison runs once and table2, fig4_per_flow, fig5_cost
//! and ablation_kpaths all read it. Files land under `results/`, or
//! under `--out DIR`, which every figure and `all` take.
//!
//! Usage: `cargo run --release -p dg-bench --bin dg-exp -- table2
//! --seconds 600 --weeks 2`

use dg_bench::cli::Matches;
use dg_bench::figures::{self, Input, FIGURES, STANDARD};
use dg_bench::{results_dir, Experiment, Report, Tally};
use std::path::PathBuf;

/// Prints a figure's text, writes its files, and reports its failed
/// checks; `false` when a check failed.
fn emit(report: Report, matches: &Matches) -> bool {
    print!("{}", report.text);
    let dir = matches.value("out").map_or_else(results_dir, PathBuf::from);
    std::fs::create_dir_all(&dir).expect("output directory is creatable");
    for (name, body) in &report.files {
        let path = dir.join(name);
        std::fs::write(&path, body).expect("output file is writable");
        eprintln!("wrote {}", path.display());
    }
    for failure in &report.failures {
        eprintln!("REGRESSION {failure}");
    }
    report.failures.is_empty()
}

/// Runs every figure; see the module docs.
fn all(args: Vec<String>) -> bool {
    let cli =
        figures::out_cli(Experiment::cli("dg-exp all", "every table and figure of the paper"));
    let matches = cli.parse_or_exit(args.clone());
    let experiment = Experiment::from_matches(&matches).unwrap_or_else(|e| cli.exit_with(&e));
    let mut standard: Option<Tally> = None;
    let mut passed = true;
    for figure in &FIGURES {
        if let (Some(_), Input::Generated(_)) = (&experiment.trace, figure.input) {
            eprintln!("{}: skipped, it generates its own weeks and takes no --trace", figure.name);
            continue;
        }
        let own = figure.cli();
        // Every flag `all` takes has a value, so the arguments pair up.
        let given = args.chunks(2).filter(|pair| own.declares(&pair[0][2..])).flatten().cloned();
        let own_matches = own.parse_or_exit(given);
        println!("\n== {} ==", figure.name);
        let report = match figure.input {
            Input::Compared(_, run) => {
                Ok(run(&experiment, standard.get_or_insert_with(|| experiment.run(&STANDARD))))
            }
            Input::Weeks(run) | Input::Generated(run) => run(&experiment, &own_matches),
            Input::Alone(run) => run(&own_matches),
        };
        passed &= emit(report.unwrap_or_else(|e| own.exit_with(&e)), &own_matches);
    }
    passed
}

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_default();
    let args: Vec<String> = args.collect();
    let passed = if name == "all" {
        all(args)
    } else if let Some(figure) = figures::find(&name) {
        let cli = figure.cli();
        let matches = cli.parse_or_exit(args);
        let report = figure.run(&matches).unwrap_or_else(|e| cli.exit_with(&e));
        emit(report, &matches)
    } else {
        let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        eprintln!(
            "dg-exp: unknown figure {name:?}\n\nUsage: dg-exp <figure>|all [flags]\n\n\
             Figures: {}\n\n`dg-exp <figure> --help` lists a figure's flags.",
            names.join(", ")
        );
        std::process::exit(2);
    };
    if !passed {
        std::process::exit(1);
    }
}
