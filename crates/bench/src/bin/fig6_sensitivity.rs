//! Figure 6 (reconstructed): sensitivity of gap coverage to the
//! problem-location mix and to the deadline.
//!
//! An ablation of the paper's premise: targeted redundancy's advantage
//! rests on problems clustering around flow endpoints. Sweeping the
//! access-site bias from uniform (1x) to strongly clustered (8x) shows
//! how each scheme's coverage responds; sweeping the deadline shows how
//! much slack the schemes need.
//!
//! Usage: `cargo run --release -p dg-bench --bin fig6_sensitivity --
//! [--seconds N] [--rate N]`

use dg_bench::{print_table, write_csv, Experiment};
use dg_core::scheme::SchemeKind;
use dg_sim::experiment::{run_comparison, tabulate};
use dg_topology::Micros;
use dg_trace::gen;

const SCHEMES: [SchemeKind; 4] = [
    SchemeKind::StaticTwoDisjoint,
    SchemeKind::DynamicTwoDisjoint,
    SchemeKind::TargetedRedundancy,
    SchemeKind::TimeConstrainedFlooding,
];

/// Sums unavailable seconds per scheme across weeks, then tabulates a
/// coverage row against the merged baseline/optimal.
fn coverage_row(
    experiment: &Experiment,
    label: String,
    run_week: impl Fn(u64) -> Vec<dg_sim::experiment::SchemeAggregate>,
) -> Vec<String> {
    let mut merged: Vec<dg_sim::experiment::SchemeAggregate> = Vec::new();
    for (week, &seed) in experiment.seeds.iter().enumerate() {
        let aggs = run_week(seed);
        if week == 0 {
            merged = aggs;
        } else {
            for (m, a) in merged.iter_mut().zip(&aggs) {
                m.totals.merge(&a.totals);
            }
        }
    }
    let rows = tabulate(&merged, SchemeKind::StaticSinglePath, SchemeKind::TimeConstrainedFlooding);
    let mut line = vec![label];
    for kind in SCHEMES {
        let r = rows.iter().find(|r| r.scheme == kind).expect("present");
        line.push(format!("{:.1}", r.gap_coverage * 100.0));
    }
    line
}

fn main() {
    let cli = Experiment::cli("fig6_sensitivity", "sensitivity sweep over generator problem rates");
    let matches = cli.parse_env();
    let experiment = Experiment::from_matches(&matches).unwrap_or_else(|e| cli.exit_with(&e));

    let mut kinds = vec![SchemeKind::StaticSinglePath];
    kinds.extend(SCHEMES);

    // Sweep 1: how clustered problems are around access sites.
    println!("sweep 1: gap coverage vs access-site problem bias\n");
    let mut bias_table = vec![{
        let mut h = vec!["bias".to_string()];
        h.extend(SCHEMES.iter().map(|k| k.label().to_string()));
        h
    }];
    for bias in [1.0, 2.0, 4.0, 8.0] {
        bias_table.push(coverage_row(&experiment, format!("{bias}x"), |seed| {
            let mut wan = experiment.wan_config(seed);
            wan.node_weights = Some(gen::biased_node_weights(
                &experiment.topology,
                &dg_bench::Experiment::ACCESS_SITES,
                bias,
            ));
            let traces = gen::generate(&experiment.topology, &wan);
            let mut config = experiment.config;
            config.playback.seed = seed;
            run_comparison(
                &experiment.topology,
                &traces,
                &experiment.flows,
                &kinds,
                &config,
                experiment.threads,
            )
            .expect("flows routable")
        }));
        eprintln!("bias {bias}x done");
    }
    print_table(&bias_table);
    write_csv("fig6_bias_sweep", &bias_table);

    // Sweep 2: deadline headroom.
    println!("\nsweep 2: gap coverage vs one-way deadline\n");
    let mut deadline_table = vec![{
        let mut h = vec!["deadline".to_string()];
        h.extend(SCHEMES.iter().map(|k| k.label().to_string()));
        h
    }];
    for deadline_ms in [50u64, 65, 80, 100] {
        deadline_table.push(coverage_row(&experiment, format!("{deadline_ms}ms"), |seed| {
            let traces = gen::generate(&experiment.topology, &experiment.wan_config(seed));
            let mut config = experiment.config;
            config.playback.seed = seed;
            config.requirement.deadline = Micros::from_millis(deadline_ms);
            config.playback.deadline = Micros::from_millis(deadline_ms);
            run_comparison(
                &experiment.topology,
                &traces,
                &experiment.flows,
                &kinds,
                &config,
                experiment.threads,
            )
            .expect("flows routable")
        }));
        eprintln!("deadline {deadline_ms}ms done");
    }
    print_table(&deadline_table);
    write_csv("fig6_deadline_sweep", &deadline_table);
}
