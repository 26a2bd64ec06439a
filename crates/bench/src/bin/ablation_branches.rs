//! Ablation: how many targeted branches are enough?
//!
//! The paper's problem graphs branch through *every* usable neighbour
//! of the troubled endpoint. This sweep caps the number of extra
//! branches (0 = plain disjoint pair, up to unlimited) and measures the
//! coverage/cost trade-off — the design-choice ablation DESIGN.md §4
//! calls out.
//!
//! Usage: `cargo run --release -p dg-bench --bin ablation_branches --
//! [--seconds N] [--weeks N] [--rate N]`

use dg_bench::{print_table, write_csv, Experiment};
use dg_core::scheme::SchemeKind;
use dg_sim::experiment::{run_comparison, SchemeAggregate};
use dg_sim::gap_coverage;
use dg_trace::gen;

fn main() {
    let cli = Experiment::cli(
        "ablation_branches",
        "ablation: coverage vs cost as targeted branch caps vary",
    );
    let matches = cli.parse_env();
    let experiment = Experiment::from_matches(&matches).unwrap_or_else(|e| cli.exit_with(&e));

    // Baseline + optimal anchors, then targeted at each branch cap.
    let anchors = [SchemeKind::StaticSinglePath, SchemeKind::TimeConstrainedFlooding];
    let limits: [Option<u8>; 4] = [Some(0), Some(1), Some(2), None];

    let mut anchor_aggs: Vec<SchemeAggregate> = Vec::new();
    let mut targeted_aggs: Vec<(Option<u8>, SchemeAggregate)> = Vec::new();

    for (week, &seed) in experiment.seeds.iter().enumerate() {
        let traces = gen::generate(&experiment.topology, &experiment.wan_config(seed));
        let mut config = experiment.config;
        config.playback.seed = seed;

        let aggs = run_comparison(
            &experiment.topology,
            &traces,
            &experiment.flows,
            &anchors,
            &config,
            experiment.threads,
        )
        .expect("flows routable");
        merge_into(&mut anchor_aggs, aggs, week);

        for (i, &limit) in limits.iter().enumerate() {
            let mut cfg = config;
            cfg.scheme_params.problem_branch_limit = limit;
            let aggs = run_comparison(
                &experiment.topology,
                &traces,
                &experiment.flows,
                &[SchemeKind::TargetedRedundancy],
                &cfg,
                experiment.threads,
            )
            .expect("flows routable");
            if week == 0 {
                targeted_aggs.push((limit, aggs.into_iter().next().expect("one agg")));
            } else {
                let agg = aggs.into_iter().next().expect("one agg");
                targeted_aggs[i].1.totals.merge(&agg.totals);
            }
        }
        eprintln!("week {} done", week + 1);
    }

    let baseline = anchor_aggs[0].totals.unavailable_seconds;
    let optimal = anchor_aggs[1].totals.unavailable_seconds;
    let pair_cost = targeted_aggs
        .iter()
        .find(|(l, _)| *l == Some(0))
        .expect("limit 0 present")
        .1
        .average_cost();

    let mut table = vec![vec![
        "extra branches".to_string(),
        "unavail s".to_string(),
        "gap coverage %".to_string(),
        "avg cost".to_string(),
        "cost vs pair".to_string(),
    ]];
    for (limit, agg) in &targeted_aggs {
        let label = limit.map_or("all".to_string(), |l| l.to_string());
        table.push(vec![
            label,
            agg.totals.unavailable_seconds.to_string(),
            format!(
                "{:.1}",
                gap_coverage(baseline, optimal, agg.totals.unavailable_seconds) * 100.0
            ),
            format!("{:.2}", agg.average_cost()),
            format!("{:+.2}%", (agg.average_cost() / pair_cost - 1.0) * 100.0),
        ]);
    }
    println!(
        "targeted redundancy vs branch cap (baseline {} / optimal {} unavailable s):\n",
        baseline, optimal
    );
    print_table(&table);
    write_csv("ablation_branches", &table);
}

fn merge_into(into: &mut Vec<SchemeAggregate>, aggs: Vec<SchemeAggregate>, week: usize) {
    if week == 0 {
        *into = aggs;
    } else {
        for (m, a) in into.iter_mut().zip(&aggs) {
            m.totals.merge(&a.totals);
        }
    }
}
