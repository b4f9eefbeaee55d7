//! Runs the complete study end-to-end — RQ1 analysis, all twelve impact
//! tables, the deep dive — and exports CleanML-style JSON result records
//! to `results/`.
//!
//! This is the "one command reproduces the paper" entry point:
//!
//! ```text
//! cargo run --release -p demodq-bench --bin run_study -- --scale default
//! ```

use datasets::DatasetId;
use demodq::deepdive::{case_analysis, case_summary, model_comparison, pooled_entries};
use demodq::report::{render_dataset_table, render_disparities, render_impact_table, render_model_table};
use demodq::tables::build_table;
use fairness::FairnessMetric;
use std::io::Write as _;

fn main() {
    let opts = demodq_bench::parse_args(std::env::args().skip(1), "");

    println!("{}", render_dataset_table(&datasets::all_specs()));

    // RQ1 (Figures 1 and 2).
    let n = demodq_bench::rq1_pool_size(&opts.scale);
    let rows = demodq::rq1::analyze_datasets(&DatasetId::all(), n, opts.seed)
        .expect("RQ1 analysis failed");
    println!("{}", render_disparities(&rows, false, 0.05));
    println!("{}", render_disparities(&rows, true, 0.05));

    // RQ2: all three error-type studies, all twelve tables. With
    // `--journal DIR` every completed (dataset, split) task is journaled
    // as it finishes, and `--resume` replays completed tasks instead of
    // re-running them after a crash.
    let studies = demodq_bench::run_all_studies_with(&opts.scale, opts.seed, &opts.study_options())
        .expect("studies failed");
    for study in &studies {
        if let Some(summary) = study.degraded_summary() {
            eprintln!("{} study {summary}", study.error);
        }
    }
    let roman = [
        ["II", "III", "IV", "V"],
        ["VI", "VII", "VIII", "IX"],
        ["X", "XI", "XII", "XIII"],
    ];
    for (study, tables) in studies.iter().zip(roman) {
        let layout = [
            (tables[0], FairnessMetric::PredictiveParity, false),
            (tables[1], FairnessMetric::EqualOpportunity, false),
            (tables[2], FairnessMetric::PredictiveParity, true),
            (tables[3], FairnessMetric::EqualOpportunity, true),
        ];
        for (paper_table, metric, intersectional) in layout {
            let table = build_table(study, metric, intersectional, 0.05);
            let kind = if intersectional { "intersectional" } else { "single-attribute" };
            let title = format!(
                "Measured Table {paper_table}: {} x {kind} x {}",
                study.error,
                metric.name()
            );
            println!("{}", render_impact_table(&title, &table));
        }
    }

    // Deep dive summary.
    let entries = pooled_entries(&studies, &FairnessMetric::headline(), false, 0.05);
    let (total, non_worsening, improving, win_win) = case_summary(&case_analysis(&entries));
    println!(
        "Deep dive: {total} cases; {non_worsening} non-worsening, {improving} improving, {win_win} win-win."
    );
    print!("{}", render_model_table(&model_comparison(&entries)));

    // Export a machine-readable summary.
    std::fs::create_dir_all("results").expect("cannot create results/");
    let mut summary = serde_json::Map::new();
    for study in &studies {
        for metric in FairnessMetric::headline() {
            for intersectional in [false, true] {
                let table = build_table(study, metric, intersectional, 0.05);
                let key = format!(
                    "{}/{}/{}",
                    study.error,
                    metric.name(),
                    if intersectional { "intersectional" } else { "single" }
                );
                let mut cells = Vec::new();
                use demodq::impact::Impact;
                for f in [Impact::Worse, Impact::Insignificant, Impact::Better] {
                    for a in [Impact::Worse, Impact::Insignificant, Impact::Better] {
                        cells.push(serde_json::json!({
                            "fairness": f.label(),
                            "accuracy": a.label(),
                            "count": table.cell(f, a),
                            "percent": table.percentage(f, a),
                        }));
                    }
                }
                summary.insert(key, serde_json::Value::Array(cells));
            }
        }
    }
    let path = "results/study_summary.json";
    let mut file = std::fs::File::create(path).expect("cannot write summary");
    file.write_all(serde_json::to_string_pretty(&summary).expect("serialise").as_bytes())
        .expect("write failed");
    println!("\nWrote {path}");
}
