//! Paper-format text rendering of tables and figures.

use crate::deepdive::ModelImpactRow;
use crate::impact::Impact;
use crate::rq1::{DisparityRow, MislabelDrilldown};
use crate::tables::ImpactTable;
use datasets::DatasetSpec;
use std::fmt::Write;

const AXIS: [Impact; 3] = [Impact::Worse, Impact::Insignificant, Impact::Better];

/// Renders a 3×3 impact table in the paper's layout (fairness rows ×
/// accuracy columns, percentages with absolute counts in parentheses).
pub fn render_impact_table(title: &str, table: &ImpactTable) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(out, "{:>14} | {:^51} |", "", "accuracy");
    let _ = writeln!(
        out,
        "{:>14} | {:^15} {:^15} {:^15}     |",
        "fairness", "worse", "insignificant", "better"
    );
    let _ = writeln!(out, "{}", "-".repeat(72));
    for f in AXIS {
        let mut row = format!("{:>14} |", f.label());
        for a in AXIS {
            let cell = format!("{:5.1}% ({})", table.percentage(f, a), table.cell(f, a));
            let _ = write!(row, " {cell:^15}");
        }
        let _ = write!(
            row,
            " | {:5.1}% ({})",
            100.0 * table.fairness_marginal(f) as f64 / table.total().max(1) as f64,
            table.fairness_marginal(f)
        );
        let _ = writeln!(out, "{row}");
    }
    let _ = writeln!(out, "{}", "-".repeat(72));
    let mut row = format!("{:>14} |", "");
    for a in AXIS {
        let cell = format!(
            "{:5.1}% ({})",
            100.0 * table.accuracy_marginal(a) as f64 / table.total().max(1) as f64,
            table.accuracy_marginal(a)
        );
        let _ = write!(row, " {cell:^15}");
    }
    let _ = writeln!(out, "{row} | n={}", table.total());
    out
}

/// Renders the RQ1 disparity rows (Figure 1 when `intersectional` is
/// false, Figure 2 when true). Only G²-significant rows are shown, like
/// the paper's figures; pass `alpha = 1.0` to see everything.
pub fn render_disparities(rows: &[DisparityRow], intersectional: bool, alpha: f64) -> String {
    let mut out = String::new();
    let kind = if intersectional { "intersectional" } else { "single-attribute" };
    let _ = writeln!(
        out,
        "Disparate error-detection proportions ({kind} groups), G2-significant at p<{alpha}:"
    );
    let _ = writeln!(
        out,
        "{:<8} {:<15} {:<10} {:>10} {:>10} {:>12} {:>10}",
        "dataset", "detector", "group", "priv", "dis", "G2", "p"
    );
    let mut shown = 0;
    for row in rows {
        if row.intersectional != intersectional || !row.significant(alpha) {
            continue;
        }
        shown += 1;
        // lint:allow(P001, row.significant() returned true, which requires g_test to be Some)
        let test = row.g_test.expect("significant implies present");
        let _ = writeln!(
            out,
            "{:<8} {:<15} {:<10} {:>9.2}% {:>9.2}% {:>12.2} {:>10.2e}",
            row.dataset,
            row.detector,
            row.group,
            100.0 * row.privileged_fraction(),
            100.0 * row.disadvantaged_fraction(),
            test.g2,
            test.p_value
        );
    }
    if shown == 0 {
        let _ = writeln!(out, "(no significant disparities)");
    }
    out
}

/// Renders the mislabel FP/FN drill-down of Section III.
pub fn render_drilldown(rows: &[MislabelDrilldown]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Mislabel drill-down: predicted-FP share among flagged tuples:");
    let _ = writeln!(
        out,
        "{:<8} {:<8} {:>12} {:>12} {:>14}",
        "dataset", "group", "priv FP%", "dis FP%", "significant"
    );
    for row in rows {
        let sig = row.g_test.is_some_and(|t| t.significant(0.05));
        let _ = writeln!(
            out,
            "{:<8} {:<8} {:>11.1}% {:>11.1}% {:>14}",
            row.dataset,
            row.group,
            100.0 * row.privileged_fp_share(),
            100.0 * row.disadvantaged_fp_share(),
            if sig { "yes" } else { "no" }
        );
    }
    out
}

/// Renders Table XIV (per-model fairness impact).
pub fn render_model_table(rows: &[ModelImpactRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Impact of auto-cleaning per ML model (paper Table XIV):");
    let _ = writeln!(
        out,
        "{:<10} {:>18} {:>18} {:>26}",
        "model", "fairness worse", "fairness better", "fairness & accuracy better"
    );
    for row in rows {
        let _ = writeln!(
            out,
            "{:<10} {:>12.1}% ({:>3}) {:>12.1}% ({:>3}) {:>20.1}% ({:>3})",
            row.model.name(),
            row.pct(row.fairness_worse),
            row.fairness_worse,
            row.pct(row.fairness_better),
            row.fairness_better,
            row.pct(row.both_better),
            row.both_better
        );
    }
    out
}

/// Renders Table I (dataset inventory).
pub fn render_dataset_table(specs: &[DatasetSpec]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Datasets for the experimental study (paper Table I):");
    let _ = writeln!(
        out,
        "{:<8} {:<12} {:>16}   sensitive attributes",
        "name", "source", "number of tuples"
    );
    for spec in specs {
        let attrs: Vec<&str> = spec.sensitive_attributes.iter().map(|a| a.name).collect();
        let _ = writeln!(
            out,
            "{:<8} {:<12} {:>16}   {}",
            spec.name,
            spec.source,
            spec.full_size,
            attrs.join(", ")
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use statskit::GTestResult;

    #[test]
    fn impact_table_renders_all_cells() {
        let mut t = ImpactTable::default();
        t.add(Impact::Worse, Impact::Better);
        t.add(Impact::Better, Impact::Better);
        t.add(Impact::Insignificant, Impact::Insignificant);
        let text = render_impact_table("Table II", &t);
        assert!(text.contains("Table II"));
        assert!(text.contains("worse"));
        assert!(text.contains("insignificant"));
        assert!(text.contains("better"));
        assert!(text.contains("33.3% (1)"));
        assert!(text.contains("n=3"));
    }

    fn disparity_row(significant: bool, intersectional: bool) -> DisparityRow {
        DisparityRow {
            dataset: "adult".to_string(),
            detector: "missing_values".to_string(),
            group: "sex".to_string(),
            intersectional,
            privileged_flagged: 50,
            privileged_total: 1000,
            disadvantaged_flagged: 150,
            disadvantaged_total: 1000,
            g_test: Some(GTestResult {
                g2: if significant { 50.0 } else { 0.1 },
                p_value: if significant { 1e-10 } else { 0.75 },
                df: 1.0,
            }),
        }
    }

    #[test]
    fn disparities_filter_by_significance_and_kind() {
        let rows = vec![disparity_row(true, false), disparity_row(false, false)];
        let text = render_disparities(&rows, false, 0.05);
        assert!(text.contains("missing_values"));
        // Only one significant row appears.
        assert_eq!(text.matches("adult").count(), 1);
        let inter = render_disparities(&rows, true, 0.05);
        assert!(inter.contains("no significant disparities"));
    }

    #[test]
    fn drilldown_renders_shares() {
        let rows = vec![MislabelDrilldown {
            dataset: "heart".to_string(),
            group: "sex".to_string(),
            privileged_fp: 577,
            privileged_fn: 423,
            disadvantaged_fp: 522,
            disadvantaged_fn: 478,
            g_test: Some(GTestResult { g2: 6.2, p_value: 0.012, df: 1.0 }),
        }];
        let text = render_drilldown(&rows);
        assert!(text.contains("57.7%"));
        assert!(text.contains("52.2%"));
        assert!(text.contains("yes"));
    }

    #[test]
    fn model_table_renders_percentages() {
        let rows = vec![ModelImpactRow {
            model: mlcore::ModelKind::LogReg,
            n: 100,
            fairness_worse: 36,
            fairness_better: 21,
            both_better: 16,
        }];
        let text = render_model_table(&rows);
        assert!(text.contains("log-reg"));
        assert!(text.contains("36.0%"));
        assert!(text.contains("21.0%"));
        assert!(text.contains("16.0%"));
    }

    #[test]
    fn dataset_table_lists_all() {
        let text = render_dataset_table(&datasets::all_specs());
        for name in ["adult", "folk", "credit", "german", "heart"] {
            assert!(text.contains(name), "{name} missing");
        }
        assert!(text.contains("378817"));
    }
}
