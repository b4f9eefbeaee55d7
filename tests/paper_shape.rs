//! The committed RQ1/RQ2 outputs still say what EXPERIMENTS.md says they
//! say. These tests read `results/tables_{missing,outliers,mislabels}.txt`
//! and `results/fig1.txt` and run no study: `./ci.sh` regenerates those
//! files and `cmp`s them against what the code prints, so a change that
//! moves a score has to recommit them, and then these claims are checked
//! on the new numbers. A claim that no longer holds is rewritten in
//! EXPERIMENTS.md; its tolerance here is not loosened to keep it.

use std::path::Path;

const WORSE: usize = 0;
const INSIGNIFICANT: usize = 1;
const BETTER: usize = 2;
const OUTCOMES: [&str; 3] = ["worse", "insignificant", "better"];

/// One measured impact table: `counts[fairness][accuracy]`, each axis in
/// worse / insignificant / better order.
struct ImpactTable {
    title: String,
    counts: [[usize; 3]; 3],
}

impl ImpactTable {
    fn n(&self) -> usize {
        self.counts.iter().flatten().sum()
    }

    /// Entries whose accuracy moved as `outcome`.
    fn accuracy(&self, outcome: usize) -> usize {
        self.counts.iter().map(|row| row[outcome]).sum()
    }

    fn accuracy_share(&self, outcome: usize) -> f64 {
        self.accuracy(outcome) as f64 / self.n() as f64
    }

    /// Share of the table's entries whose fairness moved as `outcome`.
    fn fairness_share(&self, outcome: usize) -> f64 {
        self.counts[outcome].iter().sum::<usize>() as f64 / self.n() as f64
    }

    fn single_attribute(&self) -> bool {
        self.title.contains("single-attribute groups")
    }
}

fn read(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("results").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The parenthesised counts of a table line, left to right.
fn counts(line: &str) -> Vec<usize> {
    let count = |cell: &str| cell.split(')').next()?.trim().parse().ok();
    line.split('(').skip(1).map(|cell| count(cell).expect("a count")).collect()
}

/// Every "Measured Table" of `name`, checked against its own marginals.
fn impact_tables(name: &str) -> Vec<ImpactTable> {
    let text = read(name);
    let lines: Vec<&str> = text.lines().collect();
    let tables: Vec<ImpactTable> = (0..lines.len())
        .filter(|&i| lines[i].starts_with("Measured Table"))
        .map(|i| {
            // The title, two header lines and a rule; then one row per
            // fairness outcome, a rule and the accuracy marginals.
            let mut table = ImpactTable { title: lines[i].to_string(), counts: [[0; 3]; 3] };
            for (f, label) in OUTCOMES.iter().enumerate() {
                let row = lines[i + 4 + f];
                assert_eq!(row.split('|').next().map(str::trim), Some(*label), "{row}");
                let cells = counts(row);
                assert_eq!(cells.len(), 4, "three cells and the row total: {row}");
                assert_eq!(cells[3], cells[..3].iter().sum::<usize>(), "{row}");
                table.counts[f].copy_from_slice(&cells[..3]);
            }
            let marginals = lines[i + 8];
            let by_accuracy: Vec<usize> = (0..3).map(|a| table.accuracy(a)).collect();
            assert_eq!(counts(marginals), by_accuracy, "{marginals}");
            let n = marginals.rsplit("n=").next().and_then(|n| n.trim().parse().ok());
            assert_eq!(n, Some(table.n()), "{marginals}");
            table
        })
        .collect();
    assert_eq!(tables.len(), 4, "{name}: PP and EO, single-attribute and intersectional");
    tables
}

fn single_attribute_pp(name: &str) -> ImpactTable {
    let tables = impact_tables(name);
    let table = tables.into_iter().find(ImpactTable::single_attribute).expect("a table");
    assert!(table.title.ends_with(", PP)"), "{}", table.title);
    table
}

/// Tables II/III: "repairing missing values is very unlikely to worsen
/// accuracy", reproduced exactly. Tolerance: none; 0 of the 126
/// single-attribute entries may worsen accuracy.
#[test]
fn missing_value_repair_never_worsens_accuracy() {
    for table in impact_tables("tables_missing.txt").iter().filter(|t| t.single_attribute()) {
        assert_eq!(table.n(), 126, "{}", table.title);
        assert_eq!(table.accuracy(WORSE), 0, "{}", table.title);
    }
}

/// Tables VI/VII: outlier repair worsens accuracy more often than it
/// improves it (23.0% vs 12.3%). Tolerance: the direction only; any
/// margin of worse over better holds the claim.
#[test]
fn outlier_repair_worsens_accuracy_more_often_than_it_improves_it() {
    for table in impact_tables("tables_outliers.txt").iter().filter(|t| t.single_attribute()) {
        let (worse, better) = (table.accuracy_share(WORSE), table.accuracy_share(BETTER));
        assert!(worse > better, "{}: worse {worse:.3} vs better {better:.3}", table.title);
    }
}

/// Tables II, VI and X: label repair has by far the lowest
/// accuracy-insignificant share of the three error types (18.5% vs
/// 88.9% and 64.6%). Tolerance: "by far" means at most half of the
/// next lowest share.
#[test]
fn label_repair_has_the_lowest_accuracy_insignificant_share() {
    let share = |name| single_attribute_pp(name).accuracy_share(INSIGNIFICANT);
    let labels = share("tables_mislabels.txt");
    let next = share("tables_missing.txt").min(share("tables_outliers.txt"));
    assert!(labels <= next / 2.0, "label repair {labels:.3} vs next lowest {next:.3}");
}

/// Tables II–IX: missing-value and outlier repair leave fairness
/// insignificant in most entries of every table (85–100% measured, the
/// paper ~50–66%). Tolerance: "most" means more than half.
#[test]
fn missing_value_and_outlier_fairness_is_mostly_insignificant() {
    for name in ["tables_missing.txt", "tables_outliers.txt"] {
        for table in impact_tables(name) {
            let share = table.fairness_share(INSIGNIFICANT);
            assert!(share > 0.5, "{}: insignificant share {share:.3}", table.title);
        }
    }
}

/// Figure 1: every G²-significant missing-value detection disparity
/// burdens the disadvantaged group (5 of 5 measured, the paper 4 of 6).
/// Tolerance: none; every such row has the larger flagged share on the
/// disadvantaged side.
#[test]
fn significant_missing_value_disparities_burden_the_disadvantaged_group() {
    let text = read("fig1.txt");
    let rows: Vec<Vec<&str>> = text
        .lines()
        .skip_while(|line| !line.starts_with("dataset  detector"))
        .skip(1)
        .take_while(|line| !line.trim().is_empty())
        .map(|line| line.split_whitespace().collect())
        .collect();
    let percent = |cell: &str| -> f64 { cell.trim_end_matches('%').parse().expect("a share") };
    let mut missing = 0;
    for row in &rows {
        assert_eq!(row.len(), 7, "dataset detector group priv dis G2 p: {row:?}");
        let p: f64 = row[6].parse().expect("a p-value");
        assert!(p < 0.05, "fig1 lists only significant rows: {row:?}");
        if row[1] == "missing_values" {
            missing += 1;
            assert!(percent(row[4]) > percent(row[3]), "burdens the privileged group: {row:?}");
        }
    }
    assert!(missing > 0, "fig1.txt lists no significant missing-value disparity");
}
