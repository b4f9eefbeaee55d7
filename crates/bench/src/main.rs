//! # demodq-bench — the table/figure regeneration harness
//!
//! One binary with one subcommand per paper artifact (DESIGN.md §3 has
//! the full experiment index):
//!
//! | subcommand | regenerates |
//! |---|---|
//! | `table1` | Table I (dataset inventory) |
//! | `fig1 [--drilldown]` | Figure 1 (single-attribute detection disparities), plus the §III FP/FN drill-down |
//! | `fig2` | Figure 2 (intersectional detection disparities) |
//! | `tables --error E` | Tables II–V, VI–IX or X–XIII (cleaning impact for one error type) |
//! | `deepdive` | the §VI deep dive and Table XIV (per-model impact) |
//! | `advisor` | the §VII cleaning advisor over all three error types |
//! | `ablation` | the DESIGN.md §4 ablations |
//! | `gen-data` | the five synthetic datasets as `data/*.csv` |
//! | `study --error E` | one study with greppable journal lines and a JSON export (the CI smokes) |
//! | `run-study` | Table I, Figures 1–2, Tables II–XIII and the deep dive in one process, plus `results/study_summary.json` |
//!
//! One parser owns every flag and its one default (`--scale default`,
//! `--seed 42`); a flag the subcommand does not take is a usage error
//! (exit 2). Every study-running subcommand reaches the runner through
//! [`Cli::study_options`], so `--journal DIR` and `--resume` work for all
//! of them. Each artifact prints the paper's values next to ours. Use
//! `--release` builds for anything above `--scale smoke`.

use datasets::{DatasetId, ErrorType};
use demodq::config::{RepairSide, StudyOptions, StudyScale};
use demodq::deepdive::{
    case_analysis, case_summary, categorical_imputation_comparison, detector_comparison,
    model_comparison, pooled_entries,
};
use demodq::impact::Impact;
use demodq::report::{
    render_dataset_table, render_disparities, render_drilldown, render_impact_table,
    render_model_table,
};
use demodq::rq1::{analyze_datasets, mislabel_drilldown, DisparityRow};
use demodq::runner::{run_error_type_study_with, StudyResults};
use demodq::selector::{recommend_dual_metric, SelectionPolicy, SelectorChoice};
use demodq::tables::build_table;
use fairness::FairnessMetric;
use mlcore::{accuracy, tune_and_fit, ModelKind};
use statskit::Description;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use tabular::{split::train_test_split, DataFrame, FeatureEncoder};

#[derive(Debug, Clone, Copy)]
enum Command {
    Table1,
    Fig1,
    Fig2,
    Tables,
    Deepdive,
    Advisor,
    Ablation,
    GenData,
    Study,
    RunStudy,
}

/// Every subcommand with the flags it takes; any other flag is a usage
/// error.
const COMMANDS: [(&str, Command, &str); 10] = [
    ("table1", Command::Table1, ""),
    ("fig1", Command::Fig1, "--scale --seed --drilldown"),
    ("fig2", Command::Fig2, "--scale --seed"),
    ("tables", Command::Tables, "--error --scale --seed --journal --resume"),
    ("deepdive", Command::Deepdive, "--scale --seed --journal --resume"),
    ("advisor", Command::Advisor, "--scale --seed --journal --resume"),
    ("ablation", Command::Ablation, "--seed"),
    ("gen-data", Command::GenData, "--scale --seed"),
    (
        "study",
        Command::Study,
        "--error --scale --seed --journal --resume --datasets --models --repair-side \
         --threshold --kill-after --out",
    ),
    ("run-study", Command::RunStudy, "--scale --seed --journal --resume"),
];

/// What each flag takes, and its default.
const FLAGS: &str = "\
flags:
  --scale smoke|default|full|large           (default: default)
  --seed N                                   (default: 42)
  --error missing_values|outliers|mislabels  (required where taken)
  --journal DIR      journal every completed task to DIR
  --resume           replay the --journal DIR journal, run only the rest
  --drilldown        add the §III mislabel FP/FN drill-down
  --datasets a,b,... / --models a,b,...      (default: all)
  --repair-side data|model|both              (default: data)
  --threshold F      tolerated share of failed tasks (default: 0.1)
  --kill-after N     SIGKILL this process after N tasks (crash-resume smoke)
  --out PATH         write the study's JSON export to PATH";

fn usage() -> String {
    let mut out = String::from("usage: demodq-bench <subcommand> [flags]\nsubcommands:\n");
    for (name, _, flags) in COMMANDS {
        out.push_str(&format!("  {name:<10} {flags}\n"));
    }
    out + FLAGS
}

/// A parsed command line: the subcommand plus every flag's value.
#[derive(Debug)]
struct Cli {
    command: Command,
    scale: StudyScale,
    seed: u64,
    error: Option<ErrorType>,
    journal: Option<PathBuf>,
    resume: bool,
    drilldown: bool,
    datasets: Vec<DatasetId>,
    models: Vec<ModelKind>,
    repair_side: RepairSide,
    threshold: f64,
    kill_after: usize,
    out: Option<PathBuf>,
}

/// The item of `all` called `value`.
fn named<T: Copy>(all: &[T], name: fn(&T) -> &'static str, value: &str) -> Option<T> {
    all.iter().copied().find(|item| name(item) == value)
}

/// The items of `all` called by the comma-separated names in `value`.
fn named_list<T: Copy>(all: &[T], name: fn(&T) -> &'static str, value: &str) -> Option<Vec<T>> {
    value.split(',').map(|v| named(all, name, v)).collect()
}

/// Parses `<subcommand> [flags]`; `Err` carries what was wrong.
fn parse(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
    let mut args = args.into_iter();
    let name = args.next().ok_or("missing subcommand")?;
    let (_, command, taken) = COMMANDS
        .into_iter()
        .find(|(n, ..)| *n == name)
        .ok_or_else(|| format!("unknown subcommand '{name}'"))?;
    let mut cli = Cli {
        command,
        scale: StudyScale::default_scale(),
        seed: 42,
        error: None,
        journal: None,
        resume: false,
        drilldown: false,
        datasets: DatasetId::all().to_vec(),
        models: ModelKind::all().to_vec(),
        repair_side: RepairSide::Data,
        threshold: StudyOptions::default().failure_threshold,
        kill_after: 0,
        out: None,
    };
    let takes = |flag: &str| taken.split_whitespace().any(|t| t == flag);
    while let Some(flag) = args.next() {
        if !takes(&flag) {
            return Err(format!("{name} does not take '{flag}'"));
        }
        match flag.as_str() {
            "--resume" => cli.resume = true,
            "--drilldown" => cli.drilldown = true,
            _ => {
                let value = args.next().filter(|v| !v.is_empty());
                let value = value.ok_or_else(|| format!("{flag} needs a value"))?;
                let bad = || format!("bad {flag} value '{value}'");
                match flag.as_str() {
                    "--scale" => cli.scale = StudyScale::parse(&value).ok_or_else(bad)?,
                    "--seed" => cli.seed = value.parse().map_err(|_| bad())?,
                    "--error" => {
                        let error = named(&ErrorType::all(), ErrorType::name, &value);
                        cli.error = Some(error.ok_or_else(bad)?);
                    }
                    "--datasets" => {
                        let datasets = named_list(&DatasetId::all(), DatasetId::name, &value);
                        cli.datasets = datasets.ok_or_else(bad)?;
                    }
                    "--models" => {
                        let models = named_list(&ModelKind::all(), ModelKind::name, &value);
                        cli.models = models.ok_or_else(bad)?;
                    }
                    "--repair-side" => {
                        cli.repair_side = RepairSide::parse(&value).ok_or_else(bad)?
                    }
                    "--threshold" => cli.threshold = value.parse().map_err(|_| bad())?,
                    "--kill-after" => cli.kill_after = value.parse().map_err(|_| bad())?,
                    "--journal" => cli.journal = Some(PathBuf::from(value)),
                    "--out" => cli.out = Some(PathBuf::from(value)),
                    _ => return Err(format!("unknown flag '{flag}'")),
                }
            }
        }
    }
    if takes("--error") && cli.error.is_none() {
        return Err(format!("{name} needs --error missing_values|outliers|mislabels"));
    }
    if cli.resume && cli.journal.is_none() {
        return Err("--resume needs --journal DIR (there is no journal to resume from)".into());
    }
    Ok(cli)
}

/// Task count after which `study --kill-after N` kills its own process
/// (0 = never). A static because `on_task_complete` is a plain `fn`.
static KILL_AFTER: AtomicUsize = AtomicUsize::new(0);

/// `on_task_complete` hook: SIGKILL our own process once `done` reaches
/// the threshold. SIGKILL cannot be caught, so whatever the journal holds
/// at that instant is exactly what a real crash would leave. Below the
/// threshold it returns `false` (keep going).
fn kill_hook(done: usize, _total: usize) -> bool {
    if done >= KILL_AFTER.load(Ordering::Relaxed) {
        eprintln!("demodq-bench study: self-kill after {done} task(s)");
        let _ = std::process::Command::new("kill")
            .args(["-9", &std::process::id().to_string()])
            .status();
        // SIGKILL delivery can lag the spawn; don't let more tasks finish.
        loop {
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
    }
    false
}

impl Cli {
    /// The runner options these flags select (progress lines on). Every
    /// study-running subcommand gets its options here and only here.
    fn study_options(&self) -> StudyOptions {
        KILL_AFTER.store(self.kill_after, Ordering::Relaxed);
        StudyOptions {
            journal_dir: self.journal.clone(),
            resume: self.resume,
            failure_threshold: self.threshold,
            progress: true,
            on_task_complete: (self.kill_after > 0)
                .then_some(kill_hook as fn(usize, usize) -> bool),
            repair_side: self.repair_side,
            ..StudyOptions::default()
        }
    }

    /// Runs the study for `error` over the selected datasets and models;
    /// a failed study exits 1.
    fn run_study(&self, error: ErrorType) -> StudyResults {
        eprintln!(
            "running {error} study ({} paired scores/config)...",
            self.scale.scores_per_config()
        );
        let options = self.study_options();
        let study = run_error_type_study_with(
            error,
            &self.datasets,
            &self.models,
            &self.scale,
            self.seed,
            &options,
        );
        let study = study.unwrap_or_else(|e| {
            eprintln!("{error} study failed: {e}");
            std::process::exit(1);
        });
        if let Some(summary) = study.degraded_summary() {
            eprintln!("{error} study {summary}");
        }
        study
    }

    fn run_all_studies(&self) -> Vec<StudyResults> {
        ErrorType::all().into_iter().map(|error| self.run_study(error)).collect()
    }

    /// The RQ1 disparity analysis behind Figures 1 and 2.
    fn rq1(&self) -> Vec<DisparityRow> {
        let n = rq1_pool_size(&self.scale);
        eprintln!("analysing {n} rows per dataset...");
        analyze_datasets(&DatasetId::all(), n, self.seed).expect("analysis failed")
    }
}

/// RQ1 pool size per scale (the disparity analysis needs more rows than a
/// single training run for stable G² statistics).
fn rq1_pool_size(scale: &StudyScale) -> usize {
    (scale.pool_size * 2).max(4_000)
}

/// Figure 1 (single-attribute groups) or Figure 2 (intersectional; the
/// credit dataset has one demographic attribute and drops out, exactly as
/// in the paper): disparate proportions of flagged tuples for the
/// privileged and disadvantaged groups, G²-significant cases only.
fn figure(rows: &[DisparityRow], intersectional: bool) {
    print!("{}", render_disparities(rows, intersectional, 0.05));
    let rows: Vec<_> =
        rows.iter().filter(|r| r.intersectional == intersectional).cloned().collect();
    let (significant, burden) = demodq::rq1::summarize(&rows, 0.05);
    let kind = if intersectional { "intersectional" } else { "single-attribute" };
    println!(
        "\n{significant} significant {kind} disparities; {burden} burden the disadvantaged group."
    );
    println!(
        "{}",
        if intersectional {
            "Paper finding: the general trend matches the single-attribute analysis —\n\
             missing values burden the intersectionally disadvantaged (2/3 cases), other\n\
             error types show no consistent demographic dependency."
        } else {
            "Paper finding: missing values burden disadvantaged groups in 4/6 cases;\n\
             outliers are mixed; mislabels are flagged more often for privileged groups."
        }
    );
}

/// The §III drill-down: FP/FN split of the flagged mislabels per group.
fn drilldown(cli: &Cli) {
    println!();
    for id in DatasetId::all() {
        let dd =
            mislabel_drilldown(id, rq1_pool_size(&cli.scale), cli.seed).expect("drilldown failed");
        print!("{}", render_drilldown(&dd));
    }
    println!(
        "\nPaper finding (heart): privileged FP share 57.7% vs disadvantaged 52.2%,\n\
         the only significant FP/FN asymmetry."
    );
}

/// A 3×3 table of fairness × accuracy percentages, both axes ordered
/// worse / insignificant / better.
type Percentages = [[f64; 3]; 3];

/// The paper's four tables for one error type (PP / EO × single-attribute
/// / intersectional groups) with their reference percentages, the noun
/// their titles use, and the paper's finding.
fn paper_tables(
    error: ErrorType,
) -> ([(&'static str, Percentages); 4], &'static str, &'static str) {
    match error {
        ErrorType::MissingValues => (
            [
                ("II", [[3.7, 1.9, 16.7], [5.6, 34.3, 7.4], [3.7, 7.4, 19.4]]),
                ("III", [[1.9, 15.7, 19.4], [9.3, 25.9, 13.0], [1.9, 1.9, 11.1]]),
                ("IV", [[0.0, 0.0, 5.6], [3.7, 27.8, 11.1], [3.7, 14.8, 33.3]]),
                ("V", [[0.0, 11.1, 11.1], [7.4, 20.4, 22.2], [0.0, 11.1, 16.7]]),
            ],
            "missing values",
            "Paper finding: cleaning missing values rarely worsens accuracy (13%), tends to\n\
             worsen EO but improve PP at the single-attribute level, and improves both\n\
             metrics for intersectional groups.",
        ),
        ErrorType::Outliers => (
            [
                ("VI", [[21.2, 1.1, 1.6], [21.2, 25.9, 14.3], [5.3, 3.2, 6.3]]),
                ("VII", [[28.0, 5.8, 14.8], [15.9, 24.3, 7.4], [3.7, 0.0, 0.0]]),
                ("VIII", [[14.8, 0.9, 0.9], [28.7, 25.0, 8.3], [4.6, 2.8, 13.9]]),
                ("IX", [[15.7, 0.9, 16.7], [32.4, 26.9, 6.5], [0.0, 0.9, 0.0]]),
            ],
            "outliers",
            "Paper finding: outlier cleaning worsens accuracy in nearly half the cases and\n\
             mostly leaves fairness unchanged; when it does affect fairness it is far more\n\
             likely to worsen it (e.g. EO single-attribute: 48.7% worse vs 3.7% better).",
        ),
        ErrorType::Mislabels => (
            [
                ("X", [[14.3, 14.3, 19.0], [9.5, 0.0, 9.5], [0.0, 0.0, 33.3]]),
                ("XI", [[0.0, 4.8, 0.0], [0.0, 0.0, 14.3], [23.8, 9.5, 47.6]]),
                ("XII", [[25.0, 8.3, 33.3], [0.0, 0.0, 0.0], [0.0, 0.0, 33.3]]),
                ("XIII", [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [25.0, 8.3, 66.7]]),
            ],
            "label errors",
            "Paper finding: label repair strongly affects both axes — accuracy improves in\n\
             >60% of cases; EO improves (81% single-attribute, 100% intersectional) while PP\n\
             tends to worsen (47.6% and 66.7%) — the mirror image of missing-value repair.",
        ),
    }
}

/// The (metric, intersectional) cell of each of an error type's four
/// tables, in the order of [`paper_tables`].
fn table_layout() -> impl Iterator<Item = (FairnessMetric, bool)> {
    [false, true].into_iter().flat_map(|i| FairnessMetric::all().map(|m| (m, i)))
}

/// Tables II–V, VI–IX or X–XIII: the impact of auto-cleaning one error
/// type on fairness and accuracy, each next to the paper's percentages.
fn tables(study: &StudyResults) {
    let (references, noun, finding) = paper_tables(study.error);
    for ((numeral, reference), (metric, intersectional)) in references.iter().zip(table_layout()) {
        let table = build_table(study, metric, intersectional, 0.05);
        let kind = if intersectional { "intersectional" } else { "single-attribute" };
        let title = format!(
            "Measured Table {numeral}: impact of auto-cleaning {noun} ({kind} groups, {})",
            metric.name()
        );
        println!("{}", render_impact_table(&title, &table));
        println!("{}", render_paper_reference(numeral, reference));
    }
    println!("{finding}");
}

/// Renders the paper's reference percentages in the layout of
/// [`render_impact_table`] for side-by-side comparison.
fn render_paper_reference(table: &str, reference: &Percentages) -> String {
    let mut out = format!("Paper Table {table} (reference percentages):\n");
    let labels = ["worse", "insignificant", "better"];
    out.push_str(&format!(
        "{:>14} | {:^10} {:^13} {:^10}\n",
        "fairness\\acc", labels[0], labels[1], labels[2]
    ));
    for (f, row) in reference.iter().enumerate() {
        out.push_str(&format!(
            "{:>14} | {:>9.1}% {:>12.1}% {:>9.1}%\n",
            labels[f], row[0], row[1], row[2]
        ));
    }
    out
}

/// The §VI deep dive — the 40-case analysis, the detector and
/// categorical-imputation comparisons — and Table XIV, pooled over all
/// error types and both headline metrics at the single-attribute level.
fn deepdive(studies: &[StudyResults]) {
    let entries = pooled_entries(studies, &FairnessMetric::all(), false, 0.05);
    let (total, non_worsening, improving, win_win) = case_summary(&case_analysis(&entries));
    println!("Case analysis (metric x dataset-attribute x error type):");
    println!("  {total} cases in total (paper: 40)");
    println!("  {non_worsening} with a non-worsening technique (paper: 37)");
    println!("  {improving} with a fairness-improving technique (paper: 23)");
    println!("  {win_win} with a fairness-and-accuracy-improving technique (paper: 17)\n");

    println!("Outlier detector comparison (share of configurations worsening fairness):");
    for (detector, worse, better, n) in detector_comparison(&entries) {
        println!(
            "  {detector:<14} worse {:5.1}%  better {:5.1}%  (n={n})",
            100.0 * worse,
            100.0 * better
        );
    }
    println!("  paper: outliers-iqr 50%, outliers-sd 25%, outliers-if 33.3%\n");

    let (dummy, mode) = categorical_imputation_comparison(&entries);
    println!(
        "Categorical imputation fairness wins: dummy {dummy} vs mode {mode} (paper: 27 vs 22)\n"
    );

    println!("(pooled over {} classified configurations)\n", entries.len());
    print!("{}", render_model_table(&model_comparison(&entries)));
    println!(
        "\nPaper Table XIV reference (212 configurations):\n\
         xgboost  fairness worse 32.1% (68)  better 17.0% (36)  both 1.9% (4)\n\
         knn      fairness worse 31.6% (67)  better 12.7% (27)  both 11.3% (24)\n\
         log-reg  fairness worse 36.3% (77)  better 21.2% (45)  both 16.0% (34)"
    );
}

/// The paper's §VII "principled methodology for selecting an appropriate
/// cleaning procedure": per error type and (dataset, sensitive attribute),
/// the fairness-guarded selector recommends a technique or advises keeping
/// the dirty baseline.
fn advisor(cli: &Cli) {
    let mut all_recs = Vec::new();
    for error in ErrorType::all() {
        let results = cli.run_study(error);
        let recs = recommend_dual_metric(&results, false, 0.05, SelectionPolicy::AccuracyFirst);
        println!("\n=== {error} ===");
        println!("{:<10} {:<10} recommendation (guarded on PP and EO)", "dataset", "group");
        for rec in &recs {
            match &rec.choice {
                SelectorChoice::Clean { config, fairness, accuracy } => println!(
                    "{:<10} {:<10} {} + {}  (fairness {}, accuracy {})",
                    rec.dataset,
                    rec.group,
                    config.repair.name(),
                    config.model.name(),
                    fairness.label(),
                    accuracy.label()
                ),
                SelectorChoice::KeepDirty { rejected } => println!(
                    "{:<10} {:<10} KEEP DIRTY — all {rejected} candidates worsen fairness",
                    rec.dataset, rec.group
                ),
            }
        }
        all_recs.extend(recs);
    }
    let (settings, deployable, improving, keep_dirty) = demodq::selector::summarize(&all_recs);
    println!(
        "\nOverall: {settings} settings; {deployable} have a deployable technique,\n\
         {improving} a fairness-improving one, {keep_dirty} should not be auto-cleaned.\n\
         (The paper found a non-worsening technique for 37 of 40 cases — the guardrail\n\
         exists precisely because the remaining cases are invisible without it.)"
    );
}

/// Tunes log-reg on `train` (with or without missing-indicator columns)
/// and returns its test accuracy and EO gap per single attribute of `id`.
fn log_reg_gaps(
    id: DatasetId,
    train: &DataFrame,
    test: &DataFrame,
    indicators: bool,
    seed: u64,
) -> (f64, Vec<(String, f64)>) {
    let y_train = train.labels().expect("labels");
    let y_test = test.labels().expect("labels");
    let encoder = FeatureEncoder::fit(train, indicators).expect("encode");
    let x_train = encoder.transform(train).expect("transform");
    let x_test = encoder.transform(test).expect("transform");
    let tuned = tune_and_fit(ModelKind::LogReg, &x_train, &y_train, 5, seed);
    let preds = tuned.model.predict(&x_test);
    let mut gaps = Vec::new();
    for gs in id.spec().single_attribute_specs() {
        let groups = gs.evaluate(test).expect("groups");
        let gc = fairness::group_confusions(&y_test, &preds, &groups);
        if let Some(d) = FairnessMetric::EqualOpportunity.absolute_disparity(&gc) {
            gaps.push((gs.label(), d));
        }
    }
    (accuracy(&y_test, &preds), gaps)
}

/// A `(train, test)` split of a fresh 3,000-row pool of `id`.
fn ablation_split(id: DatasetId, pool_seed: u64, split_seed: u64) -> (DataFrame, DataFrame) {
    let pool = id.generate(3_000, pool_seed).expect("generate");
    let (train_idx, test_idx) = train_test_split(pool.n_rows(), 0.25, split_seed).expect("split");
    (pool.take(&train_idx).expect("take"), pool.take(&test_idx).expect("take"))
}

/// Ablations of two design choices DESIGN.md §4 calls out: missing-
/// indicator features on/off (the mechanism §VI credits for dummy
/// imputation's fairness wins) and the dirty baseline's row dropping
/// versus imputing everything.
fn ablation(seed: u64) {
    use cleaning::repair::{CatImpute, MissingRepair, NumImpute};
    let n_reps = 8u64;
    let pm = |values: &[f64]| {
        let d = Description::of(values).expect("non-empty");
        (d.mean, d.std_err)
    };

    println!("Ablation 1: missing-indicator features (adult, log-reg, EO gaps)");
    println!("{:<12} {:>10} {:>12} {:>12}", "indicators", "accuracy", "EO(sex)", "EO(race)");
    for indicators in [false, true] {
        let (mut accs, mut sex_gaps, mut race_gaps) = (Vec::new(), Vec::new(), Vec::new());
        for rep in 0..n_reps {
            let (train, test) = ablation_split(DatasetId::Adult, seed + rep, seed ^ rep);
            // No imputation at all: the encoder handles NaN either by
            // indicator or silently by mean — exactly the ablated choice.
            let (acc, gaps) = log_reg_gaps(DatasetId::Adult, &train, &test, indicators, seed + rep);
            accs.push(acc);
            for (g, v) in gaps {
                if g == "sex" {
                    sex_gaps.push(v)
                } else {
                    race_gaps.push(v)
                }
            }
        }
        let ((a, ae), (s, se), (r, re)) = (pm(&accs), pm(&sex_gaps), pm(&race_gaps));
        println!("{indicators:<12} {a:>7.3}±{ae:<4.3} {s:>8.3}±{se:<4.3} {r:>8.3}±{re:<4.3}");
    }

    println!("\nAblation 2: dirty-baseline semantics on credit (drop rows vs impute)");
    println!("{:<22} {:>10} {:>14}", "baseline", "accuracy", "EO(age)");
    let imputer = MissingRepair { num: NumImpute::Mean, cat: CatImpute::Dummy };
    for drop_rows in [true, false] {
        let (mut accs, mut gaps) = (Vec::new(), Vec::new());
        for rep in 0..n_reps {
            let (train_raw, test_raw) =
                ablation_split(DatasetId::Credit, seed + 100 + rep, seed ^ (100 + rep));
            let (train, test) = if drop_rows {
                let t = train_raw.drop_incomplete_rows().expect("drop");
                let fitted = imputer.fit(&t).expect("fit imputer");
                (t, fitted.apply(&test_raw).expect("impute test"))
            } else {
                let fitted = imputer.fit(&train_raw).expect("fit imputer");
                (
                    fitted.apply(&train_raw).expect("impute train"),
                    fitted.apply(&test_raw).expect("impute test"),
                )
            };
            let (acc, gap) = log_reg_gaps(DatasetId::Credit, &train, &test, true, seed + rep);
            accs.push(acc);
            gaps.extend(gap.into_iter().map(|(_, d)| d));
        }
        let ((a, ae), (g, ge)) = (pm(&accs), pm(&gaps));
        let baseline = if drop_rows { "drop incomplete rows" } else { "impute everything" };
        println!("{baseline:<22} {a:>7.3}±{ae:<4.3} {g:>10.3}±{ge:<4.3}");
    }
    println!(
        "\nInterpretation: the indicator ablation isolates the mechanism behind the\n\
         paper's §VI finding (dummy imputation lets the model learn missingness);\n\
         the baseline ablation quantifies how much row-dropping — the step the\n\
         'dirty' arm is forced into — distorts group representation on credit,\n\
         whose missing income skews young."
    );
}

/// Writes the five synthetic datasets as `data/<name>.csv`: 1k rows at
/// smoke scale, Table I's sizes at full scale, 10k otherwise.
fn gen_data(cli: &Cli) {
    std::fs::create_dir_all("data").expect("cannot create data/");
    for id in DatasetId::all() {
        let n = if cli.scale == StudyScale::full() {
            datasets::default_size(id)
        } else if cli.scale == StudyScale::smoke() {
            1_000
        } else {
            10_000
        };
        let frame = id.generate(n, cli.seed).expect("generate");
        let path = format!("data/{}.csv", id.name());
        let file = std::fs::File::create(&path).expect("create csv");
        tabular::csv::write_csv(&frame, file).expect("write csv");
        println!(
            "{path}: {n} rows, {} columns, {} missing cells",
            frame.n_cols(),
            frame.missing_cells()
        );
    }
}

/// One study with machine-greppable summary lines (`journal-hits: N`,
/// `journal-warnings: N`, `failed-tasks: N`) and an optional JSON export.
/// With `--kill-after N` the process SIGKILLs itself after the N-th task
/// is journaled, so CI can check that `--resume` replays the journal into
/// a byte-identical export.
fn study(cli: &Cli, error: ErrorType) {
    let results = cli.run_study(error);
    println!("journal-hits: {}", results.journal_hits);
    println!("journal-warnings: {}", results.journal_warnings);
    println!("failed-tasks: {}", results.failed_tasks.len());
    if let Some(summary) = results.degraded_summary() {
        println!("{summary}");
    }
    if let Some(out) = &cli.out {
        let rendered = demodq::export::study_results_json(&results);
        std::fs::write(out, rendered + "\n").unwrap_or_else(|e| {
            eprintln!("cannot write {}: {e}", out.display());
            std::process::exit(1);
        });
        eprintln!("wrote {}", out.display());
    }
}

/// Writes every impact table's cells of `studies` to
/// `results/study_summary.json`.
fn write_summary(studies: &[StudyResults]) {
    let impacts = [Impact::Worse, Impact::Insignificant, Impact::Better];
    let mut summary = serde_json::Map::new();
    for study in studies {
        for (metric, intersectional) in table_layout() {
            let table = build_table(study, metric, intersectional, 0.05);
            let kind = if intersectional { "intersectional" } else { "single" };
            let cells = impacts
                .iter()
                .flat_map(|&f| impacts.iter().map(move |&a| (f, a)))
                .map(|(f, a)| {
                    serde_json::json!({
                        "fairness": f.label(),
                        "accuracy": a.label(),
                        "count": table.cell(f, a),
                        "percent": table.percentage(f, a),
                    })
                })
                .collect();
            let key = format!("{}/{}/{kind}", study.error, metric.name());
            summary.insert(key, serde_json::Value::Array(cells));
        }
    }
    let path = "results/study_summary.json";
    std::fs::create_dir_all("results").expect("cannot create results/");
    let rendered = serde_json::to_string_pretty(&summary).expect("serialise");
    std::fs::write(path, rendered).expect("cannot write summary");
    println!("\nWrote {path}");
}

fn main() {
    let cli = parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("{e}\n{}", usage());
        std::process::exit(2);
    });
    let error = || cli.error.expect("parse requires --error where it is taken");
    match cli.command {
        Command::Table1 => print!("{}", render_dataset_table(&datasets::all_specs())),
        Command::Fig1 => {
            figure(&cli.rq1(), false);
            if cli.drilldown {
                drilldown(&cli);
            }
        }
        Command::Fig2 => figure(&cli.rq1(), true),
        Command::Tables => tables(&cli.run_study(error())),
        Command::Deepdive => deepdive(&cli.run_all_studies()),
        Command::Advisor => advisor(&cli),
        Command::Ablation => ablation(cli.seed),
        Command::GenData => gen_data(&cli),
        Command::Study => study(&cli, error()),
        Command::RunStudy => {
            print!("{}", render_dataset_table(&datasets::all_specs()));
            let rows = cli.rq1();
            for intersectional in [false, true] {
                println!();
                figure(&rows, intersectional);
            }
            let studies = cli.run_all_studies();
            for study in &studies {
                println!();
                tables(study);
            }
            println!();
            deepdive(&studies);
            write_summary(&studies);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Cli, String> {
        parse(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_scale_and_seed() {
        let cli = args(&["fig1", "--scale", "smoke", "--seed", "7"]).unwrap();
        assert_eq!(cli.scale, StudyScale::smoke());
        assert_eq!(cli.seed, 7);
        assert!(!cli.drilldown);
        assert_eq!(args(&["fig2", "--scale", "large"]).unwrap().scale, StudyScale::large());
        assert!(usage().contains("smoke|default|full|large"));
    }

    #[test]
    fn drilldown_is_a_fig1_flag_only() {
        assert!(args(&["fig1", "--drilldown"]).unwrap().drilldown);
        for other in ["fig2", "table1", "tables", "deepdive", "run-study"] {
            assert!(args(&[other, "--drilldown"]).is_err(), "{other} took --drilldown");
        }
    }

    #[test]
    fn parses_journal_and_resume() {
        let cli =
            args(&["tables", "--error", "mislabels", "--journal", "results/journal", "--resume"])
                .unwrap();
        assert_eq!(cli.error, Some(ErrorType::Mislabels));
        let study = cli.study_options();
        assert_eq!(study.journal_dir.as_deref(), Some(std::path::Path::new("results/journal")));
        assert!(study.resume);
        assert!(study.progress);
        assert!(study.on_task_complete.is_none());
        assert!(args(&["deepdive", "--resume"]).is_err(), "--resume needs --journal");
        for command in ["table1", "fig1", "fig2", "ablation", "gen-data"] {
            assert!(args(&[command, "--journal", "j"]).is_err(), "{command} took --journal");
        }
    }

    #[test]
    fn default_options() {
        let cli = args(&["study", "--error", "outliers"]).unwrap();
        assert_eq!(cli.scale, StudyScale::default_scale());
        assert_eq!(cli.seed, 42);
        assert_eq!((cli.journal, cli.resume, cli.out), (None, false, None));
        assert_eq!(cli.datasets, DatasetId::all().to_vec());
        assert_eq!(cli.models, ModelKind::all().to_vec());
        assert_eq!(cli.repair_side, RepairSide::Data);
        assert_eq!((cli.threshold, cli.kill_after), (0.1, 0));
        for command in COMMANDS.map(|(name, ..)| name) {
            let Ok(cli) = args(&[command, "--error", "mislabels"]).or_else(|_| args(&[command]))
            else {
                panic!("{command} rejects its defaults");
            };
            assert_eq!((cli.scale, cli.seed), (StudyScale::default_scale(), 42), "{command}");
        }
    }

    #[test]
    fn paper_references_cover_all_impact_tables() {
        let numerals: Vec<_> =
            ErrorType::all().into_iter().flat_map(|e| paper_tables(e).0.map(|(n, _)| n)).collect();
        assert_eq!(numerals.join(" "), "II III IV V VI VII VIII IX X XI XII XIII");
        for (table, reference) in ErrorType::all().into_iter().flat_map(|e| paper_tables(e).0) {
            let sum: f64 = reference.iter().flatten().sum();
            assert!((sum - 100.0).abs() < 1.0, "table {table} sums to {sum}");
            let rendered = render_paper_reference(table, &reference);
            assert!(rendered.contains(&format!("Table {table}")));
        }
    }

    #[test]
    fn rq1_pool_size_scales() {
        assert!(rq1_pool_size(&StudyScale::smoke()) >= 4_000);
        assert!(rq1_pool_size(&StudyScale::full()) >= StudyScale::full().pool_size);
    }
}
