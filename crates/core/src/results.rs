//! Failed-task records: the degraded-run summary of a study and its
//! entry in the study export ([`crate::export::study_results_json`]).

use serde_json::{json, Value};

/// A (dataset, split) task that failed during a study run and was excluded
/// from assembly; part of the degraded-run summary in
/// [`crate::runner::StudyResults`].
#[derive(Debug, Clone, PartialEq)]
pub struct FailedTask {
    /// Dataset name (e.g. `german`).
    pub dataset: String,
    /// Split index within the study grid.
    pub split: usize,
    /// The task's derived split seed (for standalone reproduction).
    pub seed: u64,
    /// The error the task failed with.
    pub error: String,
}

impl FailedTask {
    /// Short `dataset#split` label for summaries.
    pub fn label(&self) -> String {
        format!("{}#{}", self.dataset, self.split)
    }
}

/// JSON record of one failed task (used by the study export and the
/// degraded-run summary).
pub fn failed_task_record(task: &FailedTask) -> Value {
    json!({
        "dataset": task.dataset,
        "split": task.split,
        "seed": task.seed,
        "error": task.error,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_task_record_has_all_fields() {
        let task = FailedTask {
            dataset: "german".to_string(),
            split: 3,
            seed: 0xDEAD_BEEF,
            error: "boom".to_string(),
        };
        assert_eq!(task.label(), "german#3");
        let text = serde_json::to_string(&failed_task_record(&task)).unwrap();
        assert!(text.contains("\"dataset\":\"german\""), "{text}");
        assert!(text.contains("\"split\":3"), "{text}");
        assert!(text.contains("\"error\":\"boom\""), "{text}");
        assert!(text.contains(&format!("\"seed\":{}", 0xDEAD_BEEFu64)), "{text}");
    }
}
