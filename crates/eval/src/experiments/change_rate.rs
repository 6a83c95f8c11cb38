//! Section 6.2, "Change Rate" — how often the canonical path to the target
//! nodes changes while the induced wrappers stay valid (the *c-change*
//! statistics).

use super::{induce_for_task, robustness_experiment};
use crate::report::{mean, render_table};
use crate::scale::Scale;
use wi_webgen::datasets::{multi_node_tasks, single_node_tasks};

/// c-change statistics for one dataset.
#[derive(Debug, Clone)]
pub struct ChangeRateReport {
    /// Dataset label.
    pub dataset: String,
    /// Average number of c-changes survived by the induced wrappers.
    pub avg_c_changes: f64,
    /// Maximum number of c-changes survived.
    pub max_c_changes: usize,
    /// Number of wrappers that survive more than five c-changes.
    pub more_than_five: usize,
    /// Number of wrappers evaluated.
    pub wrappers: usize,
}

/// Runs the change-rate analysis for the single- and multi-node datasets.
pub fn run(scale: &Scale) -> Vec<ChangeRateReport> {
    let mut out = Vec::new();
    for (label, tasks) in [
        ("single-node", single_node_tasks(scale.single_tasks)),
        ("multi-node", multi_node_tasks(scale.multi_tasks)),
    ] {
        let report = robustness_experiment(&tasks, scale);
        let c_changes: Vec<i64> = report
            .tasks
            .iter()
            .filter_map(|t| t.induced.as_ref().map(|o| o.c_changes as i64))
            .collect();
        out.push(ChangeRateReport {
            dataset: label.to_string(),
            avg_c_changes: mean(&c_changes),
            max_c_changes: c_changes.iter().copied().max().unwrap_or(0) as usize,
            more_than_five: c_changes.iter().filter(|&&c| c > 5).count(),
            wrappers: c_changes.len(),
        });
    }
    // Also exercise induce_for_task so the analysis is self-contained even
    // when called in isolation.
    let _ = induce_for_task(&single_node_tasks(1)[0], scale.k);
    out
}

/// Renders the change-rate report.
pub fn render(scale: &Scale) -> String {
    let reports = run(scale);
    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|r| {
            vec![
                r.dataset.clone(),
                format!("{:.1}", r.avg_c_changes),
                r.max_c_changes.to_string(),
                r.more_than_five.to_string(),
                r.wrappers.to_string(),
            ]
        })
        .collect();
    format!(
        "== Section 6.2: c-change statistics ==\n{}",
        render_table(
            &[
                "dataset",
                "avg c-changes",
                "max",
                ">5 c-changes",
                "wrappers"
            ],
            &rows
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn change_rate_report_has_both_datasets() {
        let reports = run(&Scale::tiny());
        assert_eq!(reports.len(), 2);
        assert!(reports.iter().all(|r| r.wrappers > 0));
        assert!(render(&Scale::tiny()).contains("c-change"));
    }
}
