//! Section 6 — running time of the wrapper induction.
//!
//! The paper reports that induction takes the same order of magnitude as
//! page retrieval, with a median of 1.4 s per single-node expression on real
//! pages.  We report the wall-clock induction time on the synthetic pages
//! (absolute numbers differ — smaller pages, different hardware — the shape
//! to check is "milliseconds-to-seconds, same order as page generation").

use super::induce_for_task;
use crate::report::render_table;
use crate::scale::Scale;
use std::time::Instant;
use wi_webgen::datasets::{multi_node_tasks, single_node_tasks};
use wi_webgen::date::Day;

/// Induction timing statistics.
#[derive(Debug, Clone)]
pub struct TimingReport {
    /// Dataset label.
    pub dataset: String,
    /// Median induction time in milliseconds.
    pub median_ms: f64,
    /// Mean induction time in milliseconds.
    pub mean_ms: f64,
    /// Maximum induction time in milliseconds.
    pub max_ms: f64,
    /// Median page-generation (the stand-in for page retrieval) time in ms.
    pub median_page_ms: f64,
    /// Fraction of inductions faster than their page generation+parse.
    pub faster_than_page: f64,
    /// Number of tasks measured.
    pub tasks: usize,
}

/// Measures induction times over a dataset of tasks.
pub fn run(scale: &Scale) -> Vec<TimingReport> {
    let mut out = Vec::new();
    for (label, tasks) in [
        ("single-node", single_node_tasks(scale.single_tasks)),
        ("multi-node", multi_node_tasks(scale.multi_tasks)),
    ] {
        let mut induction_ms = Vec::new();
        let mut page_ms = Vec::new();
        let mut faster = 0usize;
        for task in &tasks {
            let t0 = Instant::now();
            let (_doc, targets) = task.page_with_targets(Day(0));
            let page_time = t0.elapsed().as_secs_f64() * 1000.0;
            if targets.is_empty() {
                continue;
            }
            let t1 = Instant::now();
            let _ = induce_for_task(task, scale.k);
            let induce_time = t1.elapsed().as_secs_f64() * 1000.0;
            if induce_time <= page_time {
                faster += 1;
            }
            induction_ms.push(induce_time);
            page_ms.push(page_time);
        }
        let med = |v: &[f64]| {
            if v.is_empty() {
                return 0.0;
            }
            let mut s = v.to_vec();
            s.sort_by(f64::total_cmp);
            s[s.len() / 2]
        };
        out.push(TimingReport {
            dataset: label.to_string(),
            median_ms: med(&induction_ms),
            mean_ms: induction_ms.iter().sum::<f64>() / induction_ms.len().max(1) as f64,
            max_ms: induction_ms.iter().copied().fold(0.0, f64::max),
            median_page_ms: med(&page_ms),
            faster_than_page: faster as f64 / induction_ms.len().max(1) as f64,
            tasks: induction_ms.len(),
        });
    }
    out
}

/// Renders the timing report.
pub fn render(scale: &Scale) -> String {
    let reports = run(scale);
    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|r| {
            vec![
                r.dataset.clone(),
                format!("{:.1}", r.median_ms),
                format!("{:.1}", r.mean_ms),
                format!("{:.1}", r.max_ms),
                format!("{:.1}", r.median_page_ms),
                crate::report::pct(r.faster_than_page),
                r.tasks.to_string(),
            ]
        })
        .collect();
    format!(
        "== Running time of the induction ==\n{}",
        render_table(
            &[
                "dataset",
                "median ms",
                "mean ms",
                "max ms",
                "page gen ms",
                "faster than page",
                "tasks"
            ],
            &rows
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_report_is_positive() {
        let reports = run(&Scale::tiny());
        assert_eq!(reports.len(), 2);
        for r in reports {
            assert!(r.tasks > 0);
            assert!(r.median_ms > 0.0);
            assert!(r.max_ms >= r.median_ms);
        }
    }
}
