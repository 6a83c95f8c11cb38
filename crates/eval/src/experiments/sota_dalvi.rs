//! Section 6.1 — comparison with Dalvi et al. [6] (probabilistic tree-edit
//! robustness): the *success ratio* of wrappers for IMDB director names over
//! 15 bi-monthly snapshots, for three overlapping periods.
//!
//! The success ratio of a system is the percentage of snapshots at time `t`
//! whose induced wrapper still works on the immediately following snapshot
//! `t+1`.

use crate::report::{pct, render_table};
use crate::scale::Scale;
use wi_baselines::treeedit::{ChangeModel, TreeEditInducer};
use wi_induction::{induce, Sample};
use wi_webgen::archive::ArchiveSimulator;
use wi_webgen::datasets::imdb_director_task;
use wi_webgen::date::Day;
use wi_xpath::{evaluate_with, EvalContext};

/// Success ratios for one observation period.
#[derive(Debug, Clone)]
pub struct PeriodResult {
    /// Label of the period (e.g. "2004–2006").
    pub period: String,
    /// Success ratio of our induction.
    pub ours: f64,
    /// Success ratio of the tree-edit baseline.
    pub treeedit: f64,
    /// Number of snapshot transitions evaluated.
    pub transitions: usize,
}

/// Runs the Dalvi-style comparison over the three periods the paper uses.
pub fn run(scale: &Scale) -> Vec<PeriodResult> {
    let periods = [
        (
            "2004-2006",
            Day::from_ymd(2004, 1, 1),
            Day::from_ymd(2006, 6, 1),
        ),
        (
            "2005-2007",
            Day::from_ymd(2005, 1, 1),
            Day::from_ymd(2007, 6, 1),
        ),
        (
            "2006-2008",
            Day::from_ymd(2006, 1, 1),
            Day::from_ymd(2008, 6, 1),
        ),
    ];
    let task = imdb_director_task();
    let archive = ArchiveSimulator::new(task.site.clone(), task.page_index, task.kind);

    periods
        .iter()
        .map(|(label, start, end)| {
            // 15 snapshots at ~2-month intervals.
            let snapshots = archive.snapshots_every(*start, *end, 60);
            let snapshots: Vec<_> = snapshots.into_iter().take(15).collect();
            let mut cx = EvalContext::new();
            let mut ours_ok = 0usize;
            let mut treeedit_ok = 0usize;
            let mut transitions = 0usize;

            for pair in snapshots.windows(2) {
                let (current, next) = (&pair[0], &pair[1]);
                let truth_now = task.targets_in(&current.doc, current.day);
                let truth_next = task.targets_in(&next.doc, next.day);
                if truth_now.is_empty() || truth_next.is_empty() {
                    continue;
                }
                transitions += 1;

                // Our system: induce from the single current snapshot.
                let config = super::induction_config_for(&task, scale.k);
                let sample = Sample::from_root(&current.doc, &truth_now);
                if let Some(top) = induce(&[sample], &config).first() {
                    if evaluate_with(&mut cx, &top.query, &next.doc, next.doc.root()) == truth_next
                    {
                        ours_ok += 1;
                    }
                }

                // Tree-edit baseline: learn the change model from the
                // snapshots before `current`, induce, check on `next`.
                let history: Vec<&wi_dom::Document> = snapshots
                    .iter()
                    .take_while(|s| s.day <= current.day)
                    .map(|s| &s.doc)
                    .collect();
                let model = ChangeModel::learn(&history);
                let inducer = TreeEditInducer::new(model, scale.k);
                if let Some(top) = inducer.induce(&current.doc, truth_now[0]).first() {
                    if evaluate_with(&mut cx, top, &next.doc, next.doc.root()) == truth_next {
                        treeedit_ok += 1;
                    }
                }
            }

            PeriodResult {
                period: label.to_string(),
                ours: ours_ok as f64 / transitions.max(1) as f64,
                treeedit: treeedit_ok as f64 / transitions.max(1) as f64,
                transitions,
            }
        })
        .collect()
}

/// Renders the comparison.
pub fn render(scale: &Scale) -> String {
    let results = run(scale);
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.period.clone(),
                pct(r.ours),
                pct(r.treeedit),
                r.transitions.to_string(),
            ]
        })
        .collect();
    format!(
        "== Section 6.1: success ratio vs probabilistic tree-edit baseline (Dalvi et al. [6]) ==\n{}",
        render_table(&["period", "ours", "tree-edit [6]", "transitions"], &rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn success_ratios_computed_for_three_periods() {
        let results = run(&Scale::tiny());
        assert_eq!(results.len(), 3);
        for r in &results {
            assert!(r.transitions >= 10, "only {} transitions", r.transitions);
            assert!((0.0..=1.0).contains(&r.ours));
            assert!((0.0..=1.0).contains(&r.treeedit));
            // Our wrappers must be at least as stable as the weaker baseline.
            assert!(r.ours + 1e-9 >= r.treeedit * 0.8);
        }
        assert!(render(&Scale::tiny()).contains("success ratio"));
    }
}
