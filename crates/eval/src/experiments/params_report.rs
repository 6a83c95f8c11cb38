//! Section 6.3, "Parameter Choices" — the scoring-parameter table and the
//! decay-factor ablation (the paper reports δ = 2.5 as optimal after sweeping
//! 0.5–5).

use super::induction_config_for;
use crate::report::render_table;
use crate::scale::Scale;
use wi_scoring::ScoringParams;
use wi_webgen::datasets::single_node_tasks;
use wi_xpath::{Axis, StringFunction};

/// One point of the decay sweep.
#[derive(Debug, Clone)]
pub struct DecayPoint {
    /// The decay factor δ.
    pub decay: f64,
    /// Mean survival days of the top-ranked induced wrappers.
    pub mean_valid_days: f64,
}

/// Renders the parameter table (the constants of Section 6.3).
pub fn render_parameters() -> String {
    let p = ScoringParams::paper_defaults();
    let mut rows = Vec::new();
    for axis in [
        Axis::Descendant,
        Axis::Attribute,
        Axis::FollowingSibling,
        Axis::Child,
        Axis::Parent,
        Axis::Ancestor,
        Axis::PrecedingSibling,
    ] {
        rows.push(vec![
            format!("axis {}", axis.name()),
            format!("{}", p.axis_score(axis)),
        ]);
    }
    for attr in ["id", "type", "title", "class", "for", "name"] {
        rows.push(vec![
            format!("attribute {attr}"),
            format!("{}", p.attribute_score(attr)),
        ]);
    }
    rows.push(vec![
        "attribute (default)".to_string(),
        format!("{}", p.attribute_default),
    ]);
    for f in StringFunction::ALL {
        rows.push(vec![
            format!("function {}", f.name()),
            format!("{}", p.function_score(*f)),
        ]);
    }
    rows.push(vec![
        "positional factor".to_string(),
        format!("{}", p.positional_factor),
    ]);
    rows.push(vec!["last()".to_string(), format!("{}", p.last_score)]);
    rows.push(vec![
        "no-function penalty".to_string(),
        format!("{}", p.no_function_penalty),
    ]);
    rows.push(vec![
        "no-predicate penalty".to_string(),
        format!("{}", p.no_predicate_penalty),
    ]);
    rows.push(vec!["decay δ".to_string(), format!("{}", p.decay)]);
    format!(
        "== Section 6.3: scoring parameters ==\n{}",
        render_table(&["parameter", "value"], &rows)
    )
}

/// Runs the decay-factor ablation: re-induce the single-node dataset under
/// several δ values and compare the robustness of the top-ranked wrappers.
pub fn decay_sweep(scale: &Scale, decays: &[f64]) -> Vec<DecayPoint> {
    let tasks = single_node_tasks(scale.single_tasks);
    decays
        .iter()
        .map(|&decay| {
            // Patch the scoring parameters in a copy of the per-task config.
            let patched: Vec<_> = tasks
                .iter()
                .map(|t| {
                    let mut config = induction_config_for(t, scale.k);
                    config.params = config.params.with_decay(decay);
                    (t.clone(), config)
                })
                .collect();
            // Reuse the robustness machinery by running per task.
            let mut days = Vec::new();
            for (task, config) in &patched {
                let (doc, targets) = task.page_with_targets(wi_webgen::date::Day(0));
                if targets.is_empty() {
                    continue;
                }
                let inducer = wi_induction::WrapperInducer::new(config.clone());
                let sample = wi_induction::Sample::from_root(&doc, &targets);
                if let Some(top) = inducer.induce(&[sample]).first() {
                    let outcome = crate::robustness::run_robustness_standard(
                        task,
                        &top.query,
                        scale.snapshot_interval,
                    );
                    days.push(outcome.valid_days);
                }
            }
            DecayPoint {
                decay,
                mean_valid_days: crate::report::mean(&days),
            }
        })
        .collect()
}

/// Renders the parameter table plus a small decay sweep.
pub fn render(scale: &Scale) -> String {
    let mut out = render_parameters();
    let sweep = decay_sweep(scale, &[0.5, 1.0, 2.5, 5.0]);
    let rows: Vec<Vec<String>> = sweep
        .iter()
        .map(|p| vec![format!("{}", p.decay), format!("{:.0}", p.mean_valid_days)])
        .collect();
    out.push_str(&format!(
        "\n== Decay-factor ablation ==\n{}",
        render_table(&["decay δ", "mean valid days (top-ranked)"], &rows)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parameter_table_lists_paper_values() {
        let text = render_parameters();
        assert!(text.contains("axis descendant"));
        assert!(text.contains("no-predicate penalty"));
        assert!(text.contains("2.5"));
    }

    #[test]
    fn decay_sweep_produces_points() {
        let points = decay_sweep(&Scale::tiny(), &[1.0, 2.5]);
        assert_eq!(points.len(), 2);
        assert!(points.iter().all(|p| p.mean_valid_days >= 0.0));
    }

    #[test]
    fn robustness_experiment_is_reused() {
        // Keep the shared engine exercised from this module too.
        let report =
            crate::experiments::robustness_experiment(&single_node_tasks(2), &Scale::tiny());
        assert_eq!(report.tasks.len(), 2);
    }
}
